//! Property-based tests (proptest) over the core invariants:
//!
//! 1. **Delta-rule soundness** — for random expression trees `E` over a
//!    dynamic matrix `A` and a static matrix `M`, the symbolically derived
//!    factored delta satisfies `E(A + ΔA) − E(A) = U Vᵀ` numerically. This
//!    is the central correctness property of the whole paper.
//! 2. **Simplifier soundness** — simplification preserves values.
//! 3. **Matrix algebra** — associativity, transpose laws, chain-order
//!    independence of results.
//! 4. **Batch compaction** — Zipf batch compaction preserves the dense
//!    update.

use linview::expr::delta::{self, DeltaMap};
use linview::expr::{simplify, Catalog, DeltaOptions, Expr};
use linview::matrix::Matrix;
use linview::runtime::{Env, Evaluator, RankOneUpdate, UpdateStream};
use proptest::prelude::*;

const N: usize = 5;

/// Random square-matrix expression trees over Var("A") (dynamic),
/// Var("M") (static), and the identity.
fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        3 => Just(Expr::var("A")),
        2 => Just(Expr::var("M")),
        1 => Just(Expr::identity(N)),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a * b),
            inner.clone().prop_map(|a| a.t()),
            (inner, -2.0f64..2.0).prop_map(|(a, s)| a.scale(s)),
        ]
    })
}

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.declare("A", N, N);
    cat.declare("M", N, N);
    cat
}

fn base_env(seed: u64) -> Env {
    let mut env = Env::new();
    env.bind("A", Matrix::random_uniform(N, N, seed));
    env.bind("M", Matrix::random_uniform(N, N, seed + 1));
    env
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property 1: Δ(E) = E(A + uvᵀ) − E(A), via the factored delta.
    #[test]
    fn delta_rule_matches_finite_difference(
        e in expr_strategy(),
        seed in 0u64..1000,
        row in 0usize..N,
    ) {
        let mut cat = catalog();
        let mut deltas = DeltaMap::new();
        let (du, dv) = delta::declare_input_delta(&mut cat, "A", 1).unwrap();
        deltas.insert("A".to_string(), (du, dv));

        let d = delta::derive(&e, &cat, &deltas, &DeltaOptions::default()).unwrap();

        let mut env = base_env(seed);
        let upd = RankOneUpdate::row_update(N, N, row, 0.5, seed + 2);
        env.bind("dU_A", upd.u.clone());
        env.bind("dV_A", upd.v.clone());
        let ev = Evaluator::new();

        let before = ev.eval(&e, &env).unwrap();
        // Numeric delta from the factored form (old values of A).
        let numeric_delta = match d {
            linview::expr::Delta::Zero => Matrix::zeros(before.rows(), before.cols()),
            linview::expr::Delta::Factored { u, v } => {
                let um = ev.eval(&u, &env).unwrap();
                let vm = ev.eval(&v, &env).unwrap();
                um.try_matmul(&vm.transpose()).unwrap()
            }
        };
        // Finite difference.
        let mut a_new = env.get("A").unwrap().clone();
        upd.apply_to(&mut a_new).unwrap();
        env.bind("A", a_new);
        let after = ev.eval(&e, &env).unwrap();
        let expected = after.try_sub(&before).unwrap();
        prop_assert!(
            numeric_delta.max_abs_diff(&expected) <= 1e-6 * (1.0 + expected.max_abs()),
            "delta mismatch for {e}: |Δ - finite difference| = {}",
            numeric_delta.max_abs_diff(&expected)
        );
    }

    /// Property 1b: the unfactored (ablation) delta is also sound.
    #[test]
    fn unfactored_delta_is_also_sound(
        e in expr_strategy(),
        seed in 0u64..500,
    ) {
        let mut cat = catalog();
        let mut deltas = DeltaMap::new();
        let (du, dv) = delta::declare_input_delta(&mut cat, "A", 1).unwrap();
        deltas.insert("A".to_string(), (du, dv));
        let opts = DeltaOptions { factor_common: false };
        let d = delta::derive(&e, &cat, &deltas, &opts).unwrap();

        let mut env = base_env(seed);
        let upd = RankOneUpdate::dense(N, N, 0.3, seed + 5);
        env.bind("dU_A", upd.u.clone());
        env.bind("dV_A", upd.v.clone());
        let ev = Evaluator::new();
        let before = ev.eval(&e, &env).unwrap();
        let numeric_delta = match d {
            linview::expr::Delta::Zero => Matrix::zeros(before.rows(), before.cols()),
            linview::expr::Delta::Factored { u, v } => {
                let um = ev.eval(&u, &env).unwrap();
                let vm = ev.eval(&v, &env).unwrap();
                um.try_matmul(&vm.transpose()).unwrap()
            }
        };
        let mut a_new = env.get("A").unwrap().clone();
        upd.apply_to(&mut a_new).unwrap();
        env.bind("A", a_new);
        let after = ev.eval(&e, &env).unwrap();
        let expected = after.try_sub(&before).unwrap();
        prop_assert!(numeric_delta.max_abs_diff(&expected) <= 1e-6 * (1.0 + expected.max_abs()));
    }

    /// Property 1c: the §4.4 multi-update rule — the delta derived for
    /// SIMULTANEOUS updates to A and M equals the finite difference of
    /// applying both at once (Example 4.5 generalized to random trees).
    #[test]
    fn joint_delta_matches_simultaneous_finite_difference(
        e in expr_strategy(),
        seed in 0u64..500,
    ) {
        let mut cat = catalog();
        let mut deltas = DeltaMap::new();
        for name in ["A", "M"] {
            let (du, dv) = delta::declare_input_delta(&mut cat, name, 1).unwrap();
            deltas.insert(name.to_string(), (du, dv));
        }
        let d = delta::derive(&e, &cat, &deltas, &DeltaOptions::default()).unwrap();

        let mut env = base_env(seed);
        let upd_a = RankOneUpdate::dense(N, N, 0.3, seed + 11);
        let upd_m = RankOneUpdate::dense(N, N, 0.3, seed + 13);
        env.bind("dU_A", upd_a.u.clone());
        env.bind("dV_A", upd_a.v.clone());
        env.bind("dU_M", upd_m.u.clone());
        env.bind("dV_M", upd_m.v.clone());
        let ev = Evaluator::new();
        let before = ev.eval(&e, &env).unwrap();
        let numeric_delta = match d {
            linview::expr::Delta::Zero => Matrix::zeros(before.rows(), before.cols()),
            linview::expr::Delta::Factored { u, v } => {
                let um = ev.eval(&u, &env).unwrap();
                let vm = ev.eval(&v, &env).unwrap();
                um.try_matmul(&vm.transpose()).unwrap()
            }
        };
        // Apply BOTH updates, then re-evaluate.
        let mut a_new = env.get("A").unwrap().clone();
        upd_a.apply_to(&mut a_new).unwrap();
        env.bind("A", a_new);
        let mut m_new = env.get("M").unwrap().clone();
        upd_m.apply_to(&mut m_new).unwrap();
        env.bind("M", m_new);
        let after = ev.eval(&e, &env).unwrap();
        let expected = after.try_sub(&before).unwrap();
        prop_assert!(
            numeric_delta.max_abs_diff(&expected) <= 1e-6 * (1.0 + expected.max_abs()),
            "joint delta mismatch for {e}"
        );
    }

    /// Property 2: simplification preserves expression values.
    #[test]
    fn simplify_preserves_value(e in expr_strategy(), seed in 0u64..500) {
        let cat = catalog();
        let s = simplify::simplify(&e, &cat).unwrap();
        let env = base_env(seed);
        let ev = Evaluator::new();
        let orig = ev.eval(&e, &env).unwrap();
        let simp = ev.eval(&s, &env).unwrap();
        prop_assert!(orig.max_abs_diff(&simp) <= 1e-9 * (1.0 + orig.max_abs()));
        // Shape inference agrees too.
        prop_assert_eq!(e.dim(&cat).unwrap(), s.dim(&cat).unwrap());
    }

    /// Property 3a: matmul associativity (up to fp error).
    #[test]
    fn matmul_is_associative(sa in 0u64..200, sb in 0u64..200, sc in 0u64..200) {
        let a = Matrix::random_uniform(4, 6, sa);
        let b = Matrix::random_uniform(6, 3, sb);
        let c = Matrix::random_uniform(3, 5, sc);
        let left = a.try_matmul(&b).unwrap().try_matmul(&c).unwrap();
        let right = a.try_matmul(&b.try_matmul(&c).unwrap()).unwrap();
        prop_assert!(left.max_abs_diff(&right) < 1e-10);
    }

    /// Property 3b: (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn transpose_reverses_products(sa in 0u64..200, sb in 0u64..200) {
        let a = Matrix::random_uniform(4, 6, sa);
        let b = Matrix::random_uniform(6, 3, sb);
        let lhs = a.try_matmul(&b).unwrap().transpose();
        let rhs = b.transpose().try_matmul(&a.transpose()).unwrap();
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-12);
    }

    /// Property 3c: chain-order optimization never changes results.
    #[test]
    fn chain_order_is_value_preserving(
        seed in 0u64..300,
        k in 1usize..4,
    ) {
        let mut env = Env::new();
        env.bind("A", Matrix::random_uniform(N, N, seed));
        env.bind("U", Matrix::random_uniform(N, k, seed + 1));
        env.bind("V", Matrix::random_uniform(N, k, seed + 2));
        let e = Expr::var("U") * Expr::var("V").t() * Expr::var("A") * Expr::var("A");
        let opt = Evaluator::with_chain_opt(true).eval(&e, &env).unwrap();
        let naive = Evaluator::with_chain_opt(false).eval(&e, &env).unwrap();
        prop_assert!(opt.max_abs_diff(&naive) <= 1e-8 * (1.0 + naive.max_abs()));
    }

    /// Property 4: Zipf batch compaction preserves the dense update.
    #[test]
    fn batch_compaction_is_lossless(
        seed in 0u64..300,
        batch in 1usize..20,
        z in 0.0f64..4.0,
    ) {
        let mut stream = UpdateStream::new(10, 8, 0.1, seed);
        let b = stream.next_batch_zipf(batch, z).unwrap();
        // compact_rows ran inside next_batch_zipf; rank ≤ batch and the
        // dense form must round-trip through another compaction.
        prop_assert!(b.rank() <= batch);
        let again = b.compact_rows().unwrap();
        prop_assert!(
            b.to_dense().unwrap().max_abs_diff(&again.to_dense().unwrap()) < 1e-12
        );
    }

    /// End-to-end trigger property: a random two-statement straight-line
    /// program compiled by Algorithm 1 and fired through the runtime must
    /// track full re-evaluation. This composes the delta rules, the
    /// simplifier, block stacking, chain ordering, and the executor.
    #[test]
    fn compiled_triggers_track_reevaluation_on_random_programs(
        e1 in expr_strategy(),
        e2 in expr_strategy(),
        seed in 0u64..300,
        row in 0usize..N,
    ) {
        use linview::compiler::{compile, CompileOptions, Program};
        use linview::runtime::{IncrementalView, ReevalView};

        let cat = catalog();
        // B := e1; C := e2[A := B]? Keep it simple: C references B and A.
        let mut program = Program::new();
        program.assign("B", e1);
        program.assign("C", e2 * Expr::var("B"));
        // Skip shape-inconsistent compositions (all square here, so none).
        let a = Matrix::random_uniform(N, N, seed).scale(0.5);
        let m = Matrix::random_uniform(N, N, seed + 1).scale(0.5);
        let inputs = [("A", a), ("M", m)];
        let tp = compile(&program, &["A"], &cat, &CompileOptions::default()).unwrap();
        prop_assert!(tp.triggers.len() == 1);

        let mut reeval = ReevalView::build(&program, &inputs, &cat).unwrap();
        let mut incr = IncrementalView::build(&program, &inputs, &cat).unwrap();
        for i in 0..3u64 {
            let upd = RankOneUpdate::row_update(N, N, (row + i as usize) % N, 0.1, seed + 2 + i);
            reeval.apply("A", &upd).unwrap();
            incr.apply("A", &upd).unwrap();
        }
        let r = reeval.get("C").unwrap();
        let x = incr.get("C").unwrap();
        prop_assert!(
            x.max_abs_diff(r) <= 1e-6 * (1.0 + r.max_abs()),
            "trigger diverged: {}",
            x.max_abs_diff(r)
        );
    }

    /// LU inverse is a true inverse on well-conditioned inputs.
    #[test]
    fn lu_inverse_roundtrip(seed in 0u64..200) {
        let a = Matrix::random_diag_dominant(8, seed);
        let inv = a.inverse().unwrap();
        let prod = a.try_matmul(&inv).unwrap();
        prop_assert!(prod.max_abs_diff(&Matrix::identity(8)) < 1e-8);
    }

    /// Cholesky rank-1 updates track refactorization for arbitrary update
    /// vectors (SPD is preserved by positive-semidefinite additions).
    #[test]
    fn cholesky_update_matches_refactorization(seed in 0u64..200, scale in 0.1f64..2.0) {
        use linview::matrix::{random_spd, Cholesky};
        let a = random_spd(7, seed);
        let mut ch = Cholesky::factorize(&a).unwrap();
        let v = Matrix::random_col(7, seed + 1).scale(scale);
        ch.update(&v).unwrap();
        let mut a_new = a;
        a_new.add_assign_from(&Matrix::outer(&v, &v).unwrap()).unwrap();
        let direct = Cholesky::factorize(&a_new).unwrap();
        prop_assert!(ch.factor().max_abs_diff(direct.factor()) < 1e-7);
    }

    /// Checkpoint save/restore is lossless for arbitrary environments.
    #[test]
    fn checkpoint_roundtrip_is_lossless(seed in 0u64..200, count in 1usize..6) {
        use linview::runtime::checkpoint::{restore, save};
        let mut env = Env::new();
        for i in 0..count {
            env.bind(
                format!("m{i}"),
                Matrix::random_uniform(1 + (seed as usize + i) % 7, 1 + i, seed + i as u64),
            );
        }
        let back = restore(save(&env).unwrap()).unwrap();
        prop_assert_eq!(back.len(), env.len());
        for (name, m) in env.iter() {
            prop_assert_eq!(back.get(name).unwrap(), m);
        }
    }

    /// Sherman–Morrison agrees with direct inversion for random rank-1
    /// updates of a well-conditioned matrix.
    #[test]
    fn sherman_morrison_matches_direct(seed in 0u64..200) {
        let e = Matrix::random_diag_dominant(8, seed);
        let w = e.inverse().unwrap();
        let p = Matrix::random_uniform(8, 1, seed + 1).scale(0.2);
        let q = Matrix::random_uniform(8, 1, seed + 2).scale(0.2);
        let (u, v) = linview::runtime::sherman_morrison(&w, &p, &q).unwrap();
        let mut w_new = w;
        w_new.add_assign_from(&u.try_matmul(&v.transpose()).unwrap()).unwrap();
        let mut e_new = e;
        e_new.add_assign_from(&p.try_matmul(&q.transpose()).unwrap()).unwrap();
        let direct = e_new.inverse().unwrap();
        prop_assert!(w_new.max_abs_diff(&direct) < 1e-7);
    }
}
