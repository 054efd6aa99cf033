//! The firing path vs a textbook reference, bit for bit.
//!
//! The runtime executes triggers from a lowered plan over borrowed
//! operands: no copies of views, transposes as flags, skinny kernels that
//! stream `P` once for `P U` and `Pᵀ V`, stacked blocks filled in place,
//! blocks moved into folds, independent statements batched on the GEMM
//! pool. None of that may change a single bit of any maintained view.
//!
//! The reference below is the evaluator this replaced, spelled as plainly
//! as possible: it walks `Trigger::stmts` in program order against a
//! name-keyed [`Env`], clones every variable, *forms* every transpose, and
//! multiplies with [`GemmKernel::Naive`] in the association the chain DP
//! picks. Both sides start from the same materialized state and fire the
//! same update; every maintained view must come out `==`.
//!
//! Coverage: every shipped trigger program (powers under all three
//! iteration models, sums, reachability, OLS under both inverse
//! primitives, the PageRank step, a two-input program and its joint
//! trigger), ragged sizes, update ranks 1/3/16, staged and sequential
//! schedules, and one size past the parallel-stage threshold.

use linview::apps::powers::powers_program;
use linview::apps::sums::sums_program;
use linview::apps::IterModel;
use linview::compiler::{compile_joint, CompileOptions, Program, Trigger, TriggerStmt};
use linview::expr::chain::{self, ChainTree};
use linview::expr::cost::CostModel;
use linview::expr::delta::input_delta_names;
use linview::expr::{Catalog, Dim, Expr};
use linview::matrix::{GemmKernel, Matrix};
use linview::prelude::parse_program;
use linview::runtime::{Env, ExecOptions, IncrementalView, InversePrimitive};

fn naive_mul(a: &Matrix, b: &Matrix) -> Matrix {
    a.matmul_with(b, GemmKernel::Naive).unwrap()
}

/// The reference evaluator: clone, transpose, naive multiply.
fn naive_eval(e: &Expr, env: &Env) -> Matrix {
    match e {
        Expr::Var(name) => env.get(name).unwrap().clone(),
        Expr::Add(a, b) => naive_eval(a, env).try_add(&naive_eval(b, env)).unwrap(),
        Expr::Sub(a, b) => naive_eval(a, env).try_sub(&naive_eval(b, env)).unwrap(),
        Expr::Scale(s, e) => naive_eval(e, env).scale(s.0),
        Expr::Transpose(e) => naive_eval(e, env).transpose(),
        Expr::Inverse(e) => naive_eval(e, env).inverse().unwrap(),
        Expr::Identity(n) => Matrix::identity(*n),
        Expr::Zero(r, c) => Matrix::zeros(*r, *c),
        Expr::HStack(parts) => {
            let blocks: Vec<Matrix> = parts.iter().map(|p| naive_eval(p, env)).collect();
            Matrix::hstack(&blocks.iter().collect::<Vec<_>>()).unwrap()
        }
        Expr::Mul(_, _) => {
            let values: Vec<Matrix> = chain::flatten_product(e)
                .into_iter()
                .map(|f| naive_eval(f, env))
                .collect();
            let dims: Vec<Dim> = values
                .iter()
                .map(|m| Dim::new(m.rows(), m.cols()))
                .collect();
            fn run(tree: &ChainTree, values: &[Matrix]) -> Matrix {
                match tree {
                    ChainTree::Leaf(i) => values[*i].clone(),
                    ChainTree::Node(l, r) => naive_mul(&run(l, values), &run(r, values)),
                }
            }
            run(
                &chain::optimal_order(&dims, &CostModel::cubic()).tree,
                &values,
            )
        }
    }
}

/// `rank(P)` sequential Sherman–Morrison steps, every product naive.
fn naive_sherman_morrison(w: &Matrix, p: &Matrix, q: &Matrix) -> (Matrix, Matrix) {
    let mut w_work = w.clone();
    let (mut us, mut vs) = (Vec::new(), Vec::new());
    for i in 0..p.cols() {
        let (u, v) = (p.col_matrix(i), q.col_matrix(i));
        let wu = w_work.matvec(&u).unwrap();
        let wv = naive_mul(&w_work.transpose(), &v);
        let den = 1.0 + Matrix::dot(&v, &wu).unwrap();
        let ucol = wu.scale(-1.0 / den);
        w_work.add_outer(&ucol, &wv).unwrap();
        us.push(ucol);
        vs.push(wv);
    }
    let stack = |cols: &[Matrix]| Matrix::hstack(&cols.iter().collect::<Vec<_>>()).unwrap();
    (stack(&us), stack(&vs))
}

/// One Woodbury step, every product naive.
fn naive_woodbury(w: &Matrix, p: &Matrix, q: &Matrix) -> (Matrix, Matrix) {
    let wp = naive_mul(w, p);
    let wtq = naive_mul(&w.transpose(), q);
    let mut cap = naive_mul(&q.transpose(), &wp);
    for i in 0..p.cols() {
        cap.set(i, i, cap.get(i, i) + 1.0);
    }
    let xt = cap.transpose().solve(&wp.transpose()).unwrap();
    (xt.transpose().scale(-1.0), wtq)
}

/// Fires `trigger` the textbook way: program order, name-keyed bindings.
fn naive_fire(
    env: &mut Env,
    trigger: &Trigger,
    updates: &[(&str, &Matrix, &Matrix)],
    primitive: InversePrimitive,
) {
    for (input, du, dv) in updates {
        let (du_name, dv_name) = input_delta_names(input);
        env.bind(du_name, (*du).clone());
        env.bind(dv_name, (*dv).clone());
    }
    for stmt in &trigger.stmts {
        match stmt {
            TriggerStmt::Assign { var, expr } => {
                let value = naive_eval(expr, env);
                env.bind(var.clone(), value);
            }
            TriggerStmt::ShermanMorrison {
                inv_var,
                p,
                q,
                out_u,
                out_v,
            } => {
                let (p, q) = (naive_eval(p, env), naive_eval(q, env));
                let w = env.get(inv_var).unwrap();
                let (u, v) = match primitive {
                    InversePrimitive::ShermanMorrison => naive_sherman_morrison(w, &p, &q),
                    InversePrimitive::Woodbury => naive_woodbury(w, &p, &q),
                };
                env.bind(out_u.clone(), u);
                env.bind(out_v.clone(), v);
            }
            TriggerStmt::ApplyDelta { target, u, v } => {
                let delta = naive_mul(&naive_eval(u, env), &naive_eval(v, env).transpose());
                env.get_mut(target)
                    .unwrap()
                    .add_assign_from(&delta)
                    .unwrap();
            }
        }
    }
}

/// A program, its inputs, and the input(s) one firing updates.
struct Case {
    name: &'static str,
    program: Program,
    inputs: Vec<(&'static str, Matrix)>,
    /// One entry fires that input's trigger; several fire the joint one.
    fired: Vec<&'static str>,
}

impl Case {
    fn catalog(&self) -> Catalog {
        let mut cat = Catalog::new();
        for (name, m) in &self.inputs {
            cat.declare(*name, m.rows(), m.cols());
        }
        cat
    }
}

fn square_input(n: usize, seed: u64) -> Vec<(&'static str, Matrix)> {
    vec![("A", Matrix::random_spectral(n, seed, 0.8))]
}

fn cases() -> Vec<Case> {
    let ols = parse_program("Z := X' * X; W := inv(Z); beta := W * X' * Y;").unwrap();
    let ols_inputs = || {
        vec![
            ("X", Matrix::random_uniform(29, 7, 5)),
            ("Y", Matrix::random_col(29, 6)),
        ]
    };
    let (reach_sums, final_sum) = sums_program(IterModel::Exponential, 4, 21);
    let mut reach = Program::new();
    for stmt in reach_sums.statements() {
        reach.assign(stmt.target.clone(), stmt.expr.clone());
    }
    reach.assign("R", Expr::var("A") * Expr::var(final_sum));
    let two_input = || parse_program("C := A * B; D := C * C;").unwrap();
    let two_inputs = || {
        vec![
            ("A", Matrix::random_spectral(19, 11, 0.7)),
            ("B", Matrix::random_spectral(19, 12, 0.7)),
        ]
    };
    vec![
        Case {
            name: "powers EXP A^16",
            program: powers_program(IterModel::Exponential, 16).0,
            inputs: square_input(23, 1),
            fired: vec!["A"],
        },
        Case {
            name: "powers LIN A^5",
            program: powers_program(IterModel::Linear, 5).0,
            inputs: square_input(17, 2),
            fired: vec!["A"],
        },
        Case {
            name: "powers SKIP-4 A^16",
            program: powers_program(IterModel::Skip(4), 16).0,
            inputs: square_input(26, 3),
            fired: vec!["A"],
        },
        Case {
            name: "powers EXP A^8 past the parallel-stage threshold",
            program: powers_program(IterModel::Exponential, 8).0,
            inputs: square_input(187, 4),
            fired: vec!["A"],
        },
        Case {
            name: "sums LIN S_4",
            program: sums_program(IterModel::Linear, 4, 22).0,
            inputs: square_input(22, 7),
            fired: vec!["A"],
        },
        Case {
            name: "sums EXP S_8",
            program: sums_program(IterModel::Exponential, 8, 18).0,
            inputs: square_input(18, 8),
            fired: vec!["A"],
        },
        Case {
            name: "reach",
            program: reach,
            inputs: square_input(21, 9),
            fired: vec!["A"],
        },
        Case {
            name: "ols, X updated",
            program: ols.clone(),
            inputs: ols_inputs(),
            fired: vec!["X"],
        },
        Case {
            name: "ols, Y updated",
            program: ols,
            inputs: ols_inputs(),
            fired: vec!["Y"],
        },
        Case {
            name: "pagerank step, M updated",
            program: parse_program("R1 := M * R0; R2 := M * R1; R3 := M * R2;").unwrap(),
            inputs: vec![
                ("M", Matrix::random_stochastic(25, 10)),
                ("R0", Matrix::random_col(25, 11)),
            ],
            fired: vec!["M"],
        },
        Case {
            name: "two inputs, B updated",
            program: two_input(),
            inputs: two_inputs(),
            fired: vec!["B"],
        },
        Case {
            name: "two inputs, joint trigger",
            program: two_input(),
            inputs: two_inputs(),
            fired: vec!["A", "B"],
        },
    ]
}

/// Fires one update through the runtime and through the reference from the
/// same state; returns how many views were compared.
fn check(case: &Case, rank: usize, sequential: bool, primitive: InversePrimitive) -> usize {
    let label = format!(
        "{}, rank {rank}, {}, {primitive:?}",
        case.name,
        if sequential { "sequential" } else { "staged" }
    );
    let cat = case.catalog();
    let mut view = IncrementalView::build(&case.program, &case.inputs, &cat).unwrap();
    view.set_exec_options(ExecOptions {
        inverse_primitive: primitive,
        sequential,
        ..ExecOptions::default()
    });
    let dynamic: Vec<&str> = case.inputs.iter().map(|(n, _)| *n).collect();
    let normalized = case.program.hoist_inverses(&dynamic);
    let trigger = if let [input] = case.fired[..] {
        view.trigger_program().trigger_for(input).unwrap().clone()
    } else {
        compile_joint(&normalized, &dynamic, &cat, &CompileOptions::default())
            .unwrap()
            .trigger
    };
    // The reference starts from the runtime's own materialized state:
    // every input and every view the program defines.
    let mut env = Env::new();
    let views = normalized.statements().iter().map(|s| s.target.as_str());
    for name in dynamic.iter().copied().chain(views) {
        env.bind(name, view.get(name).unwrap().clone());
    }

    let factors: Vec<(Matrix, Matrix)> = case
        .fired
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let (rows, cols) = view.get(input).unwrap().shape();
            let seed = 100 + 10 * rank as u64 + i as u64;
            (
                Matrix::random_uniform(rows, rank, seed).scale(0.01),
                Matrix::random_uniform(cols, rank, seed + 5),
            )
        })
        .collect();
    let updates: Vec<(&str, &Matrix, &Matrix)> = case
        .fired
        .iter()
        .zip(&factors)
        .map(|(input, (du, dv))| (*input, du, dv))
        .collect();
    if let [(input, du, dv)] = updates[..] {
        view.apply_factored(input, du, dv).unwrap();
    } else {
        view.apply_joint(&updates).unwrap();
    }
    naive_fire(&mut env, &trigger, &updates, primitive);

    let maintained = trigger.maintained_views();
    for name in &maintained {
        assert_eq!(
            view.get(name).unwrap(),
            env.get(name).unwrap(),
            "{label}: view {name} diverged from the reference"
        );
    }
    maintained.len()
}

#[test]
fn every_shipped_trigger_matches_the_naive_reference_bit_for_bit() {
    let mut compared = 0;
    for case in cases() {
        let primitives: &[InversePrimitive] = if case.name.starts_with("ols") {
            &[
                InversePrimitive::ShermanMorrison,
                InversePrimitive::Woodbury,
            ]
        } else {
            &[InversePrimitive::ShermanMorrison]
        };
        for rank in [1, 3, 16] {
            for sequential in [false, true] {
                for &primitive in primitives {
                    compared += check(&case, rank, sequential, primitive);
                }
            }
        }
    }
    assert!(compared > 300, "only {compared} views were compared");
}
