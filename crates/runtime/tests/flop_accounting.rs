//! FLOP-count comparisons measured on the process-global counter.
//!
//! `flops::read()` deltas only mean something while nothing else in the
//! process multiplies matrices, and `cargo test` runs a binary's tests on
//! parallel threads — so every measurement lives in the ONE test below: its
//! own process, no siblings. (That also makes it the place to switch the
//! process-wide GEMM kernel.)

use linview_compiler::parse::parse_program;
use linview_compiler::{compile, CompileOptions};
use linview_expr::{Catalog, Expr};
use linview_matrix::{
    factor_nnz, flops, set_default_kernel, ApproxEq, GemmKernel, Matrix, SPARSE_FOLD_CROSSOVER,
};
use linview_runtime::{
    BatchUpdate, Env, Evaluator, ExecBackend, ExecOptions, FlushPolicy, IncrementalView,
    LocalBackend, MaintenanceEngine, RankOneUpdate, Result, SparseStats, StageDelta,
};

#[test]
fn cheaper_plans_execute_fewer_flops() {
    chain_order_saves_flops();
    recompression_exploits_redundant_batch_updates();
    a_shared_view_charges_exactly_the_folds_it_replays();
}

fn chain_order_saves_flops() {
    let mut env = Env::new();
    let n = 96;
    env.bind("A", Matrix::random_spectral(n, 1, 0.9));
    env.bind("u", Matrix::random_col(n, 2));
    env.bind("v", Matrix::random_col(n, 3));
    let e = Expr::var("u") * Expr::var("v").t() * Expr::var("A");

    flops::reset();
    let _ = Evaluator::with_chain_opt(true).eval(&e, &env).unwrap();
    let with_opt = flops::reset();
    let _ = Evaluator::with_chain_opt(false).eval(&e, &env).unwrap();
    let without = flops::reset();
    // Optimized: two O(n²) matvec-class products. Naive: outer product
    // then O(n³) square product — at least an order of magnitude more.
    assert!(
        with_opt * 10 <= without,
        "chain opt {with_opt} vs naive {without}"
    );
}

fn recompression_exploits_redundant_batch_updates() {
    // Two dense rank-1 events, each sent twice: the batch is
    // syntactically rank 4 but numerically rank 2. Row compaction cannot
    // merge dense events, so the win comes entirely from the engine's
    // pre-flush recompression spotting the hidden redundancy: block ranks
    // drop 4 -> 2, 8 -> 4, 16 -> 8, and the flush (SVD pass included)
    // charges strictly fewer FLOPs than firing the raw batch.
    let n = 48;
    let program = parse_program("B := A * A; C := B * B;").unwrap();
    let mut cat = Catalog::new();
    cat.declare("A", n, n);
    let a = Matrix::random_spectral(n, 7, 0.7);
    let view = IncrementalView::build(&program, &[("A", a.clone())], &cat).unwrap();
    let tp = compile(&program, &["A"], &cat, &CompileOptions::default()).unwrap();
    let events: Vec<RankOneUpdate> = [8u64, 8, 20, 20]
        .iter()
        .map(|&seed| RankOneUpdate::dense(n, n, 0.01, seed))
        .collect();

    let mut env = Env::new();
    let b = a.try_matmul(&a).unwrap();
    env.bind("C", b.try_matmul(&b).unwrap());
    env.bind("B", b);
    env.bind("A", a);
    let raw = BatchUpdate::from_rank_ones(&events).unwrap();
    flops::reset();
    LocalBackend
        .fire_trigger(
            &mut env,
            &Evaluator::new(),
            &tp.triggers[0],
            &raw.u,
            &raw.v,
            &ExecOptions::default(),
        )
        .unwrap();
    let raw_flops = flops::read();

    let mut engine = MaintenanceEngine::new(view, FlushPolicy::Count(events.len()));
    flops::reset();
    for upd in events {
        engine.ingest("A", upd).unwrap();
    }
    let engine_flops = flops::read();
    assert_eq!(engine.stats().firings, 1);
    assert!(
        engine.stats().sparse.rank_saved > 0,
        "the root pass shed no rank from a half-redundant batch"
    );
    assert!(
        engine_flops < raw_flops,
        "recompressed flush {engine_flops} !< raw firing {raw_flops}"
    );
    for view in ["A", "B", "C"] {
        assert!(
            engine
                .get(view)
                .unwrap()
                .approx_eq(env.get(view).unwrap(), 1e-8),
            "{view} diverged"
        );
    }
}

/// [`LocalBackend`], keeping a copy of every delta it folds.
#[derive(Debug, Default)]
struct Recording {
    folds: Vec<StageDelta>,
}

impl ExecBackend for Recording {
    fn name(&self) -> &'static str {
        "recording"
    }

    fn materialize(&mut self, _env: &Env) -> Result<()> {
        Ok(())
    }

    fn apply_delta(
        &mut self,
        env: &mut Env,
        target: &str,
        u: &Matrix,
        v: &Matrix,
        sparse: bool,
    ) -> Result<SparseStats> {
        self.folds.push(StageDelta {
            target: target.to_string(),
            u: u.clone(),
            v: v.clone(),
        });
        LocalBackend.apply_delta(env, target, u, v, sparse)
    }

    fn apply_stage(
        &mut self,
        env: &mut Env,
        deltas: &[StageDelta],
        sparse: bool,
    ) -> Result<SparseStats> {
        self.folds.extend_from_slice(deltas);
        LocalBackend.apply_stage(env, deltas, sparse)
    }
}

/// What folding `d` charges the meter: `2·nnz·m + rows·m` on the sparse
/// path (`rows` = nonzero rows of `U`), `2nkm + nm` on the dense one.
fn fold_flops(d: &StageDelta) -> u64 {
    let ((n, k), m) = (d.u.shape(), d.v.rows());
    if k == 0 {
        return 0;
    }
    let nnz = factor_nnz(&d.u);
    if (nnz as f64) <= SPARSE_FOLD_CROSSOVER * (n * k) as f64 {
        let rows = (0..n)
            .filter(|&r| d.u.row(r).iter().any(|&x| x != 0.0))
            .count();
        (2 * nnz * m + rows * m) as u64
    } else {
        (2 * n * k * m + n * m) as u64
    }
}

/// A view written behind a published snapshot brings its recycled buffer
/// up to date by replaying the folds it missed. Those are real arithmetic
/// and go through the meter: a served firing charges what the same firing
/// charges on a view nobody shares, plus exactly the replayed folds — and
/// nothing more whenever the copy path runs instead (no free spare yet, or
/// the log was written under another GEMM kernel).
fn a_shared_view_charges_exactly_the_folds_it_replays() {
    let n = 64;
    let program = parse_program("C := A * B; D := C * C;").unwrap();
    let mut cat = Catalog::new();
    cat.declare("A", n, n);
    cat.declare("B", n, n);
    let inputs = [
        ("A", Matrix::random_spectral(n, 7, 0.8)),
        ("B", Matrix::random_spectral(n, 8, 0.8)),
    ];
    let mut served =
        IncrementalView::build_on(Recording::default(), &program, &inputs, &cat).unwrap();
    let _handle = served.enable_serving(1);
    let mut plain = IncrementalView::build(&program, &inputs, &cat).unwrap();

    // Row updates to `A`: every firing folds a sparse delta into `A` and
    // `C` and a dense one into `D`, all three inside the replay budget.
    let mut replayed_any = false;
    for (round, kernel) in [
        None,                        // no spare yet: copies
        None,                        // replays round 0's folds
        None,                        // and round 1's
        Some(GemmKernel::Naive),     // the logs were written under `packed`: copies
        Some(GemmKernel::Naive),     // replays under `naive`
        Some(GemmKernel::PackedFma), // copies; a fused fold is not logged
        None,                        // so this copies too
        None,                        // replays
    ]
    .into_iter()
    .enumerate()
    {
        set_default_kernel(kernel);
        let replays = matches!(round, 1 | 2 | 4 | 7);
        let missed: u64 = served.backend().folds.iter().map(fold_flops).sum();
        served.backend_mut().folds.clear();
        let upd = RankOneUpdate::row_update(n, n, (5 * round) % n, 0.01, round as u64);
        flops::reset();
        plain.apply("A", &upd).unwrap();
        let unshared = flops::reset();
        served.apply("A", &upd).unwrap();
        let shared = flops::reset();
        let want = unshared + if replays { missed } else { 0 };
        assert_eq!(
            shared, want,
            "round {round}: {unshared} + replayed {missed} expected"
        );
        replayed_any |= replays && missed > 0;
        for view in ["A", "B", "C", "D"] {
            assert_eq!(
                served.get(view).unwrap(),
                plain.get(view).unwrap(),
                "{view}"
            );
        }
    }
    set_default_kernel(None);
    assert!(replayed_any);
}
