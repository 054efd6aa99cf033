//! Cross-backend conformance suite.
//!
//! Every app workload (matrix powers, sums of powers, OLS, reachability,
//! a PageRank power-iteration step, the general iterative form) runs on the Local and Threaded
//! backends from the *same* `UpdateStream` seed, and the maintained views
//! must be **bit-identical** across both — the shared statement
//! interpreter leaves no room for divergence, and this suite is the lock
//! on that door (`tests/socket_transport.rs` pins the socket backend to
//! the threaded one the same way). Per-backend communication invariants
//! ride along:
//!
//! * Local never communicates at all.
//! * Threaded broadcasts on every delta and never shuffles: exactly one
//!   frame per worker for every rank-positive delta Local folded.

use linview::apps::general::general_program;
use linview::apps::powers::powers_program;
use linview::apps::sums::sums_program;
use linview::prelude::*;
use linview::runtime::{ExecBackend, ThreadedBackend};

const SEED: u64 = 4242;

/// One conformance case: a program, its inputs, which input the update
/// stream hits, and the worker-grid geometry (rectangular where a program
/// maintains `n×1` views that a square grid could not partition).
struct Case {
    name: &'static str,
    program: Program,
    inputs: Vec<(&'static str, Matrix)>,
    target: &'static str,
    grid: (usize, usize),
    scale: f64,
    updates: usize,
}

fn chain_adjacency(n: usize, damping: f64) -> Matrix {
    let mut a = Matrix::zeros(n, n);
    for i in 0..n - 1 {
        a.set(i, i + 1, damping);
    }
    a.set(n - 1, 0, damping); // close the cycle so powers stay nonzero
    a
}

fn cases() -> Vec<Case> {
    let n = 12;
    let mut out = Vec::new();

    // Matrix powers A^4 under the exponential model (Fig. 3a-3c).
    let (program, _) = powers_program(IterModel::Exponential, 4);
    out.push(Case {
        name: "powers",
        program,
        inputs: vec![("A", Matrix::random_spectral(n, 7, 0.8))],
        target: "A",
        grid: (2, 2),
        scale: 0.01,
        updates: 8,
    });

    // Sums of powers I + A + ... + A^(k-1) (Fig. 3d).
    let (program, _) = sums_program(IterModel::Linear, 4, n);
    out.push(Case {
        name: "sums",
        program,
        inputs: vec![("A", Matrix::random_spectral(n, 8, 0.8))],
        target: "A",
        grid: (2, 2),
        scale: 0.01,
        updates: 8,
    });

    // OLS with a hoisted, Sherman-Morrison-maintained inverse (Fig. 3e).
    // beta is n×1, so the grid must keep a single block column.
    out.push(Case {
        name: "ols",
        program: parse_program("beta := inv(X' * X) * X' * Y;").unwrap(),
        inputs: vec![
            ("X", Matrix::random_diag_dominant(n, 9)),
            ("Y", Matrix::random_col(n, 10)),
        ],
        target: "X",
        grid: (4, 1),
        scale: 0.001,
        updates: 6,
    });

    // Bounded-hop reachability: sums of powers closed by R := A · S_k.
    let (sums, final_sum) = sums_program(IterModel::Exponential, 4, n);
    let mut program = Program::new();
    for stmt in sums.statements() {
        program.assign(stmt.target.clone(), stmt.expr.clone());
    }
    program.assign("R", Expr::var("A") * Expr::var(final_sum));
    out.push(Case {
        name: "reach",
        program,
        inputs: vec![("A", chain_adjacency(n, 0.5))],
        target: "A",
        grid: (2, 2),
        scale: 0.1,
        updates: 8,
    });

    // Three PageRank power-iteration steps over a damped transition
    // matrix; the rank vectors are n×1, hence the single-column grid.
    let m = Matrix::random_stochastic(n, 11).transpose().scale(0.85);
    let r0 = Matrix::filled(n, 1, 1.0 / n as f64);
    out.push(Case {
        name: "pagerank-step",
        program: parse_program("R1 := M * R0; R2 := M * R1; R3 := M * R2;").unwrap(),
        inputs: vec![("M", m), ("R0", r0)],
        target: "M",
        grid: (3, 1),
        scale: 0.005,
        updates: 8,
    });

    // The general form T(i+1) = A T(i) + B under EXP, k = 8, p = 4
    // (Figs. 3g/3h): P/S views by squaring, then T_i := P_h T_h + S_h B.
    let p = 4;
    let (program, _) = general_program(IterModel::Exponential, 8, n);
    out.push(Case {
        name: "general",
        program,
        inputs: vec![
            ("A", Matrix::random_spectral(n, 12, 0.8)),
            ("B", Matrix::random_uniform(n, p, 13)),
            ("T0", Matrix::random_uniform(n, p, 14)),
        ],
        target: "A",
        grid: (2, 2),
        scale: 0.01,
        updates: 8,
    });

    out
}

fn run_case(case: &Case) {
    let inputs: Vec<(&str, Matrix)> = case
        .inputs
        .iter()
        .map(|(name, m)| (*name, m.clone()))
        .collect();
    let mut cat = Catalog::new();
    for (name, m) in &inputs {
        cat.declare(*name, m.rows(), m.cols());
    }
    let dynamic: Vec<&str> = inputs.iter().map(|(n, _)| *n).collect();
    // The materialized view set is the *normalized* program's targets
    // (inverse hoisting may introduce auxiliary views), plus the inputs.
    let normalized = case.program.hoist_inverses(&dynamic);
    let mut views: Vec<String> = dynamic.iter().map(|s| s.to_string()).collect();
    views.extend(normalized.statements().iter().map(|s| s.target.clone()));

    let mut local = IncrementalView::build(&case.program, &inputs, &cat)
        .unwrap_or_else(|e| panic!("{}: local build failed: {e}", case.name));
    let thr_backend = ThreadedBackend::with_cluster(Cluster::with_grid(case.grid.0, case.grid.1));
    let mut threaded = IncrementalView::build_on(thr_backend, &case.program, &inputs, &cat)
        .unwrap_or_else(|e| panic!("{}: threaded build failed: {e}", case.name));
    threaded.reset_comm();

    let (rows, cols) = inputs
        .iter()
        .find(|(n, _)| *n == case.target)
        .map(|(_, m)| m.shape())
        .expect("target is an input");
    let mut s_local = UpdateStream::new(rows, cols, case.scale, SEED);
    let mut s_thr = UpdateStream::new(rows, cols, case.scale, SEED);
    for _ in 0..case.updates {
        local.apply(case.target, &s_local.next_rank_one()).unwrap();
        threaded.apply(case.target, &s_thr.next_rank_one()).unwrap();
    }

    for view in &views {
        let reference = local.get(view).unwrap();
        assert_eq!(
            threaded.get(view).unwrap(),
            reference,
            "{}: view {view} is not bit-identical on threaded",
            case.name
        );
        // The partitioned state itself — the worker-thread-owned blocks —
        // must also equal the mirror exactly.
        assert_eq!(
            &threaded.backend().view(view).unwrap(),
            reference,
            "{}: worker-owned blocks of {view} diverged from the mirror",
            case.name
        );
    }

    let workers = (case.grid.0 * case.grid.1) as u64;
    assert_eq!(
        local.comm().total_bytes(),
        0,
        "{}: local moved bytes",
        case.name
    );
    let tc = threaded.comm();
    assert!(
        tc.broadcast_bytes > 0 && tc.broadcast_msgs > 0,
        "{}: threaded broadcast nothing",
        case.name
    );
    assert_eq!(
        tc.shuffle_bytes, 0,
        "{}: threaded shuffled on the incremental path",
        case.name
    );
    // Same trigger statements ⇒ one delivery per worker for every
    // rank-positive delta the local run folded.
    assert_eq!(
        tc.broadcast_msgs,
        local.sparse_stats().total_folds() * workers,
        "{}: threaded deliveries are not one-per-worker per applied delta",
        case.name
    );

    // All of the above ran through the *staged* interpreter (the default):
    // every backend must agree on the stage structure, and every app
    // trigger must actually collapse statements into parallel stages.
    let ls = local.sched_stats();
    let ts = threaded.sched_stats();
    assert_eq!(ls, ts, "{}: threaded stage accounting diverged", case.name);
    assert!(
        ls.stages < ls.stmts,
        "{}: staged execution found no parallelism ({} stages / {} stmts)",
        case.name,
        ls.stages,
        ls.stmts
    );
    assert!(
        threaded.backend().sched().overlapped > 0,
        "{}: no broadcast ever overlapped within a stage",
        case.name
    );
}

#[test]
fn every_app_is_bit_identical_across_all_backends() {
    for case in cases() {
        run_case(&case);
    }
}

/// Sparse-aware execution conformance: a basis-row update stream (factor
/// density 1/n, inside the fold crossover and far below the
/// wire-compression break-even) maintained with sparse execution ON must
/// be bit-identical — across both backends AND against the same runs
/// forced dense — while compressed broadcast frames strictly shrink the
/// wire, by exactly the bytes the accounting claims.
#[test]
fn sparse_execution_is_bit_identical_and_strictly_cheaper_on_the_wire() {
    use linview::runtime::{CommSnapshot, ExecOptions, SparseStats};

    let n = 24;
    let (program, _) = powers_program(IterModel::Exponential, 4);
    let inputs: Vec<(&str, Matrix)> = vec![("A", Matrix::random_spectral(n, 77, 0.8))];
    let mut cat = Catalog::new();
    cat.declare("A", n, n);
    let views: Vec<String> = std::iter::once("A".to_string())
        .chain(
            program
                .hoist_inverses(&["A"])
                .statements()
                .iter()
                .map(|s| s.target.clone()),
        )
        .collect();

    fn drive<B: ExecBackend>(
        mut view: IncrementalView<B>,
        sparse_folds: bool,
        names: &[String],
        n: usize,
    ) -> (Vec<Matrix>, SparseStats, CommSnapshot) {
        view.set_exec_options(ExecOptions {
            sparse_folds,
            ..Default::default()
        });
        view.reset_comm();
        let mut stream = UpdateStream::new(n, n, 0.01, SEED);
        for _ in 0..8 {
            view.apply("A", &stream.next_rank_one()).unwrap();
        }
        let finals = names.iter().map(|v| view.get(v).unwrap().clone()).collect();
        (finals, view.sparse_stats(), view.comm())
    }

    let build_local = || IncrementalView::build(&program, &inputs, &cat).unwrap();
    let build_thr = || {
        IncrementalView::build_on(
            ThreadedBackend::with_cluster(Cluster::with_grid(2, 2)),
            &program,
            &inputs,
            &cat,
        )
        .unwrap()
    };

    let (reference, l_sparse, _) = drive(build_local(), true, &views, n);
    let (t_views, t_sparse, t_comm) = drive(build_thr(), true, &views, n);
    let (lf_views, lf_sparse, _) = drive(build_local(), false, &views, n);
    let (tf_views, tf_sparse, tf_comm) = drive(build_thr(), false, &views, n);

    for (i, name) in views.iter().enumerate() {
        for (label, run) in [
            ("threaded sparse", &t_views),
            ("local forced-dense", &lf_views),
            ("threaded forced-dense", &tf_views),
        ] {
            assert_eq!(
                run[i], reference[i],
                "{name} is not bit-identical on {label}"
            );
        }
    }

    // The sparse path actually engaged on every backend…
    for (backend, stats) in [("local", l_sparse), ("threaded", t_sparse)] {
        assert!(
            stats.sparse_folds > 0,
            "{backend}: no fold took the sparse path at density 1/{n}"
        );
    }
    // …and the forced-dense opt-out actually opted out, of everything.
    for (backend, stats) in [("local", lf_sparse), ("threaded", tf_sparse)] {
        assert_eq!(
            stats.sparse_folds, 0,
            "{backend}: forced dense still folded sparsely"
        );
        assert_eq!(
            stats.compressed_frames, 0,
            "{backend}: forced dense still compressed"
        );
        assert_eq!(
            stats.bytes_saved, 0,
            "{backend}: forced dense claimed savings"
        );
    }
    // Compression strictly shrinks the wire, by exactly the bytes the
    // accounting claims.
    assert!(
        t_sparse.compressed_frames > 0 && t_sparse.bytes_saved > 0,
        "no broadcast ever compressed"
    );
    assert!(
        t_comm.broadcast_bytes < tf_comm.broadcast_bytes,
        "compression did not shrink the wire ({} !< {})",
        t_comm.broadcast_bytes,
        tf_comm.broadcast_bytes
    );
    assert_eq!(
        t_comm.broadcast_bytes + t_sparse.bytes_saved,
        tf_comm.broadcast_bytes,
        "bytes_saved disagrees with the meters"
    );
    assert_eq!(
        t_comm.broadcast_msgs, tf_comm.broadcast_msgs,
        "compression changed the delivery count"
    );
}

/// The app-level constructors too: `new_on` must give the same maintained
/// results on the threaded backend as the default local path.
#[test]
fn app_constructors_run_on_the_threaded_backend() {
    let n = 12;

    let a = Matrix::random_spectral(n, 21, 0.8);
    let mut local = IncrPowers::new(a.clone(), IterModel::Exponential, 4).unwrap();
    let mut threaded = IncrPowers::new_on(
        ThreadedBackend::new(4).unwrap(),
        a,
        IterModel::Exponential,
        4,
    )
    .unwrap();
    let mut s1 = UpdateStream::new(n, n, 0.01, 31);
    let mut s2 = UpdateStream::new(n, n, 0.01, 31);
    for _ in 0..5 {
        local.apply(&s1.next_rank_one()).unwrap();
        threaded.apply(&s2.next_rank_one()).unwrap();
    }
    assert_eq!(threaded.result(), local.result());

    let a = Matrix::random_spectral(n, 22, 0.8);
    let mut local = IncrSums::new(a.clone(), IterModel::Linear, 4).unwrap();
    let mut threaded =
        IncrSums::new_on(ThreadedBackend::new(4).unwrap(), a, IterModel::Linear, 4).unwrap();
    let mut s1 = UpdateStream::new(n, n, 0.01, 32);
    let mut s2 = UpdateStream::new(n, n, 0.01, 32);
    for _ in 0..5 {
        local.apply(&s1.next_rank_one()).unwrap();
        threaded.apply(&s2.next_rank_one()).unwrap();
    }
    assert_eq!(threaded.result(), local.result());

    let x = Matrix::random_diag_dominant(n, 23);
    let y = Matrix::random_col(n, 24);
    let mut local = IncrOls::new(x.clone(), y.clone()).unwrap();
    let mut threaded = IncrOls::new_on(
        ThreadedBackend::with_cluster(Cluster::with_grid(4, 1)),
        x,
        y,
    )
    .unwrap();
    let mut s1 = UpdateStream::new(n, n, 0.001, 33);
    let mut s2 = UpdateStream::new(n, n, 0.001, 33);
    for _ in 0..5 {
        local.apply(&s1.next_rank_one()).unwrap();
        threaded.apply(&s2.next_rank_one()).unwrap();
    }
    assert_eq!(threaded.beta(), local.beta());
}

/// The reachability app (engine-backed, batched) on real worker threads:
/// identical reachable sets and strictly fewer firings than mutations.
#[test]
fn reachability_index_runs_on_the_threaded_backend() {
    use linview::runtime::FlushPolicy;
    let n = 12;
    let seed_edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    let mut local = Reachability::new_batched(n, &seed_edges, 4, 3).unwrap();
    let mut threaded = Reachability::new_on_with_policy(
        ThreadedBackend::new(4).unwrap(),
        n,
        &seed_edges,
        4,
        FlushPolicy::Count(3),
    )
    .unwrap();
    let churn = [(1, 7), (0, 5), (2, 9), (4, 1), (7, 3), (5, 2), (3, 4)];
    for &(s, d) in &churn {
        local.add_edge(s, d).unwrap();
        threaded.add_edge(s, d).unwrap();
    }
    local.flush().unwrap();
    threaded.flush().unwrap();
    for src in 0..n {
        assert_eq!(
            threaded.reachable_set(src).unwrap(),
            local.reachable_set(src).unwrap(),
            "reachable set from {src} diverged on the threaded backend"
        );
    }
    assert!(threaded.firings() < churn.len() as u64);
}

/// Determinism under the tuned GEMM path: with the kernel pinned and a
/// fixed thread budget, two full conformance runs from one seed are
/// bit-identical run-to-run — and the result does not depend on the
/// budget at all, because row-band parallelism preserves every
/// per-element accumulation order. This is what keeps the staged
/// scheduling assertions above meaningful on top of the packed kernel.
#[test]
fn pinned_kernel_runs_are_bit_identical_across_thread_budgets() {
    use linview::matrix::{set_default_kernel, set_gemm_threads, GemmKernel};

    let case = &cases()[0]; // powers: the widest trigger in the suite
    let final_views = |case: &Case| -> Vec<(String, Matrix)> {
        let inputs: Vec<(&str, Matrix)> = case
            .inputs
            .iter()
            .map(|(name, m)| (*name, m.clone()))
            .collect();
        let mut cat = Catalog::new();
        for (name, m) in &inputs {
            cat.declare(*name, m.rows(), m.cols());
        }
        let mut view = IncrementalView::build(&case.program, &inputs, &cat).unwrap();
        let (rows, cols) = inputs[0].1.shape();
        let mut stream = UpdateStream::new(rows, cols, case.scale, SEED);
        for _ in 0..case.updates {
            view.apply(case.target, &stream.next_rank_one()).unwrap();
        }
        let mut names: Vec<String> = inputs.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(
            case.program
                .hoist_inverses(&["A"])
                .statements()
                .iter()
                .map(|s| s.target.clone()),
        );
        names
            .into_iter()
            .map(|name| {
                let m = view.get(&name).unwrap().clone();
                (name, m)
            })
            .collect()
    };

    set_default_kernel(Some(GemmKernel::Packed));
    set_gemm_threads(Some(1));
    let serial_once = final_views(case);
    let serial_twice = final_views(case);
    assert_eq!(
        serial_once, serial_twice,
        "run-to-run divergence at 1 thread"
    );
    // The full cross-backend conformance contract holds under the pin.
    run_case(case);
    set_gemm_threads(Some(4));
    let parallel = final_views(case);
    assert_eq!(
        serial_once, parallel,
        "thread budget changed maintained view bits"
    );
    set_gemm_threads(None);
    set_default_kernel(None);
}
