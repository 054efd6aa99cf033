//! DAG-staged trigger scheduling: equivalence and shape properties.
//!
//! The staged interpreter consumes the compile-time statement dependency
//! DAG instead of walking the trigger body in program order. This suite is
//! the lock on its two contracts:
//!
//! 1. **Exactness** — staged execution is **bit-identical** to the
//!    sequential opt-out (`ExecOptions::sequential`) on every backend
//!    (Local / Threaded) for every shipped app workload, with identical
//!    communication volume on the distributed backend.
//! 2. **Shape** — stage count never exceeds statement count, with
//!    equality exactly for chain-dependent trigger bodies; every shipped
//!    app trigger actually collapses statements into wider stages.
//!
//! A proptest sweeps random straight-line programs through the same
//! staged-vs-sequential comparison.

use linview::prelude::*;
use linview::runtime::{ExecBackend, ThreadedBackend};
use proptest::prelude::*;

const SEED: u64 = 20726;

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
    a.set(n - 1, 0, damping);
    a
}

fn cases() -> Vec<Case> {
    let n = 12;
    let mut out = Vec::new();

    let (program, _) = linview::apps::powers::powers_program(IterModel::Exponential, 4);
    out.push(Case {
        name: "powers",
        program,
        inputs: vec![("A", Matrix::random_spectral(n, 7, 0.8))],
        target: "A",
        grid: (2, 2),
        scale: 0.01,
        updates: 6,
    });

    let (program, _) = linview::apps::sums::sums_program(IterModel::Linear, 4, n);
    out.push(Case {
        name: "sums",
        program,
        inputs: vec![("A", Matrix::random_spectral(n, 8, 0.8))],
        target: "A",
        grid: (2, 2),
        scale: 0.01,
        updates: 6,
    });

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
        updates: 5,
    });

    let (sums, final_sum) = linview::apps::sums::sums_program(IterModel::Exponential, 4, n);
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
        updates: 6,
    });

    let m = Matrix::random_stochastic(n, 11).transpose().scale(0.85);
    let r0 = Matrix::filled(n, 1, 1.0 / n as f64);
    out.push(Case {
        name: "pagerank-step",
        program: parse_program("R1 := M * R0; R2 := M * R1; R3 := M * R2;").unwrap(),
        inputs: vec![("M", m), ("R0", r0)],
        target: "M",
        grid: (3, 1),
        scale: 0.005,
        updates: 6,
    });

    out
}

/// Runs `case` staged and sequential on one backend pair, asserting
/// bit-identical views, identical comm volume, and the expected stage
/// accounting. Returns (stmts, stages) accumulated by the staged view.
fn run_pair<B: ExecBackend>(
    case: &Case,
    staged_backend: B,
    seq_backend: B,
    views: &[String],
) -> (u64, u64) {
    let inputs: Vec<(&str, Matrix)> = case
        .inputs
        .iter()
        .map(|(name, m)| (*name, m.clone()))
        .collect();
    let mut cat = Catalog::new();
    for (name, m) in &inputs {
        cat.declare(*name, m.rows(), m.cols());
    }
    let mut staged = IncrementalView::build_on(staged_backend, &case.program, &inputs, &cat)
        .unwrap_or_else(|e| panic!("{}: staged build failed: {e}", case.name));
    let mut seq = IncrementalView::build_on(seq_backend, &case.program, &inputs, &cat)
        .unwrap_or_else(|e| panic!("{}: sequential build failed: {e}", case.name));
    seq.set_exec_options(ExecOptions {
        sequential: true,
        ..ExecOptions::default()
    });
    staged.reset_comm();
    seq.reset_comm();

    let (rows, cols) = inputs
        .iter()
        .find(|(n, _)| *n == case.target)
        .map(|(_, m)| m.shape())
        .expect("target is an input");
    let mut s1 = UpdateStream::new(rows, cols, case.scale, SEED);
    let mut s2 = UpdateStream::new(rows, cols, case.scale, SEED);
    for _ in 0..case.updates {
        staged.apply(case.target, &s1.next_rank_one()).unwrap();
        seq.apply(case.target, &s2.next_rank_one()).unwrap();
    }

    for view in views {
        assert_eq!(
            staged.get(view).unwrap(),
            seq.get(view).unwrap(),
            "{}: view {view} not bit-identical staged vs sequential",
            case.name
        );
    }
    // Stages buy latency, never volume: identical bytes and deliveries.
    assert_eq!(
        staged.comm(),
        seq.comm(),
        "{}: staged execution changed communication volume",
        case.name
    );

    let st = staged.sched_stats();
    let sq = seq.sched_stats();
    assert_eq!(st.firings, case.updates as u64);
    assert_eq!(st.stmts, sq.stmts, "{}: statement counts differ", case.name);
    assert_eq!(sq.stages, sq.stmts, "{}: opt-out must be serial", case.name);
    assert!(
        st.stages < st.stmts,
        "{}: staged execution found no parallelism ({} stages / {} stmts)",
        case.name,
        st.stages,
        st.stmts
    );
    (st.stmts, st.stages)
}

#[test]
fn staged_equals_sequential_bitwise_on_all_backends() {
    for case in cases() {
        let inputs: Vec<&str> = case.inputs.iter().map(|(n, _)| *n).collect();
        let normalized = case.program.hoist_inverses(&inputs);
        let mut views: Vec<String> = inputs.iter().map(|s| s.to_string()).collect();
        views.extend(normalized.statements().iter().map(|s| s.target.clone()));

        run_pair(
            &case,
            linview::runtime::LocalBackend,
            linview::runtime::LocalBackend,
            &views,
        );
        run_pair(
            &case,
            ThreadedBackend::with_cluster(Cluster::with_grid(case.grid.0, case.grid.1)),
            ThreadedBackend::with_cluster(Cluster::with_grid(case.grid.0, case.grid.1)),
            &views,
        );
    }
}

#[test]
fn every_shipped_app_trigger_has_a_multi_statement_stage() {
    // The acceptance bar: the DAG actually collapses statements — at
    // least one stage of every app trigger holds ≥ 2 statements.
    for case in cases() {
        let inputs: Vec<&str> = case.inputs.iter().map(|(n, _)| *n).collect();
        let normalized = case.program.hoist_inverses(&inputs);
        let mut cat = Catalog::new();
        for (name, m) in &case.inputs {
            cat.declare(*name, m.rows(), m.cols());
        }
        let tp = compile(&normalized, &inputs, &cat, &CompileOptions::default()).unwrap();
        let trigger = tp.trigger_for(case.target).unwrap();
        let dag = trigger.dag().unwrap();
        assert!(dag.stage_count() <= dag.stmt_count());
        assert!(
            dag.max_stage_width() >= 2,
            "{}: widest stage of {} statements is {}",
            case.name,
            dag.stmt_count(),
            dag.max_stage_width()
        );
        assert!(
            !dag.is_chain(),
            "{}: trigger degenerated to a chain",
            case.name
        );
    }
}

#[test]
fn chain_dependent_triggers_keep_one_statement_per_stage() {
    // Equality of stage count and statement count happens exactly for
    // chain-dependent bodies: R1 := M R0 feeds R2 := M R1 feeds … — but
    // the *compiled* trigger still parallelizes the U/V block pairs, so
    // build the chain directly.
    use linview::compiler::{Trigger, TriggerStmt};
    let t = Trigger {
        input: "A".into(),
        update_rank: 1,
        stmts: vec![
            TriggerStmt::Assign {
                var: "x".into(),
                expr: Expr::var("dU_A"),
            },
            TriggerStmt::Assign {
                var: "y".into(),
                expr: Expr::var("A") * Expr::var("x"),
            },
            TriggerStmt::ApplyDelta {
                target: "A".into(),
                u: Expr::var("y"),
                v: Expr::var("dV_A"),
            },
        ],
    };
    let dag = t.dag().unwrap();
    assert!(dag.is_chain());
    assert_eq!(dag.stage_count(), dag.stmt_count());
    assert_eq!(dag.stmts_saved(), 0);
}

#[test]
fn engine_reports_overlapped_broadcasts_on_the_threaded_backend() {
    use linview::runtime::{FlushPolicy, MaintenanceEngine};
    let n = 12;
    let program = parse_program("C := A * B; D := C * C;").unwrap();
    let mut cat = Catalog::new();
    cat.declare("A", n, n);
    cat.declare("B", n, n);
    let inputs = [
        ("A", Matrix::random_spectral(n, 31, 0.7)),
        ("B", Matrix::random_spectral(n, 32, 0.7)),
    ];
    let view = IncrementalView::build_on(ThreadedBackend::new(4).unwrap(), &program, &inputs, &cat)
        .unwrap();
    let mut engine = MaintenanceEngine::new(view, FlushPolicy::Count(3));
    let mut stream = UpdateStream::new(n, n, 0.01, 41);
    for i in 0..12 {
        let input = if i % 2 == 0 { "A" } else { "B" };
        engine.ingest(input, stream.next_rank_one()).unwrap();
    }
    engine.flush_all().unwrap();
    let stats = engine.stats();
    assert!(stats.stmts > 0);
    assert!(
        stats.stages < stats.stmts,
        "staged engine found no parallelism"
    );
    assert_eq!(stats.stmts_saved(), stats.stmts - stats.stages);
    assert!(
        stats.overlapped_broadcasts > 0,
        "threaded backend never overlapped a broadcast"
    );
    // The backend's own counters agree with what the engine accumulated.
    assert_eq!(
        engine.view().backend().sched().overlapped,
        stats.overlapped_broadcasts
    );
}

/// One random straight-line program: each statement multiplies two of the
/// previously available matrices (always including a dynamic dependency so
/// the trigger touches it).
fn random_program(shape: &[u8]) -> Program {
    let mut program = Program::new();
    let mut avail: Vec<String> = vec!["A".into()];
    for (i, &kind) in shape.iter().enumerate() {
        let target = format!("T{i}");
        let last = avail.last().unwrap().clone();
        let first = avail[0].clone();
        let expr = match kind % 3 {
            0 => Expr::var(&last) * Expr::var(&last),
            1 => Expr::var(&first) * Expr::var(&last),
            _ => Expr::var(&last) * Expr::var(&first),
        };
        program.assign(&target, expr);
        avail.push(target);
    }
    program
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_programs_stage_exactly(
        shape in proptest::collection::vec(0u8..3, 1..5),
        seed in 0u64..10_000,
        updates in 1usize..4,
    ) {
        let n = 10;
        let program = random_program(&shape);
        let mut cat = Catalog::new();
        cat.declare("A", n, n);
        let a = Matrix::random_spectral(n, seed, 0.7);
        let inputs = [("A", a)];

        let mut staged = IncrementalView::build(&program, &inputs, &cat).unwrap();
        let mut seq = IncrementalView::build(&program, &inputs, &cat).unwrap();
        seq.set_exec_options(ExecOptions { sequential: true, ..ExecOptions::default() });

        let mut s1 = UpdateStream::new(n, n, 0.01, seed);
        let mut s2 = UpdateStream::new(n, n, 0.01, seed);
        for _ in 0..updates {
            staged.apply("A", &s1.next_rank_one()).unwrap();
            seq.apply("A", &s2.next_rank_one()).unwrap();
        }
        prop_assert_eq!(staged.get("A").unwrap(), seq.get("A").unwrap());
        for i in 0..shape.len() {
            let view = format!("T{i}");
            prop_assert_eq!(
                staged.get(&view).unwrap(),
                seq.get(&view).unwrap(),
                "{} diverged", view
            );
        }

        // Shape properties of the schedule itself.
        let dag = staged.trigger_program().trigger_for("A").unwrap().dag().unwrap();
        prop_assert!(dag.stage_count() <= dag.stmt_count());
        prop_assert_eq!(dag.is_chain(), dag.stage_count() == dag.stmt_count());
        let total: usize = dag.stages().iter().map(Vec::len).sum();
        prop_assert_eq!(total, dag.stmt_count());
        let st = staged.sched_stats();
        prop_assert_eq!(st.stages, updates as u64 * dag.stage_count() as u64);
    }
}
