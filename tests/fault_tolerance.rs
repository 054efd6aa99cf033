//! Kill-and-recover conformance suite.
//!
//! The fault-tolerance contract (checkpoint every `N` firings + a delta
//! write-ahead log, §6 deployment hardening): an engine whose worker dies
//! mid-stream and is recovered from its last checkpoint must end
//! **bit-identical** to an engine that was never disturbed — same mirror
//! views, same worker-owned partitions — and the extra traffic the crash
//! cost must be *exactly* the [`RecoveryStats`] overhead:
//!
//! ```text
//! disturbed.comm == undisturbed.comm + aborted + reinstall + replay
//! ```
//!
//! Every shipped app workload (matrix powers, sums of powers, OLS on a
//! rectangular 4×1 grid, bounded-hop reachability, PageRank steps) runs
//! the drill on both frame backends: `ThreadedBackend` (a worker thread is
//! killed) and `SocketBackend` (a self-hosted socket worker is killed and
//! a fresh empty process takes over its address). Streams are Zipf-skewed
//! and multi-input — round-robined over *every* dynamic input — so the
//! replay log carries joint shapes, not just a single hot input.

use linview::apps::powers::powers_program;
use linview::apps::sums::sums_program;
use linview::dist::{spawn_local_grid, SocketConfig, WorkerServer};
use linview::prelude::*;
use linview::runtime::{
    ExecBackend, FlushPolicy, MaintenanceEngine, RuntimeError, SocketBackend, ThreadedBackend,
};

const SEED: u64 = 90210;
const ZIPF_S: f64 = 1.2;

struct Case {
    name: &'static str,
    program: Program,
    inputs: Vec<(&'static str, Matrix)>,
    grid: (usize, usize),
    scale: f64,
    events: usize,
    kill_at: usize,
    batch: usize,
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

    let (program, _) = powers_program(IterModel::Exponential, 4);
    out.push(Case {
        name: "powers",
        program,
        inputs: vec![("A", Matrix::random_spectral(n, 7, 0.8))],
        grid: (2, 2),
        scale: 0.01,
        events: 16,
        kill_at: 7,
        batch: 3,
    });

    let (program, _) = sums_program(IterModel::Linear, 4, n);
    out.push(Case {
        name: "sums",
        program,
        inputs: vec![("A", Matrix::random_spectral(n, 8, 0.8))],
        grid: (2, 2),
        scale: 0.01,
        events: 16,
        kill_at: 10,
        batch: 2,
    });

    // OLS exercises the rectangular grid plus a *multi-input* stream: the
    // crash lands between X and Y firings, so replay interleaves inputs.
    out.push(Case {
        name: "ols",
        program: parse_program("beta := inv(X' * X) * X' * Y;").unwrap(),
        inputs: vec![
            ("X", Matrix::random_diag_dominant(n, 9)),
            ("Y", Matrix::random_col(n, 10)),
        ],
        grid: (4, 1),
        scale: 0.001,
        events: 14,
        kill_at: 7,
        batch: 3,
    });

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
        grid: (2, 2),
        scale: 0.1,
        events: 16,
        kill_at: 5,
        batch: 3,
    });

    let m = Matrix::random_stochastic(n, 11).transpose().scale(0.85);
    let r0 = Matrix::filled(n, 1, 1.0 / n as f64);
    out.push(Case {
        name: "pagerank-step",
        program: parse_program("R1 := M * R0; R2 := M * R1; R3 := M * R2;").unwrap(),
        inputs: vec![("M", m), ("R0", r0)],
        grid: (3, 1),
        scale: 0.005,
        events: 16,
        kill_at: 9,
        batch: 2,
    });

    out
}

fn catalog(case: &Case) -> Catalog {
    let mut cat = Catalog::new();
    for (name, m) in &case.inputs {
        cat.declare(*name, m.rows(), m.cols());
    }
    cat
}

/// Inputs plus the normalized program's targets (inverse hoisting may
/// introduce auxiliary views) — everything a backend materializes.
fn view_names(case: &Case) -> Vec<String> {
    let dynamic: Vec<&str> = case.inputs.iter().map(|(n, _)| *n).collect();
    let normalized = case.program.hoist_inverses(&dynamic);
    let mut views: Vec<String> = dynamic.iter().map(|s| s.to_string()).collect();
    views.extend(normalized.statements().iter().map(|s| s.target.clone()));
    views
}

fn build_engine<B: ExecBackend>(backend: B, case: &Case) -> MaintenanceEngine<B> {
    let inputs: Vec<(&str, Matrix)> = case
        .inputs
        .iter()
        .map(|(name, m)| (*name, m.clone()))
        .collect();
    let view = IncrementalView::build_on(backend, &case.program, &inputs, &catalog(case))
        .unwrap_or_else(|e| panic!("{}: build failed: {e}", case.name));
    MaintenanceEngine::new(view, FlushPolicy::Count(case.batch))
}

/// Round-robins a Zipf-skewed multi-input stream through the engine,
/// running the crash-recovery protocol whenever a firing fails: recover
/// from the checkpoint, then re-flush only the *failed* input so batch
/// boundaries (and therefore every later frame) stay identical to an
/// undisturbed run.
fn drive<B: ExecBackend>(
    engine: &mut MaintenanceEngine<B>,
    case: &Case,
    on_event: &mut dyn FnMut(usize, &mut MaintenanceEngine<B>),
) {
    let mut streams: Vec<UpdateStream> = case
        .inputs
        .iter()
        .map(|(_, m)| UpdateStream::new(m.rows(), m.cols(), case.scale, SEED))
        .collect();
    for i in 0..case.events {
        on_event(i, engine);
        let k = i % case.inputs.len();
        let input = case.inputs[k].0;
        let upd = streams[k].next_rank_one_zipf(ZIPF_S);
        if let Err(e) = engine.ingest(input, upd) {
            assert!(
                matches!(e, RuntimeError::Transport(_)),
                "{}: crash surfaced as {e:?}, not a transport error",
                case.name
            );
            engine
                .recover()
                .unwrap_or_else(|e| panic!("{}: recovery after event {i} failed: {e}", case.name));
            engine
                .flush(input)
                .unwrap_or_else(|e| panic!("{}: post-recovery retry failed: {e}", case.name));
        }
    }
    if engine.flush_all().is_err() {
        engine.recover().unwrap();
        engine.flush_all().unwrap();
    }
}

/// The shared oracle: a disturbed engine must match the undisturbed one
/// (and the single-node reference) bit for bit, with its extra traffic
/// exactly equal to the recovery overhead.
fn assert_recovered<B: ExecBackend>(
    case: &Case,
    disturbed: &MaintenanceEngine<B>,
    undisturbed: &MaintenanceEngine<B>,
    reference: &MaintenanceEngine,
) {
    let rec = disturbed.recovery_stats();
    assert!(
        rec.recoveries >= 1,
        "{}: the injected crash never forced a recovery",
        case.name
    );
    assert!(rec.checkpoints >= 1 && rec.logged_firings >= 1);
    for view in view_names(case) {
        let want = undisturbed.get(&view).unwrap();
        assert_eq!(
            reference.get(&view).unwrap(),
            want,
            "{}: undisturbed {view} diverged from the local reference",
            case.name
        );
        assert_eq!(
            disturbed.get(&view).unwrap(),
            want,
            "{}: view {view} is not bit-identical after recovery",
            case.name
        );
    }
    let d = disturbed.comm();
    let u = undisturbed.comm();
    assert_eq!(
        d.total_bytes(),
        u.total_bytes() + rec.overhead_bytes(),
        "{}: recovered byte traffic does not reconcile (overhead {:?})",
        case.name,
        rec
    );
    assert_eq!(
        d.total_msgs(),
        u.total_msgs() + rec.overhead_msgs(),
        "{}: recovered message count does not reconcile",
        case.name
    );
}

/// Worker-owned partitions must equal the mirror exactly after recovery.
fn assert_partitions_match<T: linview::dist::Transport>(
    case: &Case,
    engine: &MaintenanceEngine<linview::runtime::FrameBackend<T>>,
) {
    for view in view_names(case) {
        assert_eq!(
            &engine.view().backend().view(&view).unwrap(),
            engine.get(&view).unwrap(),
            "{}: worker-owned blocks of {view} diverged from the mirror",
            case.name
        );
    }
}

#[test]
fn kill_and_recover_is_bit_identical_on_threaded_across_apps() {
    for case in cases() {
        let mut reference = build_engine(linview::runtime::LocalBackend, &case);
        drive(&mut reference, &case, &mut |_, _| {});

        let undisturbed_grid = Cluster::with_grid(case.grid.0, case.grid.1);
        let mut undisturbed = build_engine(ThreadedBackend::with_cluster(undisturbed_grid), &case);
        drive(&mut undisturbed, &case, &mut |_, _| {});

        let disturbed_grid = Cluster::with_grid(case.grid.0, case.grid.1);
        let mut disturbed = build_engine(ThreadedBackend::with_cluster(disturbed_grid), &case);
        disturbed.enable_checkpointing(2).unwrap();
        let victim = case.grid.0 * case.grid.1 - 1;
        let mut kill = |i, engine: &mut MaintenanceEngine<ThreadedBackend>| {
            if i == case.kill_at {
                engine
                    .view_mut()
                    .backend_mut()
                    .pool_mut()
                    .kill_worker(victim);
            }
        };
        drive(&mut disturbed, &case, &mut kill);

        assert_recovered(&case, &disturbed, &undisturbed, &reference);
        assert_partitions_match(&case, &disturbed);

        // The same drill with the checkpoint store on disk: `recover()`
        // reads the snapshot and the WAL back from the directory.
        let dir = std::env::temp_dir().join(format!("lv-ft-{}-{}", case.name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable_grid = Cluster::with_grid(case.grid.0, case.grid.1);
        let mut durable = build_engine(ThreadedBackend::with_cluster(durable_grid), &case);
        durable.enable_durable_checkpointing(2, &dir).unwrap();
        drive(&mut durable, &case, &mut kill);

        assert_recovered(&case, &durable, &undisturbed, &reference);
        assert_partitions_match(&case, &durable);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn kill_and_recover_is_bit_identical_on_sockets_across_apps() {
    for case in cases() {
        let mut reference = build_engine(linview::runtime::LocalBackend, &case);
        drive(&mut reference, &case, &mut |_, _| {});

        let (gr, gc) = case.grid;
        let tag_u = format!("ft-{}-u", case.name);
        let (_servers_u, addrs_u) = spawn_local_grid(gr, gc, &tag_u).unwrap();
        let backend_u = SocketBackend::connect_with_cluster(
            Cluster::with_grid(gr, gc),
            addrs_u,
            SocketConfig::default(),
        )
        .unwrap();
        let mut undisturbed = build_engine(backend_u, &case);
        drive(&mut undisturbed, &case, &mut |_, _| {});

        let tag_d = format!("ft-{}-d", case.name);
        let (mut servers, addrs_d) = spawn_local_grid(gr, gc, &tag_d).unwrap();
        let backend_d = SocketBackend::connect_with_cluster(
            Cluster::with_grid(gr, gc),
            addrs_d,
            SocketConfig::default(),
        )
        .unwrap();
        let mut disturbed = build_engine(backend_d, &case);
        disturbed.enable_checkpointing(2).unwrap();
        // SIGKILL-equivalent: the victim's connection is reset mid-protocol
        // and a *fresh, empty* worker takes over the same socket address —
        // recovery must revive-reconnect and reinstall it from scratch.
        drive(&mut disturbed, &case, &mut |i, _| {
            if i == case.kill_at {
                let victim = servers.len() - 1;
                let old = servers.remove(victim);
                let addr = old.addr().clone();
                old.kill();
                servers.push(WorkerServer::spawn(&addr).unwrap());
            }
        });

        assert_recovered(&case, &disturbed, &undisturbed, &reference);
        assert_partitions_match(&case, &disturbed);
    }
}

/// A crash *between* checkpoints replays only the firings logged since the
/// last snapshot — the log is rolled at the cadence, so the replayed rank
/// stays bounded no matter how long the stream ran before the crash.
#[test]
fn replay_is_bounded_by_the_checkpoint_cadence() {
    let cases = cases();
    let case = &cases[0]; // powers
    let grid = Cluster::with_grid(2, 2);
    let mut engine = build_engine(ThreadedBackend::with_cluster(grid), case);
    engine.enable_checkpointing(2).unwrap();
    drive(&mut engine, case, &mut |i, engine| {
        if i == case.kill_at {
            engine.view_mut().backend_mut().pool_mut().kill_worker(0);
        }
    });
    let rec = engine.recovery_stats();
    assert_eq!(rec.recoveries, 1);
    assert!(
        rec.replayed_firings < 2,
        "cadence 2 should leave at most 1 logged firing to replay, got {}",
        rec.replayed_firings
    );
    assert!(rec.checkpoints > 1, "the cadence never rolled the snapshot");
}
