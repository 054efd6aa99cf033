//! Serving-layer stress and conformance suite: wait-free snapshot reads
//! under live maintenance.
//!
//! The conformance bar: every published snapshot must be a state the
//! engine actually passed through — bit-identical to a sequential replay
//! of the same update stream at the same epoch, on every backend (local,
//! threaded, socket). Readers must observe monotone epochs, staleness
//! bounded by the publish cadence, and must never block trigger firings.

use linview::apps::powers::powers_program;
use linview::apps::sums::sums_program;
use linview::dist::{spawn_local_grid, SocketConfig};
use linview::prelude::*;
use linview::runtime::{
    ExecBackend, FlushPolicy, MaintenanceEngine, ReaderPool, SocketBackend, ThreadedBackend,
    ViewSnapshot,
};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const N: usize = 12;
const EVENTS: usize = 32;
const BATCH: usize = 4;
const SEED: u64 = 977;

fn serve_program() -> (Program, Catalog, Vec<(&'static str, Matrix)>) {
    let program = parse_program("C := A * B; D := C * C;").unwrap();
    let mut cat = Catalog::new();
    cat.declare("A", N, N);
    cat.declare("B", N, N);
    let a = Matrix::random_spectral(N, 7, 0.8);
    let b = Matrix::random_spectral(N, 8, 0.8);
    (program, cat, vec![("A", a), ("B", b)])
}

/// Drives the standard event stream through `view` with serving enabled,
/// collecting the published snapshot at every epoch the run passes
/// through (publish cadence 1 makes publication synchronous with each
/// flush round, so the map is complete).
fn run_and_collect<B: ExecBackend>(
    view: IncrementalView<B>,
) -> (BTreeMap<u64, Arc<ViewSnapshot>>, MaintenanceEngine<B>) {
    let mut engine = MaintenanceEngine::new(view, FlushPolicy::Count(BATCH));
    let handle = engine.enable_serving(1);
    let mut by_epoch = BTreeMap::new();
    by_epoch.insert(handle.epoch(), handle.snapshot());
    let mut stream = UpdateStream::new(N, N, 0.01, SEED);
    for i in 0..EVENTS {
        let input = if i % 2 == 0 { "A" } else { "B" };
        engine.ingest(input, stream.next_rank_one()).unwrap();
        by_epoch
            .entry(handle.epoch())
            .or_insert_with(|| handle.snapshot());
    }
    engine.flush_all().unwrap();
    by_epoch
        .entry(handle.epoch())
        .or_insert_with(|| handle.snapshot());
    (by_epoch, engine)
}

fn assert_epoch_maps_identical(
    a: &BTreeMap<u64, Arc<ViewSnapshot>>,
    b: &BTreeMap<u64, Arc<ViewSnapshot>>,
    what: &str,
) {
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "{what}: epoch sets differ"
    );
    for (epoch, snap) in a {
        let other = &b[epoch];
        assert_eq!(
            snap.as_ref(),
            other.as_ref(),
            "{what}: snapshot at epoch {epoch} diverged"
        );
    }
}

#[test]
fn published_snapshots_equal_sequential_replay_at_every_epoch() {
    let (program, cat, inputs) = serve_program();
    let view = IncrementalView::build(&program, &inputs, &cat).unwrap();
    let (observed, engine) = run_and_collect(view);

    // An independent sequential replay of the identical stream must pass
    // through exactly the same states at the same epochs, bit for bit.
    let view = IncrementalView::build(&program, &inputs, &cat).unwrap();
    let (replay, _) = run_and_collect(view);
    assert_epoch_maps_identical(&observed, &replay, "replay");

    // The final published snapshot is the live engine state.
    let last = observed.values().next_back().unwrap();
    for name in last.names() {
        assert_eq!(
            last.get(name).unwrap(),
            engine.get(name).unwrap(),
            "final snapshot of {name} is not the live state"
        );
    }
    // With cadence 1, every firing published: one epoch per firing plus
    // the epoch-0 bootstrap snapshot.
    assert_eq!(observed.len() as u64, engine.stats().firings + 1);
}

#[test]
fn snapshots_are_bit_identical_across_local_threaded_socket_at_every_epoch() {
    let (program, cat, inputs) = serve_program();

    let local = IncrementalView::build(&program, &inputs, &cat).unwrap();
    let (local_map, _) = run_and_collect(local);

    let threaded = IncrementalView::build_on(
        ThreadedBackend::with_cluster(Cluster::with_grid(2, 2)),
        &program,
        &inputs,
        &cat,
    )
    .unwrap();
    let (threaded_map, _) = run_and_collect(threaded);
    assert_epoch_maps_identical(&local_map, &threaded_map, "local vs threaded");

    let (_servers, addrs) = spawn_local_grid(2, 2, "serving-conf").unwrap();
    let socket = IncrementalView::build_on(
        SocketBackend::connect_with_cluster(
            Cluster::with_grid(2, 2),
            addrs,
            SocketConfig::default(),
        )
        .unwrap(),
        &program,
        &inputs,
        &cat,
    )
    .unwrap();
    let (socket_map, _) = run_and_collect(socket);
    assert_epoch_maps_identical(&local_map, &socket_map, "local vs socket");
}

#[test]
fn concurrent_readers_observe_only_replay_states() {
    // Reference: the epoch -> state table of a sequential replay.
    let (program, cat, inputs) = serve_program();
    let view = IncrementalView::build(&program, &inputs, &cat).unwrap();
    let (reference, _) = run_and_collect(view);

    // Live run: collector threads race the maintainer, grabbing whatever
    // snapshot is published whenever they see a new epoch.
    let view = IncrementalView::build(&program, &inputs, &cat).unwrap();
    let mut engine = MaintenanceEngine::new(view, FlushPolicy::Count(BATCH));
    let handle = engine.enable_serving(1);
    let stop = Arc::new(AtomicBool::new(false));
    let observed: Arc<Mutex<BTreeMap<u64, Arc<ViewSnapshot>>>> =
        Arc::new(Mutex::new(BTreeMap::new()));
    let collectors: Vec<_> = (0..4)
        .map(|_| {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            let observed = Arc::clone(&observed);
            std::thread::spawn(move || {
                let mut last = u64::MAX;
                let mut monotone = true;
                while !stop.load(Ordering::Acquire) {
                    let snap = handle.snapshot();
                    let epoch = snap.epoch();
                    if last != u64::MAX && epoch < last {
                        monotone = false;
                    }
                    if epoch != last {
                        observed.lock().unwrap().entry(epoch).or_insert(snap);
                        last = epoch;
                    }
                    std::thread::yield_now();
                }
                monotone
            })
        })
        .collect();

    let mut stream = UpdateStream::new(N, N, 0.01, SEED);
    for i in 0..EVENTS {
        let input = if i % 2 == 0 { "A" } else { "B" };
        engine.ingest(input, stream.next_rank_one()).unwrap();
        // Pace the writer so collectors actually witness distinct epochs.
        std::thread::sleep(Duration::from_millis(1));
    }
    engine.flush_all().unwrap();
    std::thread::sleep(Duration::from_millis(5));
    stop.store(true, Ordering::Release);
    for c in collectors {
        assert!(c.join().unwrap(), "a collector saw a non-monotone epoch");
    }

    let observed = observed.lock().unwrap();
    assert!(
        observed.len() > 1,
        "collectors saw only {} epoch(s) — no concurrency exercised",
        observed.len()
    );
    for (epoch, snap) in observed.iter() {
        let expected = reference
            .get(epoch)
            .unwrap_or_else(|| panic!("observed epoch {epoch} never occurs in a replay"));
        assert_eq!(
            snap.as_ref(),
            expected.as_ref(),
            "snapshot observed at epoch {epoch} is not the replay state"
        );
    }
}

#[test]
fn reader_pool_reports_progress_bounded_staleness_and_monotone_epochs() {
    let (program, cat, inputs) = serve_program();
    let view = IncrementalView::build(&program, &inputs, &cat).unwrap();
    let mut engine = MaintenanceEngine::new(view, FlushPolicy::Count(BATCH));
    let every = 3u64;
    let handle = engine.enable_serving(every);
    let pool = ReaderPool::spawn(&handle, 4, &[]);

    let mut stream = UpdateStream::new(N, N, 0.01, SEED);
    for i in 0..EVENTS {
        let input = if i % 2 == 0 { "A" } else { "B" };
        engine.ingest(input, stream.next_rank_one()).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    engine.flush_all().unwrap();
    let reports = pool.stop();
    let mut reads = 0u64;
    for r in &reports {
        reads += r.reads;
        assert!(r.epochs_monotone, "a reader saw a non-monotone epoch");
        // Staleness can transiently read `every` between the round counter
        // bump and the publish that follows it; it must never exceed it.
        assert!(
            r.max_staleness <= every,
            "staleness {} exceeds cadence {every}",
            r.max_staleness
        );
    }
    assert!(reads > 0, "readers made no progress");
}

#[test]
fn readers_do_not_block_maintenance() {
    // Both runs pace the writer, so wall time is dominated by the sleeps
    // and any *blocking* a reader imposed on the maintainer would stand
    // out; pure CPU sharing does not register on a paced writer. The
    // margin is deliberately lenient (2x on the non-sleep residue) to
    // stay robust on loaded CI machines — the `serve` bench table tracks
    // the precise throughput ratio.
    let (program, cat, inputs) = serve_program();
    let run = |readers: usize| {
        let view = IncrementalView::build(&program, &inputs, &cat).unwrap();
        let mut engine = MaintenanceEngine::new(view, FlushPolicy::Count(BATCH));
        let handle = engine.enable_serving(1);
        let pool = (readers > 0).then(|| ReaderPool::spawn(&handle, readers, &[]));
        let mut stream = UpdateStream::new(N, N, 0.01, SEED);
        let start = Instant::now();
        for i in 0..EVENTS {
            let input = if i % 2 == 0 { "A" } else { "B" };
            engine.ingest(input, stream.next_rank_one()).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        engine.flush_all().unwrap();
        let elapsed = start.elapsed();
        if let Some(pool) = pool {
            let reports = pool.stop();
            assert!(reports.iter().any(|r| r.reads > 0), "readers never ran");
        }
        elapsed
    };
    let baseline = run(0);
    let contended = run(4);
    let sleep_floor = Duration::from_millis(EVENTS as u64);
    let baseline_work = baseline.saturating_sub(sleep_floor);
    let contended_work = contended.saturating_sub(sleep_floor);
    assert!(
        contended_work < baseline_work.max(Duration::from_millis(20)) * 2,
        "maintenance under readers took {contended_work:?} vs {baseline_work:?} alone"
    );
}

#[test]
fn restore_republishes_before_readers_can_observe_stale_state() {
    let (program, cat, inputs) = serve_program();
    let view = IncrementalView::build(&program, &inputs, &cat).unwrap();
    let mut engine = MaintenanceEngine::new(view, FlushPolicy::Count(2));
    // A deliberately lazy cadence: without the forced publish on restore,
    // readers would keep serving the pre-restore state for several rounds.
    let handle = engine.enable_serving(8);
    engine.enable_checkpointing(1).unwrap();

    let mut stream = UpdateStream::new(N, N, 0.01, SEED);
    for i in 0..8 {
        let input = if i % 2 == 0 { "A" } else { "B" };
        engine.ingest(input, stream.next_rank_one()).unwrap();
    }
    let epoch_before = handle.epoch();
    engine.recover().unwrap();
    assert!(
        handle.epoch() > epoch_before,
        "restore did not advance the published epoch"
    );
    let snap = handle.snapshot();
    for name in snap.names() {
        assert_eq!(
            snap.get(name).unwrap(),
            engine.get(name).unwrap(),
            "post-restore snapshot of {name} is not the restored state"
        );
    }
}

#[test]
fn app_handles_publish_their_views() {
    let n = 10;
    let mut stream = UpdateStream::new(n, n, 0.01, SEED);

    // Matrix powers: every maintained power is served.
    let (_, final_power) = powers_program(IterModel::Exponential, 4);
    let a = Matrix::random_spectral(n, 5, 0.8);
    let mut powers = IncrPowers::new(a.clone(), IterModel::Exponential, 4).unwrap();
    let handle = powers.enable_serving(1);
    powers.apply(&stream.next_rank_one()).unwrap();
    assert_eq!(
        handle.snapshot().get(&final_power).unwrap(),
        powers.result()
    );
    assert!(powers.serving_handle().is_some());

    // Sums of powers.
    let (_, final_sum) = sums_program(IterModel::Linear, 4, n);
    let mut sums = IncrSums::new(a.clone(), IterModel::Linear, 4).unwrap();
    let handle = sums.enable_serving(1);
    sums.apply(&stream.next_rank_one()).unwrap();
    assert_eq!(handle.snapshot().get(&final_sum).unwrap(), sums.result());

    // OLS: the estimate and the maintained inverse are both served.
    let x = Matrix::random_uniform(24, 6, 11);
    let y = Matrix::random_uniform(24, 1, 12);
    let mut ols = IncrOls::new(x, y).unwrap();
    let handle = ols.enable_serving(1);
    let mut xs = UpdateStream::new(24, 6, 0.01, 13);
    ols.apply(&xs.next_rank_one()).unwrap();
    assert_eq!(handle.snapshot().get("beta").unwrap(), ols.beta());
    assert_eq!(handle.snapshot().get("W").unwrap(), ols.inverse_view());

    // Reachability: the index R is served through the engine.
    let mut reach = Reachability::new(8, &[(0, 1), (1, 2)], 4).unwrap();
    let handle = reach.enable_serving(1);
    reach.add_edge(2, 3).unwrap();
    let snap = handle.snapshot();
    assert_eq!(
        snap.get("R").unwrap().get(0, 3),
        reach.path_weight(0, 3).unwrap(),
        "served reachability index diverged"
    );

    // PageRank: the rank vector is served as \"ranks\".
    let edges: Vec<_> = (0..8).map(|i| (i, (i + 1) % 8)).collect();
    let mut pr =
        PageRank::new(8, &edges, 0.85, 8, IterModel::Linear, Strategy::Incremental).unwrap();
    let handle = pr.enable_serving(1);
    let epoch0 = handle.epoch();
    pr.add_edge(0, 4).unwrap();
    assert!(handle.epoch() > epoch0, "edge mutation did not publish");
    assert_eq!(handle.snapshot().get("ranks").unwrap(), pr.ranks());
    // No-op mutations publish nothing.
    let epoch1 = handle.epoch();
    pr.add_edge(0, 4).unwrap();
    assert_eq!(handle.epoch(), epoch1);
}

/// The live state after every firing of an `A`-only stream, deep-copied
/// from an engine that has no serving layer at all: the sequential replay
/// the shared snapshots below are held to.
fn replay_without_serving(events: usize) -> BTreeMap<u64, BTreeMap<String, Matrix>> {
    let (program, cat, inputs) = serve_program();
    let view = IncrementalView::build(&program, &inputs, &cat).unwrap();
    let mut engine = MaintenanceEngine::new(view, FlushPolicy::Count(BATCH));
    let state = |engine: &MaintenanceEngine| -> BTreeMap<String, Matrix> {
        ["A", "B", "C", "D"]
            .iter()
            .map(|n| (n.to_string(), engine.get(n).unwrap().clone()))
            .collect()
    };
    let mut by_epoch = BTreeMap::new();
    by_epoch.insert(0, state(&engine));
    let mut stream = UpdateStream::new(N, N, 0.01, SEED);
    for _ in 0..events {
        engine.ingest("A", stream.next_rank_one()).unwrap();
        by_epoch
            .entry(engine.stats().firings)
            .or_insert_with(|| state(&engine));
    }
    by_epoch
}

fn assert_snapshot_is_replay_state(
    snap: &ViewSnapshot,
    replay: &BTreeMap<u64, BTreeMap<String, Matrix>>,
    what: &str,
) {
    let expected = &replay[&snap.epoch()];
    assert_eq!(snap.names(), vec!["A", "B", "C", "D"]);
    for (name, m) in expected {
        assert_eq!(
            snap.get(name).unwrap(),
            m,
            "{what}: {name} at epoch {} is not the replay state",
            snap.epoch()
        );
    }
}

/// Snapshots share the environment's matrices instead of copying them, so
/// the maintainer must never write one a reader still holds: a reader pins
/// epoch `PIN_AT` while the engine fires on, and the pinned snapshot — like
/// every epoch published after it — must still be the replay state. The
/// sharing itself is visible too: `B`, which an `A`-only stream never
/// touches, is one allocation in every snapshot.
fn pinned_epoch_survives_later_rounds<B: ExecBackend>(view: IncrementalView<B>, what: &str) {
    const ROUNDS: usize = 8;
    const PIN_AT: u64 = 2;
    let replay = replay_without_serving(ROUNDS * BATCH);

    let mut engine = MaintenanceEngine::new(view, FlushPolicy::Count(BATCH));
    let handle = engine.enable_serving(1);
    let mut stream = UpdateStream::new(N, N, 0.01, SEED);
    let mut pinned: Option<Arc<ViewSnapshot>> = None;
    let mut rounds_after_pin = 0;
    let mut previous = handle.snapshot();
    assert_snapshot_is_replay_state(&previous, &replay, what);
    for _ in 0..ROUNDS * BATCH {
        engine.ingest("A", stream.next_rank_one()).unwrap();
        let snap = handle.snapshot();
        if snap.epoch() == previous.epoch() {
            continue;
        }
        assert_snapshot_is_replay_state(&snap, &replay, what);
        assert!(
            std::ptr::eq(snap.get("B").unwrap(), previous.get("B").unwrap()),
            "{what}: untouched input B was copied between epochs {} and {}",
            previous.epoch(),
            snap.epoch()
        );
        for touched in ["A", "C", "D"] {
            assert!(
                !std::ptr::eq(snap.get(touched).unwrap(), previous.get(touched).unwrap()),
                "{what}: {touched} was written in place under epoch {}",
                previous.epoch()
            );
        }
        if snap.epoch() == PIN_AT {
            pinned = Some(Arc::clone(&snap));
        } else if pinned.is_some() {
            rounds_after_pin += 1;
        }
        // Releasing the epoch before last hands its buffers back to the
        // maintainer as copy-on-write spares; only the pinned one is kept.
        previous = snap;
    }
    assert!(
        rounds_after_pin >= 4,
        "{what}: only {rounds_after_pin} rounds"
    );
    let pinned = pinned.expect("the pinned epoch was published");
    assert_eq!(pinned.epoch(), PIN_AT);
    assert_snapshot_is_replay_state(&pinned, &replay, what);
    assert_eq!(engine.get("D").unwrap(), &replay[&handle.epoch()]["D"]);
}

#[test]
fn a_pinned_epoch_survives_later_rounds_and_untouched_inputs_stay_shared() {
    let (program, cat, inputs) = serve_program();
    let local = IncrementalView::build(&program, &inputs, &cat).unwrap();
    pinned_epoch_survives_later_rounds(local, "local");
    let threaded = IncrementalView::build_on(
        ThreadedBackend::with_cluster(Cluster::with_grid(2, 2)),
        &program,
        &inputs,
        &cat,
    )
    .unwrap();
    pinned_epoch_survives_later_rounds(threaded, "threaded");
}

/// Large enough that a row update folds on the sparse path (`1/n` under
/// the 5 % density gate) and `D`'s dense fold fits the replay budget.
const CADENCE_N: usize = 32;
const CADENCE_EVENTS: usize = 24;

fn cadence_program() -> (Program, Catalog, Vec<(&'static str, Matrix)>) {
    let program = parse_program("C := A * B; D := C * C;").unwrap();
    let mut cat = Catalog::new();
    cat.declare("A", CADENCE_N, CADENCE_N);
    cat.declare("B", CADENCE_N, CADENCE_N);
    let a = Matrix::random_spectral(CADENCE_N, 7, 0.8);
    let b = Matrix::random_spectral(CADENCE_N, 8, 0.8);
    (program, cat, vec![("A", a), ("B", b)])
}

/// Feeds the alternating `A`/`B` row-update stream one firing per event.
fn feed_cadence_stream<B: ExecBackend>(
    engine: &mut MaintenanceEngine<B>,
    mut after_each: impl FnMut(&MaintenanceEngine<B>),
) {
    let mut stream = UpdateStream::new(CADENCE_N, CADENCE_N, 0.01, SEED);
    for i in 0..CADENCE_EVENTS {
        let input = if i % 2 == 0 { "A" } else { "B" };
        engine.ingest(input, stream.next_rank_one()).unwrap();
        after_each(engine);
    }
}

fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn assert_bits_are_replay_state(
    snap: &ViewSnapshot,
    replay: &[BTreeMap<String, Matrix>],
    what: &str,
) {
    for (name, m) in &replay[snap.epoch() as usize] {
        assert!(
            same_bits(snap.get(name).unwrap(), m),
            "{what}: {name} at epoch {} is not the replay state bit for bit",
            snap.epoch()
        );
    }
}

/// A served view whose views are written behind published snapshots
/// brings each recycled buffer up to date by replaying the folds it missed:
/// one per view at cadence 1, and the in-place folds between publishes at
/// cadences 2 and 3. A reader pins epoch `PIN_AT` for the whole run, so
/// that epoch's buffers never come back as spares. Every epoch published —
/// the pinned one included, checked again at the end — must be the state
/// of a serving-free replay of the same stream, bit for bit.
fn epochs_are_replay_states_at_cadence<B: ExecBackend>(
    view: IncrementalView<B>,
    every: u64,
    what: &str,
) {
    const PIN_AT: u64 = 3;
    let (program, cat, inputs) = cadence_program();
    let mut unserved = MaintenanceEngine::new(
        IncrementalView::build(&program, &inputs, &cat).unwrap(),
        FlushPolicy::Immediate,
    );
    let state = |engine: &MaintenanceEngine| -> BTreeMap<String, Matrix> {
        ["A", "B", "C", "D"]
            .iter()
            .map(|n| (n.to_string(), engine.get(n).unwrap().clone()))
            .collect()
    };
    let mut replay = vec![state(&unserved)];
    feed_cadence_stream(&mut unserved, |engine| replay.push(state(engine)));

    let mut engine = MaintenanceEngine::new(view, FlushPolicy::Immediate);
    let handle = engine.enable_serving(every);
    let mut pinned = None;
    let mut epochs = 0;
    feed_cadence_stream(&mut engine, |_| {
        let snap = handle.snapshot();
        assert_bits_are_replay_state(&snap, &replay, what);
        if snap.epoch() >= PIN_AT && pinned.is_none() {
            pinned = Some(snap);
        }
        epochs += 1;
    });
    assert_eq!(epochs, CADENCE_EVENTS);
    assert_eq!(
        handle.rounds() as usize,
        CADENCE_EVENTS,
        "{what}: one firing per event"
    );
    let pinned = pinned.expect("an epoch past the pin point was published");
    assert_bits_are_replay_state(&pinned, &replay, what);
    for (name, m) in &replay[CADENCE_EVENTS] {
        assert!(
            same_bits(engine.get(name).unwrap(), m),
            "{what}: live {name}"
        );
    }
}

#[test]
fn published_epochs_stay_bit_identical_to_replay_at_cadences_1_2_3_with_a_pinned_reader() {
    let (program, cat, inputs) = cadence_program();
    for every in 1..=3 {
        let local = IncrementalView::build(&program, &inputs, &cat).unwrap();
        epochs_are_replay_states_at_cadence(local, every, &format!("local, every {every}"));
        let threaded = IncrementalView::build_on(
            ThreadedBackend::with_cluster(Cluster::with_grid(2, 2)),
            &program,
            &inputs,
            &cat,
        )
        .unwrap();
        epochs_are_replay_states_at_cadence(threaded, every, &format!("threaded, every {every}"));
    }
}
