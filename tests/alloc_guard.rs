//! A firing allocates blocks, not views.
//!
//! The factored delta of `A¹⁶` is a few `n×k` blocks (`k ≤ 16`); the
//! evaluator that used to run it cloned every `n×n` view it referenced and
//! materialized `Pᵀ` to compute `Pᵀ V`. This guard counts every byte the
//! process allocates during one firing and holds the total under the size
//! of a *single* `n×n` matrix — so an `n×n` temporary anywhere on the
//! firing path (evaluator, kernels, folds, backend) fails it, whatever
//! else changes.
//!
//! A second, served phase holds a firing *plus its publish* to the same
//! bound: snapshots share the environment's matrices, and the copy-on-write
//! a published view needs before its next fold lands in a buffer recycled
//! from the epoch before last — so a view-sized allocation anywhere between
//! fold and publish fails it too, whatever mood the allocator is in.
//!
//! Durability streams instead of staging: a third phase holds a firing
//! whose durable checkpoint rolls *and* its roll to the same bound — the
//! snapshot goes from the views to the file through one I/O buffer — and
//! a fourth holds the live-bytes high-water mark of a threaded backend
//! installing four views under the workers' blocks plus two views, which
//! a coordinator staging every partitioned view before installing any
//! exceeds.
//!
//! A fifth phase pins the batch regime: one OLS Woodbury firing of a
//! coalesced rank-13 batch folds `Z` and `W` at rank 26, and makes no
//! single allocation as large as one `Z`-sized view — the size of the
//! delta temporary a fold through the packed nest would build.
//!
//! The counter is the process-global allocator, so this is the ONE test of
//! its binary (same isolation as the `flop_accounting.rs` files): no
//! sibling test thread allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};

use linview::apps::ols::OLS_PROGRAM;
use linview::apps::powers::{compute_power, powers_program, IncrPowers};
use linview::apps::IterModel;
use linview::compiler::parse::parse_program;
use linview::expr::Catalog;
use linview::matrix::{ApproxEq, Matrix};
use linview::runtime::{
    Env, ExecBackend, ExecOptions, FlushPolicy, IncrementalView, InversePrimitive,
    MaintenanceEngine, RankOneUpdate, ThreadedBackend,
};

struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicUsize = AtomicUsize::new(0);
/// The largest single allocation while counting.
static LARGEST: AtomicUsize = AtomicUsize::new(0);
/// Bytes allocated and not yet freed, by every thread, at all times.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// The highest `LIVE` since it was last reset.
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        BYTES.fetch_add(bytes, Ordering::Relaxed);
        LARGEST.fetch_max(bytes, Ordering::Relaxed);
    }
    let live = LIVE.fetch_add(bytes as isize, Ordering::Relaxed) + bytes as isize;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn release(bytes: usize) {
    LIVE.fetch_sub(bytes as isize, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// plain atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract is `System.alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract is `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        release(layout.size().saturating_sub(new_size));
        // SAFETY: the caller's contract is `System.realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        release(layout.size());
        // SAFETY: the caller's contract is `System.dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn one_firing_allocates_less_than_one_view() {
    // What a firing allocates is its blocks (∝ n·k) plus what lowering the
    // 16-statement body takes (≈ 36 KB of small allocations, independent
    // of n). n = 256 puts the two at about half of one view, so the bound
    // has room for neither an n×n temporary nor a second copy of the
    // blocks.
    let (n, k) = (256, 16);
    let a = Matrix::random_spectral(n, 9, 0.9);
    let mut incr = IncrPowers::new(a.clone(), IterModel::Exponential, k).unwrap();
    let warm_up = RankOneUpdate::row_update(n, n, 3, 0.01, 13);
    let measured = RankOneUpdate::row_update(n, n, 7, 0.01, 14);
    // The first firing spawns the pool workers; the guard is about the
    // steady state.
    incr.apply(&warm_up).unwrap();

    COUNTING.store(true, Ordering::SeqCst);
    incr.apply(&measured).unwrap();
    COUNTING.store(false, Ordering::SeqCst);
    let bytes = BYTES.swap(0, Ordering::SeqCst);

    let view_bytes = 8 * n * n;
    assert!(
        bytes < view_bytes,
        "one A^{k} firing at n = {n} allocated {bytes} B; a single view is {view_bytes} B"
    );

    // Served: every firing now ends in a publish, and every view the
    // firing folds into is shared with the previous snapshot. The first
    // served firing allocates each view's second buffer; from then on the
    // two ping-pong, so the warm-ups leave every spare in place and free.
    let handle = incr.enable_serving(1);
    let served: Vec<RankOneUpdate> = (0..4)
        .map(|i| RankOneUpdate::row_update(n, n, 11 + i, 0.01, 15 + i as u64))
        .collect();
    for upd in &served[..3] {
        incr.apply(upd).unwrap();
    }
    COUNTING.store(true, Ordering::SeqCst);
    incr.apply(&served[3]).unwrap();
    COUNTING.store(false, Ordering::SeqCst);
    let bytes = BYTES.load(Ordering::SeqCst);
    assert!(
        bytes < view_bytes,
        "one served A^{k} firing at n = {n} allocated {bytes} B with its publish; a single view \
         is {view_bytes} B"
    );
    assert_eq!(handle.epoch(), 4, "the counted firing published");
    let (_, final_power) = powers_program(IterModel::Exponential, k);
    assert_eq!(handle.snapshot().get(&final_power).unwrap(), incr.result());

    // And they were real firings.
    let mut expected = a;
    for upd in [&warm_up, &measured].into_iter().chain(&served) {
        upd.apply_to(&mut expected).unwrap();
    }
    let expected = compute_power(&expected, IterModel::Exponential, k).unwrap();
    assert!(incr.result().approx_eq(&expected, 1e-9));

    durable_roll_allocates_less_than_one_view(n, view_bytes);
    threaded_install_stages_at_most_one_view(n, view_bytes);
    ols_batch_firing_allocates_no_view_sized_block();
}

/// A firing of `B := A * A; C := B * B` whose durable checkpoint rolls
/// after every firing: the firing, its WAL append and the roll of all
/// three matrices to disk together allocate less than one of them.
fn durable_roll_allocates_less_than_one_view(n: usize, view_bytes: usize) {
    let program = parse_program("B := A * A; C := B * B;").unwrap();
    let mut cat = Catalog::new();
    cat.declare("A", n, n);
    let a = Matrix::random_spectral(n, 9, 0.9);
    let view = IncrementalView::build(&program, &[("A", a)], &cat).unwrap();
    let mut engine = MaintenanceEngine::new(view, FlushPolicy::Immediate);
    let dir = std::env::temp_dir().join(format!("lv-alloc-guard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    engine.enable_durable_checkpointing(1, &dir).unwrap();
    for i in 0..2 {
        engine
            .ingest(
                "A",
                RankOneUpdate::row_update(n, n, 20 + i, 0.01, 30 + i as u64),
            )
            .unwrap();
    }
    let rolls = engine.recovery_stats().checkpoints;

    BYTES.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    engine
        .ingest("A", RankOneUpdate::row_update(n, n, 40, 0.01, 41))
        .unwrap();
    COUNTING.store(false, Ordering::SeqCst);
    let bytes = BYTES.swap(0, Ordering::SeqCst);
    println!("durable firing + roll at n = {n}: {bytes} B allocated (one view: {view_bytes} B)");
    assert_eq!(
        engine.recovery_stats().checkpoints,
        rolls + 1,
        "the firing rolled"
    );
    assert!(
        bytes < view_bytes,
        "a durable firing and its roll of 3 views at n = {n} allocated {bytes} B; a single view \
         is {view_bytes} B"
    );
    let written = std::fs::metadata(dir.join("checkpoint.bin")).unwrap().len();
    assert_eq!(
        written as usize,
        8 + engine.view().checkpoint().unwrap().len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 2×2 threaded backend installing four `n×n` views: the live-bytes
/// high-water mark rises by the workers' blocks (four views) plus less
/// than two views — room for one partitioned view and its frames in
/// flight, not for a partitioned copy of every view.
fn threaded_install_stages_at_most_one_view(n: usize, view_bytes: usize) {
    let mut env = Env::new();
    for (i, name) in ["A", "B", "C", "D"].into_iter().enumerate() {
        env.bind(name, Matrix::random_uniform(n, n, 50 + i as u64));
    }
    let mut backend = ThreadedBackend::new(4).unwrap();
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    backend.materialize(&env).unwrap();
    // A gather of a view no worker holds is a barrier that moves no
    // blocks: every install frame is decoded by the time it returns.
    assert!(backend.pool().gather("absent").is_err());
    let rise = (PEAK.load(Ordering::SeqCst) - base) as usize;
    let blocks = 4 * view_bytes;
    println!(
        "threaded install of 4 views at n = {n}: high-water mark +{rise} B (workers' blocks \
         {blocks} B, one view {view_bytes} B)"
    );
    assert!(
        rise < blocks + 2 * view_bytes,
        "installing 4 views at n = {n} raised the live high-water mark by {rise} B; the \
         workers' blocks are {blocks} B and one view is {view_bytes} B"
    );
    for name in ["A", "B", "C", "D"] {
        assert_eq!(&backend.view(name).unwrap(), env.get(name).unwrap());
    }
}

/// One firing of `Z := X'X; W := inv(Z); beta := W X' Y` (X 512×256)
/// under Woodbury, for a batch of 13 row events on distinct rows: the
/// engine coalesces them to rank 13, so `Z` and `W` fold rank-26 deltas.
/// No single allocation of the firing reaches one 256×256 view.
fn ols_batch_firing_allocates_no_view_sized_block() {
    let (rows, cols, events) = (512, 256, 13);
    let program = parse_program(OLS_PROGRAM).unwrap();
    let mut cat = Catalog::new();
    cat.declare("X", rows, cols);
    cat.declare("Y", rows, 1);
    let x = Matrix::random_uniform(rows, cols, 60);
    let y = Matrix::random_uniform(rows, 1, 61);
    let mut view = IncrementalView::build(&program, &[("X", x), ("Y", y)], &cat).unwrap();
    view.set_exec_options(ExecOptions {
        inverse_primitive: InversePrimitive::Woodbury,
        ..ExecOptions::default()
    });
    let mut engine = MaintenanceEngine::new(view, FlushPolicy::Count(events));
    let mut ingest_batch = |first: usize| {
        for i in 0..events {
            let row = (first + 37 * i) % rows;
            let upd = RankOneUpdate::row_update(rows, cols, row, 0.01, (first + i) as u64);
            engine.ingest("X", upd).unwrap();
        }
    };
    // The first firing spawns the pool workers.
    ingest_batch(0);

    LARGEST.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    ingest_batch(5);
    COUNTING.store(false, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    let largest = LARGEST.swap(0, Ordering::SeqCst);
    let view_bytes = 8 * cols * cols;
    println!(
        "OLS Woodbury firing at rank {events} (X {rows}x{cols}): largest allocation {largest} B \
         (one Z-sized view {view_bytes} B)"
    );
    assert_eq!(engine.stats().firings, 2, "each batch fired once");
    assert!(
        largest < view_bytes,
        "an OLS Woodbury firing of a rank-{events} batch made a {largest} B allocation; one \
         {cols}x{cols} view is {view_bytes} B"
    );
    let beta = engine.get("beta").unwrap();
    assert!(beta.as_slice().iter().all(|b| b.is_finite()));
}
