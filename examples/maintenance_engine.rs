//! Streaming maintenance with batched multi-input ingestion, on every
//! execution backend.
//!
//! A Zipf-skewed stream of rank-1 events over TWO dynamic inputs (`A` and
//! `B` of `C := A * B; D := C * C;`) flows into a `MaintenanceEngine`,
//! which coalesces per-input events into rank-k batches and fires the
//! compiled triggers through the pluggable `ExecBackend` — the same code
//! path whether views are in-process dense matrices (`LocalBackend`) or
//! grid-partitioned (§6) across worker threads that receive every factor
//! broadcast as a serialized byte frame (`ThreadedBackend`). Final flushes
//! fire ONE joint trigger per round (§4.4) when both inputs are pending.
//!
//! Run with:
//! `cargo run --release --example maintenance_engine -- [local|threaded|all]`

use linview::prelude::*;
use linview::runtime::{ExecBackend, FlushPolicy, MaintenanceEngine, ThreadedBackend};

const N: usize = 48;
const EVENTS: usize = 64;
const ZIPF: f64 = 1.5;
const WORKERS: usize = 4;

/// Streams the workload at the given batch size; returns (firings, D).
fn stream<B: ExecBackend>(view: IncrementalView<B>, batch: usize) -> (u64, Matrix) {
    view.reset_comm();
    let policy = if batch <= 1 {
        FlushPolicy::Immediate
    } else {
        FlushPolicy::Count(batch)
    };
    let mut engine = MaintenanceEngine::new(view, policy);
    let mut updates = UpdateStream::new(N, N, 0.01, 99);
    for i in 0..EVENTS {
        let input = if i % 2 == 0 { "A" } else { "B" };
        engine
            .ingest(input, updates.next_rank_one_zipf(ZIPF))
            .expect("event ingests");
    }
    engine.flush_all().expect("final flush");
    let stats = engine.stats();
    let comm = engine.comm();
    println!(
        "  {:>8} backend, batch {:>2}: {:>2} firings (fired rank {:>2}, {} joint rounds \
         saving {} firings), mean refresh {:>10.2?}, broadcast {:>7} B, shuffle {} B, \
         {} stmts in {} stages, {} overlapped broadcasts",
        engine.view().backend().name(),
        batch,
        stats.firings,
        stats.fired_rank,
        stats.joint_rounds,
        stats.triggers_saved,
        stats.refresh.mean_wall(),
        comm.broadcast_bytes,
        comm.shuffle_bytes,
        stats.stmts,
        stats.stages,
        stats.overlapped_broadcasts,
    );
    let d = engine.get("D").expect("D is maintained").clone();
    (stats.firings, d)
}

fn build_local(program: &Program, inputs: &[(&str, Matrix)], cat: &Catalog) -> IncrementalView {
    IncrementalView::build(program, inputs, cat).expect("local view builds")
}

fn build_threaded(
    program: &Program,
    inputs: &[(&str, Matrix)],
    cat: &Catalog,
) -> IncrementalView<ThreadedBackend> {
    let backend = ThreadedBackend::new(WORKERS).expect("square worker count");
    IncrementalView::build_on(backend, program, inputs, cat).expect("threaded view builds")
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let program = parse_program("C := A * B; D := C * C;").expect("program parses");
    let mut cat = Catalog::new();
    cat.declare("A", N, N);
    cat.declare("B", N, N);
    let a = Matrix::random_spectral(N, 7, 0.8);
    let b = Matrix::random_spectral(N, 8, 0.8);
    let inputs = [("A", a), ("B", b)];

    println!(
        "maintenance engine: C := A * B; D := C * C; — {EVENTS} Zipf({ZIPF}) events over A, B (n = {N})"
    );

    let mut reference: Option<Matrix> = None;
    for batch in [1usize, 8] {
        let mut per_batch: Vec<(u64, Matrix)> = Vec::new();
        if matches!(which.as_str(), "local" | "all") {
            per_batch.push(stream(build_local(&program, &inputs, &cat), batch));
        }
        if matches!(which.as_str(), "threaded" | "all") {
            per_batch.push(stream(build_threaded(&program, &inputs, &cat), batch));
        }
        assert!(!per_batch.is_empty(), "usage: -- [local|threaded|all]");
        // Every backend and every batch size must maintain the same D:
        // batching is exact, and the backends share one execution path.
        for (_, d) in &per_batch {
            match &reference {
                None => reference = Some(d.clone()),
                Some(r) => {
                    let diff = r.max_abs_diff(d);
                    assert!(diff < 1e-9, "views diverged by {diff:.2e}");
                }
            }
        }
        if batch > 1 {
            let max_firings = per_batch.iter().map(|(f, _)| *f).max().unwrap();
            assert!(
                max_firings < EVENTS as u64,
                "batching must fire fewer triggers than events"
            );
        }
    }
    println!("all backends and batch sizes agree on D (divergence < 1e-9)");
}
