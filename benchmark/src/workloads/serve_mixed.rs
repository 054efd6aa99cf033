//! `serve_mixed`: reads beside writes on the same `runtime.snapshot` layer.
//! The two-input program on `LocalBackend`, `FlushPolicy::Immediate`,
//! `enable_serving(1)`. The main thread is an open-loop generator + writer
//! at 50 events/s, each event timed from its *due* time until
//! `ViewHandle::epoch()` covers it; one closed-loop reader thread rotates
//! `snapshot()` + row/point reads for the whole measured loop. Publishing
//! deep-copies the environment every round, so a change that makes the
//! writer's publish cheaper but reads dearer (or the reverse) shows as
//! `visible_*` and `reads_per_s` moving in opposite directions. The fixed
//! rate holds the reader's share of the machine constant across commits.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::gen::{EventStream, Rng};
use crate::stats::{median, percentile};
use crate::surface::{
    self, parse_program, CompileProbe, FlushPolicy, IncrementalView, LocalBackend,
    MaintenanceEngine, RankOneUpdate, StageDelta, Timed, ViewHandle,
};

use super::{
    bit_identical, probe_engine_front, two_input_catalog, two_input_matrices, Ctx, Measured,
    OpenLoopClock, Probes, Report, Workload, TWO_INPUT_NAMES, TWO_INPUT_PROGRAM,
};

const RATE_HZ: f64 = 50.0;
/// One read in this many is timed (reader side, traced runs only).
const SAMPLE_EVERY: u64 = 64;
/// Events of the reader-parked phase that `writer_slowdown` compares against.
const PARKED_EVENTS: usize = 64;

/// What the reader thread saw, returned when it stops.
#[derive(Debug, Default)]
struct ReaderTotals {
    reads: u64,
    failed: u64,
    max_staleness: u64,
    epochs_monotone: bool,
    acquire_ns: Vec<f64>,
    read_ns: Vec<f64>,
}

struct Reader {
    stop: Arc<AtomicBool>,
    parked: Arc<AtomicBool>,
    /// Reads completed so far, published every few reads.
    reads: Arc<AtomicU64>,
    thread: JoinHandle<ReaderTotals>,
}

impl Reader {
    /// One closed-loop reader: acquire the latest snapshot, do one read,
    /// repeat. The access pattern comes from the run's seed.
    fn spawn(handle: ViewHandle, n: usize, seed: u64, sample: bool) -> Reader {
        let stop = Arc::new(AtomicBool::new(false));
        let parked = Arc::new(AtomicBool::new(false));
        let reads = Arc::new(AtomicU64::new(0));
        let (stop_t, parked_t, reads_t) = (stop.clone(), parked.clone(), reads.clone());
        let thread = std::thread::spawn(move || {
            let mut rng = Rng::new(seed, 3);
            let mut t = ReaderTotals {
                epochs_monotone: true,
                ..ReaderTotals::default()
            };
            let mut last_epoch = 0;
            while !stop_t.load(Ordering::Relaxed) {
                if parked_t.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                let (r, c) = (rng.below(n), rng.below(n));
                let timed = sample && t.reads.is_multiple_of(SAMPLE_EVERY);
                let start = timed.then(Instant::now);
                let snap = handle.snapshot();
                let acquired = timed.then(Instant::now);
                let ok = match t.reads % 3 {
                    0 => snap.row("D", r).map(|row| row[c]).is_ok(),
                    1 => snap.point("C", r, c).is_ok(),
                    _ => snap.row("C", r).map(|row| row[c]).is_ok(),
                };
                if let (Some(start), Some(acquired)) = (start, acquired) {
                    t.acquire_ns.push((acquired - start).as_nanos() as f64);
                    t.read_ns.push(start.elapsed().as_nanos() as f64);
                }
                t.failed += u64::from(!ok);
                t.epochs_monotone &= snap.epoch() >= last_epoch;
                last_epoch = snap.epoch();
                // Rounds advance just before the publish, so a read may
                // trail the live view by one round, never more.
                t.max_staleness = t.max_staleness.max(handle.staleness());
                t.reads += 1;
                if t.reads.is_multiple_of(256) {
                    reads_t.store(t.reads, Ordering::Relaxed);
                }
            }
            t
        });
        Reader {
            stop,
            parked,
            reads,
            thread,
        }
    }

    fn finish(self) -> Result<ReaderTotals, String> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .join()
            .map_err(|_| "reader thread panicked".to_string())
    }
}

pub struct ServeMixed {
    engine: MaintenanceEngine<Timed<LocalBackend>>,
    handle: ViewHandle,
    /// Declared after the engine; stopped explicitly in `finish` (or by
    /// `Drop` when a build is discarded).
    reader: Option<Reader>,
    window: Option<(Instant, u64)>,
    /// When the reader was last parked for a REEVAL burst, and for how long
    /// in total inside the measured window.
    parked_at: Option<Instant>,
    parked_for: Duration,
    reads_per_s: f64,
}

impl Drop for ServeMixed {
    fn drop(&mut self) {
        if let Some(reader) = self.reader.take() {
            let _ = reader.finish();
        }
    }
}

impl Workload for ServeMixed {
    const NAME: &'static str = "serve_mixed";
    const INPUTS: usize = 2;
    const GEMM_THREADS: usize = 1;
    const EVENTS_PER_FIRING: usize = 1;
    const RATE_HZ: Option<f64> = Some(RATE_HZ);

    fn build(ctx: &Ctx) -> Result<Self, String> {
        let program = parse_program(TWO_INPUT_PROGRAM).map_err(|e| e.to_string())?;
        let (a, b) = two_input_matrices(ctx);
        let view = IncrementalView::build_on(
            Timed::new(LocalBackend),
            &program,
            &[("A", a), ("B", b)],
            &two_input_catalog(ctx.sizes().n),
        )
        .map_err(|e| e.to_string())?;
        let mut engine = MaintenanceEngine::new(view, FlushPolicy::Immediate);
        let handle = engine.enable_serving(1);
        let reader = Reader::spawn(handle.clone(), ctx.sizes().n, ctx.seed, ctx.trace);
        Ok(ServeMixed {
            engine,
            handle,
            reader: Some(reader),
            window: None,
            parked_at: None,
            parked_for: Duration::ZERO,
            reads_per_s: 0.0,
        })
    }

    fn stream(ctx: &Ctx) -> EventStream {
        let n = ctx.sizes().n;
        EventStream::new(ctx.seed, n, &[n, n], 0.0, 0.01)
    }

    fn compile_probe(ctx: &Ctx) -> Result<CompileProbe, String> {
        super::two_input_compile_probe(ctx)
    }

    fn submit(&mut self, input: usize, upd: RankOneUpdate) -> Result<(), String> {
        self.engine
            .ingest(TWO_INPUT_NAMES[input], upd)
            .map_err(|e| e.to_string())?;
        // Visible means published: with Immediate flushing and a publish
        // every round the epoch already covers the event on return.
        while self.handle.staleness() > 0 {
            std::hint::spin_loop();
        }
        Ok(())
    }

    fn measure_begin(&mut self) {
        if let Some(reader) = &self.reader {
            self.window = Some((Instant::now(), reader.reads.load(Ordering::Relaxed)));
        }
    }

    fn measure_end(&mut self) {
        if let (Some(reader), Some((start, reads))) = (&self.reader, self.window.take()) {
            let done = reader.reads.load(Ordering::Relaxed) - reads;
            let reading = start.elapsed().saturating_sub(self.parked_for);
            self.reads_per_s = done as f64 / reading.as_secs_f64();
        }
    }

    fn baseline_begin(&mut self) {
        if let Some(reader) = &self.reader {
            reader.parked.store(true, Ordering::Relaxed);
            self.parked_at = Some(Instant::now());
        }
    }

    fn baseline_end(&mut self) {
        if let (Some(reader), Some(since)) = (&self.reader, self.parked_at.take()) {
            reader.parked.store(false, Ordering::Relaxed);
            if self.window.is_some() {
                self.parked_for += since.elapsed();
            }
        }
    }

    fn probe_firing(
        &mut self,
        _input: usize,
        batch: &[RankOneUpdate],
        _deltas: &[StageDelta],
        probes: &mut Probes,
    ) -> Result<(), String> {
        probe_engine_front(batch, probes).map(drop)
    }

    fn probe_block(&mut self, ctx: &Ctx, probes: &mut Probes) -> Result<(), String> {
        // One forced publish stands for the block's per-round publishes.
        let weight = ctx.sizes().block_firings as f64;
        probes.timed("probe.publish", weight, || self.engine.publish_snapshot());
        Ok(())
    }

    fn reeval(ctx: &Ctx) -> Result<super::ReevalFn, String> {
        super::two_input_reeval(ctx)
    }

    fn finish(
        mut self,
        ctx: &Ctx,
        run: &mut Measured<'_>,
        report: &mut Report,
    ) -> Result<(), String> {
        let n = ctx.sizes().n;
        // The same schedule with the reader parked: what the reader costs
        // the writer (traced runs only; the reader is never parked otherwise).
        let mut parked_ms = Vec::new();
        if ctx.trace {
            let parked = self
                .reader
                .as_ref()
                .expect("reader runs until finish")
                .parked
                .clone();
            parked.store(true, Ordering::Relaxed);
            let clock = OpenLoopClock::new(Instant::now(), RATE_HZ);
            let events = run
                .stream
                .take(PARKED_EVENTS.min(4 * ctx.sizes().block_firings));
            for (i, ev) in events.iter().enumerate() {
                let upd = surface::row_update(n, ev);
                OpenLoopClock::wait_until(clock.due(i as u64));
                let start = Instant::now();
                self.submit(ev.input, upd)?;
                parked_ms.push(start.elapsed().as_secs_f64() * 1e3);
            }
            parked.store(false, Ordering::Relaxed);
        }

        let totals = self
            .reader
            .take()
            .expect("reader runs until finish")
            .finish()?;
        report.attempted += totals.reads;
        report.failed += totals.failed;
        report.check(
            format!("reader made progress ({} reads)", totals.reads),
            totals.reads > 0,
        );
        report.check("reader epochs monotone", totals.epochs_monotone);
        report.check(
            format!(
                "observed staleness <= 1 round (worst {})",
                totals.max_staleness
            ),
            totals.max_staleness <= 1,
        );
        let snap = self.handle.snapshot();
        let mut identical = snap.epoch() == self.handle.rounds();
        for name in ["A", "B", "C", "D"] {
            let live = self.engine.get(name).map_err(|e| e.to_string())?;
            identical &= bit_identical(snap.get(name).map_err(|e| e.to_string())?, live);
        }
        report.check("final snapshot bit-identical to engine.get", identical);

        if ctx.trace {
            super::local_fold_metrics(run, report);
            let p = &run.probes;
            report.layer("reads_per_s", self.reads_per_s);
            report.layer(
                "runtime.snapshot.publish_ms",
                p.median_ns("probe.publish") / 1e6,
            );
            report.layer(
                "runtime.snapshot.bytes",
                self.engine.view().memory_bytes() as f64,
            );
            report.layer("runtime.snapshot.acquire_ns", median(&totals.acquire_ns));
            report.layer("runtime.snapshot.row_read_ns", median(&totals.read_ns));
            report.layer(
                "runtime.snapshot.read_p99_ns",
                percentile(&totals.read_ns, 99.0),
            );
            report.layer(
                "runtime.snapshot.staleness_max",
                totals.max_staleness as f64,
            );
            let parked_p50 = median(&parked_ms);
            if parked_p50 > 0.0 {
                report.layer(
                    "runtime.snapshot.writer_slowdown",
                    median(&run.refresh_ms) / parked_p50,
                );
            }
        }
        Ok(())
    }
}
