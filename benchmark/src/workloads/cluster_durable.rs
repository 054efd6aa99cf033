//! `cluster_durable`: `C := A * B; D := C * C` on a `SocketBackend` over a
//! 1×2 grid of in-process workers on Unix sockets, 8 Zipf(1.5) events per
//! firing alternating A/B, durable checkpointing every 32 firings — then a
//! crash mid-generation and `recover_from_disk` on a fresh local engine.
//! The only workload where frame encode/decode, socket writes, worker
//! folds, gathers, WAL appends and checkpoint rolls are on the blocking
//! path (§6's broadcast-only claim); the roll is predicted to *be*
//! `refresh_p99_ms`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::gen::EventStream;
use crate::stats::median;
use crate::surface::{
    self, parse_program, Cluster, CompileProbe, FiringRecord, FlushPolicy, IncrementalView,
    LocalBackend, MaintenanceEngine, PeerAddr, RankOneUpdate, SocketBackend, SocketConfig,
    StageDelta, Timed, WalFile, WorkerServer,
};

use super::{
    bit_identical, probe_engine_front, two_input_catalog, two_input_matrices, Ctx, Measured,
    Probes, Report, Workload, TWO_INPUT_NAMES, TWO_INPUT_PROGRAM,
};

const BATCH: usize = 8;
const SKEW: f64 = 1.5;
const GRID: (usize, usize) = (1, 2);
/// Firings left in the WAL past the last roll when the engine is dropped.
const TAIL_FIRINGS: usize = 8;
const RECOVERIES: usize = 5;
/// A busy/idle gather pair is probed on every this-many-th traced firing.
const GATHER_EVERY: usize = 8;
const VIEWS: [&str; 4] = ["A", "B", "C", "D"];

pub struct ClusterDurable {
    // Declared before `servers` so the coordinator hangs up first.
    engine: MaintenanceEngine<Timed<SocketBackend>>,
    _servers: Vec<WorkerServer>,
    ctx: Ctx,
    /// A `LocalBackend` engine fed the same warm-up stream.
    twin: Option<MaintenanceEngine<LocalBackend>>,
    scratch_wal: WalFile,
    /// Bytes the scratch WAL and scratch snapshots took on disk, and the
    /// events of the traced blocks that produced them.
    scratch_bytes: u64,
    traced_firings: usize,
    rolls_at_start: u64,
}

/// Checkpoint cadence: one roll per block, so every block pays exactly one.
fn ckpt_every(ctx: &Ctx) -> usize {
    ctx.sizes().block_firings
}

fn wal_dir(ctx: &Ctx) -> PathBuf {
    ctx.tmp.join("wal")
}

fn local_engine(ctx: &Ctx) -> Result<MaintenanceEngine<LocalBackend>, String> {
    let program = parse_program(TWO_INPUT_PROGRAM).map_err(|e| e.to_string())?;
    let (a, b) = two_input_matrices(ctx);
    let view = IncrementalView::build(
        &program,
        &[("A", a), ("B", b)],
        &two_input_catalog(ctx.sizes().n),
    )
    .map_err(|e| e.to_string())?;
    Ok(MaintenanceEngine::new(view, FlushPolicy::Count(BATCH)))
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries.flatten() {
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

impl ClusterDurable {
    fn gather(&self, view: &str) -> Result<surface::Matrix, String> {
        self.engine
            .view()
            .backend()
            .inner()
            .view(view)
            .map_err(|e| e.to_string())
    }
}

impl Workload for ClusterDurable {
    const NAME: &'static str = "cluster_durable";
    const INPUTS: usize = 2;
    const GEMM_THREADS: usize = 1;
    const EVENTS_PER_FIRING: usize = BATCH;

    fn build(ctx: &Ctx) -> Result<Self, String> {
        let mut servers = Vec::new();
        let mut addrs = Vec::new();
        for idx in 0..GRID.0 * GRID.1 {
            // Relative paths keep the socket name under the 108-byte limit
            // however deep the checkout sits.
            let addr = PeerAddr::Unix(ctx.tmp.join(format!("w{idx}.sock")));
            let server = WorkerServer::spawn(&addr).map_err(|e| format!("spawn worker: {e}"))?;
            addrs.push(server.addr().clone());
            servers.push(server);
        }
        let backend = SocketBackend::connect_with_cluster(
            Cluster::with_grid(GRID.0, GRID.1),
            addrs,
            SocketConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        let program = parse_program(TWO_INPUT_PROGRAM).map_err(|e| e.to_string())?;
        let (a, b) = two_input_matrices(ctx);
        let view = IncrementalView::build_on(
            Timed::new(backend),
            &program,
            &[("A", a), ("B", b)],
            &two_input_catalog(ctx.sizes().n),
        )
        .map_err(|e| e.to_string())?;
        let mut engine = MaintenanceEngine::new(view, FlushPolicy::Count(BATCH));
        engine
            .enable_durable_checkpointing(ckpt_every(ctx), wal_dir(ctx))
            .map_err(|e| e.to_string())?;
        let scratch_wal =
            WalFile::open(ctx.tmp.join("probe-wal.bin")).map_err(|e| e.to_string())?;
        scratch_wal.truncate().map_err(|e| e.to_string())?;
        Ok(ClusterDurable {
            engine,
            _servers: servers,
            ctx: ctx.clone(),
            twin: None,
            scratch_wal,
            scratch_bytes: 0,
            traced_firings: 0,
            rolls_at_start: 0,
        })
    }

    fn stream(ctx: &Ctx) -> EventStream {
        let n = ctx.sizes().n;
        EventStream::new(ctx.seed, n, &[n, n], SKEW, 0.01)
    }

    fn compile_probe(ctx: &Ctx) -> Result<CompileProbe, String> {
        super::two_input_compile_probe(ctx)
    }

    fn submit(&mut self, input: usize, upd: RankOneUpdate) -> Result<(), String> {
        self.engine
            .ingest(TWO_INPUT_NAMES[input], upd)
            .map_err(|e| e.to_string())
    }

    fn warm(&mut self, input: usize, upd: RankOneUpdate) -> Result<(), String> {
        if self.twin.is_none() {
            self.twin = Some(local_engine(&self.ctx)?);
        }
        let twin = self.twin.as_mut().expect("just built");
        twin.ingest(TWO_INPUT_NAMES[input], upd.clone())
            .map_err(|e| e.to_string())?;
        self.submit(input, upd)
    }

    fn after_warmup(&mut self, ctx: &Ctx, report: &mut Report) -> Result<(), String> {
        if let Some(twin) = self.twin.take() {
            let gathered = self.gather("D")?;
            let local = twin.get("D").map_err(|e| e.to_string())?;
            report.check(
                "gathered D bit-identical to a LocalBackend engine fed the same warm-up stream",
                bit_identical(&gathered, local)
                    && twin.pending_total() == self.engine.pending_total(),
            );
        }
        // A fresh generation, so the measured loop starts on a roll
        // boundary and every block of `ckpt_every` firings ends on one.
        self.engine
            .enable_durable_checkpointing(ckpt_every(ctx), wal_dir(ctx))
            .map_err(|e| e.to_string())?;
        self.engine.view().reset_comm();
        self.rolls_at_start = self.engine.recovery_stats().checkpoints;
        Ok(())
    }

    fn flush(&mut self) -> Result<(), String> {
        self.engine.flush_all().map_err(|e| e.to_string())
    }

    fn barrier(&mut self) -> Result<(), String> {
        self.gather("D").map(drop)
    }

    fn probe_firing(
        &mut self,
        input: usize,
        batch: &[RankOneUpdate],
        deltas: &[StageDelta],
        probes: &mut Probes,
    ) -> Result<(), String> {
        self.traced_firings += 1;
        if self.traced_firings.is_multiple_of(GATHER_EVERY) {
            // The first gather waits for the workers to finish this
            // firing's folds; the second finds them idle.
            probes.timed("probe.gather_busy", 0.0, || self.gather("D"))?;
            probes.timed("probe.gather_idle", 0.0, || self.gather("D"))?;
        }
        let fired = probe_engine_front(batch, probes)?;
        // Inside the firing these sit under apply_stage, hence weight 0.
        for d in deltas {
            let frame = probes.timed("probe.encode", 0.0, || {
                surface::delta_frame(&d.target, &d.u, &d.v)
            });
            probes
                .timed("probe.decode", 0.0, || surface::decode_delta_frame(frame))
                .map_err(|e| e.to_string())?;
        }
        // The engine encodes the record for its in-memory log, then the
        // WAL append encodes and writes it again.
        let record = FiringRecord::single(TWO_INPUT_NAMES[input], fired.u, fired.v);
        let encoded = probes.timed("probe.record_encode", 1.0, || record.encode());
        probes
            .timed("probe.wal_append", 1.0, || self.scratch_wal.append(&record))
            .map_err(|e| e.to_string())?;
        self.scratch_bytes += 4 + encoded.len() as u64;
        Ok(())
    }

    fn probe_block(&mut self, ctx: &Ctx, probes: &mut Probes) -> Result<(), String> {
        // What a roll pays: serialise every view, write the snapshot.
        let path = ctx.tmp.join("probe-checkpoint.bin");
        let len = probes.timed("probe.checkpoint", 1.0, || -> Result<u64, String> {
            let bytes = self.engine.view().checkpoint().map_err(|e| e.to_string())?;
            std::fs::write(&path, &bytes).map_err(|e| e.to_string())?;
            Ok(bytes.len() as u64)
        })?;
        self.scratch_bytes += len;
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
        let sizes = ctx.sizes();
        let comm = self.engine.comm();
        let recovery = self.engine.recovery_stats();
        let rank_shed = self.engine.stats().sparse.rank_saved;
        let workers = (GRID.0 * GRID.1) as f64;
        report.check(
            format!("shuffle_bytes == 0 (got {})", comm.shuffle_bytes),
            comm.shuffle_bytes == 0,
        );
        let gathered = self.gather("D")?;
        report.check(
            "gathered D bit-identical to the coordinator's mirror",
            bit_identical(&gathered, self.engine.get("D").map_err(|e| e.to_string())?),
        );

        // Crash mid-generation: a fixed tail of firings past the last roll,
        // then the engine (and its workers) simply go away.
        for ev in run
            .stream
            .take(TAIL_FIRINGS.min(sizes.block_firings - 1) * BATCH)
        {
            self.submit(ev.input, surface::row_update(sizes.n, &ev))?;
        }
        let tail = self.engine.recovery_stats().logged_firings - recovery.logged_firings;
        let before: Vec<surface::Matrix> = VIEWS
            .iter()
            .map(|v| self.engine.get(v).cloned().map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let snapshot = self.engine.view().checkpoint().map_err(|e| e.to_string())?;
        let crashed = wal_dir(ctx);
        let ClusterDurable {
            engine,
            _servers,
            scratch_bytes,
            rolls_at_start,
            ..
        } = self;
        drop(engine);
        drop(_servers);

        let mut recover_s = Vec::new();
        let (mut replayed, mut identical, mut torn) = (0, true, 0);
        for i in 0..RECOVERIES {
            let dir = ctx.tmp.join(format!("recover-{i}"));
            copy_dir(&crashed, &dir)?;
            let mut fresh = local_engine(ctx)?;
            let start = Instant::now();
            let found = fresh
                .recover_from_disk(ckpt_every(ctx), &dir)
                .map_err(|e| e.to_string())?;
            recover_s.push(start.elapsed().as_secs_f64());
            replayed = found.replayed_firings;
            torn += found.torn_tail_bytes;
            for (name, pre) in VIEWS.iter().zip(&before) {
                identical &= bit_identical(fresh.get(name).map_err(|e| e.to_string())?, pre);
            }
        }
        report.check(
            format!("replayed_firings == {tail} (got {replayed}, torn tail {torn} B)"),
            replayed == tail && tail > 0 && torn == 0,
        );
        report.check(
            "recovered A, B, C, D bit-identical to the pre-crash state, 5 times",
            identical,
        );

        if ctx.trace {
            let mut fresh = local_engine(ctx)?;
            run.probes
                .timed("probe.restore", 0.0, || {
                    fresh.view_mut().restore(snapshot.clone())
                })
                .map_err(|e| e.to_string())?;
            let p = &run.probes;
            let events = run.events().max(1) as f64;
            let firings = run.counts.firings.max(1) as f64;
            let traced_firings = run.traced_firings().max(1.0);
            let traced_events: u64 = run
                .blocks
                .iter()
                .filter(|b| b.traced)
                .map(|b| b.events)
                .sum();
            let frames = comm.broadcast_msgs as f64 / workers;
            let recover = median(&recover_s);
            let (save_ms, restore_ms) = (
                p.median_ns("probe.checkpoint") / 1e6,
                p.median_ns("probe.restore") / 1e6,
            );
            report.layer("recover_s", recover);
            report.layer("wire_bytes_per_event", comm.broadcast_bytes as f64 / events);
            report.layer(
                "wal_bytes_per_event",
                scratch_bytes as f64 / traced_events.max(1) as f64,
            );
            report.layer(
                "dist.transport.encode_us_per_frame",
                p.median_ns("probe.encode") / 1e3,
            );
            report.layer(
                "dist.transport.decode_us_per_frame",
                p.median_ns("probe.decode") / 1e3,
            );
            report.layer("dist.transport.frames_per_firing", frames / firings);
            report.layer(
                "dist.transport.bytes_per_frame",
                comm.broadcast_bytes as f64 / comm.broadcast_msgs.max(1) as f64,
            );
            report.layer(
                "dist.transport.compressed_frame_share",
                run.counts.compressed_frames as f64 / frames.max(1.0),
            );
            report.layer("dist.transport.shuffle_bytes", comm.shuffle_bytes as f64);
            report.layer(
                "dist.socket.broadcast_ms_per_firing",
                run.profile.ms("apply_stage") / traced_firings,
            );
            let idle_ms = p.median_ns("probe.gather_idle") / 1e6;
            report.layer(
                "dist.socket.worker_lag_ms",
                (p.median_ns("probe.gather_busy") / 1e6 - idle_ms).max(0.0),
            );
            report.layer("dist.socket.gather_ms", idle_ms);
            report.layer(
                "dist.socket.install_ms",
                run.profile.mean_us("materialize") / 1e3,
            );
            report.layer(
                "runtime.wal.append_us_per_firing",
                p.sum_ns("probe.wal_append") / 1e3 / traced_firings,
            );
            report.layer(
                "runtime.wal.record_encode_us",
                p.median_ns("probe.record_encode") / 1e3,
            );
            report.layer(
                "runtime.wal.bytes_per_firing",
                (scratch_bytes as f64 - (snapshot.len() * p.count("probe.checkpoint")) as f64)
                    / traced_firings,
            );
            report.layer("runtime.checkpoint.save_ms", save_ms);
            report.layer("runtime.checkpoint.bytes", snapshot.len() as f64);
            report.layer(
                "runtime.checkpoint.rolls",
                (recovery.checkpoints - rolls_at_start) as f64,
            );
            report.layer("runtime.checkpoint.restore_ms", restore_ms);
            report.layer("runtime.checkpoint.replayed_firings", replayed as f64);
            report.layer(
                "runtime.checkpoint.replay_ms",
                (recover * 1e3 - restore_ms - save_ms).max(0.0),
            );
            report.layer("matrix.compress.rank_shed", rank_shed as f64);
        }
        Ok(())
    }
}
