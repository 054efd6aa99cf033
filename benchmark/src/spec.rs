//! The benchmark's declarative half: workloads, metrics, bounds, and which
//! layer metric is predicted to move which end-to-end metric where.
//! `BENCHMARK.json` is generated from these tables (`manifest`), the README
//! tables restate them, and `validate` keeps all three honest.

use crate::json::Json;

/// Default input seed. `20140627` is the held-out seed: never used while
/// tuning the benchmark, and the one a claimed gain must also hold on.
pub const DEFAULT_SEED: u64 = 20140622;

/// Seconds one driver run measures for.
pub const RUN_SECONDS: u64 = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// `new / base` oriented so that > 1 is worse.
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => new / base,
            Better::Higher => base / new,
        }
    }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "powers_point",
        why: "Paper's headline A^16 under rank-1 updates: delta-block evaluation and rank-k folds only; coalescing, wire, WAL and publish do nothing here",
    },
    WorkloadSpec {
        name: "ols_batch",
        why: "Table 4 batch regime on the OLS inverse view: Zipf coalescing, SVD recompression and rank-13 Woodbury on cache-resident views",
    },
    WorkloadSpec {
        name: "cluster_durable",
        why: "Only workload with frame encode, socket writes, worker folds, WAL appends and checkpoint rolls on the blocking path, then crash recovery",
    },
    WorkloadSpec {
        name: "serve_mixed",
        why: "Open-loop 50 events/s writer beside a closed-loop snapshot reader: publish cost and reader interference on the same snapshot layer",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
    pub what: &'static str,
}

/// Every workload reports every one of these (the driver contract), so the
/// list holds only what is defined — and never zero — on all four. The
/// ISSUE's single-workload metrics live in `PER_LAYER` under their names.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "parse + compile + materialise views (+ worker spawn/install, + durable-checkpoint or serving enable); median of 9 builds",
    },
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "rank-1 events submitted and fully folded per second of caller-blocking time; median over blocks of 32 firings (offered rate on the open-loop workload)",
    },
    EndToEnd {
        name: "refresh_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "median duration of a caller-visible call (apply/ingest) that fired a trigger; >= 1000 samples per 20 s run, count printed",
    },
    EndToEnd {
        name: "refresh_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "p90 of the same samples within each block of 32 firings, median across blocks (the highest percentile that repeats; plain p99 is per-layer)",
    },
    EndToEnd {
        name: "reeval_refresh_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "median REEVAL refresh (the paper's baseline) on 40 of the same updates, in bursts of 4 spread over the run; its own metric so a faster GEMM never reads as a regression",
    },
    EndToEnd {
        name: "visible_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "event submit (closed loop) or due (open loop) time until the firing holding it is readable: call return, and published epoch on the serving workload",
    },
    EndToEnd {
        name: "visible_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "p90 of the same samples within each block of 32 firings' events, median across blocks",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
        what: "VmHWM of the workload's process at the end of the measured loop (Table 3's memory cost; includes the REEVAL baseline's own copy)",
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics this one is predicted to move…
    pub moves: &'static [&'static str],
    /// …on these workloads (no change is predicted on the others).
    pub on: &'static [&'static str],
    pub what: &'static str,
}

const ALL: &[&str] = &[
    "powers_point",
    "ols_batch",
    "cluster_durable",
    "serve_mixed",
];
const ENGINE: &[&str] = &["ols_batch", "cluster_durable", "serve_mixed"];
const BATCHED: &[&str] = &["ols_batch", "cluster_durable"];
const LOCAL_FOLDS: &[&str] = &["powers_point", "ols_batch"];
const OLS: &[&str] = &["ols_batch"];
const CLUSTER: &[&str] = &["cluster_durable"];
const SERVE: &[&str] = &["serve_mixed"];
const REFRESH: &[&str] = &["refresh_p50_ms", "events_per_s"];
const P50: &[&str] = &["refresh_p50_ms"];
const TAIL: &[&str] = &["refresh_p99_ms"];
const SETUP: &[&str] = &["setup_s"];
const VISIBLE: &[&str] = &["visible_p50_ms", "visible_p90_ms"];

macro_rules! layer {
    ($name:literal, $unit:literal, $better:ident, $moves:expr, $on:expr, $what:literal) => {
        Layer {
            name: $name,
            unit: $unit,
            better: Better::$better,
            moves: $moves,
            on: $on,
            what: $what,
        }
    };
}

/// Layer = module name. Metrics a workload does not exercise read 0 there,
/// which is itself the "no change predicted" baseline.
pub const PER_LAYER: &[Layer] = &[
    // tails that do not repeat within a bound: reported, not gated
    layer!(
        "refresh_p99_ms",
        "ms",
        Lower,
        &["refresh_p90_ms"],
        ALL,
        "plain p99 of the firing-call durations (>= 10 samples beyond in a 20 s run)"
    ),
    layer!(
        "visible_p99_ms",
        "ms",
        Lower,
        &["visible_p90_ms"],
        ALL,
        "plain p99 of the event-to-visible latencies"
    ),
    // compiler
    layer!(
        "compiler.compile_ms",
        "ms",
        Lower,
        SETUP,
        ALL,
        "hoist_inverses + compile + compile_joint of the workload's program (probe)"
    ),
    layer!(
        "compiler.trigger_stmts",
        "count",
        Lower,
        P50,
        ALL,
        "statements in the fired input's compiled trigger"
    ),
    layer!(
        "compiler.static_flops_per_firing",
        "flop",
        Lower,
        P50,
        ALL,
        "cost-model FLOPs of one firing of that trigger at the compiled rank"
    ),
    // runtime.engine
    layer!(
        "runtime.engine.events",
        "count",
        Higher,
        &["events_per_s"],
        ALL,
        "rank-1 events submitted in the measured loop (exact)"
    ),
    layer!(
        "runtime.engine.firings",
        "count",
        Higher,
        &["events_per_s"],
        ALL,
        "trigger firings in the measured loop (exact)"
    ),
    layer!(
        "runtime.engine.fired_rank",
        "count",
        Lower,
        REFRESH,
        ENGINE,
        "total coalesced rank fired (exact)"
    ),
    layer!(
        "runtime.engine.self_ms_per_firing",
        "ms",
        Lower,
        REFRESH,
        ENGINE,
        "ingest span minus fire_trigger span: coalesce, recompress, stats, WAL, roll, publish"
    ),
    layer!(
        "runtime.engine.buffer_us_per_event",
        "us",
        Lower,
        &["events_per_s"],
        BATCHED,
        "mean duration of an ingest that only buffered"
    ),
    // runtime.updates
    layer!(
        "runtime.updates.coalesce_us_per_firing",
        "us",
        Lower,
        &["events_per_s"],
        BATCHED,
        "BatchUpdate::from_rank_ones + compact_rows replayed on the fired batch (probe)"
    ),
    layer!(
        "runtime.updates.compaction_ratio",
        "ratio",
        Lower,
        &["events_per_s"],
        BATCHED,
        "fired rank / events (1 = nothing coalesced)"
    ),
    // matrix.compress
    layer!(
        "matrix.compress.recompress_us_per_firing",
        "us",
        Lower,
        P50,
        OLS,
        "recompress() of the coalesced batch at the engine's tolerance (probe)"
    ),
    layer!(
        "matrix.compress.rank_shed",
        "count",
        Higher,
        P50,
        OLS,
        "rank dropped by engine recompression (EngineStats.sparse.rank_saved)"
    ),
    // runtime.exec
    layer!(
        "runtime.exec.delta_eval_ms_per_firing",
        "ms",
        Lower,
        REFRESH,
        LOCAL_FOLDS,
        "fire_trigger span minus its apply_stage children: delta-block evaluation"
    ),
    layer!(
        "runtime.exec.stmts_per_firing",
        "count",
        Lower,
        P50,
        ALL,
        "trigger statements executed per firing"
    ),
    layer!(
        "runtime.exec.stages_per_firing",
        "count",
        Lower,
        P50,
        ALL,
        "DAG stages those statements ran in"
    ),
    layer!(
        "runtime.exec.woodbury_us_per_firing",
        "us",
        Lower,
        P50,
        OLS,
        "woodbury(W, P, Q) replayed on the fired Z-delta factors (probe)"
    ),
    layer!(
        "runtime.exec.flops_per_event",
        "flop",
        Lower,
        REFRESH,
        ALL,
        "FlopScope over untraced blocks / events (exact)"
    ),
    // matrix
    layer!(
        "matrix.fold_ms_per_firing",
        "ms",
        Lower,
        REFRESH,
        LOCAL_FOLDS,
        "sum of apply_stage spans on LocalBackend: the rank-k folds"
    ),
    layer!(
        "matrix.fold_gflops",
        "GFLOP/s",
        Higher,
        REFRESH,
        LOCAL_FOLDS,
        "2*k*rows*cols of the folded deltas / apply_stage time (LocalBackend)"
    ),
    layer!(
        "matrix.sparse_fold_share",
        "ratio",
        Higher,
        P50,
        ALL,
        "folds that took the sparse row-replay path / all folds"
    ),
    layer!(
        "matrix.rankk_gflops_k1",
        "GFLOP/s",
        Higher,
        P50,
        LOCAL_FOLDS,
        "fold_low_rank probe, dense rank 1 into n x n"
    ),
    layer!(
        "matrix.rankk_gflops_k16",
        "GFLOP/s",
        Higher,
        P50,
        LOCAL_FOLDS,
        "fold_low_rank probe, dense rank 16 into n x n"
    ),
    layer!(
        "matrix.gemm_gflops",
        "GFLOP/s",
        Higher,
        &["reeval_refresh_p50_ms", "setup_s"],
        ALL,
        "try_matmul probe, n x n by n x n"
    ),
    // dist.transport
    layer!(
        "dist.transport.encode_us_per_frame",
        "us",
        Lower,
        P50,
        CLUSTER,
        "delta_frame on the fired stage deltas (probe)"
    ),
    layer!(
        "dist.transport.decode_us_per_frame",
        "us",
        Lower,
        P50,
        CLUSTER,
        "decode_delta_frame of those frames (probe; what each worker pays)"
    ),
    layer!(
        "dist.transport.frames_per_firing",
        "count",
        Lower,
        P50,
        CLUSTER,
        "broadcast frames per firing (per worker)"
    ),
    layer!(
        "dist.transport.bytes_per_frame",
        "B",
        Lower,
        P50,
        CLUSTER,
        "broadcast bytes / broadcast messages"
    ),
    layer!(
        "dist.transport.compressed_frame_share",
        "ratio",
        Higher,
        P50,
        CLUSTER,
        "frames that went out in triplet form / frames"
    ),
    layer!(
        "dist.transport.shuffle_bytes",
        "B",
        Lower,
        P50,
        CLUSTER,
        "CommSnapshot.shuffle_bytes (paper section 6: must be 0)"
    ),
    layer!(
        "wire_bytes_per_event",
        "B",
        Lower,
        P50,
        CLUSTER,
        "CommSnapshot.broadcast_bytes / events (exact)"
    ),
    // dist.socket
    layer!(
        "dist.socket.broadcast_ms_per_firing",
        "ms",
        Lower,
        REFRESH,
        CLUSTER,
        "sum of apply_stage spans on SocketBackend: serialise, socket writes, mirror fold"
    ),
    layer!(
        "dist.socket.worker_lag_ms",
        "ms",
        Lower,
        REFRESH,
        CLUSTER,
        "gather right after a firing minus an idle gather: time work waited on the slowest worker"
    ),
    layer!(
        "dist.socket.gather_ms",
        "ms",
        Lower,
        &["recover_s"],
        CLUSTER,
        "idle FrameBackend::view gather of one n x n view"
    ),
    layer!(
        "dist.socket.install_ms",
        "ms",
        Lower,
        SETUP,
        CLUSTER,
        "materialize span: partition + install every view on the workers"
    ),
    // runtime.wal
    layer!(
        "runtime.wal.append_us_per_firing",
        "us",
        Lower,
        P50,
        CLUSTER,
        "WalFile::append of the fired record to a scratch log (probe)"
    ),
    layer!(
        "runtime.wal.record_encode_us",
        "us",
        Lower,
        P50,
        CLUSTER,
        "FiringRecord::encode of the fired record (probe)"
    ),
    layer!(
        "runtime.wal.bytes_per_firing",
        "B",
        Lower,
        P50,
        CLUSTER,
        "length-prefixed record bytes per firing"
    ),
    layer!(
        "wal_bytes_per_event",
        "B",
        Lower,
        TAIL,
        CLUSTER,
        "bytes written under the WAL dir (logs + checkpoint generations) / events (exact)"
    ),
    // runtime.checkpoint
    layer!(
        "runtime.checkpoint.save_ms",
        "ms",
        Lower,
        TAIL,
        CLUSTER,
        "IncrementalView::checkpoint + snapshot file write at each roll (probe)"
    ),
    layer!(
        "runtime.checkpoint.bytes",
        "B",
        Lower,
        TAIL,
        CLUSTER,
        "snapshot size"
    ),
    layer!(
        "runtime.checkpoint.rolls",
        "count",
        Lower,
        TAIL,
        CLUSTER,
        "checkpoint generations rolled in the measured loop (exact)"
    ),
    layer!(
        "runtime.checkpoint.restore_ms",
        "ms",
        Lower,
        &["recover_s"],
        CLUSTER,
        "IncrementalView::restore of the crashed snapshot (probe)"
    ),
    layer!(
        "runtime.checkpoint.replayed_firings",
        "count",
        Lower,
        &["recover_s"],
        CLUSTER,
        "WAL records replayed by recover_from_disk (exact: the fixed tail)"
    ),
    layer!(
        "runtime.checkpoint.replay_ms",
        "ms",
        Lower,
        &["recover_s"],
        CLUSTER,
        "recover_s minus restore and re-checkpoint probes"
    ),
    layer!(
        "recover_s",
        "s",
        Lower,
        &["setup_s"],
        CLUSTER,
        "recover_from_disk call to return on a fresh LocalBackend engine; median of 5"
    ),
    // runtime.snapshot
    layer!(
        "runtime.snapshot.publish_ms",
        "ms",
        Lower,
        VISIBLE,
        SERVE,
        "publish_snapshot of the whole environment (probe, once per block)"
    ),
    layer!(
        "runtime.snapshot.bytes",
        "B",
        Lower,
        VISIBLE,
        SERVE,
        "bytes one publish copies"
    ),
    layer!(
        "runtime.snapshot.acquire_ns",
        "ns",
        Lower,
        &["reads_per_s"],
        SERVE,
        "median ViewHandle::snapshot acquire (reader-side sample)"
    ),
    layer!(
        "runtime.snapshot.row_read_ns",
        "ns",
        Lower,
        &["reads_per_s"],
        SERVE,
        "median snapshot + row read (reader-side sample)"
    ),
    layer!(
        "runtime.snapshot.read_p99_ns",
        "ns",
        Lower,
        &["reads_per_s"],
        SERVE,
        "p99 of the sampled reads"
    ),
    layer!(
        "runtime.snapshot.staleness_max",
        "count",
        Lower,
        VISIBLE,
        SERVE,
        "worst rounds-behind any read observed (must be <= 1)"
    ),
    layer!(
        "runtime.snapshot.writer_slowdown",
        "ratio",
        Lower,
        P50,
        SERVE,
        "refresh p50 with the reader running / with it parked"
    ),
    layer!(
        "reads_per_s",
        "1/s",
        Higher,
        VISIBLE,
        SERVE,
        "reads completed by the one closed-loop reader per second of the measured loop"
    ),
    // the harness itself
    layer!(
        "bench.late_share",
        "ratio",
        Lower,
        VISIBLE,
        SERVE,
        "events sent more than 1 ms after they were due"
    ),
    layer!(
        "bench.utilisation",
        "ratio",
        Lower,
        VISIBLE,
        SERVE,
        "writer busy time / wall (expected 0.3-0.6)"
    ),
    layer!(
        "bench.trace_overhead_share",
        "ratio",
        Lower,
        P50,
        ALL,
        "blocking time per firing in traced blocks / untraced blocks - 1"
    ),
    layer!(
        "bench.residual_share",
        "ratio",
        Lower,
        P50,
        ALL,
        "share of traced ingest time not attributed to any span or probe"
    ),
    layer!(
        "failed_share",
        "ratio",
        Lower,
        &["events_per_s"],
        ALL,
        "(failed ingests + failed reads + failed checks) / attempted"
    ),
    layer!(
        "derived.incr_speedup",
        "ratio",
        Higher,
        &["reeval_refresh_p50_ms", "refresh_p50_ms"],
        ALL,
        "reeval_refresh_p50_ms / refresh_p50_ms (reported, never gated)"
    ),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

fn name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// Schema validation of the tables above against the driver contract.
pub fn validate() -> Vec<String> {
    let mut errors = Vec::new();
    let mut err = |msg: String| errors.push(msg);
    if !(2..=8).contains(&WORKLOADS.len()) {
        err(format!("{} workloads (2..=8 allowed)", WORKLOADS.len()));
    }
    if END_TO_END.len() > 16 || PER_LAYER.is_empty() || PER_LAYER.len() > 128 {
        err("metric counts outside 1..=16 end-to-end / 1..=128 per-layer".into());
    }
    let mut seen = std::collections::BTreeSet::new();
    for w in &WORKLOADS {
        if !name_ok(w.name) || !seen.insert(w.name) {
            err(format!("bad or repeated workload name {:?}", w.name));
        }
        if w.why.len() > 200 || w.why.contains('\n') {
            err(format!("why of {} is not one line of <= 200 chars", w.name));
        }
    }
    for m in &END_TO_END {
        if !name_ok(m.name) || !seen.insert(m.name) || !unit_ok(m.unit) {
            err(format!("bad or repeated end-to-end metric {:?}", m.name));
        }
        if !(0.0..=0.25).contains(&m.bound) {
            err(format!("bound of {} outside 0..=0.25", m.name));
        }
    }
    if !END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower)
    {
        err("setup_s (s, lower) missing".into());
    }
    for m in PER_LAYER {
        if !name_ok(m.name) || !seen.insert(m.name) || !unit_ok(m.unit) {
            err(format!("bad or repeated per-layer metric {:?}", m.name));
        }
        if m.moves.is_empty() || m.on.is_empty() {
            err(format!(
                "{} names no metric or workload it should move",
                m.name
            ));
        }
        for target in m.moves {
            let known = end_to_end(target).is_some()
                || PER_LAYER
                    .iter()
                    .any(|l| l.name == *target && !l.name.contains('.'));
            if !known {
                err(format!("{} moves unknown metric {target}", m.name));
            }
        }
        for w in m.on {
            if !WORKLOADS.iter().any(|s| s.name == *w) {
                err(format!("{} names unknown workload {w}", m.name));
            }
        }
    }
    errors
}

/// `BENCHMARK.json`, exactly the keys the driver contract lists.
pub fn manifest() -> Json {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj().with("name", w.name).with("why", w.why))
        .collect::<Vec<_>>();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.label())
                .with("bound", m.bound)
        })
        .collect::<Vec<_>>();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.label())
        })
        .collect::<Vec<_>>();
    Json::obj()
        .with(
            "command",
            vec![Json::from("bash"), Json::from("benchmark/run.sh")],
        )
        .with("paths", vec![Json::from("benchmark")])
        .with("run_seconds", RUN_SECONDS)
        .with("workloads", workloads)
        .with("end_to_end", end_to_end)
        .with("per_layer", per_layer)
}

/// The README's metric and workload tables, generated so they cannot drift.
pub fn tables_markdown() -> String {
    use std::fmt::Write as _;
    let arrow = |b: Better| if b == Better::Lower { "↓" } else { "↑" };
    let mut out = String::new();
    let _ = writeln!(out, "| workload | why it exists |\n|---|---|");
    for w in &WORKLOADS {
        let _ = writeln!(out, "| `{}` | {} |", w.name, w.why);
    }
    let _ = writeln!(
        out,
        "\n| end-to-end metric | unit | bound | definition |\n|---|---|---|---|"
    );
    for m in &END_TO_END {
        let _ = writeln!(
            out,
            "| `{}` | {} {} | {:.0} % | {} |",
            m.name,
            m.unit,
            arrow(m.better),
            m.bound * 100.0,
            m.what
        );
    }
    let _ = writeln!(
        out,
        "\n| per-layer metric | unit | should move | on | definition |\n|---|---|---|---|---|"
    );
    for m in PER_LAYER {
        let on = if m.on.len() == WORKLOADS.len() {
            "all".to_string()
        } else {
            m.on.join(", ")
        };
        let _ = writeln!(
            out,
            "| `{}` | {} {} | {} | {} | {} |",
            m.name,
            m.unit,
            arrow(m.better),
            m.moves.join(", "),
            on,
            m.what
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_satisfy_the_contract_schema() {
        assert_eq!(validate(), Vec::<String>::new());
        assert_eq!(WORKLOADS.len(), 4);
        assert!(manifest().render().len() < 64 * 1024);
    }

    #[test]
    fn name_and_unit_rules() {
        assert!(name_ok("runtime.engine.self_ms_per_firing"));
        assert!(!name_ok(".leading"));
        assert!(!name_ok("has space"));
        assert!(!name_ok(&"x".repeat(65)));
        assert!(unit_ok("GFLOP/s") && unit_ok("1/s") && unit_ok("%"));
        assert!(!unit_ok("") && !unit_ok("milliseconds-per-event"));
    }

    #[test]
    fn worsening_is_oriented_by_direction() {
        assert_eq!(Better::Lower.worsening(10.0, 12.0), 1.2);
        assert_eq!(Better::Higher.worsening(10.0, 8.0), 1.25);
    }
}
