//! The one file that names the library. Every workload, probe and check
//! reaches `linview` through the re-exports and adapters below, so this is
//! the complete public surface the benchmark pins (README "Pinned
//! surface" lists it) and the single file to re-point when an API moves.

use std::cell::RefCell;
use std::time::{Duration, Instant};

pub use linview::apps::ols::{ReevalOls, OLS_PROGRAM};
pub use linview::apps::powers::{compute_power, powers_program, IncrPowers, ReevalPowers};
pub use linview::apps::IterModel;
pub use linview::compiler::parse::parse_program;
pub use linview::compiler::{
    compile, compile_joint, CompileOptions, JointTrigger, Program, Trigger,
};
pub use linview::dist::{
    decode_delta_frame, delta_frame, Cluster, PeerAddr, SocketConfig, WorkerServer,
};
pub use linview::expr::cost::CostModel;
pub use linview::expr::Catalog;
pub use linview::matrix::flops::FlopScope;
pub use linview::matrix::{fold_low_rank, recompress, GemmKernel, Matrix};
pub use linview::runtime::{
    woodbury, BatchUpdate, CommSnapshot, Env, Evaluator, ExecBackend, ExecOptions, FiringRecord,
    FiringReport, FlushPolicy, IncrementalView, InversePrimitive, LocalBackend, MaintenanceEngine,
    RankOneUpdate, ReevalView, SchedSnapshot, SocketBackend, SparseStats, StageDelta, ViewHandle,
    WalFile,
};

use crate::gen::Event;
use crate::trace;

/// Result alias for everything the library can fail with.
pub type LibResult<T> = linview::runtime::Result<T>;

/// The engine's pre-flush recompression tolerance (`engine::RECOMPRESS_TOL`
/// is private; the recompress probe replays the pass at the same setting).
pub const ENGINE_RECOMPRESS_TOL: f64 = 1e-12;

/// Environment variables that would silently change what is measured.
const KNOBS: [&str; 3] = ["LINVIEW_GEMM", "LINVIEW_THREADS", "LINVIEW_SPARSE"];

/// Pins the process-wide execution environment: packed GEMM, a fixed
/// thread budget, sparse folds at their default — and refuses to run when
/// an environment knob is set.
pub fn pin_environment(gemm_threads: usize) -> Result<(), String> {
    if let Some(knob) = KNOBS.iter().find(|k| std::env::var_os(k).is_some()) {
        return Err(format!(
            "{knob} is set; the benchmark fixes its own environment"
        ));
    }
    linview::matrix::set_default_kernel(Some(GemmKernel::Packed));
    linview::matrix::set_gemm_threads(Some(gemm_threads));
    Ok(())
}

pub fn matrix(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
    Matrix::from_vec(rows, cols, data).expect("generated data has rows*cols entries")
}

/// The library form of a generated row event against a `rows`-row input:
/// `ΔX = e_row · valuesᵀ`.
pub fn row_update(rows: usize, ev: &Event) -> RankOneUpdate {
    let mut u = Matrix::zeros(rows, 1);
    u.set(ev.row, 0, 1.0);
    RankOneUpdate {
        u,
        v: Matrix::col_vector(&ev.values),
    }
}

/// What `IncrementalView::build_on` does before materialising, timed as a
/// probe, plus two static facts about the trigger the workload fires.
pub struct CompileProbe {
    pub wall: Duration,
    pub trigger_stmts: usize,
    pub static_flops: f64,
}

pub fn compile_probe(
    program: &Program,
    dynamic: &[&str],
    cat: &Catalog,
    fired_input: &str,
) -> Result<CompileProbe, String> {
    let opts = CompileOptions::default();
    let start = Instant::now();
    let normalized = program.hoist_inverses(dynamic);
    let tp = compile(&normalized, dynamic, cat, &opts).map_err(|e| e.to_string())?;
    let _joint = compile_joint(&normalized, dynamic, cat, &opts).ok();
    let wall = start.elapsed();
    let trigger = tp
        .trigger_for(fired_input)
        .ok_or_else(|| format!("no trigger for {fired_input}"))?;
    Ok(CompileProbe {
        wall,
        trigger_stmts: trigger.stmts.len(),
        static_flops: trigger
            .cost(&tp.catalog, &CostModel::cubic())
            .map_err(|e| e.to_string())?,
    })
}

/// Exact per-firing counts the decorator reads off the library's own
/// `FiringReport`s — the same for every workload, engine or not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FiringCounts {
    pub firings: u64,
    pub fired_rank: u64,
    pub stmts: u64,
    pub stages: u64,
    pub sparse_folds: u64,
    pub dense_folds: u64,
    pub compressed_frames: u64,
}

impl FiringCounts {
    pub fn since(&self, earlier: &FiringCounts) -> FiringCounts {
        FiringCounts {
            firings: self.firings - earlier.firings,
            fired_rank: self.fired_rank - earlier.fired_rank,
            stmts: self.stmts - earlier.stmts,
            stages: self.stages - earlier.stages,
            sparse_folds: self.sparse_folds - earlier.sparse_folds,
            dense_folds: self.dense_folds - earlier.dense_folds,
            compressed_frames: self.compressed_frames - earlier.compressed_frames,
        }
    }
}

#[derive(Default)]
struct Observed {
    counts: FiringCounts,
    /// Stage deltas of the most recent firing (kept only while tracing).
    deltas: Vec<StageDelta>,
}

thread_local! {
    static OBSERVED: RefCell<Observed> = RefCell::new(Observed::default());
}

/// Cumulative counts over every firing routed through a [`Timed`] backend
/// on this thread.
pub fn firing_counts() -> FiringCounts {
    OBSERVED.with_borrow(|o| o.counts)
}

/// The `(target, U, V)` deltas the most recent traced firing folded.
pub fn take_stage_deltas() -> Vec<StageDelta> {
    OBSERVED.with_borrow_mut(|o| std::mem::take(&mut o.deltas))
}

/// A new firing starts: drop what the previous one captured.
fn forget_stage_deltas() {
    if trace::enabled() {
        OBSERVED.with_borrow_mut(|o| o.deltas.clear());
    }
}

fn record_report(rank: u64, report: &FiringReport) {
    OBSERVED.with_borrow_mut(|o| {
        let c = &mut o.counts;
        c.firings += 1;
        c.fired_rank += rank;
        c.stmts += report.stmts;
        c.stages += report.stages;
        c.sparse_folds += report.sparse.sparse_folds;
        c.dense_folds += report.sparse.dense_folds;
        c.compressed_frames += report.sparse.compressed_frames;
    });
}

/// Inner half of the decorator: times `apply_stage` and `materialize` and
/// deliberately does NOT override `fire_trigger`, so the trait's provided
/// method routes the shared interpreter back through *this* `apply_stage`.
#[derive(Debug)]
pub struct StageTimed<B>(B);

impl<B: ExecBackend> ExecBackend for StageTimed<B> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn materialize(&mut self, env: &Env) -> LibResult<()> {
        let _span = trace::enter("materialize");
        self.0.materialize(env)
    }

    fn apply_delta(
        &mut self,
        env: &mut Env,
        target: &str,
        u: &Matrix,
        v: &Matrix,
        sparse: bool,
    ) -> LibResult<SparseStats> {
        self.0.apply_delta(env, target, u, v, sparse)
    }

    fn apply_stage(
        &mut self,
        env: &mut Env,
        deltas: &[StageDelta],
        sparse: bool,
    ) -> LibResult<SparseStats> {
        if trace::enabled() {
            OBSERVED.with_borrow_mut(|o| o.deltas.extend_from_slice(deltas));
        }
        let _span = trace::enter("apply_stage");
        self.0.apply_stage(env, deltas, sparse)
    }

    fn sched(&self) -> SchedSnapshot {
        self.0.sched()
    }

    fn reset_sched(&mut self) -> SchedSnapshot {
        self.0.reset_sched()
    }

    fn extra_memory_bytes(&self) -> usize {
        self.0.extra_memory_bytes()
    }

    fn comm(&self) -> CommSnapshot {
        self.0.comm()
    }

    fn reset_comm(&self) -> CommSnapshot {
        self.0.reset_comm()
    }
}

/// `TimedBackend`: measures a backend from outside. `fire_trigger` is timed
/// here and forwarded to [`StageTimed`]'s *provided* `fire_trigger`, giving
/// the span tree `ingest ⊃ fire_trigger ⊃ apply_stage` without touching
/// the interpreter; results are bit-identical to the bare backend.
#[derive(Debug)]
pub struct Timed<B>(StageTimed<B>);

impl<B: ExecBackend> Timed<B> {
    pub fn new(inner: B) -> Timed<B> {
        Timed(StageTimed(inner))
    }

    /// The wrapped backend (gathers, worker-state reads).
    pub fn inner(&self) -> &B {
        &self.0 .0
    }
}

impl<B: ExecBackend> ExecBackend for Timed<B> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn materialize(&mut self, env: &Env) -> LibResult<()> {
        self.0.materialize(env)
    }

    fn apply_delta(
        &mut self,
        env: &mut Env,
        target: &str,
        u: &Matrix,
        v: &Matrix,
        sparse: bool,
    ) -> LibResult<SparseStats> {
        self.0.apply_delta(env, target, u, v, sparse)
    }

    fn apply_stage(
        &mut self,
        env: &mut Env,
        deltas: &[StageDelta],
        sparse: bool,
    ) -> LibResult<SparseStats> {
        self.0.apply_stage(env, deltas, sparse)
    }

    fn fire_trigger(
        &mut self,
        env: &mut Env,
        evaluator: &Evaluator,
        trigger: &Trigger,
        du: &Matrix,
        dv: &Matrix,
        opts: &ExecOptions,
    ) -> LibResult<FiringReport> {
        forget_stage_deltas();
        let report = {
            let _span = trace::enter("fire_trigger");
            self.0.fire_trigger(env, evaluator, trigger, du, dv, opts)?
        };
        record_report(du.cols() as u64, &report);
        Ok(report)
    }

    fn fire_joint_trigger(
        &mut self,
        env: &mut Env,
        evaluator: &Evaluator,
        joint: &JointTrigger,
        updates: &[(&str, &Matrix, &Matrix)],
        opts: &ExecOptions,
    ) -> LibResult<FiringReport> {
        forget_stage_deltas();
        let report = {
            let _span = trace::enter("fire_trigger");
            self.0
                .fire_joint_trigger(env, evaluator, joint, updates, opts)?
        };
        let rank = updates.iter().map(|(_, u, _)| u.cols() as u64).sum();
        record_report(rank, &report);
        Ok(report)
    }

    fn sched(&self) -> SchedSnapshot {
        self.0.sched()
    }

    fn reset_sched(&mut self) -> SchedSnapshot {
        self.0.reset_sched()
    }

    fn extra_memory_bytes(&self) -> usize {
        self.0.extra_memory_bytes()
    }

    fn comm(&self) -> CommSnapshot {
        self.0.comm()
    }

    fn reset_comm(&self) -> CommSnapshot {
        self.0.reset_comm()
    }
}

/// `2·k·rows·cols`: the arithmetic of folding `target += U Vᵀ`.
pub fn fold_flops(d: &StageDelta) -> f64 {
    2.0 * d.u.cols() as f64 * d.u.rows() as f64 * d.v.rows() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program_and_inputs(n: usize) -> (Program, Catalog, Matrix) {
        let program = parse_program("B := A * A; C := B * B;").unwrap();
        let mut cat = Catalog::new();
        cat.declare("A", n, n);
        let a = matrix(n, n, crate::gen::contraction(3, 1, n, 0.8));
        (program, cat, a)
    }

    #[test]
    fn timed_backend_is_bit_identical_and_records_the_span_tree() {
        let n = 24;
        let (program, cat, a) = program_and_inputs(n);
        let mut bare = IncrementalView::build(&program, &[("A", a.clone())], &cat).unwrap();
        let mut timed =
            IncrementalView::build_on(Timed::new(LocalBackend), &program, &[("A", a)], &cat)
                .unwrap();
        let before = firing_counts();
        trace::take_spans();
        trace::set_enabled(true);
        let mut stream = crate::gen::EventStream::new(5, n, &[n], 0.0, 0.01);
        for _ in 0..3 {
            let upd = row_update(n, &stream.next_event());
            bare.apply("A", &upd).unwrap();
            trace::span("ingest", || timed.apply("A", &upd)).unwrap();
        }
        trace::set_enabled(false);
        assert_eq!(timed.get("C").unwrap(), bare.get("C").unwrap());

        let counts = firing_counts().since(&before);
        assert_eq!((counts.firings, counts.fired_rank), (3, 3));
        assert!(counts.stmts >= counts.stages && counts.stages > 0);
        assert!(counts.sparse_folds + counts.dense_folds >= 3);
        // The last firing's deltas are replayable: B and C were folded.
        let deltas = take_stage_deltas();
        let targets: Vec<_> = deltas.iter().map(|d| d.target.as_str()).collect();
        assert!(
            targets.contains(&"B") && targets.contains(&"C"),
            "{targets:?}"
        );

        let spans = trace::take_spans();
        let by_id = |id: u32| &spans[id as usize - 1];
        for s in spans.iter().filter(|s| s.name == "apply_stage") {
            assert_eq!(by_id(s.parent).name, "fire_trigger");
            assert_eq!(by_id(by_id(s.parent).parent).name, "ingest");
        }
        assert_eq!(spans.iter().filter(|s| s.name == "fire_trigger").count(), 3);
    }

    #[test]
    fn row_update_is_a_basis_row_times_the_values() {
        let ev = Event {
            input: 0,
            row: 2,
            values: vec![1.0, -2.0],
        };
        let upd = row_update(4, &ev);
        assert_eq!(upd.basis_row(), Some(2));
        let dense = upd.to_dense();
        assert_eq!(dense.row(2), &[1.0, -2.0]);
        assert_eq!(dense.row(0), &[0.0, 0.0]);
    }
}
