//! Pluggable trigger-execution backends.
//!
//! The paper's central claim is that one compiled trigger program can drive
//! view maintenance *anywhere* — in-process (§4/§5) or on a cluster with
//! bounded communication (§6). [`ExecBackend`] is that claim as a trait:
//! the statement interpreter in `exec` is shared verbatim by every backend,
//! and only the final "fold `ΔX = U Vᵀ` into the view" step — the one
//! operation whose *locality* differs between deployments — is virtual.
//!
//! * [`LocalBackend`] — dense in-process views; a delta is a rank-k GEMM
//!   into the environment's matrix.
//! * [`ThreadedBackend`] — grid-partitioned views (§6): one long-lived
//!   worker thread per partition owns its blocks, every factor broadcast
//!   is serialized into a byte frame and moved over a channel, and a
//!   coordinator mirror stays in sync for the trigger's subsequent block
//!   evaluations. `CommStats` counts the frames actually sent.
//! * [`SocketBackend`] — the same frame protocol over TCP or Unix
//!   sockets to out-of-process `linview worker` peers; both are
//!   instantiations of the transport-generic [`FrameBackend`].

use std::collections::BTreeMap;

use linview_compiler::{JointTrigger, Trigger};
use linview_dist::{
    delta_frame, factor_prefers_sparse, sparse_delta_frame, transport::TransportError,
    ChannelTransport, Cluster, CommSnapshot, DistMatrix, FramePool, PeerAddr, SocketConfig,
    SocketTransport, Transport, WorkerPool,
};
use linview_matrix::Matrix;

use crate::exec::{FiringReport, SparseStats, StageDelta};
use crate::{Env, Evaluator, ExecOptions, Result, RuntimeError};

/// Scheduling telemetry a backend accumulates while executing stages.
///
/// Only the *distribution* backends keep counters (the stage structure
/// itself is reported per firing through
/// [`FiringReport`](crate::FiringReport)); `overlapped` is the
/// acceptance metric for coordinator-side pipelining — broadcasts that
/// left the coordinator while an earlier broadcast of the same stage was
/// still in flight.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedSnapshot {
    /// `apply_stage` rounds that folded ≥ 2 independent deltas at once.
    pub merged_rounds: u64,
    /// Deltas whose broadcast (or GEMM) overlapped an earlier one in the
    /// same stage: `Σ max(stage deltas − 1, 0)`.
    pub overlapped: u64,
}

/// Where (and how) compiled triggers execute.
///
/// Implementors supply the backend-specific delta application; trigger and
/// joint-trigger firing are provided methods that route through the single
/// shared statement interpreter, so the compute phase (block evaluation,
/// Sherman–Morrison) cannot diverge between backends.
pub trait ExecBackend: std::fmt::Debug {
    /// Short human-readable backend name (reports, CLI output).
    fn name(&self) -> &'static str;

    /// Called once after the view environment is fully materialized — and
    /// again after a checkpoint restore — so the backend can mirror the
    /// state it needs (e.g. partition every view across the cluster).
    fn materialize(&mut self, env: &Env) -> Result<()>;

    /// Folds the factored delta `ΔX = U Vᵀ` into view `target` — the
    /// single-delta backend-specific step of trigger execution. With
    /// `sparse` set, folds route through the density cost model (and
    /// distributed factor broadcasts may go out compressed); either way the
    /// result is bit-identical. Returns the fold-path and wire accounting
    /// of the application; rank-0 deltas are uncounted no-ops.
    fn apply_delta(
        &mut self,
        env: &mut Env,
        target: &str,
        u: &Matrix,
        v: &Matrix,
        sparse: bool,
    ) -> Result<SparseStats>;

    /// Folds one **stage** of provably independent deltas (pairwise
    /// distinct targets, guaranteed by the compile-time DAG). The default
    /// applies them one at a time in statement order; backends override to
    /// exploit the independence — all-or-nothing target validation,
    /// merged broadcast rounds, pipelined frames. Every override must stay
    /// bit-identical to the sequential fold.
    fn apply_stage(
        &mut self,
        env: &mut Env,
        deltas: &[StageDelta],
        sparse: bool,
    ) -> Result<SparseStats> {
        let mut stats = SparseStats::default();
        for d in deltas {
            stats.merge(self.apply_delta(env, &d.target, &d.u, &d.v, sparse)?);
        }
        Ok(stats)
    }

    /// Fires `trigger` for the factored input update `ΔX = du · dvᵀ`
    /// through the shared (staged) statement interpreter, reporting the
    /// stage structure the firing executed.
    fn fire_trigger(
        &mut self,
        env: &mut Env,
        evaluator: &Evaluator,
        trigger: &Trigger,
        du: &Matrix,
        dv: &Matrix,
        opts: &ExecOptions,
    ) -> Result<FiringReport> {
        crate::exec::fire_trigger_on(self, env, evaluator, trigger, du, dv, opts)
    }

    /// Fires a joint trigger for simultaneous factored updates to all of
    /// its inputs (§4.4), again through the shared interpreter.
    fn fire_joint_trigger(
        &mut self,
        env: &mut Env,
        evaluator: &Evaluator,
        joint: &JointTrigger,
        updates: &[(&str, &Matrix, &Matrix)],
        opts: &ExecOptions,
    ) -> Result<FiringReport> {
        crate::exec::fire_joint_trigger_on(self, env, evaluator, joint, updates, opts)
    }

    /// Cumulative stage-scheduling counters (merged rounds, overlapped
    /// broadcasts). Zero for backends that keep none.
    fn sched(&self) -> SchedSnapshot {
        SchedSnapshot::default()
    }

    /// Zeroes the scheduling counters, returning the prior snapshot.
    fn reset_sched(&mut self) -> SchedSnapshot {
        SchedSnapshot::default()
    }

    /// Bytes the backend holds *beyond* the coordinator environment
    /// (partitioned replicas, caches); zero for purely local execution.
    fn extra_memory_bytes(&self) -> usize {
        0
    }

    /// Cumulative communication since construction or the last reset.
    /// Local execution moves no bytes.
    fn comm(&self) -> CommSnapshot {
        CommSnapshot::default()
    }

    /// Zeroes the communication counters, returning the prior snapshot.
    fn reset_comm(&self) -> CommSnapshot {
        CommSnapshot::default()
    }
}

/// In-process execution: views are dense matrices in the [`Env`], and a
/// delta is a rank-k GEMM (`X += U Vᵀ`, `O(k·|X|)`) routed — like every
/// dense product in the system — through the process-wide
/// [`GemmKernel`](linview_matrix::GemmKernel) dispatch (packed
/// register-blocked microkernel by default, `LINVIEW_GEMM` /
/// `LINVIEW_THREADS` overridable). A dense fold of rank
/// `k ≤` [`linview_matrix::RANK_K_MAX_FOLD_K`] (32, so OLS's rank-26 `Z`
/// and `W` folds too) takes the matrix crate's fused rank-k fold, which
/// skips the packing pipeline and the `n×n` delta temporary entirely
/// while staying bit-identical to GEMM-then-add through the general nest.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalBackend;

impl ExecBackend for LocalBackend {
    fn name(&self) -> &'static str {
        "local"
    }

    fn materialize(&mut self, _env: &Env) -> Result<()> {
        Ok(())
    }

    fn apply_delta(
        &mut self,
        env: &mut Env,
        target: &str,
        u: &Matrix,
        v: &Matrix,
        sparse: bool,
    ) -> Result<SparseStats> {
        env.fold(target, u, v, sparse)
    }

    /// A multi-delta stage is one [`Env::fold_stage`]: every target is
    /// checked up front, so an unknown target or a misfit factor aborts
    /// the stage before any view is touched, and rank-0 members are only
    /// checked to exist. The folds then run in statement order — each one
    /// already spreads over the GEMM pool inside the rank-k kernel, and a
    /// thread per fold on top of that measured slower (see the `exec`
    /// module docs).
    fn apply_stage(
        &mut self,
        env: &mut Env,
        deltas: &[StageDelta],
        sparse: bool,
    ) -> Result<SparseStats> {
        env.fold_stage(deltas, sparse)
    }
}

/// Distributed execution over message passing (§6), generic over *where
/// the frames go*.
///
/// Every materialized view is grid-partitioned, and the trigger's compute
/// phase runs on the coordinator against a dense mirror (factors are
/// `O(kn)`-sized) that is folded forward so later statements of the same
/// firing see post-delta state. The partitions live behind a
/// [`Transport`]: every delta application serializes the factored update
/// into a byte frame and broadcasts it to one worker per grid cell.
/// Workers decode, slice their own rows, and fold the update into the
/// blocks they own with **no shuffle**; nothing is shared. `CommStats`
/// counts the exact length of every frame moved.
///
/// The two shipped instantiations are
///
/// * [`ThreadedBackend`] — [`ChannelTransport`]: long-lived worker
///   *threads* in this process, frames moved over bounded channels;
/// * [`SocketBackend`] — [`SocketTransport`]: worker *processes* reached
///   over TCP or Unix sockets (`linview worker`), frames length-prefixed
///   on the wire.
///
/// Reads of worker state ([`FrameBackend::view`]) gather the blocks
/// back over the same transport and double as a barrier: FIFO frame order
/// guarantees all previously broadcast deltas are applied first.
#[derive(Debug)]
pub struct FrameBackend<T: Transport> {
    cluster: Cluster,
    pool: FramePool<T>,
    /// Coordinator-side shapes of the partitioned views, for validation
    /// and gather-side assembly.
    shapes: BTreeMap<String, (usize, usize)>,
    sched: SchedSnapshot,
}

/// [`FrameBackend`] over in-process worker threads and channels.
pub type ThreadedBackend = FrameBackend<ChannelTransport>;

/// [`FrameBackend`] over out-of-process workers on TCP/Unix sockets.
pub type SocketBackend = FrameBackend<SocketTransport>;

fn transport_err(e: TransportError) -> RuntimeError {
    RuntimeError::Transport(e.to_string())
}

impl ThreadedBackend {
    /// A backend over a square grid of `workers` threads (must be a
    /// perfect square; every partitioned dimension must divide the side).
    pub fn new(workers: usize) -> Result<Self> {
        Ok(Self::with_cluster(
            Cluster::try_new(workers).map_err(RuntimeError::Cluster)?,
        ))
    }

    /// A backend over an existing (possibly rectangular) cluster geometry;
    /// spawns the worker threads immediately.
    pub fn with_cluster(cluster: Cluster) -> Self {
        let pool = WorkerPool::spawn(cluster.grid_rows(), cluster.grid_cols());
        FrameBackend {
            cluster,
            pool,
            shapes: BTreeMap::new(),
            sched: SchedSnapshot::default(),
        }
    }
}

impl SocketBackend {
    /// Connects to worker processes at `addrs`, arranged row-major over a
    /// square grid (`addrs.len()` must be a perfect square).
    pub fn connect(addrs: Vec<PeerAddr>, config: SocketConfig) -> Result<Self> {
        let cluster = Cluster::try_new(addrs.len()).map_err(RuntimeError::Cluster)?;
        Self::connect_with_cluster(cluster, addrs, config)
    }

    /// Connects to worker processes at `addrs` over an explicit (possibly
    /// rectangular) cluster geometry.
    pub fn connect_with_cluster(
        cluster: Cluster,
        addrs: Vec<PeerAddr>,
        config: SocketConfig,
    ) -> Result<Self> {
        let transport =
            SocketTransport::connect(cluster.grid_rows(), cluster.grid_cols(), addrs, config)
                .map_err(transport_err)?;
        let pool = FramePool::from_transport(cluster.grid_rows(), cluster.grid_cols(), transport)
            .map_err(transport_err)?;
        Ok(FrameBackend {
            cluster,
            pool,
            shapes: BTreeMap::new(),
            sched: SchedSnapshot::default(),
        })
    }
}

impl<T: Transport> FrameBackend<T> {
    /// The frame pool driving the transport (worker-state reads, tests).
    pub fn pool(&self) -> &FramePool<T> {
        &self.pool
    }

    /// Mutable pool access — fault injection (killing a worker) and
    /// transport-level reconfiguration.
    pub fn pool_mut(&mut self) -> &mut FramePool<T> {
        &mut self.pool
    }

    /// Gathers a partitioned view back from the workers into a dense
    /// matrix. Acts as a barrier: all previously broadcast deltas are
    /// folded in before the workers reply.
    pub fn view(&self, name: &str) -> Result<Matrix> {
        let &(rows, cols) = self
            .shapes
            .get(name)
            .ok_or_else(|| RuntimeError::Unbound(format!("partitioned view '{name}'")))?;
        let blocks = self.pool.gather(name).map_err(transport_err)?;
        let (gr, gc) = (self.pool.grid_rows(), self.pool.grid_cols());
        let (bh, bw) = (rows / gr, cols / gc);
        let mut out = Matrix::zeros(rows, cols);
        for (idx, block) in blocks.iter().enumerate() {
            let (br, bc) = (idx / gc, idx % gc);
            out.set_submatrix(br * bh, bc * bw, block)?;
        }
        Ok(out)
    }

    /// The cluster geometry (and communication meter).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Names of the views currently partitioned across the workers.
    pub fn partitioned_views(&self) -> impl Iterator<Item = &str> {
        self.shapes.keys().map(String::as_str)
    }
}

impl<T: Transport> ExecBackend for FrameBackend<T> {
    fn name(&self) -> &'static str {
        self.pool.label()
    }

    fn materialize(&mut self, env: &Env) -> Result<()> {
        // Check every view *before* touching worker state, so a failure
        // (an indivisible dimension) leaves the previous partitions — and
        // the owning view — untouched.
        let (grid_rows, grid_cols) = (self.cluster.grid_rows(), self.cluster.grid_cols());
        for (_, m) in env.iter() {
            DistMatrix::check_grid(m.shape(), grid_rows, grid_cols)
                .map_err(RuntimeError::Matrix)?;
        }
        // Materialize is the recovery entry point: bring dead peers back
        // (a no-op on a healthy pool) before re-installing state.
        self.pool.revive().map_err(transport_err)?;
        self.pool.reset().map_err(transport_err)?;
        // Install one view at a time, each block copied straight into its
        // frame: the coordinator holds no partitioned copy of any view.
        let mut shapes = BTreeMap::new();
        for (name, m) in env.iter() {
            let frame_len = self.pool.install(name, m).map_err(transport_err)?;
            // Initial placement moves real bytes too; meter every frame.
            for _ in 0..self.pool.workers() {
                self.cluster.comm().record_broadcast(frame_len);
            }
            shapes.insert(name.to_string(), m.shape());
        }
        self.shapes = shapes;
        Ok(())
    }

    fn apply_delta(
        &mut self,
        env: &mut Env,
        target: &str,
        u: &Matrix,
        v: &Matrix,
        sparse: bool,
    ) -> Result<SparseStats> {
        let &(rows, cols) = self
            .shapes
            .get(target)
            .ok_or_else(|| RuntimeError::Unbound(format!("partitioned view '{target}'")))?;
        if u.rows() != rows || v.rows() != cols || u.cols() != v.cols() {
            return Err(RuntimeError::UpdateShape {
                target: (rows, cols),
                update: (u.shape(), v.shape()),
            });
        }
        if u.cols() == 0 {
            return Ok(SparseStats::default()); // rank-0: nothing moves
        }
        // One serialized frame per worker; meter exactly what was sent.
        // The compressed frame is only engaged when at least one factor's
        // triplet form is shorter — a flag-prefixed all-dense frame would
        // be strictly *longer* than the plain dense frame.
        let compress = sparse && (factor_prefers_sparse(u) || factor_prefers_sparse(v));
        let frame_len = if compress {
            self.pool
                .broadcast_delta_sparse(target, u, v)
                .map_err(transport_err)?
        } else {
            self.pool
                .broadcast_delta(target, u, v)
                .map_err(transport_err)?
        };
        for _ in 0..self.pool.workers() {
            self.cluster.comm().record_broadcast(frame_len);
        }
        // Keep the coordinator mirror in sync for subsequent statements;
        // this mirror fold is the apply's one counted fold.
        let mut stats = env.fold(target, u, v, sparse)?;
        if compress {
            // What the same broadcast would have cost dense: the exact
            // TAG_DELTA frame length, computed without serializing it.
            let dense_len = (1 + 4 + target.len() + 16 + 8 * (u.len() + v.len())) as u64;
            stats.compressed_frames = 1;
            stats.bytes_saved = self.pool.workers() as u64 * (dense_len - frame_len);
        }
        Ok(stats)
    }

    /// Pipelines a stage's factor broadcasts through the transport: every
    /// frame of the stage is serialized up front and shipped to each
    /// worker as one batch (a single coalesced write on wire transports)
    /// before any coordinator-mirror fold, so independent broadcasts
    /// overlap on the wire while the workers drain their FIFO streams.
    /// The per-frame byte metering is identical to the sequential path
    /// (same frames, same order per worker); the stage barrier is the
    /// workers' FIFO order, exactly as for single-delta applies.
    ///
    /// Failure model: the batch send is *continue-on-error* per worker —
    /// a dead peer never starves the survivors of their frames, so every
    /// live worker and the coordinator mirror hold the complete stage.
    /// The first failure is still surfaced (after the folds) for the
    /// engine's checkpoint/replay recovery to act on.
    fn apply_stage(
        &mut self,
        env: &mut Env,
        deltas: &[StageDelta],
        sparse: bool,
    ) -> Result<SparseStats> {
        if deltas.len() < 2 {
            let mut stats = SparseStats::default();
            for d in deltas {
                stats.merge(self.apply_delta(env, &d.target, &d.u, &d.v, sparse)?);
            }
            return Ok(stats);
        }
        // Validate the whole stage up front: a shape error after a partial
        // send would leave worker state ahead of the coordinator mirror.
        for d in deltas {
            let &(rows, cols) = self
                .shapes
                .get(&d.target)
                .ok_or_else(|| RuntimeError::Unbound(format!("partitioned view '{}'", d.target)))?;
            env.get(&d.target)?;
            if d.u.rows() != rows || d.v.rows() != cols || d.u.cols() != d.v.cols() {
                return Err(RuntimeError::UpdateShape {
                    target: (rows, cols),
                    update: (d.u.shape(), d.v.shape()),
                });
            }
        }
        let mut stats = SparseStats::default();
        let live: Vec<&StageDelta> = deltas.iter().filter(|d| d.u.cols() > 0).collect();
        // Serialize the whole stage first; per-frame compression decisions
        // are identical to the single-delta path.
        let mut frames = Vec::with_capacity(live.len());
        let mut compressed = Vec::with_capacity(live.len());
        for d in &live {
            let compress = sparse && (factor_prefers_sparse(&d.u) || factor_prefers_sparse(&d.v));
            let frame = if compress {
                sparse_delta_frame(&d.target, &d.u, &d.v)
            } else {
                delta_frame(&d.target, &d.u, &d.v)
            };
            compressed.push(compress);
            frames.push(frame);
        }
        // One batch per worker, continue-on-error: a dead peer does not
        // keep the survivors from receiving (and applying) the full stage.
        let outcomes = self.pool.broadcast_frames(&frames);
        let delivered = outcomes.iter().filter(|r| r.is_ok()).count() as u64;
        let send_err = outcomes
            .into_iter()
            .find_map(|r| r.err())
            .map(transport_err);
        // Meter exactly what moved: every frame, to every worker that
        // accepted the batch.
        for frame in &frames {
            for _ in 0..delivered {
                self.cluster.comm().record_broadcast(frame.len() as u64);
            }
        }
        for ((d, frame), compress) in live.iter().zip(&frames).zip(&compressed) {
            if *compress {
                let dense_len = (1 + 4 + d.target.len() + 16 + 8 * (d.u.len() + d.v.len())) as u64;
                stats.compressed_frames += 1;
                stats.bytes_saved += delivered * (dense_len - frame.len() as u64);
            }
        }
        if delivered > 0 && frames.len() >= 2 {
            self.sched.merged_rounds += 1;
            self.sched.overlapped += (frames.len() - 1) as u64;
        }
        // Every live worker holds the full stage; fold the coordinator
        // mirror to match while they apply their own copies. Shapes were
        // validated above, so the folds cannot fail and leave mirror and
        // workers out of step.
        stats.merge(env.fold_stage(deltas, sparse)?);
        match send_err {
            Some(e) => Err(e),
            None => Ok(stats),
        }
    }

    fn extra_memory_bytes(&self) -> usize {
        self.shapes
            .values()
            .map(|&(r, c)| r * c * std::mem::size_of::<f64>())
            .sum()
    }

    fn comm(&self) -> CommSnapshot {
        self.cluster.comm().snapshot()
    }

    fn reset_comm(&self) -> CommSnapshot {
        self.cluster.comm().reset()
    }

    fn sched(&self) -> SchedSnapshot {
        self.sched
    }

    fn reset_sched(&mut self) -> SchedSnapshot {
        std::mem::take(&mut self.sched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_backend_reports_no_comm_or_extra_memory() {
        let mut b = LocalBackend;
        assert_eq!(b.name(), "local");
        assert_eq!(b.comm(), CommSnapshot::default());
        assert_eq!(b.reset_comm(), CommSnapshot::default());
        assert_eq!(b.extra_memory_bytes(), 0);
        let env = Env::new();
        b.materialize(&env).unwrap();
    }

    #[test]
    fn local_apply_delta_is_a_rank_k_gemm() {
        let mut env = Env::new();
        env.bind("X", Matrix::zeros(4, 4));
        let u = Matrix::random_uniform(4, 2, 1);
        let v = Matrix::random_uniform(4, 2, 2);
        LocalBackend
            .apply_delta(&mut env, "X", &u, &v, false)
            .unwrap();
        let expected = u.try_matmul(&v.transpose()).unwrap();
        assert_eq!(env.get("X").unwrap(), &expected);
    }

    #[test]
    fn threaded_backend_moves_exact_frames_and_matches_the_mirror() {
        // One frame per worker, each carrying both whole factors, on
        // square and rectangular grids alike.
        for (gr, gc) in [(1, 1), (2, 2), (3, 2), (1, 4)] {
            let workers = (gr * gc) as u64;
            let mut env = Env::new();
            env.bind("A", Matrix::random_uniform(24, 24, 3));
            env.bind("B", Matrix::random_uniform(24, 24, 4));
            let mut backend = ThreadedBackend::with_cluster(Cluster::with_grid(gr, gc));
            backend.materialize(&env).unwrap();
            assert_eq!(backend.extra_memory_bytes(), 2 * 24 * 24 * 8);
            backend.reset_comm(); // drop the initial-placement traffic

            let u = Matrix::random_col(24, 5);
            let v = Matrix::random_col(24, 6);
            backend.apply_delta(&mut env, "A", &u, &v, true).unwrap();
            let comm = backend.comm();
            // Byte counts recomputed from the same serialization the
            // workers received — exact, not an estimate.
            let frame = linview_dist::delta_frame("A", &u, &v);
            assert_eq!(comm.broadcast_bytes, workers * frame.len() as u64);
            assert_eq!(comm.broadcast_msgs, workers);
            assert_eq!(comm.shuffle_bytes, 0);
            // Worker-owned state and the coordinator mirror agree exactly.
            assert_eq!(&backend.view("A").unwrap(), env.get("A").unwrap());
            assert_eq!(&backend.view("B").unwrap(), env.get("B").unwrap());
        }
    }

    #[test]
    fn threaded_backend_rejects_unknown_targets_bad_grids_and_bad_shapes() {
        assert!(ThreadedBackend::new(8).is_err()); // not a perfect square
        let mut backend = ThreadedBackend::new(4).unwrap();
        let mut env = Env::new();
        env.bind("A", Matrix::zeros(8, 8));
        backend.materialize(&env).unwrap();
        let u = Matrix::zeros(8, 1);
        assert!(backend.apply_delta(&mut env, "Z", &u, &u, true).is_err());
        assert!(matches!(
            backend.apply_delta(&mut env, "A", &Matrix::zeros(6, 1), &u, true),
            Err(RuntimeError::UpdateShape { .. })
        ));
        // Indivisible dimension fails materialize but leaves the previous
        // partitions (and the worker threads) intact.
        env.bind("Odd", Matrix::zeros(7, 7));
        assert!(backend.materialize(&env).is_err());
        assert!(backend.view("A").is_ok());
        assert!(backend.view("Odd").is_err());
    }

    #[test]
    fn threaded_backend_rematerialize_replaces_worker_state() {
        let mut backend = ThreadedBackend::with_cluster(Cluster::with_grid(2, 1));
        let mut env = Env::new();
        env.bind("A", Matrix::random_uniform(6, 6, 7));
        backend.materialize(&env).unwrap();
        env.bind("A", Matrix::random_uniform(6, 6, 8));
        backend.materialize(&env).unwrap();
        assert_eq!(&backend.view("A").unwrap(), env.get("A").unwrap());
        assert_eq!(backend.partitioned_views().count(), 1);
    }

    fn stage(deltas: &[(&str, u64, u64)]) -> Vec<StageDelta> {
        deltas
            .iter()
            .map(|&(t, su, sv)| StageDelta {
                target: t.to_string(),
                u: Matrix::random_col(8, su),
                v: Matrix::random_col(8, sv),
            })
            .collect()
    }

    /// Serialized dense-frame bytes of `deltas`, per receiving worker.
    fn frame_bytes(deltas: &[StageDelta]) -> u64 {
        deltas
            .iter()
            .map(|d| linview_dist::delta_frame(&d.target, &d.u, &d.v).len() as u64)
            .sum()
    }

    fn two_view_env() -> Env {
        let mut env = Env::new();
        env.bind("A", Matrix::random_uniform(8, 8, 1));
        env.bind("B", Matrix::random_uniform(8, 8, 2));
        env
    }

    #[test]
    fn local_apply_stage_matches_sequential_fold_bitwise() {
        // The local backend claims every target of a stage, then folds one
        // delta at a time (the rank-k kernel parallelizes inside each fold
        // once a view is big enough): bit-identical to applying the deltas
        // individually, at a small and at a pool-sized view.
        for n in [8usize, 200] {
            let build = || {
                let mut env = Env::new();
                env.bind("A", Matrix::random_uniform(n, n, 1));
                env.bind("B", Matrix::random_uniform(n, n, 2));
                env
            };
            let deltas: Vec<StageDelta> = [("A", 3u64, 4u64), ("B", 5, 6)]
                .iter()
                .map(|&(t, su, sv)| StageDelta {
                    target: t.to_string(),
                    u: Matrix::random_col(n, su),
                    v: Matrix::random_col(n, sv),
                })
                .collect();
            let mut staged = build();
            LocalBackend
                .apply_stage(&mut staged, &deltas, true)
                .unwrap();
            let mut seq = build();
            for d in &deltas {
                LocalBackend
                    .apply_delta(&mut seq, &d.target, &d.u, &d.v, true)
                    .unwrap();
            }
            assert_eq!(staged.get("A").unwrap(), seq.get("A").unwrap(), "n={n}");
            assert_eq!(staged.get("B").unwrap(), seq.get("B").unwrap(), "n={n}");
            // Error path. The stage pre-validates every slot, so an unknown
            // target aborts before touching anything, at every size.
            let mut bad = deltas.clone();
            bad[1].target = "Z".into();
            let before = staged.get("A").unwrap().clone();
            assert!(LocalBackend.apply_stage(&mut staged, &bad, true).is_err());
            assert_eq!(staged.get("A").unwrap(), &before);
        }
    }

    #[test]
    fn rank_zero_stage_members_move_no_frames_and_count_no_overlap() {
        // Rank-0 members of a stage move nothing, so they count toward
        // neither the meters nor merged rounds / overlap: deliveries are
        // exactly rank-positive deltas × workers, bytes exactly their
        // serialized frames × workers.
        let rank0 = |t: &str| StageDelta {
            target: t.to_string(),
            u: Matrix::zeros(8, 0),
            v: Matrix::zeros(8, 0),
        };
        let mut env = two_view_env();
        let mut backend = ThreadedBackend::new(4).unwrap();
        backend.materialize(&env).unwrap();
        backend.reset_comm();

        // One real delta + one cancelled one: a single frame moves — no
        // overlap.
        let mut mixed = stage(&[("A", 3, 4)]);
        mixed.push(rank0("B"));
        backend.apply_stage(&mut env, &mixed, true).unwrap();
        assert_eq!(backend.sched(), SchedSnapshot::default());
        assert_eq!(backend.comm().broadcast_msgs, 4);
        assert_eq!(backend.comm().broadcast_bytes, 4 * frame_bytes(&mixed[..1]));

        // Entirely cancelled stage: still nothing.
        backend
            .apply_stage(&mut env, &[rank0("A"), rank0("B")], true)
            .unwrap();
        assert_eq!(backend.sched(), SchedSnapshot::default());
        assert_eq!(backend.comm().broadcast_msgs, 4);

        // Two live deltas: one merged round, one overlap, two more frames
        // per worker.
        let live = stage(&[("A", 5, 6), ("B", 7, 8)]);
        backend.apply_stage(&mut env, &live, true).unwrap();
        assert_eq!(
            backend.sched(),
            SchedSnapshot {
                merged_rounds: 1,
                overlapped: 1
            }
        );
        let comm = backend.comm();
        assert_eq!(comm.broadcast_msgs, 3 * 4);
        assert_eq!(
            comm.broadcast_bytes,
            4 * (frame_bytes(&mixed[..1]) + frame_bytes(&live))
        );
        assert_eq!(&backend.view("A").unwrap(), env.get("A").unwrap());
        assert_eq!(&backend.view("B").unwrap(), env.get("B").unwrap());
    }

    #[test]
    fn threaded_apply_stage_pipelines_frames_and_stays_exact() {
        let mut env = two_view_env();
        let mut backend = ThreadedBackend::new(4).unwrap();
        backend.materialize(&env).unwrap();
        backend.reset_comm();

        let deltas = stage(&[("A", 3, 4), ("B", 5, 6)]);
        backend.apply_stage(&mut env, &deltas, true).unwrap();
        assert_eq!(backend.sched().merged_rounds, 1);
        assert_eq!(backend.sched().overlapped, 1);
        // Exact frame accounting: both frames to all 4 workers.
        let comm = backend.comm();
        assert_eq!(comm.broadcast_bytes, 4 * frame_bytes(&deltas));
        assert_eq!(comm.broadcast_msgs, 8);
        // Worker-owned state caught up with the mirror at the barrier.
        assert_eq!(&backend.view("A").unwrap(), env.get("A").unwrap());
        assert_eq!(&backend.view("B").unwrap(), env.get("B").unwrap());
        // Single-delta stages are not merged rounds.
        backend
            .apply_stage(&mut env, &stage(&[("A", 9, 10)]), true)
            .unwrap();
        assert_eq!(backend.sched().merged_rounds, 1);
        assert_eq!(backend.reset_sched().overlapped, 1);
        assert_eq!(backend.sched(), SchedSnapshot::default());
        // A bad shape anywhere in the stage aborts before any send.
        backend.reset_comm();
        let mut bad = stage(&[("A", 7, 8)]);
        bad.push(StageDelta {
            target: "B".into(),
            u: Matrix::zeros(6, 1),
            v: Matrix::zeros(8, 1),
        });
        assert!(matches!(
            backend.apply_stage(&mut env, &bad, true),
            Err(RuntimeError::UpdateShape { .. })
        ));
        assert_eq!(backend.comm().broadcast_msgs, 0);
        assert_eq!(&backend.view("A").unwrap(), env.get("A").unwrap());
    }
}
