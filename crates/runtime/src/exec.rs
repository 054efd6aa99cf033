//! Trigger execution, including the numeric Sherman–Morrison primitive.
//!
//! Every backend fires through **one** path: [`fire_trigger`],
//! [`fire_joint_trigger`] and the [`ExecBackend`] methods all lower the
//! trigger once into a [`crate::plan`] — slots for the block temporaries,
//! chain associations, the stages of the statement dependency DAG
//! ([`Trigger::dag`]) — and hand each stage to the one statement
//! interpreter (`Firing::run_stage`). Every statement in a stage is
//! provably independent, so the stage is evaluated against the pre-stage
//! state and its low-rank view deltas are handed to the backend **as a
//! set** through [`ExecBackend::apply_stage`] (merged broadcast rounds and
//! pipelined frames on the distributed backends). Program order is a
//! linear extension of the DAG, so staged execution is bit-identical to
//! the sequential walk — [`ExecOptions::sequential`] opts back into the
//! one-statement-per-stage order for ablation.
//!
//! The interpreter walks the plan over borrowed operands
//! ([`crate::eval`]): blocks live in a slot vector, never in the [`Env`];
//! views are read in place; a fold over two bare blocks takes them by
//! move. The n×n copies and transposes this replaced were most of a
//! firing's time, not noise: a rank-1 `A¹⁶` firing at `n = 512` took
//! 17.9 ms with them and 3.2 ms without.
//!
//! A firing does no numerical recompression: the block widths are fixed
//! by the fired update's rank when the plan is lowered. Redundant rank is
//! shed once, from the root, before a batch fires — the
//! [`MaintenanceEngine`](crate::MaintenanceEngine)'s pre-flush pass.
//!
//! Parallelism lives in the kernels (row and column chunks on the
//! persistent GEMM pool), not in the interpreter: a stage's statements are
//! evaluated, and its deltas folded, in statement order. A thread per
//! statement and per fold was measured against that on `A¹⁶` firings at
//! `n = 512` (ten alternating benchmark runs, two cores) and lost all ten,
//! 4.45 ms against 3.50 ms per firing — the views bounce between the
//! cores' caches.

use std::borrow::Cow;

use linview_compiler::Trigger;
use linview_matrix::Matrix;

use crate::eval::{exec, resolve, Frame};
use crate::plan::{Step, StepKind, TriggerPlan, Update};
use crate::{Env, Evaluator, ExecBackend, LocalBackend, Result, RuntimeError};

/// Denominators smaller than this abort the Sherman–Morrison update.
const SM_TOL: f64 = 1e-12;

/// Applies `rank(P)` Sherman–Morrison steps to the materialized inverse `w`
/// for the factored update `ΔE = P Qᵀ`, returning the factored delta of the
/// inverse, `ΔW = U Vᵀ` (§4.1 / Example 4.3).
///
/// Each rank-1 pair `(p_i, q_i)` contributes
///
/// ```text
/// ΔᵢW = − (W_i p_i)(W_iᵀ q_i)ᵀ / (1 + q_iᵀ W_i p_i)
/// ```
///
/// where `W_i` is the running inverse after the previous `i−1` steps.
pub fn sherman_morrison(w: &Matrix, p: &Matrix, q: &Matrix) -> Result<(Matrix, Matrix)> {
    let n = w.rows();
    let k = p.cols();
    if p.rows() != n || q.rows() != n || q.cols() != k {
        return Err(RuntimeError::UpdateShape {
            target: w.shape(),
            update: (p.shape(), q.shape()),
        });
    }
    // The running inverse is the only n×n allocation: `W_iᵀ q_i` streams it
    // in place (no transpose), straight into column `i` of the output.
    let mut w_work = w.clone();
    let mut out_u = Matrix::zeros(n, k);
    let mut out_v = Matrix::zeros(n, k);
    for i in 0..k {
        let u = p.col_matrix(i);
        let v = q.col_matrix(i);
        let wu = w_work.matvec(&u)?;
        w_work.matmul_tn_into(&v, &mut out_v, i)?;
        let den = 1.0 + Matrix::dot(&v, &wu)?;
        if den.abs() < SM_TOL {
            return Err(RuntimeError::ShermanMorrisonSingular {
                step: i,
                denominator: den,
            });
        }
        let ucol = wu.scale(-1.0 / den);
        out_u.set_submatrix(0, i, &ucol)?;
        w_work.add_outer(&ucol, &out_v.col_matrix(i))?;
    }
    Ok((out_u, out_v))
}

/// Rank-k inverse maintenance in a single step via the Woodbury identity:
///
/// ```text
/// (E + P Qᵀ)⁻¹ = W − W P (I_k + Qᵀ W P)⁻¹ Qᵀ W        where W = E⁻¹
/// ```
///
/// Returns the factored delta `ΔW = U Vᵀ` with `U = −W P (I_k + Qᵀ W P)⁻¹`
/// and `V = Wᵀ Q`, costing `O(kn² + k³)` — the batch generalization of the
/// sequential Sherman–Morrison loop (`k = 1` reduces to it exactly). The
/// trigger executor uses the sequential form to match the paper; this
/// primitive is the natural §4.2 "rank-k changes" extension and is
/// cross-validated against it in tests.
pub fn woodbury(w: &Matrix, p: &Matrix, q: &Matrix) -> Result<(Matrix, Matrix)> {
    let n = w.rows();
    let k = p.cols();
    if p.rows() != n || q.rows() != n || q.cols() != k {
        return Err(RuntimeError::UpdateShape {
            target: w.shape(),
            update: (p.shape(), q.shape()),
        });
    }
    let wp = w.try_matmul(p)?; // n×k
    let wtq = w.try_matmul_tn(q)?; // n×k  (V = Wᵀ Q), W streamed in place
    let mut cap = q.try_matmul_tn(&wp)?; // capacitance C = I_k + Qᵀ (W P) — k×k
    for i in 0..k {
        cap.set(i, i, cap.get(i, i) + 1.0);
    }
    // U = −(W P)·C⁻¹: solve Cᵀ Xᵀ = (W P)ᵀ to avoid forming C⁻¹ (the
    // transposes here are k×k and k×n; there is no transposed LU solve).
    let xt = cap
        .transpose()
        .solve(&wp.transpose())
        .map_err(|e| match e {
            linview_matrix::MatrixError::Singular { pivot } => {
                RuntimeError::ShermanMorrisonSingular {
                    step: pivot,
                    denominator: 0.0,
                }
            }
            other => RuntimeError::Matrix(other),
        })?;
    let u = xt.transpose().scale(-1.0);
    Ok((u, wtq))
}

/// Which primitive maintains materialized inverses at trigger execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InversePrimitive {
    /// `k` sequential rank-1 Sherman–Morrison steps (the paper's §4.1).
    #[default]
    ShermanMorrison,
    /// One rank-`k` Woodbury solve (the §4.2 batch generalization).
    Woodbury,
}

/// Execution options for a firing: every `fire_*` entry point and
/// [`ExecBackend`] firing method takes one.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Inverse-maintenance primitive.
    pub inverse_primitive: InversePrimitive,
    /// Opt out of DAG-staged execution: run one statement per stage in
    /// program order (the pre-scheduler interpreter). Results are
    /// bit-identical either way — this exists for ablation benchmarks and
    /// as the reference the conformance suites check staging against.
    pub sequential: bool,
    /// Density-aware delta execution: route view folds through the sparse
    /// cost model ([`linview_matrix::fold_low_rank`]) and let the
    /// distributed backends compress factor broadcasts whose triplet form
    /// is shorter. On by default; `false` forces every fold dense and every
    /// frame uncompressed — the reference the harness and conformance
    /// suites compare against. Results are bit-identical either way — the
    /// option only moves work and bytes.
    pub sparse_folds: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            inverse_primitive: InversePrimitive::default(),
            sequential: false,
            sparse_folds: true,
        }
    }
}

/// What one trigger firing executed under the staged scheduler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FiringReport {
    /// Statements executed.
    pub stmts: u64,
    /// Stages the statements were grouped into (equals `stmts` under
    /// [`ExecOptions::sequential`] or for chain-dependent triggers).
    pub stages: u64,
    /// View writes folded through the stage barriers (one per applied
    /// [`StageDelta`]). In debug builds, staged execution asserts each of
    /// these against the statically-proved effect sets from
    /// `linview_compiler::analyze::derive_effects` before the fold.
    pub writes: u64,
    /// Sparse-execution accounting for the firing's folds and broadcasts.
    pub sparse: SparseStats,
}

/// Sparse-execution counters: how many view folds took which path, and what
/// the compressed factor frames saved on the wire.
///
/// Fold counts are **coordinator-visible**: one per applied delta on every
/// backend (the distributed backends count their mirror fold, not the
/// per-block worker folds, so the counters stay comparable across
/// backends). Rank-0 deltas are uncounted no-ops everywhere. Byte savings
/// are measured against what the same broadcast would have cost dense, in
/// exact frame lengths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SparseStats {
    /// Rank-positive view folds that took the sparse row-replay path.
    pub sparse_folds: u64,
    /// Rank-positive view folds that took the dense GEMM path.
    pub dense_folds: u64,
    /// Factor broadcasts that went out compressed (≥ 1 factor in triplet
    /// form) — counted once per broadcast, not per receiving worker.
    pub compressed_frames: u64,
    /// Delta rank shed by numerical recompression before firing.
    pub rank_saved: u64,
    /// Wire bytes the compressed broadcasts avoided, summed over every
    /// receiving worker.
    pub bytes_saved: u64,
}

impl SparseStats {
    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: SparseStats) {
        self.sparse_folds += other.sparse_folds;
        self.dense_folds += other.dense_folds;
        self.compressed_frames += other.compressed_frames;
        self.rank_saved += other.rank_saved;
        self.bytes_saved += other.bytes_saved;
    }

    /// Componentwise difference against an earlier snapshot of the same
    /// monotone counters.
    pub fn since(&self, earlier: SparseStats) -> SparseStats {
        SparseStats {
            sparse_folds: self.sparse_folds - earlier.sparse_folds,
            dense_folds: self.dense_folds - earlier.dense_folds,
            compressed_frames: self.compressed_frames - earlier.compressed_frames,
            rank_saved: self.rank_saved - earlier.rank_saved,
            bytes_saved: self.bytes_saved - earlier.bytes_saved,
        }
    }

    /// One fold on the given path.
    pub fn from_path(path: linview_matrix::FoldPath) -> SparseStats {
        let mut s = SparseStats::default();
        if path.is_sparse() {
            s.sparse_folds = 1;
        } else {
            s.dense_folds = 1;
        }
        s
    }

    /// Folds counted, both paths combined.
    pub fn total_folds(&self) -> u64 {
        self.sparse_folds + self.dense_folds
    }
}

/// Cumulative staged-scheduling counters, accumulated over firings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Trigger firings recorded.
    pub firings: u64,
    /// Statements executed across all firings.
    pub stmts: u64,
    /// Stages those statements were grouped into.
    pub stages: u64,
    /// View writes folded across all firings.
    pub writes: u64,
}

impl SchedStats {
    /// Folds one firing's report in.
    pub fn record(&mut self, report: FiringReport) {
        self.firings += 1;
        self.stmts += report.stmts;
        self.stages += report.stages;
        self.writes += report.writes;
    }

    /// Statements that ran inside an already-open stage instead of
    /// lengthening the critical path — the scheduler's savings.
    pub fn stmts_saved(&self) -> u64 {
        self.stmts - self.stages
    }
}

/// One evaluated low-rank view delta of a stage, ready for the backend to
/// fold: `target += u · vᵀ`. A stage's deltas are guaranteed to hit
/// pairwise-distinct targets (write-after-write hazard edges), which is
/// what lets backends fold them concurrently.
#[derive(Debug, Clone)]
pub struct StageDelta {
    /// The maintained view being updated.
    pub target: String,
    /// Left factor.
    pub u: Matrix,
    /// Right factor.
    pub v: Matrix,
}

/// Fires `trigger` for the factored input update `ΔX = du · dvᵀ` with
/// default options (sequential Sherman–Morrison for inverses) on a
/// [`LocalBackend`].
///
/// Execution order follows the compiler's contract: every `Assign` /
/// `ShermanMorrison` statement is evaluated against the **pre-update**
/// state, then all `ApplyDelta` statements fold the deltas into the views.
/// Block temporaries live only for the firing, so the environment's
/// memory accounting reflects only base matrices and materialized views.
pub fn fire_trigger(
    env: &mut Env,
    evaluator: &Evaluator,
    trigger: &Trigger,
    du: &Matrix,
    dv: &Matrix,
) -> Result<()> {
    let opts = ExecOptions::default();
    fire_trigger_on(&mut LocalBackend, env, evaluator, trigger, du, dv, &opts).map(|_| ())
}

/// Fires `trigger` on an explicit backend — the shared execution path every
/// [`ExecBackend::fire_trigger`] implementation routes through.
pub(crate) fn fire_trigger_on<B: ExecBackend + ?Sized>(
    backend: &mut B,
    env: &mut Env,
    evaluator: &Evaluator,
    trigger: &Trigger,
    du: &Matrix,
    dv: &Matrix,
    opts: &ExecOptions,
) -> Result<FiringReport> {
    check_update_shape(env.get(&trigger.input)?, du, dv)?;
    let updates = [(trigger.input.as_str(), du, dv)];
    fire(backend, env, evaluator, trigger, &updates, opts)
}

fn check_update_shape(target: &Matrix, du: &Matrix, dv: &Matrix) -> Result<()> {
    if du.rows() != target.rows() || dv.rows() != target.cols() || du.cols() != dv.cols() {
        return Err(RuntimeError::UpdateShape {
            target: target.shape(),
            update: (du.shape(), dv.shape()),
        });
    }
    Ok(())
}

/// Fires a [`JointTrigger`](linview_compiler::JointTrigger) for
/// *simultaneous* factored updates to all of its inputs (§4.4 /
/// Example 4.5). `updates` supplies one `(input, dU, dV)` triple per
/// dynamic input; every input of the trigger must be covered exactly once.
pub fn fire_joint_trigger(
    env: &mut Env,
    evaluator: &Evaluator,
    joint: &linview_compiler::JointTrigger,
    updates: &[(&str, &Matrix, &Matrix)],
    opts: &ExecOptions,
) -> Result<()> {
    fire_joint_trigger_on(&mut LocalBackend, env, evaluator, joint, updates, opts).map(|_| ())
}

/// As [`fire_joint_trigger`] on an explicit backend (the shared path behind
/// [`ExecBackend::fire_joint_trigger`]).
pub(crate) fn fire_joint_trigger_on<B: ExecBackend + ?Sized>(
    backend: &mut B,
    env: &mut Env,
    evaluator: &Evaluator,
    joint: &linview_compiler::JointTrigger,
    updates: &[(&str, &Matrix, &Matrix)],
    opts: &ExecOptions,
) -> Result<FiringReport> {
    if updates.len() != joint.inputs.len()
        || !joint
            .inputs
            .iter()
            .all(|i| updates.iter().any(|(n, _, _)| n == i))
    {
        return Err(RuntimeError::Unbound(format!(
            "joint trigger expects updates for {:?}",
            joint.inputs
        )));
    }
    for (input, du, dv) in updates {
        check_update_shape(env.get(input)?, du, dv)?;
    }
    fire(backend, env, evaluator, &joint.trigger, updates, opts)
}

/// The firing's block temporaries, indexed by plan slot. The incoming
/// `dU_X`/`dV_X` factors are borrowed from the caller; everything the body
/// defines is owned. Blocks never enter the [`Env`].
type Slots<'a> = Vec<Option<Cow<'a, Matrix>>>;

/// One statement's evaluated result, produced read-only against the
/// pre-stage state and applied after the whole stage has evaluated.
enum StmtOutput {
    /// Blocks to bind (an `Assign` yields one, Sherman–Morrison two).
    Bind(Vec<(usize, Matrix)>),
    /// An evaluated low-rank view delta for the backend's stage barrier.
    Delta(StageDelta),
}

/// Evaluates one statement against the (read-only) pre-stage state.
fn eval_step(step: &Step, frame: &Frame<'_>, opts: &ExecOptions) -> Result<StmtOutput> {
    Ok(match &step.kind {
        StepKind::Assign { slot, expr } => {
            StmtOutput::Bind(vec![(*slot, exec(expr, frame)?.into_matrix())])
        }
        StepKind::ShermanMorrison {
            w,
            p,
            q,
            out_u,
            out_v,
        } => {
            let (w, p, q) = (
                exec(w, frame)?.plain(),
                exec(p, frame)?.plain(),
                exec(q, frame)?.plain(),
            );
            let (u, v) = match opts.inverse_primitive {
                InversePrimitive::ShermanMorrison => sherman_morrison(&w, &p, &q)?,
                InversePrimitive::Woodbury => woodbury(&w, &p, &q)?,
            };
            StmtOutput::Bind(vec![(*out_u, u), (*out_v, v)])
        }
        StepKind::ApplyDelta { target, u, v } => StmtOutput::Delta(StageDelta {
            target: target.clone(),
            u: exec(u, frame)?.into_matrix(),
            v: exec(v, frame)?.into_matrix(),
        }),
        StepKind::FoldBlocks { .. } => {
            unreachable!("bare-block folds are assembled at the stage barrier")
        }
    })
}

/// Hands block `slot` to a fold: moved out when this was its last
/// reference, copied while later statements still read it.
fn take_block(slots: &mut Slots<'_>, reads_left: &mut [u32], slot: usize) -> Matrix {
    reads_left[slot] -= 1;
    let block = &mut slots[slot];
    let taken = if reads_left[slot] == 0 {
        block.take()
    } else {
        block.clone()
    };
    taken
        .expect("the schedule defines a block before any statement reads it")
        .into_owned()
}

/// The mutable state of one firing.
struct Firing<'f, 'm, B: ?Sized> {
    backend: &'f mut B,
    env: &'f mut Env,
    opts: &'f ExecOptions,
    slots: Slots<'m>,
    report: FiringReport,
}

impl<B: ExecBackend + ?Sized> Firing<'_, '_, B> {
    /// Runs one stage — the statement interpreter shared by every backend.
    ///
    /// (1) Every statement of the stage is evaluated against the pre-stage
    /// state (the DAG proves them independent, so any order observes the
    /// same operands); (2) results are bound in statement order and the
    /// stage's view deltas collected, bare blocks taken per `reads_left`
    /// (the references to each slot not yet consumed); (3) the deltas are
    /// folded through [`ExecBackend::apply_stage`] — the stage barrier,
    /// and the only backend-specific step.
    fn run_stage(
        &mut self,
        ext_names: &[String],
        stage: &[&Step],
        reads_left: &mut [u32],
    ) -> Result<()> {
        let mut outputs = {
            let ext = resolve(ext_names, self.env)?;
            let frame = Frame {
                ext: &ext,
                slots: &self.slots,
            };
            let evaluated = stage.iter().filter(|s| !s.is_fold());
            evaluated
                .map(|s| eval_step(s, &frame, self.opts))
                .collect::<Result<Vec<_>>>()?
                .into_iter()
        };
        let mut deltas: Vec<StageDelta> = Vec::new();
        for step in stage {
            if let StepKind::FoldBlocks { target, u, v } = &step.kind {
                deltas.push(StageDelta {
                    target: target.clone(),
                    u: take_block(&mut self.slots, reads_left, *u),
                    v: take_block(&mut self.slots, reads_left, *v),
                });
                continue;
            }
            match outputs.next().expect("one output per evaluated statement") {
                StmtOutput::Bind(binds) => {
                    for (slot, value) in binds {
                        self.slots[slot] = Some(Cow::Owned(value));
                    }
                }
                StmtOutput::Delta(d) => deltas.push(d),
            }
        }
        self.report.writes += deltas.len() as u64;
        if !deltas.is_empty() {
            let sparse = self.opts.sparse_folds;
            let folded = self.backend.apply_stage(self.env, &deltas, sparse)?;
            self.report.sparse.merge(folded);
        }
        Ok(())
    }
}

/// Fires `trigger` for `updates` (shapes already validated): lowers the
/// body once into a [`TriggerPlan`] and runs it through
/// [`Firing::run_stage`] one DAG stage at a time, or under
/// [`ExecOptions::sequential`] one statement at a time in program order.
fn fire<B: ExecBackend + ?Sized>(
    backend: &mut B,
    env: &mut Env,
    evaluator: &Evaluator,
    trigger: &Trigger,
    updates: &[Update<'_>],
    opts: &ExecOptions,
) -> Result<FiringReport> {
    let plan = TriggerPlan::lower(evaluator, trigger, updates, env)?;
    let mut slots: Slots<'_> = updates
        .iter()
        .flat_map(|(_, du, dv)| [Some(Cow::Borrowed(*du)), Some(Cow::Borrowed(*dv))])
        .collect();
    slots.resize(plan.slot_reads.len(), None);
    let mut firing = Firing {
        backend,
        env,
        opts,
        slots,
        report: FiringReport {
            stmts: trigger.stmts.len() as u64,
            ..FiringReport::default()
        },
    };
    let mut reads_left = plan.slot_reads.clone();
    let mut run = |stage: &[usize]| {
        let steps: Vec<&Step> = stage.iter().map(|&i| &plan.steps[i]).collect();
        // Evaluated statements are done with their blocks by the time the
        // stage's folds pick theirs up.
        for &slot in steps.iter().filter(|s| !s.is_fold()).flat_map(|s| &s.reads) {
            reads_left[slot] -= 1;
        }
        firing.run_stage(&plan.ext_names, &steps, &mut reads_left)
    };
    if opts.sequential {
        for i in 0..plan.steps.len() {
            run(&[i])?;
        }
        firing.report.stages = firing.report.stmts;
    } else {
        let stages = plan.stages.as_ref().map_err(Clone::clone)?;
        for stage in stages {
            run(stage)?;
        }
        firing.report.stages = stages.len() as u64;
    }
    Ok(firing.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linview_compiler::{compile, CompileOptions, Program};
    use linview_expr::{Catalog, Expr};
    use linview_matrix::ApproxEq;

    #[test]
    fn sherman_morrison_matches_direct_inverse() {
        let n = 12;
        let e = Matrix::random_diag_dominant(n, 1);
        let w = e.inverse().unwrap();
        // Rank-2 update.
        let p = Matrix::random_uniform(n, 2, 2).scale(0.1);
        let q = Matrix::random_uniform(n, 2, 3).scale(0.1);
        let (u, v) = sherman_morrison(&w, &p, &q).unwrap();
        let mut w_new = w.clone();
        w_new
            .add_assign_from(&u.try_matmul(&v.transpose()).unwrap())
            .unwrap();
        let e_new = e.try_add(&p.try_matmul(&q.transpose()).unwrap()).unwrap();
        let w_direct = e_new.inverse().unwrap();
        assert!(w_new.approx_eq(&w_direct, 1e-8));
    }

    #[test]
    fn sherman_morrison_rejects_bad_shapes() {
        let w = Matrix::identity(4);
        let p = Matrix::zeros(4, 1);
        let q = Matrix::zeros(3, 1);
        assert!(matches!(
            sherman_morrison(&w, &p, &q),
            Err(RuntimeError::UpdateShape { .. })
        ));
    }

    #[test]
    fn sherman_morrison_detects_singular_update() {
        // W = I, u = -e1, v = e1 -> denominator 1 + v' W u = 0.
        let w = Matrix::identity(3);
        let mut p = Matrix::zeros(3, 1);
        p.set(0, 0, -1.0);
        let mut q = Matrix::zeros(3, 1);
        q.set(0, 0, 1.0);
        assert!(matches!(
            sherman_morrison(&w, &p, &q),
            Err(RuntimeError::ShermanMorrisonSingular { step: 0, .. })
        ));
    }

    #[test]
    fn woodbury_matches_sequential_sherman_morrison() {
        let n = 14;
        let e = Matrix::random_diag_dominant(n, 31);
        let w = e.inverse().unwrap();
        for k in [1usize, 2, 4] {
            let p = Matrix::random_uniform(n, k, 32).scale(0.1);
            let q = Matrix::random_uniform(n, k, 33).scale(0.1);
            let (u1, v1) = sherman_morrison(&w, &p, &q).unwrap();
            let (u2, v2) = woodbury(&w, &p, &q).unwrap();
            // The factorizations differ, but the deltas must agree.
            let d1 = u1.try_matmul(&v1.transpose()).unwrap();
            let d2 = u2.try_matmul(&v2.transpose()).unwrap();
            assert!(d1.approx_eq(&d2, 1e-8), "rank {k} disagrees");
        }
    }

    #[test]
    fn woodbury_matches_direct_inverse() {
        let n = 12;
        let e = Matrix::random_diag_dominant(n, 41);
        let w = e.inverse().unwrap();
        let p = Matrix::random_uniform(n, 3, 42).scale(0.1);
        let q = Matrix::random_uniform(n, 3, 43).scale(0.1);
        let (u, v) = woodbury(&w, &p, &q).unwrap();
        let mut w_new = w;
        w_new
            .add_assign_from(&u.try_matmul(&v.transpose()).unwrap())
            .unwrap();
        let mut e_new = e;
        e_new
            .add_assign_from(&p.try_matmul(&q.transpose()).unwrap())
            .unwrap();
        assert!(w_new.approx_eq(&e_new.inverse().unwrap(), 1e-8));
    }

    #[test]
    fn woodbury_rejects_bad_shapes_and_singular_capacitance() {
        let w = Matrix::identity(4);
        assert!(woodbury(&w, &Matrix::zeros(3, 1), &Matrix::zeros(4, 1)).is_err());
        // u = -e1, v = e1 on W = I: capacitance 1 + v'u = 0.
        let mut p = Matrix::zeros(4, 1);
        p.set(0, 0, -1.0);
        let mut q = Matrix::zeros(4, 1);
        q.set(0, 0, 1.0);
        assert!(matches!(
            woodbury(&w, &p, &q),
            Err(RuntimeError::ShermanMorrisonSingular { .. })
        ));
    }

    #[test]
    fn fired_trigger_matches_reevaluation() {
        // The A^4 program of Example 1.1, checked against recomputation.
        let n = 16;
        let mut cat = Catalog::new();
        cat.declare("A", n, n);
        let mut prog = Program::new();
        prog.assign("B", Expr::var("A") * Expr::var("A"));
        prog.assign("C", Expr::var("B") * Expr::var("B"));
        let tp = compile(&prog, &["A"], &cat, &CompileOptions::default()).unwrap();

        let a = Matrix::random_spectral(n, 9, 0.8);
        let b = a.try_matmul(&a).unwrap();
        let c = b.try_matmul(&b).unwrap();
        let mut env = Env::new();
        env.bind("A", a.clone());
        env.bind("B", b);
        env.bind("C", c);

        let du = Matrix::random_col(n, 11).scale(0.01);
        let dv = Matrix::random_col(n, 12);
        let ev = Evaluator::new();
        fire_trigger(&mut env, &ev, &tp.triggers[0], &du, &dv).unwrap();

        // Recompute from the updated A.
        let mut a_new = a;
        a_new
            .add_assign_from(&du.try_matmul(&dv.transpose()).unwrap())
            .unwrap();
        let b_new = a_new.try_matmul(&a_new).unwrap();
        let c_new = b_new.try_matmul(&b_new).unwrap();
        assert!(env.get("A").unwrap().approx_eq(&a_new, 1e-10));
        assert!(env.get("B").unwrap().approx_eq(&b_new, 1e-9));
        assert!(env.get("C").unwrap().approx_eq(&c_new, 1e-8));
    }

    #[test]
    fn woodbury_execution_option_matches_default() {
        // OLS trigger fired with both inverse primitives must agree.
        let n = 10;
        let mut cat = Catalog::new();
        cat.declare("X", n, n);
        cat.declare("Y", n, 1);
        let mut prog = Program::new();
        prog.assign("Z", Expr::var("X").t() * Expr::var("X"));
        prog.assign("W", Expr::var("Z").inv());
        prog.assign(
            "beta",
            Expr::var("W") * (Expr::var("X").t() * Expr::var("Y")),
        );
        let tp = compile(&prog, &["X"], &cat, &CompileOptions::default()).unwrap();

        let x = Matrix::random_diag_dominant(n, 51);
        let y = Matrix::random_col(n, 52);
        let build_env = || {
            let mut env = Env::new();
            env.bind("X", x.clone());
            env.bind("Y", y.clone());
            let z = x.transpose().try_matmul(&x).unwrap();
            let w = z.inverse().unwrap();
            env.bind(
                "beta",
                w.try_matmul(&x.transpose().try_matmul(&y).unwrap())
                    .unwrap(),
            );
            env.bind("Z", z);
            env.bind("W", w);
            env
        };
        let ev = Evaluator::new();
        let upd_u = Matrix::random_col(n, 53).scale(0.01);
        let upd_v = Matrix::random_col(n, 54);
        let mut env_sm = build_env();
        fire_trigger(&mut env_sm, &ev, &tp.triggers[0], &upd_u, &upd_v).unwrap();
        let mut env_wb = build_env();
        fire_trigger_on(
            &mut LocalBackend,
            &mut env_wb,
            &ev,
            &tp.triggers[0],
            &upd_u,
            &upd_v,
            &ExecOptions {
                inverse_primitive: InversePrimitive::Woodbury,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert!(env_sm
            .get("beta")
            .unwrap()
            .approx_eq(env_wb.get("beta").unwrap(), 1e-9));
        assert!(env_sm
            .get("W")
            .unwrap()
            .approx_eq(env_wb.get("W").unwrap(), 1e-9));
    }

    #[test]
    fn joint_trigger_matches_reevaluation_for_simultaneous_updates() {
        // Example 4.5: E = A·B with simultaneous ΔA and ΔB through ONE
        // trigger firing.
        let n = 12;
        let mut cat = Catalog::new();
        cat.declare("A", n, n);
        cat.declare("B", n, n);
        let mut prog = Program::new();
        prog.assign("C", Expr::var("A") * Expr::var("B"));
        prog.assign("D", Expr::var("C") * Expr::var("C"));
        let joint =
            linview_compiler::compile_joint(&prog, &["A", "B"], &cat, &CompileOptions::default())
                .unwrap();

        let a = Matrix::random_spectral(n, 1, 0.7);
        let b = Matrix::random_spectral(n, 2, 0.7);
        let c = a.try_matmul(&b).unwrap();
        let d = c.try_matmul(&c).unwrap();
        let mut env = Env::new();
        env.bind("A", a.clone());
        env.bind("B", b.clone());
        env.bind("C", c);
        env.bind("D", d);

        let dau = Matrix::random_col(n, 3).scale(0.01);
        let dav = Matrix::random_col(n, 4);
        let dbu = Matrix::random_col(n, 5).scale(0.01);
        let dbv = Matrix::random_col(n, 6);
        fire_joint_trigger(
            &mut env,
            &Evaluator::new(),
            &joint,
            &[("A", &dau, &dav), ("B", &dbu, &dbv)],
            &ExecOptions::default(),
        )
        .unwrap();

        let mut a_new = a;
        a_new
            .add_assign_from(&dau.try_matmul(&dav.transpose()).unwrap())
            .unwrap();
        let mut b_new = b;
        b_new
            .add_assign_from(&dbu.try_matmul(&dbv.transpose()).unwrap())
            .unwrap();
        let c_new = a_new.try_matmul(&b_new).unwrap();
        let d_new = c_new.try_matmul(&c_new).unwrap();
        assert!(env.get("C").unwrap().approx_eq(&c_new, 1e-9));
        assert!(env.get("D").unwrap().approx_eq(&d_new, 1e-8));
    }

    #[test]
    fn joint_trigger_rejects_missing_or_extra_updates() {
        let n = 6;
        let mut cat = Catalog::new();
        cat.declare("A", n, n);
        cat.declare("B", n, n);
        let mut prog = Program::new();
        prog.assign("C", Expr::var("A") * Expr::var("B"));
        let joint =
            linview_compiler::compile_joint(&prog, &["A", "B"], &cat, &CompileOptions::default())
                .unwrap();
        let mut env = Env::new();
        env.bind("A", Matrix::identity(n));
        env.bind("B", Matrix::identity(n));
        env.bind("C", Matrix::identity(n));
        let u = Matrix::zeros(n, 1);
        let ev = Evaluator::new();
        // Missing B.
        assert!(fire_joint_trigger(
            &mut env,
            &ev,
            &joint,
            &[("A", &u, &u)],
            &ExecOptions::default()
        )
        .is_err());
        // Wrong input name.
        assert!(fire_joint_trigger(
            &mut env,
            &ev,
            &joint,
            &[("A", &u, &u), ("Z", &u, &u)],
            &ExecOptions::default()
        )
        .is_err());
    }

    #[test]
    fn joint_firing_agrees_with_sequential_per_input_triggers() {
        // One joint firing == firing A's trigger then B's trigger (both are
        // exact, so the end states coincide).
        let n = 10;
        let mut cat = Catalog::new();
        cat.declare("A", n, n);
        cat.declare("B", n, n);
        let mut prog = Program::new();
        prog.assign("C", Expr::var("A") * Expr::var("B"));
        let opts = CompileOptions::default();
        let joint = linview_compiler::compile_joint(&prog, &["A", "B"], &cat, &opts).unwrap();
        let tp = compile(&prog, &["A", "B"], &cat, &opts).unwrap();

        let a = Matrix::random_spectral(n, 7, 0.6);
        let b = Matrix::random_spectral(n, 8, 0.6);
        let build_env = || {
            let mut env = Env::new();
            env.bind("A", a.clone());
            env.bind("B", b.clone());
            env.bind("C", a.try_matmul(&b).unwrap());
            env
        };
        let dau = Matrix::random_col(n, 9).scale(0.01);
        let dav = Matrix::random_col(n, 10);
        let dbu = Matrix::random_col(n, 11).scale(0.01);
        let dbv = Matrix::random_col(n, 12);
        let ev = Evaluator::new();

        let mut env_joint = build_env();
        fire_joint_trigger(
            &mut env_joint,
            &ev,
            &joint,
            &[("A", &dau, &dav), ("B", &dbu, &dbv)],
            &ExecOptions::default(),
        )
        .unwrap();

        let mut env_seq = build_env();
        fire_trigger(&mut env_seq, &ev, tp.trigger_for("A").unwrap(), &dau, &dav).unwrap();
        fire_trigger(&mut env_seq, &ev, tp.trigger_for("B").unwrap(), &dbu, &dbv).unwrap();
        assert!(env_joint
            .get("C")
            .unwrap()
            .approx_eq(env_seq.get("C").unwrap(), 1e-10));
    }

    #[test]
    fn staged_execution_is_bit_identical_to_sequential() {
        // A^8 with a batch update: wide stages (U_B/V_B, U_C/V_C, U_D/V_D
        // pairs plus independent view folds) against the one-statement-at-
        // a-time opt-out. Bit-identical, not approximately equal.
        let n = 192;
        let mut cat = Catalog::new();
        cat.declare("A", n, n);
        let mut prog = Program::new();
        prog.assign("B", Expr::var("A") * Expr::var("A"));
        prog.assign("C", Expr::var("B") * Expr::var("B"));
        prog.assign("D", Expr::var("C") * Expr::var("C"));
        let tp = compile(&prog, &["A"], &cat, &CompileOptions::default()).unwrap();
        let dag = tp.triggers[0].dag().unwrap();
        assert!(dag.stage_count() < dag.stmt_count(), "{dag:?}");

        let a = Matrix::random_spectral(n, 17, 0.7);
        let build_env = || {
            let b = a.try_matmul(&a).unwrap();
            let c = b.try_matmul(&b).unwrap();
            let d = c.try_matmul(&c).unwrap();
            let mut env = Env::new();
            env.bind("A", a.clone());
            env.bind("B", b);
            env.bind("C", c);
            env.bind("D", d);
            env
        };
        let ev = Evaluator::new();
        let du = Matrix::random_uniform(n, 3, 18).scale(0.01);
        let dv = Matrix::random_uniform(n, 3, 19);

        let mut staged = build_env();
        let staged_report = fire_trigger_on(
            &mut LocalBackend,
            &mut staged,
            &ev,
            &tp.triggers[0],
            &du,
            &dv,
            &ExecOptions::default(),
        )
        .unwrap();
        let mut seq = build_env();
        let seq_report = fire_trigger_on(
            &mut LocalBackend,
            &mut seq,
            &ev,
            &tp.triggers[0],
            &du,
            &dv,
            &ExecOptions {
                sequential: true,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        for view in ["A", "B", "C", "D"] {
            assert_eq!(
                staged.get(view).unwrap(),
                seq.get(view).unwrap(),
                "{view} diverged between staged and sequential execution"
            );
        }
        assert_eq!(staged_report.stmts, seq_report.stmts);
        assert_eq!(seq_report.stages, seq_report.stmts, "opt-out is serial");
        assert_eq!(staged_report.stages as usize, dag.stage_count());
        assert!(staged_report.stages < staged_report.stmts);

        let mut sched = SchedStats::default();
        sched.record(staged_report);
        assert_eq!(sched.firings, 1);
        assert_eq!(
            sched.stmts_saved(),
            staged_report.stmts - staged_report.stages
        );
    }

    #[test]
    fn trigger_cleans_up_temporaries() {
        let n = 8;
        let mut cat = Catalog::new();
        cat.declare("A", n, n);
        let mut prog = Program::new();
        prog.assign("B", Expr::var("A") * Expr::var("A"));
        let tp = compile(&prog, &["A"], &cat, &CompileOptions::default()).unwrap();
        let a = Matrix::random_spectral(n, 1, 0.5);
        let mut env = Env::new();
        env.bind("A", a.clone());
        env.bind("B", a.try_matmul(&a).unwrap());
        let before = env.len();
        fire_trigger(
            &mut env,
            &Evaluator::new(),
            &tp.triggers[0],
            &Matrix::random_col(n, 2).scale(0.01),
            &Matrix::random_col(n, 3),
        )
        .unwrap();
        assert_eq!(env.len(), before);
        assert!(!env.contains("dU_A"));
        assert!(!env.contains("U_B"));
    }

    #[test]
    fn trigger_rejects_nonconforming_update() {
        let n = 8;
        let mut cat = Catalog::new();
        cat.declare("A", n, n);
        let mut prog = Program::new();
        prog.assign("B", Expr::var("A") * Expr::var("A"));
        let tp = compile(&prog, &["A"], &cat, &CompileOptions::default()).unwrap();
        let mut env = Env::new();
        env.bind("A", Matrix::identity(n));
        env.bind("B", Matrix::identity(n));
        let err = fire_trigger(
            &mut env,
            &Evaluator::new(),
            &tp.triggers[0],
            &Matrix::zeros(4, 1),
            &Matrix::zeros(8, 1),
        );
        assert!(matches!(err, Err(RuntimeError::UpdateShape { .. })));
    }

    #[test]
    fn rank_k_batch_update_through_trigger() {
        // Triggers are rank-generic: a rank-3 update flows through the same
        // compiled trigger (batch updates, §7 Table 4).
        let n = 16;
        let mut cat = Catalog::new();
        cat.declare("A", n, n);
        let mut prog = Program::new();
        prog.assign("B", Expr::var("A") * Expr::var("A"));
        let tp = compile(&prog, &["A"], &cat, &CompileOptions::default()).unwrap();
        let a = Matrix::random_spectral(n, 21, 0.8);
        let mut env = Env::new();
        env.bind("A", a.clone());
        env.bind("B", a.try_matmul(&a).unwrap());
        let du = Matrix::random_uniform(n, 3, 22).scale(0.01);
        let dv = Matrix::random_uniform(n, 3, 23);
        fire_trigger(&mut env, &Evaluator::new(), &tp.triggers[0], &du, &dv).unwrap();
        let mut a_new = a;
        a_new
            .add_assign_from(&du.try_matmul(&dv.transpose()).unwrap())
            .unwrap();
        let b_new = a_new.try_matmul(&a_new).unwrap();
        assert!(env.get("B").unwrap().approx_eq(&b_new, 1e-9));
    }
}
