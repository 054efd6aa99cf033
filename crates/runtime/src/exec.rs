//! Trigger execution, including the numeric Sherman–Morrison primitive.
//!
//! There is exactly **one** statement interpreter ([`run_statements`]) for
//! every execution backend, and it is **staged**: instead of walking
//! `trigger.stmts` in program order, it consumes the compile-time
//! statement dependency DAG ([`Trigger::dag`]) one topological stage at a
//! time. Every statement in a stage is provably independent, so the stage
//! is evaluated against the pre-stage environment — on worker threads when
//! the stage holds more than one statement — and its low-rank view deltas
//! are handed to the backend **as a set** through
//! [`ExecBackend::apply_stage`](crate::ExecBackend::apply_stage) (threaded
//! GEMMs into disjoint slots locally; merged broadcast rounds and
//! pipelined frames on the distributed backends). Program order is a
//! linear extension of the DAG, so staged execution is bit-identical to
//! the sequential walk — [`ExecOptions::sequential`] opts back into the
//! legacy one-statement-per-stage order for ablation.
//!
//! The free functions [`fire_trigger`] / [`fire_trigger_with_options`] /
//! [`fire_joint_trigger`] are the historical in-process entry points and
//! simply run on a [`LocalBackend`](crate::LocalBackend).

use linview_compiler::{Trigger, TriggerStmt};
use linview_expr::delta::input_delta_names;
use linview_matrix::Matrix;

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
    let mut w_work = w.clone();
    let mut out_u = Matrix::zeros(n, k);
    let mut out_v = Matrix::zeros(n, k);
    for i in 0..k {
        let u = p.col_matrix(i);
        let v = q.col_matrix(i);
        let wu = w_work.matvec(&u)?;
        let wv = w_work.transpose().matvec(&v)?;
        let den = 1.0 + Matrix::dot(&v, &wu)?;
        if den.abs() < SM_TOL {
            return Err(RuntimeError::ShermanMorrisonSingular {
                step: i,
                denominator: den,
            });
        }
        let ucol = wu.scale(-1.0 / den);
        for r in 0..n {
            out_u.set(r, i, ucol.get(r, 0));
            out_v.set(r, i, wv.get(r, 0));
        }
        w_work.add_outer(&ucol, &wv)?;
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
    let wtq = w.transpose().try_matmul(q)?; // n×k  (V = Wᵀ Q)
                                            // capacitance C = I_k + Qᵀ (W P)  — k×k.
    let mut cap = q.transpose().try_matmul(&wp)?;
    for i in 0..k {
        cap.set(i, i, cap.get(i, i) + 1.0);
    }
    // U = −(W P)·C⁻¹: solve Cᵀ Xᵀ = (W P)ᵀ to avoid forming C⁻¹.
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

/// Execution options for [`fire_trigger_with_options`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions {
    /// Inverse-maintenance primitive.
    pub inverse_primitive: InversePrimitive,
    /// When set, each delta block pair `(U_X, V_X)` is numerically
    /// recompressed to its rank (relative tolerance) right after it is
    /// evaluated, *before* subsequent statements propagate it. This is the
    /// `O((n+m)k²)` pass §4.3 declines to pay for — the ablation bench
    /// measures when it wins. Because the pass rebinds blocks mid-body,
    /// enabling it forces the sequential statement schedule (staged
    /// evaluation could not observe a rebinding inside its own stage).
    pub recompress_tol: Option<f64>,
    /// Opt out of DAG-staged execution: run one statement per stage in
    /// program order (the pre-scheduler interpreter). Results are
    /// bit-identical either way — this exists for ablation benchmarks and
    /// the `--sequential-exec` CLI flag.
    pub sequential: bool,
    /// Density-aware delta execution: route view folds through the sparse
    /// cost model ([`linview_matrix::fold_low_rank`]) and let the
    /// distributed backends compress factor broadcasts whose triplet form
    /// is shorter. `None` (the default) defers to the process-wide knob
    /// ([`linview_matrix::sparse_folds_enabled`], i.e. `LINVIEW_SPARSE`);
    /// `Some(false)` forces every fold dense and every frame uncompressed.
    /// Results are bit-identical either way — the knob only moves work and
    /// bytes.
    pub sparse_folds: Option<bool>,
}

impl ExecOptions {
    /// The effective sparse-execution flag: the per-view option if set,
    /// else the process-wide default.
    pub fn sparse_enabled(&self) -> bool {
        self.sparse_folds
            .unwrap_or_else(linview_matrix::sparse_folds_enabled)
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
/// default options (sequential Sherman–Morrison for inverses).
///
/// Execution order follows the compiler's contract: every `Assign` /
/// `ShermanMorrison` statement is evaluated against the **pre-update**
/// state, then all `ApplyDelta` statements fold the deltas into the views.
/// Temporary block variables are unbound afterwards so the environment's
/// memory accounting reflects only base matrices and materialized views.
pub fn fire_trigger(
    env: &mut Env,
    evaluator: &Evaluator,
    trigger: &Trigger,
    du: &Matrix,
    dv: &Matrix,
) -> Result<()> {
    fire_trigger_with_options(env, evaluator, trigger, du, dv, &ExecOptions::default())
}

/// As [`fire_trigger`] with explicit [`ExecOptions`].
pub fn fire_trigger_with_options(
    env: &mut Env,
    evaluator: &Evaluator,
    trigger: &Trigger,
    du: &Matrix,
    dv: &Matrix,
    opts: &ExecOptions,
) -> Result<()> {
    fire_trigger_on(&mut LocalBackend, env, evaluator, trigger, du, dv, opts).map(|_| ())
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
    let (du_name, dv_name) = input_delta_names(&trigger.input);
    // Shape check against the target input.
    let target = env.get(&trigger.input)?;
    if du.rows() != target.rows() || dv.rows() != target.cols() || du.cols() != dv.cols() {
        return Err(RuntimeError::UpdateShape {
            target: target.shape(),
            update: (du.shape(), dv.shape()),
        });
    }
    // The input update is the root of every propagated block: recompressing
    // it first (when enabled) shrinks all downstream ranks.
    if let (Some(tol), true) = (opts.recompress_tol, du.cols() > 1) {
        let rc = linview_matrix::recompress(du, dv, tol)?;
        env.bind(du_name.clone(), rc.u);
        env.bind(dv_name.clone(), rc.v);
    } else {
        env.bind(du_name.clone(), du.clone());
        env.bind(dv_name.clone(), dv.clone());
    }

    let mut temporaries = vec![du_name, dv_name];
    let result = run_statements(backend, env, evaluator, trigger, &mut temporaries, opts);
    for t in &temporaries {
        env.unbind(t);
    }
    result
}

/// Recompresses the delta pair `(u_name, v_name)` in place once both blocks
/// are bound; a no-op for rank-1 pairs (nothing to shrink but a zero test).
fn recompress_pair(env: &mut Env, u_name: &str, v_name: &str, tol: f64) -> Result<()> {
    if !env.contains(u_name) || !env.contains(v_name) {
        return Ok(());
    }
    let u = env.get(u_name)?;
    if u.cols() <= 1 {
        return Ok(());
    }
    let v = env.get(v_name)?;
    let rc = linview_matrix::recompress(u, v, tol)?;
    if rc.reduced() {
        env.bind(u_name.to_string(), rc.u);
        env.bind(v_name.to_string(), rc.v);
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
    let mut temporaries = Vec::with_capacity(2 * updates.len());
    for (input, du, dv) in updates {
        let target = env.get(input)?;
        if du.rows() != target.rows() || dv.rows() != target.cols() || du.cols() != dv.cols() {
            return Err(RuntimeError::UpdateShape {
                target: target.shape(),
                update: (du.shape(), dv.shape()),
            });
        }
        let (du_name, dv_name) = input_delta_names(input);
        env.bind(du_name.clone(), (*du).clone());
        env.bind(dv_name.clone(), (*dv).clone());
        temporaries.push(du_name);
        temporaries.push(dv_name);
    }
    let result = run_statements(
        backend,
        env,
        evaluator,
        &joint.trigger,
        &mut temporaries,
        opts,
    );
    for t in &temporaries {
        env.unbind(t);
    }
    result
}

/// Stages whose statements only touch matrices smaller than this many
/// elements are evaluated inline even when independent: thread-spawn
/// overhead beats the parallelism for small operands, and the dense
/// kernels already multi-thread internally in exactly that regime. The
/// stage *structure* (and the backends' merged rounds / pipelined
/// broadcasts) is unaffected — only where the expression evaluation runs.
///
/// Skinny low-rank products (`n×k · k×n`, `k ≤`
/// [`linview_matrix::RANK_K_MAX_K`]) stay under this gate for the same
/// reason: the matrix crate routes them to its dedicated rank-k kernel,
/// which work-steals across row chunks internally, so a heavy stage made
/// of `ApplyDelta` folds already saturates the thread budget without
/// stage-level fan-out.
pub(crate) const PARALLEL_MIN_ELEMS: usize = 32_768;

/// True when the execution layer may fan work out to more than one
/// thread. Follows the process-wide GEMM thread budget
/// ([`linview_matrix::gemm_threads`], i.e. `LINVIEW_THREADS` / the
/// `--threads` CLI flag, defaulting to the machine's parallelism), so
/// pinning the budget to 1 serializes stage evaluation, stage delta
/// folds, *and* the dense kernels with one knob. Results are bit-identical
/// either way — the gate only decides where the arithmetic runs.
pub(crate) fn multi_core() -> bool {
    linview_matrix::gemm_threads() > 1
}

/// True when any statement of the stage reads an environment matrix large
/// enough to justify evaluating the stage on worker threads. Reuses the
/// effect sets the DAG analysis already computed.
fn stage_is_heavy(stage: &[usize], effects: &[linview_compiler::StmtEffects], env: &Env) -> bool {
    multi_core()
        && stage.iter().any(|&i| {
            effects[i]
                .reads
                .iter()
                .any(|r| env.get(r).is_ok_and(|m| m.len() >= PARALLEL_MIN_ELEMS))
        })
}

/// One statement's evaluated result, produced read-only against the
/// pre-stage environment and applied after the whole stage has evaluated.
enum StmtOutput {
    /// Variables to bind (an `Assign` yields one, Sherman–Morrison two).
    Bind(Vec<(String, Matrix)>),
    /// An evaluated low-rank view delta for the backend's stage barrier.
    Delta(StageDelta),
}

/// Evaluates one statement against the (read-only) pre-stage environment.
/// Safe to call from several threads for the statements of one stage: the
/// dependency DAG guarantees no statement reads another's output.
fn eval_stmt(
    stmt: &TriggerStmt,
    env: &Env,
    evaluator: &Evaluator,
    opts: &ExecOptions,
) -> Result<StmtOutput> {
    match stmt {
        TriggerStmt::Assign { var, expr } => {
            let value = evaluator.eval(expr, env)?;
            Ok(StmtOutput::Bind(vec![(var.clone(), value)]))
        }
        TriggerStmt::ShermanMorrison {
            inv_var,
            p,
            q,
            out_u,
            out_v,
        } => {
            let pm = evaluator.eval(p, env)?;
            let qm = evaluator.eval(q, env)?;
            let w = env.get(inv_var)?;
            let (u, v) = match opts.inverse_primitive {
                InversePrimitive::ShermanMorrison => sherman_morrison(w, &pm, &qm)?,
                InversePrimitive::Woodbury => woodbury(w, &pm, &qm)?,
            };
            Ok(StmtOutput::Bind(vec![
                (out_u.clone(), u),
                (out_v.clone(), v),
            ]))
        }
        TriggerStmt::ApplyDelta { target, u, v } => {
            let um = evaluator.eval(u, env)?;
            let vm = evaluator.eval(v, env)?;
            Ok(StmtOutput::Delta(StageDelta {
                target: target.clone(),
                u: um,
                v: vm,
            }))
        }
    }
}

/// The staged statement interpreter shared by every backend.
///
/// Each stage runs in three phases: (1) every statement of the stage is
/// evaluated against the pre-stage environment — concurrently when the
/// stage holds more than one statement, since the DAG proves them
/// independent; (2) compute results are bound in program order (and the
/// optional §4.3 recompression pass runs for pairs completed this stage);
/// (3) the stage's view deltas are folded through
/// [`ExecBackend::apply_stage`] — the stage barrier, and the only
/// backend-specific step.
fn run_statements<B: ExecBackend + ?Sized>(
    backend: &mut B,
    env: &mut Env,
    evaluator: &Evaluator,
    trigger: &Trigger,
    temporaries: &mut Vec<String>,
    opts: &ExecOptions,
) -> Result<FiringReport> {
    // Orientation-preserving pair lookup for the optional recompression
    // pass: block name -> (U name, V name) of its pair.
    let pairs: Vec<(String, String)> = if opts.recompress_tol.is_some() {
        trigger
            .delta_pairs()
            .into_iter()
            .map(|(u, v)| (u.to_string(), v.to_string()))
            .collect()
    } else {
        Vec::new()
    };
    // The §4.3 recompression pass rewrites a pair's blocks in place the
    // moment the pair completes, and later statements of the *sequential*
    // walk observe the rebinding mid-body — a stage evaluated against the
    // pre-stage environment could not. Recompression therefore always
    // runs on the sequential schedule; bit-identity with the opt-out is
    // preserved by construction.
    //
    // The DAG is re-analyzed per firing rather than cached on the
    // trigger: `Trigger::stmts` is public and the optimizer rewrites
    // bodies in place, so a stored schedule could silently go stale. The
    // analysis is O(stmts²) over tiny bodies — noise next to one O(kn²)
    // delta fold.
    let dag = if opts.sequential || opts.recompress_tol.is_some() {
        None
    } else {
        Some(trigger.dag()?)
    };
    let stages: Vec<Vec<usize>> = match &dag {
        Some(dag) => dag.stages().to_vec(),
        None => (0..trigger.stmts.len()).map(|i| vec![i]).collect(),
    };
    let mut report = FiringReport {
        stmts: trigger.stmts.len() as u64,
        stages: stages.len() as u64,
        writes: 0,
        sparse: SparseStats::default(),
    };
    let sparse = opts.sparse_enabled();
    // Debug builds re-derive the analyzer's effect sets once per firing and
    // assert every observed view write against them: the statically-proved
    // write sets are the contract `apply_stage` soundness rests on, so a
    // divergence here is a scheduler or analyzer bug, not a data error.
    #[cfg(debug_assertions)]
    let proved = linview_compiler::analyze::derive_effects(&trigger.stmts);
    for stage in &stages {
        // Phase 1: evaluate the stage against the pre-stage environment.
        let heavy = dag
            .as_ref()
            .is_some_and(|dag| stage.len() >= 2 && stage_is_heavy(stage, dag.effects(), env));
        let outputs: Vec<Result<StmtOutput>> = if heavy {
            let env = &*env;
            std::thread::scope(|scope| {
                let handles: Vec<_> = stage[1..]
                    .iter()
                    .map(|&i| {
                        scope.spawn(move || eval_stmt(&trigger.stmts[i], env, evaluator, opts))
                    })
                    .collect();
                let mut outs = vec![eval_stmt(&trigger.stmts[stage[0]], env, evaluator, opts)];
                outs.extend(
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("stage evaluator thread panicked")),
                );
                outs
            })
        } else {
            stage
                .iter()
                .map(|&i| eval_stmt(&trigger.stmts[i], env, evaluator, opts))
                .collect()
        };
        // Phase 2: bind compute results in program order, collect deltas.
        let mut deltas: Vec<StageDelta> = Vec::new();
        let mut bound_now: Vec<String> = Vec::new();
        for (&i, out) in stage.iter().zip(outputs) {
            match out? {
                StmtOutput::Bind(binds) => {
                    // Only plain assignments feed the recompression pass
                    // (Sherman–Morrison outputs are left exact, as in the
                    // sequential interpreter).
                    let assign = matches!(trigger.stmts[i], TriggerStmt::Assign { .. });
                    for (name, value) in binds {
                        env.bind(name.clone(), value);
                        temporaries.push(name.clone());
                        if assign {
                            bound_now.push(name);
                        }
                    }
                }
                StmtOutput::Delta(d) => deltas.push(d),
            }
        }
        if let Some(tol) = opts.recompress_tol {
            for (u_name, v_name) in &pairs {
                if bound_now.iter().any(|b| b == u_name || b == v_name) {
                    recompress_pair(env, u_name, v_name, tol)?;
                }
            }
        }
        // Phase 3: the stage barrier — fold every independent delta.
        #[cfg(debug_assertions)]
        {
            let mut seen: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
            for d in &deltas {
                debug_assert!(
                    seen.insert(d.target.as_str()),
                    "stage writes view '{}' twice; statically-proved stage writes \
                     must be pairwise disjoint",
                    d.target
                );
                debug_assert!(
                    stage.iter().any(|&i| proved[i].writes.contains(&d.target)),
                    "observed write to '{}' is outside the statically-proved \
                     effect sets of stage {:?}",
                    d.target,
                    stage
                );
            }
        }
        report.writes += deltas.len() as u64;
        if !deltas.is_empty() {
            report
                .sparse
                .merge(backend.apply_stage(env, &deltas, sparse)?);
        }
    }
    Ok(report)
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
        fire_trigger_with_options(
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
    fn recompression_preserves_maintained_views() {
        // A^8 program: block ranks grow 2 -> 4 -> 8 across statements, and
        // the numerical recompression must not change any maintained view.
        let n = 20;
        let mut cat = Catalog::new();
        cat.declare("A", n, n);
        let mut prog = Program::new();
        prog.assign("B", Expr::var("A") * Expr::var("A"));
        prog.assign("C", Expr::var("B") * Expr::var("B"));
        prog.assign("D", Expr::var("C") * Expr::var("C"));
        let tp = compile(&prog, &["A"], &cat, &CompileOptions::default()).unwrap();

        let a = Matrix::random_spectral(n, 3, 0.7);
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
        let du = Matrix::random_col(n, 5).scale(0.01);
        let dv = Matrix::random_col(n, 6);

        let mut plain = build_env();
        fire_trigger(&mut plain, &ev, &tp.triggers[0], &du, &dv).unwrap();
        let mut compressed = build_env();
        fire_trigger_with_options(
            &mut compressed,
            &ev,
            &tp.triggers[0],
            &du,
            &dv,
            &ExecOptions {
                recompress_tol: Some(1e-12),
                ..ExecOptions::default()
            },
        )
        .unwrap();
        for view in ["A", "B", "C", "D"] {
            assert!(
                compressed
                    .get(view)
                    .unwrap()
                    .approx_eq(plain.get(view).unwrap(), 1e-7),
                "{view} diverged under recompression"
            );
        }
    }

    #[test]
    fn staged_execution_is_bit_identical_to_sequential() {
        // A^8 with a batch update: wide stages (U_B/V_B, U_C/V_C, U_D/V_D
        // pairs plus independent view folds) against the one-statement-at-
        // a-time opt-out. Bit-identical, not approximately equal. n is
        // past the parallel threshold so stage evaluation really runs on
        // worker threads.
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
    fn recompression_forces_the_sequential_schedule() {
        // The §4.3 pass rebinds pair blocks mid-body; a reader scheduled
        // into the same stage as the pair's completion would observe the
        // raw blocks where the sequential walk observes the recompressed
        // ones. Enabling recompression must therefore serialize the
        // schedule (stages == stmts in the firing report).
        let n = 16;
        let mut cat = Catalog::new();
        cat.declare("A", n, n);
        let mut prog = Program::new();
        prog.assign("B", Expr::var("A") * Expr::var("A"));
        prog.assign("C", Expr::var("B") * Expr::var("B"));
        let tp = compile(&prog, &["A"], &cat, &CompileOptions::default()).unwrap();
        let a = Matrix::random_spectral(n, 27, 0.7);
        let mut env = Env::new();
        env.bind("A", a.clone());
        let b = a.try_matmul(&a).unwrap();
        env.bind("C", b.try_matmul(&b).unwrap());
        env.bind("B", b);
        let du = Matrix::random_uniform(n, 2, 28).scale(0.01);
        let dv = Matrix::random_uniform(n, 2, 29);
        let report = fire_trigger_on(
            &mut LocalBackend,
            &mut env,
            &Evaluator::new(),
            &tp.triggers[0],
            &du,
            &dv,
            &ExecOptions {
                recompress_tol: Some(1e-10),
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert_eq!(report.stages, report.stmts);
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
