//! Maintained-view drivers: the REEVAL and INCR strategies every experiment
//! in §7 compares.
//!
//! * [`ReevalView`] — applies the update to the base matrix, then re-runs
//!   the whole program ("The re-evaluation strategy first applies ΔA to A
//!   and then … recomputes", §5.2.2).
//! * [`IncrementalView`] — compiles the program once (Algorithm 1),
//!   materializes every statement's result, and fires the matching trigger
//!   per update.
//!
//! The hybrid strategy of §5.3 is specific to the general iterative form
//! and lives in `linview-apps`.

use linview_compiler::{
    compile, compile_joint, CompileOptions, JointTrigger, Program, TriggerProgram,
};
use linview_dist::CommSnapshot;
use linview_expr::Catalog;
use linview_matrix::Matrix;

use crate::checkpoint::CheckpointError;
use crate::exec::{SchedStats, SparseStats};
use crate::snapshot::{SnapshotPublisher, ViewHandle};
use crate::updates::BatchUpdate;
use crate::{
    Env, Evaluator, ExecBackend, ExecOptions, LocalBackend, RankOneUpdate, Result, RuntimeError,
};

/// Full re-evaluation baseline.
#[derive(Debug, Clone)]
pub struct ReevalView {
    program: Program,
    env: Env,
    evaluator: Evaluator,
}

impl ReevalView {
    /// Builds the view: binds the inputs and evaluates the program once.
    pub fn build(program: &Program, inputs: &[(&str, Matrix)], _cat: &Catalog) -> Result<Self> {
        let mut env = Env::new();
        for (name, m) in inputs {
            env.bind(*name, m.clone());
        }
        let mut v = ReevalView {
            program: program.clone(),
            env,
            evaluator: Evaluator::new(),
        };
        v.reevaluate()?;
        Ok(v)
    }

    fn reevaluate(&mut self) -> Result<()> {
        for stmt in self.program.statements() {
            let value = self.evaluator.eval(&stmt.expr, &self.env)?;
            self.env.bind(stmt.target.clone(), value);
        }
        Ok(())
    }

    /// Applies a rank-1 update to `input` and recomputes everything.
    pub fn apply(&mut self, input: &str, upd: &RankOneUpdate) -> Result<()> {
        upd.apply_to(self.env.get_mut(input)?)?;
        self.reevaluate()
    }

    /// Applies a batched rank-k update to `input` and recomputes everything.
    pub fn apply_batch(&mut self, input: &str, upd: &BatchUpdate) -> Result<()> {
        let delta = upd.to_dense()?;
        self.env.get_mut(input)?.add_assign_from(&delta)?;
        self.reevaluate()
    }

    /// Reads a maintained matrix.
    pub fn get(&self, name: &str) -> Result<&Matrix> {
        self.env.get(name)
    }

    /// Total bytes held by base matrices and views.
    pub fn memory_bytes(&self) -> usize {
        self.env.memory_bytes()
    }
}

/// Incremental maintenance via compiled triggers, generic over *where* the
/// triggers execute.
///
/// The default backend is [`LocalBackend`] (in-process dense views); pass a
/// [`ThreadedBackend`](crate::ThreadedBackend) to `build_on` and the same
/// compiled triggers drive grid-partitioned views with metered
/// communication instead — one code path, two deployments (§6).
#[derive(Debug, Clone)]
pub struct IncrementalView<B: ExecBackend = LocalBackend> {
    trigger_program: TriggerProgram,
    /// Joint trigger for simultaneous updates to all dynamic inputs
    /// (§4.4); `None` when the program does not admit one.
    joint: Option<JointTrigger>,
    env: Env,
    evaluator: Evaluator,
    exec: ExecOptions,
    backend: B,
    /// Cumulative staged-scheduling counters across firings.
    sched: SchedStats,
    /// Cumulative sparse-execution counters across firings.
    sparse: SparseStats,
    /// Wait-free snapshot publication for readers; `None` until
    /// [`IncrementalView::enable_serving`].
    serving: Option<SnapshotPublisher>,
}

impl IncrementalView<LocalBackend> {
    /// Compiles `program` for updates to every input, then materializes all
    /// views ("we also precompute the initial values of all auxiliary views
    /// and preload these values before the actual computation", §7).
    pub fn build(program: &Program, inputs: &[(&str, Matrix)], cat: &Catalog) -> Result<Self> {
        Self::build_with_options(program, inputs, cat, &CompileOptions::default())
    }

    /// As [`IncrementalView::build`] with explicit compiler options.
    pub fn build_with_options(
        program: &Program,
        inputs: &[(&str, Matrix)],
        cat: &Catalog,
        opts: &CompileOptions,
    ) -> Result<Self> {
        Self::build_on_with_options(LocalBackend, program, inputs, cat, opts)
    }
}

impl<B: ExecBackend> IncrementalView<B> {
    /// As [`IncrementalView::build`] on an explicit execution backend.
    pub fn build_on(
        backend: B,
        program: &Program,
        inputs: &[(&str, Matrix)],
        cat: &Catalog,
    ) -> Result<Self> {
        Self::build_on_with_options(backend, program, inputs, cat, &CompileOptions::default())
    }

    /// As [`IncrementalView::build_on`] with explicit compiler options.
    pub fn build_on_with_options(
        mut backend: B,
        program: &Program,
        inputs: &[(&str, Matrix)],
        cat: &Catalog,
        opts: &CompileOptions,
    ) -> Result<Self> {
        let dynamic: Vec<&str> = inputs.iter().map(|(n, _)| *n).collect();
        let normalized = program.hoist_inverses(&dynamic);
        let tp = compile(&normalized, &dynamic, cat, opts)?;
        // The joint form is best-effort: every straight-line program the
        // per-input compiler accepts should admit one, but its absence only
        // disables `apply_joint`, never the per-input path.
        let joint = compile_joint(&normalized, &dynamic, cat, opts).ok();
        let mut env = Env::new();
        for (name, m) in inputs {
            env.bind(*name, m.clone());
        }
        let evaluator = Evaluator::new();
        // Materialize every statement's result (the views the triggers maintain).
        for stmt in normalized.statements() {
            let value = evaluator.eval(&stmt.expr, &env)?;
            env.bind(stmt.target.clone(), value);
        }
        backend.materialize(&env)?;
        Ok(IncrementalView {
            trigger_program: tp,
            joint,
            env,
            evaluator,
            exec: ExecOptions::default(),
            backend,
            sched: SchedStats::default(),
            sparse: SparseStats::default(),
            serving: None,
        })
    }

    /// Turns on the wait-free read path ([`crate::snapshot`]): publishes an
    /// epoch-0 snapshot of the current environment immediately, then
    /// republishes after every `publish_every` completed rounds (`0`
    /// behaves like `1`). Returns a cloneable [`ViewHandle`] for readers;
    /// call [`IncrementalView::serving_handle`] for more.
    pub fn enable_serving(&mut self, publish_every: u64) -> ViewHandle {
        let publisher = SnapshotPublisher::new(publish_every);
        publisher.publish(&self.env);
        let handle = publisher.handle();
        self.serving = Some(publisher);
        handle
    }

    /// A reader handle onto the published snapshots, when serving is on.
    pub fn serving_handle(&self) -> Option<ViewHandle> {
        self.serving.as_ref().map(SnapshotPublisher::handle)
    }

    /// Forces an immediate publication of the current environment,
    /// regardless of cadence — e.g. to expose the final state after a
    /// run's last (partial) batch. Returns `false` when serving is off.
    pub fn publish_snapshot(&self) -> bool {
        match &self.serving {
            Some(srv) => {
                srv.publish(&self.env);
                true
            }
            None => false,
        }
    }

    /// Records one completed state-changing round (a firing or a restore)
    /// with the serving layer, publishing per the cadence.
    fn serving_round(&self, force: bool) {
        if let Some(srv) = &self.serving {
            srv.round_completed(&self.env, force);
        }
    }

    /// Overrides trigger-execution options (inverse primitive, staging,
    /// sparse folds). Applies to all subsequent updates.
    pub fn set_exec_options(&mut self, exec: ExecOptions) {
        self.exec = exec;
    }

    /// Fires the trigger for a rank-1 update to `input`.
    pub fn apply(&mut self, input: &str, upd: &RankOneUpdate) -> Result<()> {
        self.apply_factored(input, &upd.u, &upd.v)
    }

    /// Fires the trigger for a batched rank-k update to `input`.
    pub fn apply_batch(&mut self, input: &str, upd: &BatchUpdate) -> Result<()> {
        self.apply_factored(input, &upd.u, &upd.v)
    }

    /// Fires the trigger for an arbitrary factored update `ΔX = dU · dVᵀ`.
    pub fn apply_factored(&mut self, input: &str, du: &Matrix, dv: &Matrix) -> Result<()> {
        let trigger = self
            .trigger_program
            .trigger_for(input)
            .ok_or_else(|| RuntimeError::Unbound(format!("trigger for '{input}'")))?;
        let report = self.backend.fire_trigger(
            &mut self.env,
            &self.evaluator,
            trigger,
            du,
            dv,
            &self.exec,
        )?;
        self.sched.record(report);
        self.sparse.merge(report.sparse);
        self.serving_round(false);
        Ok(())
    }

    /// Fires ONE joint trigger for *simultaneous* factored updates to all
    /// dynamic inputs (§4.4 / Example 4.5); `updates` must cover every
    /// input exactly once.
    pub fn apply_joint(&mut self, updates: &[(&str, &Matrix, &Matrix)]) -> Result<()> {
        let joint = self
            .joint
            .as_ref()
            .ok_or_else(|| RuntimeError::Unbound("joint trigger for this program".to_string()))?;
        let report = self.backend.fire_joint_trigger(
            &mut self.env,
            &self.evaluator,
            joint,
            updates,
            &self.exec,
        )?;
        self.sched.record(report);
        self.sparse.merge(report.sparse);
        self.serving_round(false);
        Ok(())
    }

    /// Cumulative staged-scheduling counters: firings, statements
    /// executed, and the stages they collapsed into.
    pub fn sched_stats(&self) -> SchedStats {
        self.sched
    }

    /// Zeroes the scheduling counters, returning the prior values.
    pub fn reset_sched_stats(&mut self) -> SchedStats {
        std::mem::take(&mut self.sched)
    }

    /// Cumulative sparse-execution counters: sparse vs dense fold path
    /// choices, compressed broadcast frames, and the rank/bytes they saved.
    pub fn sparse_stats(&self) -> SparseStats {
        self.sparse
    }

    /// Zeroes the sparse-execution counters, returning the prior values.
    pub fn reset_sparse_stats(&mut self) -> SparseStats {
        std::mem::take(&mut self.sparse)
    }

    /// Reads a maintained matrix.
    pub fn get(&self, name: &str) -> Result<&Matrix> {
        self.env.get(name)
    }

    /// The compiled trigger program (for inspection / codegen).
    pub fn trigger_program(&self) -> &TriggerProgram {
        &self.trigger_program
    }

    /// Inputs covered by the compiled joint trigger (§4.4), in declaration
    /// order; `None` when the program does not admit a joint form. A
    /// successful [`IncrementalView::apply_joint`] must supply exactly one
    /// update per listed input.
    pub fn joint_inputs(&self) -> Option<&[String]> {
        self.joint.as_ref().map(|j| j.inputs.as_slice())
    }

    /// The execution backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the execution backend.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Cumulative communication since construction or the last reset
    /// (always zero on [`LocalBackend`]).
    pub fn comm(&self) -> CommSnapshot {
        self.backend.comm()
    }

    /// Zeroes the communication counters, returning the prior snapshot.
    pub fn reset_comm(&self) -> CommSnapshot {
        self.backend.reset_comm()
    }

    /// Total bytes held by base matrices and views (incremental maintenance
    /// materializes *every* intermediate, which is exactly the memory
    /// overhead Table 3 quantifies), plus whatever the backend replicates
    /// (e.g. the partitioned copies on a cluster).
    pub fn memory_bytes(&self) -> usize {
        self.env.memory_bytes() + self.backend.extra_memory_bytes()
    }

    /// Snapshots all maintained state (inputs + views) into a standalone
    /// buffer — the operational requirement of §1's "long-lived data":
    /// incremental state must survive restarts, because rebuilding it means
    /// paying the full re-evaluation it exists to avoid.
    pub fn checkpoint(&self) -> Result<bytes::Bytes> {
        crate::checkpoint::save(&self.env)
    }

    /// Restores maintained state from a [`IncrementalView::checkpoint`]
    /// snapshot. The compiled trigger program is unchanged — only the
    /// matrices are replaced (and re-mirrored by the backend, e.g.
    /// repartitioned across the cluster). Fails with a
    /// [`RuntimeError::Checkpoint`], leaving the view, its backend and its
    /// published epoch untouched, on a corrupt snapshot or one that does
    /// not bind exactly this view's matrices at their shapes.
    pub fn restore(&mut self, data: bytes::Bytes) -> Result<()> {
        self.restore_env(crate::checkpoint::restore(data)?)
    }

    /// The maintained environment, for streaming it to a snapshot.
    pub(crate) fn env(&self) -> &Env {
        &self.env
    }

    /// [`IncrementalView::restore`] of an already-decoded snapshot.
    pub(crate) fn restore_env(&mut self, env: Env) -> Result<()> {
        self.check_snapshot(&env)?;
        self.backend.materialize(&env)?;
        self.env = env;
        // A restore changes observable state: count it as a round and
        // republish unconditionally so readers never serve pre-restore
        // state at a post-restore epoch.
        self.serving_round(true);
        Ok(())
    }

    /// A snapshot must bind exactly the matrices this view maintains, each
    /// at its shape: the compiled triggers address them by name and shape,
    /// so anything else would only fail at the next firing. Names the first
    /// mismatch found: an extra or misshapen binding, else a missing one.
    fn check_snapshot(&self, snapshot: &Env) -> Result<()> {
        let mismatch = |what: String| {
            RuntimeError::Checkpoint(CheckpointError::new(format!(
                "checkpoint does not match the view: {what}"
            )))
        };
        for (name, m) in snapshot.iter() {
            let Ok(held) = self.env.get(name) else {
                return Err(mismatch(format!(
                    "the snapshot binds '{name}', which the view does not maintain"
                )));
            };
            if held.shape() != m.shape() {
                let ((r, c), (vr, vc)) = (m.shape(), held.shape());
                return Err(mismatch(format!(
                    "'{name}' is {r}x{c} in the snapshot, {vr}x{vc} in the view"
                )));
            }
        }
        if let Some((name, _)) = self.env.iter().find(|(name, _)| !snapshot.contains(name)) {
            return Err(mismatch(format!("the snapshot lacks '{name}'")));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UpdateStream;
    use linview_compiler::parse::parse_program;
    use linview_expr::Expr;
    use linview_matrix::ApproxEq;

    fn powers_setup(n: usize) -> (Program, Catalog, Matrix) {
        let program = parse_program("B := A * A; C := B * B;").unwrap();
        let mut cat = Catalog::new();
        cat.declare("A", n, n);
        let a = Matrix::random_spectral(n, 5, 0.8);
        (program, cat, a)
    }

    #[test]
    fn incremental_tracks_reevaluation_over_stream() {
        let n = 16;
        let (program, cat, a) = powers_setup(n);
        let mut reeval = ReevalView::build(&program, &[("A", a.clone())], &cat).unwrap();
        let mut incr = IncrementalView::build(&program, &[("A", a)], &cat).unwrap();
        let mut stream = UpdateStream::new(n, n, 0.01, 77);
        for _ in 0..20 {
            let upd = stream.next_rank_one();
            reeval.apply("A", &upd).unwrap();
            incr.apply("A", &upd).unwrap();
        }
        assert!(incr
            .get("C")
            .unwrap()
            .approx_eq(reeval.get("C").unwrap(), 1e-7));
    }

    #[test]
    fn batch_updates_agree_between_strategies() {
        let n = 24;
        let (program, cat, a) = powers_setup(n);
        let mut reeval = ReevalView::build(&program, &[("A", a.clone())], &cat).unwrap();
        let mut incr = IncrementalView::build(&program, &[("A", a)], &cat).unwrap();
        let mut stream = UpdateStream::new(n, n, 0.01, 13);
        for zipf in [0.0, 2.0] {
            let batch = stream.next_batch_zipf(8, zipf).unwrap();
            reeval.apply_batch("A", &batch).unwrap();
            incr.apply_batch("A", &batch).unwrap();
        }
        assert!(incr
            .get("C")
            .unwrap()
            .approx_eq(reeval.get("C").unwrap(), 1e-7));
    }

    #[test]
    fn ols_with_inverse_is_maintained_incrementally() {
        // beta := inv(X' X) * X' Y — exercises hoisting + Sherman-Morrison.
        let n = 12;
        let program = parse_program("beta := inv(X' * X) * X' * Y;").unwrap();
        let mut cat = Catalog::new();
        cat.declare("X", n, n);
        cat.declare("Y", n, 1);
        // Diagonally dominant X keeps X'X well conditioned.
        let x = Matrix::random_diag_dominant(n, 3);
        let y = Matrix::random_col(n, 4);
        let mut reeval =
            ReevalView::build(&program, &[("X", x.clone()), ("Y", y.clone())], &cat).unwrap();
        let mut incr = IncrementalView::build(&program, &[("X", x), ("Y", y)], &cat).unwrap();
        let mut stream = UpdateStream::new(n, n, 0.001, 9);
        for _ in 0..10 {
            let upd = stream.next_rank_one();
            reeval.apply("X", &upd).unwrap();
            incr.apply("X", &upd).unwrap();
        }
        assert!(incr
            .get("beta")
            .unwrap()
            .approx_eq(reeval.get("beta").unwrap(), 1e-6));
    }

    #[test]
    fn incremental_uses_more_memory_than_reeval() {
        // The time/space trade-off of Table 2/3: INCR materializes every
        // intermediate view.
        let n = 16;
        let program = parse_program("B := A * A; C := B * B; D := C * C;").unwrap();
        let mut cat = Catalog::new();
        cat.declare("A", n, n);
        let a = Matrix::random_spectral(n, 1, 0.5);
        let reeval = ReevalView::build(&program, &[("A", a.clone())], &cat).unwrap();
        let incr = IncrementalView::build(&program, &[("A", a)], &cat).unwrap();
        assert_eq!(reeval.memory_bytes(), incr.memory_bytes());
        // Same set of views here (straight-line program materializes all);
        // the interesting comparison is vs a reeval that discards B, C —
        // covered in the apps crate where iterative models differ.
    }

    #[test]
    fn updates_to_second_input_use_their_own_trigger() {
        let n = 8;
        let mut cat = Catalog::new();
        cat.declare("A", n, n);
        cat.declare("B", n, n);
        let mut program = Program::new();
        program.assign("C", Expr::var("A") * Expr::var("B"));
        let a = Matrix::random_spectral(n, 1, 0.7);
        let b = Matrix::random_spectral(n, 2, 0.7);
        let mut reeval =
            ReevalView::build(&program, &[("A", a.clone()), ("B", b.clone())], &cat).unwrap();
        let mut incr = IncrementalView::build(&program, &[("A", a), ("B", b)], &cat).unwrap();
        let mut stream = UpdateStream::new(n, n, 0.01, 31);
        for i in 0..6 {
            let upd = stream.next_rank_one();
            let target = if i % 2 == 0 { "A" } else { "B" };
            reeval.apply(target, &upd).unwrap();
            incr.apply(target, &upd).unwrap();
        }
        assert!(incr
            .get("C")
            .unwrap()
            .approx_eq(reeval.get("C").unwrap(), 1e-8));
    }

    #[test]
    fn checkpoint_restore_resumes_maintenance_exactly() {
        let n = 16;
        let (program, cat, a) = powers_setup(n);
        let mut view = IncrementalView::build(&program, &[("A", a)], &cat).unwrap();
        let mut stream = UpdateStream::new(n, n, 0.01, 61);
        for _ in 0..5 {
            view.apply("A", &stream.next_rank_one()).unwrap();
        }
        let snapshot = view.checkpoint().unwrap();
        // Deterministic continuation: record the next updates, apply them,
        // then restore and replay — end states must agree bit-for-bit.
        let next: Vec<_> = (0..5).map(|_| stream.next_rank_one()).collect();
        for u in &next {
            view.apply("A", u).unwrap();
        }
        let after = view.get("C").unwrap().clone();
        view.restore(snapshot).unwrap();
        for u in &next {
            view.apply("A", u).unwrap();
        }
        assert_eq!(view.get("C").unwrap(), &after);
    }

    #[test]
    fn restore_rejects_corrupt_snapshot() {
        let n = 8;
        let (program, cat, a) = powers_setup(n);
        let mut view = IncrementalView::build(&program, &[("A", a)], &cat).unwrap();
        let mut raw = view.checkpoint().unwrap().to_vec();
        raw[0] ^= 0xFF; // break the magic
        let before = view.get("C").unwrap().clone();
        assert!(view.restore(bytes::Bytes::from(raw)).is_err());
        assert_eq!(view.get("C").unwrap(), &before);
    }

    /// `C := A * B; D := C * C` at `n×n` on `backend`.
    fn two_input_view<B: ExecBackend>(backend: B, n: usize) -> IncrementalView<B> {
        let program = parse_program("C := A * B; D := C * C;").unwrap();
        let mut cat = Catalog::new();
        cat.declare("A", n, n);
        cat.declare("B", n, n);
        let a = Matrix::random_spectral(n, 7, 0.8);
        let b = Matrix::random_spectral(n, 8, 0.8);
        IncrementalView::build_on(backend, &program, &[("A", a), ("B", b)], &cat).unwrap()
    }

    /// Restores `snapshot` into a served threaded view, expects a typed
    /// mismatch naming `expect`, and checks that the view, the workers'
    /// partitions and the published epoch are untouched and still fire.
    fn assert_rejected(snapshot: bytes::Bytes, expect: &str) {
        let n = 8;
        let mut view = two_input_view(crate::ThreadedBackend::new(4).unwrap(), n);
        let handle = view.enable_serving(1);
        let before: Vec<Matrix> = ["A", "B", "C", "D"]
            .iter()
            .map(|v| view.get(v).unwrap().clone())
            .collect();
        let err = view.restore(snapshot).unwrap_err();
        let RuntimeError::Checkpoint(inner) = &err else {
            panic!("expected a checkpoint error, got {err:?}");
        };
        assert!(inner.message().contains(expect), "{}", inner.message());
        assert_eq!(handle.epoch(), 0, "a rejected restore published");
        for (name, m) in ["A", "B", "C", "D"].iter().zip(&before) {
            assert_eq!(view.get(name).unwrap(), m, "{name} changed");
            assert_eq!(
                &view.backend().view(name).unwrap(),
                m,
                "worker {name} changed"
            );
        }
        let upd = RankOneUpdate::row_update(n, n, 2, 0.01, 3);
        view.apply("A", &upd).unwrap();
        assert_eq!(&view.backend().view("D").unwrap(), view.get("D").unwrap());
    }

    #[test]
    fn restore_rejects_a_snapshot_of_another_shape() {
        let small = two_input_view(LocalBackend, 4).checkpoint().unwrap();
        assert_rejected(small, "'A' is 4x4 in the snapshot, 8x8 in the view");
    }

    #[test]
    fn restore_rejects_a_snapshot_of_another_program() {
        let program = parse_program("E := A * A;").unwrap();
        let mut cat = Catalog::new();
        cat.declare("A", 8, 8);
        let a = Matrix::random_spectral(8, 7, 0.8);
        let other = IncrementalView::build(&program, &[("A", a)], &cat).unwrap();
        assert_rejected(
            other.checkpoint().unwrap(),
            "the snapshot binds 'E', which the view does not maintain",
        );
        // A snapshot that covers only part of the view is refused too.
        let mut partial = Env::new();
        for name in ["A", "B", "C"] {
            partial.bind(name, Matrix::zeros(8, 8));
        }
        let partial = crate::checkpoint::save(&partial).unwrap();
        assert_rejected(partial, "the snapshot lacks 'D'");
    }

    #[test]
    fn restore_rejects_a_name_bound_twice() {
        // Two entries named 'A': the v1 header, then the one entry of a
        // single-binding snapshot written twice.
        let mut one = Env::new();
        one.bind("A", Matrix::zeros(8, 8));
        let snapshot = crate::checkpoint::save(&one).unwrap();
        let entry = &snapshot[12..];
        let mut raw = b"LNVW".to_vec();
        raw.extend_from_slice(&1u32.to_le_bytes());
        raw.extend_from_slice(&2u32.to_le_bytes());
        raw.extend_from_slice(entry);
        raw.extend_from_slice(entry);
        assert_rejected(bytes::Bytes::from(raw), "binding 'A' appears twice");
    }

    #[test]
    fn missing_trigger_is_an_error() {
        let n = 8;
        let (program, cat, a) = powers_setup(n);
        let mut incr = IncrementalView::build(&program, &[("A", a)], &cat).unwrap();
        let upd = RankOneUpdate::row_update(n, n, 0, 0.01, 1);
        assert!(incr.apply("Z", &upd).is_err());
    }
}
