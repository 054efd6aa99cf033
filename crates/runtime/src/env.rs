//! The named-matrix environment backing program and trigger execution.

use linview_matrix::{default_kernel, fold_low_rank, FoldPath, GemmKernel, Matrix, MatrixError};
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::exec::{SparseStats, StageDelta};
use crate::{Result, RuntimeError};

/// What a spare's fold log may cost, in FLOPs per element of the view,
/// before the next copy-on-write copies instead of replaying it — about
/// what the copy itself costs.
///
/// Measured at n = 512 on one thread of the 2-vCPU bench host: copying a
/// view into its spare takes 141 µs, as long as a dense fold of about nine
/// FLOPs per element (rank 4: 100 µs; rank 8, 17 FLOPs: 168 µs; rank 16:
/// 386 µs). Below that a dense fold is bound by streaming the view, not by
/// its arithmetic — 90 µs at rank 1, two thirds of the copy — so a logged
/// fold is charged its FLOPs but at least two thirds of the budget per
/// element it writes (a one-row sparse fold takes 1.9 µs). Each factor
/// element a log keeps is charged a full unit, so a log never holds more
/// factor data than the view it stands in for. At n = 512 one dense fold of
/// rank ≤ 3 replays (0.6–0.75 of the copy), with sparse folds beside it; a
/// second dense fold, or one of rank ≥ 4, sends the next copy-on-write back
/// to the copy.
const REPLAY_BUDGET: usize = 9;

/// One binding: the matrix readers see, and the buffer the next
/// copy-on-write lands in.
#[derive(Debug)]
struct Slot {
    live: Arc<Matrix>,
    /// The `Arc` a copy-on-write last replaced. Once whoever shared it (a
    /// superseded snapshot) lets go, it is the destination of the next
    /// copy-on-write, so a touched view ping-pongs between two buffers and
    /// allocates nothing in steady state.
    spare: Option<Spare>,
}

/// A slot's second buffer, and how to bring it up to date.
#[derive(Debug)]
struct Spare {
    buf: Arc<Matrix>,
    /// The folds `live` took since it held exactly `buf`'s bits, oldest
    /// first: replaying them onto `buf` reproduces `live` bit for bit.
    /// `None` once anything else wrote `live`, or once replaying would cost
    /// more than a copy.
    missed: Option<FoldLog>,
}

/// Folds to replay, and what replaying them costs (see [`REPLAY_BUDGET`]).
#[derive(Debug, Default)]
struct FoldLog {
    folds: Vec<LoggedFold>,
    cost: usize,
}

/// One `X += U·Vᵀ` as it was applied: the same call on the same bits gives
/// the same bits.
#[derive(Debug)]
struct LoggedFold {
    u: Matrix,
    v: Matrix,
    sparse: bool,
    kernel: GemmKernel,
}

impl FoldLog {
    /// Appends a fold that took `path` into a `rows × cols` view under
    /// `kernel`, or forgets the log: past the budget, or under a fusing
    /// kernel (whose bits also depend on the rendering knob, which the log
    /// does not record).
    fn push(
        mut self,
        (u, v, sparse): (&Matrix, &Matrix, bool),
        path: FoldPath,
        kernel: GemmKernel,
        (rows, cols): (usize, usize),
    ) -> Option<FoldLog> {
        // The FLOPs the meter charges for the fold (and for its replay), and
        // the view elements it writes.
        let (flops, written) = match path {
            FoldPath::Sparse { nnz, rows_touched } => {
                ((2 * nnz + rows_touched) * cols, rows_touched * cols)
            }
            FoldPath::Dense => ((2 * u.cols() + 1) * rows * cols, rows * cols),
        };
        let streaming = written * REPLAY_BUDGET * 2 / 3;
        self.cost += flops.max(streaming) + REPLAY_BUDGET * (u.len() + v.len());
        if kernel.fuses() || self.cost > REPLAY_BUDGET * rows * cols {
            return None;
        }
        self.folds.push(LoggedFold {
            u: u.clone(),
            v: v.clone(),
            sparse,
            kernel,
        });
        Some(self)
    }

    /// Replays the log onto `buf` through the routine that applied it —
    /// valid only when every fold ran under `kernel`, the one in effect now.
    fn replay_onto(&self, buf: &mut Matrix, kernel: GemmKernel) -> bool {
        if self.folds.iter().any(|f| f.kernel != kernel) {
            return false;
        }
        for f in &self.folds {
            fold_low_rank(buf, &f.u, &f.v, f.sparse)
                .expect("a logged fold conforms to the view it was applied to");
        }
        true
    }
}

impl Slot {
    fn new(value: Matrix) -> Slot {
        Slot {
            live: Arc::new(value),
            spare: None,
        }
    }

    /// The live matrix, in place when this slot is its only holder;
    /// otherwise a private copy first, with the shared original parked as
    /// the new spare. The copy is the spare itself when it is free and the
    /// same shape — brought up to date by replaying its fold log under
    /// `kernel` when it has one, by a `memcpy` otherwise — else a fresh
    /// allocation, never a wait.
    fn unique(&mut self, kernel: GemmKernel) -> &mut Matrix {
        if Arc::get_mut(&mut self.live).is_none() {
            let live = &self.live;
            let recycled = self.spare.take().and_then(|Spare { mut buf, missed }| {
                let b = Arc::get_mut(&mut buf).filter(|b| b.shape() == live.shape())?;
                if !missed.is_some_and(|log| log.replay_onto(b, kernel)) {
                    b.as_mut_slice().copy_from_slice(live.as_slice());
                }
                Some(buf)
            });
            let copy = recycled.unwrap_or_else(|| Arc::new(Matrix::clone(live)));
            let shared = std::mem::replace(&mut self.live, copy);
            self.spare = Some(Spare {
                buf: shared,
                missed: Some(FoldLog::default()),
            });
        }
        Arc::get_mut(&mut self.live).expect("live was unique or has just been replaced by a copy")
    }

    /// The live matrix for an arbitrary write, which nothing can replay:
    /// made unique as for a fold, then the log is forgotten.
    fn make_mut(&mut self) -> &mut Matrix {
        self.unique(default_kernel());
        if let Some(spare) = &mut self.spare {
            spare.missed = None;
        }
        Arc::get_mut(&mut self.live).expect("made unique above")
    }

    /// Folds `u · vᵀ` into the live matrix under `kernel`, the kernel in
    /// effect, and logs the fold for the spare.
    fn fold(
        &mut self,
        u: &Matrix,
        v: &Matrix,
        sparse: bool,
        kernel: GemmKernel,
    ) -> Result<FoldPath> {
        let live = self.unique(kernel);
        let path = fold_low_rank(live, u, v, sparse)?;
        let shape = live.shape();
        if let Some(spare) = &mut self.spare {
            spare.missed = spare
                .missed
                .take()
                .and_then(|log| log.push((u, v, sparse), path, kernel, shape));
        }
        Ok(path)
    }
}

impl Clone for Slot {
    /// Shares the live matrix and drops the spare: a clone never pins a
    /// buffer the original is about to recycle, and starts with no log.
    fn clone(&self) -> Slot {
        Slot {
            live: Arc::clone(&self.live),
            spare: None,
        }
    }
}

/// The error [`fold_low_rank`] raises for factors that do not fit `target`,
/// raised before a stage touches any view.
fn check_fold(target: &Matrix, u: &Matrix, v: &Matrix) -> Result<()> {
    if u.cols() != v.cols() || u.rows() != target.rows() || v.rows() != target.cols() {
        return Err(MatrixError::DimMismatch {
            op: "fold_low_rank",
            lhs: u.shape(),
            rhs: v.shape(),
        }
        .into());
    }
    Ok(())
}

/// A mutable binding of matrix names to values — the "database" of base
/// relations and materialized views.
///
/// Every binding is held through an `Arc`, so an `Env` can be *shared* at
/// `O(views)` pointer copies — [`Clone`], and the snapshots the serving
/// layer publishes ([`crate::snapshot`]) — and keeps value semantics by
/// copy-on-write. A write goes in place while this environment is the
/// matrix's only holder (every workload without a publisher: no copy,
/// ever); otherwise the binding first moves to a spare buffer recycled
/// from its previous copy-on-write, and only the bindings a writer touches
/// move. A sharer that holds on to an old matrix costs the writer one
/// allocation, never a wait.
///
/// Factored deltas reach a view through one write path, [`Env::fold`] and
/// its stage form [`Env::fold_stage`]. While a binding has a spare, it logs
/// the folds applied since the spare last held the live bits, so the next
/// copy-on-write brings the spare up to date by *replaying* them — the same
/// `fold_low_rank` calls on the same bits, so the result is bit-identical —
/// and pays for what the folds touch (one row per rank-1 row update)
/// rather than for a copy of the whole view. Any other write
/// ([`Env::get_mut`], [`Env::bind`], [`Env::unbind`]), a clone, a change of
/// the process-wide GEMM kernel, or a log dearer than a copy sends the next
/// copy-on-write back to a plain copy.
#[derive(Debug, Clone, Default)]
pub struct Env {
    bindings: BTreeMap<String, Slot>,
}

impl Env {
    /// An empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds (or rebinds) `name` to `value`. Whoever still shares the
    /// previous value keeps it.
    pub fn bind(&mut self, name: impl Into<String>, value: Matrix) {
        self.bindings.insert(name.into(), Slot::new(value));
    }

    /// Immutable lookup.
    pub fn get(&self, name: &str) -> Result<&Matrix> {
        self.bindings
            .get(name)
            .map(|slot| &*slot.live)
            .ok_or_else(|| RuntimeError::Unbound(name.to_string()))
    }

    /// Mutable lookup for an arbitrary write; copies the matrix first when
    /// it is shared (see the type docs), so only ask for it to write, and
    /// fold deltas through [`Env::fold`] instead.
    pub fn get_mut(&mut self, name: &str) -> Result<&mut Matrix> {
        self.bindings
            .get_mut(name)
            .map(Slot::make_mut)
            .ok_or_else(|| RuntimeError::Unbound(name.to_string()))
    }

    /// Folds the factored delta `target += u · vᵀ` — the write path every
    /// backend's view folds take — through
    /// [`linview_matrix::fold_low_rank`] (`sparse` enables its density
    /// gate; the result is bit-identical either way). Returns the fold-path
    /// accounting. A rank-0 delta is an uncounted no-op that only checks
    /// `target` exists; factors that do not fit `target` error and leave its
    /// value as it was.
    pub fn fold(
        &mut self,
        target: &str,
        u: &Matrix,
        v: &Matrix,
        sparse: bool,
    ) -> Result<SparseStats> {
        let slot = self
            .bindings
            .get_mut(target)
            .ok_or_else(|| RuntimeError::Unbound(target.to_string()))?;
        if u.cols() == 0 {
            return Ok(SparseStats::default());
        }
        Ok(SparseStats::from_path(slot.fold(
            u,
            v,
            sparse,
            default_kernel(),
        )?))
    }

    /// Folds one stage of deltas, in order, as [`Env::fold`] would. Every
    /// target is checked up front — bound, and the factors fit — so an error
    /// leaves every view untouched.
    ///
    /// Duplicate targets panic: the stage scheduler's write-after-write
    /// edges guarantee a stage never folds two deltas into one view, so a
    /// duplicate here is an internal invariant violation, not a runtime
    /// condition.
    pub fn fold_stage(&mut self, deltas: &[StageDelta], sparse: bool) -> Result<SparseStats> {
        for (i, d) in deltas.iter().enumerate() {
            assert!(
                deltas[..i].iter().all(|e| e.target != d.target),
                "duplicate environment slot '{}' folded in one stage",
                d.target
            );
            let target = self.get(&d.target)?;
            if d.u.cols() > 0 {
                check_fold(target, &d.u, &d.v)?;
            }
        }
        let kernel = default_kernel();
        let mut stats = SparseStats::default();
        for d in deltas.iter().filter(|d| d.u.cols() > 0) {
            let slot = self.bindings.get_mut(&d.target).expect("checked above");
            stats.merge(SparseStats::from_path(
                slot.fold(&d.u, &d.v, sparse, kernel)?,
            ));
        }
        Ok(stats)
    }

    /// Removes a binding, returning it if present (a copy when the matrix
    /// is still shared).
    pub fn unbind(&mut self, name: &str) -> Option<Matrix> {
        self.bindings
            .remove(name)
            .map(|slot| Arc::try_unwrap(slot.live).unwrap_or_else(|shared| Matrix::clone(&shared)))
    }

    /// True when `name` is bound.
    pub fn contains(&self, name: &str) -> bool {
        self.bindings.contains_key(name)
    }

    /// Iterates over bindings in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Matrix)> {
        self.bindings.iter().map(|(k, v)| (k.as_str(), &*v.live))
    }

    /// Iterates over bindings in name order as shareable handles: cloning
    /// the `Arc` pins that matrix as of now, and the next write through
    /// this environment goes to a copy.
    pub(crate) fn iter_shared(&self) -> impl Iterator<Item = (&str, &Arc<Matrix>)> {
        self.bindings.iter().map(|(k, v)| (k.as_str(), &v.live))
    }

    /// Number of bound matrices.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// True when nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// Total heap footprint of all bound matrices, in bytes. This is the
    /// quantity Table 3 reports ("the memory requirements … of ReevalExp
    /// and IncrExp"): live bindings only, each counted once whoever else
    /// shares it — copy-on-write spares, their fold logs and superseded
    /// snapshots are serving-layer overhead, not view state.
    pub fn memory_bytes(&self) -> usize {
        self.bindings.values().map(|s| s.live.memory_bytes()).sum()
    }

    /// Names bound in this environment (sorted).
    pub fn names(&self) -> Vec<&str> {
        self.bindings.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_get_roundtrip() {
        let mut env = Env::new();
        env.bind("A", Matrix::identity(3));
        assert_eq!(env.get("A").unwrap().shape(), (3, 3));
        assert!(matches!(env.get("B"), Err(RuntimeError::Unbound(_))));
    }

    #[test]
    fn rebind_replaces() {
        let mut env = Env::new();
        env.bind("A", Matrix::identity(3));
        env.bind("A", Matrix::zeros(2, 2));
        assert_eq!(env.get("A").unwrap().shape(), (2, 2));
        assert_eq!(env.len(), 1);
    }

    #[test]
    fn unbind_removes() {
        let mut env = Env::new();
        env.bind("A", Matrix::identity(3));
        assert!(env.unbind("A").is_some());
        assert!(env.unbind("A").is_none());
        assert!(env.is_empty());
    }

    #[test]
    fn memory_accounting_sums_views() {
        let mut env = Env::new();
        env.bind("A", Matrix::zeros(10, 10)); // 800 B
        env.bind("B", Matrix::zeros(5, 4)); // 160 B
        assert_eq!(env.memory_bytes(), 960);
    }

    /// The rank-1 delta that adds `by` to element `(r, c)` of a
    /// `rows × cols` view `target` and to nothing else.
    fn poke(
        target: &str,
        (rows, cols): (usize, usize),
        (r, c): (usize, usize),
        by: f64,
    ) -> StageDelta {
        let (mut u, mut v) = (Matrix::zeros(rows, 1), Matrix::zeros(cols, 1));
        u.set(r, 0, by);
        v.set(c, 0, 1.0);
        StageDelta {
            target: target.to_string(),
            u,
            v,
        }
    }

    #[test]
    fn fold_stage_folds_every_target_or_none() {
        let mut env = Env::new();
        env.bind("A", Matrix::zeros(2, 2));
        env.bind("B", Matrix::zeros(3, 3));
        env.bind("C", Matrix::zeros(4, 4));
        let rank0 = StageDelta {
            target: "B".into(),
            u: Matrix::zeros(3, 0),
            v: Matrix::zeros(3, 0),
        };
        let stage = [
            poke("C", (4, 4), (3, 0), 1.0),
            rank0,
            poke("A", (2, 2), (0, 1), 2.0),
        ];
        let stats = env.fold_stage(&stage, true).unwrap();
        // Rank-0 members are checked to exist, never counted or written.
        assert_eq!(stats.total_folds(), 2);
        assert_eq!(env.get("C").unwrap().get(3, 0), 1.0);
        assert_eq!(env.get("A").unwrap().get(0, 1), 2.0);
        assert_eq!(env.get("B").unwrap(), &Matrix::zeros(3, 3));

        // An unbound target or factors that do not fit, anywhere in the
        // stage, abort it before any view is written.
        let misfit = poke("B", (2, 3), (0, 0), 1.0);
        let unbound = poke("nope", (2, 2), (0, 0), 1.0);
        for bad in [misfit, unbound] {
            let stage = [poke("A", (2, 2), (0, 0), 5.0), bad];
            assert!(env.fold_stage(&stage, true).is_err());
            assert_eq!(env.get("A").unwrap().get(0, 0), 0.0);
        }
        assert!(matches!(
            env.fold_stage(&[poke("nope", (2, 2), (0, 0), 1.0)], true),
            Err(RuntimeError::Unbound(_))
        ));
        assert!(matches!(
            env.fold("A", &Matrix::zeros(3, 1), &Matrix::zeros(2, 1), true),
            Err(RuntimeError::Matrix(MatrixError::DimMismatch { .. }))
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate environment slot")]
    fn fold_stage_rejects_duplicate_targets() {
        let mut env = Env::new();
        env.bind("A", Matrix::zeros(2, 2));
        let d = poke("A", (2, 2), (0, 0), 1.0);
        let _ = env.fold_stage(&[d.clone(), d], true);
    }

    #[test]
    fn get_mut_allows_in_place_update() {
        let mut env = Env::new();
        env.bind("A", Matrix::zeros(2, 2));
        env.get_mut("A").unwrap().set(0, 0, 5.0);
        assert_eq!(env.get("A").unwrap().get(0, 0), 5.0);
    }

    /// Pins binding `name` the way a published snapshot does.
    fn share(env: &Env, name: &str) -> Arc<Matrix> {
        let (_, m) = env.iter_shared().find(|(n, _)| *n == name).unwrap();
        Arc::clone(m)
    }

    fn addr(env: &Env, name: &str) -> *const Matrix {
        env.get(name).unwrap()
    }

    #[test]
    fn clones_share_matrices_but_not_writes() {
        let mut original = Env::new();
        original.bind("A", Matrix::zeros(2, 2));
        original.bind("B", Matrix::zeros(2, 2));
        let mut copy = original.clone();
        // O(views): the clone is the same allocations until someone writes.
        assert_eq!(addr(&original, "A"), addr(&copy, "A"));

        copy.get_mut("A").unwrap().set(0, 0, 1.0);
        assert_eq!(original.get("A").unwrap().get(0, 0), 0.0);
        original.get_mut("A").unwrap().set(1, 1, 2.0);
        assert_eq!(copy.get("A").unwrap().get(1, 1), 0.0);
        assert_eq!(copy.get("A").unwrap().get(0, 0), 1.0);
        let b = [poke("B", (2, 2), (0, 1), 3.0)];
        original.fold_stage(&b, true).unwrap();
        assert_eq!(copy.get("B").unwrap().get(0, 1), 0.0);
        // The untouched side of each write kept the shared allocation.
        assert_ne!(addr(&original, "A"), addr(&copy, "A"));
        assert_ne!(addr(&original, "B"), addr(&copy, "B"));
        // Same bytes counted, however many environments share them.
        assert_eq!(original.memory_bytes(), 64);
        assert_eq!(copy.memory_bytes(), 64);
    }

    #[test]
    fn a_shared_slot_is_copied_once_then_written_in_place() {
        for many in [false, true] {
            let mut env = Env::new();
            env.bind("A", Matrix::filled(3, 3, 1.0));
            env.bind("B", Matrix::filled(3, 3, 2.0));
            let (pinned, shared_at) = (share(&env, "A"), addr(&env, "A"));
            let b_at = addr(&env, "B");
            let write = |env: &mut Env, v: f64| {
                if many {
                    let by = v - env.get("A").unwrap().get(0, 0);
                    env.fold_stage(&[poke("A", (3, 3), (0, 0), by)], true)
                        .unwrap();
                } else {
                    env.get_mut("A").unwrap().set(0, 0, v);
                }
            };
            write(&mut env, 5.0);
            let copied_at = addr(&env, "A");
            assert_ne!(copied_at, shared_at, "a shared matrix was written in place");
            assert_eq!(pinned.get(0, 0), 1.0);
            assert_eq!(env.get("A").unwrap().get(0, 0), 5.0);
            assert_eq!(env.get("A").unwrap().get(2, 2), 1.0);
            // Now unique: further writes stay where they are.
            write(&mut env, 6.0);
            assert_eq!(addr(&env, "A"), copied_at);
            assert_eq!(env.get("A").unwrap().get(0, 0), 6.0);
            assert_eq!(pinned.get(0, 0), 1.0);
            // The binding nobody wrote never moved.
            assert_eq!(addr(&env, "B"), b_at);
        }
    }

    #[test]
    fn the_spare_is_reused_when_free_and_bypassed_while_held() {
        let mut env = Env::new();
        env.bind("A", Matrix::filled(4, 4, 1.0));
        let first_at = addr(&env, "A");

        // Epoch 0 is published, written past, and released: its buffer is
        // now the slot's spare.
        let epoch0 = share(&env, "A");
        env.get_mut("A").unwrap().set(0, 0, 2.0);
        let second_at = addr(&env, "A");
        drop(epoch0);

        // The next copy-on-write lands in that buffer: two allocations
        // ping-pong, nothing new is allocated.
        let epoch1 = share(&env, "A");
        env.get_mut("A").unwrap().set(0, 0, 3.0);
        assert_eq!(addr(&env, "A"), first_at, "the free spare was not reused");
        assert_eq!(epoch1.get(0, 0), 2.0);
        assert_eq!(env.get("A").unwrap().get(0, 0), 3.0);
        assert_eq!(env.get("A").unwrap().get(3, 3), 1.0);
        drop(epoch1);
        let epoch2 = share(&env, "A");
        env.get_mut("A").unwrap().set(0, 0, 4.0);
        assert_eq!(addr(&env, "A"), second_at);

        // A reader still pins epoch 2 — the buffer that is now the spare —
        // at the next write: the writer allocates instead of waiting or
        // panicking, and the pinned matrix is never written.
        let epoch3 = share(&env, "A");
        env.get_mut("A").unwrap().set(0, 0, 5.0);
        let fresh_at = addr(&env, "A");
        assert_ne!(fresh_at, first_at, "wrote into a buffer a reader holds");
        assert_ne!(fresh_at, second_at);
        assert_eq!(epoch2.get(0, 0), 3.0);
        assert_eq!(epoch3.get(0, 0), 4.0);
        assert_eq!(env.get("A").unwrap().get(0, 0), 5.0);
    }

    #[test]
    fn a_spare_of_another_shape_is_not_reused() {
        let mut env = Env::new();
        env.bind("A", Matrix::filled(2, 2, 1.0));
        let epoch0 = share(&env, "A");
        *env.get_mut("A").unwrap() = Matrix::filled(3, 3, 7.0);
        drop(epoch0); // the 2x2 original is the (free) spare
        let epoch1 = share(&env, "A");
        env.get_mut("A").unwrap().set(0, 0, 8.0);
        assert_eq!(env.get("A").unwrap().shape(), (3, 3));
        assert_eq!(env.get("A").unwrap().get(2, 2), 7.0);
        assert_eq!(epoch1.get(0, 0), 7.0);
    }

    #[test]
    fn bind_and_unbind_leave_a_sharers_matrix_intact() {
        let mut env = Env::new();
        env.bind("A", Matrix::filled(2, 2, 1.0));
        let pinned = share(&env, "A");
        env.bind("A", Matrix::filled(3, 3, 9.0));
        assert_eq!(pinned.shape(), (2, 2));
        assert_eq!(pinned.get(1, 1), 1.0);
        assert_eq!(env.get("A").unwrap().shape(), (3, 3));
        // Writing the rebound (unshared) matrix is in place.
        let at = addr(&env, "A");
        env.get_mut("A").unwrap().set(0, 0, 4.0);
        assert_eq!(addr(&env, "A"), at);

        let pinned = share(&env, "A");
        let mut taken = env.unbind("A").unwrap();
        taken.set(0, 0, -1.0);
        assert_eq!(pinned.get(0, 0), 4.0);
        assert!(env.is_empty());
    }

    /// Bit-for-bit equality: `==` would let `-0.0` stand for `+0.0`.
    fn same_bits(a: &Matrix, b: &Matrix) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Factors of a rank-`k` delta into a `rows × cols` view: `k` basis
    /// rows of `U` (the sparse fold path) or dense random ones.
    fn factors(
        (rows, cols): (usize, usize),
        k: usize,
        sparse: bool,
        seed: u64,
    ) -> (Matrix, Matrix) {
        let v = Matrix::random_uniform(cols, k, seed + 1);
        if !sparse {
            return (Matrix::random_uniform(rows, k, seed), v);
        }
        let mut u = Matrix::zeros(rows, k);
        for c in 0..k {
            u.set((seed as usize + 5 * c) % rows, c, 0.5 + c as f64);
        }
        (u, v)
    }

    /// True when the next fold into `name` will recycle its spare by
    /// replaying the spare's log: the live matrix is shared, the spare free
    /// and the same shape, and the log known.
    fn will_replay(env: &Env, name: &str) -> bool {
        let slot = &env.bindings[name];
        Arc::strong_count(&slot.live) > 1
            && slot.spare.as_ref().is_some_and(|s| {
                Arc::strong_count(&s.buf) == 1
                    && s.buf.shape() == slot.live.shape()
                    && s.missed.is_some()
            })
    }

    /// Plants a NaN at `(0, 0)` of binding `name`'s spare, if it has a free
    /// one. A write that replays the spare's log keeps it (every fold adds
    /// onto it), a copy overwrites it, a fresh allocation never sees it.
    fn plant_nan(env: &mut Env, name: &str) {
        let slot = env.bindings.get_mut(name).unwrap();
        if let Some(buf) = slot.spare.as_mut().and_then(|s| Arc::get_mut(&mut s.buf)) {
            buf.set(0, 0, f64::NAN);
        }
    }

    #[test]
    fn replaying_the_spare_is_bit_identical_to_copying_it() {
        let n = 48;
        for sparse in [true, false] {
            for k in [0, 1, 16] {
                let what = format!("{} rank {k}", if sparse { "sparse" } else { "dense" });
                // Under the budget: every sparse log here, and a dense log
                // of rank 1; a dense rank-16 fold is dearer than a copy.
                let replays = k > 0 && (sparse || k == 1);
                let mut served = Env::new();
                served.bind("A", Matrix::random_uniform(n, n, 1));
                let mut plain = Env::new();
                plain.bind("A", Matrix::random_uniform(n, n, 1));
                let mut previous = None;
                for step in 0..6 {
                    let (u, v) = factors((n, n), k, sparse, step);
                    // Publish, then release the epoch before: the spare is
                    // free again for every fold after the first.
                    let pinned = share(&served, "A");
                    let as_published = Matrix::clone(&pinned);
                    drop(previous.replace(pinned));
                    assert_eq!(
                        will_replay(&served, "A"),
                        replays && step > 0,
                        "{what}, step {step}"
                    );
                    served.fold("A", &u, &v, sparse).unwrap();
                    plain.fold("A", &u, &v, sparse).unwrap();
                    let (served_a, plain_a) = (served.get("A").unwrap(), plain.get("A").unwrap());
                    assert!(same_bits(served_a, plain_a), "{what}, step {step}");
                    let pinned = previous.as_deref().unwrap();
                    assert!(
                        same_bits(pinned, &as_published),
                        "{what}: a pinned matrix was written"
                    );
                }
                // The path predicted is the path that ran.
                let _pinned = share(&served, "A");
                drop(previous);
                plant_nan(&mut served, "A");
                let (u, v) = factors((n, n), k, sparse, 99);
                served.fold("A", &u, &v, sparse).unwrap();
                assert_eq!(
                    served.get("A").unwrap().get(0, 0).is_nan(),
                    replays,
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn a_held_spare_falls_back_to_a_fresh_copy_and_a_new_log() {
        let n = 48;
        let fold = |served: &mut Env, plain: &mut Env, seed: u64| {
            let (u, v) = factors((n, n), 1, true, seed);
            served.fold("A", &u, &v, true).unwrap();
            plain.fold("A", &u, &v, true).unwrap();
            assert!(same_bits(served.get("A").unwrap(), plain.get("A").unwrap()));
        };
        let mut served = Env::new();
        served.bind("A", Matrix::random_uniform(n, n, 2));
        let mut plain = Env::new();
        plain.bind("A", Matrix::random_uniform(n, n, 2));
        let epoch0 = share(&served, "A");
        fold(&mut served, &mut plain, 1);
        // The spare is epoch 0's buffer, and a reader still holds it.
        let epoch1 = share(&served, "A");
        assert!(!will_replay(&served, "A"));
        fold(&mut served, &mut plain, 2);
        let fresh_at = addr(&served, "A");
        assert_ne!(
            fresh_at, &*epoch0 as *const Matrix,
            "wrote into a buffer a reader holds"
        );
        assert_ne!(fresh_at, &*epoch1 as *const Matrix);
        // The fresh copy starts a log of its own: once epoch 1 is released,
        // the next fold replays onto it.
        drop((epoch0, epoch1));
        let _epoch2 = share(&served, "A");
        assert!(will_replay(&served, "A"));
        fold(&mut served, &mut plain, 3);
    }

    /// Sets up a served `A` whose spare is free and whose log holds one
    /// fold applied under `logged`, runs `before`, then folds once more
    /// behind a fresh pin under `kernel`. Checks the result against the same
    /// writes on an environment that is never shared, and returns whether
    /// that last fold replayed the log.
    fn last_fold_replays(
        before: impl Fn(&mut Env),
        logged: GemmKernel,
        kernel: GemmKernel,
    ) -> bool {
        let n = 48;
        let run = |served: bool, plant: bool| {
            let mut env = Env::new();
            env.bind("A", Matrix::random_uniform(n, n, 3));
            let fold = |env: &mut Env, seed, kernel| {
                let (u, v) = factors(env.get("A").unwrap().shape(), 1, true, seed);
                let slot = env.bindings.get_mut("A").unwrap();
                slot.fold(&u, &v, true, kernel).unwrap();
            };
            let epoch0 = served.then(|| share(&env, "A"));
            fold(&mut env, 1, logged);
            drop(epoch0);
            before(&mut env);
            let _epoch1 = served.then(|| share(&env, "A"));
            if plant {
                plant_nan(&mut env, "A");
            }
            fold(&mut env, 2, kernel);
            env
        };
        let (served, plain) = (run(true, false), run(false, false));
        assert!(same_bits(served.get("A").unwrap(), plain.get("A").unwrap()));
        run(true, true).get("A").unwrap().get(0, 0).is_nan()
    }

    #[test]
    fn every_other_writer_sends_the_next_copy_on_write_back_to_a_copy() {
        use GemmKernel::{Naive, Packed, PackedFma};
        let replays = |before: &dyn Fn(&mut Env)| last_fold_replays(before, Packed, Packed);
        assert!(replays(&|_| {}), "the control did not replay");
        assert!(!replays(&|env| env.get_mut("A").unwrap().set(1, 1, 7.0)));
        assert!(!replays(
            &|env| env.bind("A", Matrix::random_uniform(48, 48, 4))
        ));
        assert!(!replays(&|env| {
            let m = env.unbind("A").unwrap();
            env.bind("A", m);
        }));
        assert!(!replays(&|env| *env = env.clone()));
        assert!(!replays(&|env| {
            *env.get_mut("A").unwrap() = Matrix::random_uniform(49, 49, 5);
        }));
        // A log replays only under the kernel it was applied with, and a
        // fold under the fusing kernel is never logged.
        for (logged, kernel) in [(Packed, Naive), (Packed, PackedFma), (PackedFma, PackedFma)] {
            assert!(
                !last_fold_replays(|_| {}, logged, kernel),
                "{logged} then {kernel}"
            );
        }
    }

    #[test]
    fn random_write_sequences_match_a_never_shared_env() {
        let n = 24;
        let names = ["A", "B"];
        let mut replays = 0;
        for seed in 0..24u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut below = |bound: usize| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % bound as u64) as usize
            };
            let (mut served, mut plain) = (Env::new(), Env::new());
            for (i, name) in names.into_iter().enumerate() {
                let m = Matrix::random_uniform(n, n, 10 * seed + i as u64);
                served.bind(name, m.clone());
                plain.bind(name, m);
            }
            // Snapshots pin every binding, each kept with its bits as
            // published: the latest one, and the older ones readers hold.
            type Snapshot = Vec<(Arc<Matrix>, Matrix)>;
            let capture = |env: &Env| -> Snapshot {
                let pin = |name| share(env, name);
                names
                    .map(pin)
                    .into_iter()
                    .map(|m| {
                        let bits = Matrix::clone(&m);
                        (m, bits)
                    })
                    .collect()
            };
            let mut published = capture(&served);
            let mut held: Vec<Snapshot> = Vec::new();
            for step in 0..96u64 {
                let name = names[below(2)];
                let seed = 1000 * seed + step;
                match below(10) {
                    0 | 1 => published = capture(&served),
                    2 => held.push(published.clone()),
                    3 if !held.is_empty() => drop(held.swap_remove(below(held.len()))),
                    op @ 3..=7 => {
                        let sparse = op < 6;
                        let (u, v) = factors((n, n), 1 + below(3), sparse, seed);
                        replays += usize::from(will_replay(&served, name));
                        served.fold(name, &u, &v, sparse).unwrap();
                        plain.fold(name, &u, &v, sparse).unwrap();
                    }
                    8 => {
                        let (r, c, x) = (below(n), below(n), below(100) as f64 - 50.5);
                        served.get_mut(name).unwrap().set(r, c, x);
                        plain.get_mut(name).unwrap().set(r, c, x);
                    }
                    _ => {
                        let m = Matrix::random_uniform(n, n, seed);
                        served.bind(name, m.clone());
                        plain.bind(name, m);
                    }
                }
                for name in names {
                    let (s, p) = (served.get(name).unwrap(), plain.get(name).unwrap());
                    assert!(same_bits(s, p), "seed {seed}, step {step}: {name} diverged");
                }
                for (pinned, bits) in held.iter().chain([&published]).flatten() {
                    assert!(
                        same_bits(pinned, bits),
                        "seed {seed}, step {step}: a pinned matrix was written"
                    );
                }
            }
        }
        assert!(replays >= 50, "only {replays} replays exercised");
    }
}
