//! The named-matrix environment backing program and trigger execution.

use linview_matrix::Matrix;
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::{Result, RuntimeError};

/// One binding: the matrix readers see, and the buffer the next
/// copy-on-write lands in.
#[derive(Debug)]
struct Slot {
    live: Arc<Matrix>,
    /// The `Arc` a copy-on-write last replaced. Once whoever shared it (a
    /// superseded snapshot) lets go, it is the destination of the next
    /// copy, so a touched view ping-pongs between two buffers and
    /// allocates nothing in steady state.
    spare: Option<Arc<Matrix>>,
}

impl Slot {
    fn new(value: Matrix) -> Slot {
        Slot {
            live: Arc::new(value),
            spare: None,
        }
    }

    /// The live matrix, in place when this slot is its only holder;
    /// otherwise a private copy first (into the spare when that is free and
    /// the same shape, else a fresh allocation — never a wait), with the
    /// shared original parked as the new spare.
    fn make_mut(&mut self) -> &mut Matrix {
        if Arc::get_mut(&mut self.live).is_none() {
            let recycled = self.spare.take().and_then(|mut spare| {
                let buf = Arc::get_mut(&mut spare).filter(|b| b.shape() == self.live.shape())?;
                buf.as_mut_slice().copy_from_slice(self.live.as_slice());
                Some(spare)
            });
            let copy = recycled.unwrap_or_else(|| Arc::new(Matrix::clone(&self.live)));
            self.spare = Some(std::mem::replace(&mut self.live, copy));
        }
        Arc::get_mut(&mut self.live).expect("live was unique or has just been replaced by a copy")
    }
}

impl Clone for Slot {
    /// Shares the live matrix and drops the spare: a clone never pins a
    /// buffer the original is about to recycle.
    fn clone(&self) -> Slot {
        Slot {
            live: Arc::clone(&self.live),
            spare: None,
        }
    }
}

/// A mutable binding of matrix names to values — the "database" of base
/// relations and materialized views.
///
/// Every binding is held through an `Arc`, so an `Env` can be *shared* at
/// `O(views)` pointer copies — [`Clone`], and the snapshots the serving
/// layer publishes ([`crate::snapshot`]) — and keeps value semantics by
/// copy-on-write: [`Env::get_mut`] / [`Env::get_many_mut`] hand out the
/// matrix in place while this environment is its only holder (every
/// workload without a publisher: no copy, ever) and otherwise copy it once,
/// into a per-binding spare buffer that is recycled from the previous
/// copy. Only the bindings a writer touches are copied; a sharer that
/// holds on to an old matrix costs the writer one allocation, never a wait.
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

    /// Mutable lookup; copies the matrix first when it is shared (see the
    /// type docs), so only ask for it to write.
    pub fn get_mut(&mut self, name: &str) -> Result<&mut Matrix> {
        self.bindings
            .get_mut(name)
            .map(Slot::make_mut)
            .ok_or_else(|| RuntimeError::Unbound(name.to_string()))
    }

    /// Simultaneous mutable access to several **distinct** bindings — the
    /// disjoint environment slots a staged delta application writes from
    /// worker threads. Returns the matrices in `names` order, each copied
    /// first if shared, exactly as [`Env::get_mut`] would.
    ///
    /// Missing names error with [`RuntimeError::Unbound`] before any
    /// binding is touched. Duplicate names panic: the stage scheduler's
    /// write-after-write edges guarantee a stage never folds two deltas
    /// into one view, so a duplicate here is an internal invariant
    /// violation, not a runtime condition.
    pub fn get_many_mut(&mut self, names: &[&str]) -> Result<Vec<&mut Matrix>> {
        for (i, name) in names.iter().enumerate() {
            assert!(
                !names[..i].contains(name),
                "duplicate environment slot '{name}' requested in one stage"
            );
            if !self.bindings.contains_key(*name) {
                return Err(RuntimeError::Unbound(name.to_string()));
            }
        }
        let mut slots: Vec<Option<&mut Matrix>> = names.iter().map(|_| None).collect();
        for (key, slot) in self.bindings.iter_mut() {
            if let Some(pos) = names.iter().position(|n| n == key) {
                slots[pos] = Some(slot.make_mut());
            }
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("presence checked above"))
            .collect())
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
    /// shares it — copy-on-write spares and superseded snapshots are
    /// serving-layer overhead, not view state.
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

    #[test]
    fn get_many_mut_returns_disjoint_slots_in_request_order() {
        let mut env = Env::new();
        env.bind("A", Matrix::zeros(2, 2));
        env.bind("B", Matrix::zeros(3, 3));
        env.bind("C", Matrix::zeros(4, 4));
        let slots = env.get_many_mut(&["C", "A"]).unwrap();
        assert_eq!(slots.len(), 2);
        assert_eq!(slots[0].shape(), (4, 4));
        assert_eq!(slots[1].shape(), (2, 2));
        for s in slots {
            s.set(0, 0, 1.0);
        }
        assert_eq!(env.get("A").unwrap().get(0, 0), 1.0);
        assert_eq!(env.get("B").unwrap().get(0, 0), 0.0);
        assert!(matches!(
            env.get_many_mut(&["A", "nope"]),
            Err(RuntimeError::Unbound(_))
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate environment slot")]
    fn get_many_mut_rejects_duplicates() {
        let mut env = Env::new();
        env.bind("A", Matrix::zeros(2, 2));
        let _ = env.get_many_mut(&["A", "A"]);
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
        original.get_many_mut(&["B"]).unwrap()[0].set(0, 1, 3.0);
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
                    env.get_many_mut(&["A"]).unwrap()[0].set(0, 0, v);
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
}
