//! Versioned view snapshots: the wait-free read path under live maintenance.
//!
//! The paper maintains views so they can be *read*; this module is the
//! CQRS-style separation between the write path (trigger firings inside
//! [`IncrementalView`](crate::IncrementalView) /
//! [`MaintenanceEngine`](crate::MaintenanceEngine)) and a read path that
//! never blocks it. The write path never builds a read model: every flush
//! round the maintainer finishes, it publishes an epoch-stamped
//! [`ViewSnapshot`] that *shares* the environment's matrices — one `Arc`
//! clone per binding, `O(views)` whatever their size — and swaps it in with
//! a single pointer-width store. The matrices of a published epoch are
//! never written again. The next firing's folds go through [`Env`]'s
//! copy-on-write, which gives only the views that firing touches a private
//! buffer — the one recycled from the epoch before last — so an untouched
//! input is the same allocation in every snapshot. That buffer held the
//! view's exact bits one copy-on-write ago, and [`Env::fold`] has logged
//! the factored folds applied since, so it is brought up to date by
//! replaying them (bit-identical: the same `fold_low_rank` calls on the
//! same bits) rather than by copying the whole view. A publish costs the
//! writer what those folds touch — one row per rank-1 row update — and a
//! plain copy only after an arbitrary write, or when the log would cost
//! more than the copy.
//!
//! Readers go through a cloneable [`ViewHandle`]: acquiring a snapshot is
//! one `Arc` clone under a read lock whose critical section contains no
//! allocation, no copying, and no matrix work — readers are wait-free in
//! practice and can never hold up a trigger firing (a reader that pins an
//! old snapshot costs the writer one allocation, never a wait), and every
//! snapshot is round-consistent (a reader observes a state the engine
//! actually passed through, never a torn mid-stage mixture).
//!
//! Epochs count state-changing events on the maintained view — trigger
//! firings and checkpoint restores — since serving was enabled. A handle's
//! [`ViewHandle::staleness`] is `rounds − published_epoch`: how many rounds
//! the published snapshot trails the live view, which is bounded by the
//! publish cadence (`every − 1` in steady state).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use linview_matrix::{Matrix, MatrixError};

use crate::{Env, Result, RuntimeError};

/// One immutable, epoch-stamped view of every maintained matrix (inputs
/// and views) as of a completed flush round.
///
/// A snapshot holds the environment's matrices by reference (`Arc`), not
/// copies of them. Nothing writes a matrix a snapshot holds — the live
/// environment moves a view to another buffer before its next write to
/// it — so any number of readers can hold one at zero coordination cost
/// while the engine keeps firing triggers, and consecutive snapshots share
/// every matrix the rounds between them did not touch.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewSnapshot {
    epoch: u64,
    views: BTreeMap<String, Arc<Matrix>>,
}

impl ViewSnapshot {
    fn capture(epoch: u64, env: &Env) -> ViewSnapshot {
        let views = env
            .iter_shared()
            .map(|(name, m)| (name.to_string(), Arc::clone(m)))
            .collect();
        ViewSnapshot { epoch, views }
    }

    fn empty() -> ViewSnapshot {
        ViewSnapshot {
            epoch: 0,
            views: BTreeMap::new(),
        }
    }

    /// The round count this snapshot was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Names of the matrices in the snapshot, in sorted order.
    pub fn names(&self) -> Vec<&str> {
        self.views.keys().map(String::as_str).collect()
    }

    /// A whole maintained matrix.
    pub fn get(&self, name: &str) -> Result<&Matrix> {
        self.views
            .get(name)
            .map(|m| &**m)
            .ok_or_else(|| RuntimeError::Unbound(name.to_string()))
    }

    /// Point read `view[r][c]`, bounds-checked.
    pub fn point(&self, name: &str, r: usize, c: usize) -> Result<f64> {
        Ok(self.get(name)?.try_get(r, c)?)
    }

    /// Borrow of row `r`, bounds-checked.
    pub fn row(&self, name: &str, r: usize) -> Result<&[f64]> {
        let m = self.get(name)?;
        if r >= m.rows() {
            return Err(MatrixError::OutOfBounds {
                index: (r, 0),
                shape: m.shape(),
            }
            .into());
        }
        Ok(m.row(r))
    }

    /// Copy of the `h × w` block at `(r0, c0)`, bounds-checked.
    pub fn submatrix(
        &self,
        name: &str,
        r0: usize,
        c0: usize,
        h: usize,
        w: usize,
    ) -> Result<Matrix> {
        Ok(self.get(name)?.submatrix(r0, c0, h, w)?)
    }
}

/// State shared between the maintainer-side publisher and every handle.
#[derive(Debug)]
struct Shared {
    /// The latest published snapshot. The lock guards only the `Arc`
    /// pointer: readers clone it, the publisher swaps it — the snapshot's
    /// name → matrix map is built outside the lock.
    current: RwLock<Arc<ViewSnapshot>>,
    /// Epoch of the snapshot in `current`, mirrored for lock-free
    /// `epoch()` / `staleness()` queries.
    published: AtomicU64,
    /// Rounds (firings + restores) applied to the live view so far.
    rounds: AtomicU64,
}

/// The maintainer-side half of the serving layer: owned by
/// [`IncrementalView`](crate::IncrementalView), it counts flush rounds and
/// publishes a fresh [`ViewSnapshot`] every `every` rounds.
///
/// Cloning shares the published state (clones of a serving view publish to
/// the same readers).
#[derive(Debug, Clone)]
pub struct SnapshotPublisher {
    shared: Arc<Shared>,
    every: u64,
}

impl SnapshotPublisher {
    /// A publisher that re-publishes every `every` completed rounds
    /// (`0` behaves like `1`: publish after every round). The initial
    /// snapshot is empty until the first [`SnapshotPublisher::publish`].
    pub fn new(every: u64) -> SnapshotPublisher {
        SnapshotPublisher {
            shared: Arc::new(Shared {
                current: RwLock::new(Arc::new(ViewSnapshot::empty())),
                published: AtomicU64::new(0),
                rounds: AtomicU64::new(0),
            }),
            every: every.max(1),
        }
    }

    /// A reader handle onto the published snapshots. Cheap; clone freely
    /// across threads.
    pub fn handle(&self) -> ViewHandle {
        ViewHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The publish cadence in rounds.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Publishes `env` as of the current round count: shares every binding
    /// into a new snapshot (`O(views)` pointer copies and one small map,
    /// before the lock is taken) and swaps it in; the write lock is held
    /// only for the pointer swap. No matrix is copied here — the next write
    /// to a published view pays inside [`Env`] for bringing a recycled
    /// buffer up to date (a replay of the folds it missed, or a copy).
    pub fn publish(&self, env: &Env) {
        let epoch = self.shared.rounds.load(Ordering::Acquire);
        let snap = Arc::new(ViewSnapshot::capture(epoch, env));
        let superseded = {
            let mut slot = self
                .shared
                .current
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            let superseded = std::mem::replace(&mut *slot, snap);
            self.shared.published.store(epoch, Ordering::Release);
            superseded
        };
        // Dropped outside the lock. Unless a reader still pins it, this is
        // the last outside reference to the matrices the environment parked
        // as copy-on-write spares, which makes them reusable.
        drop(superseded);
    }

    /// Records one completed flush round and republishes when the cadence
    /// (or `force`, e.g. after a restore) says so.
    pub fn round_completed(&self, env: &Env, force: bool) {
        let rounds = self.shared.rounds.fetch_add(1, Ordering::AcqRel) + 1;
        let published = self.shared.published.load(Ordering::Acquire);
        if force || rounds - published >= self.every {
            self.publish(env);
        }
    }
}

/// A cloneable, thread-safe reader onto the published snapshots of one
/// maintained view.
///
/// All reads are against the latest *published* snapshot; use
/// [`ViewHandle::staleness`] to see how far it trails the live view.
#[derive(Debug, Clone)]
pub struct ViewHandle {
    shared: Arc<Shared>,
}

impl ViewHandle {
    /// The latest published snapshot. One `Arc` clone under a read lock —
    /// no copying, no allocation — so this never blocks maintenance.
    pub fn snapshot(&self) -> Arc<ViewSnapshot> {
        Arc::clone(
            &self
                .shared
                .current
                .read()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// Epoch of the latest published snapshot (lock-free).
    pub fn epoch(&self) -> u64 {
        self.shared.published.load(Ordering::Acquire)
    }

    /// Rounds the live view has completed (lock-free).
    pub fn rounds(&self) -> u64 {
        self.shared.rounds.load(Ordering::Acquire)
    }

    /// How many rounds the published snapshot trails the live view, in
    /// rounds-behind. Bounded by `publish cadence − 1` in steady state.
    pub fn staleness(&self) -> u64 {
        let rounds = self.rounds();
        rounds.saturating_sub(self.epoch())
    }

    /// Point read against the latest snapshot.
    pub fn point(&self, name: &str, r: usize, c: usize) -> Result<f64> {
        self.snapshot().point(name, r, c)
    }

    /// Row copy against the latest snapshot.
    pub fn row(&self, name: &str, r: usize) -> Result<Vec<f64>> {
        Ok(self.snapshot().row(name, r)?.to_vec())
    }

    /// Submatrix copy against the latest snapshot.
    pub fn submatrix(
        &self,
        name: &str,
        r0: usize,
        c0: usize,
        h: usize,
        w: usize,
    ) -> Result<Matrix> {
        self.snapshot().submatrix(name, r0, c0, h, w)
    }
}

/// What one closed-loop reader observed: read counts, sampled latencies,
/// the worst staleness it saw, and whether epochs were monotone.
#[derive(Debug, Clone, Default)]
pub struct ReaderReport {
    /// Snapshot reads performed (each read = acquire snapshot + one
    /// point/row/submatrix access).
    pub reads: u64,
    /// Worst `staleness()` observed across all reads.
    pub max_staleness: u64,
    /// Whether every observed epoch was ≥ the previous one. Snapshots are
    /// swapped atomically, so a non-monotone sequence is a serving bug.
    pub epochs_monotone: bool,
    /// Sampled per-read latencies in nanoseconds (every read up to 65 536
    /// samples, then every 32nd).
    pub latencies_ns: Vec<u64>,
}

impl ReaderReport {
    /// Folds another reader's report into this one.
    pub fn merge(&mut self, other: &ReaderReport) {
        self.reads += other.reads;
        self.max_staleness = self.max_staleness.max(other.max_staleness);
        self.epochs_monotone &= other.epochs_monotone;
        self.latencies_ns.extend_from_slice(&other.latencies_ns);
    }
}

/// The `p`-th percentile (0–100) of `samples`, in place; 0 when empty.
pub fn percentile_ns(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * (samples.len() - 1) as f64).round() as usize;
    samples[rank.min(samples.len() - 1)]
}

/// Cap on per-reader latency samples before decimation kicks in.
const LATENCY_SAMPLE_CAP: usize = 65_536;

/// A closed-loop population of reader threads hammering one
/// [`ViewHandle`] with a rotating point/row/submatrix mix until stopped.
///
/// Shared by `linview serve`, the serving bench table, and the stress
/// tests, so all three measure the same read loop.
#[derive(Debug)]
pub struct ReaderPool {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<ReaderReport>>,
}

impl ReaderPool {
    /// Spawns `readers` threads over clones of `handle`. Each thread reads
    /// the views named in `views` (when empty, whatever the first observed
    /// snapshot contains) in a deterministic rotation of point, row, and
    /// submatrix accesses.
    pub fn spawn(handle: &ViewHandle, readers: usize, views: &[String]) -> ReaderPool {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..readers)
            .map(|id| {
                let handle = handle.clone();
                let stop = Arc::clone(&stop);
                let views = views.to_vec();
                std::thread::spawn(move || reader_loop(id, &handle, &stop, views))
            })
            .collect();
        ReaderPool { stop, threads }
    }

    /// Signals every reader to finish and collects their reports. Readers
    /// whose thread panicked yield a report with `epochs_monotone: false`.
    pub fn stop(self) -> Vec<ReaderReport> {
        self.stop.store(true, Ordering::Release);
        self.threads
            .into_iter()
            .map(|t| {
                t.join().unwrap_or(ReaderReport {
                    reads: 0,
                    max_staleness: 0,
                    epochs_monotone: false,
                    latencies_ns: Vec::new(),
                })
            })
            .collect()
    }
}

fn reader_loop(
    id: usize,
    handle: &ViewHandle,
    stop: &AtomicBool,
    mut views: Vec<String>,
) -> ReaderReport {
    let mut report = ReaderReport {
        epochs_monotone: true,
        ..ReaderReport::default()
    };
    let mut last_epoch = 0u64;
    let mut i = id as u64; // desynchronize the rotation across readers
    while !stop.load(Ordering::Acquire) {
        let start = Instant::now();
        let snap = handle.snapshot();
        if views.is_empty() {
            views = snap.names().iter().map(|s| s.to_string()).collect();
            if views.is_empty() {
                continue; // nothing published yet
            }
        }
        let name = &views[(i % views.len() as u64) as usize];
        if let Ok(m) = snap.get(name) {
            let (rows, cols) = m.shape();
            if rows > 0 && cols > 0 {
                let r = (i % rows as u64) as usize;
                let c = (i % cols as u64) as usize;
                let touched = match i % 3 {
                    0 => m.get(r, c),
                    1 => m.row(r).iter().sum::<f64>(),
                    _ => {
                        let h = 4.min(rows - r);
                        let w = 4.min(cols - c);
                        m.submatrix(r, c, h, w)
                            .map(|b| b.as_slice().iter().sum::<f64>())
                            .unwrap_or(0.0)
                    }
                };
                std::hint::black_box(touched);
            }
        }
        let epoch = snap.epoch();
        if epoch < last_epoch {
            report.epochs_monotone = false;
        }
        last_epoch = epoch;
        report.max_staleness = report.max_staleness.max(handle.staleness());
        report.reads += 1;
        let lat = start.elapsed().as_nanos() as u64;
        if report.latencies_ns.len() < LATENCY_SAMPLE_CAP || report.reads.is_multiple_of(32) {
            if report.latencies_ns.len() < LATENCY_SAMPLE_CAP {
                report.latencies_ns.push(lat);
            } else {
                let slot = (report.reads % LATENCY_SAMPLE_CAP as u64) as usize;
                report.latencies_ns[slot] = lat;
            }
        }
        i += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_with(n: usize, seed: u64) -> Env {
        let mut env = Env::new();
        env.bind("A", Matrix::random_uniform(n, n, seed));
        env.bind("B", Matrix::random_uniform(n, n, seed + 1));
        env
    }

    #[test]
    fn snapshots_are_immutable_and_epoch_stamped() {
        let publisher = SnapshotPublisher::new(1);
        let handle = publisher.handle();
        assert_eq!(handle.epoch(), 0);
        assert_eq!(handle.staleness(), 0);

        let env = env_with(4, 1);
        publisher.publish(&env);
        let first = handle.snapshot();
        assert_eq!(first.epoch(), 0);
        assert_eq!(first.get("A").unwrap(), env.get("A").unwrap());

        let env2 = env_with(4, 9);
        publisher.round_completed(&env2, false);
        let second = handle.snapshot();
        assert_eq!(second.epoch(), 1);
        assert_eq!(handle.epoch(), 1);
        // The old snapshot is untouched by the new publication.
        assert_eq!(first.get("A").unwrap(), env.get("A").unwrap());
        assert_eq!(second.get("A").unwrap(), env2.get("A").unwrap());
    }

    #[test]
    fn cadence_bounds_staleness() {
        let publisher = SnapshotPublisher::new(3);
        let handle = publisher.handle();
        let env = env_with(3, 2);
        publisher.publish(&env);
        for round in 1..=7 {
            publisher.round_completed(&env, false);
            assert!(
                handle.staleness() < 3,
                "staleness {} at round {round} exceeds cadence",
                handle.staleness()
            );
        }
        // Rounds 3 and 6 published; round 7 is one behind.
        assert_eq!(handle.epoch(), 6);
        assert_eq!(handle.staleness(), 1);
    }

    #[test]
    fn reads_are_bounds_checked_and_named() {
        let publisher = SnapshotPublisher::new(1);
        let env = env_with(4, 3);
        publisher.publish(&env);
        let handle = publisher.handle();
        assert_eq!(
            handle.point("A", 1, 2).unwrap(),
            env.get("A").unwrap().get(1, 2)
        );
        assert_eq!(handle.row("B", 3).unwrap(), env.get("B").unwrap().row(3));
        let block = handle.submatrix("A", 1, 1, 2, 2).unwrap();
        assert_eq!(block.get(0, 0), env.get("A").unwrap().get(1, 1));
        assert!(handle.point("A", 9, 0).is_err());
        assert!(handle.row("A", 9).is_err());
        assert!(handle.submatrix("A", 3, 3, 4, 4).is_err());
        assert!(matches!(
            handle.point("nope", 0, 0),
            Err(RuntimeError::Unbound(_))
        ));
        assert_eq!(handle.snapshot().names(), vec!["A", "B"]);
    }

    #[test]
    fn reader_pool_reads_and_observes_monotone_epochs() {
        let publisher = SnapshotPublisher::new(1);
        let env = env_with(8, 4);
        publisher.publish(&env);
        let handle = publisher.handle();
        let pool = ReaderPool::spawn(&handle, 3, &["A".to_string(), "B".to_string()]);
        for _ in 0..50 {
            publisher.round_completed(&env, false);
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        let reports = pool.stop();
        assert_eq!(reports.len(), 3);
        let mut total = ReaderReport {
            epochs_monotone: true,
            ..ReaderReport::default()
        };
        for r in &reports {
            total.merge(r);
        }
        assert!(total.reads > 0, "readers must make progress");
        assert!(total.epochs_monotone, "epochs regressed");
        assert!(!total.latencies_ns.is_empty());
        let p50 = percentile_ns(&mut total.latencies_ns.clone(), 50.0);
        let p99 = percentile_ns(&mut total.latencies_ns, 99.0);
        assert!(p99 >= p50);
    }

    #[test]
    fn percentiles_handle_edges() {
        assert_eq!(percentile_ns(&mut [], 50.0), 0);
        assert_eq!(percentile_ns(&mut [7], 99.0), 7);
        let mut xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&mut xs, 0.0), 1);
        assert_eq!(percentile_ns(&mut xs, 100.0), 100);
    }
}
