//! Streaming view maintenance: batched multi-input ingestion on top of any
//! execution backend.
//!
//! The paper's workload is "a continuous random stream of rank-1 updates"
//! (§7), and its Table 4 shows that firing one rank-`k` trigger per *batch*
//! beats `k` rank-1 firings whenever updates share structure (skewed row
//! distributions compact to far fewer distinct rows). [`MaintenanceEngine`]
//! operationalizes that: it ingests `(input, update)` events across
//! **multiple** dynamic inputs, buffers them per input, coalesces each
//! buffer into one [`BatchUpdate`] under a configurable [`FlushPolicy`],
//! and fires the compiled trigger through the view's
//! [`crate::ExecBackend`] — accumulating unified refresh
//! ([`RefreshStats`]) and communication ([`CommSnapshot`]) accounting as it
//! goes.
//!
//! Batched ingestion is *exact*: triggers are rank-generic, so one rank-`k`
//! firing folds the same delta as `k` sequential rank-1 firings (the
//! property the engine's tests assert against full re-evaluation).
//!
//! When a flush round covers every dynamic input, the engine goes one step
//! further and fires ONE *joint* trigger (§4.4) for all of them via
//! [`IncrementalView::apply_joint`] — saving `inputs − 1` firings per
//! round, with the savings reported in [`EngineStats::joint_rounds`] /
//! [`EngineStats::triggers_saved`].

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use linview_dist::CommSnapshot;
use linview_matrix::Matrix;

use crate::checkpoint::CheckpointError;
use crate::stats::{measure, RefreshStats, StatsAccumulator};
use crate::store::CheckpointStore;
use crate::updates::{BatchUpdate, RankOneUpdate};
use crate::wal::FiringRecord;
use crate::{Env, ExecBackend, IncrementalView, LocalBackend, Result, SparseStats};

/// Relative singular-value tolerance for the pre-flush rank compression
/// pass: components of a coalesced batch below `1e-12 · σ_max` are noise
/// at `f64` working precision and are dropped before the factors are
/// folded (and, on communicating backends, broadcast).
const RECOMPRESS_TOL: f64 = 1e-12;

/// When a per-input buffer of pending rank-1 events is coalesced and fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Fire on every ingested event (no batching; the §7 baseline).
    Immediate,
    /// Flush an input once it has buffered this many rank-1 events
    /// (values `< 1` behave like [`FlushPolicy::Immediate`]).
    Count(usize),
    /// Flush an input once the *effective rank* of its pending buffer —
    /// distinct rows touched by row updates, plus one per dense update —
    /// reaches this threshold. Under a skewed stream this admits long
    /// cheap batches (Table 4's regime) while bounding trigger cost.
    Rank(usize),
}

impl FlushPolicy {
    fn should_flush(&self, pending: &PendingBuffer) -> bool {
        match *self {
            FlushPolicy::Immediate => true,
            FlushPolicy::Count(c) => pending.len() >= c.max(1),
            FlushPolicy::Rank(r) => pending.effective_rank() >= r.max(1),
        }
    }
}

/// One input's buffered events, with the effective rank maintained
/// incrementally (O(n) per push via [`RankOneUpdate::basis_row`] — the
/// same classification `compact_rows` applies at flush time) so the
/// [`FlushPolicy::Rank`] check never rescans the buffer.
#[derive(Debug, Clone, Default)]
struct PendingBuffer {
    events: Vec<RankOneUpdate>,
    /// Distinct rows touched by row updates.
    rows: std::collections::BTreeSet<usize>,
    /// Dense (non-basis) updates, each contributing one rank.
    dense: usize,
}

impl PendingBuffer {
    fn push(&mut self, upd: RankOneUpdate) {
        match upd.basis_row() {
            Some(r) => {
                self.rows.insert(r);
            }
            None => self.dense += 1,
        }
        self.events.push(upd);
    }

    fn len(&self) -> usize {
        self.events.len()
    }

    /// Upper bound on the rank the buffer compacts to: distinct rows
    /// touched by row updates, plus one per dense update.
    fn effective_rank(&self) -> usize {
        self.rows.len() + self.dense
    }
}

/// Ingestion and firing counters, with per-firing refresh measurements.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Rank-1 events ingested (across all inputs).
    pub events: u64,
    /// Trigger firings performed (one per flushed non-empty buffer, and
    /// one per joint flush round).
    pub firings: u64,
    /// Total coalesced rank fired; `fired_rank < events` measures how much
    /// work row compaction saved.
    pub fired_rank: u64,
    /// Joint flush rounds performed: [`MaintenanceEngine::flush_all`]
    /// rounds where every joint-trigger input had pending events and ONE
    /// joint firing (§4.4) replaced the per-input sequence.
    pub joint_rounds: u64,
    /// Per-input trigger firings avoided by joint rounds (inputs covered
    /// minus one, summed over rounds) — the flush loop's §4.4 savings.
    pub triggers_saved: u64,
    /// Trigger statements executed across all firings.
    pub stmts: u64,
    /// Execution stages those statements were grouped into by the
    /// compile-time dependency DAG (equals `stmts` when running with
    /// [`ExecOptions::sequential`](crate::ExecOptions) or for
    /// chain-dependent triggers).
    pub stages: u64,
    /// View writes folded through stage barriers across all firings; in
    /// debug builds each was asserted against the statically-proved effect
    /// sets (see `FiringReport::writes`).
    pub writes: u64,
    /// Factor broadcasts that overlapped an earlier broadcast of the same
    /// stage on the wire (dist/threaded backends; always 0 on local).
    pub overlapped_broadcasts: u64,
    /// Sparse-execution counters accumulated across firings: fold-path
    /// choices, compressed broadcast frames and the bytes they saved, plus
    /// the rank shed by the engine's pre-flush recompression pass.
    pub sparse: SparseStats,
    /// Wall-time + FLOP totals over every firing.
    pub refresh: StatsAccumulator,
}

impl EngineStats {
    /// Mean refresh cost per firing.
    pub fn mean_refresh(&self) -> RefreshStats {
        RefreshStats {
            wall: self.refresh.mean_wall(),
            flops: self.refresh.mean_flops() as u64,
        }
    }

    /// Statements that ran inside an already-open stage instead of
    /// lengthening the critical path — the staged scheduler's savings.
    pub fn stmts_saved(&self) -> u64 {
        self.stmts - self.stages
    }
}

/// Fault-tolerance counters: what checkpointing cost and what recovery
/// moved.
///
/// The communication triple (`aborted`/`reinstall`/`replay`) partitions
/// every byte a *disturbed* run sends beyond its undisturbed twin, so the
/// conformance suite can reconcile meters exactly:
/// `disturbed.comm == undisturbed.comm + aborted + reinstall + replay`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Snapshots taken (one at enable time, then every `N` firings).
    pub checkpoints: u64,
    /// Firings appended to the delta log since checkpointing was enabled.
    pub logged_firings: u64,
    /// [`MaintenanceEngine::recover`] invocations.
    pub recoveries: u64,
    /// Logged firings re-fired during recoveries.
    pub replayed_firings: u64,
    /// Total rank those replayed firings folded.
    pub replayed_rank: u64,
    /// Broadcast bytes spent on firings that failed and were rolled back.
    pub aborted_bytes: u64,
    /// Broadcast messages of those aborted firings.
    pub aborted_msgs: u64,
    /// Bytes moved re-installing the checkpoint snapshot on the workers.
    pub reinstall_bytes: u64,
    /// Messages of those re-installs.
    pub reinstall_msgs: u64,
    /// Bytes moved replaying the delta log after a re-install.
    pub replay_bytes: u64,
    /// Messages of those replays.
    pub replay_msgs: u64,
}

impl RecoveryStats {
    /// All recovery-attributable traffic: aborted + reinstall + replay.
    pub fn overhead_bytes(&self) -> u64 {
        self.aborted_bytes + self.reinstall_bytes + self.replay_bytes
    }

    /// All recovery-attributable messages.
    pub fn overhead_msgs(&self) -> u64 {
        self.aborted_msgs + self.reinstall_msgs + self.replay_msgs
    }
}

/// What [`MaintenanceEngine::recover_from_disk`] found and replayed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskRecovery {
    /// Complete WAL records replayed on top of the snapshot.
    pub replayed_firings: u64,
    /// Bytes of a cleanly torn WAL tail (a crash mid-append) that were
    /// detected, discarded, and truncated from the file. Zero for an
    /// intact log; callers should log a warning when nonzero.
    pub torn_tail_bytes: u64,
}

/// A streaming maintenance engine over an [`IncrementalView`].
///
/// Reads ([`MaintenanceEngine::get`]) observe only *flushed* state; call
/// [`MaintenanceEngine::flush_all`] (or use [`FlushPolicy::Immediate`])
/// before reading when every ingested event must be visible.
///
/// # Fault tolerance
///
/// With [`MaintenanceEngine::enable_checkpointing`] the engine snapshots
/// the full environment every `N` firings and logs the factored deltas of
/// every firing in between ([`crate::wal`]). After a backend failure — a
/// dead worker, a torn connection — [`MaintenanceEngine::recover`]
/// restores the snapshot (reviving dead transport peers) and replays the
/// log; because triggers are deterministic in the environment and the
/// update factors, the recovered state is **bit-identical** to the
/// pre-crash state, and the retried flush then proceeds exactly as an
/// undisturbed run would have.
#[derive(Debug, Clone)]
pub struct MaintenanceEngine<B: ExecBackend = LocalBackend> {
    view: IncrementalView<B>,
    policy: FlushPolicy,
    pending: BTreeMap<String, PendingBuffer>,
    stats: EngineStats,
    /// Snapshot + firing log; `None` until checkpointing is enabled.
    store: Option<CheckpointStore>,
    /// Backend communication at the last successful firing or restore;
    /// what `recover` meters past it was spent on the aborted firing.
    comm_at_last_success: CommSnapshot,
    recovery: RecoveryStats,
}

impl<B: ExecBackend> MaintenanceEngine<B> {
    /// Wraps an already-built view.
    pub fn new(view: IncrementalView<B>, policy: FlushPolicy) -> Self {
        MaintenanceEngine {
            view,
            policy,
            pending: BTreeMap::new(),
            stats: EngineStats::default(),
            store: None,
            comm_at_last_success: CommSnapshot::default(),
            recovery: RecoveryStats::default(),
        }
    }

    /// Turns on checkpoint/replay fault tolerance: snapshots the current
    /// environment immediately, then re-snapshots after every `every`
    /// logged firings, keeping a delta log of the firings in between.
    /// `every = 0` behaves like `1` (snapshot after every firing).
    ///
    /// Call it *after* the view is materialized and before streaming; the
    /// snapshot taken here is the recovery floor.
    pub fn enable_checkpointing(&mut self, every: usize) -> Result<()> {
        let snapshot = self.view.checkpoint()?;
        self.install(CheckpointStore::memory(every, snapshot));
        Ok(())
    }

    /// As [`MaintenanceEngine::enable_checkpointing`], but keeps the
    /// snapshot and the delta log only on disk under `dir` (created if
    /// absent; any previous state there is overwritten). After a *process*
    /// crash a fresh engine over the same program resumes bit-identically
    /// with [`MaintenanceEngine::recover_from_disk`]. The WAL is written,
    /// not synced: it survives a process crash, not a power loss.
    pub fn enable_durable_checkpointing(
        &mut self,
        every: usize,
        dir: impl AsRef<Path>,
    ) -> Result<()> {
        let store = CheckpointStore::dir(every, dir.as_ref(), 0, self.view.env())?;
        self.install(store);
        Ok(())
    }

    fn install(&mut self, store: CheckpointStore) {
        self.store = Some(store);
        self.comm_at_last_success = self.view.comm();
        self.recovery.checkpoints += 1;
    }

    /// Path of the live on-disk WAL, when durable checkpointing is on.
    pub fn durable_wal_path(&self) -> Option<PathBuf> {
        self.store.as_ref()?.wal_path().map(Path::to_path_buf)
    }

    /// Restores the on-disk checkpoint under `dir` and replays its WAL,
    /// then starts a fresh generation (cadence `every`) covering the
    /// recovered state — [`MaintenanceEngine::recover`] for when the whole
    /// process died. A *cleanly torn* WAL tail (a crash mid-append) is
    /// dropped, truncated away and reported in
    /// [`DiskRecovery::torn_tail_bytes`]. Mid-file corruption and a missing
    /// WAL for the snapshot's generation are typed
    /// [`RuntimeError::Checkpoint`](crate::RuntimeError)s: silently
    /// skipping folded state would diverge the views.
    pub fn recover_from_disk(
        &mut self,
        every: usize,
        dir: impl AsRef<Path>,
    ) -> Result<DiskRecovery> {
        let dir = dir.as_ref();
        let (gen, snapshot, records, torn_tail_bytes) = crate::store::load_dir(dir)?;
        self.replay(snapshot, &records)?;
        // Roll a fresh generation covering the recovered state so the
        // replay work is never paid twice.
        let store = CheckpointStore::dir(every, dir, gen + 1, self.view.env())?;
        self.install(store);
        Ok(DiskRecovery {
            replayed_firings: records.len() as u64,
            torn_tail_bytes,
        })
    }

    /// Checkpoint/recovery counters (all zero until
    /// [`MaintenanceEngine::enable_checkpointing`]).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Restores the last checkpoint and replays the delta log, returning
    /// the engine to the exact state after the last successful firing —
    /// the recovery path for backend failures (a killed worker, a torn
    /// socket). Replay is bit-identical because triggers are deterministic.
    /// Pending buffers are untouched: re-issue the failed
    /// [`MaintenanceEngine::flush`] / [`MaintenanceEngine::flush_all`]
    /// afterwards. A durable engine reads its directory back.
    ///
    /// Errors if checkpointing was never enabled, if a failed log append
    /// left the log short of the views (until the next firing rolls a
    /// fresh checkpoint), or if the backend is still unreachable
    /// (recovery can be retried).
    pub fn recover(&mut self) -> Result<()> {
        let store = self.store.as_ref().ok_or_else(|| {
            CheckpointError::new("recover() without enable_checkpointing(): no snapshot to restore")
        })?;
        let (_, snapshot, records, _) = store.load()?;
        // Whatever was metered past the last success was spent on work
        // recovery is about to discard.
        let comm_now = self.view.comm();
        let last = self.comm_at_last_success;
        self.recovery.aborted_bytes += comm_now.total_bytes() - last.total_bytes();
        self.recovery.aborted_msgs += comm_now.total_msgs() - last.total_msgs();
        self.replay(snapshot, &records)
    }

    /// Restores `snapshot` and re-fires `records` in firing order — the
    /// replay shared by [`MaintenanceEngine::recover`] and
    /// [`MaintenanceEngine::recover_from_disk`]. The restore checks the
    /// snapshot against the view, then re-materializes through the backend,
    /// which revives dead peers before re-installing.
    fn replay(&mut self, snapshot: Env, records: &[FiringRecord]) -> Result<()> {
        let before_restore = self.view.comm();
        self.view.restore_env(snapshot)?;
        let after_restore = self.view.comm();
        self.recovery.reinstall_bytes += after_restore.total_bytes() - before_restore.total_bytes();
        self.recovery.reinstall_msgs += after_restore.total_msgs() - before_restore.total_msgs();
        for record in records {
            fire(&mut self.view, record)?;
            self.recovery.replayed_firings += 1;
            self.recovery.replayed_rank += record.rank();
        }
        let after_replay = self.view.comm();
        self.recovery.replay_bytes += after_replay.total_bytes() - after_restore.total_bytes();
        self.recovery.replay_msgs += after_replay.total_msgs() - after_restore.total_msgs();
        self.recovery.recoveries += 1;
        self.comm_at_last_success = after_replay;
        Ok(())
    }

    /// Buffers one rank-1 event against `input`, flushing that input's
    /// buffer when the policy says so.
    pub fn ingest(&mut self, input: &str, upd: RankOneUpdate) -> Result<()> {
        self.stats.events += 1;
        let buf = self.pending.entry(input.to_string()).or_default();
        buf.push(upd);
        if self.policy.should_flush(buf) {
            self.flush(input)?;
        }
        Ok(())
    }

    /// Coalesces and fires `input`'s pending buffer (a no-op when empty).
    /// The buffer is compacted to distinct rows first, so a Zipf-skewed
    /// batch fires at its *effective* rank.
    ///
    /// Until the firing succeeds the events are retained, so a failed
    /// flush (an unknown input, a shape mismatch, a dead worker) never
    /// silently discards them. Once it succeeded the buffer is consumed,
    /// even if logging it then fails: a retry would fold it twice.
    pub fn flush(&mut self, input: &str) -> Result<()> {
        self.flush_round(&[input.to_string()])
    }

    /// Flushes every pending buffer: when every input of the compiled
    /// joint trigger (at least two) has pending events, all of them are
    /// coalesced and folded by ONE joint firing (§4.4); whatever remains
    /// (inputs outside the joint set, or a round that could not go joint)
    /// is flushed one input at a time in input-name order.
    pub fn flush_all(&mut self) -> Result<()> {
        let joint = self.view.joint_inputs().filter(|j| j.len() >= 2);
        if let Some(joint) = joint.map(<[String]>::to_vec) {
            self.flush_round(&joint)?;
        }
        let inputs: Vec<String> = self.pending.keys().cloned().collect();
        for input in inputs {
            self.flush(&input)?;
        }
        Ok(())
    }

    /// One flush round over one input or the whole joint set: fires ONE
    /// trigger for the coalesced, recompressed buffers, or nothing if a
    /// buffer is missing or cancels out (a lone cancelled buffer is
    /// dropped), then consumes the buffers and logs what it fired.
    fn flush_round(&mut self, inputs: &[String]) -> Result<()> {
        let mut updates = Vec::with_capacity(inputs.len());
        for input in inputs {
            let Some(buf) = self.pending.get(input) else {
                return Ok(());
            };
            let batch = BatchUpdate::from_rank_ones(&buf.events)?.compact_rows()?;
            if batch.rank() == 0 {
                if inputs.len() == 1 {
                    self.pending.remove(input);
                }
                return Ok(());
            }
            let batch = self.recompress_batch(batch)?;
            updates.push((input.clone(), batch.u, batch.v));
        }
        // Exactly what is fired (post-compaction, post-recompress) is what
        // gets logged, so replay re-folds the identical factors.
        let record = FiringRecord {
            joint: inputs.len() > 1,
            updates,
        };
        let sched_before = self.view.sched_stats();
        let sparse_before = self.view.sparse_stats();
        let overlap_before = self.view.backend().sched();
        let (result, refresh) = measure(|| fire(&mut self.view, &record));
        result?;
        let sched = self.view.sched_stats();
        self.stats.stmts += sched.stmts - sched_before.stmts;
        self.stats.stages += sched.stages - sched_before.stages;
        self.stats.writes += sched.writes - sched_before.writes;
        self.stats.overlapped_broadcasts +=
            self.view.backend().sched().overlapped - overlap_before.overlapped;
        let sparse = self.view.sparse_stats().since(sparse_before);
        self.stats.sparse.merge(sparse);
        for input in inputs {
            self.pending.remove(input);
        }
        self.stats.firings += 1;
        self.stats.fired_rank += record.rank();
        self.stats.refresh.record(refresh);
        if record.joint {
            self.stats.joint_rounds += 1;
            self.stats.triggers_saved += inputs.len() as u64 - 1;
        }
        let Some(store) = self.store.as_mut() else {
            return Ok(());
        };
        self.comm_at_last_success = self.view.comm();
        store.log(record, &mut self.recovery, self.view.env())
    }

    /// Rank-compresses a coalesced batch before it is fired (relative
    /// tolerance [`RECOMPRESS_TOL`]). The compressed factors replace the
    /// batch only when the SVD pass proves a *strictly smaller* numerical
    /// rank — its output is dense, so accepting a same-rank result would
    /// densify sparse basis factors for no gain. Runs unconditionally
    /// (never gated on the sparse-fold knob) so sparse and forced-dense
    /// executions fold identical deltas. A batch whose `k×k` Gram matrices
    /// already prove it comfortably full rank — the common case for
    /// coalesced row updates — skips the SVD pass, which could only have
    /// confirmed the rank and been discarded.
    fn recompress_batch(&mut self, batch: BatchUpdate) -> Result<BatchUpdate> {
        if batch.rank() < 2 || linview_matrix::keeps_full_rank(&batch.u, &batch.v, RECOMPRESS_TOL)?
        {
            return Ok(batch);
        }
        let rc = linview_matrix::recompress(&batch.u, &batch.v, RECOMPRESS_TOL)?;
        if rc.rank_after < rc.rank_before {
            let saved = (rc.rank_before - rc.rank_after) as u64;
            let rebuilt = BatchUpdate::new(rc.u, rc.v)?;
            self.stats.sparse.rank_saved += saved;
            return Ok(rebuilt);
        }
        Ok(batch)
    }

    /// Pending (buffered, not yet fired) events for `input`.
    pub fn pending_events(&self, input: &str) -> usize {
        self.pending.get(input).map_or(0, PendingBuffer::len)
    }

    /// Pending events across all inputs.
    pub fn pending_total(&self) -> usize {
        self.pending.values().map(PendingBuffer::len).sum()
    }

    /// Discards `input`'s buffered events without firing them (e.g. after
    /// a failed [`MaintenanceEngine::flush`] the caller decides to drop).
    pub fn discard_pending(&mut self, input: &str) -> usize {
        self.pending.remove(input).map_or(0, |b| b.len())
    }

    /// Turns on the wait-free read path: publishes an epoch-0 snapshot
    /// immediately, then republishes every `publish_every` flush rounds.
    /// See [`crate::snapshot`] and [`IncrementalView::enable_serving`].
    pub fn enable_serving(&mut self, publish_every: u64) -> crate::ViewHandle {
        self.view.enable_serving(publish_every)
    }

    /// A reader handle onto the published snapshots, when serving is on.
    pub fn serving_handle(&self) -> Option<crate::ViewHandle> {
        self.view.serving_handle()
    }

    /// Forces an immediate snapshot publication of the current state,
    /// regardless of cadence. Returns `false` when serving is off.
    pub fn publish_snapshot(&self) -> bool {
        self.view.publish_snapshot()
    }

    /// Reads a maintained matrix (flushed state only).
    pub fn get(&self, name: &str) -> Result<&Matrix> {
        self.view.get(name)
    }

    /// Ingestion/firing counters and refresh measurements.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Cumulative communication of the underlying backend.
    pub fn comm(&self) -> CommSnapshot {
        self.view.comm()
    }

    /// The batching policy.
    pub fn policy(&self) -> FlushPolicy {
        self.policy
    }

    /// The wrapped view.
    pub fn view(&self) -> &IncrementalView<B> {
        &self.view
    }

    /// Mutable access to the wrapped view (exec options, checkpointing).
    pub fn view_mut(&mut self) -> &mut IncrementalView<B> {
        &mut self.view
    }

    /// Unwraps the engine, discarding any pending (unflushed) events.
    pub fn into_view(self) -> IncrementalView<B> {
        self.view
    }
}

/// Fires one record's factors: the joint trigger for a joint record, else
/// each input's own trigger. Flush rounds and replay both fire through
/// here, so replay re-folds exactly what was fired.
fn fire<B: ExecBackend>(view: &mut IncrementalView<B>, record: &FiringRecord) -> Result<()> {
    if record.joint {
        let updates: Vec<(&str, &Matrix, &Matrix)> = record
            .updates
            .iter()
            .map(|(name, u, v)| (name.as_str(), u, v))
            .collect();
        return view.apply_joint(&updates);
    }
    for (input, u, v) in &record.updates {
        view.apply_factored(input, u, v)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ReevalView, UpdateStream};
    use linview_compiler::parse::parse_program;
    use linview_expr::Catalog;
    use linview_matrix::{ApproxEq, Matrix};

    fn two_input_setup(n: usize) -> (linview_compiler::Program, Catalog, Matrix, Matrix) {
        let program = parse_program("C := A * B; D := C * C;").unwrap();
        let mut cat = Catalog::new();
        cat.declare("A", n, n);
        cat.declare("B", n, n);
        let a = Matrix::random_spectral(n, 3, 0.7);
        let b = Matrix::random_spectral(n, 4, 0.7);
        (program, cat, a, b)
    }

    #[test]
    fn batched_ingestion_matches_immediate_with_fewer_firings() {
        let n = 16;
        let (program, cat, a, b) = two_input_setup(n);
        let inputs = [("A", a.clone()), ("B", b.clone())];
        let mut immediate = MaintenanceEngine::new(
            IncrementalView::build(&program, &inputs, &cat).unwrap(),
            FlushPolicy::Immediate,
        );
        let mut batched = MaintenanceEngine::new(
            IncrementalView::build(&program, &inputs, &cat).unwrap(),
            FlushPolicy::Count(4),
        );
        let mut s1 = UpdateStream::new(n, n, 0.01, 7);
        let mut s2 = UpdateStream::new(n, n, 0.01, 7);
        let events = 24;
        for i in 0..events {
            let input = if i % 2 == 0 { "A" } else { "B" };
            immediate.ingest(input, s1.next_rank_one()).unwrap();
            batched.ingest(input, s2.next_rank_one()).unwrap();
        }
        immediate.flush_all().unwrap();
        batched.flush_all().unwrap();
        for view in ["A", "B", "C", "D"] {
            assert!(
                batched
                    .get(view)
                    .unwrap()
                    .approx_eq(immediate.get(view).unwrap(), 1e-9),
                "{view} diverged between batched and unbatched ingestion"
            );
        }
        assert_eq!(immediate.stats().firings, events);
        assert!(
            batched.stats().firings < immediate.stats().firings,
            "batch size 4 must fire strictly fewer triggers ({} !< {})",
            batched.stats().firings,
            immediate.stats().firings
        );
        assert_eq!(batched.stats().events, events);
    }

    #[test]
    fn engine_tracks_full_reevaluation() {
        let n = 12;
        let (program, cat, a, b) = two_input_setup(n);
        let mut reeval =
            ReevalView::build(&program, &[("A", a.clone()), ("B", b.clone())], &cat).unwrap();
        let mut engine = MaintenanceEngine::new(
            IncrementalView::build(&program, &[("A", a), ("B", b)], &cat).unwrap(),
            FlushPolicy::Count(3),
        );
        let mut stream = UpdateStream::new(n, n, 0.01, 11);
        for i in 0..14 {
            let input = if i % 3 == 0 { "B" } else { "A" };
            let upd = stream.next_rank_one();
            reeval.apply(input, &upd).unwrap();
            engine.ingest(input, upd).unwrap();
        }
        engine.flush_all().unwrap();
        assert!(engine
            .get("D")
            .unwrap()
            .approx_eq(reeval.get("D").unwrap(), 1e-9));
    }

    #[test]
    fn rank_policy_flushes_on_effective_rank_not_event_count() {
        let n = 10;
        let (program, cat, a, b) = two_input_setup(n);
        let mut engine = MaintenanceEngine::new(
            IncrementalView::build(&program, &[("A", a), ("B", b)], &cat).unwrap(),
            FlushPolicy::Rank(2),
        );
        // Three updates to the SAME row: effective rank stays 1 — no flush.
        for seed in 0..3 {
            engine
                .ingest("A", RankOneUpdate::row_update(n, n, 4, 0.01, seed))
                .unwrap();
        }
        assert_eq!(engine.pending_events("A"), 3);
        assert_eq!(engine.stats().firings, 0);
        // A second distinct row reaches the rank threshold and fires once,
        // compacted to rank 2.
        engine
            .ingest("A", RankOneUpdate::row_update(n, n, 7, 0.01, 9))
            .unwrap();
        assert_eq!(engine.pending_events("A"), 0);
        assert_eq!(engine.stats().firings, 1);
        assert_eq!(engine.stats().fired_rank, 2);
    }

    #[test]
    fn flush_all_fires_one_joint_trigger_when_all_inputs_are_pending() {
        let n = 12;
        let (program, cat, a, b) = two_input_setup(n);
        let mut joint = MaintenanceEngine::new(
            IncrementalView::build(&program, &[("A", a.clone()), ("B", b.clone())], &cat).unwrap(),
            FlushPolicy::Count(100), // never flush at ingest
        );
        let mut seq = MaintenanceEngine::new(
            IncrementalView::build(&program, &[("A", a), ("B", b)], &cat).unwrap(),
            FlushPolicy::Count(100),
        );
        let mut s1 = UpdateStream::new(n, n, 0.01, 3);
        let mut s2 = UpdateStream::new(n, n, 0.01, 3);
        for i in 0..8 {
            let input = if i % 2 == 0 { "A" } else { "B" };
            joint.ingest(input, s1.next_rank_one()).unwrap();
            seq.ingest(input, s2.next_rank_one()).unwrap();
        }
        joint.flush_all().unwrap();
        seq.flush("A").unwrap();
        seq.flush("B").unwrap();
        // One joint firing vs one per input.
        assert_eq!(joint.stats().firings, 1);
        assert_eq!(joint.stats().joint_rounds, 1);
        assert_eq!(joint.stats().triggers_saved, 1);
        assert_eq!(seq.stats().firings, 2);
        assert_eq!(seq.stats().joint_rounds, 0);
        assert_eq!(joint.stats().fired_rank, seq.stats().fired_rank);
        // §4.4's trigger is exact: same views up to round-off.
        for view in ["A", "B", "C", "D"] {
            assert!(
                joint
                    .get(view)
                    .unwrap()
                    .approx_eq(seq.get(view).unwrap(), 1e-9),
                "{view} diverged between joint and sequential flushing"
            );
        }
        assert_eq!(joint.pending_total(), 0);
    }

    #[test]
    fn partial_rounds_and_single_inputs_fall_back_to_sequential_flushes() {
        let n = 10;
        let (program, cat, a, b) = two_input_setup(n);
        let mut engine = MaintenanceEngine::new(
            IncrementalView::build(&program, &[("A", a), ("B", b)], &cat).unwrap(),
            FlushPolicy::Count(100),
        );
        // Only A pending: the joint round cannot cover B, so the flush is
        // one ordinary per-input firing.
        let mut stream = UpdateStream::new(n, n, 0.01, 5);
        engine.ingest("A", stream.next_rank_one()).unwrap();
        engine.flush_all().unwrap();
        assert_eq!(engine.stats().firings, 1);
        assert_eq!(engine.stats().joint_rounds, 0);
        assert_eq!(engine.stats().triggers_saved, 0);

        // A single-input program admits a joint form, but a joint firing
        // over one input saves nothing — stay on the per-input trigger.
        let program = parse_program("B := A * A;").unwrap();
        let mut cat = Catalog::new();
        cat.declare("A", n, n);
        let a = Matrix::random_spectral(n, 7, 0.7);
        let mut single = MaintenanceEngine::new(
            IncrementalView::build(&program, &[("A", a)], &cat).unwrap(),
            FlushPolicy::Count(100),
        );
        single.ingest("A", stream.next_rank_one()).unwrap();
        single.flush_all().unwrap();
        assert_eq!(single.stats().firings, 1);
        assert_eq!(single.stats().joint_rounds, 0);
    }

    #[test]
    fn flush_is_a_noop_on_empty_or_unknown_inputs() {
        let n = 8;
        let (program, cat, a, b) = two_input_setup(n);
        let mut engine = MaintenanceEngine::new(
            IncrementalView::build(&program, &[("A", a), ("B", b)], &cat).unwrap(),
            FlushPolicy::Count(4),
        );
        engine.flush("A").unwrap();
        engine.flush("nope").unwrap();
        engine.flush_all().unwrap();
        assert_eq!(engine.stats().firings, 0);
        assert_eq!(engine.pending_total(), 0);
    }

    #[test]
    fn stats_record_refresh_samples_per_firing() {
        let n = 8;
        let (program, cat, a, b) = two_input_setup(n);
        let mut engine = MaintenanceEngine::new(
            IncrementalView::build(&program, &[("A", a), ("B", b)], &cat).unwrap(),
            FlushPolicy::Count(2),
        );
        let mut stream = UpdateStream::new(n, n, 0.01, 5);
        for _ in 0..4 {
            engine.ingest("A", stream.next_rank_one()).unwrap();
        }
        assert_eq!(engine.stats().firings, 2);
        assert_eq!(engine.stats().refresh.len(), 2);
        assert!(engine.stats().mean_refresh().flops > 0);
        // Local backend never communicates.
        assert_eq!(engine.comm().total_bytes(), 0);
    }

    #[test]
    fn effective_rank_counts_dense_updates_individually() {
        let n = 6;
        let mut buf = PendingBuffer::default();
        buf.push(RankOneUpdate::row_update(n, n, 2, 0.1, 1));
        buf.push(RankOneUpdate::row_update(n, n, 2, 0.1, 2));
        assert_eq!(buf.effective_rank(), 1, "same row merges");
        buf.push(RankOneUpdate::dense(n, n, 0.1, 3));
        assert_eq!(buf.effective_rank(), 2, "dense update adds one rank");
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn kill_and_recover_is_bit_identical_on_the_threaded_backend() {
        let n = 16;
        let (program, cat, a, b) = two_input_setup(n);
        let inputs = [("A", a.clone()), ("B", b.clone())];
        let mut undisturbed = MaintenanceEngine::new(
            IncrementalView::build_on(
                crate::ThreadedBackend::new(4).unwrap(),
                &program,
                &inputs,
                &cat,
            )
            .unwrap(),
            FlushPolicy::Count(3),
        );
        let mut disturbed = MaintenanceEngine::new(
            IncrementalView::build_on(
                crate::ThreadedBackend::new(4).unwrap(),
                &program,
                &inputs,
                &cat,
            )
            .unwrap(),
            FlushPolicy::Count(3),
        );
        disturbed.enable_checkpointing(2).unwrap();
        let mut s1 = UpdateStream::new(n, n, 0.01, 7);
        let mut s2 = UpdateStream::new(n, n, 0.01, 7);
        let mut failures = 0;
        for i in 0..12 {
            let input = if i % 2 == 0 { "A" } else { "B" };
            undisturbed.ingest(input, s1.next_rank_one()).unwrap();
            if i == 5 {
                // SIGKILL-equivalent: the worker thread is gone, taking its
                // blocks with it.
                disturbed.view_mut().backend_mut().pool_mut().kill_worker(2);
            }
            if let Err(e) = disturbed.ingest(input, s2.next_rank_one()) {
                assert!(matches!(e, crate::RuntimeError::Transport(_)), "{e}");
                failures += 1;
                disturbed.recover().unwrap();
                // The failed flush retained its buffer; retry exactly it
                // (NOT flush_all, which would change batch boundaries).
                disturbed.flush(input).unwrap();
            }
        }
        undisturbed.flush_all().unwrap();
        if disturbed.flush_all().is_err() {
            failures += 1;
            disturbed.recover().unwrap();
            disturbed.flush_all().unwrap();
        }
        assert!(failures > 0, "the kill must actually disturb the stream");
        let rec = disturbed.recovery_stats();
        assert_eq!(rec.recoveries as usize, failures);
        assert!(rec.checkpoints >= 1);

        // Bit-identical — not approximately equal — on every view, both on
        // the coordinator mirror and gathered back from the workers.
        for view in ["A", "B", "C", "D"] {
            let want = undisturbed.get(view).unwrap();
            let got = disturbed.get(view).unwrap();
            assert_eq!(
                got.as_slice(),
                want.as_slice(),
                "{view} diverged after kill-and-recover"
            );
            let gathered = disturbed.view().backend().view(view).unwrap();
            assert_eq!(
                gathered.as_slice(),
                want.as_slice(),
                "worker-held {view} diverged after kill-and-recover"
            );
        }
        // And the meters reconcile exactly: every byte the disturbed run
        // moved beyond its twin is attributed to recovery.
        let d = disturbed.comm();
        let u = undisturbed.comm();
        assert_eq!(d.total_bytes(), u.total_bytes() + rec.overhead_bytes());
        assert_eq!(d.total_msgs(), u.total_msgs() + rec.overhead_msgs());
        assert_eq!(
            disturbed.stats().fired_rank + rec.replayed_rank,
            undisturbed.stats().fired_rank + rec.replayed_rank,
            "fired rank must match modulo replays"
        );
    }

    #[test]
    fn recover_on_a_healthy_engine_reproduces_its_own_state() {
        let n = 12;
        let (program, cat, a, b) = two_input_setup(n);
        let mut engine = MaintenanceEngine::new(
            IncrementalView::build(&program, &[("A", a), ("B", b)], &cat).unwrap(),
            FlushPolicy::Count(2),
        );
        engine.enable_checkpointing(3).unwrap();
        let mut stream = UpdateStream::new(n, n, 0.01, 9);
        for i in 0..10 {
            let input = if i % 2 == 0 { "A" } else { "B" };
            engine.ingest(input, stream.next_rank_one()).unwrap();
        }
        engine.flush_all().unwrap();
        let before: Vec<Vec<f64>> = ["A", "B", "C", "D"]
            .iter()
            .map(|v| engine.get(v).unwrap().as_slice().to_vec())
            .collect();
        // Recovery on an undamaged engine must be a state no-op: restore +
        // replay land exactly where the engine already is.
        engine.recover().unwrap();
        engine.recover().unwrap();
        for (view, want) in ["A", "B", "C", "D"].iter().zip(&before) {
            assert_eq!(
                engine.get(view).unwrap().as_slice(),
                &want[..],
                "{view} changed across healthy recover()"
            );
        }
        assert_eq!(engine.recovery_stats().recoveries, 2);
    }

    #[test]
    fn recover_without_checkpointing_is_a_checkpoint_error() {
        let n = 8;
        let (program, cat, a, b) = two_input_setup(n);
        let mut engine = MaintenanceEngine::new(
            IncrementalView::build(&program, &[("A", a), ("B", b)], &cat).unwrap(),
            FlushPolicy::Immediate,
        );
        let err = engine.recover().unwrap_err();
        assert!(matches!(err, crate::RuntimeError::Checkpoint(_)), "{err}");
    }

    #[test]
    fn checkpoint_cadence_rolls_the_log() {
        let n = 8;
        let (program, cat, a, b) = two_input_setup(n);
        let mut engine = MaintenanceEngine::new(
            IncrementalView::build(&program, &[("A", a), ("B", b)], &cat).unwrap(),
            FlushPolicy::Immediate,
        );
        engine.enable_checkpointing(2).unwrap();
        let mut stream = UpdateStream::new(n, n, 0.01, 4);
        for _ in 0..5 {
            engine.ingest("A", stream.next_rank_one()).unwrap();
        }
        let rec = engine.recovery_stats();
        assert_eq!(rec.logged_firings, 5);
        // 1 at enable + one per 2 firings.
        assert_eq!(rec.checkpoints, 3);
        // 5 firings, cadence 2: one firing sits in the live log.
        engine.recover().unwrap();
        assert_eq!(engine.recovery_stats().replayed_firings, 1);
    }

    #[test]
    fn failed_flush_retains_the_buffer_for_retry_or_discard() {
        let n = 8;
        let (program, cat, a, b) = two_input_setup(n);
        let mut engine = MaintenanceEngine::new(
            IncrementalView::build(&program, &[("A", a), ("B", b)], &cat).unwrap(),
            FlushPolicy::Count(4),
        );
        // "Z" has no trigger: buffering succeeds, the flush fails, and the
        // events survive instead of being silently dropped.
        engine
            .ingest("Z", RankOneUpdate::row_update(n, n, 1, 0.01, 1))
            .unwrap();
        assert!(engine.flush_all().is_err());
        assert_eq!(engine.pending_events("Z"), 1);
        assert_eq!(engine.stats().firings, 0);
        assert_eq!(engine.discard_pending("Z"), 1);
        assert_eq!(engine.pending_total(), 0);
        // Under the immediate policy the error surfaces at ingest time.
        let mut eager = MaintenanceEngine::new(engine.into_view(), FlushPolicy::Immediate);
        assert!(eager
            .ingest("Z", RankOneUpdate::row_update(n, n, 1, 0.01, 2))
            .is_err());
        assert_eq!(eager.pending_events("Z"), 1);
    }
}
