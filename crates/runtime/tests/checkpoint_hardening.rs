//! Adversarial hardening for the crash-recovery codecs.
//!
//! Checkpoint snapshots and WAL firing records are read back from storage
//! after a crash — exactly the moment the bytes are least trustworthy.
//! These properties pin the contract of [`checkpoint::restore`] and
//! [`FiringRecord::decode`]: **any** input — random garbage, hostile
//! headers, or a valid buffer with bytes flipped, truncated, or appended —
//! yields `Ok` or a typed `RuntimeError::Checkpoint`. Never a panic,
//! arithmetic overflow, or attacker-controlled allocation.

use bytes::{BufMut, Bytes, BytesMut};
use linview_matrix::Matrix;
use linview_runtime::{checkpoint, Env, FiringRecord, RuntimeError};
use proptest::prelude::*;

fn sample_env() -> Env {
    let mut env = Env::new();
    env.bind("A", Matrix::random_uniform(6, 6, 1));
    env.bind("B2", Matrix::random_uniform(6, 2, 2));
    env.bind("beta", Matrix::random_col(6, 3));
    env
}

fn sample_record() -> FiringRecord {
    FiringRecord::joint(vec![
        (
            "A".to_string(),
            Matrix::random_uniform(6, 2, 4),
            Matrix::random_uniform(6, 2, 5),
        ),
        (
            "Y".to_string(),
            Matrix::random_col(6, 6),
            Matrix::random_col(6, 7),
        ),
    ])
}

/// Applies byte flips, a truncation (`cut % (len + 1)`, so a full-length
/// cut is a no-op), and appended garbage to a valid buffer.
fn mutate(base: &Bytes, flips: &[(usize, u32)], cut: usize, tail: &[u8]) -> Bytes {
    let mut buf: Vec<u8> = base[..].to_vec();
    for &(idx, x) in flips {
        let i = idx % buf.len().max(1);
        if i < buf.len() {
            buf[i] ^= x as u8;
        }
    }
    buf.truncate(cut % (buf.len() + 1));
    buf.extend_from_slice(tail);
    Bytes::from(buf)
}

fn assert_typed(err: RuntimeError) {
    assert!(
        matches!(err, RuntimeError::Checkpoint(_)),
        "corruption must surface as a checkpoint error, got {err:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary bytes never panic the snapshot decoder.
    #[test]
    fn restore_never_panics_on_arbitrary_bytes(data in proptest::collection::vec(0u8..255, 0..256)) {
        if let Err(e) = checkpoint::restore(Bytes::from(data)) {
            assert_typed(e);
        }
    }

    /// Mutations of a *valid* snapshot — the realistic corruption model —
    /// never panic, and either fail typed or decode some environment.
    #[test]
    fn restore_survives_mutated_valid_snapshots(
        flips in proptest::collection::vec((0usize..4096, 1u32..256), 0..6),
        cut in 0usize..4096,
        tail in proptest::collection::vec(0u8..255, 0..16),
    ) {
        let good = checkpoint::save(&sample_env()).unwrap();
        let mutated = mutate(&good, &flips, cut, &tail);
        match checkpoint::restore(mutated) {
            Ok(env) => prop_assert!(env.len() <= sample_env().len()),
            Err(e) => assert_typed(e),
        }
    }

    /// Arbitrary bytes never panic the WAL record decoder.
    #[test]
    fn wal_decode_never_panics_on_arbitrary_bytes(data in proptest::collection::vec(0u8..255, 0..256)) {
        if let Err(e) = FiringRecord::decode(Bytes::from(data)) {
            assert_typed(e);
        }
    }

    /// Mutations of a valid firing record never panic the decoder.
    #[test]
    fn wal_decode_survives_mutated_valid_records(
        flips in proptest::collection::vec((0usize..4096, 1u32..256), 0..6),
        cut in 0usize..4096,
        tail in proptest::collection::vec(0u8..255, 0..16),
    ) {
        let good = sample_record().encode();
        let mutated = mutate(&good, &flips, cut, &tail);
        match FiringRecord::decode(mutated) {
            Ok(rec) => prop_assert!(rec.updates.len() <= 2),
            Err(e) => assert_typed(e),
        }
    }

    /// Hostile length headers (count / name length / huge shapes) must be
    /// rejected by bounds checks before any allocation is sized by them.
    #[test]
    fn restore_rejects_hostile_headers_without_allocating(
        count in 1u32..u32::MAX,
        name_len in 0u32..u32::MAX,
        rows in 0u64..u64::MAX,
        cols in 0u64..u64::MAX,
    ) {
        let mut buf = BytesMut::new();
        buf.put_slice(b"LNVW");
        buf.put_u32_le(1);
        buf.put_u32_le(count);
        buf.put_u32_le(name_len);
        buf.put_slice(b"A");
        buf.put_u64_le(rows);
        buf.put_u64_le(cols);
        if let Err(e) = checkpoint::restore(buf.freeze()) {
            assert_typed(e);
        }
    }
}

/// Round-trip sanity anchoring the properties: untouched buffers decode to
/// exactly what was saved.
#[test]
fn untouched_snapshots_and_records_round_trip() {
    let env = sample_env();
    let back = checkpoint::restore(checkpoint::save(&env).unwrap()).unwrap();
    assert_eq!(back.len(), env.len());
    for (name, m) in env.iter() {
        assert_eq!(back.get(name).unwrap(), m);
    }
    let rec = sample_record();
    assert_eq!(FiringRecord::decode(rec.encode()).unwrap(), rec);
}

// ---------------------------------------------------------------------------
// Durable checkpoint + WAL: engine-level crash-restart hardening.
// ---------------------------------------------------------------------------

mod durable {
    use linview_compiler::parse::parse_program;
    use linview_expr::Catalog;
    use linview_matrix::Matrix;
    use linview_runtime::{
        DiskRecovery, FlushPolicy, IncrementalView, MaintenanceEngine, RuntimeError, UpdateStream,
    };
    use linview_runtime::{ExecBackend, LocalBackend, ThreadedBackend};
    use std::fs::OpenOptions;
    use std::io::{Read, Seek, SeekFrom, Write};
    use std::path::{Path, PathBuf};

    const N: usize = 8;
    const VIEWS: [&str; 4] = ["A", "B", "C", "D"];

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lv-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fresh_engine() -> MaintenanceEngine<linview_runtime::LocalBackend> {
        let program = parse_program("C := A * B; D := C * C;").unwrap();
        let mut cat = Catalog::new();
        cat.declare("A", N, N);
        cat.declare("B", N, N);
        let a = Matrix::random_spectral(N, 7, 0.8);
        let b = Matrix::random_spectral(N, 8, 0.8);
        let view = IncrementalView::build(&program, &[("A", a), ("B", b)], &cat).unwrap();
        MaintenanceEngine::new(view, FlushPolicy::Count(2))
    }

    fn views_of(engine: &MaintenanceEngine<linview_runtime::LocalBackend>) -> Vec<Matrix> {
        VIEWS
            .iter()
            .map(|v| engine.get(v).unwrap().clone())
            .collect()
    }

    /// Drives `events` rank-1 updates, returning the engine state (all
    /// four matrices) keyed by the WAL length after each firing.
    fn drive_recording_boundaries(
        engine: &mut MaintenanceEngine<linview_runtime::LocalBackend>,
        events: usize,
    ) -> Vec<(u64, Vec<Matrix>)> {
        let mut stream = UpdateStream::new(N, N, 0.01, 71);
        let mut boundaries = vec![(0u64, views_of(engine))];
        for i in 0..events {
            let input = if i % 2 == 0 { "A" } else { "B" };
            engine.ingest(input, stream.next_rank_one()).unwrap();
            // Re-query the path each time: checkpoint rolls start a fresh
            // WAL generation under a new name.
            let wal = engine.durable_wal_path().expect("durable WAL enabled");
            let len = std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
            if len != boundaries.last().unwrap().0 {
                boundaries.push((len, views_of(engine)));
            }
        }
        boundaries
    }

    fn chop(path: &Path, to: u64) {
        let f = OpenOptions::new().write(true).open(path).unwrap();
        f.set_len(to).unwrap();
    }

    /// A crash that cut the WAL tail mid-record loses exactly the torn
    /// record: restart recovers the checkpoint plus every *complete*
    /// record, bit-identical to the pre-crash engine at that boundary.
    #[test]
    fn torn_wal_tail_recovers_last_complete_prefix_bit_identically() {
        let dir = temp_dir("torn");
        let mut engine = fresh_engine();
        // Cadence larger than the run: everything stays in one WAL.
        engine.enable_durable_checkpointing(100, &dir).unwrap();
        let boundaries = drive_recording_boundaries(&mut engine, 16);
        assert!(
            boundaries.len() >= 4,
            "need several firings to make the test meaningful"
        );
        let wal = engine.durable_wal_path().unwrap();
        drop(engine);

        // Tear 3 bytes into the record after the middle boundary.
        let (cut_at, expected) = &boundaries[boundaries.len() / 2];
        chop(&wal, cut_at + 3);

        let mut restarted = fresh_engine();
        let rec = restarted.recover_from_disk(100, &dir).unwrap();
        assert_eq!(rec.torn_tail_bytes, 3, "torn bytes miscounted");
        assert_eq!(
            rec.replayed_firings as usize,
            boundaries.len() / 2,
            "wrong number of surviving records replayed"
        );
        for (name, matrix) in VIEWS.iter().zip(expected) {
            assert_eq!(
                restarted.get(name).unwrap(),
                matrix,
                "{name} diverged from the pre-crash state at the cut"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An unharmed directory restores the exact final state, and recovery
    /// rolls a fresh generation so a second restart never replays twice.
    #[test]
    fn crash_restart_roundtrip_is_bit_identical_and_rolls_generation() {
        let dir = temp_dir("roundtrip");
        let mut engine = fresh_engine();
        engine.enable_durable_checkpointing(3, &dir).unwrap();
        drive_recording_boundaries(&mut engine, 14);
        let final_state = views_of(&engine);
        drop(engine);

        let mut restarted = fresh_engine();
        let rec = restarted.recover_from_disk(3, &dir).unwrap();
        assert_eq!(rec.torn_tail_bytes, 0);
        for (name, matrix) in VIEWS.iter().zip(&final_state) {
            assert_eq!(restarted.get(name).unwrap(), matrix, "{name} diverged");
        }

        // The recovered engine keeps maintaining + logging normally into
        // the fresh generation rolled at recovery.
        let mut stream = UpdateStream::new(N, N, 0.01, 99);
        for i in 0..4 {
            let input = if i % 2 == 0 { "A" } else { "B" };
            restarted.ingest(input, stream.next_rank_one()).unwrap();
        }
        let continued_state = views_of(&restarted);
        drop(restarted);

        // A second restart replays exactly the post-recovery firings (4
        // events at batch 2 = 2 firings, below the roll cadence of 3) on
        // top of the rolled checkpoint, landing on the continued state —
        // replay is never paid twice for pre-recovery history.
        let mut again = fresh_engine();
        let rec2 = again.recover_from_disk(3, &dir).unwrap();
        assert_eq!(
            rec2,
            DiskRecovery {
                replayed_firings: 2,
                torn_tail_bytes: 0
            },
            "second restart must replay only the post-recovery WAL"
        );
        for (name, matrix) in VIEWS.iter().zip(&continued_state) {
            assert_eq!(again.get(name).unwrap(), matrix, "{name} diverged twice");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Mid-file corruption (a *complete* record that fails to decode) is
    /// a typed checkpoint error at the engine level — recovery refuses to
    /// guess, and the file is left intact for forensics.
    #[test]
    fn mid_file_wal_corruption_is_a_typed_error() {
        let dir = temp_dir("midfile");
        let mut engine = fresh_engine();
        engine.enable_durable_checkpointing(100, &dir).unwrap();
        let boundaries = drive_recording_boundaries(&mut engine, 12);
        assert!(boundaries.len() >= 3);
        let wal = engine.durable_wal_path().unwrap();
        drop(engine);

        // Flip a byte *inside* the first record's payload (offset 6: past
        // the 4-byte length prefix, inside the record header).
        let mut f = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&wal)
            .unwrap();
        let mut byte = [0u8; 1];
        f.seek(SeekFrom::Start(6)).unwrap();
        f.read_exact(&mut byte).unwrap();
        byte[0] ^= 0xFF;
        f.seek(SeekFrom::Start(6)).unwrap();
        f.write_all(&byte).unwrap();
        drop(f);
        let len_before = std::fs::metadata(&wal).unwrap().len();

        let mut restarted = fresh_engine();
        match restarted.recover_from_disk(100, &dir) {
            Err(RuntimeError::Checkpoint(_)) => {}
            other => panic!("expected a typed checkpoint error, got {other:?}"),
        }
        assert_eq!(
            std::fs::metadata(&wal).unwrap().len(),
            len_before,
            "corrupt WAL must be preserved for forensics, not truncated"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A restart that finds the snapshot but not its generation's WAL must
    /// not treat the missing log as empty: the roll creates a generation's
    /// WAL before its snapshot lands, so its absence is damage.
    #[test]
    fn missing_wal_for_the_snapshot_generation_is_a_typed_error() {
        let dir = temp_dir("nowal");
        let mut engine = fresh_engine();
        engine.enable_durable_checkpointing(100, &dir).unwrap();
        let boundaries = drive_recording_boundaries(&mut engine, 8);
        assert_eq!(boundaries.len(), 5, "four firings logged");
        let wal = engine.durable_wal_path().unwrap();
        drop(engine);
        std::fs::remove_file(&wal).unwrap();

        let mut restarted = fresh_engine();
        match restarted.recover_from_disk(100, &dir) {
            Err(RuntimeError::Checkpoint(_)) => {}
            other => panic!("expected a typed checkpoint error, got {other:?}"),
        }
        assert!(!wal.exists(), "recovery must not recreate the missing WAL");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every directory state a crash can leave mid-roll — the new
    /// generation's empty WAL only; plus the temp snapshot; the snapshot
    /// renamed but the old WAL not yet swept — recovers the pre-crash views
    /// bit-identically, replaying the old WAL until the rename lands.
    #[test]
    fn each_mid_roll_crash_state_recovers_bit_identically() {
        for stage in 0..3 {
            let dir = temp_dir(&format!("midroll-{stage}"));
            let mut engine = fresh_engine();
            engine.enable_durable_checkpointing(100, &dir).unwrap();
            let firings = drive_recording_boundaries(&mut engine, 8).len() as u64 - 1;
            let state = views_of(&engine);
            let old_wal = engine.durable_wal_path().unwrap();
            // The snapshot the roll after the last firing writes: the
            // generation header, then the environment.
            let mut next = 1u64.to_le_bytes().to_vec();
            next.extend_from_slice(&engine.view().checkpoint().unwrap());
            drop(engine);

            std::fs::write(dir.join("wal-1.bin"), b"").unwrap();
            if stage >= 1 {
                std::fs::write(dir.join("checkpoint.bin.tmp"), &next).unwrap();
            }
            if stage >= 2 {
                std::fs::rename(dir.join("checkpoint.bin.tmp"), dir.join("checkpoint.bin"))
                    .unwrap();
            }
            let mut restarted = fresh_engine();
            let rec = restarted.recover_from_disk(100, &dir).unwrap();
            let replayed_firings = if stage == 2 { 0 } else { firings };
            assert_eq!(
                rec,
                DiskRecovery {
                    replayed_firings,
                    torn_tail_bytes: 0
                },
                "stage {stage}"
            );
            assert_eq!(views_of(&restarted), state, "stage {stage} diverged");
            assert!(
                !old_wal.exists(),
                "stage {stage}: recovery's roll sweeps the old WAL"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A roll that fails after its firing succeeded (a directory squats on
    /// the snapshot's temp path) consumes the fired batch, keeps a complete
    /// log that recovers, and rolls on the next firing once unblocked.
    #[test]
    fn blocked_roll_consumes_the_fired_batch_and_the_next_firing_rolls() {
        let dir = temp_dir("blocked-roll");
        let mut engine = fresh_engine();
        let mut reference = fresh_engine();
        engine.enable_durable_checkpointing(2, &dir).unwrap();
        let squatter = dir.join("checkpoint.bin.tmp");
        std::fs::create_dir(&squatter).unwrap();
        let mut stream = UpdateStream::new(N, N, 0.01, 5);
        let mut failures = 0;
        for _ in 0..4 {
            let upd = stream.next_rank_one();
            reference.ingest("A", upd.clone()).unwrap();
            if let Err(e) = engine.ingest("A", upd) {
                assert!(matches!(e, RuntimeError::Checkpoint(_)), "{e}");
                failures += 1;
            }
        }
        assert_eq!(failures, 1, "only the roll after the second firing fails");
        assert_eq!(
            engine.pending_events("A"),
            0,
            "the fired batch stayed pending"
        );
        assert_eq!(views_of(&engine), views_of(&reference));
        engine.recover().unwrap();
        assert_eq!(views_of(&engine), views_of(&reference));

        std::fs::remove_dir(&squatter).unwrap();
        for _ in 0..2 {
            let upd = stream.next_rank_one();
            reference.ingest("A", upd.clone()).unwrap();
            engine.ingest("A", upd).unwrap();
        }
        assert_eq!(
            engine.recovery_stats().checkpoints,
            2,
            "enable + the retried roll"
        );
        engine.recover().unwrap();
        assert_eq!(views_of(&engine), views_of(&reference));
        drop(engine);
        let mut restarted = fresh_engine();
        let rec = restarted.recover_from_disk(2, &dir).unwrap();
        assert_eq!(rec.replayed_firings, 0, "the roll covered every firing");
        assert_eq!(views_of(&restarted), views_of(&reference));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A WAL append that fails after its firing succeeded (the directory
    /// was removed) consumes the fired batch; `recover()` refuses until the
    /// next logged firing rolls a fresh generation instead of appending.
    #[test]
    fn failed_wal_append_consumes_the_batch_and_recover_waits_for_a_roll() {
        let dir = temp_dir("removed");
        let mut engine = fresh_engine();
        let mut reference = fresh_engine();
        engine.enable_durable_checkpointing(100, &dir).unwrap();
        let mut stream = UpdateStream::new(N, N, 0.01, 6);
        let upd = stream.next_rank_one();
        reference.ingest("A", upd.clone()).unwrap();
        engine.ingest("A", upd).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        match engine.flush("A") {
            Err(RuntimeError::Checkpoint(_)) => {}
            other => panic!("expected a typed checkpoint error, got {other:?}"),
        }
        reference.flush("A").unwrap();
        assert_eq!(
            engine.pending_events("A"),
            0,
            "the fired batch stayed pending"
        );
        assert_eq!(views_of(&engine), views_of(&reference));
        match engine.recover() {
            Err(RuntimeError::Checkpoint(_)) => {}
            other => panic!("recover() over a short log must refuse, got {other:?}"),
        }

        let logged = engine.recovery_stats().logged_firings;
        for _ in 0..2 {
            let upd = stream.next_rank_one();
            reference.ingest("B", upd.clone()).unwrap();
            engine.ingest("B", upd).unwrap();
        }
        assert_eq!(
            engine.recovery_stats().logged_firings,
            logged,
            "the firing after a failed append rolls instead of appending"
        );
        engine.recover().unwrap();
        assert_eq!(views_of(&engine), views_of(&reference));
        drop(engine);
        let mut restarted = fresh_engine();
        let rec = restarted.recover_from_disk(100, &dir).unwrap();
        assert_eq!(rec.replayed_firings, 0);
        assert_eq!(views_of(&restarted), views_of(&reference));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `fresh_engine`'s program, inputs and policy on any backend.
    fn engine_on<B: ExecBackend>(backend: B) -> MaintenanceEngine<B> {
        let program = parse_program("C := A * B; D := C * C;").unwrap();
        let mut cat = Catalog::new();
        cat.declare("A", N, N);
        cat.declare("B", N, N);
        let a = Matrix::random_spectral(N, 7, 0.8);
        let b = Matrix::random_spectral(N, 8, 0.8);
        let view =
            IncrementalView::build_on(backend, &program, &[("A", a), ("B", b)], &cat).unwrap();
        MaintenanceEngine::new(view, FlushPolicy::Count(2))
    }

    /// The streamed `checkpoint.bin` of every generation — the one written
    /// at enable time and each roll's — is the generation as `u64` LE
    /// followed by exactly `view.checkpoint()`.
    fn assert_rolls_write_checkpoint_bytes<B: ExecBackend>(
        tag: &str,
        mut engine: MaintenanceEngine<B>,
    ) {
        let dir = temp_dir(tag);
        engine.enable_durable_checkpointing(2, &dir).unwrap();
        let mut stream = UpdateStream::new(N, N, 0.01, 13);
        let mut generations = Vec::new();
        for i in 0..=24 {
            let checkpoints = engine.recovery_stats().checkpoints;
            if generations.last() != Some(&checkpoints) {
                let gen = checkpoints - 1;
                let mut expected = gen.to_le_bytes().to_vec();
                expected.extend_from_slice(&engine.view().checkpoint().unwrap());
                let written = std::fs::read(dir.join("checkpoint.bin")).unwrap();
                assert!(written == expected, "{tag}: generation {gen} differs");
                generations.push(checkpoints);
            }
            let input = if i % 2 == 0 { "A" } else { "B" };
            engine.ingest(input, stream.next_rank_one()).unwrap();
        }
        assert!(generations.len() >= 4, "{tag}: only {generations:?} rolled");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_rolls_write_the_generation_then_the_checkpoint_bytes() {
        assert_rolls_write_checkpoint_bytes("bytes-local", engine_on(LocalBackend));
        let threaded = ThreadedBackend::new(4).unwrap();
        assert_rolls_write_checkpoint_bytes("bytes-threaded", engine_on(threaded));
    }

    /// `tests/fixtures/durable-v1` was written by the store as it was before
    /// rolls streamed (cadence 3; `fresh_engine` fed the 16 events below,
    /// so generation 2 plus two logged firings). It recovers bit-identically,
    /// and today's store writes the same bytes for the same run.
    #[test]
    fn directory_written_before_streaming_recovers_bit_identically() {
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/durable-v1");
        let dir = temp_dir("v1-fixture");
        std::fs::create_dir_all(&dir).unwrap();
        for file in ["checkpoint.bin", "wal-2.bin"] {
            std::fs::copy(fixture.join(file), dir.join(file)).unwrap();
        }
        let rewritten = temp_dir("v1-rewritten");
        let mut reference = fresh_engine();
        reference
            .enable_durable_checkpointing(3, &rewritten)
            .unwrap();
        let mut stream = UpdateStream::new(N, N, 0.01, 71);
        for i in 0..16 {
            let input = if i % 2 == 0 { "A" } else { "B" };
            reference.ingest(input, stream.next_rank_one()).unwrap();
        }
        for file in ["checkpoint.bin", "wal-2.bin"] {
            let old = std::fs::read(fixture.join(file)).unwrap();
            assert!(
                old == std::fs::read(rewritten.join(file)).unwrap(),
                "{file} differs"
            );
        }

        let mut restarted = fresh_engine();
        let rec = restarted.recover_from_disk(3, &dir).unwrap();
        assert_eq!(
            rec,
            DiskRecovery {
                replayed_firings: 2,
                torn_tail_bytes: 0
            }
        );
        assert_eq!(views_of(&restarted), views_of(&reference));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&rewritten);
    }
}
