//! Delta write-ahead log: the firing records replayed after a crash.
//!
//! The checkpoint/replay fault-tolerance story (wired up by
//! [`MaintenanceEngine`](crate::MaintenanceEngine)) has two halves: a
//! periodic [`checkpoint`](crate::checkpoint) of the full environment, and
//! this log of every trigger firing *since* that snapshot. A firing is
//! exactly determined by the factored deltas it folded — triggers are
//! deterministic functions of the environment and the update factors — so
//! replaying the logged factors against the restored snapshot reproduces
//! the pre-crash state bit for bit.
//!
//! Records reuse the transport's `TAG_DELTA` frame encoding
//! ([`linview_dist::delta_frame`]) for each `(input, U, V)` triple: the
//! same bytes a broadcast would put on the wire, so the log's size tracks
//! the paper's `O(kn)` factor-traffic bound rather than the `O(n²)` views.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! u8  joint      1 when the record was a §4.4 joint firing
//! u32 count      number of delta frames
//! count × { u32 frame_len | frame bytes }   TAG_DELTA frames
//! ```

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use bytes::{Buf, BufMut, Bytes, BytesMut};
use linview_dist::{decode_delta_frame, delta_frame};
use linview_matrix::Matrix;

use crate::checkpoint::CheckpointError;
use crate::Result;

/// One logged trigger firing: the input(s) it covered and the factored
/// deltas it folded, in firing order.
#[derive(Debug, Clone, PartialEq)]
pub struct FiringRecord {
    /// Whether this was a joint (§4.4) firing over every update at once.
    pub joint: bool,
    /// `(input, U, V)` per updated input; a non-joint record has one.
    pub updates: Vec<(String, Matrix, Matrix)>,
}

impl FiringRecord {
    /// A single-input firing record.
    pub fn single(input: &str, u: Matrix, v: Matrix) -> FiringRecord {
        FiringRecord {
            joint: false,
            updates: vec![(input.to_string(), u, v)],
        }
    }

    /// A joint firing record over `updates`.
    pub fn joint(updates: Vec<(String, Matrix, Matrix)>) -> FiringRecord {
        FiringRecord {
            joint: true,
            updates,
        }
    }

    /// Total fired rank across the record's updates.
    pub fn rank(&self) -> u64 {
        self.updates.iter().map(|(_, u, _)| u.cols() as u64).sum()
    }

    /// Serializes the record (delta frames borrowed straight from the
    /// transport codec).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u8(u8::from(self.joint));
        buf.put_u32_le(self.updates.len() as u32);
        for (input, u, v) in &self.updates {
            let frame = delta_frame(input, u, v);
            buf.put_u32_le(frame.len() as u32);
            buf.put_slice(&frame);
        }
        buf.freeze()
    }

    /// Decodes a record, rejecting truncated or trailing bytes. Corruption
    /// surfaces as [`RuntimeError::Checkpoint`](crate::RuntimeError) — the
    /// log is part of the checkpoint story, and its failure modes are the
    /// same class.
    pub fn decode(mut data: Bytes) -> Result<FiringRecord> {
        let corrupt = |what: &str| CheckpointError::new(format!("firing record: {what}"));
        if data.remaining() < 5 {
            return Err(corrupt("truncated header").into());
        }
        let joint = match data.get_u8() {
            0 => false,
            1 => true,
            other => return Err(corrupt(&format!("bad joint flag {other}")).into()),
        };
        let count = data.get_u32_le() as usize;
        let mut updates = Vec::new();
        for _ in 0..count {
            if data.remaining() < 4 {
                return Err(corrupt("truncated frame length").into());
            }
            let frame_len = data.get_u32_le() as usize;
            if data.remaining() < frame_len {
                return Err(corrupt("truncated delta frame").into());
            }
            let frame = data.copy_to_bytes(frame_len);
            let (input, u, v) = decode_delta_frame(frame)
                .map_err(|e| corrupt(&format!("undecodable delta frame: {e}")))?;
            updates.push((input, u, v));
        }
        if data.has_remaining() {
            return Err(corrupt("trailing bytes").into());
        }
        if joint && updates.is_empty() {
            return Err(corrupt("joint record with no updates").into());
        }
        Ok(FiringRecord { joint, updates })
    }
}

/// What reading a durable WAL back from disk found.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecovery {
    /// Every complete record, in append order.
    pub records: Vec<FiringRecord>,
    /// Bytes of a cleanly torn tail (a crash mid-append) that were
    /// discarded — and truncated from the file — during the read. Zero for
    /// an intact log.
    pub torn_tail_bytes: u64,
}

/// An append-only on-disk delta log of [`FiringRecord`]s.
///
/// Layout: a concatenation of `u32-LE record_len | record bytes` entries
/// (the record bytes are [`FiringRecord::encode`]). A crash mid-append
/// leaves a *torn tail* — a partial length prefix, or a prefix whose
/// declared payload extends past end-of-file. [`WalFile::read`]
/// distinguishes that clean truncation (recoverable: drop the tail, keep
/// every complete record) from mid-file corruption (a complete record that
/// fails to decode), which stays a typed [`CheckpointError`].
#[derive(Debug, Clone)]
pub struct WalFile {
    path: PathBuf,
}

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> CheckpointError {
    CheckpointError::new(format!("wal {what} {}: {e}", path.display()))
}

impl WalFile {
    /// Opens (creating if absent) the log at `path`. Existing records are
    /// preserved; use [`WalFile::truncate`] to start a fresh log.
    pub fn open(path: impl Into<PathBuf>) -> Result<WalFile> {
        let path = path.into();
        OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open", &path, &e))?;
        Ok(WalFile { path })
    }

    /// The log's path on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record (length prefix + encoded bytes) in one write.
    /// Nothing is synced: the record survives a process crash, not a power
    /// loss.
    pub fn append(&self, record: &FiringRecord) -> Result<()> {
        let encoded = record.encode();
        let mut buf = BytesMut::with_capacity(4 + encoded.len());
        buf.put_u32_le(encoded.len() as u32);
        buf.put_slice(&encoded);
        let mut file = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| io_err("append-open", &self.path, &e))?;
        file.write_all(&buf)
            .map_err(|e| io_err("append", &self.path, &e))?;
        Ok(())
    }

    /// Drops every record (the checkpoint roll: the snapshot now covers
    /// them).
    pub fn truncate(&self) -> Result<()> {
        File::create(&self.path).map_err(|e| io_err("truncate", &self.path, &e))?;
        Ok(())
    }

    /// Reads the log back, tolerating a cleanly torn tail.
    ///
    /// A tail whose length prefix or payload is cut short — the signature
    /// of a crash mid-append — is truncated away (both from the returned
    /// records and from the file itself, so the next append starts on a
    /// record boundary) and reported in
    /// [`WalRecovery::torn_tail_bytes`]. A *complete* record that fails to
    /// decode is mid-file corruption and surfaces as a typed
    /// [`RuntimeError::Checkpoint`](crate::RuntimeError) instead.
    pub fn read(&self) -> Result<WalRecovery> {
        let raw = std::fs::read(&self.path).map_err(|e| io_err("read", &self.path, &e))?;
        let total = raw.len() as u64;
        let mut data = Bytes::from(raw);
        let mut records = Vec::new();
        let mut consumed = 0u64;
        loop {
            if !data.has_remaining() {
                return Ok(WalRecovery {
                    records,
                    torn_tail_bytes: 0,
                });
            }
            if data.remaining() < 4 {
                break; // partial length prefix
            }
            let mut peek = data.clone();
            let len = peek.get_u32_le() as usize;
            if peek.remaining() < len {
                break; // prefix intact, payload cut short
            }
            data.advance(4);
            let record = FiringRecord::decode(data.copy_to_bytes(len))?;
            records.push(record);
            consumed += 4 + len as u64;
        }
        // Torn tail: chop the file back to the last complete record so the
        // log is append-ready again.
        let file = OpenOptions::new()
            .write(true)
            .open(&self.path)
            .map_err(|e| io_err("reopen", &self.path, &e))?;
        file.set_len(consumed)
            .map_err(|e| io_err("tail-truncate", &self.path, &e))?;
        Ok(WalRecovery {
            records,
            torn_tail_bytes: total - consumed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RuntimeError;

    #[test]
    fn records_round_trip_through_the_codec() {
        let u = Matrix::random_uniform(6, 2, 1);
        let v = Matrix::random_uniform(4, 2, 2);
        let single = FiringRecord::single("A", u.clone(), v.clone());
        assert_eq!(FiringRecord::decode(single.encode()).unwrap(), single);
        assert_eq!(single.rank(), 2);

        let joint = FiringRecord::joint(vec![
            ("A".to_string(), u.clone(), v.clone()),
            ("B".to_string(), v.clone(), u.clone()),
        ]);
        let back = FiringRecord::decode(joint.encode()).unwrap();
        assert_eq!(back, joint);
        assert_eq!(back.rank(), 4);
    }

    #[test]
    fn corrupt_records_error_instead_of_panicking() {
        let rec = FiringRecord::single(
            "A",
            Matrix::random_uniform(4, 1, 3),
            Matrix::random_uniform(4, 1, 4),
        );
        let good = rec.encode();
        // Truncations at every length never panic.
        for cut in 0..good.len() {
            let sliced = good.slice(0..cut);
            if let Err(e) = FiringRecord::decode(sliced) {
                assert!(matches!(e, RuntimeError::Checkpoint(_)));
            } else {
                assert_eq!(cut, good.len(), "only the full record may decode");
            }
        }
        // Trailing garbage is rejected too.
        let mut padded = BytesMut::from(&good[..]);
        padded.put_u8(0xAB);
        assert!(FiringRecord::decode(padded.freeze()).is_err());
        // A flipped joint flag value outside {0,1} is rejected.
        let mut flipped = BytesMut::from(&good[..]);
        flipped[0] = 7;
        assert!(FiringRecord::decode(flipped.freeze()).is_err());
    }

    fn wal_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("lv-wal-{tag}-{}.bin", std::process::id()))
    }

    fn sample_records() -> Vec<FiringRecord> {
        let u = Matrix::random_uniform(5, 2, 11);
        let v = Matrix::random_uniform(5, 2, 12);
        vec![
            FiringRecord::single("A", u.clone(), v.clone()),
            FiringRecord::joint(vec![
                ("A".to_string(), u.clone(), v.clone()),
                ("B".to_string(), v.clone(), u.clone()),
            ]),
            FiringRecord::single("B", v, u),
        ]
    }

    #[test]
    fn wal_file_round_trips_and_truncates() {
        let path = wal_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let wal = WalFile::open(&path).unwrap();
        let records = sample_records();
        for r in &records {
            wal.append(r).unwrap();
        }
        let back = wal.read().unwrap();
        assert_eq!(back.records, records);
        assert_eq!(back.torn_tail_bytes, 0);
        wal.truncate().unwrap();
        assert_eq!(wal.read().unwrap().records.len(), 0);
        // Appending after a truncate starts a fresh log.
        wal.append(&records[0]).unwrap();
        assert_eq!(wal.read().unwrap().records, vec![records[0].clone()]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tails_at_every_cut_point_recover_the_complete_prefix() {
        let path = wal_path("torn");
        let _ = std::fs::remove_file(&path);
        let wal = WalFile::open(&path).unwrap();
        let records = sample_records();
        let mut boundaries = vec![0u64]; // file length after each append
        for r in &records {
            wal.append(r).unwrap();
            boundaries.push(std::fs::metadata(&path).unwrap().len());
        }
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let rec = WalFile::open(&path).unwrap().read().unwrap();
            // Every record wholly below the cut survives; the torn tail is
            // exactly the bytes past the last record boundary.
            let complete = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
            assert_eq!(rec.records, records[..complete], "cut at {cut}");
            assert_eq!(
                rec.torn_tail_bytes,
                cut as u64 - boundaries[complete],
                "cut at {cut}"
            );
            // And the file was chopped back to the boundary, append-ready.
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                boundaries[complete]
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mid_file_corruption_stays_a_typed_error() {
        let path = wal_path("corrupt");
        let _ = std::fs::remove_file(&path);
        let wal = WalFile::open(&path).unwrap();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let before = bytes.len();
        // Flip a byte inside the FIRST record's payload: the record is
        // complete (its length prefix is intact) but undecodable — that is
        // corruption, not a torn tail, and must not be silently dropped.
        bytes[6] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = wal.read().unwrap_err();
        assert!(matches!(err, RuntimeError::Checkpoint(_)), "{err}");
        // The file is left alone for forensics.
        assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, before);
        let _ = std::fs::remove_file(&path);
    }
}
