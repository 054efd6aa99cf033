//! Environment checkpointing.
//!
//! Incremental maintenance is stateful: the materialized views *are* the
//! computation. A production deployment needs to persist and restore that
//! state across restarts (the paper's streams are "long-lived data",
//! unlike window-bounded stream processors — §1). This module provides a
//! compact, versioned binary snapshot of an [`Env`], with integrity checks
//! on restore.
//!
//! Format (little-endian):
//!
//! ```text
//! magic "LNVW" | u32 version | u32 entry_count |
//!   { u32 name_len | name utf8 | u64 rows | u64 cols | rows·cols f64 }*
//! ```
//!
//! The format has one encoder, [`encode`], streaming into any
//! [`io::Write`], and one decoder, [`decode`], reading an [`io::Read`] of
//! known length. [`save`] and [`restore`] wrap them for in-memory
//! [`Bytes`]; the durable store streams a roll straight into its file and
//! decodes recovery straight out of it, so neither stages a second copy
//! of the views — durability's memory is the views plus one I/O buffer.
//!
//! [`decode`] treats its input as untrusted: every length and shape field
//! is validated with checked arithmetic against the bytes that remain
//! *before* any allocation sized by it, so a corrupt or hostile snapshot
//! errors — it can neither panic nor allocate more than its own length.
//! Failures surface as [`RuntimeError::Checkpoint`] carrying a
//! [`CheckpointError`] in the `source()` chain.

use std::fmt;
use std::io::{self, Read, Write};

use bytes::Bytes;
use linview_matrix::Matrix;

use crate::{Env, Result, RuntimeError};

const MAGIC: &[u8; 4] = b"LNVW";
const VERSION: u32 = 1;

/// Every entry spends at least this many bytes after the count field
/// (empty name: 4-byte name length + 8-byte rows + 8-byte cols), so an
/// `entry_count` claiming more entries than `remaining / 20` is rejected
/// before the entry loop runs.
const MIN_ENTRY_BYTES: u64 = 20;

/// `f64` payloads move through a stack buffer of this many bytes.
const CHUNK_BYTES: usize = 4096;

/// Why a checkpoint could not be saved, or a snapshot failed its
/// integrity checks on restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError {
    message: String,
}

impl CheckpointError {
    pub(crate) fn new(message: impl Into<String>) -> CheckpointError {
        CheckpointError {
            message: message.into(),
        }
    }

    /// Human-readable description of the failure.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CheckpointError {}

fn corrupt(msg: impl fmt::Display) -> RuntimeError {
    RuntimeError::Checkpoint(CheckpointError::new(format!("corrupt checkpoint: {msg}")))
}

/// The exact number of bytes [`encode`] writes for `env`.
fn encoded_len(env: &Env) -> usize {
    let entries: usize = env
        .iter()
        .map(|(name, m)| MIN_ENTRY_BYTES as usize + name.len() + 8 * m.len())
        .sum();
    12 + entries
}

/// Streams every binding of `env` into `w` — the one encoder of the
/// format.
///
/// Fails with [`io::ErrorKind::InvalidInput`] (instead of silently
/// truncating the `u32` header fields) if the environment holds more than
/// `u32::MAX` bindings or a name longer than `u32::MAX` bytes — a snapshot
/// that cannot faithfully round-trip is refused at save time, not
/// discovered as corruption on restore.
pub fn encode(env: &Env, w: &mut impl Write) -> io::Result<()> {
    let refuse = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
    let count = u32::try_from(env.len())
        .map_err(|_| refuse("environment has too many bindings for a v1 checkpoint".into()))?;
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&count.to_le_bytes())?;
    let mut chunk = [0u8; CHUNK_BYTES];
    for (name, m) in env.iter() {
        let name_len = u32::try_from(name.len()).map_err(|_| {
            refuse(format!(
                "binding name of {} bytes does not fit a v1 checkpoint",
                name.len()
            ))
        })?;
        w.write_all(&name_len.to_le_bytes())?;
        w.write_all(name.as_bytes())?;
        w.write_all(&(m.rows() as u64).to_le_bytes())?;
        w.write_all(&(m.cols() as u64).to_le_bytes())?;
        for values in m.as_slice().chunks(CHUNK_BYTES / 8) {
            for (dst, x) in chunk.chunks_exact_mut(8).zip(values) {
                dst.copy_from_slice(&x.to_le_bytes());
            }
            w.write_all(&chunk[..8 * values.len()])?;
        }
    }
    Ok(())
}

/// Serializes every binding of `env` into a standalone byte buffer,
/// reserved to the exact encoded length.
pub fn save(env: &Env) -> Result<Bytes> {
    let mut buf = Vec::with_capacity(encoded_len(env));
    encode(env, &mut buf).map_err(|e| CheckpointError::new(e.to_string()))?;
    Ok(Bytes::from(buf))
}

/// Restores an environment from a snapshot produced by [`save`].
///
/// The input is untrusted: any mutation of a valid snapshot — truncation,
/// bit flips, hostile length or shape headers — yields a
/// [`RuntimeError::Checkpoint`], never a panic or an
/// attacker-sized allocation.
pub fn restore(data: Bytes) -> Result<Env> {
    decode(&mut &data[..], data.len() as u64)
}

/// The `len` bytes of a snapshot still to be read from `r`.
struct Input<'a, R> {
    r: &'a mut R,
    remaining: u64,
}

impl<R: Read> Input<'_, R> {
    fn fill(&mut self, buf: &mut [u8], what: &str) -> Result<()> {
        if self.remaining < buf.len() as u64 {
            return Err(corrupt(format!("truncated {what}")));
        }
        self.r
            .read_exact(buf)
            .map_err(|e| corrupt(format!("{what} unreadable: {e}")))?;
        self.remaining -= buf.len() as u64;
        Ok(())
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        let mut b = [0u8; 4];
        self.fill(&mut b, what)?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        let mut b = [0u8; 8];
        self.fill(&mut b, what)?;
        Ok(u64::from_le_bytes(b))
    }
}

/// Decodes a snapshot of exactly `len` bytes from `r` — the one decoder of
/// the format. `len` is the length of what `r` holds (a buffer's length, a
/// file's size), so no header can make it allocate more than that.
///
/// The input is untrusted: any mutation of a valid snapshot — truncation,
/// bit flips, hostile length or shape headers, a name bound twice — yields
/// a [`RuntimeError::Checkpoint`], never a panic or an attacker-sized
/// allocation.
pub fn decode(r: &mut impl Read, len: u64) -> Result<Env> {
    let mut input = Input { r, remaining: len };
    if input.remaining < 12 {
        return Err(corrupt("truncated header"));
    }
    let mut magic = [0u8; 4];
    input.fill(&mut magic, "header")?;
    if &magic != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = input.u32("header")?;
    if version != VERSION {
        return Err(corrupt(format!("unsupported version {version}")));
    }
    let count = input.u32("header")? as u64;
    // Reject an oversized entry count before looping: each entry costs at
    // least MIN_ENTRY_BYTES, so a count the payload cannot possibly hold
    // is corruption, caught without touching the entries.
    if count.saturating_mul(MIN_ENTRY_BYTES) > input.remaining {
        return Err(corrupt("entry count exceeds payload"));
    }
    let mut env = Env::new();
    let mut chunk = [0u8; CHUNK_BYTES];
    for _ in 0..count {
        let name_len = input.u32("entry header")? as u64;
        if input.remaining < name_len.saturating_add(16) {
            return Err(corrupt("truncated entry"));
        }
        // Bounded by the bytes that remain, so at most the snapshot's size.
        let mut name = vec![0u8; name_len as usize];
        input.fill(&mut name, "entry")?;
        let name = String::from_utf8(name).map_err(|_| corrupt("non-utf8 name"))?;
        if env.contains(&name) {
            return Err(corrupt(format!("binding '{name}' appears twice")));
        }
        let rows = input.u64("entry")?;
        let cols = input.u64("entry")?;
        // Both multiplications are checked: `rows·cols` and the payload
        // byte count can each overflow on hostile headers (e.g. rows =
        // 2^62, cols = 2 passes the first check but wraps `·8`).
        let entries = rows
            .checked_mul(cols)
            .ok_or_else(|| corrupt("shape overflow"))?;
        let payload_bytes = entries
            .checked_mul(8)
            .ok_or_else(|| corrupt("payload size overflow"))?;
        if input.remaining < payload_bytes {
            return Err(corrupt("truncated matrix payload"));
        }
        // `entries` is now bounded by the remaining length, so this
        // allocation is at most the snapshot's own size.
        let mut values = Vec::with_capacity(entries as usize);
        let mut left = entries as usize;
        while left > 0 {
            let take = left.min(CHUNK_BYTES / 8);
            let bytes = &mut chunk[..8 * take];
            input.fill(bytes, "matrix payload")?;
            values.extend(
                bytes
                    .chunks_exact(8)
                    .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk"))),
            );
            left -= take;
        }
        let m =
            Matrix::from_vec(rows as usize, cols as usize, values).map_err(RuntimeError::Matrix)?;
        env.bind(name, m);
    }
    if input.remaining > 0 {
        return Err(corrupt("trailing bytes"));
    }
    Ok(env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{BufMut, BytesMut};

    fn sample_env() -> Env {
        let mut env = Env::new();
        env.bind("A", Matrix::random_uniform(6, 6, 1));
        env.bind("beta", Matrix::random_uniform(6, 1, 2));
        env.bind("P16", Matrix::random_uniform(6, 6, 3));
        env
    }

    /// A header claiming `count` entries, and nothing after it.
    fn hostile_count(count: u32) -> Bytes {
        let mut raw = BytesMut::new();
        raw.put_slice(MAGIC);
        raw.put_u32_le(VERSION);
        raw.put_u32_le(count);
        raw.freeze()
    }

    /// One entry 'A' claiming a `rows × cols` shape, and no payload.
    fn hostile_shape(rows: u64, cols: u64) -> Bytes {
        let mut raw = BytesMut::from(&hostile_count(1)[..]);
        raw.put_u32_le(1);
        raw.put_u8(b'A');
        raw.put_u64_le(rows);
        raw.put_u64_le(cols);
        raw.freeze()
    }

    /// Every mutation of `good` the tests of this module reject: bad magic
    /// and version, truncations, a trailing byte, and the hostile headers.
    fn mutation_cases(good: &Bytes) -> Vec<(String, Bytes)> {
        let mut cases = Vec::new();
        for (at, byte) in [(0, b'X'), (4, 99)] {
            let mut raw = good.to_vec();
            raw[at] = byte;
            cases.push((format!("byte {at} set to {byte}"), Bytes::from(raw)));
        }
        for cut in [0usize, 3, 11, 20, good.len() - 1] {
            cases.push((format!("cut at {cut}"), good.slice(0..cut)));
        }
        let mut trailing = good.to_vec();
        trailing.push(0);
        cases.push(("trailing byte".to_string(), Bytes::from(trailing)));
        for (rows, cols) in [(1u64 << 62, 2), (u64::MAX, u64::MAX)] {
            cases.push((format!("shape {rows}x{cols}"), hostile_shape(rows, cols)));
        }
        cases.push(("count u32::MAX".to_string(), hostile_count(u32::MAX)));
        cases
    }

    fn assert_typed(what: &str, result: Result<impl std::fmt::Debug>) {
        match result {
            Err(RuntimeError::Checkpoint(_)) => {}
            other => panic!("{what}: expected a checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn every_mutation_case_is_a_typed_error() {
        let good = save(&sample_env()).unwrap();
        for (what, bytes) in mutation_cases(&good) {
            assert_typed(&what, restore(bytes));
        }
    }

    #[test]
    fn encode_streams_exactly_the_saved_bytes() {
        let env = sample_env();
        let bytes = save(&env).unwrap();
        assert_eq!(bytes.len(), encoded_len(&env));
        let mut streamed = Vec::new();
        encode(&env, &mut streamed).unwrap();
        assert_eq!(streamed, &bytes[..]);
        let back = decode(&mut &streamed[..], streamed.len() as u64).unwrap();
        for (name, m) in env.iter() {
            assert_eq!(back.get(name).unwrap(), m);
        }
    }

    /// The same mutations, written as a durable directory's
    /// `checkpoint.bin`, fail `recover_from_disk` typed; so do a torn
    /// generation header and a flip of any header byte that decoding
    /// notices.
    #[test]
    fn durable_recovery_rejects_every_mutation_case_typed() {
        use linview_compiler::parse::parse_program;
        use linview_expr::Catalog;

        let n = 4;
        let program = parse_program("B := A * A; C := B * B;").unwrap();
        let mut cat = Catalog::new();
        cat.declare("A", n, n);
        let a = Matrix::random_spectral(n, 9, 0.8);
        let fresh = || {
            let view = crate::IncrementalView::build(&program, &[("A", a.clone())], &cat).unwrap();
            crate::MaintenanceEngine::new(view, crate::FlushPolicy::Immediate)
        };
        let dir = std::env::temp_dir().join(format!("lv-ckpt-mutations-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        fresh().enable_durable_checkpointing(4, &dir).unwrap();
        let file = dir.join("checkpoint.bin");
        let written = std::fs::read(&file).unwrap();
        let good = fresh().view().checkpoint().unwrap();
        assert_eq!(
            &written[8..],
            &good[..],
            "the durable snapshot is save()'s bytes"
        );

        let with_gen = |body: &[u8]| [&0u64.to_le_bytes()[..], body].concat();
        let mut files: Vec<(String, Vec<u8>)> = mutation_cases(&good)
            .into_iter()
            .map(|(what, bytes)| (what, with_gen(&bytes)))
            .collect();
        files.push(("torn generation".to_string(), written[..5].to_vec()));
        files.push(("generation of no WAL".to_string(), with_gen(&good)));
        files.last_mut().unwrap().1[0] = 7;
        for (what, bytes) in files {
            std::fs::write(&file, bytes).unwrap();
            assert_typed(&what, fresh().recover_from_disk(4, &dir));
            // A failed recovery rolls nothing: generation 0's WAL is intact.
            assert!(dir.join("wal-0.bin").is_file(), "{what}");
        }
        for at in 8..48 {
            for bit in [0x01, 0x80] {
                let mut flipped = written.clone();
                flipped[at] ^= bit;
                std::fs::write(&file, flipped).unwrap();
                if let Err(e) = fresh().recover_from_disk(4, &dir) {
                    assert_typed(&format!("bit {bit:#x} of byte {at}"), Err::<(), _>(e));
                }
                // A flip recovery accepted rolled generation 1; put back
                // generation 0's WAL for the next case.
                std::fs::write(dir.join("wal-0.bin"), b"").unwrap();
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_restore_roundtrip() {
        let env = sample_env();
        let snapshot = save(&env).unwrap();
        let back = restore(snapshot).unwrap();
        assert_eq!(back.len(), env.len());
        for (name, m) in env.iter() {
            assert_eq!(back.get(name).unwrap(), m, "binding {name} differs");
        }
    }

    #[test]
    fn empty_env_roundtrips() {
        let env = Env::new();
        let back = restore(save(&env).unwrap()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut raw = BytesMut::from(&save(&sample_env()).unwrap()[..]);
        raw[0] = b'X';
        assert!(restore(raw.freeze()).is_err());
        let mut raw2 = BytesMut::from(&save(&sample_env()).unwrap()[..]);
        raw2[4] = 99;
        assert!(restore(raw2.freeze()).is_err());
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let full = save(&sample_env()).unwrap();
        for cut in [0usize, 3, 11, 20, full.len() - 1] {
            let truncated = full.slice(0..cut);
            assert!(restore(truncated).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut raw = BytesMut::from(&save(&sample_env()).unwrap()[..]);
        raw.put_u8(0);
        assert!(restore(raw.freeze()).is_err());
    }

    #[test]
    fn corruption_reports_as_checkpoint_error_with_source_chain() {
        let mut raw = BytesMut::from(&save(&sample_env()).unwrap()[..]);
        raw[0] = b'X';
        let err = restore(raw.freeze()).unwrap_err();
        let RuntimeError::Checkpoint(inner) = &err else {
            panic!("expected RuntimeError::Checkpoint, got {err:?}");
        };
        assert!(inner.message().contains("bad magic"));
        // The CLI renderer walks source(): the label is short, the detail
        // hangs off the chain.
        use std::error::Error;
        let source = err.source().expect("checkpoint errors carry a source");
        assert!(source.to_string().contains("corrupt checkpoint"));
    }

    #[test]
    fn hostile_shape_header_cannot_overflow_the_length_check() {
        // One entry claiming rows = 2^62, cols = 2: `rows·cols = 2^63`
        // passes a checked multiply, but `entries * 8` wraps to 0 in
        // unchecked arithmetic — the historical bug let this through the
        // length check and into a capacity-2^63 allocation.
        let err = restore(hostile_shape(1u64 << 62, 2)).unwrap_err();
        assert!(matches!(err, RuntimeError::Checkpoint(_)), "{err:?}");

        // And rows·cols itself overflowing is likewise a clean error.
        assert!(restore(hostile_shape(u64::MAX, u64::MAX)).is_err());
    }

    #[test]
    fn absurd_entry_count_is_rejected_before_the_entry_loop() {
        let err = restore(hostile_count(u32::MAX)).unwrap_err();
        let RuntimeError::Checkpoint(inner) = err else {
            panic!("expected a checkpoint error");
        };
        assert!(inner.message().contains("entry count"));
    }

    #[test]
    fn resumed_maintenance_continues_correctly() {
        // The operational scenario: snapshot mid-stream, restart, continue.
        use linview_compiler::parse::parse_program;
        use linview_expr::Catalog;

        let program = parse_program("B := A * A; C := B * B;").unwrap();
        let n = 12;
        let mut cat = Catalog::new();
        cat.declare("A", n, n);
        let a = Matrix::random_spectral(n, 9, 0.8);
        let mut env = Env::new();
        env.bind("A", a.clone());
        let ev = crate::Evaluator::new();
        for stmt in program.statements() {
            let value = ev.eval(&stmt.expr, &env).unwrap();
            env.bind(stmt.target.clone(), value);
        }
        let tp = linview_compiler::compile(
            &program,
            &["A"],
            &cat,
            &linview_compiler::CompileOptions::default(),
        )
        .unwrap();
        let trigger = &tp.triggers[0];
        let upd1 = crate::RankOneUpdate::row_update(n, n, 2, 0.01, 4);
        let upd2 = crate::RankOneUpdate::row_update(n, n, 7, 0.01, 5);

        // Apply upd1, snapshot, then continue with upd2 on the restored env.
        crate::fire_trigger(&mut env, &ev, trigger, &upd1.u, &upd1.v).unwrap();
        let snapshot = save(&env).unwrap();
        let mut restored = restore(snapshot).unwrap();
        crate::fire_trigger(&mut restored, &ev, trigger, &upd2.u, &upd2.v).unwrap();

        // Reference: both updates without the snapshot detour.
        crate::fire_trigger(&mut env, &ev, trigger, &upd2.u, &upd2.v).unwrap();
        assert_eq!(restored.get("C").unwrap(), env.get("C").unwrap());
    }
}
