//! The engine's checkpoint store: the last environment snapshot plus every
//! [`FiringRecord`] fired since, kept in memory or in a directory.
//!
//! The directory layout is private to this module: `checkpoint.bin` (`u64`
//! LE generation, then the v1 snapshot of [`crate::checkpoint`], written to
//! a temp file and renamed) and one append-only `wal-<generation>.bin`
//! ([`WalFile`]) per generation. A roll creates the new generation's empty
//! WAL *before* the new snapshot is renamed into place and sweeps older
//! WALs only *after*, so a crash at any step leaves (old snapshot, old WAL)
//! or (new snapshot, empty new WAL) — never a snapshot paired with records
//! it folded.
//!
//! Rolls and recovery stream: a roll encodes the live environment straight
//! into the temp file through one [`BufWriter`], and recovery decodes
//! `checkpoint.bin` straight out of a [`BufReader`] bounded by the file's
//! length. Neither stages the snapshot in memory, so a durable engine
//! holds its views plus one I/O buffer; the bytes on disk are the same as
//! [`crate::checkpoint::save`]'s.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use bytes::Bytes;

use crate::checkpoint::{self, CheckpointError};
use crate::engine::RecoveryStats;
use crate::wal::{FiringRecord, WalFile};
use crate::{Env, Result};

const CHECKPOINT_FILE: &str = "checkpoint.bin";

/// Capacity of the buffer a roll writes and a recovery reads through.
const IO_BUF_BYTES: usize = 1 << 16;

/// What a store holds for replay: the snapshot's generation and
/// environment, the records fired since, and the torn WAL tail bytes.
pub(crate) type Loaded = (u64, Env, Vec<FiringRecord>, u64);

/// Whether `dir` holds a durable checkpoint that
/// [`MaintenanceEngine::recover_from_disk`](crate::MaintenanceEngine::recover_from_disk)
/// can resume from.
pub fn has_durable_checkpoint(dir: impl AsRef<Path>) -> bool {
    dir.as_ref().join(CHECKPOINT_FILE).is_file()
}

fn io_err(dir: &Path, what: &str, e: impl std::fmt::Display) -> CheckpointError {
    CheckpointError::new(format!("durable checkpoint {what} {}: {e}", dir.display()))
}

fn wal_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("wal-{gen}.bin"))
}

#[derive(Debug, Clone)]
enum Backing {
    /// Unencoded records; the snapshot is `view.checkpoint()` bytes, so both
    /// stores restore through the same path.
    Memory {
        snapshot: Bytes,
        log: Vec<FiringRecord>,
    },
    /// Recovery state lives only on disk.
    Dir {
        dir: PathBuf,
        gen: u64,
        wal: WalFile,
    },
}

/// A snapshot plus the log of every firing since, rolled every `every`
/// logged firings.
#[derive(Debug, Clone)]
pub(crate) struct CheckpointStore {
    backing: Backing,
    every: usize,
    since_roll: usize,
    /// An append failed after its firing succeeded, so the log is missing a
    /// firing the views hold: the next logged firing rolls instead of
    /// appending, and until then there is nothing consistent to load.
    short: bool,
}

impl CheckpointStore {
    /// An in-memory store whose floor is `snapshot`.
    pub(crate) fn memory(every: usize, snapshot: Bytes) -> CheckpointStore {
        let log = Vec::new();
        CheckpointStore::new(every, Backing::Memory { snapshot, log })
    }

    /// A durable store under `dir` (created if absent), starting generation
    /// `gen` from a snapshot of `env`.
    pub(crate) fn dir(every: usize, dir: &Path, gen: u64, env: &Env) -> Result<Self> {
        let wal = start_generation(dir, gen, env)?;
        let dir = dir.to_path_buf();
        Ok(CheckpointStore::new(every, Backing::Dir { dir, gen, wal }))
    }

    fn new(every: usize, backing: Backing) -> CheckpointStore {
        CheckpointStore {
            backing,
            every: every.max(1),
            since_roll: 0,
            short: false,
        }
    }

    /// The live WAL's path, for a durable store.
    pub(crate) fn wal_path(&self) -> Option<&Path> {
        match &self.backing {
            Backing::Memory { .. } => None,
            Backing::Dir { wal, .. } => Some(wal.path()),
        }
    }

    /// Logs one fired record — call it only after the firing succeeded —
    /// and rolls a fresh snapshot of `env` when the cadence is due or an
    /// earlier append failed. A durable append encodes the record once,
    /// inside [`WalFile::append`]; the memory store never encodes it.
    pub(crate) fn log(
        &mut self,
        record: FiringRecord,
        stats: &mut RecoveryStats,
        env: &Env,
    ) -> Result<()> {
        if !self.short {
            match &mut self.backing {
                Backing::Memory { log, .. } => log.push(record),
                Backing::Dir { wal, .. } => {
                    self.short = true;
                    wal.append(&record)?;
                    self.short = false;
                }
            }
            self.since_roll += 1;
            stats.logged_firings += 1;
            if self.since_roll < self.every {
                return Ok(());
            }
        }
        match &mut self.backing {
            Backing::Memory { snapshot, log } => {
                *snapshot = checkpoint::save(env)?;
                log.clear();
            }
            Backing::Dir { dir, gen, wal } => {
                *wal = start_generation(dir, *gen + 1, env)?;
                *gen += 1;
            }
        }
        self.since_roll = 0;
        self.short = false;
        stats.checkpoints += 1;
        Ok(())
    }

    /// What to replay; a durable store reads its directory back.
    pub(crate) fn load(&self) -> Result<Loaded> {
        if self.short {
            return Err(CheckpointError::new(
                "checkpoint log is missing a fired batch after a failed append; \
                 the next firing rolls a fresh checkpoint",
            )
            .into());
        }
        match &self.backing {
            Backing::Memory { snapshot, log } => {
                Ok((0, checkpoint::restore(snapshot.clone())?, log.clone(), 0))
            }
            Backing::Dir { dir, .. } => load_dir(dir),
        }
    }
}

/// Reads the snapshot under `dir` and the WAL of its generation back, as
/// [`CheckpointStore::load`] does, decoding the snapshot straight from the
/// file.
pub(crate) fn load_dir(dir: &Path) -> Result<Loaded> {
    let file = File::open(dir.join(CHECKPOINT_FILE)).map_err(|e| io_err(dir, "read", e))?;
    let len = file.metadata().map_err(|e| io_err(dir, "read", e))?.len();
    if len < 8 {
        return Err(io_err(dir, "read", "truncated generation header").into());
    }
    let mut reader = BufReader::with_capacity(IO_BUF_BYTES, file);
    let mut gen = [0u8; 8];
    reader
        .read_exact(&mut gen)
        .map_err(|e| io_err(dir, "read", e))?;
    let gen = u64::from_le_bytes(gen);
    let path = wal_path(dir, gen);
    // A generation's WAL is created before its snapshot lands, so a missing
    // one is damage, not an empty log.
    if !path.is_file() {
        return Err(io_err(dir, "read", format!("no WAL for generation {gen}")).into());
    }
    let wal = WalFile::open(path)?.read()?;
    let env = checkpoint::decode(&mut reader, len - 8)?;
    Ok((gen, env, wal.records, wal.torn_tail_bytes))
}

/// Starts generation `gen` under `dir`: fresh empty WAL first, then the
/// snapshot of `env`, streamed into a temp file and renamed into place,
/// then a best-effort sweep of the other generations' WALs.
fn start_generation(dir: &Path, gen: u64, env: &Env) -> Result<WalFile> {
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, "mkdir", e))?;
    let wal = WalFile::open(wal_path(dir, gen))?;
    wal.truncate()?;
    let tmp = dir.join(format!("{CHECKPOINT_FILE}.tmp"));
    File::create(&tmp)
        .and_then(|file| {
            let mut w = BufWriter::with_capacity(IO_BUF_BYTES, file);
            w.write_all(&gen.to_le_bytes())?;
            checkpoint::encode(env, &mut w)?;
            w.flush()
        })
        .map_err(|e| io_err(dir, "write", e))?;
    std::fs::rename(&tmp, dir.join(CHECKPOINT_FILE)).map_err(|e| io_err(dir, "rename", e))?;
    let entries = std::fs::read_dir(dir).into_iter().flatten().flatten();
    for path in entries.map(|e| e.path()) {
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if name.starts_with("wal-") && name.ends_with(".bin") && path != wal.path() {
            let _ = std::fs::remove_file(&path);
        }
    }
    Ok(wal)
}
