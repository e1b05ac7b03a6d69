//! Redo-only write-ahead log.
//!
//! The server uses a **no-steal / force-log** policy: data pages reflect
//! only committed state, so the log never needs undo. Each record is
//! framed as `[u32 len][u64 fnv1a checksum][payload]`; recovery stops at
//! the first torn or corrupt record (a crash mid-append loses only the
//! uncommitted tail, which is exactly the transaction that had not yet
//! acknowledged its commit).
//!
//! Records are *object-level* (`Put`/`Delete` by OID) rather than
//! page-level: the object directory is rebuilt from the heap on open, so
//! replay simply re-applies committed object states on top.

use displaydb_common::sync::{ranks, OrderedMutex};
use displaydb_common::{DbError, DbResult, Lsn, Oid, TxnId};
use displaydb_wire::{fnv1a, Decode, Encode, WireReader, WireWriter};
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// One log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// A transaction started.
    Begin(TxnId),
    /// A committed-intent object write (insert or update).
    Put {
        /// Writing transaction.
        txn: TxnId,
        /// Object identifier.
        oid: Oid,
        /// Full encoded object state.
        bytes: Vec<u8>,
    },
    /// An object deletion.
    Delete {
        /// Deleting transaction.
        txn: TxnId,
        /// Object identifier.
        oid: Oid,
    },
    /// The transaction's effects are durable once this record is on disk.
    Commit(TxnId),
    /// The transaction was abandoned; its records must not be replayed.
    Abort(TxnId),
    /// All earlier effects are already reflected in the heap.
    Checkpoint,
}

const TAG_BEGIN: u8 = 1;
const TAG_PUT: u8 = 2;
const TAG_DELETE: u8 = 3;
const TAG_COMMIT: u8 = 4;
const TAG_ABORT: u8 = 5;
const TAG_CHECKPOINT: u8 = 6;

impl Encode for WalRecord {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            WalRecord::Begin(t) => {
                w.put_u8(TAG_BEGIN);
                t.encode(w);
            }
            WalRecord::Put { txn, oid, bytes } => {
                w.put_u8(TAG_PUT);
                txn.encode(w);
                oid.encode(w);
                w.put_bytes(bytes);
            }
            WalRecord::Delete { txn, oid } => {
                w.put_u8(TAG_DELETE);
                txn.encode(w);
                oid.encode(w);
            }
            WalRecord::Commit(t) => {
                w.put_u8(TAG_COMMIT);
                t.encode(w);
            }
            WalRecord::Abort(t) => {
                w.put_u8(TAG_ABORT);
                t.encode(w);
            }
            WalRecord::Checkpoint => w.put_u8(TAG_CHECKPOINT),
        }
    }
}

impl Decode for WalRecord {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        Ok(match r.get_u8()? {
            TAG_BEGIN => WalRecord::Begin(TxnId::decode(r)?),
            TAG_PUT => WalRecord::Put {
                txn: TxnId::decode(r)?,
                oid: Oid::decode(r)?,
                bytes: r.get_bytes()?.to_vec(),
            },
            TAG_DELETE => WalRecord::Delete {
                txn: TxnId::decode(r)?,
                oid: Oid::decode(r)?,
            },
            TAG_COMMIT => WalRecord::Commit(TxnId::decode(r)?),
            TAG_ABORT => WalRecord::Abort(TxnId::decode(r)?),
            TAG_CHECKPOINT => WalRecord::Checkpoint,
            t => return Err(DbError::Corrupt(format!("unknown wal tag {t}"))),
        })
    }
}

/// Length of the valid framed-record prefix of `buf`: the scan stops at
/// the first torn frame (header or payload cut short) or checksum
/// mismatch, exactly where [`Wal::read_all`] stops reading.
pub(crate) fn valid_prefix_len(buf: &[u8]) -> usize {
    let mut pos = 0usize;
    while buf.len() - pos >= 12 {
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        if buf.len() - pos - 12 < len {
            break;
        }
        let checksum = u64::from_le_bytes(buf[pos + 4..pos + 12].try_into().unwrap());
        if fnv1a(&buf[pos + 12..pos + 12 + len]) != checksum {
            break;
        }
        pos += 12 + len;
    }
    pos
}

/// Fsync a directory so a just-created (or just-renamed/removed) entry in
/// it survives a crash. Creating a file makes its *contents* durable once
/// the file is synced, but the *directory entry* pointing at it is only
/// durable after the directory itself is synced — the classic
/// create-then-crash durability gap.
pub(crate) fn fsync_dir(dir: &Path) -> DbResult<()> {
    let d = File::open(dir)?;
    d.sync_all()?;
    Ok(())
}

/// Fsync the parent directory of `path` (no-op when `path` has no parent
/// component, e.g. a bare relative file name).
pub(crate) fn fsync_parent_dir(path: &Path) -> DbResult<()> {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => fsync_dir(dir),
        _ => Ok(()),
    }
}

/// Append-only log writer.
pub struct Wal {
    writer: OrderedMutex<BufWriter<File>>,
    path: PathBuf,
    next_lsn: AtomicU64,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal").field("path", &self.path).finish()
    }
}

impl Wal {
    /// Open (appending) or create the log at `path`.
    ///
    /// A torn tail left by a crash mid-append is truncated away here, so
    /// post-recovery appends start at the last valid record instead of
    /// interleaving with corrupt bytes that a later scan could misparse
    /// as a frame header. The parent directory is then fsynced so a
    /// freshly created log file survives a crash right after creation.
    pub fn open(path: impl AsRef<Path>) -> DbResult<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let valid = valid_prefix_len(&buf);
        if valid < buf.len() {
            file.set_len(valid as u64)?;
            file.sync_data()?;
        }
        fsync_parent_dir(&path)?;
        Ok(Self {
            writer: OrderedMutex::new(ranks::STORAGE_WAL, BufWriter::new(file)),
            path,
            next_lsn: AtomicU64::new(1),
        })
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append a record. Not yet durable (see [`Wal::sync`]).
    pub fn append(&self, record: &WalRecord) -> DbResult<Lsn> {
        let payload = record.encode_to_bytes();
        let mut w = self.writer.lock();
        w.write_all(&(payload.len() as u32).to_le_bytes())?;
        w.write_all(&fnv1a(&payload).to_le_bytes())?;
        w.write_all(&payload)?;
        Ok(Lsn::new(self.next_lsn.fetch_add(1, Ordering::Relaxed)))
    }

    /// Flush buffered records and fsync to stable storage. Called on every
    /// commit (force policy).
    pub fn sync(&self) -> DbResult<()> {
        let mut w = self.writer.lock();
        w.flush()?;
        w.get_ref().sync_data()?;
        Ok(())
    }

    /// Truncate the log after a checkpoint has made its contents redundant.
    pub fn reset(&self) -> DbResult<()> {
        let mut w = self.writer.lock();
        w.flush()?;
        let file = w.get_ref();
        file.set_len(0)?;
        file.sync_all()?;
        Ok(())
    }

    /// Read every intact record from a log file, stopping silently at a
    /// torn tail.
    pub fn read_all(path: impl AsRef<Path>) -> DbResult<Vec<WalRecord>> {
        let mut buf = Vec::new();
        match File::open(path.as_ref()) {
            Ok(mut f) => {
                f.read_to_end(&mut buf)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        }
        let mut records = Vec::new();
        let mut pos = 0usize;
        while buf.len() - pos >= 12 {
            let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
            let checksum = u64::from_le_bytes(buf[pos + 4..pos + 12].try_into().unwrap());
            if buf.len() - pos - 12 < len {
                break; // torn tail
            }
            let payload = &buf[pos + 12..pos + 12 + len];
            if fnv1a(payload) != checksum {
                break; // corrupt tail
            }
            match WalRecord::decode_from_bytes(payload) {
                Ok(r) => records.push(r),
                Err(_) => break,
            }
            pos += 12 + len;
        }
        Ok(records)
    }
}

/// The net effect of replaying a log: final object states for committed
/// transactions after the last checkpoint.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct RedoEffects {
    /// `Some(bytes)` = object must exist with this state; `None` = object
    /// must not exist.
    pub objects: HashMap<Oid, Option<Vec<u8>>>,
    /// Highest transaction id seen (to restart the txn id allocator past
    /// it).
    pub max_txn: u64,
    /// Highest transaction id with a `Commit` record anywhere in the log
    /// (0 = none). The DLM's durable update log is cross-checked against
    /// this at startup: a durable notification stream whose newest batch
    /// trails it is missing committed updates (DESIGN.md § 14).
    pub max_committed_txn: u64,
    /// Highest OID seen (to restart the OID allocator past it).
    pub max_oid: u64,
}

/// Compute redo effects from a record sequence.
pub fn redo_effects(records: &[WalRecord]) -> RedoEffects {
    // Only records after the last checkpoint need replaying.
    let start = records
        .iter()
        .rposition(|r| matches!(r, WalRecord::Checkpoint))
        .map(|i| i + 1)
        .unwrap_or(0);
    let tail = &records[start..];

    let committed: HashSet<TxnId> = tail
        .iter()
        .filter_map(|r| match r {
            WalRecord::Commit(t) => Some(*t),
            _ => None,
        })
        .collect();

    let mut fx = RedoEffects::default();
    for r in records {
        match r {
            WalRecord::Begin(t) | WalRecord::Commit(t) | WalRecord::Abort(t) => {
                fx.max_txn = fx.max_txn.max(t.raw());
                if matches!(r, WalRecord::Commit(_)) {
                    fx.max_committed_txn = fx.max_committed_txn.max(t.raw());
                }
            }
            WalRecord::Put { txn, oid, .. } | WalRecord::Delete { txn, oid } => {
                fx.max_txn = fx.max_txn.max(txn.raw());
                fx.max_oid = fx.max_oid.max(oid.raw());
            }
            WalRecord::Checkpoint => {}
        }
    }
    for r in tail {
        match r {
            WalRecord::Put { txn, oid, bytes } if committed.contains(txn) => {
                fx.objects.insert(*oid, Some(bytes.clone()));
            }
            WalRecord::Delete { txn, oid } if committed.contains(txn) => {
                fx.objects.insert(*oid, None);
            }
            _ => {}
        }
    }
    fx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("displaydb-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{}-{}.wal", name, std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn put(txn: u64, oid: u64, data: &[u8]) -> WalRecord {
        WalRecord::Put {
            txn: TxnId::new(txn),
            oid: Oid::new(oid),
            bytes: data.to_vec(),
        }
    }

    #[test]
    fn append_sync_read_roundtrip() {
        let path = tmp("roundtrip");
        let wal = Wal::open(&path).unwrap();
        let records = vec![
            WalRecord::Begin(TxnId::new(1)),
            put(1, 10, b"state"),
            WalRecord::Delete {
                txn: TxnId::new(1),
                oid: Oid::new(11),
            },
            WalRecord::Commit(TxnId::new(1)),
            WalRecord::Checkpoint,
        ];
        for r in &records {
            wal.append(r).unwrap();
        }
        wal.sync().unwrap();
        assert_eq!(Wal::read_all(&path).unwrap(), records);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let path = tmp("torn");
        let wal = Wal::open(&path).unwrap();
        wal.append(&WalRecord::Begin(TxnId::new(1))).unwrap();
        wal.append(&put(1, 1, b"ok")).unwrap();
        wal.sync().unwrap();
        // Simulate a crash mid-append: write a partial frame.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[200, 0, 0, 0, 1, 2, 3]).unwrap();
        }
        let records = Wal::read_all(&path).unwrap();
        assert_eq!(records.len(), 2);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn reopen_truncates_torn_tail_before_appending() {
        let path = tmp("reopen-torn");
        {
            let wal = Wal::open(&path).unwrap();
            wal.append(&WalRecord::Begin(TxnId::new(1))).unwrap();
            wal.append(&put(1, 1, b"ok")).unwrap();
            wal.sync().unwrap();
        }
        let intact_len = std::fs::metadata(&path).unwrap().len();
        // Crash mid-append: a partial frame lands after the valid records.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[200, 0, 0, 0, 1, 2, 3]).unwrap();
        }
        // Reopen repairs the tail in place...
        let wal = Wal::open(&path).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact_len);
        // ...so new appends follow the last valid record and the whole
        // log parses cleanly again (no torn bytes hiding mid-file).
        wal.append(&put(2, 2, b"after"))
            .and_then(|_| wal.sync())
            .unwrap();
        let records = Wal::read_all(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[2], put(2, 2, b"after"));
        let repaired_len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(
            valid_prefix_len(&std::fs::read(&path).unwrap()),
            repaired_len as usize
        );
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn corrupt_checksum_stops_reading() {
        let path = tmp("corrupt");
        let wal = Wal::open(&path).unwrap();
        wal.append(&put(1, 1, b"first")).unwrap();
        wal.append(&put(1, 2, b"second")).unwrap();
        wal.sync().unwrap();
        // Flip one byte in the second record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();
        let records = Wal::read_all(&path).unwrap();
        assert_eq!(records.len(), 1);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn redo_skips_uncommitted_and_aborted() {
        let records = vec![
            WalRecord::Begin(TxnId::new(1)),
            put(1, 1, b"committed"),
            WalRecord::Commit(TxnId::new(1)),
            WalRecord::Begin(TxnId::new(2)),
            put(2, 2, b"aborted"),
            WalRecord::Abort(TxnId::new(2)),
            WalRecord::Begin(TxnId::new(3)),
            put(3, 3, b"in flight"),
        ];
        let fx = redo_effects(&records);
        assert_eq!(fx.objects.len(), 1);
        assert_eq!(fx.objects[&Oid::new(1)], Some(b"committed".to_vec()));
        assert_eq!(fx.max_txn, 3);
        assert_eq!(fx.max_oid, 3);
    }

    #[test]
    fn redo_respects_last_checkpoint() {
        let records = vec![
            WalRecord::Begin(TxnId::new(1)),
            put(1, 1, b"before checkpoint"),
            WalRecord::Commit(TxnId::new(1)),
            WalRecord::Checkpoint,
            WalRecord::Begin(TxnId::new(2)),
            put(2, 2, b"after checkpoint"),
            WalRecord::Commit(TxnId::new(2)),
        ];
        let fx = redo_effects(&records);
        assert_eq!(fx.objects.len(), 1);
        assert!(fx.objects.contains_key(&Oid::new(2)));
        // id allocators still account for pre-checkpoint history
        assert_eq!(fx.max_txn, 2);
        assert_eq!(fx.max_oid, 2);
    }

    #[test]
    fn redo_last_write_wins_in_order() {
        let records = vec![
            put(1, 1, b"v1"),
            WalRecord::Commit(TxnId::new(1)),
            put(2, 1, b"v2"),
            WalRecord::Commit(TxnId::new(2)),
            WalRecord::Delete {
                txn: TxnId::new(3),
                oid: Oid::new(1),
            },
            WalRecord::Commit(TxnId::new(3)),
        ];
        let fx = redo_effects(&records);
        assert_eq!(fx.objects[&Oid::new(1)], None);
    }

    #[test]
    fn reset_truncates() {
        let path = tmp("reset");
        let wal = Wal::open(&path).unwrap();
        wal.append(&put(1, 1, b"x")).unwrap();
        wal.sync().unwrap();
        wal.reset().unwrap();
        assert!(Wal::read_all(&path).unwrap().is_empty());
        // And keeps working after reset.
        wal.append(&put(2, 2, b"y")).unwrap();
        wal.sync().unwrap();
        assert_eq!(Wal::read_all(&path).unwrap().len(), 1);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn missing_file_reads_empty() {
        let path = tmp("missing");
        let _ = std::fs::remove_file(&path);
        assert!(Wal::read_all(&path).unwrap().is_empty());
    }
}
