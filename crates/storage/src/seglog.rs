//! Durable segment log for the DLM's replayable update log (DESIGN.md § 14).
//!
//! The in-memory update log (PR 6) gives reconnecting displays cursor
//! catch-up — but it dies with the process, so a server restart turns a
//! fleet's recovery into the full-resync storm the log exists to avoid.
//! This module is the stable-storage spill: committed notification batches
//! are framed with the WAL's `[u32 len][u64 fnv1a][payload]` discipline
//! into append-only **segment files** under one directory, together with
//! a `meta` file carrying the **log incarnation id** (minted once, then
//! stable across restarts; cursors are only comparable within one
//! incarnation).
//!
//! Batch payloads are opaque bytes: the DLM encodes/decodes its own batch
//! representation, so this crate stays ignorant of notification shapes.
//!
//! # Segments, rotation, retention
//!
//! The active segment rotates once it reaches `segment_bytes`; rotation
//! seals it, fsyncs it, opens `seg-<base seqno, hex>.log` for the next
//! window, and fsyncs the directory so the new file's existence is itself
//! durable. Retention deletes **whole oldest segments** once the total
//! durable budget is exceeded, so the retained seqno window — like the
//! in-memory ring's front eviction — is always a contiguous suffix.
//!
//! # Recovery
//!
//! [`SegLog::open`] scans segments in base order, validating framing,
//! checksums, record decode, header incarnations, and seqno contiguity. A
//! torn or corrupt tail is truncated in place. Because the durable batch
//! stream trails the main WAL's commit stream (batches are spilled at
//! notification fan-out, after the commit record is already forced), a
//! tear means the tail batch's commit outcome is unknowable from this log
//! alone — so any tear **truncates the whole recovered window**: the
//! incarnation and seqno space survive, but resuming clients fall back to
//! resync instead of silently missing the lost tail batch. The server
//! additionally cross-checks the last recovered transaction id against
//! the main WAL's committed tail and applies the same demotion if the
//! notification log is behind (see `ServerCore::open`).
//!
//! # Crash points
//!
//! The append and rotation paths probe the deterministic crash-point
//! harness (`displaydb_common::crashpoint`). An armed point performs the
//! partial on-disk effect a real crash would leave (torn frame, unsynced
//! record, header-less fresh segment) and returns
//! [`DbError::CrashPoint`]; the restart-and-verify tests then reopen the
//! same directory and assert the recovery invariants.

use crate::wal::{fsync_dir, fsync_parent_dir, valid_prefix_len};
use displaydb_common::crashpoint::{self, CrashPoint};
use displaydb_common::metrics::SegLogStats;
use displaydb_common::sync::{ranks, OrderedMutex};
use displaydb_common::{DbError, DbResult, DurableLogConfig};
use displaydb_wire::{fnv1a, Decode, Encode, WireReader, WireWriter};
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Format marker in the `meta` file ("SLM1").
const META_MAGIC: u32 = 0x534C_4D31;

const TAG_HEADER: u8 = 1;
const TAG_BATCH: u8 = 2;
/// Retired: a client's acked cursor, which nothing read. Recovery skips
/// such a record in a log written before; the tag is never reused.
const TAG_RETIRED_FRONTIER: u8 = 3;

/// One durable record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SegRecord {
    /// First record of every segment: binds the file to an incarnation
    /// and names the first seqno that may appear in it.
    Header {
        /// Incarnation the segment belongs to.
        incarnation: u64,
        /// First seqno eligible to be appended to this segment.
        base_seqno: u64,
    },
    /// A committed notification batch (payload opaque to storage).
    Batch {
        /// The batch's update-log seqno (monotonic, 1-based).
        seqno: u64,
        /// Committing transaction id (0 when unknown, e.g. agent-fed
        /// batches); lets the server cross-check the durable tail
        /// against the main WAL's committed tail.
        txn: u64,
        /// DLM-encoded batch bytes.
        payload: Vec<u8>,
    },
}

impl Encode for SegRecord {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            SegRecord::Header {
                incarnation,
                base_seqno,
            } => {
                w.put_u8(TAG_HEADER);
                w.put_u64(*incarnation);
                w.put_varint(*base_seqno);
            }
            SegRecord::Batch {
                seqno,
                txn,
                payload,
            } => {
                w.put_u8(TAG_BATCH);
                w.put_varint(*seqno);
                w.put_varint(*txn);
                w.put_bytes(payload);
            }
        }
    }
}

impl Decode for SegRecord {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        Ok(match r.get_u8()? {
            TAG_HEADER => SegRecord::Header {
                incarnation: r.get_u64()?,
                base_seqno: r.get_varint()?,
            },
            TAG_BATCH => SegRecord::Batch {
                seqno: r.get_varint()?,
                txn: r.get_varint()?,
                payload: r.get_bytes()?.to_vec(),
            },
            t => return Err(DbError::Corrupt(format!("unknown seglog tag {t}"))),
        })
    }
}

/// A batch recovered by the startup scan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveredBatch {
    /// The batch's seqno.
    pub seqno: u64,
    /// Committing transaction id (0 = unknown).
    pub txn: u64,
    /// DLM-encoded batch bytes.
    pub payload: Vec<u8>,
}

/// Everything [`SegLog::open`] learned from the directory.
#[derive(Debug, Default)]
pub struct SegLogRecovery {
    /// The (recovered or freshly minted) incarnation id.
    pub incarnation: u64,
    /// `true` when the incarnation was read back from `meta` rather than
    /// minted this open — the precondition for honoring old cursors.
    pub incarnation_recovered: bool,
    /// Recovered batches: strictly ascending, contiguous seqnos (a
    /// contiguous suffix of everything ever appended). Empty when the
    /// window was truncated.
    pub batches: Vec<RecoveredBatch>,
    /// Next seqno to append (durable head + 1; 1 for a fresh log).
    pub next_seqno: u64,
    /// Highest transaction id stamped on any recovered batch — including
    /// batches later dropped by a window truncation, so the server's
    /// WAL cross-check still sees how far the durable stream got.
    pub last_txn: u64,
    /// `true` when a torn/corrupt tail (or header mismatch) forced the
    /// recovered window empty. The seqno space and incarnation survive;
    /// resuming cursors must fall back to resync.
    pub window_truncated: bool,
}

struct Segment {
    path: PathBuf,
    bytes: u64,
}

struct Inner {
    active: BufWriter<File>,
    active_path: PathBuf,
    active_bytes: u64,
    appends_since_sync: u32,
    sealed: Vec<Segment>,
    /// Next batch seqno expected; names the base of a rotated-to segment.
    next_seqno: u64,
    /// This log's share of the shared `durable_bytes` and `segments`
    /// gauges, which sum over a server's shard logs.
    gauged: (u64, u64),
}

/// Append side of the durable update log. One per DLM update log.
pub struct SegLog {
    dir: PathBuf,
    config: DurableLogConfig,
    stats: SegLogStats,
    incarnation: u64,
    inner: OrderedMutex<Inner>,
}

impl std::fmt::Debug for SegLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegLog")
            .field("dir", &self.dir)
            .field("incarnation", &self.incarnation)
            .finish()
    }
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn segment_path(dir: &Path, base: u64) -> PathBuf {
    dir.join(format!("seg-{base:016x}.log"))
}

fn parse_segment_base(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let hex = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    u64::from_str_radix(hex, 16).ok()
}

/// Decode every intact framed record in `buf`, skipping retired ones;
/// also returns the number of valid bytes consumed (`< buf.len()` means
/// a torn/corrupt tail; a frame whose checksum passes but whose payload
/// fails to decode also ends the valid prefix).
fn scan_records(buf: &[u8]) -> (Vec<SegRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let framed = valid_prefix_len(buf);
    while pos < framed {
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        let payload = &buf[pos + 12..pos + 12 + len];
        if payload.first() != Some(&TAG_RETIRED_FRONTIER) {
            match SegRecord::decode_from_bytes(payload) {
                Ok(r) => records.push(r),
                Err(_) => break,
            }
        }
        pos += 12 + len;
    }
    (records, pos)
}

impl SegLog {
    /// Open (or create) the durable log under `dir`, recovering whatever
    /// the previous incarnation left there.
    ///
    /// `fresh_incarnation` is used only when no valid `meta` exists (first
    /// open, or an unrecoverable directory — in which case old cursors
    /// are unhonorable by construction, since the incarnation changes).
    ///
    /// `min_last_txn` is the caller's notion of the last transaction the
    /// main WAL committed (0 = no cross-check). The durable batch stream
    /// trails the WAL — batches are spilled at notification fan-out,
    /// after the commit record is forced — so a recovered tail behind
    /// `min_last_txn` means committed updates are missing from the
    /// window; it is truncated exactly like a torn tail, and resuming
    /// cursors fall back to resync instead of silently skipping them.
    pub fn open(
        dir: impl AsRef<Path>,
        config: DurableLogConfig,
        stats: SegLogStats,
        fresh_incarnation: u64,
        min_last_txn: u64,
    ) -> DbResult<(Self, SegLogRecovery)> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        fsync_parent_dir(&dir)?;

        let mut recovery = SegLogRecovery::default();

        // Incarnation: recover from `meta`, else mint and persist.
        match read_meta(&dir.join("meta")) {
            Some(inc) => {
                recovery.incarnation = inc;
                recovery.incarnation_recovered = true;
            }
            None => {
                recovery.incarnation = fresh_incarnation.max(1);
                write_meta(&dir, recovery.incarnation)?;
            }
        }

        // Scan segments in base order.
        let mut seg_paths: Vec<(u64, PathBuf)> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter_map(|p| parse_segment_base(&p).map(|b| (b, p)))
            .collect();
        seg_paths.sort();

        let mut sealed: Vec<Segment> = Vec::new();
        let mut max_seqno = 0u64;
        let mut max_base = 0u64;
        let mut torn_at: Option<usize> = None; // index into seg_paths
        for (i, (name_base, path)) in seg_paths.iter().enumerate() {
            let mut buf = Vec::new();
            File::open(path)?.read_to_end(&mut buf)?;
            let (records, valid) = scan_records(&buf);
            let mut seg_torn = valid < buf.len();
            max_base = max_base.max(*name_base);
            for rec in records {
                match rec {
                    SegRecord::Header {
                        incarnation,
                        base_seqno,
                    } => {
                        if incarnation != recovery.incarnation || base_seqno != *name_base {
                            seg_torn = true;
                            break;
                        }
                        max_base = max_base.max(base_seqno);
                    }
                    SegRecord::Batch {
                        seqno,
                        txn,
                        payload,
                    } => {
                        recovery.last_txn = recovery.last_txn.max(txn);
                        if seqno <= max_seqno {
                            // Seqnos never repeat or regress; this is
                            // corruption, not a crash artifact.
                            seg_torn = true;
                            break;
                        }
                        if max_seqno != 0 && seqno != max_seqno + 1 {
                            // A gap (e.g. a manually deleted middle
                            // segment): only the suffix after the gap is
                            // a usable window.
                            recovery.batches.clear();
                        }
                        max_seqno = seqno;
                        recovery.batches.push(RecoveredBatch {
                            seqno,
                            txn,
                            payload,
                        });
                    }
                }
            }
            if seg_torn {
                // Repair in place: drop the bad tail, and everything
                // after it (later segments would leave a seqno gap).
                if valid < buf.len() {
                    let f = OpenOptions::new().write(true).open(path)?;
                    f.set_len(valid as u64)?;
                    f.sync_data()?;
                }
                stats.torn_tails_truncated.inc();
                torn_at = Some(i);
                sealed.push(Segment {
                    path: path.clone(),
                    bytes: valid as u64,
                });
                break;
            }
            sealed.push(Segment {
                path: path.clone(),
                bytes: buf.len() as u64,
            });
        }
        if let Some(i) = torn_at {
            for (_, path) in &seg_paths[i + 1..] {
                let _ = fs::remove_file(path);
            }
            fsync_dir(&dir)?;
            recovery.window_truncated = true;
        }
        recovery.next_seqno = (max_seqno + 1).max(max_base).max(1);

        // WAL cross-check: the durable stream stops short of what the
        // main WAL committed — the missing tail batches are gone for
        // good, so the window is as unusable as after a tear.
        if recovery.last_txn < min_last_txn {
            recovery.window_truncated = true;
        }

        // A torn tail makes the final batch's commit outcome unknowable
        // (see module docs): surrender the whole window rather than let
        // a resuming cursor silently skip the lost tail. The seqno space
        // and incarnation survive so cursors stay comparable.
        if recovery.window_truncated {
            recovery.batches.clear();
            for seg in sealed.drain(..) {
                let _ = fs::remove_file(&seg.path);
            }
            fsync_dir(&dir)?;
        }

        stats.recovered_records.add(recovery.batches.len() as u64);

        // Pick the active segment: reuse an intact, non-full last
        // segment, else start a fresh one at `next_seqno`. A zero-byte
        // leftover (rotation crashed before the header landed) goes
        // through `create_segment`, which stamps the missing header.
        let (active_path, reuse_bytes) = match sealed.last() {
            Some(s) if s.bytes > 0 && s.bytes < config.segment_bytes => {
                let s = sealed.pop().unwrap();
                (s.path, s.bytes)
            }
            Some(s) if s.bytes == 0 => {
                let s = sealed.pop().unwrap();
                (s.path, 0)
            }
            _ => (segment_path(&dir, recovery.next_seqno), 0),
        };
        let (active, active_bytes) = if reuse_bytes == 0 {
            let (file, bytes) = create_segment(
                &dir,
                &active_path,
                recovery.incarnation,
                recovery.next_seqno,
            )?;
            (BufWriter::new(file), bytes)
        } else {
            let file = OpenOptions::new().append(true).open(&active_path)?;
            (BufWriter::new(file), reuse_bytes)
        };

        let log = Self {
            dir,
            config,
            stats: stats.clone(),
            incarnation: recovery.incarnation,
            inner: OrderedMutex::new(
                ranks::STORAGE_SEGLOG,
                Inner {
                    active,
                    active_path,
                    active_bytes,
                    appends_since_sync: 0,
                    sealed,
                    next_seqno: recovery.next_seqno,
                    gauged: (0, 0),
                },
            ),
        };
        log.refresh_gauges(&mut log.inner.lock());
        Ok((log, recovery))
    }

    /// The stable incarnation id.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Shared counters.
    pub fn stats(&self) -> &SegLogStats {
        &self.stats
    }

    /// Directory holding meta + segments.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Move this log's share of the shared gauges to its current totals.
    fn refresh_gauges(&self, inner: &mut Inner) {
        let total: u64 = inner.sealed.iter().map(|s| s.bytes).sum::<u64>() + inner.active_bytes;
        let now = (total, inner.sealed.len() as u64 + 1);
        let (bytes, segments) = std::mem::replace(&mut inner.gauged, now);
        self.stats.durable_bytes.add(now.0 as i64 - bytes as i64);
        self.stats.segments.add(now.1 as i64 - segments as i64);
    }

    /// Append a committed notification batch under `seqno`.
    pub fn append_batch(&self, seqno: u64, txn: u64, payload: &[u8]) -> DbResult<()> {
        let rec = SegRecord::Batch {
            seqno,
            txn,
            payload: payload.to_vec(),
        };
        let payload = rec.encode_to_bytes();
        let framed = frame(&payload);
        let mut inner = self.inner.lock();
        inner.next_seqno = inner.next_seqno.max(seqno + 1);

        if crashpoint::hit(CrashPoint::MidAppend) {
            // Partial effect: the header and roughly half the payload
            // reach the file — a genuinely torn frame.
            let cut = 12 + payload.len() / 2;
            inner.active.write_all(&framed[..cut])?;
            inner.active.flush()?;
            return Err(crashpoint::error(CrashPoint::MidAppend));
        }

        inner.active.write_all(&framed)?;
        inner.active_bytes += framed.len() as u64;

        if crashpoint::hit(CrashPoint::PostAppendPreSync) {
            // The record is fully written but not synced. (In-process
            // simulation keeps the bytes; a real crash may or may not —
            // recovery must accept either.)
            inner.active.flush()?;
            return Err(crashpoint::error(CrashPoint::PostAppendPreSync));
        }

        inner.appends_since_sync += 1;
        if inner.appends_since_sync >= self.config.sync_every {
            self.sync_inner(&mut inner)?;
        }

        if crashpoint::hit(CrashPoint::PostSyncPreAck) {
            // Force durability, then crash before the caller learns of
            // it: the classic "durable but unacknowledged" window.
            self.sync_inner(&mut inner)?;
            return Err(crashpoint::error(CrashPoint::PostSyncPreAck));
        }

        if inner.active_bytes >= self.config.segment_bytes {
            self.rotate(&mut inner)?;
        }
        self.refresh_gauges(&mut inner);
        self.stats.records_appended.inc();
        Ok(())
    }

    fn sync_inner(&self, inner: &mut Inner) -> DbResult<()> {
        inner.active.flush()?;
        inner.active.get_ref().sync_data()?;
        inner.appends_since_sync = 0;
        self.stats.syncs.inc();
        Ok(())
    }

    /// Flush and fsync the active segment.
    pub fn sync(&self) -> DbResult<()> {
        let mut inner = self.inner.lock();
        self.sync_inner(&mut inner)
    }

    fn rotate(&self, inner: &mut Inner) -> DbResult<()> {
        // Seal: everything in the outgoing segment becomes durable
        // before the new one exists.
        self.sync_inner(inner)?;

        let next_seqno = inner.next_seqno;
        let new_path = segment_path(&self.dir, next_seqno);
        if crashpoint::hit(CrashPoint::MidRotation) {
            // Partial effect: the fresh segment file exists (empty — no
            // header yet) but bookkeeping never switches over.
            if new_path != inner.active_path {
                drop(File::create(&new_path)?);
                fsync_dir(&self.dir)?;
            }
            return Err(crashpoint::error(CrashPoint::MidRotation));
        }

        if new_path == inner.active_path {
            // Degenerate rotation (no batch landed in this segment):
            // keep appending in place.
            return Ok(());
        }

        let (file, bytes) = create_segment(&self.dir, &new_path, self.incarnation, next_seqno)?;
        let old = std::mem::replace(&mut inner.active, BufWriter::new(file));
        // BufWriter::into_inner would re-flush; sync_inner already did.
        drop(old);
        inner.sealed.push(Segment {
            path: std::mem::replace(&mut inner.active_path, new_path),
            bytes: inner.active_bytes,
        });
        inner.active_bytes = bytes;
        inner.appends_since_sync = 0;
        self.stats.rotations.inc();

        // Retention: drop whole oldest segments past the total budget,
        // keeping the window a contiguous suffix.
        let mut removed = false;
        loop {
            let total: u64 = inner.sealed.iter().map(|s| s.bytes).sum::<u64>() + inner.active_bytes;
            if total <= self.config.max_total_bytes || inner.sealed.is_empty() {
                break;
            }
            let victim = inner.sealed.remove(0);
            fs::remove_file(&victim.path)?;
            self.stats.segments_retired.inc();
            removed = true;
        }
        if removed {
            fsync_dir(&self.dir)?;
        }
        Ok(())
    }
}

impl Drop for SegLog {
    fn drop(&mut self) {
        // Best effort: push buffered appends to stable storage so a clean
        // shutdown loses nothing (a crash loses at most the unsynced
        // window, which recovery handles).
        if let Some(mut inner) = self.inner.try_lock() {
            let _ = self.sync_inner(&mut inner);
        }
    }
}

fn read_meta(path: &Path) -> Option<u64> {
    let mut buf = Vec::new();
    File::open(path).ok()?.read_to_end(&mut buf).ok()?;
    let valid = valid_prefix_len(&buf);
    if valid < 12 {
        return None;
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    let payload = &buf[12..12 + len];
    let mut r = WireReader::new(payload);
    if r.get_u32().ok()? != META_MAGIC {
        return None;
    }
    let incarnation = r.get_u64().ok()?;
    (incarnation > 0).then_some(incarnation)
}

fn write_meta(dir: &Path, incarnation: u64) -> DbResult<()> {
    let mut w = WireWriter::new();
    w.put_u32(META_MAGIC);
    w.put_u64(incarnation);
    let framed = frame(&w.finish());
    let tmp = dir.join("meta.tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(&framed)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, dir.join("meta"))?;
    fsync_dir(dir)?;
    Ok(())
}

fn create_segment(
    dir: &Path,
    path: &Path,
    incarnation: u64,
    base_seqno: u64,
) -> DbResult<(File, u64)> {
    let existed = path.exists();
    let file = OpenOptions::new().create(true).append(true).open(path)?;
    let mut bytes = if existed { file.metadata()?.len() } else { 0 };
    if bytes == 0 {
        // Fresh (or crash-abandoned empty) segment: stamp the header.
        let hdr = SegRecord::Header {
            incarnation,
            base_seqno,
        }
        .encode_to_bytes();
        let framed = frame(&hdr);
        let mut f = &file;
        f.write_all(&framed)?;
        file.sync_data()?;
        bytes = framed.len() as u64;
    }
    fsync_dir(dir)?;
    Ok((file, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use displaydb_common::crashpoint::CrashGuard;
    use std::sync::Mutex;

    // Crash points are process-global; serialize the tests that arm them.
    static SERIAL: Mutex<()> = Mutex::new(());

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(name: &str) -> Self {
            let p = std::env::temp_dir()
                .join("displaydb-seglog-tests")
                .join(format!("{}-{}", name, std::process::id()));
            let _ = fs::remove_dir_all(&p);
            fs::create_dir_all(&p).unwrap();
            TempDir(p)
        }
        fn path(&self) -> &Path {
            &self.0
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn cfg() -> DurableLogConfig {
        DurableLogConfig {
            enabled: true,
            segment_bytes: 512,
            max_total_bytes: 64 << 10,
            sync_every: 2,
        }
    }

    fn open(dir: &Path) -> (SegLog, SegLogRecovery) {
        SegLog::open(dir, cfg(), SegLogStats::new(), 77, 0).unwrap()
    }

    fn payload(i: u64) -> Vec<u8> {
        format!("batch-{i}").into_bytes()
    }

    #[test]
    fn roundtrip_across_reopen() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let _guard = CrashGuard::new();
        let tmp = TempDir::new("roundtrip");
        let (log, rec) = open(tmp.path());
        assert_eq!(rec.next_seqno, 1);
        assert!(!rec.incarnation_recovered);
        assert_eq!(rec.incarnation, 77);
        for i in 1..=20u64 {
            log.append_batch(i, 100 + i, &payload(i)).unwrap();
        }
        log.sync().unwrap();
        drop(log);

        let (_log2, rec2) = open(tmp.path());
        assert!(rec2.incarnation_recovered);
        assert_eq!(rec2.incarnation, 77);
        assert!(!rec2.window_truncated);
        assert_eq!(rec2.next_seqno, 21);
        assert_eq!(rec2.last_txn, 120);
        let seqnos: Vec<u64> = rec2.batches.iter().map(|b| b.seqno).collect();
        assert_eq!(seqnos, (1..=20).collect::<Vec<_>>());
        assert_eq!(rec2.batches[4].payload, payload(5));
    }

    #[test]
    fn a_retired_frontier_record_is_skipped() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let _guard = CrashGuard::new();
        let tmp = TempDir::new("retired");
        let (log, _) = open(tmp.path());
        log.append_batch(1, 1, &payload(1)).unwrap();
        log.sync().unwrap();
        drop(log);
        // A cursor frontier as older logs wrote it, between two batches.
        let mut w = WireWriter::new();
        w.put_u8(TAG_RETIRED_FRONTIER);
        displaydb_common::ClientId::new(5).encode(&mut w);
        w.put_varint(1);
        let segment = segment_path(tmp.path(), 1);
        let mut file = OpenOptions::new().append(true).open(&segment).unwrap();
        file.write_all(&frame(&w.finish())).unwrap();
        drop(file);
        let (log, _) = open(tmp.path());
        log.append_batch(2, 2, &payload(2)).unwrap();
        log.sync().unwrap();
        drop(log);

        let (_log, rec) = open(tmp.path());
        assert!(!rec.window_truncated);
        let seqnos: Vec<u64> = rec.batches.iter().map(|b| b.seqno).collect();
        assert_eq!(seqnos, vec![1, 2]);
        assert_eq!(rec.next_seqno, 3);
    }

    #[test]
    fn rotation_seals_and_retention_keeps_contiguous_suffix() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let _guard = CrashGuard::new();
        let tmp = TempDir::new("rotate");
        let config = DurableLogConfig {
            enabled: true,
            segment_bytes: 256,
            max_total_bytes: 1024,
            sync_every: 1,
        };
        let stats = SegLogStats::new();
        let (log, _) = SegLog::open(tmp.path(), config, stats.clone(), 1, 0).unwrap();
        let big = vec![0xAB; 64];
        for i in 1..=64u64 {
            log.append_batch(i, i, &big).unwrap();
        }
        assert!(
            stats.rotations.get() >= 2,
            "rotations: {}",
            stats.rotations.get()
        );
        assert!(stats.segments_retired.get() >= 1);
        drop(log);

        let (_log2, rec) = SegLog::open(tmp.path(), config, SegLogStats::new(), 1, 0).unwrap();
        assert!(!rec.window_truncated);
        let seqnos: Vec<u64> = rec.batches.iter().map(|b| b.seqno).collect();
        assert!(!seqnos.is_empty());
        // Contiguous suffix ending at the durable head.
        assert_eq!(*seqnos.last().unwrap(), 64);
        for w in seqnos.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
        assert_eq!(rec.next_seqno, 65);
    }

    #[test]
    fn torn_tail_truncates_window_but_keeps_incarnation_and_seqnos() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let _guard = CrashGuard::new();
        let tmp = TempDir::new("torn");
        let (log, _) = open(tmp.path());
        for i in 1..=5u64 {
            log.append_batch(i, i, &payload(i)).unwrap();
        }
        log.sync().unwrap();
        drop(log);
        // Tear the newest segment by hand.
        let mut segs: Vec<PathBuf> = fs::read_dir(tmp.path())
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| parse_segment_base(p).is_some())
            .collect();
        segs.sort();
        let mut f = OpenOptions::new()
            .append(true)
            .open(segs.last().unwrap())
            .unwrap();
        f.write_all(&[9, 0, 0, 0, 1, 2]).unwrap();
        drop(f);

        let (log2, rec) = open(tmp.path());
        assert!(rec.window_truncated, "tear must truncate the window");
        assert!(rec.batches.is_empty());
        assert_eq!(rec.incarnation, 77);
        assert!(rec.incarnation_recovered);
        assert_eq!(rec.next_seqno, 6, "seqno space survives the tear");
        // The log keeps working past the tear.
        log2.append_batch(6, 6, &payload(6)).unwrap();
        log2.sync().unwrap();
        drop(log2);
        let (_log3, rec3) = open(tmp.path());
        assert!(!rec3.window_truncated);
        assert_eq!(rec3.batches.len(), 1);
        assert_eq!(rec3.batches[0].seqno, 6);
    }

    #[test]
    fn crash_points_leave_recoverable_state() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        for point in CrashPoint::ALL {
            let _guard = CrashGuard::new();
            let tmp = TempDir::new(&format!("cp-{}", point.name().replace('.', "-")));
            let config = DurableLogConfig {
                enabled: true,
                // Small segments so MidRotation actually fires.
                segment_bytes: 96,
                max_total_bytes: 64 << 10,
                sync_every: 1,
            };
            let (log, _) = SegLog::open(tmp.path(), config, SegLogStats::new(), 9, 0).unwrap();
            let mut acked = Vec::new();
            let mut crashed = None;
            // Append-path points are visited once per batch; the rotation
            // point only when a segment fills, so arm it for first hit.
            let skip = if point == CrashPoint::MidRotation {
                0
            } else {
                3
            };
            crashpoint::arm_after(point, skip);
            for i in 1..=8u64 {
                match log.append_batch(i, i, &payload(i)) {
                    Ok(()) => acked.push(i),
                    Err(DbError::CrashPoint(name)) => {
                        assert_eq!(name, point.name());
                        crashed = Some(i);
                        break;
                    }
                    Err(e) => panic!("unexpected error at {}: {e}", point.name()),
                }
            }
            let crashed = crashed.unwrap_or_else(|| panic!("{} never fired", point.name()));
            drop(log);

            let (_log2, rec) = SegLog::open(tmp.path(), config, SegLogStats::new(), 9, 0).unwrap();
            assert_eq!(rec.incarnation, 9, "{}", point.name());
            let seqnos: Vec<u64> = rec.batches.iter().map(|b| b.seqno).collect();
            for w in seqnos.windows(2) {
                assert_eq!(w[1], w[0] + 1, "{}: window not contiguous", point.name());
            }
            // No lost *acked* batch unless the tear truncated the window
            // (in which case the window is empty and resync takes over).
            if rec.window_truncated {
                assert!(seqnos.is_empty());
            } else if let Some(&last) = seqnos.last() {
                assert!(
                    acked.iter().all(|s| seqnos.contains(s)),
                    "{}: acked {acked:?} not all in recovered {seqnos:?}",
                    point.name()
                );
                assert!(
                    last <= crashed,
                    "{}: phantom seqno beyond crash",
                    point.name()
                );
            } else {
                assert!(acked.is_empty(), "{}: acked batches lost", point.name());
            }
            // Seqno space is monotone: recovery never re-issues a seqno
            // at or below one that was already durable.
            assert!(rec.next_seqno > seqnos.last().copied().unwrap_or(0));
        }
    }

    #[test]
    fn wal_cross_check_demotes_trailing_window() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let _guard = CrashGuard::new();
        let tmp = TempDir::new("xcheck");
        let (log, _) = open(tmp.path());
        for i in 1..=4u64 {
            log.append_batch(i, 10 + i, &payload(i)).unwrap();
        }
        log.sync().unwrap();
        drop(log);

        // The WAL committed through txn 14: the window is current.
        let (_l, rec) = SegLog::open(tmp.path(), cfg(), SegLogStats::new(), 77, 14).unwrap();
        assert!(!rec.window_truncated);
        assert_eq!(rec.batches.len(), 4);
        drop(_l);

        // The WAL committed through txn 20: notification batches for
        // txns 15..=20 never reached the log — the window must go.
        let (_l2, rec2) = SegLog::open(tmp.path(), cfg(), SegLogStats::new(), 77, 20).unwrap();
        assert!(rec2.window_truncated, "trailing window must be demoted");
        assert!(rec2.batches.is_empty());
        assert_eq!(rec2.incarnation, 77);
        assert_eq!(rec2.next_seqno, 5, "seqno space survives the demotion");
    }

    #[test]
    fn unrecoverable_meta_mints_fresh_incarnation() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let _guard = CrashGuard::new();
        let tmp = TempDir::new("badmeta");
        let (log, rec) = open(tmp.path());
        assert_eq!(rec.incarnation, 77);
        log.append_batch(1, 1, &payload(1)).unwrap();
        log.sync().unwrap();
        drop(log);
        fs::write(tmp.path().join("meta"), b"garbage").unwrap();
        let (_log2, rec2) = SegLog::open(tmp.path(), cfg(), SegLogStats::new(), 123, 0).unwrap();
        assert!(!rec2.incarnation_recovered);
        assert_eq!(rec2.incarnation, 123);
        // Old segments carry the old incarnation → invalid under the new
        // one → window truncated; cursors from incarnation 77 can never
        // be honored, which is exactly the resync-only contract.
        assert!(rec2.window_truncated || rec2.batches.is_empty());
    }
}
