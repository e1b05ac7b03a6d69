//! The bounded, replayable update log (DESIGN.md § 13).
//!
//! Every committed notification batch the DLM fans out is first appended
//! here with a monotonic sequence number. The log is a ring bounded both
//! by entry count and by estimated bytes; eviction is strictly from the
//! front, so the retained entries are always a contiguous suffix of
//! history. A client that reconnects (or whose outbox overflowed)
//! catches up by replaying every entry past its **cursor** — the last
//! seqno it fully applied — filtered through its registered interests.
//! Only when the cursor has been evicted does recovery degrade to a full
//! `ResyncRequired`.
//!
//! The log stores the *reported* updates, not the per-holder events:
//! replay re-runs the same interest intersection the live fan-out path
//! uses, against the client's **current** registrations. That is exactly
//! the right semantics for a reconnecting client — it re-registered its
//! display locks before replaying, so the filter reflects what it wants
//! to see now, and a client that never registered an OID can never have
//! its updates leaked to it by replay.
//!
//! # Durable spill (DESIGN.md § 14)
//!
//! [`UpdateLog::open_durable`] backs the ring with a
//! [`displaydb_storage::SegLog`]: every appended batch is framed into the
//! segment log **before** it becomes visible in the ring (durable before
//! deliverable, like the WAL), and a restart recovers the ring suffix,
//! the seqno space, and a stable **incarnation id** from the directory.
//! Cursors are only comparable within one incarnation; a client resuming
//! against a recovered log replays from its durable cursor instead of
//! resyncing, unless the durable window was truncated (torn tail,
//! retention, or a WAL cross-check demotion).

use crate::core::EventSink;
use crate::proto::UpdateInfo;
use displaydb_common::metrics::{SegLogStats, UpdateLogStats};
use displaydb_common::overload::UpdateLogConfig;
use displaydb_common::sync::{ranks, OrderedMutex};
use displaydb_common::{ClientId, DbResult, DurableLogConfig};
use displaydb_storage::seglog::SegLog;
use displaydb_wire::{Decode, Encode, WireReader, WireWriter};
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::Arc;

/// The byte cap on the log's estimated payload. `append` evicts from
/// the front until it holds, even a lone oversized entry (its seqno
/// still advances, so a replay sees a truncation); recovery keeps the
/// newest durable entry whatever its size. With [`UpdateLogConfig`]'s
/// 4096 entries it bounds memory to a few MiB per DLM shard.
const MAX_BYTES: usize = 4 << 20;

/// One appended commit batch.
#[derive(Clone, Debug)]
pub struct LogEntry {
    /// Monotonic sequence number (1-based; 0 means "before history").
    pub seqno: u64,
    /// The client whose transaction performed the updates (replay honors
    /// the same originator-suppression rule as the live path).
    pub origin: Option<ClientId>,
    /// The reported updates, exactly as handed to `notify_committed`.
    pub updates: Vec<UpdateInfo>,
    /// Estimated retained bytes for the byte cap.
    pub bytes: usize,
}

fn estimate_bytes(updates: &[UpdateInfo]) -> usize {
    updates
        .iter()
        .map(|u| {
            24 + u.payload.as_ref().map_or(0, Vec::len)
                + u.changed
                    .as_ref()
                    .map_or(0, |c| c.iter().map(|(_, v)| v.len() + 4).sum())
        })
        .sum()
}

struct LogInner {
    /// Retained entries; seqnos are contiguous (`front.seqno ..= head`).
    entries: VecDeque<LogEntry>,
    /// Seqno the next appended entry will receive.
    next_seqno: u64,
    /// Sum of `bytes` across retained entries.
    bytes: usize,
    /// Appended seqnos whose fan-out has not released them yet: `None`
    /// while it runs, then the sinks it notified, until every older one
    /// is done too ([`UpdateLog::fanned_out`]).
    fanning: BTreeMap<u64, Option<Vec<Arc<dyn EventSink>>>>,
}

impl LogInner {
    /// The one window check: `(cursor, head]` is retained. Saturating:
    /// the cursor is wire input, and `u64::MAX` is from the future.
    fn covers(&self, cursor: u64) -> bool {
        let first = self.entries.front().map_or(self.next_seqno, |e| e.seqno);
        cursor.saturating_add(1) >= first && cursor < self.next_seqno
    }

    /// Retained entries past `cursor`, ascending.
    fn past(&self, cursor: u64) -> impl Iterator<Item = &LogEntry> {
        self.entries.iter().filter(move |e| e.seqno > cursor)
    }
}

/// What a replay request found in the log.
#[derive(Debug)]
pub enum ReplaySlice {
    /// The cursor is still retained: these entries (possibly none, when
    /// the client is already current) cover `(cursor, head]`.
    Events {
        /// Cloned suffix entries, ascending by seqno.
        entries: Vec<LogEntry>,
        /// The log head at snapshot time.
        head: u64,
    },
    /// The cursor has been evicted (or is from another log incarnation):
    /// the client must fall back to a full resync.
    Truncated {
        /// The log head at snapshot time.
        head: u64,
    },
}

/// What [`UpdateLog::open_durable`] recovered from the directory, for
/// the server's startup report and resume-admission decisions.
#[derive(Clone, Debug, Default)]
pub struct DurableRecovery {
    /// The stable log incarnation id (recovered or freshly minted).
    pub incarnation: u64,
    /// Whether the incarnation survived from a previous run — the
    /// precondition for honoring any pre-restart cursor.
    pub incarnation_recovered: bool,
    /// Whether the durable window was surrendered (torn tail, seqno gap,
    /// or WAL cross-check demotion): resuming cursors must resync.
    pub window_truncated: bool,
    /// Batches restored into the ring (bounded by the ring caps).
    pub recovered_entries: usize,
    /// Highest committing transaction id stamped on any durable batch.
    pub last_txn: u64,
    /// The recovered log head (0 = nothing was ever appended).
    pub head: u64,
}

/// The DLM's bounded replayable update log.
pub struct UpdateLog {
    inner: OrderedMutex<LogInner>,
    config: UpdateLogConfig,
    /// [`MAX_BYTES`]; unit tests lower it to exercise the byte cap.
    max_bytes: usize,
    stats: UpdateLogStats,
    /// Stable-storage spill; `None` for the classic in-memory-only log.
    durable: Option<SegLog>,
    /// Nonce naming this log instance's seqno space when no durable
    /// incarnation exists ([`mint_incarnation`]). Never 0, never reused
    /// within a process or by a restarted one — so a cursor minted
    /// against a dead in-memory log can never "match" a fresh one (see
    /// [`UpdateLog::session_incarnation`]).
    ///
    /// [`mint_incarnation`]: displaydb_common::ids::mint_incarnation
    session_nonce: u64,
}

/// Durable batch payload: `(origin, updates)` via the wire encoding.
fn encode_batch(origin: Option<ClientId>, updates: &[UpdateInfo]) -> Vec<u8> {
    let mut w = WireWriter::new();
    match origin {
        None => w.put_u8(0),
        Some(c) => {
            w.put_u8(1);
            c.encode(&mut w);
        }
    }
    w.put_varint(updates.len() as u64);
    for u in updates {
        u.encode(&mut w);
    }
    w.finish().to_vec()
}

fn decode_batch(buf: &[u8]) -> DbResult<(Option<ClientId>, Vec<UpdateInfo>)> {
    let mut r = WireReader::new(buf);
    let origin = match r.get_u8()? {
        0 => None,
        _ => Some(ClientId::decode(&mut r)?),
    };
    let n = r.get_varint()? as usize;
    let mut updates = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        updates.push(UpdateInfo::decode(&mut r)?);
    }
    Ok((origin, updates))
}

impl std::fmt::Debug for UpdateLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpdateLog")
            .field("config", &self.config)
            .finish()
    }
}

/// The log is always on: a zero cap is read as 1, not as "off".
fn clamped(config: UpdateLogConfig) -> UpdateLogConfig {
    UpdateLogConfig {
        max_entries: config.max_entries.max(1),
    }
}

impl UpdateLog {
    /// Create an empty in-memory log; `stats` is shared with the owning
    /// DLM.
    pub fn new(config: UpdateLogConfig, stats: UpdateLogStats) -> Self {
        Self {
            inner: OrderedMutex::new(
                ranks::DLM_UPDATE_LOG,
                LogInner {
                    entries: VecDeque::new(),
                    next_seqno: 1,
                    bytes: 0,
                    fanning: BTreeMap::new(),
                },
            ),
            config: clamped(config),
            max_bytes: MAX_BYTES,
            stats,
            durable: None,
            session_nonce: displaydb_common::ids::mint_incarnation(),
        }
    }

    /// Open a log spilled to stable storage under `dir`, recovering the
    /// ring suffix, seqno space, and incarnation from a previous run
    /// (DESIGN.md § 14).
    ///
    /// `min_last_txn` is the last transaction the main WAL committed
    /// (0 = no cross-check): a durable window whose newest batch trails
    /// it is surrendered, because the missing notification batches can
    /// never be replayed.
    #[allow(clippy::too_many_arguments)]
    pub fn open_durable(
        config: UpdateLogConfig,
        stats: UpdateLogStats,
        dir: impl AsRef<Path>,
        durable_config: DurableLogConfig,
        seg_stats: SegLogStats,
        fresh_incarnation: u64,
        min_last_txn: u64,
    ) -> DbResult<(Self, DurableRecovery)> {
        let config = clamped(config);
        let max_bytes = MAX_BYTES;
        let (seg, rec) = SegLog::open(
            dir,
            durable_config,
            seg_stats,
            fresh_incarnation,
            min_last_txn,
        )?;
        // Repopulate the ring from the durable suffix, newest first, up
        // to the ring's own caps: the in-memory window may be narrower
        // than the durable one, never wider.
        let mut entries: VecDeque<LogEntry> = VecDeque::new();
        let mut bytes = 0usize;
        for b in rec.batches.iter().rev() {
            let Ok((origin, updates)) = decode_batch(&b.payload) else {
                // Checksummed but undecodable (shape drift): stop
                // extending the window downward so it stays contiguous.
                break;
            };
            let eb = estimate_bytes(&updates);
            if entries.len() + 1 > config.max_entries
                || (bytes + eb > max_bytes && !entries.is_empty())
            {
                break;
            }
            bytes += eb;
            entries.push_front(LogEntry {
                seqno: b.seqno,
                origin,
                updates,
                bytes: eb,
            });
        }
        stats.log_entries.set(entries.len() as u64);
        stats.log_bytes.set(bytes as u64);
        let recovery = DurableRecovery {
            incarnation: rec.incarnation,
            incarnation_recovered: rec.incarnation_recovered,
            window_truncated: rec.window_truncated,
            recovered_entries: entries.len(),
            last_txn: rec.last_txn,
            head: rec.next_seqno - 1,
        };
        let log = Self {
            inner: OrderedMutex::new(
                ranks::DLM_UPDATE_LOG,
                LogInner {
                    entries,
                    next_seqno: rec.next_seqno,
                    bytes,
                    fanning: BTreeMap::new(),
                },
            ),
            config,
            max_bytes,
            stats,
            durable: Some(seg),
            session_nonce: displaydb_common::ids::mint_incarnation(),
        };
        Ok((log, recovery))
    }

    /// Append one committed batch and return its seqno. Returns
    /// `Ok(None)` when the batch is empty (nothing to replay); the seqno
    /// space does not advance. `txn` is the committing transaction
    /// (0 = unknown), stamped on the durable record for the restart WAL
    /// cross-check.
    ///
    /// When the log is durable, the batch reaches stable storage
    /// **before** it becomes visible in the ring; a spill failure spends
    /// the seqno and retains nothing.
    pub fn append(
        &self,
        origin: Option<ClientId>,
        updates: &[UpdateInfo],
        txn: u64,
    ) -> DbResult<Option<u64>> {
        if updates.is_empty() {
            return Ok(None);
        }
        let bytes = estimate_bytes(updates);
        let mut inner = self.inner.lock();
        let seqno = inner.next_seqno;
        inner.next_seqno += 1;
        if let Some(seg) = &self.durable {
            // Holding the ring lock across the spill serializes durable
            // batch order with seqno assignment (rank 385 → 515, legal).
            if let Err(e) = seg.append_batch(seqno, txn, &encode_batch(origin, updates)) {
                // Never replayable: the seqno stays spent and the window
                // goes, so no admitted cursor's replay can miss it.
                self.evict_all(&mut inner);
                return Err(e);
            }
        }
        inner.entries.push_back(LogEntry {
            seqno,
            origin,
            updates: updates.to_vec(),
            bytes,
        });
        inner.bytes += bytes;
        inner.fanning.insert(seqno, None);
        self.stats.appended.inc();
        // Evict from the front until both caps hold again. A single
        // oversized entry may be evicted immediately after insertion —
        // the seqno still advances, so its absence is a truncation the
        // replay path detects, never a silent gap.
        while inner.entries.len() > self.config.max_entries
            || (inner.bytes > self.max_bytes && !inner.entries.is_empty())
        {
            if let Some(evicted) = inner.entries.pop_front() {
                inner.bytes -= evicted.bytes;
                self.stats.evicted.inc();
            }
        }
        self.stats.log_entries.set(inner.entries.len() as u64);
        self.stats.log_bytes.set(inner.bytes as u64);
        Ok(Some(seqno))
    }

    /// `seqno`'s fan-out has queued its events at `sinks`. Returns the
    /// sinks whose ack frontier may move now, and the seqno it may move
    /// to: every appended batch through it is fanned out. So no frontier
    /// passes a batch that is logged but not yet queued, whose events a
    /// resume from that frontier would miss (DESIGN.md § 14). Every
    /// appended seqno must come through here once, or the shard's
    /// frontiers stop below it.
    pub fn fanned_out(
        &self,
        seqno: u64,
        sinks: Vec<Arc<dyn EventSink>>,
    ) -> (Vec<Arc<dyn EventSink>>, u64) {
        let mut inner = self.inner.lock();
        inner.fanning.insert(seqno, Some(sinks));
        let (mut ready, mut through) = (Vec::new(), 0);
        while let Some(mut done) = inner.fanning.first_entry() {
            let Some(sinks) = done.get_mut().take() else {
                break;
            };
            through = done.remove_entry().0;
            if ready.is_empty() {
                ready = sinks;
            } else {
                ready.extend(sinks);
            }
        }
        (ready, through)
    }

    /// Whether the window still retains everything past `cursor` — the
    /// window half of cursor admission ([`crate::ShardedDlm::admit`]).
    pub fn covers(&self, cursor: u64) -> bool {
        self.inner.lock().covers(cursor)
    }

    /// The stable incarnation id (`None` for an in-memory-only log,
    /// whose seqno space dies with the process).
    pub fn incarnation(&self) -> Option<u64> {
        self.durable.as_ref().map(SegLog::incarnation)
    }

    /// The incarnation cursors against this log must be compared under:
    /// the durable incarnation when one exists, otherwise a nonzero
    /// process-local nonce unique to this log instance. Never 0 — a
    /// client presenting an incarnation from *any* other log (including
    /// "I had none") is an explicit mismatch, not a wildcard match
    /// (the old `unwrap_or(0)` admission hole).
    pub fn session_incarnation(&self) -> u64 {
        self.incarnation().unwrap_or(self.session_nonce)
    }

    /// Force buffered durable appends to stable storage (no-op for the
    /// in-memory log). Called on orderly shutdown.
    pub fn sync(&self) -> DbResult<()> {
        match &self.durable {
            Some(seg) => seg.sync(),
            None => Ok(()),
        }
    }

    /// The highest seqno ever appended (0 when nothing was logged yet).
    pub fn head(&self) -> u64 {
        self.inner.lock().next_seqno - 1
    }

    /// Snapshot the suffix past `cursor` for replay.
    pub fn replay_from(&self, cursor: u64) -> ReplaySlice {
        let inner = self.inner.lock();
        let head = inner.next_seqno - 1;
        if !inner.covers(cursor) {
            return ReplaySlice::Truncated { head };
        }
        let entries = inner.past(cursor).cloned().collect();
        ReplaySlice::Events { entries, head }
    }

    /// Evict every retained entry without disturbing the seqno space.
    /// Forces the next replay of any behind-head cursor onto the
    /// `ResyncRequired` fallback — the truncation fault injection used by
    /// the R4 experiment and the recovery tests.
    pub fn truncate_all(&self) {
        self.evict_all(&mut self.inner.lock());
    }

    fn evict_all(&self, inner: &mut LogInner) {
        self.stats.evicted.add(inner.entries.len() as u64);
        inner.entries.clear();
        inner.bytes = 0;
        self.stats.log_entries.set(0);
        self.stats.log_bytes.set(0);
    }

    /// Retained entry count (diagnostics).
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The log's stats handle.
    pub fn stats(&self) -> &UpdateLogStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use displaydb_common::Oid;

    fn log(max_entries: usize, max_bytes: usize) -> UpdateLog {
        let mut l = UpdateLog::new(UpdateLogConfig { max_entries }, UpdateLogStats::new());
        l.max_bytes = max_bytes;
        l
    }

    fn upd(oid: u64) -> Vec<UpdateInfo> {
        vec![UpdateInfo::lazy(Oid::new(oid))]
    }

    #[test]
    fn a_restarted_process_mints_new_session_incarnations() {
        // Run as a child of itself with PRINT set, this prints the
        // session incarnation of the child process's first log.
        const PRINT: &str = "DISPLAYDB_PRINT_SESSION_INCARNATION";
        const NAME: &str = "log::tests::a_restarted_process_mints_new_session_incarnations";
        if std::env::var_os(PRINT).is_some() {
            println!("incarnation={}", log(8, 1 << 20).session_incarnation());
            return;
        }
        let first_log_of_a_new_process = || {
            let out = std::process::Command::new(std::env::current_exe().unwrap())
                .args([NAME, "--exact", "--nocapture", "--test-threads=1"])
                .env(PRINT, "1")
                .output()
                .unwrap();
            assert!(out.status.success(), "{out:?}");
            String::from_utf8(out.stdout)
                .unwrap()
                .lines()
                .find_map(|l| l.split_once("incarnation=").map(|(_, v)| v))
                .expect("the child printed its incarnation")
                .parse::<u64>()
                .unwrap()
        };
        let (first, second) = (first_log_of_a_new_process(), first_log_of_a_new_process());
        assert_ne!(first, 0);
        assert_ne!(first, second, "a restarted agent must be detectable");
    }

    #[test]
    fn seqnos_are_monotonic_and_contiguous() {
        let l = log(8, 1 << 20);
        assert_eq!(l.append(None, &upd(1), 0).unwrap(), Some(1));
        assert_eq!(l.append(None, &upd(2), 0).unwrap(), Some(2));
        assert_eq!(l.append(None, &upd(3), 0).unwrap(), Some(3));
        assert_eq!(l.head(), 3);
        match l.replay_from(1) {
            ReplaySlice::Events { entries, head } => {
                assert_eq!(head, 3);
                let seqs: Vec<u64> = entries.iter().map(|e| e.seqno).collect();
                assert_eq!(seqs, vec![2, 3]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn current_cursor_replays_empty() {
        let l = log(8, 1 << 20);
        l.append(None, &upd(1), 0).unwrap();
        match l.replay_from(1) {
            ReplaySlice::Events { entries, head } => {
                assert!(entries.is_empty());
                assert_eq!(head, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A fresh empty log is replayable from cursor 0.
        let fresh = log(8, 1 << 20);
        assert!(fresh.covers(0));
        assert!(matches!(
            fresh.replay_from(0),
            ReplaySlice::Events { head: 0, .. }
        ));
    }

    #[test]
    fn count_cap_evicts_from_front() {
        let l = log(3, 1 << 20);
        for i in 1..=5 {
            l.append(None, &upd(i), 0).unwrap();
        }
        assert_eq!(l.len(), 3);
        assert!(!l.covers(1), "seqnos 1-2 evicted");
        assert!(l.covers(2)); // (2, 5] retained
        match l.replay_from(0) {
            ReplaySlice::Truncated { head } => assert_eq!(head, 5),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn byte_cap_evicts_from_front() {
        let l = log(1024, 200);
        let fat = vec![UpdateInfo::eager(Oid::new(1), vec![0u8; 100])];
        l.append(None, &fat, 0).unwrap(); // 24 + 100 = 124 bytes retained
        l.append(None, &fat, 0).unwrap(); // 248 > 200 -> front evicted
        assert_eq!(l.len(), 1);
        assert!(l.stats().evicted.get() >= 1);
        assert!(l.stats().log_bytes.get() <= 200);
        assert!(l.covers(1), "newest entry retained");
        assert!(!l.covers(0), "oldest evicted by byte cap");
    }

    #[test]
    fn future_cursor_is_truncated() {
        // A cursor from a previous log incarnation (DLM restarted, fresh
        // seqno space) must not silently pass as current.
        let l = log(8, 1 << 20);
        l.append(None, &upd(1), 0).unwrap();
        assert!(!l.covers(9));
        assert!(matches!(l.replay_from(9), ReplaySlice::Truncated { .. }));
    }

    #[test]
    fn zero_max_entries_is_clamped_not_off() {
        let l = log(0, 1 << 20);
        assert_eq!(l.append(None, &upd(1), 0).unwrap(), Some(1));
        assert_eq!(l.append(None, &upd(2), 0).unwrap(), Some(2));
        assert_eq!(l.len(), 1, "a zero cap retains one entry");
        match l.replay_from(1) {
            ReplaySlice::Events { entries, head } => {
                assert_eq!(head, 2);
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].seqno, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_batch_does_not_advance_seqnos() {
        let l = log(8, 1 << 20);
        assert_eq!(l.append(None, &[], 0).unwrap(), None);
        assert_eq!(l.head(), 0);
    }

    #[test]
    fn truncate_all_forces_resync_but_keeps_seqno_space() {
        let l = log(8, 1 << 20);
        for i in 1..=4 {
            l.append(None, &upd(i), 0).unwrap();
        }
        l.truncate_all();
        assert!(l.is_empty());
        assert_eq!(l.head(), 4);
        assert!(!l.covers(2));
        assert!(l.covers(4), "the head itself stays current");
        assert_eq!(
            l.append(None, &upd(9), 0).unwrap(),
            Some(5),
            "seqnos keep counting"
        );
    }

    // ---- durable spill (DESIGN.md § 14) ----

    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static CASE: AtomicU64 = AtomicU64::new(0);

    struct TempDir(PathBuf);
    impl TempDir {
        fn new() -> Self {
            let p = std::env::temp_dir().join("displaydb-dlm-log").join(format!(
                "case-{}-{}",
                std::process::id(),
                CASE.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&p);
            std::fs::create_dir_all(&p).unwrap();
            TempDir(p)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn open_durable_at(
        dir: &std::path::Path,
        max_entries: usize,
        fresh_incarnation: u64,
        min_last_txn: u64,
    ) -> (UpdateLog, DurableRecovery) {
        UpdateLog::open_durable(
            UpdateLogConfig { max_entries },
            UpdateLogStats::new(),
            dir,
            DurableLogConfig::enabled(),
            SegLogStats::new(),
            fresh_incarnation,
            min_last_txn,
        )
        .unwrap()
    }

    #[test]
    fn durable_roundtrip_recovers_window_and_incarnation() {
        let tmp = TempDir::new();
        {
            let (l, rec) = open_durable_at(&tmp.0, 64, 7001, 0);
            assert_eq!(l.incarnation(), Some(7001));
            assert!(!rec.incarnation_recovered);
            assert_eq!(rec.head, 0);
            for i in 1..=5u64 {
                assert_eq!(l.append(None, &upd(i), 100 + i).unwrap(), Some(i));
            }
            l.sync().unwrap();
        }
        let (l, rec) = open_durable_at(&tmp.0, 64, 9999, 0);
        assert!(rec.incarnation_recovered);
        assert_eq!(rec.incarnation, 7001, "incarnation survives the restart");
        assert_eq!(l.incarnation(), Some(7001));
        assert!(!rec.window_truncated);
        assert_eq!(rec.recovered_entries, 5);
        assert_eq!(rec.last_txn, 105);
        assert_eq!(rec.head, 5);
        assert_eq!(l.head(), 5);
        // The recovered ring replays exactly like the pre-restart one.
        match l.replay_from(3) {
            ReplaySlice::Events { entries, head } => {
                assert_eq!(head, 5);
                let seqs: Vec<u64> = entries.iter().map(|e| e.seqno).collect();
                assert_eq!(seqs, vec![4, 5]);
                assert_eq!(entries[0].updates[0].oid, Oid::new(4));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Seqnos keep counting where the previous incarnation stopped.
        assert_eq!(l.append(None, &upd(9), 106).unwrap(), Some(6));
    }

    #[test]
    fn recovery_bounds_ring_to_the_configured_caps() {
        let tmp = TempDir::new();
        {
            let (l, _) = open_durable_at(&tmp.0, 64, 1, 0);
            for i in 1..=10u64 {
                l.append(None, &upd(i), i).unwrap();
            }
            l.sync().unwrap();
        }
        // Reopen with a smaller ring: only the newest suffix is retained,
        // and the evicted prefix reports Truncated like any eviction.
        let (l, rec) = open_durable_at(&tmp.0, 3, 1, 0);
        assert_eq!(rec.recovered_entries, 3);
        assert_eq!(l.len(), 3);
        assert!(l.covers(7), "(7, 10] retained");
        assert!(!l.covers(6));
        assert!(matches!(
            l.replay_from(5),
            ReplaySlice::Truncated { head: 10 }
        ));
    }

    #[test]
    fn covers_answers_for_both_log_kinds() {
        let tmp = TempDir::new();
        let (durable, _) = open_durable_at(&tmp.0, 64, 1, 0);
        // An in-memory log answers too: the incarnation its caller
        // checked proves the seqno space.
        for l in [&durable, &log(8, 1 << 20)] {
            l.append(None, &upd(10), 1).unwrap();
            l.append(None, &upd(11), 2).unwrap();
            assert!(l.covers(0));
            assert!(l.covers(2), "current cursor");
            assert!(!l.covers(3), "future cursor is unanswerable");
        }
    }

    #[test]
    fn the_last_cursor_of_the_seqno_space_is_from_the_future() {
        // Cursors are wire input: `u64::MAX` fails the window check
        // instead of overflowing it, on every path that asks.
        let tmp = TempDir::new();
        let (durable, _) = open_durable_at(&tmp.0, 8, 1, 0);
        for l in [&durable, &log(8, 1 << 20)] {
            l.append(None, &upd(1), 1).unwrap();
            assert!(!l.covers(u64::MAX));
            assert!(matches!(
                l.replay_from(u64::MAX),
                ReplaySlice::Truncated { head: 1 }
            ));
        }
    }

    #[test]
    fn wal_cross_check_surrenders_the_durable_window() {
        let tmp = TempDir::new();
        {
            let (l, _) = open_durable_at(&tmp.0, 64, 1, 0);
            for i in 1..=4u64 {
                l.append(None, &upd(i), i).unwrap();
            }
            l.sync().unwrap();
        }
        // The main WAL committed through txn 9 but the durable stream
        // stops at 4: the missing tail is gone, so the window must go.
        let (l, rec) = open_durable_at(&tmp.0, 64, 1, 9);
        assert!(rec.incarnation_recovered);
        assert!(rec.window_truncated);
        assert_eq!(rec.recovered_entries, 0);
        assert!(l.is_empty());
        assert_eq!(l.head(), 4, "seqno space still survives");
        assert!(matches!(l.replay_from(2), ReplaySlice::Truncated { .. }));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use displaydb_common::Oid;
    use proptest::prelude::*;

    /// Random append/truncate sequences: the retained window is always a
    /// contiguous suffix, every replay either covers exactly `(cursor,
    /// head]` or reports truncation, and the byte/count caps hold.
    #[derive(Debug, Clone)]
    enum Op {
        Append { oid: u64, payload: usize },
        TruncateAll,
        Replay { cursor: u64 },
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        // The vendored proptest has no weighted prop_oneof; bias toward
        // appends by repeating the arm.
        fn append() -> impl Strategy<Value = Op> {
            (0u64..16, 0usize..64).prop_map(|(oid, payload)| Op::Append { oid, payload })
        }
        fn replay() -> impl Strategy<Value = Op> {
            (0u64..64).prop_map(|cursor| Op::Replay { cursor })
        }
        prop_oneof![
            append(),
            append(),
            append(),
            append(),
            Just(Op::TruncateAll),
            replay(),
            replay(),
        ]
    }

    proptest! {
        #[test]
        fn prop_log_invariants(
            ops in proptest::collection::vec(arb_op(), 1..120),
            max_entries in 1usize..12,
            max_bytes in 64usize..512,
        ) {
            let mut l = UpdateLog::new(
                UpdateLogConfig { max_entries },
                displaydb_common::metrics::UpdateLogStats::new(),
            );
            l.max_bytes = max_bytes;
            let mut appended = 0u64;
            for op in ops {
                match op {
                    Op::Append { oid, payload } => {
                        let u = vec![UpdateInfo::eager(Oid::new(oid), vec![0u8; payload])];
                        let seq = l.append(None, &u, 0).unwrap();
                        appended += 1;
                        prop_assert_eq!(seq, Some(appended), "seqnos dense + monotonic");
                    }
                    Op::TruncateAll => l.truncate_all(),
                    Op::Replay { cursor } => {
                        match l.replay_from(cursor) {
                            ReplaySlice::Events { entries, head } => {
                                prop_assert_eq!(head, appended);
                                prop_assert!(cursor <= head);
                                // Exactly the suffix (cursor, head], contiguous.
                                let seqs: Vec<u64> =
                                    entries.iter().map(|e| e.seqno).collect();
                                let want: Vec<u64> = (cursor + 1..=head).collect();
                                prop_assert_eq!(seqs, want, "replay must be gapless");
                            }
                            ReplaySlice::Truncated { head } => {
                                prop_assert_eq!(head, appended);
                                prop_assert!(!l.covers(cursor));
                            }
                        }
                    }
                }
                // Caps hold after every step.
                prop_assert!(l.len() <= max_entries);
                prop_assert!(l.stats().log_bytes.get() <= max_bytes as u64
                    || l.len() <= 1, "only a single oversized entry may exceed the byte cap transiently");
                prop_assert_eq!(l.head(), appended);
            }
        }
    }
}
