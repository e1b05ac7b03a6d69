//! The display-lock manager: N in-process shards by OID hash (DESIGN.md
//! § 16), the one DLM both deployments of the paper's fig. 3 wrap.
//!
//! A single interest table serializes every commit's intersect behind
//! one mutex — the single-box ceiling the paper's DLM-placement study
//! (§ "DLM deployments") measures. [`ShardedDlm`] splits the table by a
//! stable OID hash into independent shards, each with its own interest
//! table, holders map, outbox set, and update log with an **independent
//! seqno space**. Commits split their OID set by shard and intersect
//! each part in its own shard; every shard's outbox writers drain in
//! parallel. Clients keep a cursor *vector* (one entry per shard) and
//! recovery replays each shard from its own cursor. `shards = 1` is the
//! ordinary N = 1 case of all of it.
//!
//! * the **agent** (§ 4.1): a standalone service ([`crate::agent`]) where
//!   updating clients report commits/intents over the wire;
//! * the **integrated** lock manager: the server calls
//!   [`ShardedDlm::log_committed`] / [`ShardedDlm::fan_out`] /
//!   [`ShardedDlm::notify_intent`] directly from its commit and X-grant
//!   paths.
//!
//! Client requests reach it the same way from both: as a [`DlmRequest`],
//! applied by [`ShardedDlm::handle_request`].

use crate::core::{DlmConfig, DlmCore, DlmStats, EventSink, ReplayOutcome};
use crate::log::{DurableRecovery, UpdateLog};
use crate::outbox::OutboxSink;
use crate::proto::{DlmRequest, ShardCursor, UpdateInfo};
use displaydb_common::metrics::{Counter, SegLogStats};
use displaydb_common::{ClientId, DbResult, DurableLogConfig, Oid, TxnId};
use std::path::Path;
use std::sync::Arc;

/// Stable OID → shard assignment, shared by the server and (via the
/// handshake's shard count) the DLC. Pure function of `(oid, shards)`:
/// both sides compute the same routing without exchanging a table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMap {
    shards: u32,
}

impl ShardMap {
    /// A map over `shards` partitions (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        Self {
            shards: shards.max(1) as u32,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards as usize
    }

    /// The shard `oid` routes to. Fibonacci hashing on the raw OID: the
    /// multiplier spreads sequential OIDs (the common allocation
    /// pattern) uniformly, so hot contiguous ranges don't pile onto one
    /// shard.
    pub fn shard_of(&self, oid: Oid) -> u32 {
        ((oid.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % self.shards as u64) as u32
    }

    /// Partition `oids` into per-shard vectors (index = shard), order
    /// preserved within each shard.
    pub fn split(&self, oids: &[Oid]) -> Vec<Vec<Oid>> {
        let mut parts = vec![Vec::new(); self.shards as usize];
        for &oid in oids {
            parts[self.shard_of(oid) as usize].push(oid);
        }
        parts
    }
}

/// Per-shard routing counters: how many committed updates each shard
/// intersected.
#[derive(Clone, Debug)]
pub struct ShardStats {
    updates: Arc<Vec<Counter>>,
}

impl ShardStats {
    fn new(shards: usize) -> Self {
        Self {
            updates: Arc::new((0..shards).map(|_| Counter::new()).collect()),
        }
    }

    fn routed(&self, shard: usize, n: u64) {
        self.updates[shard.min(self.updates.len() - 1)].add(n);
    }

    /// Updates routed to `shard` so far.
    pub fn updates_of(&self, shard: usize) -> u64 {
        self.updates.get(shard).map_or(0, Counter::get)
    }
}

/// The display-lock manager (DESIGN.md § 16): every entry point routed
/// through a [`ShardMap`]; multi-OID operations split their set and
/// run each part in its shard, one shard after another.
pub struct ShardedDlm {
    map: ShardMap,
    cores: Vec<Arc<DlmCore>>,
    config: DlmConfig,
    stats: DlmStats,
    shard_stats: ShardStats,
    /// Every shard's log incarnation, fixed for the life of the process.
    incarnations: Vec<u64>,
}

impl std::fmt::Debug for ShardedDlm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDlm")
            .field("shards", &self.map.shards())
            .field("config", &self.config)
            .finish()
    }
}

impl ShardedDlm {
    /// Build an in-memory DLM with `config.shards` partitions sharing
    /// one stats handle.
    pub fn new(config: DlmConfig) -> Self {
        let stats = DlmStats::default();
        let logs = (0..ShardMap::new(config.shards).shards())
            .map(|_| UpdateLog::new(config.log, stats.log.clone()))
            .collect();
        Self::from_logs(config, stats, logs)
    }

    /// Build a DLM whose per-shard update logs spill to stable storage
    /// (DESIGN.md § 14) under `dir/shard-<i>-of-<n>`. The directory name
    /// carries the partitioning because a shard's log only vouches for
    /// the OIDs that hashed to it under that shard count: reopened with
    /// a different `config.shards`, no directory matches, every shard
    /// starts a fresh incarnation, and resuming clients resync. Each
    /// shard gets its own durable incarnation (`fresh_incarnation + i`
    /// when freshly minted) because its seqno space is independent.
    /// Returns one recovery report per shard.
    pub fn new_durable(
        config: DlmConfig,
        dir: impl AsRef<Path>,
        durable: DurableLogConfig,
        seg_stats: SegLogStats,
        fresh_incarnation: u64,
        min_last_txn: u64,
    ) -> DbResult<(Self, Vec<DurableRecovery>)> {
        let stats = DlmStats::default();
        let n = ShardMap::new(config.shards).shards();
        let mut logs = Vec::with_capacity(n);
        let mut recoveries = Vec::with_capacity(n);
        for s in 0..n {
            let (log, rec) = UpdateLog::open_durable(
                config.log,
                stats.log.clone(),
                dir.as_ref().join(format!("shard-{s}-of-{n}")),
                durable,
                seg_stats.clone(),
                fresh_incarnation.wrapping_add(s as u64),
                min_last_txn,
            )?;
            logs.push(log);
            recoveries.push(rec);
        }
        Ok((Self::from_logs(config, stats, logs), recoveries))
    }

    fn from_logs(config: DlmConfig, stats: DlmStats, logs: Vec<UpdateLog>) -> Self {
        Self {
            map: ShardMap::new(logs.len()),
            shard_stats: ShardStats::new(logs.len()),
            incarnations: logs.iter().map(UpdateLog::session_incarnation).collect(),
            cores: logs
                .into_iter()
                .map(|log| Arc::new(DlmCore::new(config, stats.clone(), log)))
                .collect(),
            config,
            stats,
        }
    }

    /// The OID → shard routing function.
    pub fn map(&self) -> ShardMap {
        self.map
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.cores.len()
    }

    /// Active configuration.
    pub fn config(&self) -> DlmConfig {
        self.config
    }

    /// The shared statistics counters (one coherent view across shards).
    pub fn stats(&self) -> &DlmStats {
        &self.stats
    }

    /// Per-shard routing counters.
    pub fn shard_stats(&self) -> &ShardStats {
        &self.shard_stats
    }

    /// One shard's update log.
    pub fn update_log_of(&self, shard: usize) -> &UpdateLog {
        self.cores[shard].update_log()
    }

    /// Every shard's log incarnation, index = shard: the durable
    /// incarnation where the log spills, else a nonce no other log and
    /// no earlier process minted — never 0. Both handshakes announce it
    /// (`HelloAck`, `Ready`), and it names the seqno space every cursor
    /// of that shard lives in.
    pub fn incarnations(&self) -> &[u64] {
        &self.incarnations
    }

    /// The cursor-admission rule (DESIGN.md § 14): `sc` is admitted iff
    /// it was acked under its shard's incarnation and that shard's log
    /// window still covers it — what decides whether a resume may catch
    /// up by replay. A `ReplayFrom` applies the same rule
    /// ([`Self::replay_for_shards`]), its window half in the replay.
    pub fn admit(&self, sc: &ShardCursor) -> bool {
        sc.acked_under(&self.incarnations)
            && self.update_log_of(sc.shard as usize).covers(sc.cursor)
    }

    /// Register `sink` for `client` on every shard as is — synchronous
    /// delivery, no outbox, no cursor acks (tests and microbenchmarks).
    pub fn register_client(&self, client: ClientId, sink: Arc<dyn EventSink>) {
        for core in &self.cores {
            core.register_client(client, Arc::clone(&sink));
        }
    }

    /// Register a connected session — the one registration path both
    /// deployments use. `sink` is the deployment's wire sink; each shard
    /// gets its own bounded outbox around it (DESIGN.md § 9), so the
    /// commit path only ever enqueues and one shard's backlog cannot
    /// block another's. An outbox mints `CursorAck{shard}` /
    /// `ReplayNeeded{shard}` in its shard's seqno space. Returns the
    /// outboxes, index = shard, for callers that drain them at shutdown.
    pub fn register_session(
        &self,
        client: ClientId,
        sink: Arc<dyn EventSink>,
    ) -> Vec<Arc<OutboxSink>> {
        self.cores
            .iter()
            .enumerate()
            .map(|(s, core)| {
                let outbox = OutboxSink::wrap(
                    Arc::clone(&sink),
                    s as u32,
                    self.config.overload,
                    self.stats.overload.clone(),
                );
                core.register_client(client, Arc::clone(&outbox) as Arc<dyn EventSink>);
                outbox
            })
            .collect()
    }

    /// Drop `client` from every shard: its sinks (closed outside the
    /// table locks) and every display lock it holds.
    pub fn unregister_client(&self, client: ClientId) {
        for core in &self.cores {
            core.unregister_client(client);
        }
    }

    /// Drop what one session registered: in each shard whose sink is
    /// still that session's outbox (`outboxes`, as
    /// [`Self::register_session`] returned them), `client`'s sink and
    /// display locks. A shard where a successor session with the same
    /// id has registered keeps the successor's sink and locks.
    pub fn unregister_session(&self, client: ClientId, outboxes: &[Arc<OutboxSink>]) {
        for (core, outbox) in self.cores.iter().zip(outboxes) {
            core.unregister_sink(client, &(Arc::clone(outbox) as Arc<dyn EventSink>));
        }
    }

    /// Acquire display locks, split by shard.
    pub fn lock(&self, client: ClientId, oids: &[Oid]) {
        for (s, part) in self.map.split(oids).iter().enumerate() {
            if !part.is_empty() {
                self.cores[s].lock(client, part);
            }
        }
    }

    /// Acquire projected display locks, split by shard.
    pub fn lock_projected(&self, client: ClientId, oids: &[Oid], attrs: &[u16], version: u32) {
        for (s, part) in self.map.split(oids).iter().enumerate() {
            if !part.is_empty() {
                self.cores[s].lock_projected(client, part, attrs, version);
            }
        }
    }

    /// Release display locks, split by shard.
    pub fn release(&self, client: ClientId, oids: &[Oid]) {
        for (s, part) in self.map.split(oids).iter().enumerate() {
            if !part.is_empty() {
                self.cores[s].release(client, part);
            }
        }
    }

    /// Current holder set for an object (routed to its shard).
    pub fn holders(&self, oid: Oid) -> Vec<ClientId> {
        self.cores[self.map.shard_of(oid) as usize].holders(oid)
    }

    /// Number of display-locked objects across all shards.
    pub fn locked_objects(&self) -> usize {
        self.cores.iter().map(|c| c.locked_objects()).sum()
    }

    /// Whether any client anywhere has a projected interest registered.
    pub fn has_projected_interest(&self) -> bool {
        self.cores.iter().any(|c| c.has_projected_interest())
    }

    /// Whether `client` holds a projected lock on `oid`.
    pub fn has_interest(&self, client: ClientId, oid: Oid) -> bool {
        self.cores[self.map.shard_of(oid) as usize].has_interest(client, oid)
    }

    /// Whether `client`'s projection on `oid` covers `changed`.
    pub fn interest_covers(&self, client: ClientId, oid: Oid, changed: &[u16]) -> bool {
        self.cores[self.map.shard_of(oid) as usize].interest_covers(client, oid, changed)
    }

    /// [`Self::notify_committed_txn`] for callers with no transaction id
    /// (tests, agent-relayed client commits) and no use for the spill
    /// error, which only matters to callers that tie it to a commit.
    pub fn notify_committed(&self, origin: Option<ClientId>, updates: &[UpdateInfo]) {
        let _ = self.notify_committed_txn(origin, updates, 0);
    }

    /// Log one committed batch in every shard it touches, then fan it
    /// out ([`Self::log_committed`] and [`Self::fan_out`] back to back).
    /// A spill error from any shard is reported; every shard still fans
    /// out.
    pub fn notify_committed_txn(
        &self,
        origin: Option<ClientId>,
        updates: &[UpdateInfo],
        txn: u64,
    ) -> DbResult<()> {
        let (logged, spilled) = self.log_committed(origin, updates, txn);
        self.fan_out(logged);
        spilled
    }

    /// [`Self::notify_committed_txn`] up to the fan-out: append the batch
    /// to every shard it touches, one after another, and return it for
    /// [`Self::fan_out`], which must follow. The integrated server answers
    /// a commit between the two (DESIGN.md § 14). Reports a spill error.
    pub fn log_committed(
        &self,
        origin: Option<ClientId>,
        updates: &[UpdateInfo],
        txn: u64,
    ) -> (Logged, DbResult<()>) {
        let routed = self.route(updates);
        let (mut parts, mut spilled) = (Vec::with_capacity(routed.len()), Ok(()));
        for (s, mut part) in routed {
            let appended = self.cores[s].log_committed(origin, &mut part, txn);
            let seqno = appended.unwrap_or_else(|e| {
                spilled = Err(e); // reported; the part fans out unlogged
                None
            });
            parts.push((s, part, seqno));
        }
        (Logged { origin, parts }, spilled)
    }

    /// Fan a logged batch out to its holders, shard by shard.
    pub fn fan_out(&self, logged: Logged) {
        for (s, part, seqno) in logged.parts {
            self.cores[s].fan_out(logged.origin, &part, seqno);
        }
    }

    /// `updates` split by shard in order, empty shards left out, counted.
    fn route(&self, updates: &[UpdateInfo]) -> Vec<(usize, Vec<UpdateInfo>)> {
        let mut parts: Vec<(usize, Vec<UpdateInfo>)> =
            (0..self.cores.len()).map(|s| (s, Vec::new())).collect();
        for u in updates {
            let (_, part) = &mut parts[self.map.shard_of(u.oid) as usize];
            if part.is_empty() {
                // One allocation per shard, exact when one shard has all.
                part.reserve_exact(updates.len());
            }
            part.push(u.clone());
        }
        parts.retain(|(_, part)| !part.is_empty());
        for (s, part) in &parts {
            self.shard_stats.routed(*s, part.len() as u64);
        }
        parts
    }

    /// Early-notify intent marks, split by shard.
    pub fn notify_intent(&self, origin: Option<ClientId>, oids: &[Oid], txn: TxnId) {
        for (s, part) in self.map.split(oids).iter().enumerate() {
            if !part.is_empty() {
                self.cores[s].notify_intent(origin, part, txn);
            }
        }
    }

    /// Early-notify resolutions, split by shard.
    pub fn notify_resolution(
        &self,
        origin: Option<ClientId>,
        oids: &[Oid],
        txn: TxnId,
        committed: bool,
    ) {
        for (s, part) in self.map.split(oids).iter().enumerate() {
            if !part.is_empty() {
                self.cores[s].notify_resolution(origin, part, txn, committed);
            }
        }
    }

    /// Apply one display-lock request from `client` — the one dispatch
    /// over [`DlmRequest`], shared by the agent's session loop and the
    /// integrated server's `Request::Dlm` arm. Nothing is acknowledged
    /// (§ 4.1): outcomes arrive on the client's notification stream.
    /// Returns `true` when the session must end: a `Hello` after the
    /// handshake.
    pub fn handle_request(&self, client: ClientId, request: DlmRequest) -> bool {
        match request {
            DlmRequest::Hello { .. } => return true,
            DlmRequest::Lock { oids } => self.lock(client, &oids),
            DlmRequest::LockProjected {
                oids,
                attrs,
                version,
            } => self.lock_projected(client, &oids, &attrs, version),
            DlmRequest::Release { oids } => self.release(client, &oids),
            DlmRequest::UpdateCommitted { updates } => {
                self.notify_committed(Some(client), &updates)
            }
            DlmRequest::WriteIntent { oids, txn } => self.notify_intent(Some(client), &oids, txn),
            DlmRequest::Resolution {
                oids,
                txn,
                committed,
            } => self.notify_resolution(Some(client), &oids, txn, committed),
            DlmRequest::ReplayFrom { cursors } => {
                self.replay_for_shards(client, &cursors);
            }
        }
        false
    }

    /// Serve a replay request shard by shard: each cursor's shard
    /// streams its log suffix through the client's outbox for that
    /// shard. A shard whose cursor is not [admitted](Self::admit) — it
    /// fell off the log, or was acked under another incarnation, so its
    /// seqno space is gone — answers with a `ResyncRequired` over the
    /// client's watched set *in that shard*: truncation is contained,
    /// caught-up shards still replay. Cursors naming a shard this DLM
    /// does not have are skipped; returns one outcome per remaining
    /// cursor, same order.
    pub fn replay_for_shards(
        &self,
        client: ClientId,
        cursors: &[ShardCursor],
    ) -> Vec<ReplayOutcome> {
        cursors
            .iter()
            .filter(|sc| (sc.shard as usize) < self.cores.len())
            .map(|sc| {
                // The window half of admission is `replay_from`'s; a
                // cursor acked under another incarnation goes in as
                // `u64::MAX`, past every head: the truncated path.
                let admitted = sc.acked_under(&self.incarnations);
                let cursor = if admitted { sc.cursor } else { u64::MAX };
                (sc.shard as usize, cursor)
            })
            // One cursor per shard is all a client has; the list is wire
            // input and each entry below streams a log suffix.
            .take(self.cores.len())
            .map(|(s, cursor)| self.cores[s].replay_for(client, cursor))
            .collect()
    }
}

/// A committed batch in its shards' update logs (seqno `None`: the spill
/// failed), not yet fanned out ([`ShardedDlm::log_committed`]).
pub struct Logged {
    origin: Option<ClientId>,
    parts: Vec<(usize, Vec<UpdateInfo>, Option<u64>)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::DlmEvent;
    use crossbeam::channel::{unbounded, Receiver};
    use displaydb_common::DbError;

    fn c(i: u64) -> ClientId {
        ClientId::new(i)
    }

    fn o(i: u64) -> Oid {
        Oid::new(i)
    }

    fn sink() -> (Arc<dyn EventSink>, Receiver<DlmEvent>) {
        let (tx, rx) = unbounded();
        let f = move |e: DlmEvent| tx.send(e).map_err(|_| DbError::Disconnected);
        (Arc::new(f), rx)
    }

    fn sharded(n: usize) -> ShardedDlm {
        ShardedDlm::new(DlmConfig {
            shards: n,
            ..DlmConfig::default()
        })
    }

    #[test]
    fn shard_map_is_stable_and_total() {
        let map = ShardMap::new(8);
        for i in 0..1000 {
            let s = map.shard_of(o(i));
            assert!(s < 8);
            assert_eq!(s, map.shard_of(o(i)), "assignment must be stable");
        }
        // All shards get some OIDs (Fibonacci spread over a sequential
        // range).
        let mut seen = vec![false; 8];
        for i in 0..1000 {
            seen[map.shard_of(o(i)) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some shard never used: {seen:?}");
        // One shard routes everything to 0.
        let single = ShardMap::new(1);
        assert!((0..100).all(|i| single.shard_of(o(i)) == 0));
    }

    #[test]
    fn split_preserves_order_within_shard() {
        let map = ShardMap::new(4);
        let oids: Vec<Oid> = (0..64).map(o).collect();
        let parts = map.split(&oids);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 64);
        for (s, part) in parts.iter().enumerate() {
            for w in part.windows(2) {
                assert!(w[0].raw() < w[1].raw(), "order broken in shard {s}");
            }
            for &oid in part {
                assert_eq!(map.shard_of(oid) as usize, s);
            }
        }
    }

    #[test]
    fn sharded_notifies_holders_across_shards() {
        let dlm = sharded(4);
        let (s1, r1) = sink();
        dlm.register_client(c(1), s1);
        let oids: Vec<Oid> = (0..32).map(o).collect();
        dlm.lock(c(1), &oids);
        assert_eq!(dlm.locked_objects(), 32);
        let updates: Vec<UpdateInfo> = oids.iter().map(|&oid| UpdateInfo::lazy(oid)).collect();
        dlm.notify_committed(None, &updates);
        assert_eq!(r1.try_iter().count(), 32);
        assert_eq!(dlm.stats().notifications.get(), 32);
        let routed: u64 = (0..4).map(|s| dlm.shard_stats().updates_of(s)).sum();
        assert_eq!(routed, 32);
    }

    #[test]
    fn originator_skipped_in_every_shard() {
        let dlm = sharded(4);
        let (s1, r1) = sink();
        let (s2, r2) = sink();
        dlm.register_client(c(1), s1);
        dlm.register_client(c(2), s2);
        let oids: Vec<Oid> = (0..16).map(o).collect();
        dlm.lock(c(1), &oids);
        dlm.lock(c(2), &oids);
        let updates: Vec<UpdateInfo> = oids.iter().map(|&oid| UpdateInfo::lazy(oid)).collect();
        dlm.notify_committed(Some(c(2)), &updates);
        assert_eq!(r1.try_iter().count(), 16);
        assert_eq!(r2.try_iter().count(), 0);
    }

    #[test]
    fn release_and_unregister_cover_all_shards() {
        let dlm = sharded(4);
        let (s1, _r1) = sink();
        dlm.register_client(c(1), s1);
        let oids: Vec<Oid> = (0..16).map(o).collect();
        dlm.lock(c(1), &oids);
        dlm.release(c(1), &oids[..8]);
        assert_eq!(dlm.locked_objects(), 8);
        dlm.unregister_client(c(1));
        assert_eq!(dlm.locked_objects(), 0);
    }

    #[test]
    fn only_hello_and_bye_end_a_session() {
        let dlm = sharded(2);
        let (s1, r1) = sink();
        dlm.register_client(c(1), s1);
        let oids: Vec<Oid> = (0..8).map(o).collect();
        let lock = DlmRequest::Lock { oids: oids.clone() };
        assert!(!dlm.handle_request(c(1), lock));
        assert_eq!(dlm.locked_objects(), 8);
        let report = DlmRequest::UpdateCommitted {
            updates: vec![UpdateInfo::lazy(o(3))],
        };
        assert!(!dlm.handle_request(c(2), report));
        assert_eq!(r1.try_iter().count(), 1);
        let release = DlmRequest::Release { oids };
        assert!(!dlm.handle_request(c(1), release));
        assert_eq!(dlm.locked_objects(), 0);
        assert!(dlm.handle_request(c(1), DlmRequest::Hello { client: c(1) }));
    }

    #[test]
    fn per_shard_seqno_spaces_are_independent() {
        let dlm = sharded(4);
        let (s1, _r1) = sink();
        dlm.register_client(c(1), s1);
        let oids: Vec<Oid> = (0..64).map(o).collect();
        dlm.lock(c(1), &oids);
        for &oid in &oids {
            dlm.notify_committed(None, &[UpdateInfo::lazy(oid)]);
        }
        // Every shard assigned seqnos from its own space starting at 1:
        // head == number of updates routed there, not a global count.
        for s in 0..4 {
            let head = dlm.update_log_of(s).head();
            assert_eq!(head, dlm.shard_stats().updates_of(s));
            assert!(head > 0, "shard {s} never appended");
        }
        let total: u64 = (0..4).map(|s| dlm.update_log_of(s).head()).sum();
        assert_eq!(total, 64);
    }

    /// Flatten wire batches and keep only cursor acks.
    fn acks(events: impl IntoIterator<Item = DlmEvent>) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        for e in events {
            match e {
                DlmEvent::Batch(inner) => out.extend(acks(inner)),
                DlmEvent::CursorAck { shard, seqno } => out.push((shard, seqno)),
                _ => {}
            }
        }
        out
    }

    #[test]
    fn session_outboxes_ack_in_their_own_shards_seqno_space() {
        // One wire sink, one outbox per shard: every ack names the shard
        // whose log it advances — at one shard exactly as at four.
        for n in [1usize, 4] {
            let dlm = sharded(n);
            let (s1, r1) = sink();
            let outboxes = dlm.register_session(c(1), s1);
            assert_eq!(outboxes.len(), n);
            let oids: Vec<Oid> = (0..32).map(o).collect();
            dlm.lock(c(1), &oids);
            for &oid in &oids {
                dlm.notify_committed(None, &[UpdateInfo::lazy(oid)]);
            }
            // Every shard's final ack reaches its log head.
            let mut last = vec![0u64; n];
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while (0..n).any(|s| last[s] != dlm.update_log_of(s).head()) {
                assert!(
                    std::time::Instant::now() < deadline,
                    "acks stalled: {last:?}"
                );
                let Ok(e) = r1.recv_timeout(std::time::Duration::from_millis(100)) else {
                    continue;
                };
                for (shard, seqno) in acks([e]) {
                    assert!((shard as usize) < n, "ack names unknown shard {shard}");
                    assert!(seqno >= last[shard as usize], "ack regressed");
                    last[shard as usize] = seqno;
                }
            }
            dlm.unregister_client(c(1));
        }
    }

    /// A commit logged but not yet fanned out holds back every ack: one
    /// past it would let a resume from that cursor skip its events.
    #[test]
    fn no_ack_passes_a_commit_still_fanning_out() {
        let dlm = sharded(1);
        let (s1, r1) = sink();
        dlm.register_session(c(1), s1);
        dlm.lock(c(1), &[o(1), o(2)]);
        let (first, _) = dlm.log_committed(None, &[UpdateInfo::lazy(o(1))], 0);
        let (second, _) = dlm.log_committed(None, &[UpdateInfo::lazy(o(2))], 0);
        dlm.fan_out(second);
        let until = |deadline: std::time::Instant| {
            let mut heard = Vec::new();
            while let Some(left) = deadline.checked_duration_since(std::time::Instant::now()) {
                heard.extend(r1.recv_timeout(left));
            }
            acks(heard)
        };
        // Four ack intervals: the later commit's event goes out alone.
        let early = until(std::time::Instant::now() + std::time::Duration::from_millis(100));
        assert_eq!(early, vec![], "acked past a commit still fanning out");
        dlm.fan_out(first);
        let later = until(std::time::Instant::now() + std::time::Duration::from_millis(200));
        assert_eq!(later.last(), Some(&(0, 2)), "the ack never caught up");
        dlm.unregister_client(c(1));
    }

    #[test]
    fn shard_parallel_replay_mixes_replay_and_resync() {
        let dlm = sharded(4);
        let (s1, r1) = sink();
        dlm.register_client(c(1), s1);
        let oids: Vec<Oid> = (0..64).map(o).collect();
        dlm.lock(c(1), &oids);
        let updates: Vec<UpdateInfo> = oids.iter().map(|&oid| UpdateInfo::lazy(oid)).collect();
        dlm.notify_committed(None, &updates);
        let live = r1.try_iter().count();
        assert_eq!(live, 64);
        // Truncate shard 2's log; replay all four shards from 0.
        dlm.update_log_of(2).truncate_all();
        let announced = dlm.incarnations();
        let cursors: Vec<ShardCursor> = (0..4)
            .map(|s| ShardCursor {
                shard: s,
                cursor: 0,
                log_incarnation: announced[s as usize],
            })
            .collect();
        let outcomes = dlm.replay_for_shards(c(1), &cursors);
        assert_eq!(outcomes.len(), 4);
        let mut replayed = 0usize;
        let mut truncated = 0usize;
        for (s, outcome) in outcomes.iter().enumerate() {
            match outcome {
                ReplayOutcome::Replayed { events, .. } => {
                    assert_ne!(s, 2);
                    replayed += events;
                }
                ReplayOutcome::Truncated { .. } => {
                    assert_eq!(s, 2);
                    truncated += 1;
                }
                ReplayOutcome::UnknownClient => panic!("client known"),
            }
        }
        assert_eq!(truncated, 1, "exactly the truncated shard resyncs");
        let routed_to_2 = dlm.shard_stats().updates_of(2) as usize;
        assert_eq!(replayed, 64 - routed_to_2);
        // The client saw the replayed events plus exactly one resync
        // marker naming shard 2's watched objects.
        let mut resyncs = 0usize;
        let mut replays = 0usize;
        for e in r1.try_iter() {
            match e {
                DlmEvent::ResyncRequired { oids } => {
                    resyncs += 1;
                    assert_eq!(oids.len(), routed_to_2);
                }
                DlmEvent::Updated(_) => replays += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(resyncs, 1);
        assert_eq!(replays, replayed);
    }

    #[test]
    fn cursor_from_another_incarnation_resyncs_its_shard_only() {
        let dlm = sharded(2);
        let (s1, r1) = sink();
        dlm.register_client(c(1), s1);
        let oids: Vec<Oid> = (0..16).map(o).collect();
        dlm.lock(c(1), &oids);
        let updates: Vec<UpdateInfo> = oids.iter().map(|&oid| UpdateInfo::lazy(oid)).collect();
        dlm.notify_committed(None, &updates);
        let _ = r1.try_iter().count();
        let announced = dlm.incarnations();
        let cursors = [
            ShardCursor {
                shard: 0,
                cursor: 0,
                log_incarnation: announced[0],
            },
            // Acked under a log that no longer exists: cursor 0 would
            // otherwise replay happily.
            ShardCursor {
                shard: 1,
                cursor: 0,
                log_incarnation: announced[1] ^ 1,
            },
            // Not a shard of this DLM: skipped, not an index panic.
            ShardCursor {
                shard: 9,
                cursor: 0,
                log_incarnation: 0,
            },
        ];
        let outcomes = dlm.replay_for_shards(c(1), &cursors);
        assert_eq!(outcomes.len(), 2);
        assert!(matches!(outcomes[0], ReplayOutcome::Replayed { .. }));
        assert!(matches!(outcomes[1], ReplayOutcome::Truncated { .. }));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::proto::DlmEvent;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// One recorded delivery, normalized for multiset comparison.
    /// Control events (acks, markers) are excluded — only the
    /// notification payload stream must be equivalent.
    type Recorded = (u64, String);

    fn recording_sink(
        client: u64,
        log: Arc<parking_lot::Mutex<Vec<Recorded>>>,
    ) -> Arc<dyn EventSink> {
        Arc::new(move |e: DlmEvent| {
            match &e {
                DlmEvent::Updated(_) | DlmEvent::Delta { .. } => {
                    log.lock().push((client, format!("{e:?}")));
                }
                _ => {}
            }
            Ok(())
        })
    }

    #[derive(Debug, Clone)]
    enum Op {
        Lock {
            client: u64,
            oids: Vec<u64>,
        },
        LockProjected {
            client: u64,
            oids: Vec<u64>,
            attrs: Vec<u16>,
        },
        Release {
            client: u64,
            oids: Vec<u64>,
        },
        Commit {
            origin: u64,
            oids: Vec<u64>,
            changed: bool,
        },
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let client = 0u64..5;
        let oids = proptest::collection::vec(0u64..24, 1..5);
        prop_oneof![
            (client.clone(), oids.clone()).prop_map(|(client, oids)| Op::Lock { client, oids }),
            (
                client.clone(),
                oids.clone(),
                proptest::collection::vec(0u16..4, 1..3)
            )
                .prop_map(|(client, oids, attrs)| Op::LockProjected {
                    client,
                    oids,
                    attrs
                }),
            (client.clone(), oids.clone()).prop_map(|(client, oids)| Op::Release { client, oids }),
            (client, oids, any::<bool>()).prop_map(|(origin, oids, changed)| Op::Commit {
                origin,
                oids,
                changed
            }),
        ]
    }

    fn apply(dlm: &ShardedDlm, op: &Op) {
        let oids = |raw: &[u64]| raw.iter().map(|&o| Oid::new(o)).collect::<Vec<Oid>>();
        match op {
            Op::Lock { client, oids: raw } => dlm.lock(ClientId::new(*client), &oids(raw)),
            Op::LockProjected {
                client,
                oids: raw,
                attrs,
            } => dlm.lock_projected(ClientId::new(*client), &oids(raw), attrs, 1),
            Op::Release { client, oids: raw } => dlm.release(ClientId::new(*client), &oids(raw)),
            Op::Commit {
                origin,
                oids: raw,
                changed,
            } => {
                let updates: Vec<UpdateInfo> = oids(raw)
                    .into_iter()
                    .map(|oid| {
                        let info = UpdateInfo::lazy(oid);
                        if *changed {
                            info.with_changes(vec![(1, vec![7]), (5, vec![9])])
                        } else {
                            info
                        }
                    })
                    .collect();
                dlm.notify_committed_txn(Some(ClientId::new(*origin)), &updates, 0)
                    .unwrap();
            }
        }
    }

    /// Client -> 1-based schedule position of the last op that notified
    /// it (absent = never notified).
    type LastHeard = std::collections::BTreeMap<u64, usize>;

    /// Run `ops` against a DLM with `shards` partitions and synchronous
    /// sinks, returning the sorted multiset of recorded notification
    /// deliveries and when each client was last notified.
    fn run(shards: usize, ops: &[Op]) -> (Vec<Recorded>, LastHeard) {
        let dlm = ShardedDlm::new(DlmConfig {
            shards,
            ..DlmConfig::default()
        });
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for client in 0..5u64 {
            dlm.register_client(
                ClientId::new(client),
                recording_sink(client, Arc::clone(&log)),
            );
        }
        let mut last_heard = LastHeard::new();
        for (at, op) in ops.iter().enumerate() {
            let before = log.lock().len();
            apply(&dlm, op);
            for (client, _) in &log.lock()[before..] {
                last_heard.insert(*client, at + 1);
            }
        }
        let mut recorded = log.lock().clone();
        recorded.sort();
        (recorded, last_heard)
    }

    /// What the cursor protocol told each client, in shard-count-neutral
    /// terms: which control variants it saw, and the latest op (by
    /// schedule position) its cursor vector covers.
    type Control = std::collections::BTreeMap<u64, (Vec<&'static str>, usize)>;

    /// Run `ops` with every client registered as a session (one outbox
    /// per shard, acks minted in each shard's seqno space) and report
    /// the cursor-control traffic once every client's cursor vector
    /// covers the op `last_heard` says it was last notified by. Acks
    /// are asynchronous (outbox writer threads), hence the wait; a
    /// cursor can never run ahead of what was delivered, so the
    /// condition is stable once reached.
    fn run_sessions(shards: usize, ops: &[Op], last_heard: &LastHeard) -> Control {
        let mut config = DlmConfig {
            shards,
            ..DlmConfig::default()
        };
        // Overflow sweeps depend on writer-thread timing; keep every
        // event on the normal path so the schedule alone decides.
        config.overload.outbox_high_water = 4096;
        let dlm = ShardedDlm::new(config);
        // Client -> control events in arrival order (batches flattened).
        let seen: Arc<parking_lot::Mutex<HashMap<u64, Vec<DlmEvent>>>> = Arc::default();
        for client in 0..5u64 {
            let seen = Arc::clone(&seen);
            let sink = move |e: DlmEvent| {
                let events = match e {
                    DlmEvent::Batch(events) => events,
                    e => vec![e],
                };
                seen.lock().entry(client).or_default().extend(
                    events
                        .into_iter()
                        .filter(|e| !matches!(e, DlmEvent::Updated(_) | DlmEvent::Delta { .. })),
                );
                Ok(())
            };
            dlm.register_session(ClientId::new(client), Arc::new(sink));
        }
        // (shard, seqno) -> position of the op that was assigned it.
        let mut position: HashMap<(usize, u64), usize> = HashMap::new();
        for (at, op) in ops.iter().enumerate() {
            let heads: Vec<u64> = (0..shards).map(|s| dlm.update_log_of(s).head()).collect();
            apply(&dlm, op);
            for (s, &head) in heads.iter().enumerate() {
                if dlm.update_log_of(s).head() > head {
                    position.insert((s, head + 1), at + 1);
                }
            }
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let control = loop {
            let seen = seen.lock().clone();
            let control: Control = (0..5u64)
                .map(|client| {
                    let mut variants: Vec<&'static str> = Vec::new();
                    let mut covered = 0usize;
                    for e in seen.get(&client).map_or(&[][..], Vec::as_slice) {
                        let variant = match e {
                            DlmEvent::CursorAck { shard, seqno } => {
                                covered = covered.max(position[&(*shard as usize, *seqno)]);
                                "CursorAck"
                            }
                            DlmEvent::ReplayNeeded { .. } => "ReplayNeeded",
                            DlmEvent::ResyncRequired { .. } => "ResyncRequired",
                            other => panic!("unexpected control event {other:?}"),
                        };
                        if !variants.contains(&variant) {
                            variants.push(variant);
                        }
                    }
                    (client, (variants, covered))
                })
                .collect();
            if (0..5u64).all(|c| control[&c].1 == last_heard.get(&c).copied().unwrap_or(0)) {
                break control;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "{shards} shards: cursors {control:?} never covered {last_heard:?}"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        };
        for client in 0..5u64 {
            dlm.unregister_client(ClientId::new(client));
        }
        control
    }

    proptest! {
        /// The sharded DLM is observationally equivalent to the
        /// single-shard DLM: same commit/interest schedule, same event
        /// multiset per client (projection suppression and deltas
        /// included), the same cursor-control variants, and cursor
        /// vectors that cover the same commits.
        #[test]
        fn prop_sharded_matches_single_shard(ops in proptest::collection::vec(arb_op(), 1..60)) {
            let single = run(1, &ops);
            let single_control = run_sessions(1, &ops, &single.1);
            for &shards in &[2usize, 4, 8] {
                let multi = run(shards, &ops);
                prop_assert_eq!(&multi, &single, "{} shards diverged", shards);
                let multi_control = run_sessions(shards, &ops, &multi.1);
                prop_assert_eq!(
                    &multi_control, &single_control,
                    "{} shards: cursor control diverged", shards
                );
            }
        }

        /// Per-shard seqno order: every shard's log assigns contiguous
        /// ascending seqnos regardless of commit interleaving.
        #[test]
        fn prop_per_shard_seqnos_monotone(oids in proptest::collection::vec(0u64..64, 1..80)) {
            let dlm = ShardedDlm::new(DlmConfig { shards: 4, ..DlmConfig::default() });
            let mut appended: HashMap<usize, u64> = HashMap::new();
            for &o in &oids {
                let oid = Oid::new(o);
                let shard = dlm.map().shard_of(oid) as usize;
                dlm.notify_committed(None, &[UpdateInfo::lazy(oid)]);
                *appended.entry(shard).or_insert(0) += 1;
                prop_assert_eq!(dlm.update_log_of(shard).head(), appended[&shard]);
            }
        }
    }
}
