//! One DLM shard: display-lock table, update log and notification
//! fan-out for the OIDs that hash to it. [`crate::ShardedDlm`] owns the
//! shards and is the only way in; this module also holds the
//! configuration, counters and sink trait the whole DLM shares.

use crate::log::{ReplaySlice, UpdateLog};
use crate::proto::{DlmEvent, UpdateInfo};
use displaydb_common::metrics::{Counter, OverloadStats, UpdateLogStats};
use displaydb_common::sync::{ranks, OrderedMutex};
use displaydb_common::{ClientId, DbResult, Oid, OverloadConfig, TxnId, UpdateLogConfig};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Which notification protocol the DLM runs (§ 3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NotifyProtocol {
    /// Notify holders only after updates commit.
    PostCommit,
    /// Additionally notify holders when an update *intention* (exclusive
    /// lock) is registered, and again when it resolves.
    EarlyNotify,
}

/// DLM configuration.
#[derive(Clone, Copy, Debug)]
pub struct DlmConfig {
    /// Protocol variant.
    pub protocol: NotifyProtocol,
    /// Ship new object state inside update notifications (the § 4.3
    /// "eager" extension eliminating two of the three refresh messages).
    pub eager_shipping: bool,
    /// Overload-protection knobs for the per-client outboxes wrapped
    /// around the sinks (DESIGN.md § 9).
    pub overload: OverloadConfig,
    /// Sizing for each shard's bounded replayable update log (DESIGN.md
    /// § 13).
    pub log: UpdateLogConfig,
    /// Number of in-process shards the DLM is partitioned into
    /// (DESIGN.md § 16). Each shard has its own interest table,
    /// outboxes, and update log with an independent seqno space, and
    /// each shard's outbox writers drain in parallel.
    pub shards: usize,
}

impl Default for DlmConfig {
    fn default() -> Self {
        Self {
            protocol: NotifyProtocol::PostCommit,
            eager_shipping: false,
            overload: OverloadConfig::default(),
            log: UpdateLogConfig::default(),
            shards: 1,
        }
    }
}

/// Counters for the experiments.
#[derive(Clone, Debug, Default)]
pub struct DlmStats {
    /// Lock requests processed (after DLC dedup).
    pub lock_requests: Counter,
    /// Release requests processed.
    pub release_requests: Counter,
    /// Update notifications delivered to clients.
    pub notifications: Counter,
    /// Attribute-level delta notifications delivered to clients with
    /// projected interest (subset of the traffic `notifications` would
    /// otherwise carry as whole-object events).
    pub delta_notifications: Counter,
    /// Notifications suppressed entirely because the commit changed no
    /// attribute the holder's registered projection covers.
    pub suppressed_notifications: Counter,
    /// Mark/resolve (early protocol) notifications delivered.
    pub intent_notifications: Counter,
    /// Deliveries that failed (dead client).
    pub delivery_failures: Counter,
    /// Backpressure counters for the per-client outboxes.
    pub overload: OverloadStats,
    /// Replay-log counters (appends, evictions, replays served); shared
    /// with the [`UpdateLog`] and registered as its own stats section.
    pub log: UpdateLogStats,
}

/// Where the DLM pushes events for one client.
///
/// The agent wraps a wire channel; the integrated server wraps its
/// session handle; tests wrap a crossbeam sender.
pub trait EventSink: Send + Sync {
    /// Deliver one event. Errors mark the client dead.
    fn deliver(&self, event: DlmEvent) -> DbResult<()>;

    /// Deliver an event that originated from update-log entry `seqno`.
    /// Seqno-aware sinks (the outbox) use it to advance the client's
    /// cursor and to keep latest-wins coalescing correct when replayed
    /// (older-seqno) events interleave with live ones. The default
    /// ignores the seqno.
    fn deliver_logged(&self, event: DlmEvent, _seqno: u64) -> DbResult<()> {
        self.deliver(event)
    }

    /// Deliver an event replayed out of the update log. Bounded sinks
    /// must not treat the replay burst as live backpressure (a replay
    /// legitimately exceeds the live high-water mark yet stays bounded
    /// by the watched set through coalescing). Default: `deliver_logged`.
    fn deliver_replayed(&self, event: DlmEvent, seqno: u64) -> DbResult<()> {
        self.deliver_logged(event, seqno)
    }

    /// The client is being restored from replay: leave replay-pending
    /// mode and reset overflow high-water marks so post-recovery gauges
    /// describe the recovered client. Default does nothing.
    fn replay_restore(&self) {}

    /// Every logged commit with seqno ≤ `seqno` has been handed to this
    /// sink (or filtered for this client). The outbox acks it on a frame
    /// that drains its queue, at most once per its ack interval (25 ms).
    /// Default does nothing.
    fn mark_current_through(&self, _seqno: u64) {}

    /// Every event of logged commit `seqno` destined for this sink has
    /// been enqueued: the acknowledgement frontier may advance. Kept
    /// separate from `deliver_logged` because a commit's fan-out is not
    /// atomic — if the per-event delivery advanced the frontier, a
    /// drain racing with a half-enqueued batch would acknowledge a
    /// seqno whose remaining events are still on the way (and, should
    /// they then overflow-sweep, are gone for good: the client's cursor
    /// would claim updates it never saw). Default does nothing.
    fn advance_frontier(&self, _seqno: u64) {}

    /// Release resources held by the sink (writer threads, sockets).
    /// Called when the client is unregistered; the default does nothing
    /// so simple closure sinks need no boilerplate.
    fn close(&self) {}
}

impl<F: Fn(DlmEvent) -> DbResult<()> + Send + Sync> EventSink for F {
    fn deliver(&self, event: DlmEvent) -> DbResult<()> {
        self(event)
    }
}

/// How [`DlmCore::replay_for`] recovered a client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// Streamed `events` interest-filtered events from the log suffix;
    /// the client is current through `head`.
    Replayed {
        /// Events delivered (after interest filtering).
        events: usize,
        /// Log head the client was marked current through.
        head: u64,
    },
    /// The cursor was truncated out of the log: one `ResyncRequired`
    /// covering `oids` watched objects was sent instead.
    Truncated {
        /// Watched objects named in the resync marker.
        oids: usize,
        /// Log head the client was marked current through.
        head: u64,
    },
    /// No sink is registered for the client.
    UnknownClient,
}

/// One client's registered attribute interest in one object. Absence of
/// an entry means full interest (every attribute change notifies).
#[derive(Clone, Debug, PartialEq, Eq)]
struct Interest {
    /// Projected attribute layout indices (sorted, deduped).
    attrs: Vec<u16>,
    /// The client's projection-registry version at registration time;
    /// echoed in deltas so the client can detect staleness.
    version: u32,
}

#[derive(Default)]
struct TableState {
    /// Object -> display-lock holders.
    holders: HashMap<Oid, HashSet<ClientId>>,
    /// Client -> objects it display-locks (for release-all).
    by_client: HashMap<ClientId, HashSet<Oid>>,
    /// Client -> per-object projected interest. Populated only by
    /// projected lock registrations; plain locks mean full interest.
    interest: HashMap<ClientId, HashMap<Oid, Interest>>,
    /// Registered delivery sinks.
    sinks: HashMap<ClientId, Arc<dyn EventSink>>,
}

/// One shard of the display-lock manager.
pub(crate) struct DlmCore {
    state: OrderedMutex<TableState>,
    config: DlmConfig,
    stats: DlmStats,
    log: UpdateLog,
}

impl DlmCore {
    /// Build a shard around its update `log`. Every shard of one DLM
    /// shares one `stats` handle (the log's counters included) so the
    /// counters stay a single coherent view.
    pub fn new(config: DlmConfig, stats: DlmStats, log: UpdateLog) -> Self {
        Self {
            state: OrderedMutex::new(ranks::DLM_TABLE, TableState::default()),
            config,
            stats,
            log,
        }
    }

    /// The bounded replayable update log.
    pub fn update_log(&self) -> &UpdateLog {
        &self.log
    }

    /// Register (or replace) the event sink for `client`.
    pub fn register_client(&self, client: ClientId, sink: Arc<dyn EventSink>) {
        self.state.lock().sinks.insert(client, sink);
    }

    /// Drop a client: its sink and every display lock it holds. The
    /// sink's `close` runs outside the table lock (it may join or signal
    /// a writer thread).
    pub fn unregister_client(&self, client: ClientId) {
        self.unregister_if(client, |_| true);
    }

    /// [`Self::unregister_client`], but only while `sink` is still the
    /// client's registered sink: a session that ends after a successor
    /// with the same id registered leaves the successor's sink and
    /// locks alone.
    pub fn unregister_sink(&self, client: ClientId, sink: &Arc<dyn EventSink>) {
        self.unregister_if(client, |current| {
            current.is_some_and(|current| Arc::ptr_eq(current, sink))
        });
    }

    fn unregister_if(
        &self,
        client: ClientId,
        registered: impl FnOnce(Option<&Arc<dyn EventSink>>) -> bool,
    ) {
        let removed = {
            let mut state = self.state.lock();
            if !registered(state.sinks.get(&client)) {
                return;
            }
            let removed = state.sinks.remove(&client);
            state.interest.remove(&client);
            if let Some(oids) = state.by_client.remove(&client) {
                for oid in oids {
                    if let Some(holders) = state.holders.get_mut(&oid) {
                        holders.remove(&client);
                        if holders.is_empty() {
                            state.holders.remove(&oid);
                        }
                    }
                }
            }
            removed
        };
        if let Some(sink) = removed {
            sink.close();
        }
    }

    /// Acquire display locks. Always succeeds (never acknowledged, § 4.1).
    /// A plain lock means full interest: any projected interest recorded
    /// earlier for these objects is widened back to "everything".
    pub fn lock(&self, client: ClientId, oids: &[Oid]) {
        let mut state = self.state.lock();
        for &oid in oids {
            state.holders.entry(oid).or_default().insert(client);
            state.by_client.entry(client).or_default().insert(oid);
            if let Some(per_client) = state.interest.get_mut(&client) {
                per_client.remove(&oid);
            }
        }
        self.stats.lock_requests.add(oids.len() as u64);
    }

    /// Acquire display locks with a registered attribute projection: the
    /// holder only cares about changes to `attrs` (layout indices) of
    /// these objects. Commits touching only other attributes are
    /// suppressed; covered commits arrive as [`DlmEvent::Delta`]s tagged
    /// with `version`. Re-registration replaces the previous interest
    /// (the client sends the union across its displays).
    pub fn lock_projected(&self, client: ClientId, oids: &[Oid], attrs: &[u16], version: u32) {
        let interest = {
            let mut a = attrs.to_vec();
            a.sort_unstable();
            a.dedup();
            Interest { attrs: a, version }
        };
        let mut state = self.state.lock();
        for &oid in oids {
            state.holders.entry(oid).or_default().insert(client);
            state.by_client.entry(client).or_default().insert(oid);
            state
                .interest
                .entry(client)
                .or_default()
                .insert(oid, interest.clone());
        }
        self.stats.lock_requests.add(oids.len() as u64);
    }

    /// Release display locks.
    pub fn release(&self, client: ClientId, oids: &[Oid]) {
        let mut state = self.state.lock();
        for &oid in oids {
            if let Some(holders) = state.holders.get_mut(&oid) {
                holders.remove(&client);
                if holders.is_empty() {
                    state.holders.remove(&oid);
                }
            }
            if let Some(set) = state.by_client.get_mut(&client) {
                set.remove(&oid);
            }
            if let Some(per_client) = state.interest.get_mut(&client) {
                per_client.remove(&oid);
            }
        }
        self.stats.release_requests.add(oids.len() as u64);
    }

    /// Current holder set for an object.
    pub fn holders(&self, oid: Oid) -> Vec<ClientId> {
        self.state
            .lock()
            .holders
            .get(&oid)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Number of display-locked objects.
    pub fn locked_objects(&self) -> usize {
        self.state.lock().holders.len()
    }

    /// Whether any client currently has a projected interest registered.
    /// Lets the integrated server skip pre-image capture and diffing
    /// entirely when nobody wants attribute-level deltas.
    pub fn has_projected_interest(&self) -> bool {
        self.state.lock().interest.values().any(|m| !m.is_empty())
    }

    /// Whether `client` holds a projected (attribute-narrowed) display
    /// lock on `oid`. Used by the integrated server to defer grant-time
    /// consistency callbacks: a projected holder's copy is either kept
    /// current by a commit-time delta or invalidated at commit.
    pub fn has_interest(&self, client: ClientId, oid: Oid) -> bool {
        self.state
            .lock()
            .interest
            .get(&client)
            .is_some_and(|m| m.contains_key(&oid))
    }

    /// Whether `client`'s registered projection on `oid` covers every
    /// attribute index in `changed`. When it does, the delta the client
    /// is about to receive carries the complete set of changes, so its
    /// cached copy can be patched in place instead of invalidated — the
    /// callback round-trip becomes unnecessary.
    pub fn interest_covers(&self, client: ClientId, oid: Oid, changed: &[u16]) -> bool {
        self.state
            .lock()
            .interest
            .get(&client)
            .and_then(|m| m.get(&oid))
            .is_some_and(|i| changed.iter().all(|a| i.attrs.binary_search(a).is_ok()))
    }

    /// Log what `origin`'s transaction `txn` committed before any outbox
    /// sees it: an overflow finds it retained, a durable log has it on
    /// disk first (DESIGN.md § 14). `Err`: the spill failed, the batch goes
    /// out **unlogged**, and replays resync until the window refills.
    pub fn log_committed(
        &self,
        origin: Option<ClientId>,
        updates: &mut [UpdateInfo],
        txn: u64,
    ) -> DbResult<Option<u64>> {
        // A lazy protocol never ships state, so it does not log it: the
        // ring's byte cap and the durable spill hold only what replays.
        if !self.config.eager_shipping {
            for update in updates.iter_mut() {
                update.payload = None;
            }
        }
        self.log.append(origin, updates, txn)
    }

    /// Fan a logged batch out to every display-lock holder but `origin`
    /// (post-commit notify, § 3.3): a [`DlmEvent::Delta`] of what a
    /// projection ([`Self::lock_projected`]) covers, nothing if it covers
    /// none, else `Updated` (also deletions and updates without changes).
    pub fn fan_out(&self, origin: Option<ClientId>, updates: &[UpdateInfo], seqno: Option<u64>) {
        // Snapshot phase: under the table lock, record only *who* gets
        // *which* update (sink + interest clone). Event construction —
        // which clones eager payloads — and the per-holder enqueue both
        // run after the lock is released, so a slow outbox enqueue can
        // no longer stall lock registration on every other connection.
        let snapshot = {
            let state = self.state.lock();
            let mut out: Vec<(usize, Arc<dyn EventSink>, Option<Interest>)> = Vec::new();
            for (idx, update) in updates.iter().enumerate() {
                // Intersect stage: the commit meets the interest table,
                // whether or not any holder ends up notified.
                displaydb_common::trace::record(
                    update.trace,
                    displaydb_common::trace::Stage::Intersect,
                );
                let Some(holders) = state.holders.get(&update.oid) else {
                    continue;
                };
                for &holder in holders {
                    if Some(holder) == origin {
                        continue;
                    }
                    let Some(sink) = state.sinks.get(&holder) else {
                        continue;
                    };
                    let interest = state
                        .interest
                        .get(&holder)
                        .and_then(|per_client| per_client.get(&update.oid))
                        .cloned();
                    out.push((idx, Arc::clone(sink), interest));
                }
            }
            out
        };
        let mut notified: Vec<Arc<dyn EventSink>> = Vec::new();
        for (idx, sink, interest) in snapshot {
            let Some(event) = self.event_for(&updates[idx], interest.as_ref()) else {
                continue;
            };
            let is_delta = matches!(event, DlmEvent::Delta { .. });
            let delivered = match seqno {
                Some(s) => sink.deliver_logged(event, s),
                None => sink.deliver(event),
            };
            if delivered.is_ok() {
                self.stats.notifications.inc();
                if is_delta {
                    self.stats.delta_notifications.inc();
                }
                if seqno.is_some() && !notified.iter().any(|s| Arc::ptr_eq(s, &sink)) {
                    notified.push(sink);
                }
            } else {
                self.stats.delivery_failures.inc();
            }
        }
        // Only now — with the whole commit enqueued per sink, and every
        // older logged one too — may the ack frontier move (see
        // `EventSink::advance_frontier`, `UpdateLog::fanned_out`).
        if let Some(s) = seqno {
            let (ready, through) = self.log.fanned_out(s, notified);
            for sink in ready {
                sink.advance_frontier(through);
            }
        }
    }

    /// Build the event `update` produces for a holder with `interest`,
    /// applying the same projection-intersection, eager-stripping, and
    /// suppression rules on the live fan-out and replay paths. `None`
    /// means the holder's projection suppresses the notification.
    fn event_for(&self, update: &UpdateInfo, interest: Option<&Interest>) -> Option<DlmEvent> {
        match (interest, &update.changed) {
            (Some(interest), Some(changed)) if !update.deleted => {
                let projected: Vec<(u16, Vec<u8>)> = changed
                    .iter()
                    .filter(|(attr, _)| interest.attrs.binary_search(attr).is_ok())
                    .cloned()
                    .collect();
                if projected.is_empty() {
                    self.stats.suppressed_notifications.inc();
                    return None;
                }
                Some(DlmEvent::Delta {
                    oid: update.oid,
                    version: interest.version,
                    changed: projected,
                    trace: update.trace,
                })
            }
            _ => {
                let mut info = update.clone();
                if !self.config.eager_shipping {
                    info.payload = None; // lazy protocols never ship state
                }
                info.changed = None; // deltas carry changes; Updated never does
                Some(DlmEvent::Updated(info))
            }
        }
    }

    /// Serve a [`crate::proto::DlmRequest::ReplayFrom`] for `client`:
    /// stream every logged commit past `cursor`, filtered through the
    /// client's *current* registrations (it re-locked before replaying),
    /// then mark it current through the log head so its outbox acks the
    /// new cursor. Falls back to exactly one `ResyncRequired` covering
    /// the client's watched objects when the cursor has been truncated
    /// out of the log.
    ///
    /// The client's outbox is restored (replay-pending cleared,
    /// high-water reset) *before* the log snapshot, so commits racing
    /// with the replay are enqueued live rather than dropped; seqno-aware
    /// coalescing keeps latest-wins correct across the interleave.
    pub fn replay_for(&self, client: ClientId, cursor: u64) -> ReplayOutcome {
        let (sink, watched, interest) = {
            let state = self.state.lock();
            let Some(sink) = state.sinks.get(&client) else {
                return ReplayOutcome::UnknownClient;
            };
            let watched: Vec<Oid> = state
                .by_client
                .get(&client)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default();
            let interest: HashMap<Oid, Interest> =
                state.interest.get(&client).cloned().unwrap_or_default();
            (Arc::clone(sink), watched, interest)
        };
        sink.replay_restore();
        match self.log.replay_from(cursor) {
            ReplaySlice::Truncated { head } => {
                self.log.stats().truncated_replays.inc();
                let oids = watched.len();
                if sink
                    .deliver(DlmEvent::ResyncRequired { oids: watched })
                    .is_err()
                {
                    self.stats.delivery_failures.inc();
                }
                sink.mark_current_through(head);
                ReplayOutcome::Truncated { oids, head }
            }
            ReplaySlice::Events { entries, head } => {
                let watched: HashSet<Oid> = watched.into_iter().collect();
                let mut delivered = 0usize;
                'entries: for entry in &entries {
                    if entry.origin == Some(client) {
                        continue;
                    }
                    for update in &entry.updates {
                        if !watched.contains(&update.oid) {
                            continue;
                        }
                        let Some(event) = self.event_for(update, interest.get(&update.oid)) else {
                            continue;
                        };
                        // Replayed events re-enter the pipeline at the
                        // Intersect stage so the OBS breakdown can
                        // attribute replay latency (DESIGN.md § 12).
                        displaydb_common::trace::record(
                            update.trace,
                            displaydb_common::trace::Stage::Intersect,
                        );
                        if sink.deliver_replayed(event, entry.seqno).is_err() {
                            self.stats.delivery_failures.inc();
                            break 'entries;
                        }
                        delivered += 1;
                    }
                }
                sink.mark_current_through(head);
                self.log.stats().replays_served.inc();
                self.log.stats().replayed_events.add(delivered as u64);
                ReplayOutcome::Replayed {
                    events: delivered,
                    head,
                }
            }
        }
    }

    /// Early-notify: tell holders an exclusive lock was just acquired on
    /// `oids`. No-op under [`NotifyProtocol::PostCommit`].
    pub fn notify_intent(&self, origin: Option<ClientId>, oids: &[Oid], txn: TxnId) {
        if self.config.protocol != NotifyProtocol::EarlyNotify {
            return;
        }
        self.fan_out_intent(origin, oids, |oid| DlmEvent::Marked { oid, txn });
    }

    /// Early-notify: tell holders whether the marked transaction
    /// committed. No-op under [`NotifyProtocol::PostCommit`].
    pub fn notify_resolution(
        &self,
        origin: Option<ClientId>,
        oids: &[Oid],
        txn: TxnId,
        committed: bool,
    ) {
        if self.config.protocol != NotifyProtocol::EarlyNotify {
            return;
        }
        self.fan_out_intent(origin, oids, |oid| DlmEvent::Resolved {
            oid,
            txn,
            committed,
        });
    }

    fn fan_out_intent(
        &self,
        origin: Option<ClientId>,
        oids: &[Oid],
        make: impl Fn(Oid) -> DlmEvent,
    ) {
        let deliveries = {
            let state = self.state.lock();
            let mut out: Vec<(Arc<dyn EventSink>, DlmEvent)> = Vec::new();
            for &oid in oids {
                let Some(holders) = state.holders.get(&oid) else {
                    continue;
                };
                for &holder in holders {
                    if Some(holder) == origin {
                        continue;
                    }
                    if let Some(sink) = state.sinks.get(&holder) {
                        out.push((Arc::clone(sink), make(oid)));
                    }
                }
            }
            out
        };
        for (sink, event) in deliveries {
            if sink.deliver(event).is_ok() {
                self.stats.intent_notifications.inc();
            } else {
                self.stats.delivery_failures.inc();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ShardCursor, ShardedDlm};
    use crossbeam::channel::{unbounded, Receiver, Sender};
    use displaydb_common::DbError;

    fn sink() -> (Arc<dyn EventSink>, Receiver<DlmEvent>) {
        let (tx, rx): (Sender<DlmEvent>, Receiver<DlmEvent>) = unbounded();
        let f = move |e: DlmEvent| tx.send(e).map_err(|_| DbError::Disconnected);
        (Arc::new(f), rx)
    }

    fn c(i: u64) -> ClientId {
        ClientId::new(i)
    }

    fn o(i: u64) -> Oid {
        Oid::new(i)
    }

    #[test]
    fn lock_release_holders() {
        let dlm = ShardedDlm::new(DlmConfig::default());
        dlm.lock(c(1), &[o(1), o(2)]);
        dlm.lock(c(2), &[o(2)]);
        assert_eq!(dlm.holders(o(1)), vec![c(1)]);
        assert_eq!(dlm.holders(o(2)).len(), 2);
        dlm.release(c(1), &[o(2)]);
        assert_eq!(dlm.holders(o(2)), vec![c(2)]);
        assert_eq!(dlm.locked_objects(), 2);
        dlm.release(c(2), &[o(2)]);
        assert_eq!(dlm.locked_objects(), 1);
    }

    #[test]
    fn post_commit_notifies_holders_not_originator() {
        let dlm = ShardedDlm::new(DlmConfig::default());
        let (s1, r1) = sink();
        let (s2, r2) = sink();
        dlm.register_client(c(1), s1);
        dlm.register_client(c(2), s2);
        dlm.lock(c(1), &[o(7)]);
        dlm.lock(c(2), &[o(7)]);
        dlm.notify_committed(Some(c(2)), &[UpdateInfo::lazy(o(7))]);
        // Holder 1 notified; originator 2 skipped.
        assert_eq!(
            r1.try_recv().unwrap(),
            DlmEvent::Updated(UpdateInfo::lazy(o(7)))
        );
        assert!(r2.try_recv().is_err());
        assert_eq!(dlm.stats().notifications.get(), 1);
    }

    #[test]
    fn lock_registration_is_not_blocked_by_inflight_fanout() {
        // Regression: the commit fan-out used to hold the DLM state
        // lock across the entire holder fan-out, so one slow sink
        // stalled every lock registration on every other connection.
        // The fix snapshots (sink, interest) under the lock and delivers
        // outside it. A sink parked mid-delivery stands in for the slow
        // consumer; `lock()` from another client must complete while it
        // is still parked.
        use std::time::Duration;
        let dlm = Arc::new(ShardedDlm::new(DlmConfig::default()));
        let (entered_tx, entered_rx) = unbounded();
        let (release_tx, release_rx) = unbounded::<()>();
        let parked = move |e: DlmEvent| {
            let _ = entered_tx.send(e);
            let _ = release_rx.recv();
            Ok(())
        };
        dlm.register_client(c(1), Arc::new(parked));
        dlm.lock(c(1), &[o(1)]);

        let fanout = {
            let dlm = Arc::clone(&dlm);
            std::thread::spawn(move || {
                dlm.notify_committed(None, &[UpdateInfo::lazy(o(1))]);
            })
        };
        // Wait until the fan-out is parked inside the sink.
        entered_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("fan-out never reached the sink");

        let (locked_tx, locked_rx) = unbounded();
        let locker = {
            let dlm = Arc::clone(&dlm);
            std::thread::spawn(move || {
                dlm.lock(c(2), &[o(2)]);
                let _ = locked_tx.send(());
            })
        };
        locked_rx
            .recv_timeout(Duration::from_secs(2))
            .expect("lock() stalled behind a parked fan-out");
        assert_eq!(dlm.holders(o(2)), vec![c(2)]);

        release_tx.send(()).unwrap();
        fanout.join().unwrap();
        locker.join().unwrap();
        assert_eq!(dlm.stats().notifications.get(), 1);
    }

    #[test]
    fn non_holders_not_notified() {
        let dlm = ShardedDlm::new(DlmConfig::default());
        let (s1, r1) = sink();
        dlm.register_client(c(1), s1);
        dlm.lock(c(1), &[o(1)]);
        dlm.notify_committed(None, &[UpdateInfo::lazy(o(99))]);
        assert!(r1.try_recv().is_err());
        assert_eq!(dlm.stats().notifications.get(), 0);
    }

    #[test]
    fn eager_shipping_controls_payload() {
        // Lazy DLM strips payloads even if the reporter attached them.
        let lazy = ShardedDlm::new(DlmConfig::default());
        let (s1, r1) = sink();
        lazy.register_client(c(1), s1);
        lazy.lock(c(1), &[o(1)]);
        lazy.notify_committed(None, &[UpdateInfo::eager(o(1), vec![1, 2])]);
        match r1.try_recv().unwrap() {
            DlmEvent::Updated(u) => assert!(u.payload.is_none()),
            other => panic!("unexpected {other:?}"),
        }
        // Eager DLM forwards them.
        let eager = ShardedDlm::new(DlmConfig {
            eager_shipping: true,
            ..DlmConfig::default()
        });
        let (s2, r2) = sink();
        eager.register_client(c(1), s2);
        eager.lock(c(1), &[o(1)]);
        eager.notify_committed(None, &[UpdateInfo::eager(o(1), vec![1, 2])]);
        match r2.try_recv().unwrap() {
            DlmEvent::Updated(u) => assert_eq!(u.payload, Some(vec![1, 2])),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A lazy DLM logs no state: a bigger object costs the ring nothing,
    /// and a replay delivers exactly what the live path delivered.
    #[test]
    fn lazy_log_keeps_no_payload_and_replays_what_went_live() {
        let dlm = ShardedDlm::new(DlmConfig::default());
        let (s1, r1) = sink();
        dlm.register_client(c(1), s1);
        dlm.lock_projected(c(1), &[o(2)], &[1], 4);
        dlm.lock(c(1), &[o(1)]);
        let log_bytes = || dlm.stats().log.log_bytes.get();
        dlm.notify_committed(None, &[UpdateInfo::eager(o(1), vec![7; 10])]);
        let per_entry = log_bytes();
        dlm.notify_committed(None, &[UpdateInfo::eager(o(1), vec![7; 10_000])]);
        let delta = UpdateInfo::eager(o(2), vec![7; 500]).with_changes(vec![(1, vec![3])]);
        dlm.notify_committed(None, &[delta]);
        assert_eq!(log_bytes(), 2 * per_entry + per_entry + 5);
        let live: Vec<DlmEvent> = r1.try_iter().collect();
        assert_eq!(live.len(), 3);
        let cursor = ShardCursor {
            shard: 0,
            cursor: 0,
            log_incarnation: dlm.incarnations()[0],
        };
        dlm.replay_for_shards(c(1), &[cursor]);
        assert_eq!(r1.try_iter().collect::<Vec<_>>(), live);
    }

    #[test]
    fn early_notify_marks_and_resolves() {
        let dlm = ShardedDlm::new(DlmConfig {
            protocol: NotifyProtocol::EarlyNotify,
            ..DlmConfig::default()
        });
        let (s1, r1) = sink();
        dlm.register_client(c(1), s1);
        dlm.lock(c(1), &[o(3)]);
        let txn = TxnId::new(42);
        dlm.notify_intent(Some(c(2)), &[o(3)], txn);
        assert_eq!(r1.try_recv().unwrap(), DlmEvent::Marked { oid: o(3), txn });
        dlm.notify_resolution(Some(c(2)), &[o(3)], txn, true);
        assert_eq!(
            r1.try_recv().unwrap(),
            DlmEvent::Resolved {
                oid: o(3),
                txn,
                committed: true
            }
        );
        assert_eq!(dlm.stats().intent_notifications.get(), 2);
    }

    #[test]
    fn post_commit_protocol_suppresses_intents() {
        let dlm = ShardedDlm::new(DlmConfig::default());
        let (s1, r1) = sink();
        dlm.register_client(c(1), s1);
        dlm.lock(c(1), &[o(3)]);
        dlm.notify_intent(None, &[o(3)], TxnId::new(1));
        dlm.notify_resolution(None, &[o(3)], TxnId::new(1), true);
        assert!(r1.try_recv().is_err());
    }

    #[test]
    fn unregister_drops_locks_and_sink() {
        let dlm = ShardedDlm::new(DlmConfig::default());
        let (s1, _r1) = sink();
        dlm.register_client(c(1), s1);
        dlm.lock(c(1), &[o(1), o(2)]);
        dlm.unregister_client(c(1));
        assert_eq!(dlm.locked_objects(), 0);
        dlm.notify_committed(None, &[UpdateInfo::lazy(o(1))]);
        assert_eq!(dlm.stats().notifications.get(), 0);
    }

    #[test]
    fn dead_sink_counted_as_failure() {
        let dlm = ShardedDlm::new(DlmConfig::default());
        let (s1, r1) = sink();
        drop(r1); // kill the receiver
        dlm.register_client(c(1), s1);
        dlm.lock(c(1), &[o(1)]);
        dlm.notify_committed(None, &[UpdateInfo::lazy(o(1))]);
        assert_eq!(dlm.stats().delivery_failures.get(), 1);
        assert_eq!(dlm.stats().notifications.get(), 0);
    }

    #[test]
    fn projected_holder_receives_intersected_delta() {
        let dlm = ShardedDlm::new(DlmConfig::default());
        let (s1, r1) = sink();
        dlm.register_client(c(1), s1);
        dlm.lock_projected(c(1), &[o(5)], &[1, 3], 7);
        let update =
            UpdateInfo::lazy(o(5)).with_changes(vec![(0, vec![9]), (1, vec![10]), (3, vec![11])]);
        dlm.notify_committed(None, &[update]);
        assert_eq!(
            r1.try_recv().unwrap(),
            DlmEvent::Delta {
                oid: o(5),
                version: 7,
                changed: vec![(1, vec![10]), (3, vec![11])],
                trace: 0,
            }
        );
        assert_eq!(dlm.stats().delta_notifications.get(), 1);
        assert_eq!(dlm.stats().notifications.get(), 1);
    }

    #[test]
    fn commit_outside_projection_is_suppressed() {
        let dlm = ShardedDlm::new(DlmConfig::default());
        let (s1, r1) = sink();
        dlm.register_client(c(1), s1);
        dlm.lock_projected(c(1), &[o(5)], &[1], 1);
        dlm.notify_committed(
            None,
            &[UpdateInfo::lazy(o(5)).with_changes(vec![(0, vec![9]), (2, vec![8])])],
        );
        assert!(r1.try_recv().is_err());
        assert_eq!(dlm.stats().suppressed_notifications.get(), 1);
        assert_eq!(dlm.stats().notifications.get(), 0);
    }

    #[test]
    fn full_interest_holder_still_gets_updated() {
        // A second holder without a projection sees the classic event,
        // with change info stripped (Updated never carries it).
        let dlm = ShardedDlm::new(DlmConfig::default());
        let (s1, r1) = sink();
        let (s2, r2) = sink();
        dlm.register_client(c(1), s1);
        dlm.register_client(c(2), s2);
        dlm.lock_projected(c(1), &[o(5)], &[1], 3);
        dlm.lock(c(2), &[o(5)]);
        dlm.notify_committed(
            None,
            &[UpdateInfo::lazy(o(5)).with_changes(vec![(1, vec![4])])],
        );
        assert!(matches!(r1.try_recv().unwrap(), DlmEvent::Delta { .. }));
        match r2.try_recv().unwrap() {
            DlmEvent::Updated(u) => assert!(u.changed.is_none()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn update_without_change_info_falls_back_to_updated() {
        let dlm = ShardedDlm::new(DlmConfig::default());
        let (s1, r1) = sink();
        dlm.register_client(c(1), s1);
        dlm.lock_projected(c(1), &[o(5)], &[1], 1);
        dlm.notify_committed(None, &[UpdateInfo::lazy(o(5))]);
        assert!(matches!(r1.try_recv().unwrap(), DlmEvent::Updated(_)));
        assert_eq!(dlm.stats().delta_notifications.get(), 0);
    }

    #[test]
    fn deletion_overrides_projection() {
        let dlm = ShardedDlm::new(DlmConfig::default());
        let (s1, r1) = sink();
        dlm.register_client(c(1), s1);
        dlm.lock_projected(c(1), &[o(5)], &[1], 1);
        dlm.notify_committed(
            None,
            &[UpdateInfo::deletion(o(5)).with_changes(vec![(0, vec![1])])],
        );
        match r1.try_recv().unwrap() {
            DlmEvent::Updated(u) => assert!(u.deleted),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn plain_relock_widens_projection_to_full_interest() {
        let dlm = ShardedDlm::new(DlmConfig::default());
        let (s1, r1) = sink();
        dlm.register_client(c(1), s1);
        dlm.lock_projected(c(1), &[o(5)], &[1], 1);
        dlm.lock(c(1), &[o(5)]);
        dlm.notify_committed(
            None,
            &[UpdateInfo::lazy(o(5)).with_changes(vec![(0, vec![2])])],
        );
        assert!(matches!(r1.try_recv().unwrap(), DlmEvent::Updated(_)));
    }

    #[test]
    fn release_clears_projected_interest() {
        let dlm = ShardedDlm::new(DlmConfig::default());
        let (s1, r1) = sink();
        dlm.register_client(c(1), s1);
        dlm.lock_projected(c(1), &[o(5)], &[1], 1);
        dlm.release(c(1), &[o(5)]);
        dlm.lock(c(1), &[o(5)]);
        dlm.notify_committed(
            None,
            &[UpdateInfo::lazy(o(5)).with_changes(vec![(0, vec![2])])],
        );
        assert!(matches!(r1.try_recv().unwrap(), DlmEvent::Updated(_)));
    }

    #[test]
    fn reregistration_replaces_projection() {
        let dlm = ShardedDlm::new(DlmConfig::default());
        let (s1, r1) = sink();
        dlm.register_client(c(1), s1);
        dlm.lock_projected(c(1), &[o(5)], &[0], 1);
        dlm.lock_projected(c(1), &[o(5)], &[2], 2);
        dlm.notify_committed(
            None,
            &[UpdateInfo::lazy(o(5)).with_changes(vec![(0, vec![9])])],
        );
        assert!(r1.try_recv().is_err(), "old projection must not survive");
        dlm.notify_committed(
            None,
            &[UpdateInfo::lazy(o(5)).with_changes(vec![(2, vec![9])])],
        );
        assert_eq!(
            r1.try_recv().unwrap(),
            DlmEvent::Delta {
                oid: o(5),
                version: 2,
                changed: vec![(2, vec![9])],
                trace: 0,
            }
        );
    }

    #[test]
    fn interest_queries_reflect_registrations() {
        let dlm = ShardedDlm::new(DlmConfig::default());
        let (s1, _r1) = sink();
        dlm.register_client(c(1), s1);
        assert!(!dlm.has_interest(c(1), o(5)));
        dlm.lock_projected(c(1), &[o(5)], &[1, 3], 1);
        assert!(dlm.has_interest(c(1), o(5)));
        assert!(!dlm.has_interest(c(1), o(6)));
        assert!(dlm.interest_covers(c(1), o(5), &[1]));
        assert!(dlm.interest_covers(c(1), o(5), &[1, 3]));
        assert!(dlm.interest_covers(c(1), o(5), &[]));
        assert!(!dlm.interest_covers(c(1), o(5), &[1, 2]));
        assert!(!dlm.interest_covers(c(1), o(6), &[1]));
        // A plain relock widens to full interest — which means the copy
        // is no longer delta-maintained, so coverage must report false.
        dlm.lock(c(1), &[o(5)]);
        assert!(!dlm.has_interest(c(1), o(5)));
        assert!(!dlm.interest_covers(c(1), o(5), &[1]));
    }

    #[test]
    fn one_notification_per_holder_per_update() {
        let dlm = ShardedDlm::new(DlmConfig::default());
        let (s1, r1) = sink();
        dlm.register_client(c(1), s1);
        dlm.lock(c(1), &[o(1), o(2)]);
        dlm.notify_committed(
            None,
            &[
                UpdateInfo::lazy(o(1)),
                UpdateInfo::lazy(o(2)),
                UpdateInfo::lazy(o(3)),
            ],
        );
        assert_eq!(r1.try_iter().count(), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::proto::UpdateInfo;
    use crate::ShardedDlm;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    /// Model-based test: the DLM's holder table must behave exactly like
    /// a map of sets under arbitrary lock/release/unregister sequences,
    /// and notifications must reach exactly the modelled holders.
    #[derive(Debug, Clone)]
    enum Op {
        Lock { client: u64, oids: Vec<u64> },
        Release { client: u64, oids: Vec<u64> },
        Unregister { client: u64 },
        Update { origin: u64, oid: u64 },
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let client = 0u64..6;
        let oids = proptest::collection::vec(0u64..12, 1..4);
        prop_oneof![
            (client.clone(), oids.clone()).prop_map(|(client, oids)| Op::Lock { client, oids }),
            (client.clone(), oids).prop_map(|(client, oids)| Op::Release { client, oids }),
            client.clone().prop_map(|client| Op::Unregister { client }),
            (client, 0u64..12).prop_map(|(origin, oid)| Op::Update { origin, oid }),
        ]
    }

    proptest! {
        #[test]
        fn prop_dlm_matches_model(ops in proptest::collection::vec(arb_op(), 1..80)) {
            let dlm = ShardedDlm::new(DlmConfig::default());
            let mut model: HashMap<u64, HashSet<u64>> = HashMap::new(); // oid -> clients
            let mut registered: HashSet<u64> = HashSet::new();
            // Each client gets a queue-backed sink.
            let mut rxs: HashMap<u64, crossbeam::channel::Receiver<DlmEvent>> = HashMap::new();
            let register = |dlm: &ShardedDlm, rxs: &mut HashMap<u64, crossbeam::channel::Receiver<DlmEvent>>, c: u64| {
                let (tx, rx) = crossbeam::channel::unbounded();
                dlm.register_client(ClientId::new(c), Arc::new(move |e: DlmEvent| {
                    tx.send(e).map_err(|_| displaydb_common::DbError::Disconnected)
                }));
                rxs.insert(c, rx);
            };

            for op in ops {
                match op {
                    Op::Lock { client, oids } => {
                        if !registered.contains(&client) {
                            register(&dlm, &mut rxs, client);
                            registered.insert(client);
                        }
                        let oids: Vec<Oid> = oids.iter().map(|&o| Oid::new(o)).collect();
                        dlm.lock(ClientId::new(client), &oids);
                        for oid in &oids {
                            model.entry(oid.raw()).or_default().insert(client);
                        }
                    }
                    Op::Release { client, oids } => {
                        let oids: Vec<Oid> = oids.iter().map(|&o| Oid::new(o)).collect();
                        dlm.release(ClientId::new(client), &oids);
                        for oid in &oids {
                            if let Some(set) = model.get_mut(&oid.raw()) {
                                set.remove(&client);
                                if set.is_empty() {
                                    model.remove(&oid.raw());
                                }
                            }
                        }
                    }
                    Op::Unregister { client } => {
                        dlm.unregister_client(ClientId::new(client));
                        registered.remove(&client);
                        rxs.remove(&client);
                        model.retain(|_, set| {
                            set.remove(&client);
                            !set.is_empty()
                        });
                    }
                    Op::Update { origin, oid } => {
                        dlm.notify_committed(
                            Some(ClientId::new(origin)),
                            &[UpdateInfo::lazy(Oid::new(oid))],
                        );
                        // Exactly the modelled holders (minus origin,
                        // minus unregistered) get the event.
                        let expected: HashSet<u64> = model
                            .get(&oid)
                            .map(|s| {
                                s.iter()
                                    .copied()
                                    .filter(|&c| c != origin && registered.contains(&c))
                                    .collect()
                            })
                            .unwrap_or_default();
                        for (&c, rx) in rxs.iter() {
                            let got = rx.try_iter().count();
                            let want = usize::from(expected.contains(&c));
                            prop_assert_eq!(
                                got, want,
                                "client {} got {} events, wanted {}", c, got, want
                            );
                        }
                    }
                }
                // Holder sets always agree with the model.
                for (&oid, clients) in &model {
                    let mut actual: Vec<u64> =
                        dlm.holders(Oid::new(oid)).iter().map(|c| c.raw()).collect();
                    actual.sort_unstable();
                    let mut expected: Vec<u64> = clients.iter().copied().collect();
                    expected.sort_unstable();
                    prop_assert_eq!(actual, expected);
                }
                prop_assert_eq!(dlm.locked_objects(), model.len());
            }
        }
    }
}
