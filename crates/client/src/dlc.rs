//! The Display Lock Client (DLC).
//!
//! The paper's § 4.2.1 observation: one client application usually runs
//! *several* displays (windows) that may share database objects. Treating
//! each display as a separate DLM client would multiply messages; instead
//! a single DLC per client
//!
//! * keeps a local table `object → {displays}` and forwards a lock or
//!   release to the DLM **only on the 0→1 and 1→0 transitions**, and
//! * receives each update notification **once** and dispatches it locally
//!   to every display that depends on the object.
//!
//! The DLC speaks one message set, [`DlmRequest`], to either DLM
//! deployment; [`DlmBackend`] is only the link it goes out on: the
//! integrated server (wrapped in `Request::Dlm` on the main connection)
//! or the standalone agent (as is, on a dedicated connection, as in the
//! paper).

use displaydb_common::metrics::{Counter, Gauge};
use displaydb_common::sync::{ranks, OrderedMutex};
use displaydb_common::{DbResult, DisplayId, Oid};
use displaydb_dlm::{DlmEvent, DlmRequest, ShardCursor, UpdateInfo};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// How the DLC reaches the DLM.
pub trait DlmBackend: Send + Sync {
    /// Forward one request. Nothing comes back but the link's own
    /// failure: outcomes arrive on the notification stream. The reader
    /// thread sends `ReplayFrom`, so that one must not wait for an answer.
    fn send(&self, request: DlmRequest) -> DbResult<()>;
}

/// What a display receives from its DLC subscription: either a DLM
/// notification for an object it watches, or a connection-health
/// transition broadcast by the supervisor (crate::supervisor).
#[derive(Clone, Debug)]
pub enum DlcEvent {
    /// A display-lock notification from the DLM.
    Dlm(DlmEvent),
    /// The connection (server or DLM agent) died; displays should keep
    /// serving their pinned objects but mark them stale.
    Degraded,
    /// The connection is back and display locks have been re-registered;
    /// any object that changed during the outage has already been
    /// resynced via `Dlm(Updated)` events, so remaining stale marks can
    /// be cleared.
    Restored,
}

/// Counters demonstrating the hierarchical dedup benefit (experiment A2).
#[derive(Clone, Debug, Default)]
pub struct DlcStats {
    /// Lock requests the displays issued to the DLC.
    pub local_lock_requests: Counter,
    /// Lock messages the DLC actually sent to the DLM (0→1 transitions).
    pub dlm_lock_messages: Counter,
    /// Release messages sent to the DLM (1→0 transitions).
    pub dlm_release_messages: Counter,
    /// Notifications received from the DLM.
    pub notifications_in: Counter,
    /// Notification deliveries to local displays (fan-out).
    pub notifications_dispatched: Counter,
    /// `ResyncRequired` markers received (a replay found our cursor
    /// truncated out of the log: "re-read these objects" instead).
    pub resyncs_in: Counter,
    /// Attribute-level delta notifications received.
    pub deltas_in: Counter,
    /// Deltas resynced by a forced re-read: a projection-version mismatch,
    /// or a failed patch of a database copy that is present.
    pub delta_fallbacks: Counter,
    /// Cursor acknowledgements received (the server confirming every
    /// logged update through a seqno reached this client).
    pub cursor_acks_in: Counter,
    /// `ReplayNeeded` markers answered with a `ReplayFrom{cursor}`.
    pub replays_requested: Counter,
    /// Cursor acks that regressed (lower seqno than already recorded —
    /// expected exactly when the DLM restarted with a fresh seqno
    /// space) or named a shard the handshake never announced. Counted
    /// and ignored — a cursor stays monotone within an incarnation and
    /// resets only on a full resync.
    pub cursor_gaps: Counter,
    /// Events dropped because a display's bounded queue was full. A
    /// display that stops draining its queue loses notifications rather
    /// than growing client memory without bound; its view is restored by
    /// the next refresh cycle or reconnect resync.
    pub display_queue_drops: Counter,
    /// Depth of the per-display event queues, sampled at enqueue time.
    /// The high-water side is the memory-bound evidence.
    pub display_queue_depth: Gauge,
}

/// Per-object projection bookkeeping (§ 4.2.1 extended with attribute
/// projections): which displays narrowed their interest, and what the
/// DLM currently has registered for this object.
#[derive(Default)]
struct OidProjection {
    /// display -> the union of its display objects' projected attrs.
    /// Displays watching the whole object appear in `deps` only.
    by_display: HashMap<DisplayId, BTreeSet<u16>>,
    /// The union + version currently registered with the DLM; `None`
    /// while the object is registered with full interest (some display
    /// wants every attribute, or interest was widened).
    registered: Option<(Vec<u16>, u32)>,
}

struct DlcState {
    /// object -> displays that depend on it.
    deps: HashMap<Oid, HashSet<DisplayId>>,
    /// object -> projection bookkeeping (only for objects at least one
    /// display watches through a projection).
    proj: HashMap<Oid, OidProjection>,
    /// display -> its event queue.
    subscribers: HashMap<DisplayId, crossbeam::channel::Sender<DlcEvent>>,
    /// This client's position in every DLM shard's update log (DESIGN.md
    /// §§ 13, 16): index = shard, one entry per incarnation the last
    /// handshake announced ([`Dlc::adopt_log_incarnations`]), each
    /// holding the last seqno the DLM acknowledged as fully delivered.
    /// Sent as is in replay requests and resume tokens, so reconnects
    /// can recover with a shard-parallel replay instead of a full
    /// resync.
    cursors: Vec<ShardCursor>,
}

/// Applies an attribute-level delta to the client's object cache;
/// returns `false` when the object is not cached (or not patchable), in
/// which case the DLC falls back to a forced re-read.
type DeltaHook = Box<dyn Fn(Oid, &[(u16, Vec<u8>)]) -> bool + Send + Sync>;

/// Capacity of each display's event queue. Displays drain on every UI
/// tick, and at the paper's 200 updates/s storm rate this is five
/// seconds of slack — beyond that, dropping events (the next refresh
/// cycle or reconnect restores the view) beats unbounded growth.
const DISPLAY_QUEUE_CAPACITY: usize = 1024;

/// The per-client display lock client.
pub struct Dlc {
    backend: Arc<dyn DlmBackend>,
    state: OrderedMutex<DlcState>,
    stats: DlcStats,
    /// Capacity of each display's event queue (bounded so a display that
    /// stops polling cannot grow client memory without limit).
    queue_capacity: usize,
    /// Monotonic projection-registry version; bumped whenever a
    /// registration changes so stale in-flight deltas are detectable.
    version_gen: std::sync::atomic::AtomicU32,
    /// Set once, when the client opens.
    delta_hook: std::sync::OnceLock<DeltaHook>,
}

impl Dlc {
    /// Create a DLC over a backend, with the default display-queue
    /// capacity.
    pub fn new(backend: Arc<dyn DlmBackend>) -> Self {
        Self::with_queue_capacity(backend, DISPLAY_QUEUE_CAPACITY)
    }

    /// Create a DLC with an explicit per-display queue capacity.
    fn with_queue_capacity(backend: Arc<dyn DlmBackend>, queue_capacity: usize) -> Self {
        Self {
            backend,
            state: OrderedMutex::new(
                ranks::DLC_STATE,
                DlcState {
                    deps: HashMap::new(),
                    proj: HashMap::new(),
                    subscribers: HashMap::new(),
                    cursors: Vec::new(),
                },
            ),
            stats: DlcStats::default(),
            queue_capacity: queue_capacity.max(1),
            version_gen: std::sync::atomic::AtomicU32::new(0),
            delta_hook: std::sync::OnceLock::new(),
        }
    }

    /// Adopt the per-shard log incarnations a handshake announced
    /// (index = shard): the cursor vector takes their length — acks for
    /// any other shard are refused — and a shard whose incarnation
    /// changed restarts at cursor 0, its old seqno space being gone.
    pub fn adopt_log_incarnations(&self, log_incarnations: &[u64]) {
        let mut state = self.state.lock();
        state.cursors = log_incarnations
            .iter()
            .enumerate()
            .map(|(s, &log_incarnation)| match state.cursors.get(s) {
                Some(sc) if sc.log_incarnation == log_incarnation => *sc,
                _ => ShardCursor {
                    shard: s as u32,
                    cursor: 0,
                    log_incarnation,
                },
            })
            .collect();
    }

    /// The last acknowledged seqno in `shard`'s log (0 = never acked:
    /// a replay from it streams the whole retained log).
    pub fn cursor_of(&self, shard: u32) -> u64 {
        self.state
            .lock()
            .cursors
            .get(shard as usize)
            .map_or(0, |sc| sc.cursor)
    }

    /// The cursor vector, in shard order — what a replay request or a
    /// resume token carries (DESIGN.md § 16).
    pub fn cursors(&self) -> Vec<ShardCursor> {
        self.state.lock().cursors.clone()
    }

    /// Forget every shard's cursor after a full resync: the next
    /// acknowledgement per shard is adopted unconditionally, which is
    /// how the client crosses into a restarted DLM's fresh seqno
    /// spaces.
    pub fn reset_cursor(&self) {
        for sc in self.state.lock().cursors.iter_mut() {
            sc.cursor = 0;
        }
    }

    /// Record one cursor acknowledgement, monotone per shard.
    fn record_ack(&self, shard: u32, seqno: u64) {
        self.stats.cursor_acks_in.inc();
        match self.state.lock().cursors.get_mut(shard as usize) {
            Some(sc) if seqno >= sc.cursor => sc.cursor = seqno,
            // A regressed ack (restarted DLM, fresh seqno space) or a
            // shard index the handshake never announced — the index is
            // wire input and must not size anything: count it, keep the
            // vector as is, and let the truncation fallback on the next
            // replay resolve a real mismatch. Never panic on the reader.
            _ => self.stats.cursor_gaps.inc(),
        }
    }

    /// Install the hook that patches the client's object cache from an
    /// attribute-level delta. A `false` return from the hook makes the
    /// DLC fall back to a forced re-read of the object. Panics if a hook
    /// is installed already: a second one would never run.
    pub fn set_delta_hook(
        &self,
        hook: impl Fn(Oid, &[(u16, Vec<u8>)]) -> bool + Send + Sync + 'static,
    ) {
        let installed = self.delta_hook.set(Box::new(hook)).is_ok();
        assert!(installed, "the DLC's delta hook is installed twice");
    }

    /// DLC statistics.
    pub fn stats(&self) -> &DlcStats {
        &self.stats
    }

    /// The backend (for a client's own reports in the agent deployment,
    /// see `DbClient::reports_to_dlm`).
    pub fn backend(&self) -> &Arc<dyn DlmBackend> {
        &self.backend
    }

    /// Register a display; notifications for its objects arrive on the
    /// returned receiver. The queue is bounded (`queue_capacity` events,
    /// 1024 by default): a display that stops draining loses events past
    /// the bound instead of growing memory, and recovers via the next
    /// refresh or resync.
    pub fn register_display(&self, display: DisplayId) -> crossbeam::channel::Receiver<DlcEvent> {
        let (tx, rx) = crossbeam::channel::bounded(self.queue_capacity);
        self.state.lock().subscribers.insert(display, tx);
        rx
    }

    /// Non-blocking enqueue onto one display's bounded queue. Full means
    /// the display is not draining; dropping there isolates the slow
    /// display instead of stalling the dispatch thread (which is the
    /// connection reader in the integrated deployment).
    fn offer(&self, tx: &crossbeam::channel::Sender<DlcEvent>, event: DlcEvent) -> bool {
        match tx.try_send(event) {
            Ok(()) => {
                self.stats.display_queue_depth.set(tx.len() as u64);
                true
            }
            Err(crossbeam::channel::TrySendError::Full(_)) => {
                self.stats.display_queue_drops.inc();
                false
            }
            Err(crossbeam::channel::TrySendError::Disconnected(_)) => false,
        }
    }

    /// Acquire display locks for `display` on `oids`. Only objects not
    /// already locked by *any* display of this client generate DLM
    /// traffic.
    pub fn acquire(&self, display: DisplayId, oids: &[Oid]) -> DbResult<()> {
        self.stats.local_lock_requests.add(oids.len() as u64);
        let new: Vec<Oid> = {
            let mut state = self.state.lock();
            oids.iter()
                .copied()
                .filter(|&oid| {
                    let deps = state.deps.entry(oid).or_default();
                    let was_empty = deps.is_empty();
                    deps.insert(display);
                    // A full-interest display widens the DLM registration for good.
                    let widened = state.proj.get_mut(&oid).is_some_and(|p| {
                        p.by_display.remove(&display);
                        p.registered.take().is_some()
                    });
                    was_empty || widened
                })
                .collect()
        };
        if !new.is_empty() {
            self.stats.dlm_lock_messages.add(new.len() as u64);
            self.backend.send(DlmRequest::Lock { oids: new })?;
        }
        Ok(())
    }

    /// Acquire display locks for `display` on `oids`, registering that
    /// the display renders the attribute layout indices in `attrs` — added
    /// to what it registered before, since each of its display objects
    /// reads its own set. When every local display watching an object is
    /// projected, the DLM registration carries the union of their
    /// projections and updates arrive as attribute-level deltas; otherwise
    /// (a display that watches the whole object stays whole) the existing
    /// full-interest registration stands.
    pub fn acquire_projected(
        &self,
        display: DisplayId,
        oids: &[Oid],
        attrs: &[u16],
    ) -> DbResult<()> {
        self.stats.local_lock_requests.add(oids.len() as u64);
        let version = self
            .version_gen
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            + 1;
        // Per object: record the display's projection, then work out
        // whether the DLM registration must change — grouped by union so
        // objects sharing one end up in one wire message.
        let mut groups: HashMap<Vec<u16>, Vec<Oid>> = HashMap::new();
        {
            let mut state = self.state.lock();
            for &oid in oids {
                let deps = state.deps.entry(oid).or_default();
                let joined = deps.insert(display);
                let watchers: Vec<DisplayId> = deps.iter().copied().collect();
                let proj = state.proj.entry(oid).or_default();
                if !joined && !proj.by_display.contains_key(&display) {
                    continue; // this display watches the whole object
                }
                proj.by_display.entry(display).or_default().extend(attrs);
                let all_projected = watchers.iter().all(|d| proj.by_display.contains_key(d));
                if !all_projected {
                    // Some display wants the whole object; the existing
                    // full-interest registration already covers this one.
                    continue;
                }
                let mut union: Vec<u16> = proj.by_display.values().flatten().copied().collect();
                union.sort_unstable();
                union.dedup();
                if proj.registered.as_ref().is_some_and(|(u, _)| *u == union) {
                    continue; // same union already registered
                }
                proj.registered = Some((union.clone(), version));
                groups.entry(union).or_default().push(oid);
            }
        }
        if !groups.is_empty() {
            let n: usize = groups.values().map(Vec::len).sum();
            self.stats.dlm_lock_messages.add(n as u64);
            for (attrs, oids) in groups {
                self.backend.send(DlmRequest::LockProjected {
                    oids,
                    attrs,
                    version,
                })?;
            }
        }
        Ok(())
    }

    /// Release `display`'s interest in `oids`; objects no local display
    /// needs anymore are released at the DLM.
    pub fn release(&self, display: DisplayId, oids: &[Oid]) -> DbResult<()> {
        let gone: Vec<Oid> = {
            let mut state = self.state.lock();
            oids.iter()
                .copied()
                .filter(|oid| {
                    if let Some(deps) = state.deps.get_mut(oid) {
                        deps.remove(&display);
                        if deps.is_empty() {
                            state.deps.remove(oid);
                            state.proj.remove(oid);
                            return true;
                        }
                        // Other displays remain: drop this display's
                        // projection but leave the DLM registration as
                        // is — a wider interest only costs extra
                        // notifications, never correctness.
                        if let Some(p) = state.proj.get_mut(oid) {
                            p.by_display.remove(&display);
                        }
                    }
                    false
                })
                .collect()
        };
        if !gone.is_empty() {
            self.stats.dlm_release_messages.add(gone.len() as u64);
            self.backend.send(DlmRequest::Release { oids: gone })?;
        }
        Ok(())
    }

    /// Unregister a display entirely, releasing everything it watched.
    pub fn release_display(&self, display: DisplayId) -> DbResult<()> {
        let watched: Vec<Oid> = {
            let state = self.state.lock();
            state
                .deps
                .iter()
                .filter(|(_, deps)| deps.contains(&display))
                .map(|(&oid, _)| oid)
                .collect()
        };
        self.release(display, &watched)?;
        self.state.lock().subscribers.remove(&display);
        Ok(())
    }

    /// Objects currently display-locked by this client (after dedup).
    pub fn locked_objects(&self) -> usize {
        self.state.lock().deps.len()
    }

    /// Dispatch an incoming DLM event to every dependent display.
    pub fn dispatch(&self, event: DlmEvent) {
        // Batches exist only on the wire (the server's outbox coalesces a
        // drain into one frame); unwrap before counting so stats reflect
        // logical notifications.
        if let DlmEvent::Batch(events) = event {
            for e in events {
                self.dispatch(e);
            }
            return;
        }
        // Cursor-protocol control events are connection plumbing, not
        // notifications: handle them before the notification counters.
        match &event {
            DlmEvent::CursorAck { shard, seqno } => {
                self.record_ack(*shard, *seqno);
                return;
            }
            DlmEvent::ReplayNeeded { shard, .. } => {
                // That shard's outbox swept our backlog into its update
                // log; only that shard replays — the other shards'
                // streams flow on undisturbed. A marker for a shard the
                // handshake never announced is dropped like an ack for
                // one.
                let Some(cursor) = self.state.lock().cursors.get(*shard as usize).copied() else {
                    self.stats.cursor_gaps.inc();
                    return;
                };
                // Answer with ReplayFrom, sent without waiting on either
                // link. On error the connection is dying; supervisor-driven
                // reconnect recovery (replay or resync) takes over.
                self.stats.replays_requested.inc();
                let _ = self.backend.send(DlmRequest::ReplayFrom {
                    cursors: vec![cursor],
                });
                // The sweep also took unlogged `Marked`/`Resolved`
                // events the replay cannot bring back: every display
                // sees the marker so it can drop the marks it shows.
                self.broadcast(DlcEvent::Dlm(event));
                return;
            }
            _ => {}
        }
        self.stats.notifications_in.inc();
        let oid = match &event {
            DlmEvent::Updated(u) => u.oid,
            DlmEvent::Marked { oid, .. } | DlmEvent::Resolved { oid, .. } => *oid,
            // An attribute-level delta: patch the cached object in place
            // when our projection registration (by version) and cache
            // contents allow it; otherwise degrade to a forced re-read.
            DlmEvent::Delta {
                oid,
                version,
                changed,
                ..
            } => {
                self.stats.deltas_in.inc();
                let current = self
                    .state
                    .lock()
                    .proj
                    .get(oid)
                    .and_then(|p| p.registered.as_ref().map(|(_, v)| *v));
                let applied = current == Some(*version)
                    && self
                        .delta_hook
                        .get()
                        .map_or(true, |hook| hook(*oid, changed));
                if !applied {
                    self.stats.delta_fallbacks.inc();
                    let oid = *oid;
                    self.resync(&[oid]);
                    return;
                }
                *oid
            }
            DlmEvent::Batch(_) | DlmEvent::CursorAck { .. } | DlmEvent::ReplayNeeded { .. } => {
                unreachable!("handled above")
            }
            // Ready is a connection-level handshake ack, not an object
            // notification; it never reaches the dispatch path.
            DlmEvent::Ready { .. } => return,
            // Our cursor fell off the shard's update log, so the missed
            // notifications cannot be replayed: answer by forcing
            // re-reads of the watched subset (the same machinery a
            // reconnect uses), which converges the view without them.
            DlmEvent::ResyncRequired { oids } => {
                self.stats.resyncs_in.inc();
                // A full resync re-baselines the view, so the cursor is
                // meaningless (and possibly from a previous DLM
                // incarnation's seqno space): forget it and adopt the
                // next ack unconditionally.
                self.reset_cursor();
                self.resync(oids);
                return;
            }
        };
        // The update is now applied at this client (delta patched, or
        // invalidation about to fan out to its displays).
        event.record_stage(displaydb_common::trace::Stage::DlcApply);
        let targets: Vec<crossbeam::channel::Sender<DlcEvent>> = {
            let state = self.state.lock();
            state
                .deps
                .get(&oid)
                .map(|displays| {
                    displays
                        .iter()
                        .filter_map(|d| state.subscribers.get(d).cloned())
                        .collect()
                })
                .unwrap_or_default()
        };
        for tx in targets {
            if self.offer(&tx, DlcEvent::Dlm(event.clone())) {
                self.stats.notifications_dispatched.inc();
            }
        }
    }

    /// Send an event that concerns the whole connection to *every*
    /// registered display, regardless of watched objects.
    pub fn broadcast(&self, event: DlcEvent) {
        let targets: Vec<crossbeam::channel::Sender<DlcEvent>> =
            self.state.lock().subscribers.values().cloned().collect();
        for tx in targets {
            let _ = self.offer(&tx, event.clone());
        }
    }

    /// Every object some display of this client currently watches.
    pub fn watched_objects(&self) -> Vec<Oid> {
        self.state.lock().deps.keys().copied().collect()
    }

    /// Re-register every live display-lock registration with the DLM —
    /// the recovery step after a reconnect, when the server (or agent)
    /// has lost this client's lock table. Returns how many objects were
    /// re-locked.
    pub fn relock_all(&self) -> DbResult<usize> {
        // Projected registrations are replayed as such, grouped by union
        // only: the channel behind the backend was just replaced, so no
        // delta tagged with an old projection version can still be in
        // flight, and every union can be re-registered under one fresh
        // version. That collapses the relock into one wire message per
        // distinct union instead of one per original `acquire_projected`
        // call — the difference between O(unions) and O(objects) frames
        // when a whole fleet reconnects at once. Everything else
        // re-locks with full interest.
        let (plain, groups) = {
            let mut state = self.state.lock();
            let mut plain: Vec<Oid> = Vec::new();
            let mut by_union: HashMap<Vec<u16>, Vec<Oid>> = HashMap::new();
            for (&oid, _) in state.deps.iter() {
                match state.proj.get(&oid).and_then(|p| p.registered.as_ref()) {
                    Some((union, _)) => by_union.entry(union.clone()).or_default().push(oid),
                    None => plain.push(oid),
                }
            }
            let mut groups: Vec<(Vec<u16>, u32, Vec<Oid>)> = Vec::with_capacity(by_union.len());
            for (union, oids) in by_union {
                let version = self
                    .version_gen
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                    + 1;
                for &oid in &oids {
                    if let Some(proj) = state.proj.get_mut(&oid) {
                        proj.registered = Some((union.clone(), version));
                    }
                }
                groups.push((union, version, oids));
            }
            (plain, groups)
        };
        let n = plain.len() + groups.iter().map(|(_, _, oids)| oids.len()).sum::<usize>();
        if n == 0 {
            return Ok(0);
        }
        self.stats.dlm_lock_messages.add(n as u64);
        if !plain.is_empty() {
            self.backend.send(DlmRequest::Lock { oids: plain })?;
        }
        for (attrs, version, oids) in groups {
            self.backend.send(DlmRequest::LockProjected {
                oids,
                attrs,
                version,
            })?;
        }
        Ok(n)
    }

    /// After a reconnect, force dependent displays to refresh `oids`
    /// (those the server reported stale, or everything watched when the
    /// outage left us with no version information). Only watched objects
    /// generate events; returns how many did.
    pub fn resync(&self, oids: &[Oid]) -> usize {
        let watched: std::collections::HashSet<Oid> = {
            let state = self.state.lock();
            oids.iter()
                .copied()
                .filter(|oid| state.deps.contains_key(oid))
                .collect()
        };
        for &oid in &watched {
            self.dispatch(DlmEvent::Updated(UpdateInfo::lazy(oid)));
        }
        watched.len()
    }
}

impl std::fmt::Debug for Dlc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dlc")
            .field("locked_objects", &self.locked_objects())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use displaydb_common::DbError;
    use parking_lot::Mutex;

    /// (oids, projected attrs, projection version) per `LockProjected`.
    type ProjectedCall = (Vec<Oid>, Vec<u16>, u32);

    /// Records every request the DLC sends, in order.
    #[derive(Default)]
    struct MockBackend {
        sent: Mutex<Vec<DlmRequest>>,
    }

    impl DlmBackend for MockBackend {
        fn send(&self, request: DlmRequest) -> DbResult<()> {
            self.sent.lock().push(request);
            Ok(())
        }
    }

    impl MockBackend {
        fn pick<T>(&self, f: impl Fn(&DlmRequest) -> Option<T>) -> Vec<T> {
            self.sent.lock().iter().filter_map(f).collect()
        }

        /// The OIDs of every plain `Lock` sent, flattened.
        fn locks(&self) -> Vec<Oid> {
            let per_request = self.pick(|r| match r {
                DlmRequest::Lock { oids } => Some(oids.clone()),
                _ => None,
            });
            per_request.concat()
        }

        /// The OIDs of every `Release` sent, flattened.
        fn releases(&self) -> Vec<Oid> {
            let per_request = self.pick(|r| match r {
                DlmRequest::Release { oids } => Some(oids.clone()),
                _ => None,
            });
            per_request.concat()
        }

        fn projected(&self) -> Vec<ProjectedCall> {
            self.pick(|r| match r {
                DlmRequest::LockProjected {
                    oids,
                    attrs,
                    version,
                } => Some((oids.clone(), attrs.clone(), *version)),
                _ => None,
            })
        }

        /// The cursor vector of each `ReplayFrom` sent.
        fn replays(&self) -> Vec<Vec<ShardCursor>> {
            self.pick(|r| match r {
                DlmRequest::ReplayFrom { cursors } => Some(cursors.clone()),
                _ => None,
            })
        }
    }

    fn o(i: u64) -> Oid {
        Oid::new(i)
    }

    fn d(i: u64) -> DisplayId {
        DisplayId::new(i)
    }

    #[test]
    fn dedup_one_lock_per_object() {
        let backend = Arc::new(MockBackend::default());
        let dlc = Dlc::new(Arc::clone(&backend) as Arc<dyn DlmBackend>);
        let _r1 = dlc.register_display(d(1));
        let _r2 = dlc.register_display(d(2));
        dlc.acquire(d(1), &[o(1), o(2)]).unwrap();
        dlc.acquire(d(2), &[o(1), o(3)]).unwrap(); // o(1) already locked
        assert_eq!(backend.locks().len(), 3, "o(1) must not lock twice");
        assert_eq!(dlc.stats().local_lock_requests.get(), 4);
        assert_eq!(dlc.stats().dlm_lock_messages.get(), 3);
    }

    #[test]
    fn release_only_on_last_display() {
        let backend = Arc::new(MockBackend::default());
        let dlc = Dlc::new(Arc::clone(&backend) as Arc<dyn DlmBackend>);
        let _r1 = dlc.register_display(d(1));
        let _r2 = dlc.register_display(d(2));
        dlc.acquire(d(1), &[o(1)]).unwrap();
        dlc.acquire(d(2), &[o(1)]).unwrap();
        dlc.release(d(1), &[o(1)]).unwrap();
        assert!(backend.releases().is_empty(), "d(2) still watches");
        dlc.release(d(2), &[o(1)]).unwrap();
        assert_eq!(backend.releases(), vec![o(1)]);
        assert_eq!(dlc.locked_objects(), 0);
    }

    #[test]
    fn dispatch_fans_out_to_dependent_displays_only() {
        let backend: Arc<dyn DlmBackend> = Arc::new(MockBackend::default());
        let dlc = Dlc::new(backend);
        let r1 = dlc.register_display(d(1));
        let r2 = dlc.register_display(d(2));
        let r3 = dlc.register_display(d(3));
        dlc.acquire(d(1), &[o(5)]).unwrap();
        dlc.acquire(d(2), &[o(5)]).unwrap();
        dlc.acquire(d(3), &[o(6)]).unwrap();

        dlc.dispatch(DlmEvent::Updated(UpdateInfo::lazy(o(5))));
        assert!(r1.try_recv().is_ok());
        assert!(r2.try_recv().is_ok());
        assert!(r3.try_recv().is_err());
        assert_eq!(dlc.stats().notifications_in.get(), 1);
        assert_eq!(dlc.stats().notifications_dispatched.get(), 2);
    }

    #[test]
    fn release_display_cleans_everything() {
        let backend = Arc::new(MockBackend::default());
        let dlc = Dlc::new(Arc::clone(&backend) as Arc<dyn DlmBackend>);
        let r1 = dlc.register_display(d(1));
        dlc.acquire(d(1), &[o(1), o(2), o(3)]).unwrap();
        dlc.release_display(d(1)).unwrap();
        assert_eq!(dlc.locked_objects(), 0);
        assert_eq!(backend.releases().len(), 3);
        dlc.dispatch(DlmEvent::Updated(UpdateInfo::lazy(o(1))));
        assert!(r1.try_recv().is_err());
    }

    #[test]
    fn reacquire_after_release_sends_again() {
        let backend = Arc::new(MockBackend::default());
        let dlc = Dlc::new(Arc::clone(&backend) as Arc<dyn DlmBackend>);
        let _r1 = dlc.register_display(d(1));
        dlc.acquire(d(1), &[o(1)]).unwrap();
        dlc.release(d(1), &[o(1)]).unwrap();
        dlc.acquire(d(1), &[o(1)]).unwrap();
        assert_eq!(backend.locks().len(), 2);
    }

    #[test]
    fn relock_resync_and_broadcast_after_reconnect() {
        let backend = Arc::new(MockBackend::default());
        let dlc = Dlc::new(Arc::clone(&backend) as Arc<dyn DlmBackend>);
        let r1 = dlc.register_display(d(1));
        dlc.acquire(d(1), &[o(1), o(2)]).unwrap();
        assert_eq!(dlc.relock_all().unwrap(), 2, "replays all registrations");
        assert_eq!(backend.locks().len(), 4);

        // Resync only touches watched objects.
        assert_eq!(dlc.resync(&[o(1), o(9)]), 1);
        match r1.try_recv().unwrap() {
            DlcEvent::Dlm(DlmEvent::Updated(u)) => assert_eq!(u.oid, o(1)),
            other => panic!("unexpected {other:?}"),
        }

        dlc.broadcast(DlcEvent::Degraded);
        assert!(matches!(r1.try_recv().unwrap(), DlcEvent::Degraded));
        dlc.broadcast(DlcEvent::Restored);
        assert!(matches!(r1.try_recv().unwrap(), DlcEvent::Restored));
    }

    #[test]
    fn resync_required_forces_rereads_of_watched_objects_only() {
        let backend: Arc<dyn DlmBackend> = Arc::new(MockBackend::default());
        let dlc = Dlc::new(backend);
        let r1 = dlc.register_display(d(1));
        dlc.acquire(d(1), &[o(1), o(2)]).unwrap();

        // A sweep covering one watched and one unwatched object yields
        // exactly one forced re-read.
        dlc.dispatch(DlmEvent::ResyncRequired {
            oids: vec![o(2), o(9)],
        });
        match r1.try_recv().unwrap() {
            DlcEvent::Dlm(DlmEvent::Updated(u)) => {
                assert_eq!(u.oid, o(2));
                assert!(u.payload.is_none(), "resync re-reads, never ships state");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(r1.try_recv().is_err());
        assert_eq!(dlc.stats().resyncs_in.get(), 1);
    }

    #[test]
    fn a_display_queue_holds_a_full_outbox() {
        let high_water = displaydb_common::OverloadConfig::default().outbox_high_water;
        assert!(DISPLAY_QUEUE_CAPACITY >= high_water);
    }

    #[test]
    fn full_display_queue_drops_instead_of_blocking() {
        let backend: Arc<dyn DlmBackend> = Arc::new(MockBackend::default());
        let dlc = Dlc::with_queue_capacity(backend, 2);
        let r1 = dlc.register_display(d(1));
        dlc.acquire(d(1), &[o(1)]).unwrap();

        // Three sends into a capacity-2 queue: the third must drop, not
        // stall the dispatching thread.
        for _ in 0..3 {
            dlc.dispatch(DlmEvent::Updated(UpdateInfo::lazy(o(1))));
        }
        assert_eq!(dlc.stats().notifications_dispatched.get(), 2);
        assert_eq!(dlc.stats().display_queue_drops.get(), 1);
        assert_eq!(dlc.stats().display_queue_depth.high_water(), 2);
        assert!(r1.try_recv().is_ok());
        assert!(r1.try_recv().is_ok());
        assert!(r1.try_recv().is_err());
    }

    fn delta(oid: Oid, version: u32) -> DlmEvent {
        DlmEvent::Delta {
            oid,
            version,
            changed: vec![(0, vec![1])],
            trace: 0,
        }
    }

    fn registered_version(backend: &MockBackend, oid: Oid) -> u32 {
        backend
            .projected()
            .iter()
            .rev()
            .find(|(oids, _, _)| oids.contains(&oid))
            .map(|(_, _, v)| *v)
            .expect("no projected registration")
    }

    #[test]
    fn projected_acquire_registers_union() {
        let backend = Arc::new(MockBackend::default());
        let dlc = Dlc::new(Arc::clone(&backend) as Arc<dyn DlmBackend>);
        let _r1 = dlc.register_display(d(1));
        let _r2 = dlc.register_display(d(2));
        dlc.acquire_projected(d(1), &[o(1)], &[2, 0]).unwrap();
        dlc.acquire_projected(d(2), &[o(1)], &[3]).unwrap();
        let calls = backend.projected();
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[0].1, vec![0, 2], "attrs sorted");
        assert_eq!(
            calls[1].1,
            vec![0, 2, 3],
            "second registration is the union"
        );
        assert!(calls[1].2 > calls[0].2, "version advances");
        assert!(backend.locks().is_empty(), "no plain lock sent");
    }

    #[test]
    fn same_union_is_not_reregistered() {
        let backend = Arc::new(MockBackend::default());
        let dlc = Dlc::new(Arc::clone(&backend) as Arc<dyn DlmBackend>);
        let _r1 = dlc.register_display(d(1));
        let _r2 = dlc.register_display(d(2));
        dlc.acquire_projected(d(1), &[o(1)], &[0, 1]).unwrap();
        dlc.acquire_projected(d(2), &[o(1)], &[1]).unwrap(); // subset: union unchanged
        assert_eq!(backend.projected().len(), 1);
    }

    #[test]
    fn a_display_registers_the_union_of_its_projections() {
        // Two display objects of one display over one source, reading
        // different attributes: the second must not drop the first's.
        let backend = Arc::new(MockBackend::default());
        let dlc = Dlc::new(Arc::clone(&backend) as Arc<dyn DlmBackend>);
        let _r1 = dlc.register_display(d(1));
        dlc.acquire_projected(d(1), &[o(1)], &[1]).unwrap();
        dlc.acquire_projected(d(1), &[o(1)], &[2]).unwrap();
        let calls = backend.projected();
        assert_eq!(calls.last().unwrap().1, vec![1, 2]);
        // The same union again sends nothing.
        dlc.acquire_projected(d(1), &[o(1)], &[2, 1]).unwrap();
        assert_eq!(backend.projected().len(), calls.len());
    }

    #[test]
    fn a_whole_object_display_stays_whole() {
        let backend = Arc::new(MockBackend::default());
        let dlc = Dlc::new(Arc::clone(&backend) as Arc<dyn DlmBackend>);
        let _r1 = dlc.register_display(d(1));
        let _r2 = dlc.register_display(d(2));
        // Whole first, then a projected display object of the same
        // display, then another display's: the registration stays whole.
        dlc.acquire(d(1), &[o(1)]).unwrap();
        dlc.acquire_projected(d(1), &[o(1)], &[1]).unwrap();
        dlc.acquire_projected(d(2), &[o(1)], &[1]).unwrap();
        // Projected first, then whole, then projected again.
        dlc.acquire_projected(d(1), &[o(2)], &[1]).unwrap();
        dlc.acquire(d(1), &[o(2)]).unwrap();
        dlc.acquire_projected(d(1), &[o(2)], &[2]).unwrap();
        assert_eq!(backend.locks(), vec![o(1), o(2)]);
        let projected: Vec<Vec<Oid>> = backend.projected().into_iter().map(|c| c.0).collect();
        assert_eq!(
            projected,
            vec![vec![o(2)]],
            "only o(2)'s first lock narrows"
        );
    }

    #[test]
    fn full_interest_display_widens_projection() {
        let backend = Arc::new(MockBackend::default());
        let dlc = Dlc::new(Arc::clone(&backend) as Arc<dyn DlmBackend>);
        let _r1 = dlc.register_display(d(1));
        let _r2 = dlc.register_display(d(2));
        dlc.acquire_projected(d(1), &[o(1)], &[0]).unwrap();
        // A plain acquire by a second display must widen the DLM
        // registration even though the lock is not a 0→1 transition.
        dlc.acquire(d(2), &[o(1)]).unwrap();
        assert_eq!(backend.locks(), vec![o(1)]);
        // Stale deltas against the retired registration now fall back.
        let r1 = dlc.register_display(d(1));
        let version = registered_version(&backend, o(1));
        dlc.dispatch(delta(o(1), version));
        assert_eq!(dlc.stats().delta_fallbacks.get(), 1);
        match r1.try_recv().unwrap() {
            DlcEvent::Dlm(DlmEvent::Updated(u)) => assert_eq!(u.oid, o(1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn delta_with_current_version_dispatches_and_patches() {
        let backend = Arc::new(MockBackend::default());
        let dlc = Dlc::new(Arc::clone(&backend) as Arc<dyn DlmBackend>);
        let r1 = dlc.register_display(d(1));
        let patched = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&patched);
        dlc.set_delta_hook(move |oid, changed| {
            sink.lock().push((oid, changed.to_vec()));
            true
        });
        dlc.acquire_projected(d(1), &[o(1)], &[0]).unwrap();
        let version = registered_version(&backend, o(1));
        dlc.dispatch(delta(o(1), version));
        assert!(matches!(
            r1.try_recv().unwrap(),
            DlcEvent::Dlm(DlmEvent::Delta { .. })
        ));
        assert_eq!(patched.lock().len(), 1);
        assert_eq!(dlc.stats().deltas_in.get(), 1);
        assert_eq!(dlc.stats().delta_fallbacks.get(), 0);
    }

    #[test]
    fn stale_delta_version_falls_back_to_resync() {
        let backend = Arc::new(MockBackend::default());
        let dlc = Dlc::new(Arc::clone(&backend) as Arc<dyn DlmBackend>);
        let r1 = dlc.register_display(d(1));
        dlc.acquire_projected(d(1), &[o(1)], &[0]).unwrap();
        let version = registered_version(&backend, o(1));
        dlc.dispatch(delta(o(1), version + 1));
        assert_eq!(dlc.stats().delta_fallbacks.get(), 1);
        match r1.try_recv().unwrap() {
            DlcEvent::Dlm(DlmEvent::Updated(u)) => {
                assert_eq!(u.oid, o(1));
                assert!(u.payload.is_none(), "fallback forces a re-read");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn uncached_object_delta_falls_back_to_resync() {
        let backend = Arc::new(MockBackend::default());
        let dlc = Dlc::new(Arc::clone(&backend) as Arc<dyn DlmBackend>);
        let r1 = dlc.register_display(d(1));
        dlc.set_delta_hook(|_, _| false); // nothing is ever cached
        dlc.acquire_projected(d(1), &[o(1)], &[0]).unwrap();
        let version = registered_version(&backend, o(1));
        dlc.dispatch(delta(o(1), version));
        assert_eq!(dlc.stats().delta_fallbacks.get(), 1);
        assert!(matches!(
            r1.try_recv().unwrap(),
            DlcEvent::Dlm(DlmEvent::Updated(_))
        ));
    }

    #[test]
    #[should_panic(expected = "installed twice")]
    fn a_second_delta_hook_is_refused() {
        let dlc = Dlc::new(Arc::new(MockBackend::default()) as Arc<dyn DlmBackend>);
        dlc.set_delta_hook(|_, _| true);
        dlc.set_delta_hook(|_, _| true);
    }

    #[test]
    fn batch_flattens_to_individual_events() {
        let backend: Arc<dyn DlmBackend> = Arc::new(MockBackend::default());
        let dlc = Dlc::new(backend);
        let r1 = dlc.register_display(d(1));
        dlc.acquire(d(1), &[o(1), o(2)]).unwrap();
        dlc.dispatch(DlmEvent::Batch(vec![
            DlmEvent::Updated(UpdateInfo::lazy(o(1))),
            DlmEvent::Updated(UpdateInfo::lazy(o(2))),
        ]));
        assert_eq!(dlc.stats().notifications_in.get(), 2, "counted per event");
        assert_eq!(r1.try_iter().count(), 2);
    }

    #[test]
    fn relock_all_replays_projections() {
        let backend = Arc::new(MockBackend::default());
        let dlc = Dlc::new(Arc::clone(&backend) as Arc<dyn DlmBackend>);
        let _r1 = dlc.register_display(d(1));
        let _r2 = dlc.register_display(d(2));
        dlc.acquire_projected(d(1), &[o(1)], &[0, 1]).unwrap();
        dlc.acquire(d(2), &[o(2)]).unwrap();
        let version = registered_version(&backend, o(1));
        backend.sent.lock().clear();
        assert_eq!(dlc.relock_all().unwrap(), 2);
        assert_eq!(backend.locks(), vec![o(2)]);
        let calls = backend.projected();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].0, vec![o(1)]);
        assert_eq!(calls[0].1, vec![0, 1]);
        assert!(
            calls[0].2 > version,
            "fresh version: the old channel is gone, no old-version delta \
             can still be in flight, and one version per union keeps the \
             relock to one message per distinct union"
        );
    }

    #[test]
    fn relock_all_coalesces_same_union_registrations() {
        // Objects registered by *separate* acquire_projected calls (each
        // with its own version) share one relock message when their
        // unions match — the mass-reconnect case: a display adds DOs one
        // at a time, then the whole watched set relocks at once.
        let backend = Arc::new(MockBackend::default());
        let dlc = Dlc::new(Arc::clone(&backend) as Arc<dyn DlmBackend>);
        let _r = dlc.register_display(d(1));
        dlc.acquire_projected(d(1), &[o(1)], &[3]).unwrap();
        dlc.acquire_projected(d(1), &[o(2)], &[3]).unwrap();
        dlc.acquire_projected(d(1), &[o(3)], &[3]).unwrap();
        assert_eq!(backend.projected().len(), 3, "three registrations");
        backend.sent.lock().clear();
        assert_eq!(dlc.relock_all().unwrap(), 3);
        let calls = backend.projected();
        assert_eq!(calls.len(), 1, "one message for the shared union");
        let mut oids = calls[0].0.clone();
        oids.sort();
        assert_eq!(oids, vec![o(1), o(2), o(3)]);
        assert_eq!(calls[0].1, vec![3]);
        // Deltas tagged with the fresh version apply.
        let version = registered_version(&backend, o(2));
        dlc.dispatch(delta(o(2), version));
    }

    fn sc(shard: u32, cursor: u64, log_incarnation: u64) -> ShardCursor {
        ShardCursor {
            shard,
            cursor,
            log_incarnation,
        }
    }

    #[test]
    fn cursor_acks_track_independent_spaces() {
        let backend: Arc<dyn DlmBackend> = Arc::new(MockBackend::default());
        let dlc = Dlc::new(backend);
        dlc.adopt_log_incarnations(&[70, 71, 72]);
        dlc.dispatch(DlmEvent::CursorAck { shard: 0, seqno: 5 });
        dlc.dispatch(DlmEvent::CursorAck { shard: 2, seqno: 9 });
        dlc.dispatch(DlmEvent::CursorAck { shard: 0, seqno: 7 });
        assert_eq!(dlc.cursor_of(0), 7);
        assert_eq!(dlc.cursor_of(1), 0, "untouched shard stays at 0");
        assert_eq!(dlc.cursor_of(2), 9);
        assert_eq!(
            dlc.cursors(),
            vec![sc(0, 7, 70), sc(1, 0, 71), sc(2, 9, 72)]
        );
        assert_eq!(dlc.stats().cursor_acks_in.get(), 3);
        // A regressed ack in one shard gaps only that shard's space.
        dlc.dispatch(DlmEvent::CursorAck { shard: 2, seqno: 3 });
        assert_eq!(dlc.cursor_of(2), 9, "cursor stays monotone");
        assert_eq!(dlc.stats().cursor_gaps.get(), 1);
        // A full resync voids every shard's cursor.
        dlc.dispatch(DlmEvent::ResyncRequired { oids: vec![] });
        assert_eq!(
            dlc.cursors(),
            vec![sc(0, 0, 70), sc(1, 0, 71), sc(2, 0, 72)]
        );
        // A new handshake keeps the cursors whose incarnation survived
        // and restarts the rest, at the new shard count.
        dlc.dispatch(DlmEvent::CursorAck { shard: 0, seqno: 4 });
        dlc.dispatch(DlmEvent::CursorAck { shard: 1, seqno: 6 });
        dlc.adopt_log_incarnations(&[70, 99]);
        assert_eq!(dlc.cursors(), vec![sc(0, 4, 70), sc(1, 0, 99)]);
    }

    #[test]
    fn hostile_shard_index_is_counted_and_dropped() {
        // The shard index is wire input. One ack naming shard u32::MAX
        // used to size the cursor vector (32 GB); now anything past the
        // handshake's shard count is refused, and the reader lives on.
        let backend = Arc::new(MockBackend::default());
        let dlc = Dlc::new(Arc::clone(&backend) as Arc<dyn DlmBackend>);
        dlc.adopt_log_incarnations(&[70, 71]);
        dlc.dispatch(DlmEvent::CursorAck {
            shard: u32::MAX,
            seqno: 1,
        });
        dlc.dispatch(DlmEvent::CursorAck { shard: 2, seqno: 1 });
        dlc.dispatch(DlmEvent::ReplayNeeded {
            shard: u32::MAX,
            from: 1,
        });
        assert_eq!(dlc.cursors(), vec![sc(0, 0, 70), sc(1, 0, 71)]);
        assert_eq!(dlc.stats().cursor_gaps.get(), 3);
        assert_eq!(dlc.stats().replays_requested.get(), 0);
        // In-range traffic still works afterwards.
        dlc.dispatch(DlmEvent::CursorAck { shard: 1, seqno: 8 });
        assert_eq!(dlc.cursor_of(1), 8);
        assert!(backend.replays().is_empty());
    }

    #[test]
    fn replay_needed_replays_that_shard_only_and_reaches_every_display() {
        let backend = Arc::new(MockBackend::default());
        let dlc = Dlc::new(Arc::clone(&backend) as Arc<dyn DlmBackend>);
        dlc.adopt_log_incarnations(&[70, 71, 72, 73]);
        let r1 = dlc.register_display(d(1));
        let r2 = dlc.register_display(d(2));
        dlc.acquire(d(1), &[o(1)]).unwrap(); // d(2) watches nothing
        dlc.dispatch(DlmEvent::CursorAck {
            shard: 3,
            seqno: 11,
        });
        dlc.dispatch(DlmEvent::ReplayNeeded { shard: 3, from: 8 });
        assert_eq!(backend.replays(), vec![vec![sc(3, 11, 73)]]);
        assert_eq!(dlc.stats().replays_requested.get(), 1);
        // Every display hears the marker (its marks are void), watched
        // objects or not.
        for rx in [r1, r2] {
            assert!(matches!(
                rx.try_recv().unwrap(),
                DlcEvent::Dlm(DlmEvent::ReplayNeeded { shard: 3, .. })
            ));
        }
    }

    #[test]
    fn backend_error_propagates() {
        struct FailBackend;
        impl DlmBackend for FailBackend {
            fn send(&self, _: DlmRequest) -> DbResult<()> {
                Err(DbError::Disconnected)
            }
        }
        let dlc = Dlc::new(Arc::new(FailBackend));
        let _r = dlc.register_display(d(1));
        assert!(dlc.acquire(d(1), &[o(1)]).is_err());
    }
}
