//! Per-client bounded outboxes with coalescing and overflow-to-replay
//! (DESIGN.md § 9).
//!
//! A shard's fan-out loop delivers synchronously, which is perfect for
//! tests and for in-process sinks but means one stalled consumer can
//! block delivery to every healthy one and one stalled *connection* can
//! grow an unbounded send queue. Both deployments therefore register
//! sessions through [`crate::ShardedDlm::register_session`], which wraps
//! the session's sink in one [`OutboxSink`] per shard:
//!
//! * **bounded queue** — `deliver` is a non-blocking push into a
//!   [`CoalescingQueue`] capped at the configured high-water mark; a
//!   dedicated writer thread (`dlm-outbox`) drains it and performs the
//!   actual (possibly blocking) send,
//! * **coalescing** — a newer `Updated{oid}` replaces a queued one in
//!   place (latest state wins, queue position preserved so nothing
//!   reorders), and a `Resolved` cancels its still-queued `Marked`,
//! * **overflow-to-replay** — breaching the high-water mark sweeps the
//!   queue into a single `ReplayNeeded{shard}` marker and drops every
//!   further live event until the client answers with `ReplayFrom`: the
//!   shard's update log (DESIGN.md § 13) already retains the backlog, so
//!   a stalled client costs one queued event, not a queue. A cursor the
//!   log no longer covers gets one `ResyncRequired` from
//!   `DlmCore::replay_for` instead, which is why the queue still absorbs
//!   and merges resync markers,
//! * **cursor acks on a clock** — a `CursorAck{shard}` rides a frame
//!   that drains the queue, at most once per [`ACK_INTERVAL`]; one owed
//!   sooner waits for a frame after the interval, or goes alone. A staler
//!   cursor only widens a replay, which is idempotent per OID.

use crate::core::EventSink;
use crate::proto::DlmEvent;
use displaydb_common::metrics::OverloadStats;
use displaydb_common::sync::{ranks, OrderedCondvar, OrderedMutex};
use displaydb_common::{DbResult, Oid, OverloadConfig};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What [`CoalescingQueue::push`] did with an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pushed {
    /// Appended at the tail.
    Queued,
    /// Merged into an already-queued event (same-OID `Updated` replaced
    /// in place, or OIDs folded into a pending `ResyncRequired`).
    Coalesced,
    /// A queued `Marked` and this `Resolved` cancelled each other out.
    Cancelled,
    /// The push breached the high-water mark: the whole queue was swept
    /// into one `ReplayNeeded` marker.
    Overflowed,
}

/// A queued event tagged with the update-log seqno it carries (0 when
/// the event did not come off the commit path, e.g. control events).
#[derive(Debug)]
struct Entry {
    event: DlmEvent,
    seqno: u64,
}

/// A bounded notification queue with latest-state-wins coalescing.
///
/// Pure data structure (no threads, no I/O) so its invariants are
/// directly proptestable; [`OutboxSink`] owns one behind a mutex.
/// Operations are linear scans over at most `high_water` entries, which
/// is deliberate: the bound is small (default 64) and a scan of a short
/// `VecDeque` beats maintaining index maps at these sizes.
///
/// Entries carry their log seqno so that replayed (older) events
/// interleaving with live commits can never clobber newer queued state:
/// on a coalesce, the higher-seqno payload wins.
#[derive(Debug)]
pub struct CoalescingQueue {
    queue: VecDeque<Entry>,
    high_water: usize,
    /// The DLM shard this queue drains, named by the sweep marker.
    shard: u32,
}

impl CoalescingQueue {
    /// An empty queue (draining shard 0) that sweeps to a `ReplayNeeded`
    /// marker past `high_water` entries.
    pub fn new(high_water: usize) -> Self {
        Self::for_shard(high_water, 0)
    }

    pub(crate) fn for_shard(high_water: usize, shard: u32) -> Self {
        Self {
            queue: VecDeque::new(),
            high_water: high_water.max(2),
            shard,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Remove and return the oldest event.
    pub fn pop(&mut self) -> Option<DlmEvent> {
        self.queue.pop_front().map(|e| e.event)
    }

    /// Push one event, coalescing against the queued ones.
    pub fn push(&mut self, event: DlmEvent) -> Pushed {
        self.push_seq(event, 0)
    }

    /// Push one seqno-stamped event, coalescing against the queued ones.
    pub fn push_seq(&mut self, event: DlmEvent, seqno: u64) -> Pushed {
        let outcome = self.coalesce_or_queue(event, seqno);
        if self.queue.len() > self.high_water {
            self.sweep_to_marker();
            return Pushed::Overflowed;
        }
        outcome
    }

    /// Push without the overflow check. Used for replay catch-up, whose
    /// burst legitimately exceeds the live high-water mark but is still
    /// bounded by the watched set via coalescing.
    pub fn push_unbounded(&mut self, event: DlmEvent, seqno: u64) -> Pushed {
        self.coalesce_or_queue(event, seqno)
    }

    fn coalesce_or_queue(&mut self, event: DlmEvent, seqno: u64) -> Pushed {
        match &event {
            DlmEvent::Updated(info) => {
                // Latest state wins: replace a queued Updated for the
                // same OID *in place* so relative order is preserved.
                // "Latest" is decided by seqno, not arrival order: a
                // replayed old event must not clobber a newer live one.
                for queued in self.queue.iter_mut() {
                    match &mut queued.event {
                        DlmEvent::Updated(q) if q.oid == info.oid => {
                            if seqno >= queued.seqno {
                                queued.event = event;
                                queued.seqno = seqno;
                            }
                            return Pushed::Coalesced;
                        }
                        // A pending resync marker (truncated replay)
                        // already covers any state change to its OIDs.
                        DlmEvent::ResyncRequired { oids } if oids.contains(&info.oid) => {
                            return Pushed::Coalesced;
                        }
                        _ => {}
                    }
                }
            }
            DlmEvent::Resolved { oid, txn, .. } => {
                // The intent never reached the client: drop the pair.
                let pos = self.queue.iter().position(|q| {
                    matches!(&q.event, DlmEvent::Marked { oid: m, txn: t } if m == oid && t == txn)
                });
                if let Some(pos) = pos {
                    self.queue.remove(pos);
                    return Pushed::Cancelled;
                }
            }
            DlmEvent::ResyncRequired { oids } => {
                // Fold into an existing marker rather than queue two.
                let fold: Vec<Oid> = oids.clone();
                for queued in self.queue.iter_mut() {
                    if let DlmEvent::ResyncRequired { oids: existing } = &mut queued.event {
                        for oid in fold {
                            if !existing.contains(&oid) {
                                existing.push(oid);
                            }
                        }
                        return Pushed::Coalesced;
                    }
                }
            }
            DlmEvent::ReplayNeeded { shard, from } => {
                // One replay round covers a shard: keep the highest
                // `from` (purely diagnostic — the client replays from
                // its own cursor).
                for queued in self.queue.iter_mut() {
                    match &mut queued.event {
                        DlmEvent::ReplayNeeded { shard: s, from: f } if s == shard => {
                            *f = (*f).max(*from);
                            return Pushed::Coalesced;
                        }
                        _ => {}
                    }
                }
            }
            DlmEvent::Delta {
                oid,
                version,
                changed,
                trace,
            } => {
                // Consecutive deltas for the same object merge: union of
                // the changed attribute sets, newest value per attribute.
                // Dropping the older delta outright (latest-wins, as
                // Updated does) would lose attributes the newer delta
                // does not mention. "Newest" is by seqno: a replayed
                // older delta only contributes attrs the newer queued
                // one does not already carry.
                for queued in self.queue.iter_mut() {
                    let entry_seqno = queued.seqno;
                    match &mut queued.event {
                        DlmEvent::Delta {
                            oid: q_oid,
                            version: q_version,
                            changed: q_changed,
                            trace: q_trace,
                        } if q_oid == oid && q_version == version => {
                            let newer = seqno >= entry_seqno;
                            for (attr, value) in changed {
                                match q_changed.iter_mut().find(|(a, _)| a == attr) {
                                    Some((_, v)) => {
                                        if newer {
                                            *v = value.clone();
                                        }
                                    }
                                    None => q_changed.push((*attr, value.clone())),
                                }
                            }
                            q_changed.sort_by_key(|(a, _)| *a);
                            // Latest commit wins the merged event's trace,
                            // matching the values it carries.
                            if newer && *trace != 0 {
                                *q_trace = *trace;
                            }
                            queued.seqno = entry_seqno.max(seqno);
                            return Pushed::Coalesced;
                        }
                        // A pending resync marker already forces a full
                        // re-read of this object.
                        DlmEvent::ResyncRequired { oids } if oids.contains(oid) => {
                            return Pushed::Coalesced;
                        }
                        _ => {}
                    }
                }
            }
            // Acks and batches are minted by the writer, never queued.
            DlmEvent::Marked { .. }
            | DlmEvent::Ready { .. }
            | DlmEvent::Batch(_)
            | DlmEvent::CursorAck { .. } => {}
        }
        self.queue.push_back(Entry { event, seqno });
        Pushed::Queued
    }

    /// Replace everything queued with a single `ReplayNeeded` marker.
    /// The swept backlog lives in the shard's update log; `from` is the
    /// highest swept seqno, for diagnostics only (the client replays
    /// from its own cursor).
    fn sweep_to_marker(&mut self) {
        let mut from = 0u64;
        for entry in self.queue.drain(..) {
            from = from.max(entry.seqno);
            if let DlmEvent::ReplayNeeded { from: f, .. } = entry.event {
                from = from.max(f);
            }
        }
        self.queue.push_back(Entry {
            event: DlmEvent::ReplayNeeded {
                shard: self.shard,
                from,
            },
            seqno: 0,
        });
    }
}

/// The least time between two cursor acks of one outbox.
pub(crate) const ACK_INTERVAL: Duration = Duration::from_millis(25);

/// Most pending events a writer drains into one wire frame per wake (a
/// `Batch` when more than one is pending): enough to collapse a fan-in
/// burst into one frame, small enough never to near frame-size limits.
const BATCH_MAX: usize = 16;

/// When the writer may send the cursor ack of a frame it builds at `now`:
/// `None` when nothing is owed or the frame leaves events queued, else
/// [`ACK_INTERVAL`] after the `last` ack (`now` if there was none, or a
/// drainer wants it at once). An ack due later than `now` waits.
fn ack_due(owed: bool, drained: bool, last: Option<Instant>, now: Instant) -> Option<Instant> {
    (owed && drained).then(|| last.map_or(now, |at| at + ACK_INTERVAL))
}

struct OutboxState {
    queue: CoalescingQueue,
    /// The backlog was swept to a `ReplayNeeded` marker; further live
    /// deliveries are dropped (the update log covers them) until
    /// [`OutboxSink`]'s `replay_restore` runs when the client comes back
    /// with `ReplayFrom{cursor}`.
    replay_pending: bool,
    /// Highest log seqno handed to this outbox whose effect will reach
    /// the client (queued, coalesced into a newer entry, or marked
    /// current after replay). Dropped-while-replay-pending events do
    /// NOT advance it.
    last_seqno: u64,
    /// Highest seqno already acknowledged to the client via `CursorAck`.
    last_acked: u64,
    /// When the writer sent its last `CursorAck`; `None` before the
    /// first, or after a drainer asked for the owed ack at once.
    last_ack_at: Option<Instant>,
    /// Writer asked to exit (client unregistered / server shutdown).
    shutdown: bool,
    /// The inner sink failed; all further deliveries are refused.
    dead: bool,
    /// The writer has popped a batch it has not yet handed to the inner
    /// sink. Drainers must treat this as undelivered work: an empty
    /// queue alone does not mean the tail reached the client.
    in_flight: bool,
}

impl OutboxState {
    /// A delivered seqno is unacknowledged, and no sweep awaits replay.
    fn ack_owed(&self) -> bool {
        !self.replay_pending && self.last_seqno > self.last_acked
    }
}

struct OutboxShared {
    state: OrderedMutex<OutboxState>,
    /// Wakes the writer (work queued or shutdown).
    work: OrderedCondvar,
    /// Wakes drainers (queue just emptied or writer exited).
    idle: OrderedCondvar,
    stats: OverloadStats,
    /// The DLM shard this outbox drains: stamped on the `CursorAck`s the
    /// writer mints and the `ReplayNeeded` markers a sweep leaves, so
    /// the client can tell the shards' seqno spaces apart.
    shard: u32,
}

/// A bounded, coalescing outbox wrapped around a blocking sink.
///
/// `deliver` never blocks and never performs I/O: it coalesces into the
/// bounded queue and wakes the writer thread, which owns the only calls
/// into the wrapped sink. Created one per shard by
/// [`crate::ShardedDlm::register_session`] (the DLM agent hands it its
/// wire-channel sink, the integrated server its session sink).
pub struct OutboxSink {
    inner: Arc<dyn EventSink>,
    shared: Arc<OutboxShared>,
}

impl OutboxSink {
    /// Wrap `inner` as `shard`'s outbox, spawning the writer thread.
    /// Overflow sweeps to a `ReplayNeeded{shard}` marker and the writer
    /// acknowledges delivered seqnos with `CursorAck{shard}` on a frame
    /// that drains the queue, at most once per [`ACK_INTERVAL`].
    pub fn wrap(
        inner: Arc<dyn EventSink>,
        shard: u32,
        config: OverloadConfig,
        stats: OverloadStats,
    ) -> Arc<Self> {
        let queue = CoalescingQueue::for_shard(config.outbox_high_water, shard);
        let shared = Arc::new(OutboxShared {
            state: OrderedMutex::new(
                ranks::OUTBOX_STATE,
                OutboxState {
                    queue,
                    replay_pending: false,
                    last_seqno: 0,
                    last_acked: 0,
                    last_ack_at: None,
                    shutdown: false,
                    dead: false,
                    in_flight: false,
                },
            ),
            work: OrderedCondvar::new(),
            idle: OrderedCondvar::new(),
            stats,
            shard,
        });
        let sink = Arc::new(Self {
            inner: Arc::clone(&inner),
            shared: Arc::clone(&shared),
        });
        std::thread::Builder::new()
            .name("dlm-outbox".into())
            .spawn(move || writer_loop(&shared, &inner))
            .expect("spawn dlm-outbox");
        sink
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.shared.state.lock().queue.len()
    }

    /// Whether a `ReplayNeeded` sweep is awaiting the client's
    /// `ReplayFrom`.
    pub fn is_replay_pending(&self) -> bool {
        self.shared.state.lock().replay_pending
    }

    /// Shared delivery path for live (`seqno > 0` when logged) and
    /// control (`seqno == 0`) events.
    fn enqueue(&self, event: DlmEvent, seqno: u64) -> DbResult<()> {
        event.record_stage(displaydb_common::trace::Stage::OutboxEnqueue);
        let stats = &self.shared.stats;
        let mut state = self.shared.state.lock();
        if state.dead || state.shutdown {
            return Err(displaydb_common::DbError::Disconnected);
        }
        stats.enqueued.inc();
        if state.replay_pending {
            // The backlog was swept to a ReplayNeeded marker and the
            // update log retains every commit since: drop the event and
            // count it as coalesced into the pending marker. The
            // seqno is deliberately NOT acknowledged — the client
            // learns it through replay. Unlogged intent events
            // (seqno 0) are simply gone; the client voids its marks
            // when it sees the marker.
            stats.coalesced.inc();
            return Ok(());
        }
        match state.queue.push_seq(event, seqno) {
            Pushed::Queued => {}
            Pushed::Coalesced => stats.coalesced.inc(),
            Pushed::Cancelled => stats.cancelled_pairs.inc(),
            Pushed::Overflowed => {
                stats.overflows.inc();
                // The sweep left a ReplayNeeded marker; everything
                // until the client replays is covered by the log.
                // Swept seqnos reach the client only via the replay,
                // and the ack frontier never claimed them: it only
                // advances through `advance_frontier`, after a whole
                // commit is enqueued, and replay-pending blocks even
                // that until the client's `ReplayFrom` restores us.
                state.replay_pending = true;
            }
        }
        // Shared gauge: the high-water side is a monotonic max across
        // all outboxes, which is the quantity the experiments report.
        stats.queue_depth.set(state.queue.len() as u64);
        drop(state);
        self.shared.work.notify_one();
        Ok(())
    }

    /// Block until the client is current — the queue flushed to the
    /// inner sink and the owed cursor ack sent — or `timeout` elapses;
    /// returns whether it is. A waiting drainer makes the writer send
    /// the owed ack at once rather than at the end of [`ACK_INTERVAL`].
    /// Used by server shutdown to give healthy clients their tail
    /// notifications and cursor without letting a stalled one wedge the
    /// process.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.state.lock();
        loop {
            let current = state.queue.is_empty() && !state.in_flight && !state.ack_owed();
            if current || state.dead {
                return current;
            }
            if state.ack_owed() {
                state.last_ack_at = None;
                self.shared.work.notify_one();
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.shared.idle.wait_for(&mut state, deadline - now);
        }
    }
}

impl EventSink for OutboxSink {
    fn deliver(&self, event: DlmEvent) -> DbResult<()> {
        self.enqueue(event, 0)
    }

    fn deliver_logged(&self, event: DlmEvent, seqno: u64) -> DbResult<()> {
        self.enqueue(event, seqno)
    }

    fn deliver_replayed(&self, event: DlmEvent, seqno: u64) -> DbResult<()> {
        // Replay catch-up: push without the overflow sweep. The burst is
        // bounded by the watched set (per-OID coalescing), and sweeping
        // it back to a marker would loop the client forever.
        event.record_stage(displaydb_common::trace::Stage::OutboxEnqueue);
        let stats = &self.shared.stats;
        let mut state = self.shared.state.lock();
        if state.dead || state.shutdown {
            return Err(displaydb_common::DbError::Disconnected);
        }
        // The frontier advance for replayed seqnos comes from
        // `mark_current_through(head)` at the end of the replay, never
        // per event — a drain racing with the burst must not ack a
        // seqno whose remaining events are still being replayed.
        stats.enqueued.inc();
        match state.queue.push_unbounded(event, seqno) {
            Pushed::Queued | Pushed::Overflowed => {}
            Pushed::Coalesced => stats.coalesced.inc(),
            Pushed::Cancelled => stats.cancelled_pairs.inc(),
        }
        drop(state);
        self.shared.work.notify_one();
        Ok(())
    }

    fn replay_restore(&self) {
        let mut state = self.shared.state.lock();
        state.replay_pending = false;
        // The storm's high-water marks describe the overload, not the
        // recovered client — reset them so post-recovery gauges start
        // clean.
        self.shared.stats.queue_depth.reset_high_water();
        drop(state);
        self.shared.work.notify_one();
    }

    fn mark_current_through(&self, seqno: u64) {
        let mut state = self.shared.state.lock();
        state.last_seqno = state.last_seqno.max(seqno);
        drop(state);
        // Wake the writer so it can acknowledge even with an empty queue.
        self.shared.work.notify_one();
    }

    fn advance_frontier(&self, seqno: u64) {
        let mut state = self.shared.state.lock();
        if state.dead || state.shutdown {
            return;
        }
        if state.replay_pending {
            // Part of this commit was swept mid-fan-out: the client only
            // gets it back through replay, so the frontier stays put
            // until `replay_restore` + `mark_current_through`.
            return;
        }
        state.last_seqno = state.last_seqno.max(seqno);
        drop(state);
        // The queue may already have drained past this commit's events;
        // wake the writer so the ack is not deferred to the next event.
        self.shared.work.notify_one();
    }

    fn close(&self) {
        let mut state = self.shared.state.lock();
        state.shutdown = true;
        drop(state);
        // Wake the writer so it exits; deliberately no join — the
        // writer may be blocked inside a stalled send, and close must
        // not inherit that stall.
        self.shared.work.notify_one();
        self.shared.idle.notify_all();
        self.inner.close();
    }
}

impl Drop for OutboxSink {
    fn drop(&mut self) {
        self.close();
    }
}

impl std::fmt::Debug for OutboxSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.shared.state.lock();
        f.debug_struct("OutboxSink")
            .field("depth", &state.queue.len())
            .field("replay_pending", &state.replay_pending)
            .field("dead", &state.dead)
            .finish()
    }
}

fn writer_loop(shared: &Arc<OutboxShared>, inner: &Arc<dyn EventSink>) {
    loop {
        let event = {
            let mut state = shared.state.lock();
            loop {
                if state.shutdown {
                    shared.idle.notify_all();
                    return;
                }
                // Drain everything pending (up to the batch cap) in one
                // wake: a consumer that fell behind receives its backlog
                // as a single wire frame instead of one frame per event.
                // A lone event travels bare; only a second event or the
                // ack builds a `Batch`.
                let first = state.queue.pop();
                let mut rest = Vec::new();
                while first.is_some() && rest.len() + 1 < BATCH_MAX {
                    let Some(e) = state.queue.pop() else { break };
                    rest.push(e);
                }
                let now = Instant::now();
                let drained = state.queue.is_empty();
                match ack_due(state.ack_owed(), drained, state.last_ack_at, now) {
                    Some(due) if due <= now => {
                        // Fully drained, and not down to the marker of a
                        // sweep still awaiting the client's replay: every
                        // event enqueued through last_seqno went out
                        // before or rides this very frame, so acknowledge
                        // the cursor as its final event.
                        state.last_acked = state.last_seqno;
                        state.last_ack_at = Some(now);
                        rest.push(DlmEvent::CursorAck {
                            shard: shared.shard,
                            seqno: state.last_acked,
                        });
                    }
                    Some(due) if first.is_none() => {
                        // Owed too soon and nothing else to send: sleep
                        // until the interval ends or new work arrives.
                        shared.work.wait_for(&mut state, due - now);
                        continue;
                    }
                    _ => {}
                }
                let event = match first {
                    Some(first) if rest.is_empty() => first,
                    Some(first) => {
                        rest.insert(0, first);
                        shared.stats.batches_sent.inc();
                        DlmEvent::Batch(rest)
                    }
                    // The ack alone.
                    None if !rest.is_empty() => rest.remove(0),
                    None => {
                        // Nothing queued and no ack owed (or a spurious
                        // wake): go back to waiting.
                        shared.work.wait(&mut state);
                        continue;
                    }
                };
                state.in_flight = true;
                shared.stats.queue_depth.set(state.queue.len() as u64);
                break event;
            }
        };
        // The only potentially-blocking calls, outside every lock.
        event.record_stage(displaydb_common::trace::Stage::OutboxDrain);
        let delivered = inner.deliver(event).is_ok();
        let mut state = shared.state.lock();
        state.in_flight = false;
        if !delivered {
            state.dead = true;
            shared.idle.notify_all();
            return;
        }
        if state.queue.is_empty() {
            shared.idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::UpdateInfo;
    use crossbeam::channel::unbounded;
    use displaydb_common::{DbError, TxnId};
    use parking_lot::{Condvar, Mutex};

    fn o(i: u64) -> Oid {
        Oid::new(i)
    }

    fn upd(i: u64, payload: u8) -> DlmEvent {
        DlmEvent::Updated(UpdateInfo::eager(o(i), vec![payload]))
    }

    fn delta(i: u64, version: u32, changed: &[(u16, u8)]) -> DlmEvent {
        DlmEvent::Delta {
            oid: o(i),
            version,
            changed: changed.iter().map(|&(a, v)| (a, vec![v])).collect(),
            trace: 0,
        }
    }

    /// Undo writer-side batching: receivers see what a client would after
    /// flattening.
    fn flatten(events: impl IntoIterator<Item = DlmEvent>) -> Vec<DlmEvent> {
        let mut out = Vec::new();
        for e in events {
            match e {
                DlmEvent::Batch(inner) => out.extend(inner),
                e => out.push(e),
            }
        }
        out
    }

    #[test]
    fn updated_coalesces_latest_wins_in_place() {
        let mut q = CoalescingQueue::new(16);
        assert_eq!(q.push(upd(1, 1)), Pushed::Queued);
        assert_eq!(q.push(upd(2, 1)), Pushed::Queued);
        assert_eq!(q.push(upd(1, 9)), Pushed::Coalesced);
        assert_eq!(q.len(), 2);
        // Position preserved: oid 1 still drains first, with the newest
        // payload.
        assert_eq!(q.pop(), Some(upd(1, 9)));
        assert_eq!(q.pop(), Some(upd(2, 1)));
    }

    #[test]
    fn resolved_cancels_queued_marked() {
        let mut q = CoalescingQueue::new(16);
        let txn = TxnId::new(5);
        q.push(DlmEvent::Marked { oid: o(1), txn });
        q.push(upd(2, 1));
        assert_eq!(
            q.push(DlmEvent::Resolved {
                oid: o(1),
                txn,
                committed: false
            }),
            Pushed::Cancelled
        );
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some(upd(2, 1)));
    }

    #[test]
    fn resolved_without_queued_marked_queues() {
        let mut q = CoalescingQueue::new(16);
        let txn = TxnId::new(5);
        // The Marked already drained: Resolved must still go out.
        assert_eq!(
            q.push(DlmEvent::Resolved {
                oid: o(1),
                txn,
                committed: true
            }),
            Pushed::Queued
        );
        // A different txn's mark is not cancelled by this txn.
        q.push(DlmEvent::Marked {
            oid: o(1),
            txn: TxnId::new(6),
        });
        assert_eq!(
            q.push(DlmEvent::Resolved {
                oid: o(1),
                txn: TxnId::new(7),
                committed: true
            }),
            Pushed::Queued
        );
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn updates_fold_into_pending_resync_marker() {
        let mut q = CoalescingQueue::new(4);
        q.push(DlmEvent::ResyncRequired {
            oids: (0..5).map(o).collect(),
        });
        // Marker queued; an update for a covered OID disappears into it,
        // a new OID queues normally behind it.
        assert_eq!(q.push(upd(2, 7)), Pushed::Coalesced);
        assert_eq!(q.push(upd(42, 7)), Pushed::Queued);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn delta_merge_unions_changed_attrs_latest_value_wins() {
        let mut q = CoalescingQueue::new(16);
        assert_eq!(q.push(delta(1, 1, &[(0, 1), (2, 5)])), Pushed::Queued);
        assert_eq!(q.push(delta(2, 1, &[(0, 3)])), Pushed::Queued);
        // Same OID + version: union of attrs, newest value per attr,
        // position preserved (oid 1 still drains first).
        assert_eq!(q.push(delta(1, 1, &[(2, 9), (3, 4)])), Pushed::Coalesced);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(delta(1, 1, &[(0, 1), (2, 9), (3, 4)])));
        assert_eq!(q.pop(), Some(delta(2, 1, &[(0, 3)])));
    }

    #[test]
    fn delta_with_different_version_queues_separately() {
        let mut q = CoalescingQueue::new(16);
        q.push(delta(1, 1, &[(0, 1)]));
        // A version bump means the attribute indices refer to a different
        // registration; merging across versions could fabricate a delta
        // neither registration produced.
        assert_eq!(q.push(delta(1, 2, &[(0, 2)])), Pushed::Queued);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn delta_folds_into_pending_resync_marker() {
        let mut q = CoalescingQueue::new(16);
        q.push(DlmEvent::ResyncRequired { oids: vec![o(1)] });
        assert_eq!(q.push(delta(1, 1, &[(0, 1)])), Pushed::Coalesced);
        assert_eq!(q.push(delta(2, 1, &[(0, 1)])), Pushed::Queued);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn resync_markers_merge() {
        let mut q = CoalescingQueue::new(16);
        q.push(DlmEvent::ResyncRequired {
            oids: vec![o(1), o(2)],
        });
        assert_eq!(
            q.push(DlmEvent::ResyncRequired {
                oids: vec![o(2), o(3)]
            }),
            Pushed::Coalesced
        );
        assert_eq!(q.len(), 1);
        let Some(DlmEvent::ResyncRequired { oids }) = q.pop() else {
            panic!("the merged marker");
        };
        assert_eq!(oids, vec![o(1), o(2), o(3)]);
    }

    fn collecting_sink() -> (Arc<dyn EventSink>, crossbeam::channel::Receiver<DlmEvent>) {
        let (tx, rx) = unbounded();
        let f = move |e: DlmEvent| tx.send(e).map_err(|_| DbError::Disconnected);
        (Arc::new(f), rx)
    }

    /// Shard `SHARD`'s outbox (overflow → `ReplayNeeded`, drain-to-empty
    /// → `CursorAck`).
    const SHARD: u32 = 2;
    fn wrap(
        inner: Arc<dyn EventSink>,
        config: OverloadConfig,
        stats: OverloadStats,
    ) -> Arc<OutboxSink> {
        OutboxSink::wrap(inner, SHARD, config, stats)
    }

    fn quick_config(high_water: usize) -> OverloadConfig {
        OverloadConfig {
            outbox_high_water: high_water,
            ..OverloadConfig::default()
        }
    }

    #[test]
    fn outbox_delivers_in_order() {
        let (inner, rx) = collecting_sink();
        let outbox = wrap(inner, quick_config(64), OverloadStats::new());
        for i in 0..10 {
            outbox.deliver(upd(i, i as u8)).unwrap();
        }
        assert!(outbox.drain(Duration::from_secs(5)));
        let got = flatten(rx.try_iter());
        assert_eq!(got.len(), 10);
        for (i, e) in got.iter().enumerate() {
            assert_eq!(*e, upd(i as u64, i as u8));
        }
    }

    #[test]
    fn close_stops_writer_without_flushing_stalled_queue() {
        // Inner sink blocks forever: close must still return promptly.
        let (release_tx, release_rx) = unbounded::<()>();
        let inner: Arc<dyn EventSink> = Arc::new(move |_e: DlmEvent| {
            let _ = release_rx.recv(); // blocks until test end
            Ok(())
        });
        let outbox = wrap(inner, quick_config(8), OverloadStats::new());
        outbox.deliver(upd(1, 1)).unwrap();
        outbox.deliver(upd(2, 2)).unwrap();
        let started = Instant::now();
        outbox.close();
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "close must not wait on the stalled writer"
        );
        assert!(outbox.deliver(upd(3, 3)).is_err(), "closed outbox refuses");
        drop(release_tx);
    }

    #[test]
    fn writer_drains_backlog_as_one_batch_frame() {
        // The writer wedges on the first event; the next four queue and
        // must go out together as a single Batch when the gate opens.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let (tx, rx) = unbounded();
        let inner: Arc<dyn EventSink> = {
            let gate = Arc::clone(&gate);
            Arc::new(move |e: DlmEvent| {
                let (lock, cv) = &*gate;
                let mut open = lock.lock();
                while !*open {
                    cv.wait(&mut open);
                }
                tx.send(e).map_err(|_| DbError::Disconnected)
            })
        };
        let stats = OverloadStats::new();
        let outbox = wrap(inner, quick_config(64), stats.clone());
        outbox.deliver(upd(0, 0)).unwrap();
        // Wait until the writer has taken the first event off the queue.
        let deadline = Instant::now() + Duration::from_secs(5);
        while outbox.depth() != 0 {
            assert!(Instant::now() < deadline, "writer never picked up");
            std::thread::sleep(Duration::from_millis(1));
        }
        for i in 1..5u64 {
            outbox.deliver(upd(i, i as u8)).unwrap();
        }
        {
            let (lock, cv) = &*gate;
            *lock.lock() = true;
            cv.notify_all();
        }
        assert!(outbox.drain(Duration::from_secs(5)));
        let frames: Vec<DlmEvent> = rx.try_iter().collect();
        assert_eq!(frames.len(), 2, "one stalled single + one batch frame");
        assert_eq!(frames[0], upd(0, 0));
        match &frames[1] {
            DlmEvent::Batch(events) => {
                assert_eq!(
                    events,
                    &(1..5u64).map(|i| upd(i, i as u8)).collect::<Vec<_>>()
                );
            }
            other => panic!("expected batch, got {other:?}"),
        }
        assert_eq!(stats.batches_sent.get(), 1);
    }

    #[test]
    fn seqno_coalescing_older_replay_never_clobbers_newer_live() {
        let mut q = CoalescingQueue::new(16);
        // A live event at seqno 10 is queued; a replayed event at seqno 3
        // arrives late (replay raced a live commit) — the newer payload
        // must survive.
        assert_eq!(q.push_seq(upd(1, 9), 10), Pushed::Queued);
        assert_eq!(q.push_unbounded(upd(1, 1), 3), Pushed::Coalesced);
        assert_eq!(q.pop(), Some(upd(1, 9)));

        // Deltas: the older replayed delta only contributes attributes
        // the newer queued one does not already carry.
        assert_eq!(q.push_seq(delta(2, 1, &[(0, 5)]), 10), Pushed::Queued);
        assert_eq!(
            q.push_unbounded(delta(2, 1, &[(0, 1), (2, 7)]), 3),
            Pushed::Coalesced
        );
        assert_eq!(q.pop(), Some(delta(2, 1, &[(0, 5), (2, 7)])));
    }

    #[test]
    fn overflow_sweeps_to_single_replay_needed() {
        let mut q = CoalescingQueue::for_shard(4, SHARD);
        for i in 0..4u64 {
            q.push_seq(upd(i, 0), i + 1);
        }
        assert_eq!(q.push_seq(upd(99, 0), 5), Pushed::Overflowed);
        assert_eq!(q.len(), 1);
        // A second sweep absorbs the still-queued marker, keeping the
        // highest `from`: seqnos 6..=9 breach the mark again, 10 queues.
        for i in 0..5u64 {
            q.push_seq(upd(i, 0), i + 6);
        }
        assert_eq!(
            q.pop(),
            Some(DlmEvent::ReplayNeeded {
                shard: SHARD,
                from: 9
            })
        );
        assert_eq!(q.pop(), Some(upd(4, 0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn replay_pending_drops_live_events_until_restore() {
        // Writer wedged: the storm overflows, sweeps to ReplayNeeded, and
        // every further live delivery is dropped (the log covers it).
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let (tx, rx) = unbounded();
        let inner: Arc<dyn EventSink> = {
            let gate = Arc::clone(&gate);
            Arc::new(move |e: DlmEvent| {
                let (lock, cv) = &*gate;
                let mut open = lock.lock();
                while !*open {
                    cv.wait(&mut open);
                }
                tx.send(e).map_err(|_| DbError::Disconnected)
            })
        };
        let stats = OverloadStats::new();
        let outbox = wrap(inner, quick_config(4), stats.clone());
        for i in 0..12u64 {
            outbox.deliver_logged(upd(i, 0), i + 1).unwrap();
        }
        assert!(stats.overflows.get() >= 1, "storm must overflow");
        assert!(outbox.is_replay_pending());
        let depth_before = outbox.depth();
        outbox.deliver_logged(upd(50, 0), 100).unwrap();
        assert_eq!(
            outbox.depth(),
            depth_before,
            "live events while replay-pending must be dropped, not queued"
        );

        // The client replays: restore, then the replayed suffix arrives.
        outbox.replay_restore();
        assert!(!outbox.is_replay_pending());
        for i in 0..12u64 {
            outbox.deliver_replayed(upd(i, 0), i + 1).unwrap();
        }
        outbox.mark_current_through(100);
        {
            let (lock, cv) = &*gate;
            *lock.lock() = true;
            cv.notify_all();
        }
        assert!(outbox.drain(Duration::from_secs(5)));
        let got = flatten(rx.try_iter());
        let replays = got
            .iter()
            .filter(|e| matches!(e, DlmEvent::ReplayNeeded { .. }))
            .count();
        assert_eq!(replays, 1, "exactly one replay marker per sweep episode");
        assert!(
            !got.iter()
                .any(|e| matches!(e, DlmEvent::ResyncRequired { .. })),
            "an overflow must never fall back to resync markers on its own"
        );
        // The final cursor ack covers the marked-current frontier.
        match got.last() {
            Some(DlmEvent::CursorAck { shard, seqno }) => {
                assert_eq!((*shard, *seqno), (SHARD, 100))
            }
            other => panic!("expected trailing cursor ack, got {other:?}"),
        }
    }

    #[test]
    fn ack_due_table() {
        let t = Instant::now();
        let (just, long_ago) = (Some(t), Some(t - ACK_INTERVAL * 2));
        // (owed, drained, last ack at) → due, at `t`.
        let table = [
            (false, true, None, None),
            (false, true, long_ago, None),
            (true, false, None, None),
            (true, false, long_ago, None),
            (false, false, just, None),
            (true, true, None, Some(t)),
            (true, true, long_ago, Some(t - ACK_INTERVAL)),
            (true, true, just, Some(t + ACK_INTERVAL)),
        ];
        for (owed, drained, last_ack_at, due) in table {
            assert_eq!(
                ack_due(owed, drained, last_ack_at, t),
                due,
                "owed {owed}, drained {drained}, last ack {last_ack_at:?}"
            );
        }
    }

    /// A sink whose every send first takes a permit from the returned
    /// sender (all sends pass once it is dropped).
    fn gated_sink() -> (
        Arc<dyn EventSink>,
        crossbeam::channel::Receiver<DlmEvent>,
        crossbeam::channel::Sender<()>,
    ) {
        let (permit_tx, permit_rx) = unbounded::<()>();
        let (tx, rx) = unbounded();
        let inner = move |e: DlmEvent| {
            let _ = permit_rx.recv();
            tx.send(e).map_err(|_| DbError::Disconnected)
        };
        (Arc::new(inner), rx, permit_tx)
    }

    /// A sink that stamps each frame with the instant it arrived.
    fn timed_sink() -> (
        Arc<dyn EventSink>,
        crossbeam::channel::Receiver<(Instant, DlmEvent)>,
    ) {
        let (tx, rx) = unbounded();
        let inner = move |e: DlmEvent| {
            tx.send((Instant::now(), e))
                .map_err(|_| DbError::Disconnected)
        };
        (Arc::new(inner), rx)
    }

    fn ack(seqno: u64) -> DlmEvent {
        DlmEvent::CursorAck {
            shard: SHARD,
            seqno,
        }
    }

    fn ready() -> DlmEvent {
        DlmEvent::Ready {
            log_incarnations: vec![],
        }
    }

    /// The next frame, within five seconds.
    fn next<T>(rx: &crossbeam::channel::Receiver<T>) -> T {
        rx.recv_timeout(Duration::from_secs(5))
            .expect("frame never arrived")
    }

    #[test]
    fn an_isolated_ack_rides_its_frame_and_is_not_repeated() {
        let (inner, rx, permits) = gated_sink();
        let outbox = wrap(inner, quick_config(64), OverloadStats::new());
        // The writer holds a control frame while a commit lands, so the
        // commit's event and its ack drain together — once with no ack
        // before, once an idle interval after the previous ack.
        for (oid, seqno) in [(1, 7), (2, 8)] {
            outbox.deliver(ready()).unwrap();
            while outbox.depth() != 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            outbox.deliver_logged(upd(oid, 1), seqno).unwrap();
            outbox.advance_frontier(seqno);
            permits.send(()).unwrap();
            permits.send(()).unwrap();
            assert_eq!(next(&rx), ready());
            assert_eq!(next(&rx), DlmEvent::Batch(vec![upd(oid, 1), ack(seqno)]));
            std::thread::sleep(ACK_INTERVAL);
        }
        drop(permits);
        // No further acks without new seqnos, and a control event (seqno
        // 0) does not move the cursor.
        outbox.deliver(ready()).unwrap();
        assert!(outbox.drain(Duration::from_secs(5)));
        assert_eq!(next(&rx), ready());
        assert!(
            rx.recv_timeout(ACK_INTERVAL * 3).is_err(),
            "spurious repeat ack"
        );
    }

    #[test]
    fn a_burst_inside_one_interval_gets_one_deferred_ack() {
        let (inner, rx) = timed_sink();
        let outbox = wrap(inner, quick_config(64), OverloadStats::new());
        outbox.deliver_logged(upd(0, 0), 1).unwrap();
        outbox.advance_frontier(1);
        let mut first_ack = None;
        while first_ack.is_none() {
            let (at, frame) = next(&rx);
            first_ack = flatten([frame]).contains(&ack(1)).then_some(at);
        }
        let first_ack = first_ack.unwrap();
        // k commits, then one whose fan-out has not finished: its event
        // is queued but its frontier never advances.
        let k = 5u64;
        let started = Instant::now();
        for i in 1..=k {
            outbox.deliver_logged(upd(i, 0), i + 1).unwrap();
            outbox.advance_frontier(i + 1);
        }
        let elapsed = started.elapsed();
        outbox.deliver_logged(upd(99, 0), k + 2).unwrap();
        let mut acks = Vec::new();
        let mut seen = 0;
        while seen < k + 1 || acks.last().map(|&(_, s)| s) != Some(k + 1) {
            let (at, frame) = next(&rx);
            for e in flatten([frame]) {
                match e {
                    DlmEvent::CursorAck { seqno, .. } => acks.push((at, seqno)),
                    DlmEvent::Updated(_) => seen += 1,
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        let bound = 1 + (elapsed.as_nanos() / ACK_INTERVAL.as_nanos()) as usize;
        assert!(
            (1..=bound).contains(&acks.len()),
            "{} acks for a burst of {elapsed:?}",
            acks.len()
        );
        // The sink stamps each ack a hair after the writer does: allow
        // that much scheduling slack, not the interval.
        let (at, _) = acks[0];
        assert!(
            at + ACK_INTERVAL / 5 >= first_ack + ACK_INTERVAL,
            "deferred ack only {:?} after the previous one",
            at - first_ack
        );
        // The unadvanced commit stays unacknowledged until it advances.
        assert!(rx.recv_timeout(ACK_INTERVAL * 3).is_err());
        outbox.advance_frontier(k + 2);
        assert_eq!(next(&rx).1, ack(k + 2));
    }

    #[test]
    fn replay_pending_withholds_the_owed_ack() {
        let (inner, rx, permits) = gated_sink();
        let stats = OverloadStats::new();
        let outbox = wrap(inner, quick_config(4), stats.clone());
        for i in 0..12u64 {
            outbox.deliver_logged(upd(i, 0), i + 1).unwrap();
        }
        assert!(outbox.is_replay_pending());
        // Owed but replay-pending: the client is as current as it can
        // be until it replays, and no ack goes out.
        outbox.mark_current_through(12);
        drop(permits);
        assert!(outbox.drain(Duration::from_secs(5)));
        std::thread::sleep(ACK_INTERVAL * 3);
        let got = flatten(rx.try_iter());
        assert!(
            !got.iter().any(|e| matches!(e, DlmEvent::CursorAck { .. })),
            "ack while replay-pending: {got:?}"
        );
        outbox.replay_restore();
        assert!(outbox.drain(Duration::from_secs(5)));
        assert_eq!(flatten(rx.try_iter()), vec![ack(12)]);
    }

    #[test]
    fn drain_sends_the_owed_ack_at_once() {
        let (inner, rx) = timed_sink();
        let outbox = wrap(inner, quick_config(64), OverloadStats::new());
        outbox.deliver_logged(upd(1, 0), 1).unwrap();
        outbox.advance_frontier(1);
        assert!(outbox.drain(Duration::from_secs(5)));
        // Inside the interval after that ack, a second commit's ack is
        // deferred — unless someone drains.
        outbox.deliver_logged(upd(2, 0), 2).unwrap();
        outbox.advance_frontier(2);
        let started = Instant::now();
        assert!(outbox.drain(Duration::from_secs(5)));
        let waited = started.elapsed();
        let got = flatten(rx.try_iter().map(|(_, e)| e));
        assert_eq!(got.last(), Some(&ack(2)), "{got:?}");
        assert!(waited < ACK_INTERVAL / 2, "drain waited {waited:?}");
    }

    #[test]
    fn swept_seqnos_are_not_acked_before_replay_returns_them() {
        // Overflow sweeps seqnos 1..=12 into a ReplayNeeded marker. The
        // writer must NOT acknowledge those seqnos when the marker
        // drains — the client has not seen them; only the replay (and
        // its mark_current_through) may advance the ack frontier.
        let (inner, rx) = collecting_sink();
        let stats = OverloadStats::new();
        let outbox = wrap(inner, quick_config(4), stats);
        // Deliver under the state lock faster than the writer can drain
        // is racy from a test; force the sweep deterministically by a
        // burst far over high-water. Each push is its own "commit":
        // frontier advanced right after, as notify_committed does.
        for i in 0..64u64 {
            outbox.deliver_logged(upd(i, 0), i + 1).unwrap();
            outbox.advance_frontier(i + 1);
        }
        assert!(outbox.drain(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(50));
        let got = flatten(rx.try_iter());
        if got
            .iter()
            .any(|e| matches!(e, DlmEvent::ReplayNeeded { .. }))
        {
            for e in &got {
                if let DlmEvent::CursorAck { seqno, .. } = e {
                    // Only seqnos actually delivered ahead of the ack in
                    // the stream may be acknowledged.
                    let delivered: Vec<u64> = got
                        .iter()
                        .filter_map(|e| match e {
                            DlmEvent::Updated(info) => Some(info.oid.raw() + 1),
                            _ => None,
                        })
                        .collect();
                    assert!(
                        delivered.iter().any(|&s| s >= *seqno),
                        "ack {seqno} claims undelivered (swept) seqnos: {got:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn replay_restore_resets_high_water_gauges() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let (tx, _rx) = unbounded();
        let inner: Arc<dyn EventSink> = {
            let gate = Arc::clone(&gate);
            Arc::new(move |e: DlmEvent| {
                let (lock, cv) = &*gate;
                let mut open = lock.lock();
                while !*open {
                    cv.wait(&mut open);
                }
                tx.send(e).map_err(|_| DbError::Disconnected)
            })
        };
        let stats = OverloadStats::new();
        let outbox = wrap(inner, quick_config(4), stats.clone());
        for i in 0..12u64 {
            outbox.deliver_logged(upd(i, 0), i + 1).unwrap();
        }
        assert!(stats.queue_depth.high_water() > 1);
        outbox.replay_restore();
        assert!(
            stats.queue_depth.high_water() <= 1,
            "restore must reset the shared high-water mark"
        );
        {
            let (lock, cv) = &*gate;
            *lock.lock() = true;
            cv.notify_all();
        }
    }

    #[test]
    fn dead_inner_sink_kills_outbox() {
        let (inner, rx) = collecting_sink();
        drop(rx);
        let outbox = wrap(inner, quick_config(8), OverloadStats::new());
        outbox.deliver(upd(1, 1)).unwrap();
        // The writer hits the dead sink and marks the outbox dead;
        // subsequent delivers fail so the DLM counts the client dead.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if outbox.deliver(upd(2, 2)).is_err() {
                break;
            }
            assert!(Instant::now() < deadline, "outbox never died");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::proto::UpdateInfo;
    use displaydb_common::TxnId;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum In {
        Updated { oid: u64, version: u8 },
        Marked { oid: u64, txn: u64 },
        Resolved { oid: u64, txn: u64 },
        Delta { oid: u64, attr: u16, value: u8 },
    }

    fn arb_in() -> impl Strategy<Value = In> {
        let oid = 0u64..8;
        let txn = 0u64..4;
        prop_oneof![
            (oid.clone(), any::<u8>()).prop_map(|(oid, version)| In::Updated { oid, version }),
            (oid.clone(), txn.clone()).prop_map(|(oid, txn)| In::Marked { oid, txn }),
            (oid.clone(), txn).prop_map(|(oid, txn)| In::Resolved { oid, txn }),
            (oid, 0u16..4, any::<u8>()).prop_map(|(oid, attr, value)| In::Delta {
                oid,
                attr,
                value
            }),
        ]
    }

    fn to_event(i: &In) -> DlmEvent {
        match *i {
            In::Updated { oid, version } => {
                DlmEvent::Updated(UpdateInfo::eager(Oid::new(oid), vec![version]))
            }
            In::Marked { oid, txn } => DlmEvent::Marked {
                oid: Oid::new(oid),
                txn: TxnId::new(txn),
            },
            In::Resolved { oid, txn } => DlmEvent::Resolved {
                oid: Oid::new(oid),
                txn: TxnId::new(txn),
                committed: true,
            },
            In::Delta { oid, attr, value } => DlmEvent::Delta {
                oid: Oid::new(oid),
                version: 1,
                changed: vec![(attr, vec![value])],
                trace: 0,
            },
        }
    }

    proptest! {
        /// Without overflow, coalescing must (a) keep the *latest*
        /// payload for every OID that still has an Updated queued,
        /// (b) never emit a Resolved before its own Marked, and
        /// (c) only ever shrink the mark/resolve traffic by cancelling
        /// complete pairs.
        #[test]
        fn prop_coalescing_latest_wins_no_reorder(inputs in proptest::collection::vec(arb_in(), 1..120)) {
            // High-water above the input length: pure coalescing, no sweeps.
            let mut q = CoalescingQueue::new(1024);
            for i in &inputs {
                q.push(to_event(i));
            }
            let mut drained = Vec::new();
            while let Some(e) = q.pop() {
                drained.push(e);
            }

            // (a) latest payload wins per OID.
            let mut last_payload: std::collections::HashMap<u64, u8> = Default::default();
            for i in &inputs {
                if let In::Updated { oid, version } = i {
                    last_payload.insert(*oid, *version);
                }
            }
            let mut seen_updated: std::collections::HashSet<u64> = Default::default();
            for e in &drained {
                if let DlmEvent::Updated(info) = e {
                    prop_assert!(seen_updated.insert(info.oid.raw()),
                        "two Updated for oid {} survived coalescing", info.oid.raw());
                    prop_assert_eq!(info.payload.as_deref(), Some(&[last_payload[&info.oid.raw()]][..]),
                        "stale payload survived for oid {}", info.oid.raw());
                }
            }

            // (a') deltas merge per OID: at most one Delta survives per
            // OID (same version throughout), carrying the union of the
            // changed attrs with the latest value for each.
            let mut last_attr_value: std::collections::HashMap<(u64, u16), u8> = Default::default();
            for i in &inputs {
                if let In::Delta { oid, attr, value } = i {
                    last_attr_value.insert((*oid, *attr), *value);
                }
            }
            let mut seen_delta: std::collections::HashSet<u64> = Default::default();
            let mut delta_attrs_out: std::collections::HashSet<(u64, u16)> = Default::default();
            for e in &drained {
                if let DlmEvent::Delta { oid, changed, .. } = e {
                    prop_assert!(seen_delta.insert(oid.raw()),
                        "two Deltas for oid {} survived merging", oid.raw());
                    for (attr, value) in changed {
                        delta_attrs_out.insert((oid.raw(), *attr));
                        prop_assert_eq!(value.as_slice(), &[last_attr_value[&(oid.raw(), *attr)]][..],
                            "stale delta value survived for oid {} attr {}", oid.raw(), attr);
                    }
                }
            }
            // Union: every attr ever mentioned for an OID survives.
            for &(oid, attr) in last_attr_value.keys() {
                prop_assert!(delta_attrs_out.contains(&(oid, attr)),
                    "delta attr {attr} for oid {oid} lost in the merge");
            }

            // (b) for each (oid, txn): counting Marked as +1 and
            // Resolved as -1, the running sum in the drained order never
            // goes more negative than in the input order — a Resolved
            // never jumped ahead of its Marked.
            let floor = |seq: &[(u64, u64, i32)], oid: u64, txn: u64| -> i32 {
                let mut run = 0;
                let mut min = 0;
                for &(o, t, d) in seq {
                    if o == oid && t == txn {
                        run += d;
                        min = min.min(run);
                    }
                }
                min
            };
            let project = |events: &[DlmEvent]| -> Vec<(u64, u64, i32)> {
                events.iter().filter_map(|e| match e {
                    DlmEvent::Marked { oid, txn } => Some((oid.raw(), txn.raw(), 1)),
                    DlmEvent::Resolved { oid, txn, .. } => Some((oid.raw(), txn.raw(), -1)),
                    _ => None,
                }).collect()
            };
            let in_seq = project(&inputs.iter().map(to_event).collect::<Vec<_>>());
            let out_seq = project(&drained);
            for oid in 0u64..8 {
                for txn in 0u64..4 {
                    prop_assert!(floor(&out_seq, oid, txn) >= floor(&in_seq, oid, txn),
                        "Resolved reordered ahead of Marked for oid {oid} txn {txn}");
                }
            }

            // (c) cancellation removes whole pairs: the mark/resolve
            // delta per (oid, txn) is unchanged.
            let total = |seq: &[(u64, u64, i32)], oid: u64, txn: u64| -> i32 {
                seq.iter().filter(|&&(o, t, _)| o == oid && t == txn).map(|&(_, _, d)| d).sum()
            };
            for oid in 0u64..8 {
                for txn in 0u64..4 {
                    prop_assert_eq!(total(&out_seq, oid, txn), total(&in_seq, oid, txn),
                        "unbalanced cancellation for oid {} txn {}", oid, txn);
                }
            }
        }

        /// With a small high-water mark, memory stays bounded and no
        /// logged state change is silently lost: every seqno-stamped
        /// push is either on the wire — its key popped carrying that
        /// seqno, or a newer one that coalesced over it — or named by a
        /// popped `ReplayNeeded` (`from` ≥ its seqno). Each sweep
        /// episode queues exactly one marker.
        #[test]
        fn prop_overflow_loses_nothing(inputs in proptest::collection::vec(arb_in(), 1..200)) {
            const HIGH_WATER: usize = 8;
            // Push `i` carries seqno `i + 1`, stamped into its payload so
            // a popped event tells which write survived coalescing.
            // Intent events are unlogged (seqno 0), as in production.
            let stamped = |i: usize, input: &In| -> (DlmEvent, u64) {
                let seqno = i as u64 + 1;
                let stamp = seqno.to_le_bytes().to_vec();
                match *input {
                    In::Updated { oid, .. } => {
                        (DlmEvent::Updated(UpdateInfo::eager(Oid::new(oid), stamp)), seqno)
                    }
                    In::Delta { oid, attr, .. } => (
                        DlmEvent::Delta {
                            oid: Oid::new(oid),
                            version: 1,
                            changed: vec![(attr, stamp)],
                            trace: 0,
                        },
                        seqno,
                    ),
                    In::Marked { .. } | In::Resolved { .. } => (to_event(input), 0),
                }
            };
            let unstamp = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("stamp"));

            let mut q = CoalescingQueue::new(HIGH_WATER);
            let mut drained = Vec::new();
            let mut episodes = 0usize;
            let mut marker_queued = false;
            let mut pop = |q: &mut CoalescingQueue, marker_queued: &mut bool| {
                let Some(e) = q.pop() else { return false };
                if matches!(e, DlmEvent::ReplayNeeded { .. }) {
                    *marker_queued = false;
                }
                drained.push(e);
                true
            };
            for (i, input) in inputs.iter().enumerate() {
                let (event, seqno) = stamped(i, input);
                if q.push_seq(event, seqno) == Pushed::Overflowed && !marker_queued {
                    episodes += 1;
                    marker_queued = true;
                }
                prop_assert!(q.len() <= HIGH_WATER + 1, "queue depth {} breached the bound", q.len());
                let markers = q.queue.iter()
                    .filter(|e| matches!(e.event, DlmEvent::ReplayNeeded { .. }))
                    .count();
                prop_assert_eq!(markers, usize::from(marker_queued), "one marker per episode");
                // Drain opportunistically to mimic a consumer that is
                // slow, not dead.
                if i % 3 == 0 {
                    pop(&mut q, &mut marker_queued);
                }
            }
            while pop(&mut q, &mut marker_queued) {}

            let mut on_wire: std::collections::HashMap<(u64, Option<u16>), u64> = Default::default();
            let mut named = 0u64;
            let mut markers = 0usize;
            for e in &drained {
                match e {
                    DlmEvent::Updated(info) => {
                        let stamp = unstamp(info.payload.as_deref().expect("eager"));
                        let seen = on_wire.entry((info.oid.raw(), None)).or_default();
                        *seen = (*seen).max(stamp);
                    }
                    DlmEvent::Delta { oid, changed, .. } => {
                        for (attr, value) in changed {
                            let seen = on_wire.entry((oid.raw(), Some(*attr))).or_default();
                            *seen = (*seen).max(unstamp(value));
                        }
                    }
                    DlmEvent::ReplayNeeded { from, .. } => {
                        named = named.max(*from);
                        markers += 1;
                    }
                    _ => {}
                }
            }
            prop_assert_eq!(markers, episodes, "markers delivered vs sweep episodes");
            for (i, input) in inputs.iter().enumerate() {
                let seqno = i as u64 + 1;
                let key = match *input {
                    In::Updated { oid, .. } => (oid, None),
                    In::Delta { oid, attr, .. } => (oid, Some(attr)),
                    // Unlogged; the receiver drops its marks on a marker.
                    In::Marked { .. } | In::Resolved { .. } => continue,
                };
                prop_assert!(
                    on_wire.get(&key).is_some_and(|&s| s >= seqno) || named >= seqno,
                    "seqno {seqno} ({input:?}) neither delivered nor named by a marker"
                );
            }
        }
    }
}
