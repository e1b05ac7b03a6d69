//! Per-client bounded outboxes with coalescing and overflow-to-resync
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
//! * **overflow-to-resync** — breaching the high-water mark sweeps the
//!   queue into a single `ResyncRequired{oids}` marker: the client
//!   re-reads those objects instead of replaying a backlog, bounding
//!   memory at O(watched objects),
//! * **slow-consumer demotion** — after N consecutive sweeps the client
//!   enters *resync-only* ("lagging") mode: every notification folds
//!   into the pending resync marker and a single [`DlmEvent::Lagging`]
//!   tells the display layer to render staleness. The mode clears once
//!   the outbox fully drains.

use crate::core::EventSink;
use crate::proto::DlmEvent;
use displaydb_common::metrics::{Gauge, OverloadStats};
use displaydb_common::sync::{ranks, OrderedCondvar, OrderedMutex};
use displaydb_common::{DbResult, Oid, OverloadConfig};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What an overflow sweep replaces the queue with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SweepMode {
    /// No update log behind the queue: one `ResyncRequired` covering
    /// every swept OID.
    Resync,
    /// Replay (DESIGN.md § 13): one `ReplayNeeded` marker naming the
    /// shard this queue drains — the backlog is already retained in that
    /// shard's update log, so the client catches up with a `ReplayFrom`
    /// instead of re-reading objects.
    Replay { shard: u32 },
}

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
    /// into one recovery marker (`ResyncRequired`, or `ReplayNeeded`
    /// when the DLM retains an update log).
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
    sweep: SweepMode,
}

impl CoalescingQueue {
    /// An empty queue sweeping to resync past `high_water` entries.
    pub fn new(high_water: usize) -> Self {
        Self::with_mode(high_water, SweepMode::Resync)
    }

    /// An empty queue sweeping to a `ReplayNeeded{shard}` marker on
    /// overflow (the backlog is retained in that shard's update log).
    pub fn new_replay(high_water: usize, shard: u32) -> Self {
        Self::with_mode(high_water, SweepMode::Replay { shard })
    }

    fn with_mode(high_water: usize, sweep: SweepMode) -> Self {
        Self {
            queue: VecDeque::new(),
            high_water: high_water.max(2),
            sweep,
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

    /// Whether a not-yet-delivered recovery marker (`ResyncRequired` or
    /// `ReplayNeeded`) is queued. Used for marker accounting: a sweep
    /// that folds into an existing marker did not send a new one.
    pub fn has_pending_marker(&self) -> bool {
        self.queue.iter().any(|e| {
            matches!(
                e.event,
                DlmEvent::ResyncRequired { .. } | DlmEvent::ReplayNeeded { .. }
            )
        })
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
                        // A pending resync marker already covers any
                        // state change to its OIDs.
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
            DlmEvent::CursorAck { shard, seqno } => {
                // Writer-synthesized, normally never queued; defensively
                // keep only the highest ack per shard.
                for queued in self.queue.iter_mut() {
                    match &mut queued.event {
                        DlmEvent::CursorAck { shard: s, seqno: q } if s == shard => {
                            *q = (*q).max(*seqno);
                            return Pushed::Coalesced;
                        }
                        _ => {}
                    }
                }
            }
            DlmEvent::Lagging => {
                // One staleness signal is as good as ten.
                if self
                    .queue
                    .iter()
                    .any(|q| matches!(q.event, DlmEvent::Lagging))
                {
                    return Pushed::Coalesced;
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
            DlmEvent::Marked { .. } | DlmEvent::Ready { .. } | DlmEvent::Batch(_) => {}
        }
        self.queue.push_back(Entry { event, seqno });
        Pushed::Queued
    }

    /// Replace everything queued with a single recovery marker: a
    /// `ResyncRequired` covering every swept OID (resync mode), or a
    /// `ReplayNeeded` pointing at the log (replay mode).
    fn sweep_to_marker(&mut self) {
        match self.sweep {
            SweepMode::Resync => {
                let mut oids: Vec<Oid> = Vec::new();
                let mut add = |oid: Oid| {
                    if !oids.contains(&oid) {
                        oids.push(oid);
                    }
                };
                for entry in self.queue.drain(..) {
                    match entry.event {
                        DlmEvent::Updated(info) => add(info.oid),
                        DlmEvent::Marked { oid, .. }
                        | DlmEvent::Resolved { oid, .. }
                        | DlmEvent::Delta { oid, .. } => add(oid),
                        DlmEvent::ResyncRequired { oids: swept } => {
                            swept.into_iter().for_each(&mut add)
                        }
                        DlmEvent::Ready { .. }
                        | DlmEvent::Lagging
                        | DlmEvent::Batch(_)
                        | DlmEvent::CursorAck { .. }
                        | DlmEvent::ReplayNeeded { .. } => {}
                    }
                }
                oids.sort_unstable();
                self.queue.push_back(Entry {
                    event: DlmEvent::ResyncRequired { oids },
                    seqno: 0,
                });
            }
            SweepMode::Replay { shard } => {
                // The swept backlog lives in the update log; `from` is
                // the highest swept seqno, for diagnostics only (the
                // client replays from its own cursor).
                let mut from = 0u64;
                for entry in self.queue.drain(..) {
                    from = from.max(entry.seqno);
                    if let DlmEvent::ReplayNeeded { from: f, .. } = entry.event {
                        from = from.max(f);
                    }
                }
                self.queue.push_back(Entry {
                    event: DlmEvent::ReplayNeeded { shard, from },
                    seqno: 0,
                });
            }
        }
    }

    /// Every OID the queued events reference (diagnostics/tests).
    pub fn pending_oids(&self) -> Vec<Oid> {
        let mut oids: Vec<Oid> = Vec::new();
        for entry in &self.queue {
            match &entry.event {
                DlmEvent::Updated(info) => oids.push(info.oid),
                DlmEvent::Marked { oid, .. }
                | DlmEvent::Resolved { oid, .. }
                | DlmEvent::Delta { oid, .. } => oids.push(*oid),
                DlmEvent::ResyncRequired { oids: r } => oids.extend(r.iter().copied()),
                DlmEvent::Ready { .. }
                | DlmEvent::Lagging
                | DlmEvent::Batch(_)
                | DlmEvent::CursorAck { .. }
                | DlmEvent::ReplayNeeded { .. } => {}
            }
        }
        oids.sort_unstable();
        oids.dedup();
        oids
    }
}

struct OutboxState {
    queue: CoalescingQueue,
    /// Consecutive high-water sweeps without the queue draining.
    consecutive_overflows: u32,
    /// Resync-only mode (slow consumer). Sticky until the queue drains.
    lagging: bool,
    /// Replay mode only: the backlog was swept to a `ReplayNeeded`
    /// marker; further live deliveries are dropped (the update log
    /// covers them) until [`OutboxSink`]'s `replay_restore` runs when
    /// the client comes back with `ReplayFrom{cursor}`.
    replay_pending: bool,
    /// Highest log seqno handed to this outbox whose effect will reach
    /// the client (queued, coalesced into a newer entry, or marked
    /// current after replay). Dropped-while-replay-pending events do
    /// NOT advance it.
    last_seqno: u64,
    /// Highest seqno already acknowledged to the client via `CursorAck`.
    last_acked: u64,
    /// Writer asked to exit (client unregistered / server shutdown).
    shutdown: bool,
    /// The inner sink failed; all further deliveries are refused.
    dead: bool,
    /// The writer has popped a batch it has not yet handed to the inner
    /// sink. Drainers must treat this as undelivered work: an empty
    /// queue alone does not mean the tail reached the client.
    in_flight: bool,
}

struct OutboxShared {
    state: OrderedMutex<OutboxState>,
    /// Wakes the writer (work queued or shutdown).
    work: OrderedCondvar,
    /// Wakes drainers (queue just emptied or writer exited).
    idle: OrderedCondvar,
    config: OverloadConfig,
    stats: OverloadStats,
    /// Per-outbox queue depth (current + high water). The shared
    /// [`OverloadStats::queue_depth`] gauge interleaves `set` calls
    /// across all outboxes, so only its high-water side is meaningful
    /// fleet-wide; this one is exact for this client.
    depth: Gauge,
    /// The DLM shard this outbox drains: stamped on the `CursorAck`s the
    /// writer mints and the `ReplayNeeded` markers a sweep leaves, so
    /// the client can tell the shards' seqno spaces apart.
    shard: u32,
    /// Cursor catch-up enabled: overflow sweeps to `ReplayNeeded` and
    /// the writer emits `CursorAck` on drain-to-empty.
    replay: bool,
    /// Invoked (outside every lock) with each cursor the writer just
    /// acknowledged to the client — the durable-frontier spill hook
    /// (DESIGN.md § 14). The callback sees acks in the order the writer
    /// emitted them and may block on I/O.
    recorder: Option<Arc<dyn Fn(u64) + Send + Sync>>,
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
    /// With `replay` set (the shard retains an update log), overflow
    /// sweeps to a `ReplayNeeded{shard}` marker and the writer
    /// acknowledges delivered seqnos with `CursorAck{shard}` whenever
    /// the queue drains empty; without it overflow sweeps to a
    /// `ResyncRequired`. Every `CursorAck` the writer emits is reported
    /// to `recorder` after the carrying frame reached the inner sink,
    /// outside all outbox locks — the durable DLM passes a closure
    /// spilling the cursor to the segment log so the client's frontier
    /// survives a restart.
    pub fn wrap(
        inner: Arc<dyn EventSink>,
        shard: u32,
        config: OverloadConfig,
        stats: OverloadStats,
        replay: bool,
        recorder: Option<Arc<dyn Fn(u64) + Send + Sync>>,
    ) -> Arc<Self> {
        let queue = if replay {
            CoalescingQueue::new_replay(config.outbox_high_water, shard)
        } else {
            CoalescingQueue::new(config.outbox_high_water)
        };
        let shared = Arc::new(OutboxShared {
            state: OrderedMutex::new(
                ranks::OUTBOX_STATE,
                OutboxState {
                    queue,
                    consecutive_overflows: 0,
                    lagging: false,
                    replay_pending: false,
                    last_seqno: 0,
                    last_acked: 0,
                    shutdown: false,
                    dead: false,
                    in_flight: false,
                },
            ),
            work: OrderedCondvar::new(),
            idle: OrderedCondvar::new(),
            config,
            stats,
            depth: Gauge::new(),
            shard,
            replay,
            recorder,
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

    /// Exact per-outbox depth gauge (current + high water).
    pub fn depth_stats(&self) -> &Gauge {
        &self.shared.depth
    }

    /// Whether the client is demoted to resync-only mode.
    pub fn is_lagging(&self) -> bool {
        self.shared.state.lock().lagging
    }

    /// Whether a `ReplayNeeded` sweep is awaiting the client's
    /// `ReplayFrom` (replay mode only).
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
            // update log retains everything since: drop the event and
            // count it as coalesced into the pending marker. The
            // seqno is deliberately NOT acknowledged — the client
            // learns it through replay.
            stats.coalesced.inc();
            return Ok(());
        }
        // Marker accounting (satellite fix for the drift between
        // `resyncs_sent` and what clients actually receive): a push or
        // sweep only *sends* a new marker when none was already queued
        // — folding into a pending marker must not count twice.
        let had_marker = state.queue.has_pending_marker();
        let mut pushed_marker = false;
        let pushed = if state.lagging && !self.shared.replay {
            // Resync-only mode: fold the event's objects into the
            // pending marker instead of growing a backlog.
            match to_resync_marker(&event) {
                Some(marker) => {
                    pushed_marker = true;
                    state.queue.push_seq(marker, seqno)
                }
                None => state.queue.push_seq(event, seqno),
            }
        } else {
            state.queue.push_seq(event, seqno)
        };
        match pushed {
            Pushed::Queued => {
                if pushed_marker && !had_marker {
                    stats.resyncs_sent.inc();
                }
            }
            Pushed::Coalesced => stats.coalesced.inc(),
            Pushed::Cancelled => stats.cancelled_pairs.inc(),
            Pushed::Overflowed => {
                stats.overflows.inc();
                state.consecutive_overflows += 1;
                if self.shared.replay {
                    // The sweep left a ReplayNeeded marker; everything
                    // until the client replays is covered by the log.
                    // Swept seqnos reach the client only via the replay,
                    // and the ack frontier never claimed them: it only
                    // advances through `advance_frontier`, after a whole
                    // commit is enqueued, and replay-pending blocks even
                    // that until the client's `ReplayFrom` restores us.
                    state.replay_pending = true;
                } else if !had_marker {
                    stats.resyncs_sent.inc();
                }
                if !state.lagging
                    && state.consecutive_overflows >= self.shared.config.lagging_after_overflows
                {
                    state.lagging = true;
                    stats.lagging_transitions.inc();
                    // Queued after the marker: the client recovers, then
                    // learns it is lagging.
                    state.queue.push(DlmEvent::Lagging);
                }
            }
        }
        // Shared gauge: the high-water side is a monotonic max across
        // all outboxes, which is the quantity the experiments report.
        stats.queue_depth.set(state.queue.len() as u64);
        self.shared.depth.set(state.queue.len() as u64);
        drop(state);
        self.shared.work.notify_one();
        Ok(())
    }

    /// Block until the queue is flushed to the inner sink or `timeout`
    /// elapses; returns whether it flushed. Used by server shutdown to
    /// give healthy clients their tail notifications without letting a
    /// stalled one wedge the process.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.state.lock();
        loop {
            let flushed = state.queue.is_empty() && !state.in_flight;
            if flushed || state.dead {
                return flushed;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            if self
                .shared
                .idle
                .wait_for(&mut state, deadline - now)
                .timed_out()
            {
                return state.queue.is_empty() && !state.in_flight;
            }
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
        // Only the exact per-outbox gauge: a replay burst is controlled
        // catch-up, not fleet-wide backpressure evidence.
        self.shared.depth.set(state.queue.len() as u64);
        drop(state);
        self.shared.work.notify_one();
        Ok(())
    }

    fn replay_restore(&self) {
        let mut state = self.shared.state.lock();
        state.replay_pending = false;
        state.lagging = false;
        state.consecutive_overflows = 0;
        // Satellite fix: the storm's high-water marks describe the
        // overload, not the recovered client — reset them so
        // post-recovery gauges start clean.
        self.shared.stats.queue_depth.reset_high_water();
        self.shared.depth.reset_high_water();
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
            .field("lagging", &state.lagging)
            .field("dead", &state.dead)
            .finish()
    }
}

/// The resync-only rendering of an event, if it carries object state.
fn to_resync_marker(event: &DlmEvent) -> Option<DlmEvent> {
    match event {
        DlmEvent::Updated(info) => Some(DlmEvent::ResyncRequired {
            oids: vec![info.oid],
        }),
        DlmEvent::Marked { oid, .. }
        | DlmEvent::Resolved { oid, .. }
        | DlmEvent::Delta { oid, .. } => Some(DlmEvent::ResyncRequired { oids: vec![*oid] }),
        DlmEvent::Ready { .. }
        | DlmEvent::Lagging
        | DlmEvent::ResyncRequired { .. }
        | DlmEvent::Batch(_)
        | DlmEvent::CursorAck { .. }
        | DlmEvent::ReplayNeeded { .. } => None,
    }
}

fn writer_loop(shared: &Arc<OutboxShared>, inner: &Arc<dyn EventSink>) {
    let batch_max = shared.config.outbox_batch_max.max(1);
    loop {
        let (event, acked) = {
            let mut state = shared.state.lock();
            loop {
                if state.shutdown {
                    shared.idle.notify_all();
                    return;
                }
                // A cursor ack is due once every delivered seqno will
                // have reached the wire — i.e. the queue is about to be
                // fully drained and nothing is replay-pending.
                let ack_due =
                    shared.replay && !state.replay_pending && state.last_seqno > state.last_acked;
                if !state.queue.is_empty() || ack_due {
                    // Drain everything pending (up to the batch cap) in
                    // one wake: a consumer that fell behind receives its
                    // backlog as a single wire frame instead of one
                    // frame per event.
                    let mut acked = None;
                    let mut events = Vec::new();
                    while events.len() < batch_max {
                        match state.queue.pop() {
                            Some(e) => events.push(e),
                            None => break,
                        }
                    }
                    if state.queue.is_empty() {
                        // Fully drained: the consumer caught up, so
                        // forgive its overflow history — unless a sweep
                        // is awaiting the client's replay, in which case
                        // the drained "queue" was just the marker.
                        if !state.replay_pending {
                            state.consecutive_overflows = 0;
                            state.lagging = false;
                            if shared.replay && state.last_seqno > state.last_acked {
                                // Everything enqueued through last_seqno
                                // rides this very frame: acknowledge the
                                // cursor as its final event.
                                state.last_acked = state.last_seqno;
                                acked = Some(state.last_acked);
                                events.push(DlmEvent::CursorAck {
                                    shard: shared.shard,
                                    seqno: state.last_acked,
                                });
                            }
                        }
                    }
                    if events.is_empty() {
                        // Raced: ack was due but replay_pending flipped,
                        // or a spurious wake. Go back to waiting.
                        shared.work.wait(&mut state);
                        continue;
                    }
                    state.in_flight = true;
                    shared.stats.queue_depth.set(state.queue.len() as u64);
                    shared.depth.set(state.queue.len() as u64);
                    let event = if events.len() == 1 {
                        events.pop().expect("one event")
                    } else {
                        shared.stats.batches_sent.inc();
                        DlmEvent::Batch(events)
                    };
                    break (event, acked);
                }
                shared.work.wait(&mut state);
            }
        };
        // The only potentially-blocking calls, outside every lock.
        event.record_stage(displaydb_common::trace::Stage::OutboxDrain);
        let delivered = inner.deliver(event).is_ok();
        if delivered {
            // The ack is on the wire: make the frontier durable. After a
            // failed delivery the client is dead and its next session
            // replays from the previously recorded cursor — strictly
            // more data, never less.
            if let (Some(cursor), Some(rec)) = (acked, shared.recorder.as_ref()) {
                rec(cursor);
            }
        }
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
    fn overflow_sweeps_to_single_resync() {
        let mut q = CoalescingQueue::new(4);
        for i in 0..4 {
            q.push(upd(i, 0));
        }
        assert_eq!(q.push(upd(99, 0)), Pushed::Overflowed);
        assert_eq!(q.len(), 1);
        match q.pop().unwrap() {
            DlmEvent::ResyncRequired { oids } => {
                assert_eq!(oids, vec![o(0), o(1), o(2), o(3), o(99)]);
            }
            other => panic!("expected resync marker, got {other:?}"),
        }
    }

    #[test]
    fn updates_fold_into_pending_resync_marker() {
        let mut q = CoalescingQueue::new(4);
        for i in 0..5 {
            q.push(upd(i, 0));
        }
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
    fn overflow_sweep_covers_delta_oids() {
        let mut q = CoalescingQueue::new(4);
        for i in 0..4 {
            q.push(delta(i, 1, &[(0, 0)]));
        }
        assert_eq!(q.push(delta(99, 1, &[(0, 0)])), Pushed::Overflowed);
        match q.pop().unwrap() {
            DlmEvent::ResyncRequired { oids } => {
                assert_eq!(oids, vec![o(0), o(1), o(2), o(3), o(99)]);
            }
            other => panic!("expected resync marker, got {other:?}"),
        }
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
        assert_eq!(q.pending_oids(), vec![o(1), o(2), o(3)]);
    }

    fn collecting_sink() -> (Arc<dyn EventSink>, crossbeam::channel::Receiver<DlmEvent>) {
        let (tx, rx) = unbounded();
        let f = move |e: DlmEvent| tx.send(e).map_err(|_| DbError::Disconnected);
        (Arc::new(f), rx)
    }

    /// An outbox with no update log behind it (overflow → resync sweep).
    fn resync_outbox(
        inner: Arc<dyn EventSink>,
        config: OverloadConfig,
        stats: OverloadStats,
    ) -> Arc<OutboxSink> {
        OutboxSink::wrap(inner, 0, config, stats, false, None)
    }

    /// Shard `SHARD`'s outbox with an update log behind it (overflow →
    /// `ReplayNeeded`, drain-to-empty → `CursorAck`).
    const SHARD: u32 = 2;
    fn replay_outbox(
        inner: Arc<dyn EventSink>,
        config: OverloadConfig,
        stats: OverloadStats,
    ) -> Arc<OutboxSink> {
        OutboxSink::wrap(inner, SHARD, config, stats, true, None)
    }

    fn quick_config(high_water: usize, lagging_after: u32) -> OverloadConfig {
        OverloadConfig {
            outbox_high_water: high_water,
            lagging_after_overflows: lagging_after,
            ..OverloadConfig::default()
        }
    }

    #[test]
    fn outbox_delivers_in_order() {
        let (inner, rx) = collecting_sink();
        let outbox = resync_outbox(inner, quick_config(64, 3), OverloadStats::new());
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
    fn stalled_consumer_overflows_then_demotes_to_lagging() {
        // An inner sink that blocks until released: the writer thread
        // wedges on the first event, everything else queues.
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
        let outbox = resync_outbox(inner, quick_config(8, 2), stats.clone());

        // Storm: far more updates than the high-water mark.
        for round in 0..4 {
            for i in 0..40u64 {
                outbox
                    .deliver(upd(i, round))
                    .expect("deliver must not block or fail");
            }
        }
        assert!(stats.overflows.get() >= 2, "storm must overflow");
        assert!(outbox.is_lagging(), "persistent overflow must demote");
        assert_eq!(stats.lagging_transitions.get(), 1);
        // Memory bound: depth never exceeds high-water + the marker.
        assert!(
            stats.queue_depth.high_water() <= 8 + 1,
            "depth {} breached the bound",
            stats.queue_depth.high_water()
        );

        // Release the consumer: it gets the first event (pre-stall),
        // then markers covering everything else, then Lagging — and the
        // drained outbox forgives the lag.
        {
            let (lock, cv) = &*gate;
            *lock.lock() = true;
            cv.notify_all();
        }
        assert!(outbox.drain(Duration::from_secs(5)), "must drain");
        assert!(!outbox.is_lagging(), "drain clears lagging mode");
        let got = flatten(rx.try_iter());
        assert!(got.iter().any(|e| matches!(e, DlmEvent::Lagging)));
        let resynced: Vec<Oid> = got
            .iter()
            .filter_map(|e| match e {
                DlmEvent::ResyncRequired { oids } => Some(oids.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        for i in 1..40u64 {
            assert!(resynced.contains(&o(i)), "oid {i} lost in the sweep");
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
        let outbox = resync_outbox(inner, quick_config(8, 2), OverloadStats::new());
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
        let outbox = resync_outbox(inner, quick_config(64, 3), stats.clone());
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
    fn replay_mode_overflow_sweeps_to_single_replay_needed() {
        let mut q = CoalescingQueue::new_replay(4, SHARD);
        for i in 0..4u64 {
            q.push_seq(upd(i, 0), i + 1);
        }
        assert_eq!(q.push_seq(upd(99, 0), 5), Pushed::Overflowed);
        assert_eq!(q.len(), 1);
        match q.pop().unwrap() {
            DlmEvent::ReplayNeeded { shard, from } => assert_eq!((shard, from), (SHARD, 5)),
            other => panic!("expected replay marker, got {other:?}"),
        }
        // A second sweep folds into the pending marker, keeping max from.
        for i in 0..5u64 {
            q.push_seq(upd(i, 0), i + 6);
        }
        assert!(q.has_pending_marker());
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
        let outbox = replay_outbox(inner, quick_config(4, 99), stats.clone());
        for i in 0..12u64 {
            outbox.deliver_logged(upd(i, 0), i + 1).unwrap();
        }
        assert!(stats.overflows.get() >= 1, "storm must overflow");
        assert!(outbox.is_replay_pending());
        assert_eq!(
            stats.resyncs_sent.get(),
            0,
            "replay mode must not send resync markers"
        );
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
            "replay mode must never fall back to resync markers on its own"
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
    fn cursor_ack_rides_drain_to_empty_and_is_not_repeated() {
        let (inner, rx) = collecting_sink();
        let outbox = replay_outbox(inner, quick_config(64, 3), OverloadStats::new());
        outbox.deliver_logged(upd(1, 1), 7).unwrap();
        outbox.advance_frontier(7);
        assert!(outbox.drain(Duration::from_secs(5)));
        // The ack is synthesized by the writer when the queue drains; it
        // may ride the same frame or a follow-up one.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut got = Vec::new();
        loop {
            got = flatten(got.into_iter().chain(rx.try_iter()));
            if got.iter().any(|e| {
                matches!(
                    e,
                    DlmEvent::CursorAck {
                        shard: SHARD,
                        seqno: 7
                    }
                )
            }) {
                break;
            }
            assert!(Instant::now() < deadline, "ack never arrived: {got:?}");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(got[0], upd(1, 1));
        // No further acks without new seqnos.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(rx.try_iter().count(), 0, "spurious repeat ack");
        // A control event (seqno 0) does not move the cursor: no new ack.
        outbox
            .deliver(DlmEvent::Ready {
                log_incarnations: vec![],
            })
            .unwrap();
        assert!(outbox.drain(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(50));
        let tail = flatten(rx.try_iter());
        assert!(
            !tail.iter().any(|e| matches!(e, DlmEvent::CursorAck { .. })),
            "control events must not be acknowledged: {tail:?}"
        );
    }

    #[test]
    fn swept_seqnos_are_not_acked_before_replay_returns_them() {
        // Overflow sweeps seqnos 1..=12 into a ReplayNeeded marker. The
        // writer must NOT acknowledge those seqnos when the marker
        // drains — the client has not seen them; only the replay (and
        // its mark_current_through) may advance the ack frontier.
        let (inner, rx) = collecting_sink();
        let stats = OverloadStats::new();
        let outbox = replay_outbox(inner, quick_config(4, 99), stats);
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
    fn lagging_resync_markers_count_once_per_episode() {
        // Resync mode, writer wedged: the first sweep queues one marker
        // and counts one resyncs_sent; every later fold into the still-
        // queued marker must not count again (the accounting-drift fix).
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
        let outbox = resync_outbox(inner, quick_config(4, 1), stats.clone());
        for round in 0..3 {
            for i in 0..20u64 {
                outbox.deliver(upd(i, round)).unwrap();
            }
        }
        assert!(outbox.is_lagging());
        assert_eq!(
            stats.resyncs_sent.get(),
            1,
            "one marker episode must count exactly one resync sent"
        );
        {
            let (lock, cv) = &*gate;
            *lock.lock() = true;
            cv.notify_all();
        }
        assert!(outbox.drain(Duration::from_secs(5)));
        let markers = flatten(rx.try_iter())
            .iter()
            .filter(|e| matches!(e, DlmEvent::ResyncRequired { .. }))
            .count();
        assert_eq!(
            markers as u64,
            stats.resyncs_sent.get(),
            "resyncs_sent must match the markers actually delivered"
        );
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
        let outbox = replay_outbox(inner, quick_config(4, 99), stats.clone());
        for i in 0..12u64 {
            outbox.deliver_logged(upd(i, 0), i + 1).unwrap();
        }
        assert!(stats.queue_depth.high_water() > 1);
        outbox.replay_restore();
        assert!(
            outbox.depth_stats().high_water() <= 1,
            "restore must reset the per-outbox high-water mark"
        );
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
        let outbox = resync_outbox(inner, quick_config(8, 2), OverloadStats::new());
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

        /// With a small high-water mark, memory stays bounded and every
        /// OID ever referenced is either delivered normally or covered
        /// by a resync marker — nothing is silently lost.
        #[test]
        fn prop_overflow_loses_nothing(inputs in proptest::collection::vec(arb_in(), 1..200)) {
            let mut q = CoalescingQueue::new(8);
            let mut drained = Vec::new();
            for i in &inputs {
                q.push(to_event(i));
                prop_assert!(q.len() <= 9, "queue depth {} breached the bound", q.len());
                // Drain opportunistically every few pushes to mimic a
                // consumer that is slow, not dead.
                if drained.len() % 3 == 0 {
                    if let Some(e) = q.pop() {
                        drained.push(e);
                    }
                }
            }
            while let Some(e) = q.pop() {
                drained.push(e);
            }
            let mut covered: std::collections::HashSet<u64> = Default::default();
            for e in &drained {
                match e {
                    DlmEvent::Updated(info) => { covered.insert(info.oid.raw()); }
                    DlmEvent::Marked { oid, .. }
                    | DlmEvent::Resolved { oid, .. }
                    | DlmEvent::Delta { oid, .. } => {
                        covered.insert(oid.raw());
                    }
                    DlmEvent::ResyncRequired { oids } => {
                        covered.extend(oids.iter().map(|o| o.raw()));
                    }
                    _ => {}
                }
            }
            for i in &inputs {
                let oid = match i {
                    In::Updated { oid, .. } | In::Marked { oid, .. } | In::Resolved { oid, .. }
                    | In::Delta { oid, .. } => *oid,
                };
                // A cancelled Marked/Resolved pair is legitimately
                // invisible; an Updated or Delta must always be covered.
                if matches!(i, In::Updated { .. } | In::Delta { .. }) {
                    prop_assert!(covered.contains(&oid), "state change to oid {oid} lost");
                }
            }
        }
    }
}
