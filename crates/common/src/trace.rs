//! End-to-end notification-path tracing (DESIGN.md § 12).
//!
//! The paper's performance claims are about the *notification path* —
//! commit → display-lock intersect → outbox → wire → DLC apply — and
//! this module lets one committed update be followed across every hop.
//! A [`TraceId`] is minted at the committing client, carried through the
//! wire protocols (`Request::Commit`, `UpdateInfo`, `DlmEvent::Delta`),
//! and each subsystem records a `(trace_id, stage, t)` triple into a
//! global ring-buffered sink as the update passes through.
//!
//! ## Overhead policy
//!
//! Tracing is **off by default** and the disabled path is one relaxed
//! atomic load per call site — cheap enough to leave the record calls
//! compiled into release hot paths, which is what keeps `benchmark/`'s
//! untraced pass honest. When disabled, nothing is buffered and fresh trace
//! ids are not minted (untraced messages carry id 0, one varint byte on
//! the wire).
//!
//! ## Locking
//!
//! The sink's ring buffer sits behind an [`OrderedMutex`] at rank
//! [`ranks::TRACE_SINK`] — the highest rank in the hierarchy, because a
//! stage may be recorded while holding any other lock in the system
//! (outbox state during a drain, a wire writer during a send). The
//! invcheck linter and the runtime audit both see it like every other
//! ranked lock.

use crate::sync::{ranks, OrderedMutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Correlates one committed update across pipeline stages. `0` means
/// "untraced" and is never recorded.
pub type TraceId = u64;

/// A pipeline stage on the notification path, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// The write committed (server commit path, or the committing
    /// client's report in the agent deployment).
    Commit,
    /// The DLM intersected the commit with registered interests.
    Intersect,
    /// The event entered a per-client outbox queue.
    OutboxEnqueue,
    /// The outbox writer drained the event toward the wire.
    OutboxDrain,
    /// The encoded frame was handed to the transport.
    WireSend,
    /// The frame was decoded on the receiving client.
    WireRecv,
    /// The DLC applied the update (delta patch or invalidation
    /// dispatch) to the client's caches.
    DlcApply,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: &'static [Stage] = &[
        Stage::Commit,
        Stage::Intersect,
        Stage::OutboxEnqueue,
        Stage::OutboxDrain,
        Stage::WireSend,
        Stage::WireRecv,
        Stage::DlcApply,
    ];

    /// Stable snake_case name (reports).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Commit => "commit",
            Stage::Intersect => "intersect",
            Stage::OutboxEnqueue => "outbox_enqueue",
            Stage::OutboxDrain => "outbox_drain",
            Stage::WireSend => "wire_send",
            Stage::WireRecv => "wire_recv",
            Stage::DlcApply => "dlc_apply",
        }
    }
}

/// One recorded `(trace, stage, t)` triple. Timestamps are nanoseconds
/// since the process-wide trace epoch, so every event in one snapshot
/// is comparable and monotone wall-clock order is preserved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// The update's trace id.
    pub trace: TraceId,
    /// Which pipeline stage recorded it.
    pub stage: Stage,
    /// Nanoseconds since [`epoch`](self) initialization.
    pub t_ns: u64,
}

/// Default ring capacity: ~28 KiB, thousands of full 7-stage traces.
pub const DEFAULT_RING_CAPACITY: usize = 1024 * 7;

/// Fixed-capacity ring of trace events; old events are overwritten.
struct Ring {
    buf: Vec<TraceEvent>,
    /// Next write position once the ring has wrapped.
    head: usize,
    cap: usize,
    wrapped: bool,
}

impl Ring {
    const fn new() -> Self {
        Self {
            buf: Vec::new(),
            head: 0,
            cap: DEFAULT_RING_CAPACITY,
            wrapped: false,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
            return;
        }
        self.buf[self.head] = ev;
        self.head = (self.head + 1) % self.cap;
        self.wrapped = true;
    }

    fn snapshot(&self) -> Vec<TraceEvent> {
        if !self.wrapped {
            return self.buf.clone();
        }
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.wrapped = false;
    }
}

/// Enabled flag, checked with one relaxed load on every record call.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Monotonic trace-id source; `next_trace_id` never returns 0.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn sink() -> &'static OrderedMutex<Ring> {
    static SINK: OnceLock<OrderedMutex<Ring>> = OnceLock::new();
    SINK.get_or_init(|| OrderedMutex::new(ranks::TRACE_SINK, Ring::new()))
}

/// The process trace epoch: all timestamps are nanoseconds since this
/// instant, fixed the first time anything asks for the time.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (monotone).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turn tracing on with the given ring capacity (`0` keeps the current
/// capacity). Existing buffered events are kept.
pub fn enable(ring_capacity: usize) {
    if ring_capacity > 0 {
        let mut ring = sink().lock_or_recover();
        // Shrinking or growing restarts the ring; mixing two layouts
        // would scramble the chronological snapshot order.
        if ring.cap != ring_capacity {
            ring.clear();
            ring.cap = ring_capacity;
        }
    }
    ENABLED.store(true, Ordering::Release);
}

/// Turn tracing off. Already-buffered events remain readable until
/// [`clear`] (a report may still want them).
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether tracing is currently enabled.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drop every buffered event.
pub fn clear() {
    sink().lock_or_recover().clear();
}

/// Mint a fresh trace id, or 0 when tracing is disabled (callers stamp
/// messages with the result unconditionally; 0 means untraced).
pub fn next_trace_id() -> TraceId {
    if !is_enabled() {
        return 0;
    }
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Record `trace` passing through `stage` now. No-op (one relaxed
/// load) when tracing is disabled or the id is 0.
pub fn record(trace: TraceId, stage: Stage) {
    if trace == 0 || !is_enabled() {
        return;
    }
    let ev = TraceEvent {
        trace,
        stage,
        t_ns: now_ns(),
    };
    sink().lock_or_recover().push(ev);
}

/// Snapshot of the buffered events in chronological record order.
pub fn events() -> Vec<TraceEvent> {
    sink().lock_or_recover().snapshot()
}

/// Number of currently buffered events (tests assert 0 when disabled).
pub fn buffered() -> usize {
    sink().lock_or_recover().buf.len()
}

/// Per-stage timestamps of one trace: for each stage, the first time
/// that stage recorded the id (an update fanned out to several viewers
/// records client-side stages once per viewer; the breakdown follows
/// the first delivery).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSpan {
    /// The trace id.
    pub trace: TraceId,
    /// `(stage, t_ns)` pairs in pipeline-stage order.
    pub stages: Vec<(Stage, u64)>,
}

impl TraceSpan {
    /// Build the span of `trace` from an event snapshot.
    pub fn of(trace: TraceId, events: &[TraceEvent]) -> Self {
        let mut stages = Vec::new();
        for &stage in Stage::ALL {
            if let Some(e) = events
                .iter()
                .filter(|e| e.trace == trace && e.stage == stage)
                .min_by_key(|e| e.t_ns)
            {
                stages.push((stage, e.t_ns));
            }
        }
        Self { trace, stages }
    }

    /// Whether every stage in `required` is present.
    pub fn covers(&self, required: &[Stage]) -> bool {
        required
            .iter()
            .all(|r| self.stages.iter().any(|(s, _)| s == r))
    }

    /// Whether timestamps never decrease along the stage order.
    pub fn is_monotone(&self) -> bool {
        self.stages.windows(2).all(|w| w[0].1 <= w[1].1)
    }

    /// Nanoseconds between consecutive recorded stages:
    /// `(from, to, gap_ns)` triples. The gaps telescope to
    /// [`TraceSpan::total_ns`].
    pub fn gaps(&self) -> Vec<(Stage, Stage, u64)> {
        self.stages
            .windows(2)
            .map(|w| (w[0].0, w[1].0, w[1].1.saturating_sub(w[0].1)))
            .collect()
    }

    /// Nanoseconds from the first recorded stage to the last.
    pub fn total_ns(&self) -> u64 {
        match (self.stages.first(), self.stages.last()) {
            (Some(&(_, first)), Some(&(_, last))) => last.saturating_sub(first),
            _ => 0,
        }
    }
}

/// Aggregated per-stage latency breakdown over many traces: for each
/// consecutive stage pair that appeared, a [`LatencyRecorder`] of the
/// observed gaps (queue residence vs wire vs apply).
///
/// [`LatencyRecorder`]: crate::metrics::LatencyRecorder
#[derive(Debug, Default)]
pub struct StageBreakdown {
    /// `(from, to)` → recorder of gap latencies, in first-seen order.
    pub pairs: Vec<((Stage, Stage), crate::metrics::LatencyRecorder)>,
    /// End-to-end (first stage → last stage) per trace.
    pub end_to_end: crate::metrics::LatencyRecorder,
    /// Traces aggregated.
    pub traces: usize,
}

impl StageBreakdown {
    /// Aggregate every complete-enough trace in `events` (a trace
    /// counts once it recorded at least two stages).
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut ids: Vec<TraceId> = events.iter().map(|e| e.trace).collect();
        ids.sort_unstable();
        ids.dedup();
        let mut out = Self::default();
        for id in ids {
            let span = TraceSpan::of(id, events);
            if span.stages.len() < 2 {
                continue;
            }
            out.traces += 1;
            for (from, to, gap) in span.gaps() {
                let rec = match out.pairs.iter().find(|((f, t), _)| *f == from && *t == to) {
                    Some((_, rec)) => rec.clone(),
                    None => {
                        let rec = crate::metrics::LatencyRecorder::new();
                        out.pairs.push(((from, to), rec.clone()));
                        rec
                    }
                };
                rec.record(std::time::Duration::from_nanos(gap));
            }
            out.end_to_end
                .record(std::time::Duration::from_nanos(span.total_ns()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The sink is process-global; tests touching enable/disable state
    /// serialize on this.
    static GUARD: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing_and_mints_zero() {
        let _g = locked();
        disable();
        clear();
        assert_eq!(next_trace_id(), 0);
        record(123, Stage::Commit);
        record(0, Stage::Commit);
        assert_eq!(buffered(), 0);
        assert!(events().is_empty());
    }

    #[test]
    fn records_in_order_and_filters_by_trace() {
        let _g = locked();
        enable(0);
        clear();
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
        record(a, Stage::Commit);
        record(b, Stage::Commit);
        record(a, Stage::Intersect);
        record(a, Stage::DlcApply);
        let mine: Vec<_> = events().into_iter().filter(|e| e.trace == a).collect();
        assert_eq!(mine.len(), 3);
        assert!(mine.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        let span = TraceSpan::of(a, &events());
        assert!(span.covers(&[Stage::Commit, Stage::Intersect, Stage::DlcApply]));
        assert!(span.is_monotone());
        assert_eq!(span.gaps().len(), 2);
        disable();
        clear();
    }

    #[test]
    fn ring_overwrites_oldest() {
        let _g = locked();
        enable(8);
        clear();
        let id = next_trace_id();
        for _ in 0..20 {
            record(id, Stage::Commit);
        }
        assert_eq!(buffered(), 8);
        let evs = events();
        assert_eq!(evs.len(), 8);
        // Chronological order survives the wrap.
        assert!(evs.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        disable();
        clear();
        enable(DEFAULT_RING_CAPACITY);
        disable();
    }

    #[test]
    fn stage_names_are_distinct() {
        let names: std::collections::HashSet<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), Stage::ALL.len());
    }

    #[test]
    fn breakdown_aggregates_gaps() {
        let events = vec![
            TraceEvent {
                trace: 900_001,
                stage: Stage::Commit,
                t_ns: 100,
            },
            TraceEvent {
                trace: 900_001,
                stage: Stage::Intersect,
                t_ns: 150,
            },
            TraceEvent {
                trace: 900_001,
                stage: Stage::DlcApply,
                t_ns: 400,
            },
            TraceEvent {
                trace: 900_002,
                stage: Stage::Commit,
                t_ns: 500,
            },
            TraceEvent {
                trace: 900_002,
                stage: Stage::Intersect,
                t_ns: 540,
            },
            // A lone-stage trace is skipped.
            TraceEvent {
                trace: 900_003,
                stage: Stage::Commit,
                t_ns: 600,
            },
        ];
        let b = StageBreakdown::from_events(&events);
        assert_eq!(b.traces, 2);
        let ci = b
            .pairs
            .iter()
            .find(|((f, t), _)| *f == Stage::Commit && *t == Stage::Intersect)
            .map(|(_, r)| r)
            .unwrap();
        assert_eq!(ci.len(), 2);
        assert_eq!(b.end_to_end.len(), 2);
        // Gaps telescope: per-stage sums equal the end-to-end span.
        let span = TraceSpan::of(900_001, &events);
        let sum: u64 = span.gaps().iter().map(|(_, _, g)| g).sum();
        assert_eq!(sum, span.total_ns());
    }
}
