//! Lightweight metrics: counters and latency recorders.
//!
//! The paper's evaluation (§ 4.3) is phrased in terms of *message counts*
//! (three messages on the post-commit refresh path, one with eager
//! shipping), *overheads* (server lock handling, client refresh cost) and
//! *latency* (1–2 s update propagation). These primitives let every
//! subsystem expose exactly those quantities to the experiment harness
//! without heavyweight dependencies.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shareable monotonic counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Create a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A shareable depth gauge: current value plus high-water mark.
///
/// Used for queue depths on the notification path, where the question is
/// both "how deep is it now" and "how deep did it ever get" (the latter
/// is what bounds memory claims in the overload experiments).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cur: Arc<AtomicU64>,
    max: Arc<AtomicU64>,
}

impl Gauge {
    /// Create a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one to the current depth, updating the high-water mark.
    pub fn inc(&self) {
        let now = self.cur.fetch_add(1, Ordering::Relaxed) + 1;
        self.max.fetch_max(now, Ordering::Relaxed);
    }

    /// Subtract one (saturating at zero).
    pub fn dec(&self) {
        let _ = self
            .cur
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Set the current depth outright, updating the high-water mark.
    pub fn set(&self, v: u64) {
        self.cur.store(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Add `delta`, which may be negative, updating the high-water mark:
    /// owners that each add the change in their own share keep the gauge
    /// at the sum of the shares.
    pub fn add(&self, delta: i64) {
        let now = self.cur.fetch_add(delta as u64, Ordering::Relaxed);
        self.max
            .fetch_max(now.wrapping_add(delta as u64), Ordering::Relaxed);
    }

    /// Current depth.
    pub fn get(&self) -> u64 {
        self.cur.load(Ordering::Relaxed)
    }

    /// Highest depth ever observed.
    pub fn high_water(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Restart the high-water mark from the current depth.
    ///
    /// Multi-phase experiments call this at phase boundaries so a
    /// warm-up phase's depth is not attributed to the measured phase.
    pub fn reset_high_water(&self) {
        self.max
            .store(self.cur.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Default reservoir capacity: enough for stable tail percentiles at
/// the harness's sample rates, small enough that a recorder never costs
/// more than ~64 KiB however long the run.
pub const RESERVOIR_CAP: usize = 8192;

/// Fixed default seed for the reservoir's PRNG. Deterministic on
/// purpose: two runs feeding identical sample streams retain identical
/// reservoirs, which keeps experiment output reproducible and lets
/// tests pin percentile results.
const RESERVOIR_SEED: u64 = 0x1996_0526; // the paper's conference year

/// Bounded sample store: Vitter's Algorithm R over a seeded inline
/// PRNG (splitmix64 — the workspace carries no runtime `rand`).
#[derive(Debug)]
struct Reservoir {
    samples: Vec<u64>,
    /// Total samples ever offered (`samples` keeps at most `cap`).
    seen: u64,
    cap: usize,
    rng: u64,
}

impl Reservoir {
    fn new(cap: usize, seed: u64) -> Self {
        Self {
            samples: Vec::new(),
            seen: 0,
            cap: cap.max(1),
            rng: seed,
        }
    }

    /// splitmix64 step: small, fast, and plenty uniform for sampling.
    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn offer(&mut self, sample: u64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(sample);
            return;
        }
        // Algorithm R: replace a random slot with probability cap/seen,
        // so every sample seen so far is retained equiprobably.
        let j = self.next_u64() % self.seen;
        if (j as usize) < self.cap {
            self.samples[j as usize] = sample;
        }
    }
}

/// Records latency samples and reports percentiles.
///
/// Samples are nanoseconds held in a **capped deterministic reservoir**
/// ([`RESERVOIR_CAP`] by default): recording is `O(1)` behind a mutex
/// and memory stays bounded however long the run, so a recorder can sit
/// on a hot path for hours without leaking. Replacement uses a seeded
/// inline PRNG — identical input streams always retain identical
/// samples. Reporting sorts a snapshot of the retained reservoir;
/// [`LatencySummary::count`] still reports the *total* recorded count.
#[derive(Clone, Debug)]
pub struct LatencyRecorder {
    inner: Arc<Mutex<Reservoir>>,
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyRecorder {
    /// Create an empty recorder with the default cap and seed.
    pub fn new() -> Self {
        Self::with_capacity(RESERVOIR_CAP)
    }

    /// Create an empty recorder retaining at most `cap` samples.
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_capacity_and_seed(cap, RESERVOIR_SEED)
    }

    /// Create an empty recorder with an explicit reservoir seed (tests
    /// pinning determinism).
    pub fn with_capacity_and_seed(cap: usize, seed: u64) -> Self {
        Self {
            inner: Arc::new(Mutex::new(Reservoir::new(cap, seed))),
        }
    }

    /// Record one duration.
    pub fn record(&self, d: Duration) {
        self.inner.lock().offer(d.as_nanos() as u64);
    }

    /// Time a closure and record its duration, returning its output.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(start.elapsed());
        out
    }

    /// Total number of samples ever recorded (not capped).
    pub fn len(&self) -> usize {
        self.inner.lock().seen as usize
    }

    /// Number of samples currently retained (≤ the reservoir cap).
    pub fn retained(&self) -> usize {
        self.inner.lock().samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove all samples and restart the total count (the PRNG state
    /// is deliberately left as-is; determinism is per recorder
    /// instance, not per clear).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.samples.clear();
        inner.seen = 0;
    }

    /// Copy of the retained samples in nanoseconds.
    pub fn samples(&self) -> Vec<u64> {
        self.inner.lock().samples.clone()
    }

    /// Absorb `other`'s retained samples (used to aggregate per-user
    /// reports). Merged samples pass through this recorder's reservoir,
    /// so the cap holds and the result is deterministic for a given
    /// merge order.
    pub fn merge_from(&self, other: &LatencyRecorder) {
        let incoming = other.samples();
        let mut inner = self.inner.lock();
        for s in incoming {
            inner.offer(s);
        }
    }

    /// Summarize the recorded samples. Returns `None` if empty.
    ///
    /// Percentiles use the **nearest-rank** definition: the p-th
    /// percentile of `n` sorted samples is the `ceil(p · n)`-th one, so
    /// p95 of 10 samples is the 10th (largest), never the 9th.
    pub fn summary(&self) -> Option<LatencySummary> {
        let (mut v, seen) = {
            let inner = self.inner.lock();
            (inner.samples.clone(), inner.seen)
        };
        if v.is_empty() {
            return None;
        }
        v.sort_unstable();
        let pick = |p: f64| -> Duration {
            let rank = (p * v.len() as f64).ceil() as usize;
            Duration::from_nanos(v[rank.clamp(1, v.len()) - 1])
        };
        let sum: u64 = v.iter().sum();
        Some(LatencySummary {
            count: seen as usize,
            min: Duration::from_nanos(v[0]),
            max: Duration::from_nanos(*v.last().unwrap()),
            mean: Duration::from_nanos(sum / v.len() as u64),
            p50: pick(0.50),
            p95: pick(0.95),
            p99: pick(0.99),
        })
    }
}

/// Percentile summary produced by [`LatencyRecorder::summary`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Smallest sample.
    pub min: Duration,
    /// Largest sample.
    pub max: Duration,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Median.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
}

impl LatencySummary {
    /// Render as `p50/p95/p99` in milliseconds with two decimals.
    pub fn fmt_ms(&self) -> String {
        format!(
            "{:.2}/{:.2}/{:.2}",
            self.p50.as_secs_f64() * 1e3,
            self.p95.as_secs_f64() * 1e3,
            self.p99.as_secs_f64() * 1e3
        )
    }
}

/// Counters for the connection-supervision / session-recovery path.
///
/// Shared (via `Clone`) between the connection supervisor, the resume
/// handshake, the DLC resync pass, and the display degradation logic, so
/// the experiment harness can report recovery behaviour alongside the
/// paper's message counts.
#[derive(Clone, Debug, Default)]
pub struct RecoveryStats {
    /// Reconnect attempts started (successful or not).
    pub reconnect_attempts: Counter,
    /// Reconnects that produced a live channel again.
    pub reconnects_ok: Counter,
    /// Sessions resumed with their prior identity (server accepted the
    /// resume token).
    pub sessions_resumed: Counter,
    /// Objects refreshed by post-reconnect resync (stale-list invalidation
    /// plus display-lock replay).
    pub resync_objects: Counter,
    /// Display objects marked stale while degraded.
    pub stale_marks: Counter,
    /// Reconnects that converged by replaying the update-log suffix past
    /// the client's cursor instead of a full resync.
    pub replay_catchups: Counter,
    /// Reconnects that fell back to full resync because the cursor had
    /// been truncated out of the DLM update log.
    pub replay_truncations: Counter,
    /// Resume attempts shed by the server's reconnect admission gate
    /// (retryable `Overloaded`; does not consume reconnect attempts).
    pub overload_sheds: Counter,
    /// Replay catch-ups that crossed a server/agent **restart**: the
    /// in-memory session died with the old process, but the durable
    /// update log (DESIGN.md § 14) still covered the client's cursor
    /// under the same log incarnation. Subset of `replay_catchups`.
    pub cross_restart_replays: Counter,
}

impl RecoveryStats {
    /// Create zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Counters for the DLM's bounded replayable update log (DESIGN.md § 13).
///
/// Shared (via `Clone`) between the log ring, the replay-serving path,
/// and the outboxes that are restored from replay.
#[derive(Clone, Debug, Default)]
pub struct UpdateLogStats {
    /// Entries appended (one per committed notification batch).
    pub appended: Counter,
    /// Entries evicted by the count or byte cap.
    pub evicted: Counter,
    /// Replay requests served from the log (cursor still retained).
    pub replays_served: Counter,
    /// Individual events streamed to clients by replay (post interest
    /// filtering, so a replayed entry a client never watched counts 0).
    pub replayed_events: Counter,
    /// Replay requests that could not be served because the cursor was
    /// truncated out of the log (each produces one `ResyncRequired`).
    pub truncated_replays: Counter,
    /// Current retained entries / high-water.
    pub log_entries: Gauge,
    /// Current retained estimated bytes / high-water.
    pub log_bytes: Gauge,
}

impl UpdateLogStats {
    /// Create zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Counters for the durable spill of the update log (DESIGN.md § 14).
///
/// Shared (via `Clone`) between the segment log, the update-log ring
/// that spills into it, and the server's startup recovery scan.
#[derive(Clone, Debug, Default)]
pub struct SegLogStats {
    /// Batch records appended to the durable log.
    pub records_appended: Counter,
    /// Explicit fsyncs of the active segment (every `sync_every`
    /// appends, plus rotation and shutdown).
    pub syncs: Counter,
    /// Segment files rotated (sealed and replaced by a fresh one).
    pub rotations: Counter,
    /// Whole segments deleted by the total-bytes retention budget.
    pub segments_retired: Counter,
    /// Batch records recovered by the startup scan.
    pub recovered_records: Counter,
    /// Torn or corrupt tails truncated during recovery (a clean
    /// shutdown recovers with zero of these).
    pub torn_tails_truncated: Counter,
    /// Current durable bytes across all retained segments of every shard
    /// log / high-water.
    pub durable_bytes: Gauge,
    /// Current retained segment files of every shard log / high-water.
    pub segments: Gauge,
}

impl SegLogStats {
    /// Create zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Counters for the overload-protection layer (DESIGN.md § 9).
///
/// Shared (via `Clone`) between the per-client outboxes, the server
/// session layer's admission control, and the DLC, so the experiment
/// harness can report backpressure behaviour under storm load.
#[derive(Clone, Debug, Default)]
pub struct OverloadStats {
    /// Events accepted into an outbox queue.
    pub enqueued: Counter,
    /// `Updated` events replaced in place by a newer one for the same
    /// OID (latest-state-wins coalescing).
    pub coalesced: Counter,
    /// `Marked`/`Resolved` pairs for the same (OID, txn) that cancelled
    /// out while still queued.
    pub cancelled_pairs: Counter,
    /// High-water sweeps: queue replaced by one `ReplayNeeded`.
    pub overflows: Counter,
    /// Requests shed by admission control with `Overloaded`.
    pub sheds: Counter,
    /// Resume handshakes shed by the reconnect admission gate (bounds a
    /// mass-reconnect storm; clients back off with jitter and retry).
    pub resume_sheds: Counter,
    /// Retries performed by clients after an `Overloaded` shed.
    pub overload_retries: Counter,
    /// Multi-event `Batch` frames sent by outbox writers (each replaces
    /// what would otherwise be several wire frames).
    pub batches_sent: Counter,
    /// Encoded bytes of notification traffic pushed toward clients
    /// (counted at the transport sink, after coalescing and batching).
    pub notify_bytes: Counter,
    /// Depth of the deepest outbox / subscriber queue (current and
    /// high-water): the memory-bound evidence.
    pub queue_depth: Gauge,
}

impl OverloadStats {
    /// Create zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn counter_is_shared_across_clones() {
        let a = Counter::new();
        let b = a.clone();
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_water(), 3);
        g.set(10);
        g.set(1);
        assert_eq!(g.get(), 1);
        assert_eq!(g.high_water(), 10);
        g.dec();
        g.dec(); // saturates at zero
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn latency_summary_percentiles() {
        let r = LatencyRecorder::new();
        for ms in 1..=100u64 {
            r.record(Duration::from_millis(ms));
        }
        let s = r.summary().unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, Duration::from_millis(1));
        assert_eq!(s.max, Duration::from_millis(100));
        // Nearest rank: p50 of 100 samples is the ceil(0.5*100)=50th.
        assert_eq!(s.p50, Duration::from_millis(50));
        assert_eq!(s.p95, Duration::from_millis(95));
        assert_eq!(s.p99, Duration::from_millis(99));
    }

    #[test]
    fn nearest_rank_small_sample_counts() {
        // The old `((n-1)*p).round()` picker returned the 9th of 10
        // samples for p95; nearest rank must return the 10th.
        let r = LatencyRecorder::new();
        for ms in 1..=10u64 {
            r.record(Duration::from_millis(ms));
        }
        let s = r.summary().unwrap();
        assert_eq!(s.p50, Duration::from_millis(5));
        assert_eq!(s.p95, Duration::from_millis(10));
        assert_eq!(s.p99, Duration::from_millis(10));
        // A single sample is every percentile.
        let one = LatencyRecorder::new();
        one.record(Duration::from_millis(7));
        let s = one.summary().unwrap();
        assert_eq!(s.p50, Duration::from_millis(7));
        assert_eq!(s.p95, Duration::from_millis(7));
        assert_eq!(s.p99, Duration::from_millis(7));
    }

    #[test]
    fn reservoir_bounds_memory() {
        // Regression for the unbounded-Vec leak: a multi-hour run's
        // worth of samples must not grow the recorder past its cap.
        let r = LatencyRecorder::with_capacity(64);
        for i in 0..10_000u64 {
            r.record(Duration::from_nanos(i));
        }
        assert_eq!(r.len(), 10_000);
        assert_eq!(r.retained(), 64);
        assert_eq!(r.samples().len(), 64);
        let s = r.summary().unwrap();
        assert_eq!(s.count, 10_000);
        assert!(s.max <= Duration::from_nanos(9_999));
    }

    #[test]
    fn reservoir_is_deterministic_under_pinned_seed() {
        let a = LatencyRecorder::with_capacity_and_seed(32, 42);
        let b = LatencyRecorder::with_capacity_and_seed(32, 42);
        for i in 0..5_000u64 {
            a.record(Duration::from_nanos(i * 3));
            b.record(Duration::from_nanos(i * 3));
        }
        assert_eq!(a.samples(), b.samples());
        assert_eq!(a.summary(), b.summary());
        // A different seed retains a different subset.
        let c = LatencyRecorder::with_capacity_and_seed(32, 43);
        for i in 0..5_000u64 {
            c.record(Duration::from_nanos(i * 3));
        }
        assert_ne!(a.samples(), c.samples());
    }

    #[test]
    fn merge_respects_cap_and_stays_deterministic() {
        let make_half = |seed: u64, base: u64| {
            let r = LatencyRecorder::with_capacity_and_seed(16, seed);
            for i in 0..1_000u64 {
                r.record(Duration::from_nanos(base + i));
            }
            r
        };
        let merge = || {
            let total = LatencyRecorder::with_capacity_and_seed(16, 7);
            total.merge_from(&make_half(1, 0));
            total.merge_from(&make_half(2, 1_000_000));
            total
        };
        let x = merge();
        let y = merge();
        assert_eq!(x.retained(), 16);
        assert_eq!(x.len(), 32); // 16 retained samples absorbed from each half
        assert_eq!(x.samples(), y.samples());
    }

    #[test]
    fn gauge_reset_high_water() {
        let g = Gauge::new();
        g.set(9); // warm-up depth
        g.set(2);
        assert_eq!(g.high_water(), 9);
        g.reset_high_water(); // phase boundary
        assert_eq!(g.high_water(), 2); // restarts from the current depth
        g.set(5);
        assert_eq!(g.high_water(), 5);
    }

    #[test]
    fn latency_empty_is_none() {
        let r = LatencyRecorder::new();
        assert!(r.summary().is_none());
        assert!(r.is_empty());
    }

    #[test]
    fn latency_time_closure() {
        let r = LatencyRecorder::new();
        let v = r.time(|| 21 * 2);
        assert_eq!(v, 42);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn summary_format() {
        let r = LatencyRecorder::new();
        r.record(Duration::from_millis(10));
        let s = r.summary().unwrap();
        assert_eq!(s.fmt_ms(), "10.00/10.00/10.00");
    }
}
