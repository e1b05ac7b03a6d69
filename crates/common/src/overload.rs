//! Overload-protection policy knobs shared by the DLM, the server
//! session layer, and the client DLC.
//!
//! The notification pipeline (DESIGN.md § 9) bounds its memory and
//! isolates slow consumers with three mechanisms, each governed by one
//! field here:
//!
//! * **bounded outboxes** — every client sink is wrapped in an outbox
//!   whose queue never exceeds [`OverloadConfig::outbox_high_water`]
//!   entries; a dedicated writer thread drains it so a blocked send
//!   never runs inside the fan-out loop,
//! * **overflow-to-replay** — on hitting the high-water mark the queue
//!   is swept into a single `ReplayNeeded{shard}` marker and the client
//!   catches up from that shard's update log ([`UpdateLogConfig`]), so
//!   an outbox holds O(1) events during a stall, not O(update rate ×
//!   stall time),
//! * **admission control** — the server sheds requests beyond
//!   [`OverloadConfig::max_in_flight`] concurrent ones per session with
//!   a retryable `Overloaded` error.

use std::time::Duration;

/// Tuning for the overload-protection layer. `Copy` so it can ride
/// inside the existing `Copy` config structs (e.g. the DLM's).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverloadConfig {
    /// Maximum events queued in one client outbox before the queue is
    /// swept into a single `ReplayNeeded` marker.
    ///
    /// Default 64: a display tracking N objects needs at most one
    /// `Updated` per object after coalescing, so 64 covers a generously
    /// sized window before one catch-up from the update log becomes
    /// cheaper than carrying the backlog.
    pub outbox_high_water: usize,
    /// Maximum concurrent in-flight requests per server session before
    /// admission control sheds with `Overloaded`. Default 32: far above
    /// what one interactive client pipelines legitimately, low enough
    /// to stop a runaway loop from holding a thread per blocked request.
    pub max_in_flight: usize,
    /// How long server shutdown waits for each outbox to flush before
    /// closing the session anyway. Default 500 ms: long enough for a
    /// healthy client's queue, short enough that a stalled client
    /// cannot wedge shutdown.
    pub drain_timeout: Duration,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        Self {
            outbox_high_water: 64,
            max_in_flight: 32,
            drain_timeout: Duration::from_millis(500),
        }
    }
}

/// Sizing for the DLM's bounded, replayable update log (DESIGN.md § 13).
///
/// Every committed notification batch is appended to a ring with a
/// monotonic seqno before fan-out; reconnecting clients and clients
/// whose outbox overflowed catch up by replaying the suffix past their
/// cursor instead of re-reading every watched object. Both caps evict
/// from the front: the log holds the most recent `max_entries` commits
/// or 4 MiB of estimated payload (a constant of the DLM's log), whichever
/// bound bites first. A cursor that has been evicted falls back to
/// `ResyncRequired`. The log is always on: a zero is read as 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateLogConfig {
    /// Maximum retained log entries (one entry per committed batch).
    pub max_entries: usize,
}

impl Default for UpdateLogConfig {
    fn default() -> Self {
        Self {
            // 4096 commits / 4 MiB: at the paper's 200 updates/s storm
            // rate this retains ~20 s of history — far past the
            // reconnect backoff window — while bounding memory to a few
            // MiB per DLM shard.
            max_entries: 4096,
        }
    }
}

impl UpdateLogConfig {
    /// Defaults (documented per-field above).
    pub fn new() -> Self {
        Self::default()
    }
}

impl OverloadConfig {
    /// Defaults (documented per-field above).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Sizing for the durable spill of the update log (DESIGN.md § 14).
///
/// When enabled, every committed notification batch appended to the
/// in-memory ring is also framed, checksummed, and appended to a
/// dedicated segment log under the server's data directory, together
/// with the log incarnation id. After a restart the server rebuilds the
/// replay window from the durable tail, so reconnecting clients with live
/// cursors get interest-filtered `ReplayFrom` instead of a full-fleet
/// resync storm.
///
/// **Off by default**: with the spill disabled the incarnation id is
/// minted fresh per process and a restart re-baselines every cursor —
/// exactly the pre-durability behaviour. The data directory itself is
/// not part of this config (it stays `Copy`); the server passes its own
/// `data_dir` when opening the segment log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DurableLogConfig {
    /// Master switch. `false` keeps the update log memory-only.
    pub enabled: bool,
    /// Target size of one segment file before rotating to a new one.
    /// Smaller segments retire (and reclaim) faster; larger ones sync
    /// and scan with less per-file overhead.
    pub segment_bytes: u64,
    /// Total durable budget across all retained segments. When appends
    /// push past this, whole oldest segments are deleted — retention is
    /// always a contiguous suffix of the seqno space, mirroring the
    /// in-memory ring's front eviction.
    pub max_total_bytes: u64,
    /// Sync the active segment after this many appended records (1 =
    /// sync every record; large values amortize the fsync over a burst
    /// and rely on the rotation/shutdown syncs to bound the window).
    pub sync_every: u32,
}

impl Default for DurableLogConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            // 256 KiB segments / 4 MiB budget: matches the in-memory
            // ring's byte cap so the durable window is never the
            // (much) shorter of the two, while keeping ≥16 segments so
            // whole-segment retention stays fine-grained.
            segment_bytes: 256 << 10,
            max_total_bytes: 4 << 20,
            sync_every: 8,
        }
    }
}

impl DurableLogConfig {
    /// Defaults with the spill turned **off**.
    pub fn new() -> Self {
        Self::default()
    }

    /// Defaults with the spill turned on.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// Whether this config actually spills anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled && self.segment_bytes > 0 && self.max_total_bytes > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = OverloadConfig::default();
        assert!(c.outbox_high_water >= 2, "need room to coalesce");
        assert!(c.max_in_flight >= 1);
        assert!(c.drain_timeout > Duration::ZERO);
    }

    #[test]
    fn update_log_defaults() {
        let l = UpdateLogConfig::default();
        assert!(l.max_entries >= 64, "must outlast a reconnect window");
    }

    #[test]
    fn durable_log_defaults_off_and_sane_when_on() {
        let d = DurableLogConfig::default();
        assert!(!d.is_enabled(), "durable spill must be opt-in");
        let on = DurableLogConfig::enabled();
        assert!(on.is_enabled());
        assert!(on.segment_bytes > 0 && on.max_total_bytes >= on.segment_bytes);
        assert!(on.sync_every >= 1);
    }
}
