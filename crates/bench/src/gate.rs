//! The CI bench gate: compares a fresh quick-scale run of the R-series
//! experiments against committed baseline JSON files and fails on
//! regressions.
//!
//! Rules:
//!
//! * metrics whose key ends in `_bytes` are "lower is better"; the gate
//!   fails when the current value exceeds the baseline by more than the
//!   tolerance (default 25%). They are deterministic at quick scale and
//!   committed exactly as measured. Timings (`_ms`) are not gated here:
//!   `benchmark/` against `BENCHMARK.json` is the only timing gate.
//! * R3 additionally requires `bytes_reduction_x >= 3`: the
//!   projection-aware notification path must keep at least a 3×
//!   bytes-on-wire reduction over whole-object watching.
//! * R4 additionally requires `recovery_bytes_reduction_x >= 5`: replay
//!   catch-up from a cursor must keep at least a 5× bytes-on-wire
//!   reduction over full resync during a mass-reconnect storm.
//! * R5 additionally requires `recovery_bytes_reduction_x >= 3`:
//!   durable cross-restart replay must keep at least a 3× bytes-on-wire
//!   reduction over restart-resync after a server hard kill.
//!
//! Counters without a gated suffix ride along in the JSON for human
//! inspection and artifact diffing but are not enforced.

use crate::report::Metrics;

/// Relative tolerance for gated metrics: fail above `baseline * (1 + t)`.
pub const TOLERANCE: f64 = 0.25;

/// Floor on the R3 bytes-on-wire reduction ratio.
pub const MIN_BYTES_REDUCTION: f64 = 3.0;

/// Floor on the R4 replay-vs-resync recovery bytes ratio.
pub const MIN_RECOVERY_BYTES_REDUCTION: f64 = 5.0;

/// Floor on the R5 cross-restart replay-vs-resync recovery bytes ratio.
/// Lower than R4's: a restarted server re-registers every reconnecting
/// copy it proves current from the durable window, so R5's replay
/// scenario pays manifest-proof overhead R4's live-server replay never
/// sees.
pub const MIN_RESTART_RECOVERY_BYTES_REDUCTION: f64 = 3.0;

/// Floor on the R6 sharded-vs-single notification throughput ratio: an
/// 8-way partitioned DLM must sustain at least 3× the single-table
/// fan-out rate against the latency-modeled wire. Well under the ideal
/// 8× so hash imbalance, shard-scope spawn overhead, and runner noise
/// do not flake the gate while a serialization regression still trips
/// it.
pub const MIN_SHARD_NOTIFY_SPEEDUP: f64 = 3.0;

/// Whether a metric key is gated (lower-is-better enforced).
pub fn is_gated(key: &str) -> bool {
    key.ends_with("_bytes")
}

/// Compare one experiment's current metrics against its baseline.
/// Returns human-readable failure descriptions (empty = pass).
pub fn regressions(current: &Metrics, baseline: &Metrics, tolerance: f64) -> Vec<String> {
    let mut out = Vec::new();
    for (key, base) in baseline.values() {
        if !is_gated(key) {
            continue;
        }
        let Some(now) = current.get(key) else {
            out.push(format!(
                "{}: gated metric {key} missing from current run",
                current.experiment
            ));
            continue;
        };
        let limit = base * (1.0 + tolerance);
        if now > limit {
            out.push(format!(
                "{}: {key} regressed: {now:.3} > {base:.3} +{:.0}% (limit {limit:.3})",
                current.experiment,
                tolerance * 100.0
            ));
        }
    }
    if current.experiment == "r3" {
        match current.get("bytes_reduction_x") {
            Some(x) if x >= MIN_BYTES_REDUCTION => {}
            Some(x) => out.push(format!(
                "r3: bytes_reduction_x {x:.2} below the required {MIN_BYTES_REDUCTION:.0}x"
            )),
            None => out.push("r3: bytes_reduction_x metric missing".into()),
        }
    }
    if current.experiment == "r4" {
        match current.get("recovery_bytes_reduction_x") {
            Some(x) if x >= MIN_RECOVERY_BYTES_REDUCTION => {}
            Some(x) => out.push(format!(
                "r4: recovery_bytes_reduction_x {x:.2} below the required \
                 {MIN_RECOVERY_BYTES_REDUCTION:.0}x"
            )),
            None => out.push("r4: recovery_bytes_reduction_x metric missing".into()),
        }
    }
    if current.experiment == "r5" {
        match current.get("recovery_bytes_reduction_x") {
            Some(x) if x >= MIN_RESTART_RECOVERY_BYTES_REDUCTION => {}
            Some(x) => out.push(format!(
                "r5: recovery_bytes_reduction_x {x:.2} below the required \
                 {MIN_RESTART_RECOVERY_BYTES_REDUCTION:.0}x"
            )),
            None => out.push("r5: recovery_bytes_reduction_x metric missing".into()),
        }
    }
    if current.experiment == "r6" {
        match current.get("notify_speedup_x") {
            Some(x) if x >= MIN_SHARD_NOTIFY_SPEEDUP => {}
            Some(x) => out.push(format!(
                "r6: notify_speedup_x {x:.2} below the required \
                 {MIN_SHARD_NOTIFY_SPEEDUP:.0}x"
            )),
            None => out.push("r6: notify_speedup_x metric missing".into()),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(experiment: &str, pairs: &[(&str, f64)]) -> Metrics {
        let mut out = Metrics::new(experiment);
        for (k, v) in pairs {
            out.put(*k, *v);
        }
        out
    }

    #[test]
    fn gated_suffixes() {
        assert!(is_gated("delta_notify_bytes"));
        assert!(!is_gated("notify_p95_ms"));
        assert!(!is_gated("events"));
        assert!(!is_gated("bytes_reduction_x"));
    }

    #[test]
    fn within_tolerance_passes() {
        let base = m("r2", &[("notify_bytes", 1000.0), ("events", 100.0)]);
        let now = m("r2", &[("notify_bytes", 1200.0), ("events", 500.0)]);
        assert!(regressions(&now, &base, TOLERANCE).is_empty());
    }

    #[test]
    fn over_tolerance_fails() {
        let base = m("r2", &[("notify_bytes", 1000.0), ("p95_ms", 10.0)]);
        let now = m("r2", &[("notify_bytes", 1260.0), ("p95_ms", 100.0)]);
        let fails = regressions(&now, &base, TOLERANCE);
        assert_eq!(fails.len(), 1, "timings are not gated: {fails:?}");
        assert!(fails[0].contains("notify_bytes"), "{fails:?}");
    }

    #[test]
    fn missing_gated_metric_fails() {
        let base = m("r2", &[("notify_bytes", 5.0)]);
        let now = m("r2", &[]);
        assert_eq!(regressions(&now, &base, TOLERANCE).len(), 1);
    }

    #[test]
    fn improvements_pass() {
        let base = m("r3", &[("delta_notify_bytes", 1000.0)]);
        let now = m(
            "r3",
            &[("delta_notify_bytes", 100.0), ("bytes_reduction_x", 8.0)],
        );
        assert!(regressions(&now, &base, TOLERANCE).is_empty());
    }

    #[test]
    fn r3_requires_bytes_reduction_floor() {
        let base = m("r3", &[]);
        let weak = m("r3", &[("bytes_reduction_x", 2.0)]);
        assert_eq!(regressions(&weak, &base, TOLERANCE).len(), 1);
        let missing = m("r3", &[]);
        assert_eq!(regressions(&missing, &base, TOLERANCE).len(), 1);
        let strong = m("r3", &[("bytes_reduction_x", 5.0)]);
        assert!(regressions(&strong, &base, TOLERANCE).is_empty());
    }

    #[test]
    fn r4_requires_recovery_bytes_reduction_floor() {
        let base = m("r4", &[]);
        let weak = m("r4", &[("recovery_bytes_reduction_x", 3.0)]);
        assert_eq!(regressions(&weak, &base, TOLERANCE).len(), 1);
        let missing = m("r4", &[]);
        assert_eq!(regressions(&missing, &base, TOLERANCE).len(), 1);
        let strong = m("r4", &[("recovery_bytes_reduction_x", 7.5)]);
        assert!(regressions(&strong, &base, TOLERANCE).is_empty());
    }

    #[test]
    fn r5_requires_restart_recovery_bytes_reduction_floor() {
        let base = m("r5", &[]);
        let weak = m("r5", &[("recovery_bytes_reduction_x", 2.0)]);
        assert_eq!(regressions(&weak, &base, TOLERANCE).len(), 1);
        let missing = m("r5", &[]);
        assert_eq!(regressions(&missing, &base, TOLERANCE).len(), 1);
        let strong = m("r5", &[("recovery_bytes_reduction_x", 4.0)]);
        assert!(regressions(&strong, &base, TOLERANCE).is_empty());
    }

    #[test]
    fn r6_requires_notify_speedup_floor() {
        let base = m("r6", &[]);
        let weak = m("r6", &[("notify_speedup_x", 1.5)]);
        assert_eq!(regressions(&weak, &base, TOLERANCE).len(), 1);
        let missing = m("r6", &[]);
        assert_eq!(regressions(&missing, &base, TOLERANCE).len(), 1);
        let strong = m("r6", &[("notify_speedup_x", 6.0)]);
        assert!(regressions(&strong, &base, TOLERANCE).is_empty());
    }
}
