//! The opt-in rate sweep: where `steady.delta`'s latency limit breaks,
//! and whether the default open-loop rate sits far enough below it.

use crate::measure::{probe, Windows};
use crate::workload::{Pacing, Workload, OPEN_RATE};
use std::path::Path;
use std::time::Duration;

/// The latency limit the sweep holds each rate to.
const LIMIT_P95_US: f64 = 2000.0;

const FRACTIONS: [f64; 4] = [0.25, 0.5, 0.75, 0.9];

/// Measure the closed-loop rate, then `steady.delta` at fractions of it.
/// `Ok(false)` when the default rate is more than half the knee.
pub fn run(seed: u64, settle: Duration, scratch: &Path) -> Result<bool, String> {
    let windows = Windows {
        settle,
        warmup: Duration::from_secs(2),
        measured: Duration::from_secs(10),
    };
    let at = |pacing| {
        probe(Workload::SteadyDelta, seed, pacing, windows, scratch).map_err(|e| e.to_string())
    };
    let saturated = at(Pacing::Closed)?.commits_per_s;
    println!("closed-loop commits_per_s {saturated:.1}");
    println!(
        "{:>10} {:>12} {:>16} {:>16} {:>16} {:>7}",
        "fraction", "offered 1/s", "refresh_p50_us", "refresh_p95_us", "gen_late_p99_us", "failed"
    );
    let mut max_rate_under_limit = 0;
    for fraction in FRACTIONS {
        let per_second = ((saturated * fraction) as u64).max(1);
        let p = at(Pacing::Open { per_second })?;
        let p95_us = p.refresh.p95 as f64 / 1e3;
        println!(
            "{fraction:>10.2} {per_second:>12} {:>16.1} {p95_us:>16.1} {:>16.1} {:>7}",
            p.refresh.p50 as f64 / 1e3,
            p.gen_late_p99_us,
            p.failed
        );
        if p95_us <= LIMIT_P95_US && p.failed == 0 {
            max_rate_under_limit = per_second;
        }
    }
    println!("max_rate_under_limit {max_rate_under_limit} 1/s (refresh_p95_us <= {LIMIT_P95_US})");
    let ok = OPEN_RATE * 2 <= max_rate_under_limit;
    println!(
        "default open-loop rate {OPEN_RATE} 1/s is {} half the knee",
        if ok { "at most" } else { "MORE THAN" }
    );
    Ok(ok)
}
