//! The counts behind the R-series claims, asserted at quick scale.
//!
//! Each number below is a count — bytes, objects re-read, overlapping
//! wire waits — or a ratio of byte counts, and each fails at an exact
//! count or at the bound it names. E4, R1 and R2 carry their own
//! `assert!`s: running them is the check.
//!
//! One test, so the experiments run one after another: R5 hard-kills a
//! server and R6 switches the process-global trace ring on and off.

use displaydb_bench::experiments::{
    e4_propagation, r1_recovery, r2_overload, r3_delta, r4_replay, r5_restart, r6_shards,
};
use displaydb_bench::report::Metrics;
use displaydb_bench::Scale;

fn metric(m: &Metrics, key: &str) -> f64 {
    m.get(key)
        .unwrap_or_else(|| panic!("{}: no metric {key}", m.experiment))
}

#[test]
fn gated_experiment_counts_hold() {
    // E4: the paper's whole-object protocol; no delta may refresh it.
    e4_propagation::run(Scale::Quick);
    // R1: the supervisor recovers from every blip and restart.
    r1_recovery::run(Scale::Quick);
    // R2: the slow viewer converges by replay after the storm.
    r2_overload::run(Scale::Quick);

    // R3: 24 projected deltas at 16 B against 240 whole-object
    // `Updated` events at 6 B each, which coalescing can only lower.
    let (_, r3) = r3_delta::run_with_metrics(Scale::Quick);
    assert_eq!(metric(&r3, "delta_notify_bytes"), 384.0, "{r3:?}");
    assert!(metric(&r3, "baseline_notify_bytes") <= 1_440.0, "{r3:?}");
    assert!(metric(&r3, "bytes_reduction_x") >= 3.0, "{r3:?}");

    // R4: the server proves every unchanged copy by its fingerprint, so
    // both sides re-read exactly the changed slice, 4 viewers × 8 links,
    // whole: the links changed while no viewer held a projected lock, so
    // their log entries carry no attribute changes to replay as deltas.
    // The resync side is exact; the replay side depends on cursor-ack
    // timing, so it keeps a 25 % band over 8 392 B, plus the manifest's
    // 4 × 64 fingerprints at 8 B.
    let (_, r4) = r4_replay::run_with_metrics(Scale::Quick);
    assert_eq!(metric(&r4, "resync_objects_reread"), 32.0, "{r4:?}");
    assert_eq!(metric(&r4, "replay_objects_reread"), 32.0, "{r4:?}");
    assert_eq!(metric(&r4, "resync_recovery_bytes"), 9_756.0, "{r4:?}");
    assert!(
        metric(&r4, "replay_recovery_bytes") <= 10_490.0 + 2_048.0,
        "{r4:?}"
    );

    // R5: the same split across a hard kill and restart, 3 viewers × 6
    // links; the band is over 5 052 B, plus 3 × 48 fingerprints.
    let (_, r5) = r5_restart::run_with_metrics(Scale::Quick);
    assert_eq!(metric(&r5, "resync_objects_reread"), 18.0, "{r5:?}");
    assert_eq!(metric(&r5, "replay_objects_reread"), 18.0, "{r5:?}");
    assert_eq!(metric(&r5, "resync_recovery_bytes"), 5_871.0, "{r5:?}");
    assert!(
        metric(&r5, "replay_recovery_bytes") <= 6_315.0 + 1_152.0,
        "{r5:?}"
    );

    // R6: eight shards' outbox writers sleep on the simulated wire in
    // parallel; one shard's writer sleeps alone.
    let (_, r6) = r6_shards::run_with_metrics(Scale::Quick);
    assert!(metric(&r6, "sharded_peak_sleeps") >= 3.0, "{r6:?}");
    assert_eq!(metric(&r6, "single_peak_sleeps"), 1.0, "{r6:?}");
}
