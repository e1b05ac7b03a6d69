//! E4 — update propagation time and message counts (§ 4.3).
//!
//! The paper: "the actual time between an update commit to the database
//! and its appearance on all relevant displays was in the order of 1 to
//! 2 seconds ... this propagation time includes the exchange of at least
//! three network messages: the DLM notification to the client, the
//! client request to the database server for the updated objects, and
//! the database server reply ... [eager shipping] could eliminate two of
//! the three messages."
//!
//! We run the pipeline over a latency-simulated network and measure
//! commit→screen time. The lazy protocol should cost ≈3 one-way
//! latencies, eager ≈1 — and with the paper-era LAN latency (~400 ms
//! effective per message, once mid-90s serialization and software stack
//! costs are folded in), the lazy path lands in the paper's 1–2 s band.
//!
//! The update side is stated the same way: the interval the person at
//! the updating screen cares about starts at their action, before
//! `begin()`. A transaction is the client's own until `commit()` ships
//! its write set in one request, so that interval is the commit request
//! (1) plus the propagation above: k = 4 lazy / 2 eager. (While the
//! server took `Begin`, `Write` and `Commit` as three RPCs it was 8 / 6.)

use crate::fixture::Bed;
use crate::report::Table;
use crate::Scale;
use displaydb_common::metrics::LatencyRecorder;
use displaydb_display::schema::DisplayClassBuilder;
use displaydb_display::{Display, DisplayCache};
use displaydb_dlm::DlmConfig;
use displaydb_schema::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run E4.
pub fn run(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "E4 — commit→display propagation vs network latency and protocol",
        "Paper: 1–2 s propagation = 3 messages (notify, read request, read reply); eager \
         shipping removes 2 of 3. Expected ≈ k×L + processing, k=3 lazy / k=1 eager from the \
         commit at the database; from the user's action (before begin()) the one commit \
         request adds 1: k=4 lazy / k=2 eager.",
        &[
            "one-way latency L",
            "interval",
            "protocol",
            "propagation p50 (ms)",
            "p95 (ms)",
            "expected k*L (ms)",
            "measured k",
        ],
    );
    let rounds = scale.pick(10usize, 25);
    let latencies: Vec<Duration> = match scale {
        Scale::Quick => vec![Duration::from_millis(5), Duration::from_millis(20)],
        Scale::Full => vec![
            Duration::from_millis(1),
            Duration::from_millis(5),
            Duration::from_millis(20),
            // Paper-era effective per-message cost: reproduces the 1–2 s
            // observation.
            Duration::from_millis(400),
        ],
    };

    for &latency in &latencies {
        // Fewer rounds at painful latencies.
        let rounds = if latency >= Duration::from_millis(100) {
            4
        } else {
            rounds
        };
        for eager in [false, true] {
            let [from_commit, from_action] = measure(latency, eager, rounds);
            let propagation = if eager { 1 } else { 3 };
            for (interval, recorder, k_expected) in [
                ("commit → display", from_commit, propagation),
                ("action → display", from_action, propagation + 1),
            ] {
                let summary = recorder.summary().expect("samples");
                let measured_k = summary.p50.as_secs_f64() / latency.as_secs_f64();
                t.row(vec![
                    format!("{} ms", latency.as_millis()),
                    interval.into(),
                    format!(
                        "{} ({k_expected} msg{})",
                        if eager {
                            "eager shipping"
                        } else {
                            "post-commit lazy"
                        },
                        if k_expected == 1 { "" } else { "s" }
                    ),
                    format!("{:.1}", summary.p50.as_secs_f64() * 1e3),
                    format!("{:.1}", summary.p95.as_secs_f64() * 1e3),
                    format!("{:.0}", f64::from(k_expected) * latency.as_secs_f64() * 1e3),
                    format!("{measured_k:.2}"),
                ]);
            }
        }
    }
    vec![t]
}

/// Measure commit→refresh and action→refresh latency over `rounds`
/// updates.
fn measure(latency: Duration, eager: bool, rounds: usize) -> [LatencyRecorder; 2] {
    // Async callbacks: the updater's commit must not wait for the
    // viewer's invalidation ack, otherwise the measurement would start
    // after part of the propagation already happened. (The paper's
    // ObjectStore behaved the same: commit returns, then the DLM notifies.)
    let bed = Bed::new("e4", Some(latency), |c| {
        c.dlm = DlmConfig {
            eager_shipping: eager,
            ..DlmConfig::default()
        };
        c.sync_callbacks = false;
    })
    .unwrap();
    let cat = &bed.catalog;
    let viewer = bed.client("viewer").unwrap();
    let updater = bed.client("updater").unwrap();

    let mut txn = updater.begin().unwrap();
    let link = txn
        .create(
            updater
                .new_object("Link")
                .unwrap()
                .with(cat, "Utilization", 0.0)
                .unwrap(),
        )
        .unwrap();
    txn.commit().unwrap();

    let cache = Arc::new(DisplayCache::new());
    let display = Display::open(Arc::clone(&viewer), cache, "e4");
    // Figure 1's `ColorCodedLink` on whole-object display locks: the
    // paper's protocol, where lazy and eager differ. (Otherwise the class
    // locks what it reads and is sent attribute deltas — one message
    // whatever `eager_shipping` says; R3 measures that.)
    let class = DisplayClassBuilder::new("ColorCodedLink")
        .project(&["Utilization"])
        .compute("Color", |ctx| {
            let color = displaydb_viz::utilization_color(ctx.max_float("Utilization")?);
            Ok(Value::Int(i64::from(color.to_u32())))
        })
        .whole_object()
        .build();
    let do_id = display.add_object(&class, vec![link.oid]).unwrap();

    let [from_commit, from_action] = [LatencyRecorder::new(), LatencyRecorder::new()];
    for i in 1..=rounds {
        let target = i as f64 / rounds as f64;
        // The user's action: everything the updater does, `begin()`
        // included, is inside this interval.
        let acted = Instant::now();
        let mut txn = updater.begin().unwrap();
        txn.update(link.oid, |o| o.set(cat, "Utilization", target))
            .unwrap();
        // The paper measures from the commit *at the database* to the
        // display refresh. The commit request spends one latency hop on
        // the wire before the server commits, so start the clock at
        // submission and subtract that hop afterwards.
        let submitted = Instant::now();
        txn.commit().unwrap();
        let deadline = submitted + Duration::from_secs(30);
        loop {
            display.wait_and_process(Duration::from_millis(1)).unwrap();
            if display.object(do_id).unwrap().attr("Utilization") == Some(&Value::Float(target)) {
                from_commit.record(submitted.elapsed().saturating_sub(latency));
                from_action.record(acted.elapsed());
                break;
            }
            assert!(Instant::now() < deadline, "propagation stalled");
        }
    }
    // Every refresh took the protocol under test, none a delta.
    assert_eq!(
        display.stats().delta_refreshes.get(),
        0,
        "a delta refreshed"
    );
    [from_commit, from_action]
}
