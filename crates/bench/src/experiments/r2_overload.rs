//! R2 — overload protection under an update storm (DESIGN.md § 9).
//!
//! The paper's § 4 console assumes every viewer keeps up with the
//! notification stream. This experiment measures what the bounded-outbox
//! layer buys when one viewer *cannot* keep up: a 200 updates/s storm
//! fans out to a healthy viewer and to a slow viewer whose link makes
//! every server→client frame cost 10× the per-update service budget
//! (50 ms against a 5 ms storm period).
//!
//! Three claims, one scenario:
//!
//! * **isolation** — the healthy viewer's commit→refresh latency with
//!   the slow consumer present stays within ~2× the no-slow-client
//!   baseline, because the stall is absorbed by the slow client's
//!   dedicated outbox writer, never the fan-out path.
//! * **bounded memory** — while the slow client is stalled its outbox
//!   never grows past the high-water mark (+1 for the `ReplayNeeded`
//!   marker that replaces a swept backlog), and a catch-up burst,
//!   enqueued without the overflow check, coalesces per object and so
//!   never exceeds the watched set; the server's exposure per slow
//!   client is one short queue plus the shared update log's own cap,
//!   not O(storm length).
//! * **convergence** — once the storm ends and the link heals, the slow
//!   viewer reaches the exact final state of every link by replaying
//!   the update log past its cursor, with no object re-read.

use crate::fixture::scratch_dir;
use crate::report::{self, Table};
use crate::Scale;
use displaydb_client::{ClientConfig, DbClient};
use displaydb_common::metrics::LatencyRecorder;
use displaydb_common::Oid;
use displaydb_display::schema::width_coded_link;
use displaydb_display::{Display, DisplayCache, DoId};
use displaydb_nms::nms_catalog;
use displaydb_schema::Value;
use displaydb_server::{Server, ServerConfig};
use displaydb_wire::{FaultPlan, FaultyListener, LocalHub};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Storm pacing: 5 ms between commits = the paper-scale 200 updates/s.
const STORM_PERIOD: Duration = Duration::from_millis(5);
/// Injected per-frame sender stall for the slow viewer: 10× the storm
/// period, i.e. a consumer an order of magnitude slower than the feed.
const SLOW_FRAME_DELAY: Duration = Duration::from_millis(50);
/// Every n-th commit is latency-sampled end-to-end on the healthy
/// viewer (sampling also drains its display queue).
const SAMPLE_EVERY: usize = 10;

/// Run R2.
pub fn run(scale: Scale) -> Vec<Table> {
    let links = scale.pick(16usize, 40);
    let updates = scale.pick(200usize, 1200);
    // Low enough that a stalled consumer trips it several times over,
    // high enough that the healthy consumer never comes near it.
    let high_water = links / 4;

    let base = storm(links, updates, high_water, false);
    let slow = storm(links, updates, high_water, true);

    let mut lat = Table::new(
        "R2 — healthy-viewer latency during a 200 updates/s storm",
        "One viewer's link stalls its sender 50 ms per frame (10x the 5 ms per-update \
         budget). Per-client bounded outboxes keep the stall out of the fan-out path: \
         the healthy viewer's p95 commit->refresh should stay within ~2x the baseline.",
        &[
            "scenario",
            "links",
            "updates",
            "healthy p50 (ms)",
            "healthy p95 (ms)",
            "p95 vs baseline",
        ],
    );
    lat.row(vec![
        "baseline (all viewers healthy)".into(),
        links.to_string(),
        updates.to_string(),
        report::ms(base.p50),
        report::ms(base.p95),
        "1.0x".into(),
    ]);
    lat.row(vec![
        "one slow viewer (10x service time)".into(),
        links.to_string(),
        updates.to_string(),
        report::ms(slow.p50),
        report::ms(slow.p95),
        report::ratio(slow.p95.as_secs_f64(), base.p95.as_secs_f64()),
    ]);

    let mut ob = Table::new(
        "R2 — outbox behaviour and slow-viewer convergence",
        format!(
            "Outbox high-water mark {high_water}: above it the live queue is swept into \
             one ReplayNeeded marker (bound = mark + 1) and the viewer catches up from the \
             update log; a catch-up burst coalesces per object (bound = the {links} watched \
             links). After the storm the slow viewer holds the exact final state of all \
             {links} links without a single resync."
        ),
        &[
            "scenario",
            "enqueued",
            "coalesced",
            "overflows",
            "replays requested",
            "outbox depth hw (live bound, catch-up bound)",
            "slow-viewer resyncs in",
            "converged in (ms)",
        ],
    );
    for (name, o) in [("baseline", &base), ("one slow viewer", &slow)] {
        ob.row(vec![
            name.into(),
            o.enqueued.to_string(),
            o.coalesced.to_string(),
            o.overflows.to_string(),
            o.replays_requested.to_string(),
            format!("{} ({}, {links})", o.depth_high_water, high_water + 1),
            o.resyncs_in.to_string(),
            report::ms(o.convergence),
        ]);
    }

    vec![lat, ob]
}

struct Outcome {
    p50: Duration,
    p95: Duration,
    enqueued: u64,
    coalesced: u64,
    overflows: u64,
    replays_requested: u64,
    depth_high_water: u64,
    resyncs_in: u64,
    convergence: Duration,
}

fn client(hub: &LocalHub, name: &str) -> Arc<DbClient> {
    DbClient::connect(
        Box::new(hub.connect().expect("connect")),
        ClientConfig::named(name),
    )
    .expect("client")
}

/// One display watching every link.
fn watch_all(viewer: &Arc<DbClient>, oids: &[Oid], name: &str) -> (Arc<Display>, Vec<DoId>) {
    let cache = Arc::new(DisplayCache::new());
    let display = Display::open(Arc::clone(viewer), cache, name);
    let ids = oids
        .iter()
        .map(|&oid| {
            display
                .add_object(&width_coded_link("Utilization"), vec![oid])
                .expect("add_object")
        })
        .collect();
    (display, ids)
}

fn await_value(display: &Display, id: DoId, want: f64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if display.object(id).expect("object").attr("Utilization") == Some(&Value::Float(want)) {
            return;
        }
        assert!(Instant::now() < deadline, "viewer never reached {want}");
        display
            .wait_and_process(Duration::from_millis(50))
            .expect("process");
    }
}

/// Run one storm. `slow == false` is the baseline: the second viewer is
/// still connected through the faulty listener, but no delay is armed.
fn storm(links: usize, updates: usize, high_water: usize, slow: bool) -> Outcome {
    let catalog = Arc::new(nms_catalog());
    let fast_hub = LocalHub::new();
    let slow_hub = LocalHub::new();
    let plan = Arc::new(FaultPlan::new());
    let mut config = ServerConfig::new(scratch_dir(if slow { "r2-slow" } else { "r2-base" }));
    config.dlm.overload.outbox_high_water = high_water;
    // Decouple commits from invalidation delivery (as E4 does): the
    // measurement is the notification pipeline, and a synchronous
    // callback to the stalled viewer would serialize the storm itself.
    config.sync_callbacks = false;
    let server = Server::spawn(
        Arc::clone(&catalog),
        config,
        vec![
            Box::new(fast_hub.clone()),
            Box::new(FaultyListener::wrap(
                Box::new(slow_hub.clone()),
                Arc::clone(&plan),
            )),
        ],
    )
    .expect("server");

    let updater = client(&fast_hub, "r2-updater");
    let healthy = client(&fast_hub, "r2-healthy");
    let slow_viewer = client(&slow_hub, "r2-slow");

    let mut oids = Vec::with_capacity(links);
    let mut txn = updater.begin().expect("begin");
    for _ in 0..links {
        oids.push(
            txn.create(updater.new_object("Link").expect("new"))
                .expect("create")
                .oid,
        );
    }
    txn.commit().expect("commit");

    let (healthy_display, healthy_ids) = watch_all(&healthy, &oids, "r2-healthy");
    let (slow_display, slow_ids) = watch_all(&slow_viewer, &oids, "r2-slow");

    // Warm-up: touch every link once and let both viewers settle before
    // any delay is armed, so the storm starts from a steady state. One
    // commit per link — a single txn over all of them would burst
    // `links` events into each outbox at once and sweep even a healthy
    // viewer past the (deliberately low) high-water mark.
    for &oid in &oids {
        let mut txn = updater.begin().expect("begin");
        txn.update(oid, |o| o.set(&catalog, "Utilization", 0.01))
            .expect("update");
        txn.commit().expect("commit");
    }
    for display in [&healthy_display, &slow_display] {
        await_value(display, *slow_ids.last().expect("ids"), 0.01);
        while display
            .wait_and_process(Duration::from_millis(100))
            .expect("drain")
            > 0
        {}
    }

    // Phase boundary: the warm-up burst's queue depths must not be
    // attributed to the storm measurement.
    let overload = &server.core().dlm().stats().overload;
    overload.queue_depth.reset_high_water();
    healthy.dlc().stats().display_queue_depth.reset_high_water();
    slow_viewer
        .dlc()
        .stats()
        .display_queue_depth
        .reset_high_water();

    if slow {
        plan.set_delay(SLOW_FRAME_DELAY);
    }

    let recorder = LatencyRecorder::new();
    let mut last = vec![0.01f64; links];
    // Sampled every commit: a served replay resets the gauge's high-water
    // side, so the end-of-storm reading alone would under-report. The
    // writer reports the depth it leaves behind after each pop, so
    // catch-up bursts show up here too.
    let mut depth_high_water = 0u64;
    let started = Instant::now();
    for i in 0..updates {
        let tick = started + STORM_PERIOD * i as u32;
        if let Some(wait) = tick.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let li = i % links;
        // Globally increasing, so every commit writes a distinct value.
        let value = 0.02 + 0.9 * (i as f64 + 1.0) / updates as f64;
        let mut txn = updater.begin().expect("begin");
        txn.update(oids[li], |o| o.set(&catalog, "Utilization", value))
            .expect("update");
        let submitted = Instant::now();
        txn.commit().expect("commit");
        depth_high_water = depth_high_water.max(overload.queue_depth.high_water());
        last[li] = value;
        if i % SAMPLE_EVERY == 0 {
            // The updater is the only writer, so `value` stays the
            // latest for this link until the sample completes.
            await_value(&healthy_display, healthy_ids[li], value);
            recorder.record(submitted.elapsed());
        }
    }

    // Storm over: heal the link and let the slow viewer converge on the
    // exact final state of every link.
    plan.clear_delay();
    let heal = Instant::now();
    for (idx, &id) in slow_ids.iter().enumerate() {
        await_value(&slow_display, id, last[idx]);
    }
    let convergence = heal.elapsed();

    let summary = recorder.summary().expect("latency samples");
    let outcome = Outcome {
        p50: summary.p50,
        p95: summary.p95,
        enqueued: overload.enqueued.get(),
        coalesced: overload.coalesced.get(),
        overflows: overload.overflows.get(),
        replays_requested: slow_viewer.dlc().stats().replays_requested.get(),
        depth_high_water,
        resyncs_in: slow_viewer.dlc().stats().resyncs_in.get(),
        convergence,
    };
    drop(server);
    outcome
}
