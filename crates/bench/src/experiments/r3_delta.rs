//! R3 — projection-aware delta notifications (DESIGN.md § 10).
//!
//! The paper's § 2.2 size argument — a GUI consumes two attributes of a
//! large persistent object — is applied to the *notification* path: a
//! display class that declares its source-attribute reads registers a
//! projected display lock, the server diffs each commit against the
//! registered projections, suppresses notifications that touch nothing
//! projected, and ships attribute-level deltas (coalesced and batched on
//! the wire) for the rest.
//!
//! The workload is the unfavourable-for-baseline but realistic NMS mix:
//! links carry 11 attributes, displays project only `Utilization`, and
//! 90% of commits touch operational attributes the GUI never shows
//! (`ErrorRate` here). Both scenarios run the identical write storm:
//!
//! * **baseline** — whole-object watching (a display class built with
//!   `whole_object()` holds full-interest locks): every commit notifies
//!   every watcher.
//! * **delta** — projection-aware watching via `width_coded_link`: 90%
//!   of commits are suppressed outright, the rest arrive as deltas that
//!   patch the client cache in place.
//!
//! Claims: ≥3× fewer notification bytes on the wire, fewer events, and
//! unchanged convergence — after the storm both viewers hold the exact
//! final utilization of every link.

use crate::fixture::scratch_dir;
use crate::report::{self, Metrics, Table};
use crate::Scale;
use bytes::Bytes;
use displaydb_client::{ClientConfig, DbClient};
use displaydb_common::metrics::LatencyRecorder;
use displaydb_common::{DbResult, Oid};
use displaydb_display::schema::{width_coded_link, DisplayClassBuilder};
use displaydb_display::{Display, DisplayCache, DoId};
use displaydb_dlm::DlmEvent;
use displaydb_nms::nms_catalog;
use displaydb_schema::Value;
use displaydb_server::{Envelope, Server, ServerConfig, ServerPush};
use displaydb_wire::{Channel, Decode, Encode, LocalHub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every n-th commit writes the projected attribute (`Utilization`); the
/// rest touch `ErrorRate`, which no display shows. 10% projected — the
/// monitoring-console mix the paper's § 2.2 premise describes.
const PROJECTED_EVERY: usize = 10;

/// Run R3.
pub fn run(scale: Scale) -> Vec<Table> {
    run_with_metrics(scale).0
}

/// Run R3 and also return the metrics `tests/gated_experiments.rs` asserts.
pub fn run_with_metrics(scale: Scale) -> (Vec<Table>, Metrics) {
    let links = scale.pick(12usize, 40);
    let updates = scale.pick(240usize, 2000);

    let base = storm(links, updates, false);
    let delta = storm(links, updates, true);

    let mut t = Table::new(
        "R3 — projection-aware delta notifications vs whole-object watching",
        format!(
            "{updates} commits over {links} links (11 attributes each); displays project \
             only Utilization and 1 in {PROJECTED_EVERY} commits touches it. Projected \
             display locks let the server suppress the other 90% and ship the rest as \
             attribute deltas. Event bytes are the encoded Updated/Delta events the \
             viewer receives (cursor acks and batch framing excluded)."
        ),
        &[
            "scenario",
            "events sent",
            "deltas",
            "suppressed",
            "event bytes",
            "bytes vs baseline",
            "notify p50 (ms)",
            "notify p95 (ms)",
            "display refreshes",
            "server reads",
            "callbacks",
            "converged in (ms)",
        ],
    );
    for (name, o) in [
        ("whole-object (baseline)", &base),
        ("projected deltas", &delta),
    ] {
        t.row(vec![
            name.into(),
            o.events.to_string(),
            o.deltas.to_string(),
            o.suppressed.to_string(),
            o.bytes.to_string(),
            report::ratio(base.bytes as f64, o.bytes as f64),
            report::ms(o.p50),
            report::ms(o.p95),
            o.refreshes.to_string(),
            o.reads.to_string(),
            o.callbacks.to_string(),
            report::ms(o.convergence),
        ]);
    }

    let mut m = Metrics::new("r3");
    m.put("baseline_notify_bytes", base.bytes as f64);
    m.put("delta_notify_bytes", delta.bytes as f64);
    m.put(
        "bytes_reduction_x",
        if delta.bytes == 0 {
            f64::INFINITY
        } else {
            base.bytes as f64 / delta.bytes as f64
        },
    );
    (vec![t], m)
}

struct Outcome {
    events: u64,
    deltas: u64,
    suppressed: u64,
    bytes: u64,
    p50: Duration,
    p95: Duration,
    refreshes: u64,
    /// Objects the server read for anyone during the storm.
    reads: u64,
    /// Callback pushes the server sent during the storm.
    callbacks: u64,
    convergence: Duration,
}

/// A [`Channel`] wrapper summing the encoded size of the `Updated` and
/// `Delta` events the viewer is sent — the traffic R3 is about. (The
/// server's `notify_bytes` also counts cursor acks and batch framing,
/// whose share depends on when the outbox happens to drain.)
struct EventBytes {
    inner: Box<dyn Channel>,
    bytes: Arc<AtomicU64>,
}

impl EventBytes {
    fn count(&self, frame: Bytes) -> Bytes {
        if let Ok(Envelope::Push(ServerPush::Dlm(event))) = Envelope::decode_from_bytes(&frame) {
            let events = match event {
                DlmEvent::Batch(events) => events,
                single => vec![single],
            };
            for e in &events {
                if matches!(e, DlmEvent::Updated(_) | DlmEvent::Delta { .. }) {
                    self.bytes
                        .fetch_add(e.encode_to_bytes().len() as u64, Ordering::Relaxed);
                }
            }
        }
        frame
    }
}

impl Channel for EventBytes {
    fn send(&self, payload: Bytes) -> DbResult<()> {
        self.inner.send(payload)
    }

    fn recv(&self) -> DbResult<Bytes> {
        self.inner.recv().map(|frame| self.count(frame))
    }

    fn recv_timeout(&self, timeout: Duration) -> DbResult<Bytes> {
        self.inner
            .recv_timeout(timeout)
            .map(|frame| self.count(frame))
    }

    fn close(&self) {
        self.inner.close();
    }
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

/// One storm against one viewer. `projected == false` watches with a
/// class that asks for full-interest (whole-object) display locks — the
/// pre-projection behaviour. `projected == true` uses `width_coded_link`,
/// whose display objects lock the `Utilization` they read.
fn storm(links: usize, updates: usize, projected: bool) -> Outcome {
    let catalog = Arc::new(nms_catalog());
    let hub = LocalHub::new();
    let mut config = ServerConfig::new(scratch_dir(if projected { "r3-delta" } else { "r3-base" }));
    // Measure the notification pipeline, not callback delivery (same
    // decoupling as E4/R2).
    config.sync_callbacks = false;
    let server = Server::spawn_local(Arc::clone(&catalog), config, &hub).expect("server");

    let updater = DbClient::connect(
        Box::new(hub.connect().expect("connect")),
        ClientConfig::named("r3-updater"),
    )
    .expect("updater");
    let event_bytes = Arc::new(AtomicU64::new(0));
    let viewer = DbClient::connect(
        Box::new(EventBytes {
            inner: Box::new(hub.connect().expect("connect")),
            bytes: Arc::clone(&event_bytes),
        }),
        ClientConfig::named("r3-viewer"),
    )
    .expect("viewer");

    let mut oids: Vec<Oid> = Vec::with_capacity(links);
    let mut txn = updater.begin().expect("begin");
    for _ in 0..links {
        oids.push(
            txn.create(updater.new_object("Link").expect("new"))
                .expect("create")
                .oid,
        );
    }
    txn.commit().expect("commit");

    let class = if projected {
        width_coded_link("Utilization")
    } else {
        // Same derived attributes on whole-object interest: an event per
        // commit.
        DisplayClassBuilder::new("WholeLink")
            .project(&["Utilization"])
            .compute("Width", |ctx| {
                let u = ctx.max_float("Utilization")?;
                Ok(Value::Float(f64::from(displaydb_viz::utilization_width(
                    u, 1.0, 9.0,
                ))))
            })
            .whole_object()
            .build()
    };
    let cache = Arc::new(DisplayCache::new());
    let display = Display::open(Arc::clone(&viewer), cache, "r3");
    let ids: Vec<DoId> = oids
        .iter()
        .map(|&oid| display.add_object(&class, vec![oid]).expect("add_object"))
        .collect();

    // Steady state before measuring: one projected write per link,
    // drained.
    for &oid in &oids {
        let mut txn = updater.begin().expect("begin");
        txn.update(oid, |o| o.set(&catalog, "Utilization", 0.01))
            .expect("update");
        txn.commit().expect("commit");
    }
    await_value(&display, *ids.last().expect("ids"), 0.01);
    while display
        .wait_and_process(Duration::from_millis(100))
        .expect("drain")
        > 0
    {}

    let stats = server.core().dlm().stats();
    // Phase boundary: queue depths observed during the steady-state
    // warm-up must not be attributed to the measured storm.
    stats.overload.queue_depth.reset_high_water();
    viewer.dlc().stats().display_queue_depth.reset_high_water();
    let events0 = stats.notifications.get();
    let deltas0 = stats.delta_notifications.get();
    let suppressed0 = stats.suppressed_notifications.get();
    let bytes0 = event_bytes.load(Ordering::Relaxed);
    let coalesced0 = stats.overload.coalesced.get();
    let heard0 = viewer.dlc().stats().notifications_in.get();
    let refreshes0 = display.stats().refreshes.get();
    let server_stats = server.core().stats();
    let (reads0, callbacks0) = (server_stats.reads.get(), server_stats.callbacks.get());

    let recorder = LatencyRecorder::new();
    let mut last = vec![0.01f64; links];
    let util_writes = updates / PROJECTED_EVERY;
    let mut util_seen = 0usize;
    for i in 0..updates {
        let li = i % links;
        let mut txn = updater.begin().expect("begin");
        if i % PROJECTED_EVERY == 0 {
            // Projected write: globally increasing so every value is
            // distinct and the last one per link is final.
            util_seen += 1;
            let value = 0.02 + 0.9 * util_seen as f64 / util_writes.max(1) as f64;
            txn.update(oids[li], |o| o.set(&catalog, "Utilization", value))
                .expect("update");
            let submitted = Instant::now();
            txn.commit().expect("commit");
            last[li] = value;
            // Commit → refresh latency of the projected write, sampled
            // on every one (this also drains the viewer's queue, so the
            // baseline pays for chewing through its unsuppressed
            // backlog — that is the point of the comparison).
            await_value(&display, ids[li], value);
            recorder.record(submitted.elapsed());
        } else {
            // Unprojected write: operational noise the GUI never shows.
            let noise = i as f64 / updates as f64;
            txn.update(oids[li], |o| o.set(&catalog, "ErrorRate", noise))
                .expect("update");
            txn.commit().expect("commit");
        }
    }

    // Convergence: every link's display object reaches its exact final
    // utilization.
    let settle = Instant::now();
    for (idx, &id) in ids.iter().enumerate() {
        await_value(&display, id, last[idx]);
    }
    let convergence = settle.elapsed();
    // The byte count is complete once the viewer has heard every event
    // the server fanned out, less the ones its outbox coalesced away.
    let sent =
        || (stats.notifications.get() - events0) - (stats.overload.coalesced.get() - coalesced0);
    let deadline = Instant::now() + Duration::from_secs(10);
    while viewer.dlc().stats().notifications_in.get() - heard0 < sent() {
        assert!(Instant::now() < deadline, "viewer never heard the tail");
        std::thread::sleep(Duration::from_millis(1));
    }

    let summary = recorder.summary().expect("latency samples");
    let outcome = Outcome {
        events: stats.notifications.get() - events0,
        deltas: stats.delta_notifications.get() - deltas0,
        suppressed: stats.suppressed_notifications.get() - suppressed0,
        bytes: event_bytes.load(Ordering::Relaxed) - bytes0,
        p50: summary.p50,
        p95: summary.p95,
        refreshes: display.stats().refreshes.get() - refreshes0,
        reads: server_stats.reads.get() - reads0,
        callbacks: server_stats.callbacks.get() - callbacks0,
        convergence,
    };
    drop(display);
    drop(server);
    outcome
}
