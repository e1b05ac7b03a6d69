//! End-to-end notification-path observability (DESIGN.md § 12).
//!
//! A trace id minted at the committing client must be followable across
//! every hop of the notification path — commit, DLM intersect, outbox
//! enqueue/drain, wire send/recv, DLC apply — with monotone timestamps
//! whose consecutive-stage gaps telescope exactly to the end-to-end
//! span. The trace sink is process-global, so these tests serialize on
//! one guard and filter by their own trace ids.

use displaydb::common::trace::{self, Stage, TraceSpan};
use displaydb::nms::nms_catalog;
use displaydb::prelude::*;
use displaydb::wire::Channel;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The trace sink and enabled flag are process-global; every test here
/// toggles them, so they serialize on this.
static GUARD: Mutex<()> = Mutex::new(());

fn locked() -> MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("displaydb-it-obs").join(format!(
        "{}-{}",
        name,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn await_value(display: &Display, id: DoId, want: f64) {
    let deadline = Instant::now() + Duration::from_secs(20);
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

/// Spans that cover every stage and were minted after `after`.
fn complete_spans_after(after: u64) -> Vec<TraceSpan> {
    let events = trace::events();
    let mut ids: Vec<u64> = events
        .iter()
        .map(|e| e.trace)
        .filter(|&id| id > after)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids.into_iter()
        .map(|id| TraceSpan::of(id, &events))
        .filter(|span| span.covers(Stage::ALL))
        .collect()
}

/// One committed projected write produces a trace covering all seven
/// stages in order, and its consecutive gaps telescope exactly to the
/// end-to-end span (the "per-stage sums match" invariant).
#[test]
fn traced_update_covers_all_stages_and_gaps_telescope() {
    let _g = locked();
    trace::enable(0);
    trace::clear();

    let catalog = Arc::new(nms_catalog());
    let hub = LocalHub::new();
    let _server =
        Server::spawn_local(Arc::clone(&catalog), ServerConfig::new(tmp("stages")), &hub).unwrap();
    let updater = DbClient::connect(
        Box::new(hub.connect().unwrap()),
        ClientConfig::named("updater"),
    )
    .unwrap();
    let viewer = DbClient::connect(
        Box::new(hub.connect().unwrap()),
        ClientConfig::named("viewer"),
    )
    .unwrap();

    let mut txn = updater.begin().unwrap();
    let link = txn.create(updater.new_object("Link").unwrap()).unwrap();
    txn.commit().unwrap();

    let cache = Arc::new(DisplayCache::new());
    let display = Display::open(Arc::clone(&viewer), cache, "obs");
    let do_id = display
        .add_object(&width_coded_link("Utilization"), vec![link.oid])
        .unwrap();

    let marker = trace::next_trace_id();
    let mut txn = updater.begin().unwrap();
    txn.update(link.oid, |o| o.set(&catalog, "Utilization", 0.42))
        .unwrap();
    txn.commit().unwrap();
    await_value(&display, do_id, 0.42);

    let spans = complete_spans_after(marker);
    assert_eq!(
        spans.len(),
        1,
        "exactly one post-marker commit should cover all stages: {spans:?}"
    );
    let span = &spans[0];
    assert!(span.is_monotone(), "stage timestamps must not decrease");
    assert_eq!(span.stages.len(), Stage::ALL.len());
    // Pipeline order is preserved, not just presence.
    let order: Vec<Stage> = span.stages.iter().map(|&(s, _)| s).collect();
    assert_eq!(order, Stage::ALL.to_vec());
    // Telescoping: the per-stage gaps sum exactly to the end-to-end span.
    let gap_sum: u64 = span.gaps().iter().map(|(_, _, g)| g).sum();
    assert_eq!(gap_sum, span.total_ns());

    trace::disable();
    trace::clear();
}

/// With tracing disabled, commits mint id 0 and a full notification
/// round-trip buffers nothing — the overhead-free default `benchmark/`'s
/// untraced pass relies on.
#[test]
fn disabled_tracing_buffers_nothing() {
    let _g = locked();
    trace::disable();
    trace::clear();
    assert_eq!(trace::next_trace_id(), 0);

    let catalog = Arc::new(nms_catalog());
    let hub = LocalHub::new();
    let _server = Server::spawn_local(
        Arc::clone(&catalog),
        ServerConfig::new(tmp("disabled")),
        &hub,
    )
    .unwrap();
    let updater = DbClient::connect(
        Box::new(hub.connect().unwrap()),
        ClientConfig::named("updater"),
    )
    .unwrap();
    let viewer = DbClient::connect(
        Box::new(hub.connect().unwrap()),
        ClientConfig::named("viewer"),
    )
    .unwrap();
    let mut txn = updater.begin().unwrap();
    let link = txn.create(updater.new_object("Link").unwrap()).unwrap();
    txn.commit().unwrap();
    let cache = Arc::new(DisplayCache::new());
    let display = Display::open(Arc::clone(&viewer), cache, "off");
    let do_id = display
        .add_object(&width_coded_link("Utilization"), vec![link.oid])
        .unwrap();
    let mut txn = updater.begin().unwrap();
    txn.update(link.oid, |o| o.set(&catalog, "Utilization", 0.9))
        .unwrap();
    txn.commit().unwrap();
    await_value(&display, do_id, 0.9);

    assert_eq!(trace::buffered(), 0, "disabled tracing must buffer nothing");
}

/// A supervised client rides through a server restart, and the trace
/// pipeline keeps working across the reconnect: a commit on the *new*
/// connection still produces a complete seven-stage trace.
#[test]
fn trace_survives_supervised_reconnect() {
    let _g = locked();
    trace::enable(0);
    trace::clear();

    let catalog = Arc::new(nms_catalog());
    let dir = tmp("reconnect");
    let durable = |dir: &std::path::Path| {
        let mut c = ServerConfig::new(dir);
        c.sync_commits = true;
        c
    };
    let hub_slot = Arc::new(Mutex::new(LocalHub::new()));
    let factory: ChannelFactory = {
        let slot = Arc::clone(&hub_slot);
        Arc::new(move || {
            let channel = slot.lock().unwrap().connect()?;
            Ok(Box::new(channel) as Box<dyn Channel>)
        })
    };
    let hub0 = hub_slot.lock().unwrap().clone();
    let mut server = Server::spawn_local(Arc::clone(&catalog), durable(&dir), &hub0).unwrap();

    let config = |name: &str| ClientConfig {
        name: name.into(),
        cache_bytes: 1 << 20,
        call_timeout: Duration::from_millis(300),
    };
    let updater = DbClient::connect_supervised(
        Arc::clone(&factory),
        ReconnectPolicy::fast_test(),
        config("updater"),
    )
    .unwrap();
    let viewer = DbClient::connect_supervised(
        Arc::clone(&factory),
        ReconnectPolicy::fast_test(),
        config("viewer"),
    )
    .unwrap();

    let mut txn = updater.begin().unwrap();
    let link = txn.create(updater.new_object("Link").unwrap()).unwrap();
    txn.commit().unwrap();
    let cache = Arc::new(DisplayCache::new());
    let display = Display::open(Arc::clone(&viewer), cache, "obs");
    let do_id = display
        .add_object(&width_coded_link("Utilization"), vec![link.oid])
        .unwrap();

    // Pre-restart sanity: the path traces end to end.
    let marker = trace::next_trace_id();
    let mut txn = updater.begin().unwrap();
    txn.update(link.oid, |o| o.set(&catalog, "Utilization", 0.3))
        .unwrap();
    txn.commit().unwrap();
    await_value(&display, do_id, 0.3);
    assert_eq!(complete_spans_after(marker).len(), 1);

    // Server restart over the same data directory on a fresh hub.
    let hub2 = LocalHub::new();
    *hub_slot.lock().unwrap() = hub2.clone();
    server.shutdown();
    drop(server);
    let _server2 = Server::spawn_local(Arc::clone(&catalog), durable(&dir), &hub2).unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    while updater.ping().is_err() || viewer.ping().is_err() {
        assert!(Instant::now() < deadline, "clients never reconnected");
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(viewer.conn_stats().recovery.reconnects_ok.get() >= 1);

    // A commit on the new connection generation must trace end to end:
    // the display lock was re-registered, and the trace id flows through
    // the fresh wire session. The re-registration races the reconnect,
    // so retry the traced write until its span completes.
    let marker = trace::next_trace_id();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut value = 0.5;
    loop {
        value += 0.01;
        let committed = updater.begin().and_then(|mut txn| {
            txn.update(link.oid, |o| o.set(&catalog, "Utilization", value))?;
            txn.commit()
        });
        if committed.is_ok() {
            display
                .wait_and_process(Duration::from_millis(200))
                .unwrap();
            if !complete_spans_after(marker).is_empty() {
                break;
            }
        }
        assert!(
            Instant::now() < deadline,
            "no complete trace after reconnect"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let spans = complete_spans_after(marker);
    assert!(spans.iter().all(TraceSpan::is_monotone));

    trace::disable();
    trace::clear();
}

/// Counters read live on the structs that own them, and the trace ring
/// holds the marked commit at every stage.
#[test]
fn live_counters_and_trace_ring_see_one_commit() {
    let _g = locked();
    trace::enable(0);
    trace::clear();

    let catalog = Arc::new(nms_catalog());
    let hub = LocalHub::new();
    let server = Server::spawn_local(
        Arc::clone(&catalog),
        ServerConfig::new(tmp("live-counters")),
        &hub,
    )
    .unwrap();
    let updater = DbClient::connect(
        Box::new(hub.connect().unwrap()),
        ClientConfig::named("updater"),
    )
    .unwrap();
    let viewer = DbClient::connect(
        Box::new(hub.connect().unwrap()),
        ClientConfig::named("viewer"),
    )
    .unwrap();

    let mut txn = updater.begin().unwrap();
    let link = txn.create(updater.new_object("Link").unwrap()).unwrap();
    txn.commit().unwrap();
    let cache = Arc::new(DisplayCache::new());
    let display = Display::open(Arc::clone(&viewer), cache, "obs");
    let do_id = display
        .add_object(&width_coded_link("Utilization"), vec![link.oid])
        .unwrap();
    let marker = trace::next_trace_id();
    let mut txn = updater.begin().unwrap();
    txn.update(link.oid, |o| o.set(&catalog, "Utilization", 0.77))
        .unwrap();
    txn.commit().unwrap();
    await_value(&display, do_id, 0.77);

    assert!(server.core().stats().commits.get() >= 2);
    assert_eq!(viewer.dlc().stats().notifications_in.get(), 1);
    // The trace ring still contains the traced commit at every stage.
    let events = trace::events();
    for &stage in Stage::ALL {
        assert!(
            events.iter().any(|e| e.trace > marker && e.stage == stage),
            "trace ring lost stage {stage:?}"
        );
    }

    trace::disable();
    trace::clear();
}
