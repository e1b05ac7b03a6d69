//! Overload protection: bounded outboxes, admission control,
//! slow-consumer isolation, and shutdown under stall. (What happens when
//! an outbox overflows — sweep, `ReplayNeeded`, catch-up from the update
//! log — is pinned in tests/replay_recovery.rs.)
//!
//! The scenario behind all of these is the paper's § 5 storm: hundreds of
//! updates per second fanning out to interactive viewers, one of which is
//! on a congested link or a hung workstation. The server must (a) keep
//! the healthy viewers fast, (b) keep its own memory bounded, and (c)
//! bring the slow viewer back to a *correct* view once it recovers.

use displaydb::nms::nms_catalog;
use displaydb::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("displaydb-it-overload")
        .join(format!("{}-{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn client_on(hub: &LocalHub, name: &str) -> Arc<DbClient> {
    DbClient::connect(Box::new(hub.connect().unwrap()), ClientConfig::named(name)).unwrap()
}

/// Drive `display` until the DO's Utilization attribute reaches `want`
/// (or panic at the deadline).
fn await_value(display: &Display, id: DoId, want: f64, deadline: Duration) -> Duration {
    let start = Instant::now();
    loop {
        display
            .wait_and_process(Duration::from_millis(100))
            .unwrap();
        if display.object(id).unwrap().attr("Utilization") == Some(&Value::Float(want)) {
            return start.elapsed();
        }
        assert!(
            start.elapsed() < deadline,
            "display never reached {want}: {:?}",
            display.object(id).unwrap().attrs
        );
    }
}

fn link_display(viewer: &Arc<DbClient>, oid: Oid, name: &str) -> (Arc<Display>, DoId) {
    let cache = Arc::new(DisplayCache::new());
    let display = Display::open(Arc::clone(viewer), cache, name);
    let id = display
        .add_object(&width_coded_link("Utilization"), vec![oid])
        .unwrap();
    (display, id)
}

/// One viewer sits behind a link where every server→client frame costs
/// 20 ms of *sender* time. Without per-client outboxes that cost lands in
/// the notification fan-out path and every commit pays it; with them, the
/// slow client's writer thread absorbs the delay and both the update
/// storm and the healthy viewer stay fast.
#[test]
fn slow_client_does_not_degrade_fast_client() {
    let catalog = Arc::new(nms_catalog());
    let fast_hub = LocalHub::new();
    let slow_hub = LocalHub::new();
    let plan = Arc::new(FaultPlan::new());
    let server = Server::spawn(
        Arc::clone(&catalog),
        ServerConfig::new(tmp("slow-fast")),
        vec![
            Box::new(fast_hub.clone()),
            Box::new(FaultyListener::wrap(
                Box::new(slow_hub.clone()),
                Arc::clone(&plan),
            )),
        ],
    )
    .unwrap();

    let updater = client_on(&fast_hub, "updater");
    let fast = client_on(&fast_hub, "fast-viewer");
    let slow = client_on(&slow_hub, "slow-viewer");

    let mut txn = updater.begin().unwrap();
    let link = txn.create(updater.new_object("Link").unwrap()).unwrap();
    txn.commit().unwrap();

    let (fast_display, fast_id) = link_display(&fast, link.oid, "fast");
    let (_slow_display, _slow_id) = link_display(&slow, link.oid, "slow");

    // Warm-up commit while the link is still clean: flushes the slow
    // viewer's cached copy so no storm commit waits on a delayed
    // invalidation callback.
    let mut txn = updater.begin().unwrap();
    txn.update(link.oid, |o| o.set(&catalog, "Utilization", 0.01))
        .unwrap();
    txn.commit().unwrap();

    // Now every server→slow-viewer frame stalls its sender for 20 ms.
    plan.set_delay(Duration::from_millis(20));

    let storm = 100u32;
    let storm_start = Instant::now();
    for i in 1..=storm {
        let mut txn = updater.begin().unwrap();
        let util = if i == storm {
            0.95
        } else {
            f64::from(i % 90) / 100.0
        };
        txn.update(link.oid, |o| o.set(&catalog, "Utilization", util))
            .unwrap();
        txn.commit().unwrap();
    }
    let storm_elapsed = storm_start.elapsed();
    // 100 notifications × 20 ms = 2 s of injected delay. If any of it
    // leaked into the commit/fan-out path the storm could not finish in
    // well under that.
    assert!(
        storm_elapsed < Duration::from_secs(2),
        "slow client's delay leaked into the commit path: {storm_elapsed:?}"
    );

    // The healthy viewer sees the final state promptly.
    let latency = await_value(&fast_display, fast_id, 0.95, Duration::from_secs(2));
    assert!(
        latency < Duration::from_secs(2),
        "fast viewer degraded: {latency:?}"
    );

    plan.clear_delay();
    drop(server);
}

/// Past the per-client in-flight cap the server sheds with a retryable
/// `Overloaded` error; `Connection::call` retries with backoff, so the
/// application never sees the shed — only the counters do. A session runs
/// a request on the thread that read it unless the request waits, so the
/// cap is reached with reads parked behind another client's X lock.
#[test]
fn admission_control_sheds_and_the_client_retries_through() {
    let catalog = Arc::new(nms_catalog());
    let hub = LocalHub::new();
    let mut config = ServerConfig::new(tmp("admission"));
    config.dlm.overload.max_in_flight = 2;
    let server = Server::spawn_local(Arc::clone(&catalog), config, &hub).unwrap();

    let client = client_on(&hub, "pusher");
    let holder = client_on(&hub, "holder");
    let mut txn = client.begin().unwrap();
    let link = txn.create(client.new_object("Link").unwrap()).unwrap();
    txn.commit().unwrap();
    let oid = link.oid;

    // Every read of the link parks until the holder lets go.
    let mut lock = holder.begin().unwrap();
    lock.lock_exclusive(oid).unwrap();
    let sheds = || server.core().dlm().stats().overload.sheds.get();
    // 4 threads × 1 uncached read against an in-flight cap of 2.
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let client = Arc::clone(&client);
            std::thread::spawn(move || {
                client.cache().invalidate(&[oid]);
                match client.read_fresh(oid) {
                    Ok(_) => {}
                    // The retry loop gave up: the cap stayed full across
                    // the whole backoff window. The next call gets a new
                    // window.
                    Err(DbError::Overloaded) => {}
                    Err(e) => panic!("unexpected error under load: {e:?}"),
                }
            })
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while sheds() == 0 {
        assert!(
            Instant::now() < deadline,
            "cap of 2 with 4 parked reads must shed"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    lock.abort().unwrap();
    for h in handles {
        h.join().unwrap();
    }

    let retries = client.conn_stats().overload_retries.get();
    assert!(sheds() >= 1, "cap of 2 with 4 parked reads must shed");
    assert!(retries >= 1, "client must have retried shed requests");
    // The connection is still healthy for ordinary work.
    client.ping().unwrap();
    drop(server);
}

/// `Server::shutdown` must complete promptly even when a client's outbox
/// writer is parked inside a stalled send: the drain phase is bounded by
/// `drain_timeout` and close never joins the stuck writer.
#[test]
fn shutdown_completes_under_a_stalled_client() {
    let catalog = Arc::new(nms_catalog());
    let fast_hub = LocalHub::new();
    let slow_hub = LocalHub::new();
    let plan = Arc::new(FaultPlan::new());
    let mut config = ServerConfig::new(tmp("stalled-shutdown"));
    config.dlm.overload.drain_timeout = Duration::from_millis(200);
    let mut server = Server::spawn(
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
    .unwrap();

    let updater = client_on(&fast_hub, "updater");
    let viewer = client_on(&slow_hub, "stalled-viewer");

    let mut txn = updater.begin().unwrap();
    let link = txn.create(updater.new_object("Link").unwrap()).unwrap();
    txn.commit().unwrap();
    let (_display, _id) = link_display(&viewer, link.oid, "map");

    let mut txn = updater.begin().unwrap();
    txn.update(link.oid, |o| o.set(&catalog, "Utilization", 0.01))
        .unwrap();
    txn.commit().unwrap();

    // Every further frame to the viewer costs its sender 2 s; queue a
    // burst so the outbox is non-empty and its writer is mid-stall when
    // shutdown starts.
    plan.set_delay(Duration::from_secs(2));
    for i in 1..=10u32 {
        let mut txn = updater.begin().unwrap();
        txn.update(link.oid, |o| {
            o.set(&catalog, "Utilization", f64::from(i) / 100.0)
        })
        .unwrap();
        txn.commit().unwrap();
    }

    let start = Instant::now();
    server.shutdown();
    let elapsed = start.elapsed();
    // Budget: accept-thread join (≤ ~100 ms) + bounded drain (200 ms per
    // stalled session) + scheduling slack — but nowhere near the 2 s
    // per-frame stall, let alone the 20 s backlog.
    assert!(
        elapsed < Duration::from_secs(2),
        "shutdown wedged behind a stalled client: {elapsed:?}"
    );
    drop(server);
}
