//! Replay recovery: cursor catch-up over the DLM update log.
//!
//! Recovery is "replay the logged suffix past my cursor", not
//! "invalidate and re-read everything". These tests pin the load-bearing
//! behaviours end to end, over real server/client pairs:
//!
//! - a resumed session with a retained cursor converges by replay and
//!   never issues a resync;
//! - a truncated cursor falls back to exactly one full resync
//!   (`replay_truncations == 1`), not a storm of them;
//! - replay is interest-filtered — a viewer only receives the suffix
//!   that intersects its registered locks;
//! - outbox overflow sweeps to a `ReplayNeeded` marker the client
//!   answers automatically, with the server's queue depth bounded and
//!   no early-notify mark left stuck by the sweep;
//! - repeated disconnects keep the cursor monotone with zero gap events
//!   (the gap counter is diagnostic, never fatal).
//!
//! Log-structure invariants (seqno monotonicity, retention caps,
//! truncation detection) are property-tested in crates/dlm/src/log.rs.

use displaydb::dlm::ShardCursor;
use displaydb::nms::nms_catalog;
use displaydb::prelude::*;
use displaydb::wire::Channel;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("displaydb-it-replay")
        .join(format!("{}-{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn short_timeout(name: &str) -> ClientConfig {
    ClientConfig {
        name: name.into(),
        cache_bytes: 1 << 20,
        call_timeout: Duration::from_millis(300),
    }
}

/// A supervised-client factory whose connections can be killed on demand
/// (each gets a fresh [`FaultPlan`], exposed through `plan_slot`) and
/// whose reconnects are held off while `gate` is false.
type PlanSlot = Arc<std::sync::Mutex<Arc<FaultPlan>>>;

fn gated_factory(hub: &LocalHub) -> (ChannelFactory, PlanSlot, Arc<AtomicBool>) {
    let plan_slot: PlanSlot = Arc::new(std::sync::Mutex::new(Arc::new(FaultPlan::new())));
    let gate = Arc::new(AtomicBool::new(true));
    let factory: ChannelFactory = {
        let hub = hub.clone();
        let plan_slot = Arc::clone(&plan_slot);
        let gate = Arc::clone(&gate);
        Arc::new(move || {
            if !gate.load(Ordering::SeqCst) {
                return Err(DbError::Disconnected);
            }
            let plan = Arc::new(FaultPlan::new());
            *plan_slot.lock().unwrap() = Arc::clone(&plan);
            let inner: Box<dyn Channel> = Box::new(hub.connect()?);
            Ok(Box::new(FaultyChannel::wrap(inner, plan)) as Box<dyn Channel>)
        })
    };
    (factory, plan_slot, gate)
}

/// Sever the supervised client's current link and close the gate so the
/// supervisor spins until the test reopens it.
fn sever(plan_slot: &PlanSlot, gate: &AtomicBool) {
    gate.store(false, Ordering::SeqCst);
    plan_slot.lock().unwrap().kill_now();
}

fn await_ping(client: &DbClient) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.ping().is_err() {
        assert!(Instant::now() < deadline, "client never reconnected");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Drive `display` until the DO's Utilization attribute reaches `want`.
fn await_value(display: &Display, id: DoId, want: f64, deadline: Duration) {
    let start = Instant::now();
    loop {
        display
            .wait_and_process(Duration::from_millis(100))
            .unwrap();
        if display.object(id).unwrap().attr("Utilization") == Some(&Value::Float(want)) {
            return;
        }
        assert!(
            start.elapsed() < deadline,
            "display never reached {want}: {:?}",
            display.object(id).unwrap().attrs
        );
    }
}

/// Wait until the viewer's DLC cursor has adopted at least one
/// cursor-ack, so "replay from my cursor" is exercised with a real
/// (non-zero) frontier.
fn await_cursor(client: &DbClient) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let cursor = client.dlc().cursor_of(0);
        if cursor > 0 {
            return cursor;
        }
        assert!(Instant::now() < deadline, "viewer never adopted a cursor");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Disconnect while the world keeps committing; reconnect resumes the
/// session and converges by replaying the logged suffix — zero resyncs,
/// zero re-read traffic. This is the R4 storm in miniature.
#[test]
fn resume_replays_suffix_without_resync() {
    let catalog = Arc::new(nms_catalog());
    let hub = LocalHub::new();
    let server =
        Server::spawn_local(Arc::clone(&catalog), ServerConfig::new(tmp("replay")), &hub).unwrap();

    let updater = DbClient::connect(
        Box::new(hub.connect().unwrap()),
        ClientConfig::named("updater"),
    )
    .unwrap();
    let (factory, plan_slot, gate) = gated_factory(&hub);
    let viewer = DbClient::connect_supervised(
        factory,
        ReconnectPolicy::fast_test(),
        short_timeout("viewer"),
    )
    .unwrap();

    let mut oids = Vec::new();
    let mut txn = updater.begin().unwrap();
    for _ in 0..8 {
        oids.push(txn.create(updater.new_object("Link").unwrap()).unwrap().oid);
    }
    txn.commit().unwrap();

    let cache = Arc::new(DisplayCache::new());
    let display = Display::open(Arc::clone(&viewer), cache, "map");
    let ids: Vec<DoId> = oids
        .iter()
        .map(|&oid| {
            display
                .add_object(&width_coded_link("Utilization"), vec![oid])
                .unwrap()
        })
        .collect();

    // Warm up: one live update lands, the drain-to-empty ack gives the
    // viewer a real cursor to carry into the outage.
    let mut txn = updater.begin().unwrap();
    txn.update(oids[0], |o| o.set(&catalog, "Utilization", 0.01))
        .unwrap();
    txn.commit().unwrap();
    await_value(&display, ids[0], 0.01, Duration::from_secs(5));
    let cursor_before = await_cursor(&viewer);

    // Outage: the viewer's link dies while every link keeps changing.
    sever(&plan_slot, &gate);
    for (i, &oid) in oids.iter().enumerate() {
        let mut txn = updater.begin().unwrap();
        let val = 0.5 + i as f64 / 100.0;
        txn.update(oid, |o| o.set(&catalog, "Utilization", val))
            .unwrap();
        txn.commit().unwrap();
    }

    // Reconnect: resume + replay, no resync.
    gate.store(true, Ordering::SeqCst);
    await_ping(&viewer);
    for (i, &id) in ids.iter().enumerate() {
        await_value(
            &display,
            id,
            0.5 + i as f64 / 100.0,
            Duration::from_secs(10),
        );
    }

    let recovery = &viewer.conn_stats().recovery;
    assert_eq!(recovery.sessions_resumed.get(), 1, "session must resume");
    assert!(
        recovery.replay_catchups.get() >= 1,
        "recovery must go through the replay path"
    );
    assert_eq!(recovery.replay_truncations.get(), 0);
    assert_eq!(
        recovery.resync_objects.get(),
        0,
        "replay catch-up must not re-read anything"
    );
    assert_eq!(
        viewer.dlc().stats().resyncs_in.get(),
        0,
        "no resync sweep may reach the viewer"
    );
    assert!(
        viewer.dlc().cursor_of(0) > cursor_before,
        "the cursor must advance past the replayed suffix"
    );
    assert_eq!(viewer.dlc().stats().cursor_gaps.get(), 0);
    drop(server);
}

/// Forced truncation (the R4 fault injection): the cursor is evicted
/// from the log while the viewer is away, so resume falls back to
/// exactly one full resync — and only one.
#[test]
fn truncated_cursor_falls_back_to_exactly_one_resync() {
    let catalog = Arc::new(nms_catalog());
    let hub = LocalHub::new();
    let server = Server::spawn_local(
        Arc::clone(&catalog),
        ServerConfig::new(tmp("truncate")),
        &hub,
    )
    .unwrap();

    let updater = DbClient::connect(
        Box::new(hub.connect().unwrap()),
        ClientConfig::named("updater"),
    )
    .unwrap();
    let (factory, plan_slot, gate) = gated_factory(&hub);
    let viewer = DbClient::connect_supervised(
        factory,
        ReconnectPolicy::fast_test(),
        short_timeout("trunc"),
    )
    .unwrap();

    let mut txn = updater.begin().unwrap();
    let link = txn.create(updater.new_object("Link").unwrap()).unwrap();
    let called_back = txn.create(updater.new_object("Link").unwrap()).unwrap();
    txn.commit().unwrap();

    let cache = Arc::new(DisplayCache::new());
    let display = Display::open(Arc::clone(&viewer), cache, "map");
    let class = width_coded_link("Utilization");
    let id = display.add_object(&class, vec![link.oid]).unwrap();
    let called_back_id = display.add_object(&class, vec![called_back.oid]).unwrap();

    let write_both = |value: f64| {
        let mut txn = updater.begin().unwrap();
        for oid in [link.oid, called_back.oid] {
            txn.update(oid, |o| o.set(&catalog, "Utilization", value))
                .unwrap();
        }
        txn.commit().unwrap();
    };
    write_both(0.01);
    await_value(&display, id, 0.01, Duration::from_secs(5));
    await_value(&display, called_back_id, 0.01, Duration::from_secs(5));
    await_cursor(&viewer);

    // Outage, a commit the viewer misses, then the log loses the suffix.
    // One of the two copies goes the way a copy goes when the commit's
    // callback is the last frame the dying connection delivers: dropped,
    // and the notification that would have refreshed it never arrives.
    // That object is in no manifest, so the server cannot report it stale.
    sever(&plan_slot, &gate);
    viewer.cache().invalidate(&[called_back.oid]);
    write_both(0.95);
    server.core().dlm().update_log_of(0).truncate_all();

    gate.store(true, Ordering::SeqCst);
    await_ping(&viewer);
    await_value(&display, id, 0.95, Duration::from_secs(10));
    await_value(&display, called_back_id, 0.95, Duration::from_secs(10));

    let recovery = &viewer.conn_stats().recovery;
    assert_eq!(recovery.sessions_resumed.get(), 1, "session must resume");
    assert_eq!(
        recovery.replay_truncations.get(),
        1,
        "truncation must fall back to exactly one full resync"
    );
    assert_eq!(recovery.replay_catchups.get(), 0);
    assert!(
        recovery.resync_objects.get() >= 1,
        "the fallback must actually re-read the stale set"
    );
    drop(server);
}

/// An outage longer than the update log's window: the viewer's cursor
/// is no longer admitted, yet its copy of an object nobody changed comes
/// back current, proven by its fingerprint, with no re-read. A delta
/// kept that copy before the outage, so no record of acked callbacks
/// could have proven it.
#[test]
fn a_kept_copy_outlives_an_outage_longer_than_the_log_window() {
    let catalog = Arc::new(nms_catalog());
    let hub = LocalHub::new();
    let mut config = ServerConfig::new(tmp("long-outage"));
    config.dlm.log.max_entries = 4;
    let server = Server::spawn_local(Arc::clone(&catalog), config, &hub).unwrap();
    let updater = DbClient::connect(
        Box::new(hub.connect().unwrap()),
        ClientConfig::named("updater"),
    )
    .unwrap();
    let (factory, plan_slot, gate) = gated_factory(&hub);
    let viewer = DbClient::connect_supervised(
        factory,
        ReconnectPolicy::fast_test(),
        short_timeout("viewer"),
    )
    .unwrap();

    let mut txn = updater.begin().unwrap();
    let link = txn.create(updater.new_object("Link").unwrap()).unwrap().oid;
    let other = txn.create(updater.new_object("Link").unwrap()).unwrap().oid;
    txn.commit().unwrap();
    let display = Display::open(Arc::clone(&viewer), Arc::new(DisplayCache::new()), "map");
    let id = display
        .add_object(&width_coded_link("Utilization"), vec![link])
        .unwrap();
    let mut txn = updater.begin().unwrap();
    txn.update(link, |o| o.set(&catalog, "Utilization", 0.3))
        .unwrap();
    txn.commit().unwrap();
    await_value(&display, id, 0.3, Duration::from_secs(5));
    assert_eq!(viewer.dlc().stats().deltas_in.get(), 1);
    assert!(viewer.cache().contains(link), "the delta kept the copy");
    let cursor = await_cursor(&viewer);

    // Outage: more commits than the window holds, none of them to `link`.
    sever(&plan_slot, &gate);
    for i in 0..8 {
        let mut txn = updater.begin().unwrap();
        txn.update(other, |o| {
            o.set(&catalog, "Utilization", f64::from(i) / 10.0)
        })
        .unwrap();
        txn.commit().unwrap();
    }
    assert!(!server.core().dlm().update_log_of(0).covers(cursor));
    let reads = server.core().stats().reads.get();

    gate.store(true, Ordering::SeqCst);
    await_ping(&viewer);
    let recovery = &viewer.conn_stats().recovery;
    assert_eq!(recovery.sessions_resumed.get(), 1, "session must resume");
    assert_eq!(
        recovery.replay_truncations.get(),
        1,
        "the window lost the cursor"
    );
    assert_eq!(
        recovery.resync_objects.get(),
        0,
        "the copy was proven current"
    );
    assert!(viewer.cache().contains(link));
    let obj = viewer.read(link).unwrap();
    assert_eq!(
        obj.get(&catalog, "Utilization").unwrap(),
        &Value::Float(0.3)
    );
    assert_eq!(
        server.core().stats().reads.get(),
        reads,
        "nothing was re-read"
    );
    drop(server);
}

/// A restarted server refuses the resume token (fresh incarnation,
/// fresh seqno space): recovery is a fresh session + full resync, the
/// cursor re-baselines from zero, and the regression is counted — never
/// a panic, never a stuck replay loop.
#[test]
fn server_restart_rebaselines_the_cursor() {
    let catalog = Arc::new(nms_catalog());
    let dir = tmp("restart");
    let durable = |dir: &std::path::Path| {
        let mut c = ServerConfig::new(dir);
        c.sync_commits = true;
        c
    };
    let hub_slot = Arc::new(std::sync::Mutex::new(LocalHub::new()));
    let hub0 = hub_slot.lock().unwrap().clone();
    let mut server = Server::spawn_local(Arc::clone(&catalog), durable(&dir), &hub0).unwrap();

    let slot_factory = || -> ChannelFactory {
        let slot = Arc::clone(&hub_slot);
        Arc::new(move || {
            let channel = slot.lock().unwrap().connect()?;
            Ok(Box::new(channel) as Box<dyn Channel>)
        })
    };
    let client = DbClient::connect_supervised(
        slot_factory(),
        ReconnectPolicy::fast_test(),
        short_timeout("nms"),
    )
    .unwrap();
    // Commits by the watcher itself do not notify the origin, so a
    // separate (also supervised) updater drives the display.
    let updater = DbClient::connect_supervised(
        slot_factory(),
        ReconnectPolicy::fast_test(),
        short_timeout("updater"),
    )
    .unwrap();

    let mut txn = updater.begin().unwrap();
    let link = txn.create(updater.new_object("Link").unwrap()).unwrap();
    txn.commit().unwrap();

    let cache = Arc::new(DisplayCache::new());
    let display = Display::open(Arc::clone(&client), cache, "map");
    let id = display
        .add_object(&width_coded_link("Utilization"), vec![link.oid])
        .unwrap();
    let mut txn = updater.begin().unwrap();
    txn.update(link.oid, |o| o.set(&catalog, "Utilization", 0.3))
        .unwrap();
    txn.commit().unwrap();
    await_value(&display, id, 0.3, Duration::from_secs(5));
    await_cursor(&client);

    // Restart over the same data directory on a fresh hub.
    let hub2 = LocalHub::new();
    *hub_slot.lock().unwrap() = hub2.clone();
    server.shutdown();
    drop(server);
    let server2 = Server::spawn_local(Arc::clone(&catalog), durable(&dir), &hub2).unwrap();

    await_ping(&client);
    await_ping(&updater);
    let recovery = &client.conn_stats().recovery;
    assert_eq!(
        recovery.sessions_resumed.get(),
        0,
        "a restarted server must refuse the stale resume token"
    );
    assert_eq!(recovery.replay_catchups.get(), 0);
    assert_eq!(
        recovery.replay_truncations.get(),
        0,
        "a fresh (non-resumed) session is not a truncation event"
    );

    // The new incarnation's acks start over; the re-baselined cursor
    // adopts them without tripping the gap detector.
    let mut txn = updater.begin().unwrap();
    txn.update(link.oid, |o| o.set(&catalog, "Utilization", 0.6))
        .unwrap();
    txn.commit().unwrap();
    await_value(&display, id, 0.6, Duration::from_secs(10));
    await_cursor(&client);
    assert_eq!(
        client.dlc().stats().cursor_gaps.get(),
        0,
        "re-baselined cursor must adopt the fresh seqno space cleanly"
    );
    drop(server2);
}

/// Replay streams only the suffix that intersects the reconnecting
/// client's registered interests: a viewer watching one link must not
/// receive the flood that hit somebody else's objects while it was away.
#[test]
fn replay_is_interest_filtered() {
    let catalog = Arc::new(nms_catalog());
    let hub = LocalHub::new();
    let server =
        Server::spawn_local(Arc::clone(&catalog), ServerConfig::new(tmp("filter")), &hub).unwrap();

    let updater = DbClient::connect(
        Box::new(hub.connect().unwrap()),
        ClientConfig::named("updater"),
    )
    .unwrap();
    let (factory, plan_slot, gate) = gated_factory(&hub);
    let viewer_a =
        DbClient::connect_supervised(factory, ReconnectPolicy::fast_test(), short_timeout("a"))
            .unwrap();
    let viewer_b =
        DbClient::connect(Box::new(hub.connect().unwrap()), ClientConfig::named("b")).unwrap();

    let mut txn = updater.begin().unwrap();
    let oid_a = txn.create(updater.new_object("Link").unwrap()).unwrap().oid;
    let oid_b = txn.create(updater.new_object("Link").unwrap()).unwrap().oid;
    txn.commit().unwrap();

    let cache_a = Arc::new(DisplayCache::new());
    let display_a = Display::open(Arc::clone(&viewer_a), cache_a, "a");
    let id_a = display_a
        .add_object(&width_coded_link("Utilization"), vec![oid_a])
        .unwrap();
    let cache_b = Arc::new(DisplayCache::new());
    let display_b = Display::open(Arc::clone(&viewer_b), cache_b, "b");
    let id_b = display_b
        .add_object(&width_coded_link("Utilization"), vec![oid_b])
        .unwrap();

    let mut txn = updater.begin().unwrap();
    txn.update(oid_a, |o| o.set(&catalog, "Utilization", 0.01))
        .unwrap();
    txn.commit().unwrap();
    await_value(&display_a, id_a, 0.01, Duration::from_secs(5));
    await_cursor(&viewer_a);

    // A goes away; its object changes 3 times, B's changes 40 times.
    sever(&plan_slot, &gate);
    let before = viewer_a.dlc().stats().notifications_in.get();
    for i in 1..=3u32 {
        let mut txn = updater.begin().unwrap();
        txn.update(oid_a, |o| {
            o.set(&catalog, "Utilization", f64::from(i) / 10.0)
        })
        .unwrap();
        txn.commit().unwrap();
    }
    for i in 1..=40u32 {
        let mut txn = updater.begin().unwrap();
        txn.update(oid_b, |o| {
            o.set(&catalog, "Utilization", f64::from(i % 90) / 100.0)
        })
        .unwrap();
        txn.commit().unwrap();
    }

    gate.store(true, Ordering::SeqCst);
    await_ping(&viewer_a);
    await_value(&display_a, id_a, 0.3, Duration::from_secs(10));
    await_value(&display_b, id_b, 0.4, Duration::from_secs(10));

    assert!(
        viewer_a.conn_stats().recovery.replay_catchups.get() >= 1,
        "A must recover by replay"
    );
    let replayed = viewer_a.dlc().stats().notifications_in.get() - before;
    assert!(
        replayed <= 6,
        "replay leaked unwatched events to A: {replayed} notifications \
         for 3 watched updates (40 unwatched committed meanwhile)"
    );
    drop(server);
}

/// A 40-link map watched in full by a viewer whose server→client frames
/// `plan` can delay, an updater on a clean link, and a server whose
/// outboxes overflow past `STORM_HIGH_WATER` queued events.
struct StormFixture {
    catalog: Arc<Catalog>,
    server: Server,
    plan: Arc<FaultPlan>,
    fast_hub: LocalHub,
    updater: Arc<DbClient>,
    viewer: Arc<DbClient>,
    display: Arc<Display>,
    oids: Vec<Oid>,
    ids: Vec<DoId>,
}

const STORM_HIGH_WATER: usize = 8;

fn storm_fixture(name: &str, protocol: NotifyProtocol) -> StormFixture {
    let catalog = Arc::new(nms_catalog());
    let fast_hub = LocalHub::new();
    let slow_hub = LocalHub::new();
    let plan = Arc::new(FaultPlan::new());
    let mut config = ServerConfig::new(tmp(name));
    config.dlm.protocol = protocol;
    config.dlm.overload.outbox_high_water = STORM_HIGH_WATER;
    // Async invalidation callbacks: with synchronous ones each storm
    // commit waits ~one injected delay for the viewer's callback ack,
    // which paces enqueues at exactly the stalled writer's drain rate —
    // the queue would never build. Decoupled, the storm bursts and the
    // backlog piles up behind the parked writer deterministically.
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
    .unwrap();

    let updater = DbClient::connect(
        Box::new(fast_hub.connect().unwrap()),
        ClientConfig::named("updater"),
    )
    .unwrap();
    let viewer = DbClient::connect(
        Box::new(slow_hub.connect().unwrap()),
        ClientConfig::named("viewer"),
    )
    .unwrap();

    // A storm on one object coalesces in place (latest wins) and never
    // overflows — the sweep is for bursts across *many* objects, so
    // build a 40-link topology the viewer watches in full.
    let mut oids = Vec::new();
    let mut txn = updater.begin().unwrap();
    for _ in 0..40 {
        oids.push(txn.create(updater.new_object("Link").unwrap()).unwrap().oid);
    }
    txn.commit().unwrap();

    let cache = Arc::new(DisplayCache::new());
    let display = Display::open(Arc::clone(&viewer), cache, "map");
    let ids: Vec<DoId> = oids
        .iter()
        .map(|&oid| {
            display
                .add_object(&width_coded_link("Utilization"), vec![oid])
                .unwrap()
        })
        .collect();

    // Flush the viewer's cached copies before any delay is armed (a
    // client holding copies paces committers through the callback push),
    // and drain the resulting notifications. One commit per link: each
    // commit is a full client→server round-trip, which paces the
    // enqueues so the (healthy, undelayed) writer drains between them —
    // a single 40-write burst here can trip the high-water mark on its
    // own and sweep before the storm.
    for &oid in &oids {
        let mut txn = updater.begin().unwrap();
        txn.update(oid, |o| o.set(&catalog, "Utilization", 0.01))
            .unwrap();
        txn.commit().unwrap();
    }
    await_value(&display, *ids.last().unwrap(), 0.01, Duration::from_secs(5));
    while display
        .wait_and_process(Duration::from_millis(200))
        .unwrap()
        > 0
    {}

    StormFixture {
        catalog,
        server,
        plan,
        fast_hub,
        updater,
        viewer,
        display,
        oids,
        ids,
    }
}

impl StormFixture {
    /// Stall the viewer's channel hard — the outbox writer parks in one
    /// 400 ms send — and land one commit over `links` behind it. One
    /// commit makes the burst land atomically relative to the parked
    /// writer: commit-by-commit the storm only stays ahead of the park on
    /// an unloaded machine.
    fn storm(&self, links: &[Oid]) {
        self.plan.set_delay(Duration::from_millis(400));
        let locks = || self.server.core().locks().locked_objects();
        let held = locks();
        let mut txn = self.updater.begin().unwrap();
        for &oid in links {
            txn.update(oid, |o| o.set(&self.catalog, "Utilization", 0.95))
                .unwrap();
        }
        txn.commit().unwrap();
        // The commit is answered before its fan-out, and lets go of its
        // locks after it.
        let deadline = Instant::now() + Duration::from_secs(10);
        while locks() > held {
            assert!(
                Instant::now() < deadline,
                "the storm's commit never finished"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let overload = &self.server.core().dlm().stats().overload;
        assert!(overload.overflows.get() >= 1, "outbox never overflowed");
        // The memory bound: a stalled viewer costs the server at most
        // the high-water mark plus the marker, whatever the storm's size.
        assert!(
            overload.queue_depth.high_water() <= STORM_HIGH_WATER as u64 + 1,
            "outbox depth exceeded the high-water mark: {}",
            overload.queue_depth.high_water()
        );
    }

    /// The link heals; every display object in `ids` must converge — by
    /// replay, never by resync.
    fn heal_and_converge(&self, ids: &[DoId]) {
        self.plan.clear_delay();
        for &id in ids {
            await_value(&self.display, id, 0.95, Duration::from_secs(30));
        }
        assert!(
            self.viewer.dlc().stats().replays_requested.get() >= 1,
            "the sweep must arrive as a ReplayNeeded the viewer answers"
        );
        assert_eq!(
            self.viewer.dlc().stats().resyncs_in.get(),
            0,
            "overflow must never fall back to resync while the log covers the cursor"
        );
    }
}

/// Outbox overflow: the backlog sweeps to a single `ReplayNeeded` marker,
/// the viewer answers it with `ReplayFrom` on its own, and converges by
/// replay with the server's queue depth bounded throughout.
#[test]
fn overflow_sweeps_to_replay_needed_and_converges() {
    let fx = storm_fixture("overflow-replay", NotifyProtocol::PostCommit);
    fx.storm(&fx.oids);
    fx.heal_and_converge(&fx.ids);
}

/// Early-notify marks are never logged, so a sweep (and the replay-pending
/// window after it) can swallow the `Resolved` of a mark the viewer is
/// already showing, and the replay has nothing to say about an object no
/// transaction committed to. The viewer must drop its marks when it hears
/// `ReplayNeeded` — otherwise the link stays rendered "being updated"
/// until its next refresh, possibly forever.
#[test]
fn overflow_clears_a_mark_whose_resolution_was_swept() {
    let fx = storm_fixture("overflow-mark", NotifyProtocol::EarlyNotify);
    let marker = DbClient::connect(
        Box::new(fx.fast_hub.connect().unwrap()),
        ClientConfig::named("marker"),
    )
    .unwrap();

    // A second updater's open transaction marks one link on the map.
    let (marked_oid, marked_id) = (fx.oids[0], fx.ids[0]);
    let mut open = marker.begin().unwrap();
    open.lock_exclusive(marked_oid).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while fx.display.object(marked_id).unwrap().marked_by.is_none() {
        assert!(Instant::now() < deadline, "the mark never reached the map");
        fx.display
            .wait_and_process(Duration::from_millis(100))
            .unwrap();
    }

    // Storm the other 39 links past the high-water mark, then abort the
    // marking transaction while the viewer's outbox is still waiting for
    // its `ReplayFrom`: the `Resolved` is dropped on the floor.
    fx.storm(&fx.oids[1..]);
    open.abort().unwrap();

    fx.heal_and_converge(&fx.ids[1..]);
    assert_eq!(
        fx.display.object(marked_id).unwrap().marked_by,
        None,
        "a mark whose Resolved was swept must not outlive the sweep"
    );
}

/// Wait until the viewer holds a positive cursor on every shard, so the
/// resume token carries a real per-shard frontier into the outage.
fn await_shard_cursors(client: &DbClient, shards: u32) -> Vec<ShardCursor> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let cursors = client.dlc().cursors();
        if (0..shards).all(|s| cursors.iter().any(|sc| sc.shard == s && sc.cursor > 0)) {
            return cursors;
        }
        assert!(
            Instant::now() < deadline,
            "viewer never adopted cursors on all {shards} shards: {cursors:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Shard-parallel recovery: on a 4-shard DLM, one shard's log loses the
/// viewer's cursor during the outage while the other three retain it.
/// The resume must replay the caught-up shards (cursor-vector admission)
/// and sweep only the truncated shard to a scoped resync — the session
/// never falls back to the legacy whole-session resync.
#[test]
fn shard_parallel_replay_with_one_truncated_shard() {
    let catalog = Arc::new(nms_catalog());
    let hub = LocalHub::new();
    let mut config = ServerConfig::new(tmp("shard-replay"));
    config.dlm.shards = 4;
    let server = Server::spawn_local(Arc::clone(&catalog), config, &hub).unwrap();

    let updater = DbClient::connect(
        Box::new(hub.connect().unwrap()),
        ClientConfig::named("updater"),
    )
    .unwrap();
    let (factory, plan_slot, gate) = gated_factory(&hub);
    let viewer = DbClient::connect_supervised(
        factory,
        ReconnectPolicy::fast_test(),
        short_timeout("shards"),
    )
    .unwrap();

    // Create links until every shard owns at least one; watch one per
    // shard so both replay paths have interest on every shard.
    let map = server.core().dlm().map();
    let mut by_shard: Vec<Option<Oid>> = vec![None; 4];
    let mut txn = updater.begin().unwrap();
    while by_shard.iter().any(Option::is_none) {
        let oid = txn.create(updater.new_object("Link").unwrap()).unwrap().oid;
        let slot = &mut by_shard[map.shard_of(oid) as usize];
        if slot.is_none() {
            *slot = Some(oid);
        }
    }
    txn.commit().unwrap();
    let oids: Vec<Oid> = by_shard.into_iter().map(Option::unwrap).collect();

    let cache = Arc::new(DisplayCache::new());
    let display = Display::open(Arc::clone(&viewer), cache, "map");
    let ids: Vec<DoId> = oids
        .iter()
        .map(|&oid| {
            display
                .add_object(&width_coded_link("Utilization"), vec![oid])
                .unwrap()
        })
        .collect();

    // Warm up every shard so each per-shard cursor is real (non-zero).
    for (i, &oid) in oids.iter().enumerate() {
        let mut txn = updater.begin().unwrap();
        txn.update(oid, |o| {
            o.set(&catalog, "Utilization", 0.01 + i as f64 / 100.0)
        })
        .unwrap();
        txn.commit().unwrap();
    }
    for (i, &id) in ids.iter().enumerate() {
        await_value(
            &display,
            id,
            0.01 + i as f64 / 100.0,
            Duration::from_secs(5),
        );
    }
    await_shard_cursors(&viewer, 4);

    // Outage: every shard misses one commit, then shard 2's log loses
    // its suffix (the other shards keep theirs).
    sever(&plan_slot, &gate);
    for (i, &oid) in oids.iter().enumerate() {
        let mut txn = updater.begin().unwrap();
        txn.update(oid, |o| {
            o.set(&catalog, "Utilization", 0.5 + i as f64 / 100.0)
        })
        .unwrap();
        txn.commit().unwrap();
    }
    let truncated_shard = 2usize;
    server
        .core()
        .dlm()
        .update_log_of(truncated_shard)
        .truncate_all();

    gate.store(true, Ordering::SeqCst);
    await_ping(&viewer);
    for (i, &id) in ids.iter().enumerate() {
        await_value(
            &display,
            id,
            0.5 + i as f64 / 100.0,
            Duration::from_secs(10),
        );
    }

    let recovery = &viewer.conn_stats().recovery;
    assert_eq!(recovery.sessions_resumed.get(), 1, "session must resume");
    assert!(
        recovery.replay_catchups.get() >= 1,
        "caught-up shards must admit the cursor vector for replay"
    );
    assert_eq!(
        recovery.replay_truncations.get(),
        0,
        "one truncated shard must not demote the whole session to resync"
    );
    assert!(
        viewer.dlc().stats().resyncs_in.get() >= 1,
        "the truncated shard must sweep to a scoped resync"
    );
    // The shard logs share one stats handle, so the aggregate view pins
    // the split: exactly one shard hit the truncated path, and the
    // three caught-up shards each served a replay slice.
    let log_stats = server.core().dlm().update_log_of(truncated_shard).stats();
    assert_eq!(
        log_stats.truncated_replays.get(),
        1,
        "exactly one shard (the truncated one) may fall back"
    );
    assert!(
        log_stats.replays_served.get() >= 3,
        "every caught-up shard must serve a replay slice, got {}",
        log_stats.replays_served.get()
    );
    drop(server);
}

/// Kill the viewer's link repeatedly under a continuous update stream:
/// every cycle converges by replay, the cursor never regresses within
/// the incarnation, and the gap detector stays silent — the worst-case
/// flapping client is panic-free.
#[test]
fn repeated_disconnects_keep_the_cursor_monotone() {
    let catalog = Arc::new(nms_catalog());
    let hub = LocalHub::new();
    let server =
        Server::spawn_local(Arc::clone(&catalog), ServerConfig::new(tmp("flap")), &hub).unwrap();

    let updater = DbClient::connect(
        Box::new(hub.connect().unwrap()),
        ClientConfig::named("updater"),
    )
    .unwrap();
    let (factory, plan_slot, gate) = gated_factory(&hub);
    let viewer =
        DbClient::connect_supervised(factory, ReconnectPolicy::fast_test(), short_timeout("flap"))
            .unwrap();

    let mut txn = updater.begin().unwrap();
    let link = txn.create(updater.new_object("Link").unwrap()).unwrap();
    txn.commit().unwrap();

    let cache = Arc::new(DisplayCache::new());
    let display = Display::open(Arc::clone(&viewer), cache, "map");
    let id = display
        .add_object(&width_coded_link("Utilization"), vec![link.oid])
        .unwrap();

    let mut txn = updater.begin().unwrap();
    txn.update(link.oid, |o| o.set(&catalog, "Utilization", 0.01))
        .unwrap();
    txn.commit().unwrap();
    await_value(&display, id, 0.01, Duration::from_secs(5));
    let mut last_cursor = await_cursor(&viewer);

    for cycle in 1..=3u32 {
        sever(&plan_slot, &gate);
        let want = f64::from(cycle) / 5.0;
        let mut txn = updater.begin().unwrap();
        txn.update(link.oid, |o| o.set(&catalog, "Utilization", want))
            .unwrap();
        txn.commit().unwrap();

        gate.store(true, Ordering::SeqCst);
        await_ping(&viewer);
        await_value(&display, id, want, Duration::from_secs(10));
        let deadline = Instant::now() + Duration::from_secs(5);
        while viewer.dlc().cursor_of(0) <= last_cursor {
            assert!(
                Instant::now() < deadline,
                "cycle {cycle}: cursor never advanced past {last_cursor}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        last_cursor = viewer.dlc().cursor_of(0);
    }

    let recovery = &viewer.conn_stats().recovery;
    assert_eq!(recovery.sessions_resumed.get(), 3);
    assert!(
        recovery.replay_catchups.get() >= 3,
        "every cycle must converge by replay"
    );
    assert_eq!(viewer.dlc().stats().cursor_gaps.get(), 0);
    assert_eq!(viewer.dlc().stats().resyncs_in.get(), 0);
    drop(server);
}
