//! Cross-restart replay: the durable update log (DESIGN.md § 14) lets a
//! reconnecting client with a live cursor catch up by `ReplayFrom` even
//! though the server *process* that issued its resume token is gone.
//!
//! These tests hard-kill a durable-log server (no outbox drain, no
//! graceful shutdown) and assert the three recovery invariants end to
//! end:
//!
//! - **no lost committed update** — everything committed before the kill
//!   is readable after restart and reaches the watching display;
//! - **replay, not resync** — when the durable window still covers the
//!   client's cursor, recovery is an interest-filtered replay
//!   (`cross_restart_replays == 1`, zero resync traffic);
//! - **safe fallback** — when retention evicted the cursor while the
//!   client was away, recovery degrades to exactly the stale-set resync,
//!   never a stuck replay or a cursor-gap storm.
//!
//! Two more pin the cursor a restart starts from: a graceful shutdown
//! sends every viewer its owed cursor ack before closing, and with the
//! durable log on no ack runs ahead of its shard log's head.
//!
//! The deterministic crash-point matrix (torn appends, unsynced tails,
//! mid-rotation kills) lives in tests/crash_points.rs — its harness is
//! process-global, so it gets a binary of its own.

mod support;

use displaydb::nms::nms_catalog;
use displaydb::prelude::*;
use displaydb::wire::Channel;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use support::TempDir;

fn durable_config(dir: &std::path::Path) -> ServerConfig {
    let mut c = ServerConfig::new(dir);
    c.sync_commits = true;
    c.durable_log = DurableLogConfig {
        // Sync every batch: the hard kill below must not be able to eat
        // a committed record out of the spill.
        sync_every: 1,
        ..DurableLogConfig::enabled()
    };
    c
}

fn short_timeout(name: &str) -> ClientConfig {
    ClientConfig {
        name: name.into(),
        cache_bytes: 1 << 20,
        call_timeout: Duration::from_millis(300),
    }
}

type HubSlot = Arc<Mutex<LocalHub>>;

/// A supervised-client factory that always dials whatever hub currently
/// sits in `slot` (so a restarted server on a fresh hub is reachable)
/// and refuses to connect while `gate` is false (so the test controls
/// exactly when the reconnect happens).
fn gated_slot_factory(slot: &HubSlot) -> (ChannelFactory, Arc<AtomicBool>) {
    let gate = Arc::new(AtomicBool::new(true));
    let factory: ChannelFactory = {
        let slot = Arc::clone(slot);
        let gate = Arc::clone(&gate);
        Arc::new(move || {
            if !gate.load(Ordering::SeqCst) {
                return Err(DbError::Disconnected);
            }
            let channel = slot.lock().unwrap().connect()?;
            Ok(Box::new(channel) as Box<dyn Channel>)
        })
    };
    (factory, gate)
}

fn await_ping(client: &DbClient) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.ping().is_err() {
        assert!(Instant::now() < deadline, "client never reconnected");
        std::thread::sleep(Duration::from_millis(25));
    }
}

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

/// Hard-kill the server mid-session; restart it over the same data
/// directory; commit an update the viewer missed; reconnect. The stale
/// resume token is refused (fresh process incarnation) but the durable
/// log's incarnation survived and its window covers the viewer's cursor,
/// so recovery is a cross-restart replay — no resync, and the cursor
/// stays monotone because the durable seqno space continues.
#[test]
fn hard_kill_recovers_live_cursor_by_replay() {
    let catalog = Arc::new(nms_catalog());
    let tmp = TempDir::new("xrestart-replay");
    let hub_slot: HubSlot = Arc::new(Mutex::new(LocalHub::new()));
    let hub0 = hub_slot.lock().unwrap().clone();
    let mut server =
        Server::spawn_local(Arc::clone(&catalog), durable_config(tmp.path()), &hub0).unwrap();
    let log_incarnations = server.core().log_incarnations();
    assert_ne!(log_incarnations, [0], "durable log must be live");

    let updater = DbClient::connect(
        Box::new(hub0.connect().unwrap()),
        ClientConfig::named("updater"),
    )
    .unwrap();
    let (factory, gate) = gated_slot_factory(&hub_slot);
    let viewer = DbClient::connect_supervised(
        factory,
        ReconnectPolicy::fast_test(),
        short_timeout("viewer"),
    )
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
    txn.update(link.oid, |o| o.set(&catalog, "Utilization", 0.3))
        .unwrap();
    txn.commit().unwrap();
    await_value(&display, id, 0.3, Duration::from_secs(5));
    let cursor_before = await_cursor(&viewer);

    // Crash: no drain, no goodbye. The next hub goes into the slot
    // first so the supervisor can only ever reach the new server.
    gate.store(false, Ordering::SeqCst);
    let hub2 = LocalHub::new();
    *hub_slot.lock().unwrap() = hub2.clone();
    server.hard_kill();
    drop(server);

    let server2 =
        Server::spawn_local(Arc::clone(&catalog), durable_config(tmp.path()), &hub2).unwrap();
    let rec = server2
        .core()
        .dlm_recoveries()
        .first()
        .expect("durable log must report recovery");
    assert!(rec.incarnation_recovered, "log incarnation must survive");
    assert_eq!(server2.core().log_incarnations(), log_incarnations);
    assert!(!rec.window_truncated, "clean kill must keep the window");
    assert!(rec.recovered_entries >= 1, "committed batches must be back");

    // The update the viewer missed lands after the restart, in the same
    // durable seqno space.
    let updater2 = DbClient::connect(
        Box::new(hub2.connect().unwrap()),
        ClientConfig::named("updater2"),
    )
    .unwrap();
    let mut txn = updater2.begin().unwrap();
    txn.update(link.oid, |o| o.set(&catalog, "Utilization", 0.6))
        .unwrap();
    txn.commit().unwrap();

    gate.store(true, Ordering::SeqCst);
    await_ping(&viewer);
    await_value(&display, id, 0.6, Duration::from_secs(10));

    let recovery = &viewer.conn_stats().recovery;
    assert_eq!(
        recovery.sessions_resumed.get(),
        0,
        "the stale resume token must be refused"
    );
    assert_eq!(
        recovery.cross_restart_replays.get(),
        1,
        "recovery must cross the restart on the durable log"
    );
    assert_eq!(recovery.replay_catchups.get(), 1);
    assert_eq!(recovery.replay_truncations.get(), 0);
    assert_eq!(
        recovery.resync_objects.get(),
        0,
        "a covered cursor must not trigger resync re-reads"
    );
    assert_eq!(viewer.dlc().stats().resyncs_in.get(), 0);
    assert_eq!(server2.core().stats().sessions_recovered.get(), 1);

    // Cursor monotonicity across incarnations: the durable seqno space
    // continued, so the replayed suffix acks strictly past the old
    // frontier and the gap detector stays silent.
    let deadline = Instant::now() + Duration::from_secs(5);
    while viewer.dlc().cursor_of(0) <= cursor_before {
        assert!(
            Instant::now() < deadline,
            "cursor never advanced past {cursor_before}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(viewer.dlc().stats().cursor_gaps.get(), 0);
    drop(server2);
}

/// While the viewer is away a commit storm rolls the bounded replay
/// window (tiny ring and durable caps) far past its cursor. After the
/// kill+restart the window no longer covers the cursor: recovery must
/// fall back to the stale-set resync — once, cleanly — and never claim
/// a cross-restart replay.
#[test]
fn evicted_cursor_falls_back_to_resync_after_restart() {
    let catalog = Arc::new(nms_catalog());
    let tmp = TempDir::new("xrestart-trunc");
    let config = |dir: &std::path::Path| {
        let mut c = durable_config(dir);
        // A handful of entries of window: the storm below is far
        // bigger, so the warm-up cursor is guaranteed evicted.
        c.dlm.log.max_entries = 8;
        c.durable_log.segment_bytes = 256;
        c.durable_log.max_total_bytes = 512;
        c
    };
    let hub_slot: HubSlot = Arc::new(Mutex::new(LocalHub::new()));
    let hub0 = hub_slot.lock().unwrap().clone();
    let mut server = Server::spawn_local(Arc::clone(&catalog), config(tmp.path()), &hub0).unwrap();

    let updater = DbClient::connect(
        Box::new(hub0.connect().unwrap()),
        ClientConfig::named("updater"),
    )
    .unwrap();
    let (factory, gate) = gated_slot_factory(&hub_slot);
    let viewer = DbClient::connect_supervised(
        factory,
        ReconnectPolicy::fast_test(),
        short_timeout("trunc"),
    )
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
    let cursor_before = await_cursor(&viewer);

    // Crash while the viewer holds a live cursor; it stays away (gate
    // closed) through the restart and the storm that follows.
    gate.store(false, Ordering::SeqCst);
    let hub2 = LocalHub::new();
    *hub_slot.lock().unwrap() = hub2.clone();
    server.hard_kill();
    drop(server);
    let server2 = Server::spawn_local(Arc::clone(&catalog), config(tmp.path()), &hub2).unwrap();

    // The storm rolls the replay window far past the absent viewer's
    // cursor (ring cap 8 « 61 commits).
    let updater2 = DbClient::connect(
        Box::new(hub2.connect().unwrap()),
        ClientConfig::named("updater2"),
    )
    .unwrap();
    for i in 1..=60u32 {
        let mut txn = updater2.begin().unwrap();
        txn.update(link.oid, |o| {
            o.set(&catalog, "Utilization", f64::from(i % 90) / 100.0)
        })
        .unwrap();
        txn.commit().unwrap();
    }
    let mut txn = updater2.begin().unwrap();
    txn.update(link.oid, |o| o.set(&catalog, "Utilization", 0.77))
        .unwrap();
    txn.commit().unwrap();
    assert!(
        !server2.core().dlm().update_log_of(0).covers(cursor_before),
        "the storm must have rolled the window past the old cursor"
    );

    gate.store(true, Ordering::SeqCst);
    await_ping(&viewer);
    await_value(&display, id, 0.77, Duration::from_secs(10));

    let recovery = &viewer.conn_stats().recovery;
    assert_eq!(recovery.sessions_resumed.get(), 0);
    assert_eq!(
        recovery.cross_restart_replays.get(),
        0,
        "an uncovered cursor must not be admitted for replay"
    );
    assert_eq!(recovery.replay_catchups.get(), 0);
    assert!(
        recovery.resync_objects.get() >= 1,
        "the fallback must re-read the stale set"
    );
    assert_eq!(server2.core().stats().sessions_recovered.get(), 0);

    // The re-baselined cursor adopts the live seqno space cleanly.
    let mut txn = updater2.begin().unwrap();
    txn.update(link.oid, |o| o.set(&catalog, "Utilization", 0.88))
        .unwrap();
    txn.commit().unwrap();
    await_value(&display, id, 0.88, Duration::from_secs(10));
    assert_eq!(viewer.dlc().stats().cursor_gaps.get(), 0);
    drop(server2);
}

/// With the durable log disabled a shard's log incarnation is a nonce of
/// its server process: never 0, never the one an earlier server over the
/// same data directory announced, and nothing claims a cross-restart
/// replay. (The full rebaseline flow is pinned in
/// tests/replay_recovery.rs.)
#[test]
fn disabled_log_advertises_a_per_process_nonce() {
    let catalog = Arc::new(nms_catalog());
    let tmp = TempDir::new("xrestart-off");
    let announced = || {
        let hub = LocalHub::new();
        let mut config = ServerConfig::new(tmp.path());
        config.sync_commits = true;
        let server = Server::spawn_local(Arc::clone(&catalog), config, &hub).unwrap();
        assert!(server.core().dlm_recoveries().is_empty());
        let client = DbClient::connect(
            Box::new(hub.connect().unwrap()),
            ClientConfig::named("plain"),
        )
        .unwrap();
        let incarnations = client.session().log_incarnations;
        assert_eq!(incarnations, server.core().log_incarnations());
        assert_eq!(incarnations.len(), 1);
        assert_ne!(incarnations[0], 0);
        assert_eq!(client.conn_stats().recovery.cross_restart_replays.get(), 0);
        client.close();
        drop(server);
        incarnations
    };
    let first = announced();
    assert_ne!(announced(), first, "a restarted server must be detectable");
}

/// Restarting with a different `dlm.shards` re-partitions the OID space:
/// a shard's old log vouches only for the OIDs that hashed to it under
/// the old count. The viewer caches a link that lives in shard 2 or 3 of
/// a 4-shard DLM, goes away, and the link is committed — into that
/// shard's log. The server comes back with 2 shards, where the link now
/// routes to shard 0 or 1, whose old log never saw it. The viewer's
/// resume (cursors for all four old shards, incarnations intact) must
/// not be able to prove its copy current from a log that never held the
/// link's commits: the copy comes back in `stale` and no replay is
/// offered.
#[test]
fn changed_shard_count_cannot_certify_a_stale_copy() {
    use displaydb::dlm::ShardMap;
    use displaydb::server::proto::{Envelope, Request, Response, ResumeRequest};
    use displaydb::wire::{Decode, Encode};

    let catalog = Arc::new(nms_catalog());
    let tmp = TempDir::new("xrestart-reshard");
    let config = |shards: usize| {
        let mut c = durable_config(tmp.path());
        c.dlm.shards = shards;
        c
    };
    let hub = LocalHub::new();
    let mut server = Server::spawn_local(Arc::clone(&catalog), config(4), &hub).unwrap();
    let updater = DbClient::connect(
        Box::new(hub.connect().unwrap()),
        ClientConfig::named("updater"),
    )
    .unwrap();
    // A link whose shard changes with the count (shard 2 or 3 of four
    // is shard 0 or 1 of two), and a bystander that lives, under four
    // shards, in the shard the link will move to.
    let (of4, of2) = (ShardMap::new(4), ShardMap::new(2));
    let (mut link, mut bystander) = (None, None);
    while link.is_none() || bystander.is_none() {
        let mut txn = updater.begin().unwrap();
        let obj = txn.create(updater.new_object("Link").unwrap()).unwrap();
        txn.commit().unwrap();
        if link.is_none() && of4.shard_of(obj.oid) >= 2 {
            link = Some(obj);
        } else if link
            .as_ref()
            .is_some_and(|l| of4.shard_of(obj.oid) == of2.shard_of(l.oid))
        {
            bystander = Some(obj);
        }
    }
    let (link, bystander) = (link.unwrap(), bystander.unwrap());
    assert_ne!(of4.shard_of(link.oid), of2.shard_of(link.oid));

    // The viewer caches and watches the link, then goes away holding a
    // resume token, a manifest, and a cursor vector for four shards.
    let viewer = DbClient::connect(
        Box::new(hub.connect().unwrap()),
        ClientConfig::named("viewer"),
    )
    .unwrap();
    let cache = Arc::new(DisplayCache::new());
    let display = Display::open(Arc::clone(&viewer), cache, "map");
    display
        .add_object(&width_coded_link("Utilization"), vec![link.oid])
        .unwrap();
    let session = viewer.session();
    let cursors = viewer.dlc().cursors();
    assert_eq!(cursors.len(), 4);
    assert!(cursors.iter().all(|sc| sc.log_incarnation != 0));
    let resume = ResumeRequest {
        token: session.token,
        incarnation: session.incarnation,
        manifest: vec![(link.oid, link.fingerprint())],
        cursors,
    };
    drop(display);
    viewer.close();

    // Committed while the viewer is away, under the 4-shard map. The
    // bystander's commit comes last so the log of the shard the link
    // will move to ends on the WAL's newest transaction and keeps its
    // window across the restart (the WAL cross-check would otherwise
    // surrender it, hiding the hazard).
    for oid in [link.oid, bystander.oid] {
        let mut txn = updater.begin().unwrap();
        txn.update(oid, |o| o.set(&catalog, "Utilization", 0.9))
            .unwrap();
        txn.commit().unwrap();
    }
    drop(updater);
    server.hard_kill();
    drop(server);

    let hub2 = LocalHub::new();
    let server2 = Server::spawn_local(Arc::clone(&catalog), config(2), &hub2).unwrap();
    let channel = hub2.connect().unwrap();
    let hello = Request::Hello {
        name: "viewer".into(),
        resume: Some(resume),
    };
    channel
        .send(Envelope::Req(1, hello).encode_to_bytes())
        .unwrap();
    let frame = channel.recv_timeout(Duration::from_secs(5)).unwrap();
    match Envelope::decode_from_bytes(&frame).unwrap() {
        Envelope::Resp(
            1,
            Response::HelloAck {
                resumed,
                stale,
                replay_ok,
                log_incarnations,
                ..
            },
        ) => {
            assert!(!resumed, "the old process's token must be refused");
            assert_eq!(log_incarnations.len(), 2);
            assert_eq!(
                stale,
                vec![link.oid],
                "a copy whose commits no surviving log can vouch for is stale"
            );
            assert!(
                !replay_ok,
                "no cursor of the old partitioning is admissible"
            );
        }
        other => panic!("unexpected handshake response {other:?}"),
    }
    assert_eq!(server2.core().stats().sessions_recovered.get(), 0);
    drop(server2);
}

/// The updater and a viewer displaying `links` new links over one
/// projected lock each, once the locks are in place.
fn viewer_of_links(
    server: &Server,
    hub: &LocalHub,
    viewer_link: Box<dyn Channel>,
    links: usize,
) -> (Arc<DbClient>, Arc<DbClient>, Arc<Display>, Vec<Oid>) {
    let updater = DbClient::connect(
        Box::new(hub.connect().unwrap()),
        ClientConfig::named("updater"),
    )
    .unwrap();
    let viewer = DbClient::connect(viewer_link, ClientConfig::named("viewer")).unwrap();
    let mut txn = updater.begin().unwrap();
    let oids: Vec<Oid> = (0..links)
        .map(|_| txn.create(updater.new_object("Link").unwrap()).unwrap().oid)
        .collect();
    txn.commit().unwrap();
    let display = Display::open(Arc::clone(&viewer), Arc::new(DisplayCache::new()), "map");
    let class = width_coded_link("Utilization");
    for &oid in &oids {
        display.add_object(&class, vec![oid]).unwrap();
    }
    let dlm = server.core().dlm();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !oids.iter().all(|&oid| dlm.has_interest(viewer.id(), oid)) {
        assert!(Instant::now() < deadline, "locks never landed");
        std::thread::sleep(Duration::from_millis(1));
    }
    (updater, viewer, display, oids)
}

fn set_utilization(updater: &Arc<DbClient>, oid: Oid, value: f64) {
    let catalog = nms_catalog();
    let mut txn = updater.begin().unwrap();
    txn.update(oid, |o| o.set(&catalog, "Utilization", value))
        .unwrap();
    txn.commit().unwrap();
}

/// A listener that polls for connections every millisecond, so a
/// shutdown reaches its outbox drain within an ack interval of the last
/// commit.
struct QuickAccept(LocalHub);

impl displaydb::wire::Listener for QuickAccept {
    fn accept(&self) -> DbResult<Box<dyn Channel>> {
        displaydb::wire::Listener::accept(&self.0)
    }
    fn accept_timeout(&self, timeout: Duration) -> DbResult<Box<dyn Channel>> {
        self.0.accept_timeout(timeout.min(Duration::from_millis(1)))
    }
}

/// A graceful shutdown leaves a viewer current: the cursor ack a burst
/// owes goes out before the session closes, not at the end of an ack
/// interval into a closed channel.
#[test]
fn shutdown_sends_the_owed_cursor_ack() {
    let catalog = Arc::new(nms_catalog());
    let tmp = TempDir::new("shutdown-ack");
    let hub = LocalHub::new();
    let listener = Box::new(QuickAccept(hub.clone()));
    let mut server = Server::spawn(catalog, ServerConfig::new(tmp.path()), vec![listener]).unwrap();
    let (updater, viewer, _display, oids) =
        viewer_of_links(&server, &hub, Box::new(hub.connect().unwrap()), 1);
    std::thread::sleep(Duration::from_millis(50));
    for i in 0..5 {
        set_utilization(&updater, oids[0], f64::from(i) / 10.0);
    }
    server.shutdown();
    let head = server.core().dlm().update_log_of(0).head();
    assert!(head >= 5);
    // The writer is gone with the session: an ack not sent by now never
    // comes.
    let deadline = Instant::now() + Duration::from_secs(2);
    while viewer.dlc().cursor_of(0) < head {
        assert!(Instant::now() < deadline, "the burst's ack never arrived");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(viewer.dlc().cursor_of(0), head);
}

/// The viewer's link, checking every cursor ack it receives against the
/// acked shard's log head at that moment.
struct AckTap {
    inner: Box<dyn Channel>,
    check: Box<dyn Fn(u32, u64) + Send + Sync>,
}

impl AckTap {
    fn inspect(&self, frame: DbResult<bytes::Bytes>) -> DbResult<bytes::Bytes> {
        use displaydb::server::proto::{Envelope, ServerPush};
        use displaydb::wire::Decode;
        let frame = frame?;
        if let Ok(Envelope::Push(ServerPush::Dlm(event))) = Envelope::decode_from_bytes(&frame) {
            let events = match event {
                DlmEvent::Batch(events) => events,
                event => vec![event],
            };
            for event in events {
                if let DlmEvent::CursorAck { shard, seqno } = event {
                    (self.check)(shard, seqno);
                }
            }
        }
        Ok(frame)
    }
}

impl Channel for AckTap {
    fn send(&self, payload: bytes::Bytes) -> DbResult<()> {
        self.inner.send(payload)
    }
    fn recv(&self) -> DbResult<bytes::Bytes> {
        self.inspect(self.inner.recv())
    }
    fn recv_timeout(&self, timeout: Duration) -> DbResult<bytes::Bytes> {
        self.inspect(self.inner.recv_timeout(timeout))
    }
    fn close(&self) {
        self.inner.close();
    }
}

/// With the durable log on and four shards, no cursor ack runs ahead of
/// what its shard's log has appended — through bursts whose acks wait
/// out the interval and through pauses where they ride at once.
#[test]
fn durable_acks_never_run_ahead_of_the_log() {
    let catalog = Arc::new(nms_catalog());
    let tmp = TempDir::new("durable-acks");
    let hub = LocalHub::new();
    let mut config = durable_config(tmp.path());
    config.dlm.shards = 4;
    let server = Server::spawn_local(catalog, config, &hub).unwrap();
    let acks: Arc<Mutex<Vec<(u32, u64, u64)>>> = Arc::default();
    let tap = AckTap {
        inner: Box::new(hub.connect().unwrap()),
        check: {
            let (core, acks) = (Arc::clone(server.core()), Arc::clone(&acks));
            Box::new(move |shard, seqno| {
                let head = core.dlm().update_log_of(shard as usize).head();
                acks.lock().unwrap().push((shard, seqno, head));
            })
        },
    };
    let (updater, viewer, _display, oids) = viewer_of_links(&server, &hub, Box::new(tap), 16);
    for round in 0..6 {
        for (i, &oid) in oids.iter().enumerate() {
            set_utilization(&updater, oid, (round * 16 + i) as f64 / 100.0);
        }
        std::thread::sleep(Duration::from_millis(30));
    }
    let dlm = server.core().dlm();
    let deadline = Instant::now() + Duration::from_secs(5);
    while (0..4).any(|s| viewer.dlc().cursor_of(s as u32) < dlm.update_log_of(s).head()) {
        assert!(Instant::now() < deadline, "cursors never reached the heads");
        std::thread::sleep(Duration::from_millis(5));
    }
    let acks = acks.lock().unwrap();
    assert!(acks.len() >= 4, "{acks:?}");
    for &(shard, seqno, head) in acks.iter() {
        assert!(
            seqno <= head,
            "shard {shard} acked {seqno} past its head {head}"
        );
    }
}

/// `SegLogStats::durable_bytes` and `segments` sum over a server's shard
/// logs: once commits reached all four shards, they equal the bytes and
/// the number of the segment files under the shard directories.
#[test]
fn durable_gauges_sum_over_the_shard_logs() {
    let catalog = Arc::new(nms_catalog());
    let tmp = TempDir::new("durable-gauges");
    let hub = LocalHub::new();
    let mut config = durable_config(tmp.path());
    config.dlm.shards = 4;
    let server = Server::spawn_local(Arc::clone(&catalog), config, &hub).unwrap();
    let updater = DbClient::connect(
        Box::new(hub.connect().unwrap()),
        ClientConfig::named("updater"),
    )
    .unwrap();
    let mut txn = updater.begin().unwrap();
    let links: Vec<Oid> = (0..64)
        .map(|_| txn.create(updater.new_object("Link").unwrap()).unwrap().oid)
        .collect();
    txn.commit().unwrap();
    let mut txn = updater.begin().unwrap();
    for &oid in &links {
        txn.update(oid, |o| o.set(&catalog, "Utilization", 0.5))
            .unwrap();
    }
    txn.commit().unwrap();
    let dlm = server.core().dlm();
    let heads: Vec<u64> = (0..4).map(|s| dlm.update_log_of(s).head()).collect();
    assert!(
        heads.iter().all(|&h| h > 0),
        "a shard logged nothing: {heads:?}"
    );

    let (mut bytes, mut segments) = (0, 0);
    for shard in std::fs::read_dir(tmp.path().join("dlmlog")).unwrap() {
        for file in std::fs::read_dir(shard.unwrap().path()).unwrap() {
            let file = file.unwrap();
            if file.file_name().to_string_lossy().starts_with("seg-") {
                bytes += file.metadata().unwrap().len();
                segments += 1;
            }
        }
    }
    let stats = server.core().seglog_stats();
    assert_eq!(segments, 4, "one segment per shard");
    assert_eq!(stats.durable_bytes.get(), bytes);
    assert_eq!(stats.segments.get(), segments);
}
