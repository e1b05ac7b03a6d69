//! Failure injection: dead clients, dying agents, vanished servers.
//!
//! A multi-user interactive system spends its life partially broken —
//! someone's workstation is hung, a window was closed mid-update, the
//! network dropped. These tests pin down the degraded behaviours.

use displaydb::nms::nms_catalog;
use displaydb::prelude::*;
use displaydb::server::proto::{Envelope, Request, Response};
use displaydb::wire::Channel;
use displaydb::wire::{Decode, Encode};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("displaydb-it-failure")
        .join(format!("{}-{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A client that completes the handshake and a read, then goes silent:
/// it never acknowledges callbacks (a hung workstation).
struct FrozenClient {
    /// Held open so the server keeps the session (and its copy-table
    /// entries) alive.
    _channel: Box<dyn Channel>,
}

impl FrozenClient {
    fn connect_and_cache(hub: &LocalHub, oid: Oid) -> Self {
        let channel: Box<dyn Channel> = Box::new(hub.connect().unwrap());
        channel
            .send(
                Envelope::Req(
                    1,
                    Request::Hello {
                        name: "frozen".into(),
                        resume: None,
                    },
                )
                .encode_to_bytes(),
            )
            .unwrap();
        // Consume the hello ack.
        let frame = channel.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(
            Envelope::decode_from_bytes(&frame).unwrap(),
            Envelope::Resp(1, Response::HelloAck { .. })
        ));
        // Read the object so the server registers a copy.
        channel
            .send(Envelope::Req(2, Request::Read { txn: None, oid }).encode_to_bytes())
            .unwrap();
        let frame = channel.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(
            Envelope::decode_from_bytes(&frame).unwrap(),
            Envelope::Resp(2, Response::Object { .. })
        ));
        // From here on: silence. Callbacks will go unacknowledged.
        Self { _channel: channel }
    }
}

#[test]
fn dead_client_delays_but_does_not_block_commits() {
    let catalog = Arc::new(nms_catalog());
    let hub = LocalHub::new();
    let mut config = ServerConfig::new(tmp("frozen"));
    config.callback_timeout = Duration::from_millis(300);
    let _server = Server::spawn_local(Arc::clone(&catalog), config, &hub).unwrap();

    let writer = DbClient::connect(
        Box::new(hub.connect().unwrap()),
        ClientConfig::named("writer"),
    )
    .unwrap();
    let mut txn = writer.begin().unwrap();
    let link = txn.create(writer.new_object("Link").unwrap()).unwrap();
    txn.commit().unwrap();

    let _frozen = FrozenClient::connect_and_cache(&hub, link.oid);

    // The writer's update must still commit: the frozen client's callback
    // times out after callback_timeout and the server moves on.
    let started = Instant::now();
    let mut txn = writer.begin().unwrap();
    txn.update(link.oid, |o| o.set(&catalog, "Utilization", 0.9))
        .unwrap();
    txn.commit().unwrap();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(3),
        "commit blocked on a dead client: {elapsed:?}"
    );
    // And the state is durable and readable.
    assert_eq!(
        writer
            .read_fresh(link.oid)
            .unwrap()
            .get(&catalog, "Utilization")
            .unwrap()
            .as_float()
            .unwrap(),
        0.9
    );
}

#[test]
fn dlm_agent_death_degrades_gracefully() {
    let catalog = Arc::new(nms_catalog());
    let db_hub = LocalHub::new();
    let _server = Server::spawn_local(
        Arc::clone(&catalog),
        ServerConfig::new(tmp("agent-death")),
        &db_hub,
    )
    .unwrap();
    let dlm_hub = LocalHub::new();
    let mut agent = DlmAgent::spawn(
        Arc::new(ShardedDlm::new(DlmConfig::default())),
        Box::new(dlm_hub.clone()),
    );

    let viewer = DbClient::connect_with_agent(
        Box::new(db_hub.connect().unwrap()),
        Box::new(dlm_hub.connect().unwrap()),
        ClientConfig::named("viewer"),
    )
    .unwrap();
    let mut txn = viewer.begin().unwrap();
    let link = txn.create(viewer.new_object("Link").unwrap()).unwrap();
    txn.commit().unwrap();

    let cache = Arc::new(DisplayCache::new());
    let display = Display::open(Arc::clone(&viewer), Arc::clone(&cache), "v");
    let do_id = display
        .add_object(&color_coded_link("Utilization"), vec![link.oid])
        .unwrap();

    // The agent dies.
    agent.shutdown();
    drop(agent);
    std::thread::sleep(Duration::from_millis(100));

    // The display keeps serving its pinned state — the display cache does
    // not depend on the notification path.
    assert!(display.object(do_id).is_some());
    // An update transaction must surface a clean error when it tries to
    // report its intent to the dead agent (the caller can retry after
    // reconnecting) — and the abort path must leave the database
    // consistent and reachable.
    let utilization = || {
        let link = viewer.read_fresh(link.oid).unwrap();
        link.get(&catalog, "Utilization")
            .unwrap()
            .as_float()
            .unwrap()
    };
    let mut txn = viewer.begin().unwrap();
    let result = txn
        .lock_exclusive(link.oid)
        .and_then(|()| txn.update(link.oid, |o| o.set(&catalog, "Utilization", 0.5)))
        .and_then(|()| txn.commit());
    assert!(
        matches!(result, Err(DbError::Disconnected)),
        "expected Disconnected, got {result:?}"
    );
    assert_eq!(utilization(), 0.0, "aborted update must not be visible");
    // A transaction that announces nothing first meets the dead agent
    // only when it reports its commit: the same clean error, but the
    // commit it could not report stands (and the lock the aborted
    // transaction held is gone, or this one would have waited).
    let mut txn = viewer.begin().unwrap();
    let result = txn
        .update(link.oid, |o| o.set(&catalog, "Utilization", 0.5))
        .and_then(|()| txn.commit());
    assert!(
        matches!(result, Err(DbError::Disconnected)),
        "expected Disconnected, got {result:?}"
    );
    assert_eq!(utilization(), 0.5);
}

#[test]
fn server_death_surfaces_clean_errors() {
    let catalog = Arc::new(nms_catalog());
    let hub = LocalHub::new();
    let server = Server::spawn_local(
        Arc::clone(&catalog),
        ServerConfig::new(tmp("server-death")),
        &hub,
    )
    .unwrap();
    let client = DbClient::connect(
        Box::new(hub.connect().unwrap()),
        ClientConfig {
            name: "c".into(),
            cache_bytes: 1 << 20,
            call_timeout: Duration::from_millis(500),
        },
    )
    .unwrap();
    let mut txn = client.begin().unwrap();
    let link = txn.create(client.new_object("Link").unwrap()).unwrap();
    txn.commit().unwrap();

    // Cached reads still work after the server goes away...
    drop(server);
    client.close(); // sever the connection like a broken network would
    assert!(client.cache().contains(link.oid));
    assert!(
        client.read(link.oid).is_ok(),
        "cache hit should not need the server"
    );

    // ...but server-bound operations fail with an error, not a hang.
    let started = Instant::now();
    let err = client.read_fresh(link.oid).unwrap_err();
    assert!(
        matches!(err, DbError::Disconnected | DbError::Timeout(_)),
        "unexpected error: {err:?}"
    );
    assert!(started.elapsed() < Duration::from_secs(2));
    // A transaction is the client's own until it commits (or locks).
    let mut txn = client.begin().unwrap();
    txn.update(link.oid, |o| o.set(&catalog, "Utilization", 0.5))
        .unwrap();
    let err = txn.commit().expect_err("commit must fail");
    assert!(matches!(err, DbError::Disconnected | DbError::Timeout(_)));
}

#[test]
fn monitor_survives_object_deletion() {
    use displaydb::nms::{MonitorConfig, MonitorProcess, Topology, TopologyConfig};
    let catalog = Arc::new(nms_catalog());
    let hub = LocalHub::new();
    let _server = Server::spawn_local(
        Arc::clone(&catalog),
        ServerConfig::new(tmp("monitor-delete")),
        &hub,
    )
    .unwrap();
    let gen =
        DbClient::connect(Box::new(hub.connect().unwrap()), ClientConfig::named("gen")).unwrap();
    let topo = Topology::generate(
        &gen,
        &TopologyConfig {
            nodes: 4,
            links: 6,
            paths: 0,
            path_len: 0,
            seed: 9,
        },
    )
    .unwrap();
    let monitor_client = DbClient::connect(
        Box::new(hub.connect().unwrap()),
        ClientConfig::named("monitor"),
    )
    .unwrap();
    let monitor = MonitorProcess::spawn(
        monitor_client,
        topo.links.clone(),
        MonitorConfig {
            rate_per_sec: 200.0,
            ..MonitorConfig::default()
        },
    );
    // Delete half the links out from under it.
    std::thread::sleep(Duration::from_millis(100));
    let mut txn = gen.begin().unwrap();
    for &link in topo.links.iter().step_by(2) {
        txn.delete(link).unwrap();
    }
    txn.commit().unwrap();

    // The monitor keeps committing on the survivors (aborts on the
    // deleted ones are counted, not fatal).
    let commits_after_delete = monitor.commits();
    let deadline = Instant::now() + Duration::from_secs(5);
    while monitor.commits() < commits_after_delete + 10 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        monitor.commits() >= commits_after_delete + 10,
        "monitor stalled after deletions"
    );
    assert!(monitor.aborts() > 0, "expected aborts on deleted targets");
    monitor.stop();
}

// ---------------------------------------------------------------------------
// Supervision & session recovery (DESIGN.md § 8)
// ---------------------------------------------------------------------------

fn short_timeout(name: &str) -> ClientConfig {
    ClientConfig {
        name: name.into(),
        cache_bytes: 1 << 20,
        call_timeout: Duration::from_millis(300),
    }
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn hub_factory(slot: &Arc<std::sync::Mutex<LocalHub>>) -> ChannelFactory {
    let slot = Arc::clone(slot);
    Arc::new(move || {
        let channel = slot.lock().unwrap().connect()?;
        Ok(Box::new(channel) as Box<dyn Channel>)
    })
}

/// Server restart: the supervisor reconnects automatically; the restarted
/// server recovers committed state from the WAL; the resume token is
/// refused (new incarnation) so the client gets a fresh session, yet its
/// unchanged cached copy is proven current by its fingerprint — in both
/// deployments.
#[test]
fn supervised_client_rides_through_server_restart() {
    for with_agent in [false, true] {
        ride_through_server_restart(with_agent);
    }
}

fn ride_through_server_restart(with_agent: bool) {
    let catalog = Arc::new(nms_catalog());
    let dir = tmp(if with_agent {
        "restart-resume-agent"
    } else {
        "restart-resume"
    });
    let durable = |dir: &std::path::Path| {
        let mut c = ServerConfig::new(dir);
        c.sync_commits = true;
        c
    };
    let hub_slot = Arc::new(std::sync::Mutex::new(LocalHub::new()));
    let hub0 = hub_slot.lock().unwrap().clone();
    let mut server = Server::spawn_local(Arc::clone(&catalog), durable(&dir), &hub0).unwrap();
    let dlm_hub = LocalHub::new();
    let _agent = with_agent.then(|| {
        DlmAgent::spawn(
            Arc::new(ShardedDlm::new(DlmConfig::default())),
            Box::new(dlm_hub.clone()),
        )
    });

    let client = if with_agent {
        DbClient::connect_with_agent_supervised(
            hub_factory(&hub_slot),
            hub_factory(&Arc::new(std::sync::Mutex::new(dlm_hub))),
            ReconnectPolicy::fast_test(),
            short_timeout("survivor"),
        )
    } else {
        DbClient::connect_supervised(
            hub_factory(&hub_slot),
            ReconnectPolicy::fast_test(),
            short_timeout("survivor"),
        )
    }
    .unwrap();
    let mut txn = client.begin().unwrap();
    let link = txn.create(client.new_object("Link").unwrap()).unwrap();
    txn.commit().unwrap();
    let mut txn = client.begin().unwrap();
    txn.update(link.oid, |o| o.set(&catalog, "Utilization", 0.7))
        .unwrap();
    txn.commit().unwrap();
    assert!(client.cache().contains(link.oid));

    // Kill the server, then restart it over the same data directory on a
    // fresh hub the factory will find.
    let hub2 = LocalHub::new();
    *hub_slot.lock().unwrap() = hub2.clone();
    server.shutdown();
    drop(server);
    let server2 = Server::spawn_local(Arc::clone(&catalog), durable(&dir), &hub2).unwrap();

    // The supervisor must bring the client back without any help.
    wait_until("the reconnect after the restart", || client.ping().is_ok());

    // The restarted server refused the old-incarnation token: fresh
    // session. The copy still encodes the stored object, so it stays.
    let recovery = &client.conn_stats().recovery;
    assert!(recovery.reconnect_attempts.get() >= 1);
    assert!(recovery.reconnects_ok.get() >= 1);
    assert_eq!(
        recovery.sessions_resumed.get(),
        0,
        "restart must not resume"
    );
    assert_eq!(client.session().epoch, 0);
    assert_eq!(
        recovery.resync_objects.get(),
        0,
        "the copy is proven current"
    );
    assert!(client.cache().contains(link.oid));
    let reads = server2.core().stats().reads.get();
    let utilization = |obj: DbObject| obj.get(&catalog, "Utilization").unwrap().as_float();
    assert_eq!(utilization(client.read(link.oid).unwrap()).unwrap(), 0.7);
    assert_eq!(
        server2.core().stats().reads.get(),
        reads,
        "a cached read moves no server reads"
    );
    // WAL recovery: the pre-restart commit is durable and readable.
    assert_eq!(
        utilization(client.read_fresh(link.oid).unwrap()).unwrap(),
        0.7
    );
    // And normal work proceeds on the new session.
    let mut txn = client.begin().unwrap();
    txn.update(link.oid, |o| o.set(&catalog, "Utilization", 0.9))
        .unwrap();
    txn.commit().unwrap();
}

/// DLM agent restart: the agent supervisor reconnects, the DLC replays
/// every live display-lock registration with the new agent, and post-gap
/// update notifications flow again.
#[test]
fn dlm_agent_restart_relocks_and_notifies() {
    use displaydb::viz::Color;
    let catalog = Arc::new(nms_catalog());
    let db_hub = LocalHub::new();
    let _server = Server::spawn_local(
        Arc::clone(&catalog),
        ServerConfig::new(tmp("agent-restart")),
        &db_hub,
    )
    .unwrap();
    let db_slot = Arc::new(std::sync::Mutex::new(db_hub));
    let dlm_slot = Arc::new(std::sync::Mutex::new(LocalHub::new()));
    let dlm_hub0 = dlm_slot.lock().unwrap().clone();
    let mut agent = DlmAgent::spawn(
        Arc::new(ShardedDlm::new(DlmConfig::default())),
        Box::new(dlm_hub0),
    );

    let viewer = DbClient::connect_with_agent_supervised(
        hub_factory(&db_slot),
        hub_factory(&dlm_slot),
        ReconnectPolicy::fast_test(),
        short_timeout("viewer"),
    )
    .unwrap();
    let updater = DbClient::connect_with_agent_supervised(
        hub_factory(&db_slot),
        hub_factory(&dlm_slot),
        ReconnectPolicy::fast_test(),
        short_timeout("updater"),
    )
    .unwrap();

    let mut txn = updater.begin().unwrap();
    let link = txn.create(updater.new_object("Link").unwrap()).unwrap();
    txn.commit().unwrap();

    let cache = Arc::new(DisplayCache::new());
    let display = Display::open(Arc::clone(&viewer), Arc::clone(&cache), "map");
    let do_id = display
        .add_object(&color_coded_link("Utilization"), vec![link.oid])
        .unwrap();

    // The agent dies and is replaced on a fresh hub.
    let dlm_hub2 = LocalHub::new();
    *dlm_slot.lock().unwrap() = dlm_hub2.clone();
    agent.shutdown();
    drop(agent);
    let agent2 = DlmAgent::spawn(
        Arc::new(ShardedDlm::new(DlmConfig::default())),
        Box::new(dlm_hub2),
    );

    // The DLC must re-register the viewer's display lock with the new
    // agent without any application involvement.
    wait_until("the display lock's re-registration", || {
        agent2.dlm().locked_objects() >= 1
    });

    // Drain the degradation/restore cycle: the pinned DO kept serving,
    // was marked stale, and the marks cleared after resync.
    while display
        .wait_and_process(Duration::from_millis(300))
        .unwrap()
        > 0
    {}
    assert!(display.object(do_id).is_some(), "DO must keep serving");
    assert!(
        display.stats().stale_marks.get() >= 1,
        "expected stale mark"
    );
    assert_eq!(display.stale_count(), 0, "restore must clear stale marks");
    assert!(viewer.conn_stats().recovery.reconnects_ok.get() >= 1);

    // Post-gap notification: an update committed after the restart must
    // reach the display through the new agent. The updater's own agent
    // connection also recovers under supervision, so retry until its
    // commit path is back.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut txn = updater.begin().unwrap();
        let result = txn
            .update(link.oid, |o| o.set(&catalog, "Utilization", 0.95))
            .and_then(|()| txn.commit());
        match result {
            Ok(()) => break,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(25)),
            Err(e) => panic!("updater never recovered: {e:?}"),
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        display
            .wait_and_process(Duration::from_millis(200))
            .unwrap();
        let color = display.object(do_id).unwrap();
        if color.attr("Color") == Some(&Value::Int(i64::from(Color::RED.to_u32()))) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "post-gap notification never refreshed the display"
        );
    }
}

/// A server-link resume in the agent deployment leaves the DLM link
/// alone: the display locks and cursors live on the agent link, which
/// did not break, so the resume neither relocks nor replays.
#[test]
fn agent_deployment_server_resume_leaves_the_dlm_link_alone() {
    let catalog = Arc::new(nms_catalog());
    let db_hub = LocalHub::new();
    let config = ServerConfig::new(tmp("agent-server-resume"));
    let _server = Server::spawn_local(Arc::clone(&catalog), config, &db_hub).unwrap();
    let dlm_hub = LocalHub::new();
    let agent = DlmAgent::spawn(
        Arc::new(ShardedDlm::new(DlmConfig::default())),
        Box::new(dlm_hub.clone()),
    );
    let viewer = DbClient::connect_with_agent_supervised(
        hub_factory(&Arc::new(std::sync::Mutex::new(db_hub))),
        hub_factory(&Arc::new(std::sync::Mutex::new(dlm_hub))),
        ReconnectPolicy::fast_test(),
        short_timeout("viewer"),
    )
    .unwrap();
    let mut txn = viewer.begin().unwrap();
    let first = txn.create(viewer.new_object("Link").unwrap()).unwrap().oid;
    let second = txn.create(viewer.new_object("Link").unwrap()).unwrap().oid;
    txn.commit().unwrap();

    let class = color_coded_link("Utilization");
    let display = Display::open(Arc::clone(&viewer), Arc::new(DisplayCache::new()), "map");
    display.add_object(&class, vec![first]).unwrap();
    let dlm = agent.dlm();
    wait_until("the first lock", || dlm.has_interest(viewer.id(), first));
    let locks = dlm.stats().lock_requests.get();
    let recovery = &viewer.conn_stats().recovery;
    let truncations = recovery.replay_truncations.get();

    // The supervisor broadcasts `Restored` once the resume has returned.
    viewer.conn().close();
    let deadline = Instant::now() + Duration::from_secs(10);
    while display.stats().events.get() < 2 {
        assert!(Instant::now() < deadline, "the server link never resumed");
        display
            .wait_and_process(Duration::from_millis(100))
            .unwrap();
    }
    assert_eq!(recovery.sessions_resumed.get(), 1);
    // The agent handles its link's requests in order: once it holds the
    // second object, any relock the resume sent has landed too.
    display.add_object(&class, vec![second]).unwrap();
    wait_until("the second lock", || dlm.has_interest(viewer.id(), second));
    assert_eq!(dlm.stats().lock_requests.get() - locks, 1, "a relock");
    assert_eq!(recovery.replay_truncations.get(), truncations);
}

/// While the server link is down the agent link still notifies: the
/// display drops its copy and its refresh read fails on the dead link.
/// The resume must catch that object up before `Restored` clears its
/// stale mark, or the screen keeps showing the value from before the
/// commit.
#[test]
fn agent_deployment_server_resume_refreshes_what_the_outage_missed() {
    use displaydb::viz::Color;
    use std::sync::atomic::{AtomicBool, Ordering};
    let catalog = Arc::new(nms_catalog());
    let db_hub = LocalHub::new();
    let config = ServerConfig::new(tmp("agent-server-outage"));
    let _server = Server::spawn_local(Arc::clone(&catalog), config, &db_hub).unwrap();
    let dlm_hub = LocalHub::new();
    let agent = DlmAgent::spawn(
        Arc::new(ShardedDlm::new(DlmConfig::default())),
        Box::new(dlm_hub.clone()),
    );
    let db_slot = Arc::new(std::sync::Mutex::new(db_hub));
    let dlm_slot = Arc::new(std::sync::Mutex::new(dlm_hub));
    // The viewer's reconnects fail while `gate` is closed.
    let gate = Arc::new(AtomicBool::new(true));
    let gated: ChannelFactory = {
        let (connect, gate) = (hub_factory(&db_slot), Arc::clone(&gate));
        Arc::new(move || {
            if !gate.load(Ordering::SeqCst) {
                return Err(DbError::Disconnected);
            }
            connect()
        })
    };
    let viewer = DbClient::connect_with_agent_supervised(
        gated,
        hub_factory(&dlm_slot),
        ReconnectPolicy::fast_test(),
        short_timeout("viewer"),
    )
    .unwrap();
    let updater = DbClient::connect_with_agent_supervised(
        hub_factory(&db_slot),
        hub_factory(&dlm_slot),
        ReconnectPolicy::fast_test(),
        short_timeout("updater"),
    )
    .unwrap();
    let mut txn = updater.begin().unwrap();
    let link = txn.create(updater.new_object("Link").unwrap()).unwrap().oid;
    txn.commit().unwrap();
    let display = Display::open(Arc::clone(&viewer), Arc::new(DisplayCache::new()), "map");
    let do_id = display
        .add_object(&color_coded_link("Utilization"), vec![link])
        .unwrap();
    wait_until("the display lock", || {
        agent.dlm().has_interest(viewer.id(), link)
    });

    gate.store(false, Ordering::SeqCst);
    viewer.conn().close();
    let deadline = Instant::now() + Duration::from_secs(10);
    while display.stale_count() == 0 {
        assert!(Instant::now() < deadline, "the outage was never noticed");
        display
            .wait_and_process(Duration::from_millis(100))
            .unwrap();
    }
    let mut txn = updater.begin().unwrap();
    txn.update(link, |o| o.set(&catalog, "Utilization", 0.95))
        .unwrap();
    txn.commit().unwrap();
    // The agent's `Updated` arrives; its refresh read fails.
    let deadline = Instant::now() + Duration::from_secs(10);
    while display.wait_and_process(Duration::from_millis(100)).is_ok() {
        assert!(Instant::now() < deadline, "no failed refresh");
    }

    gate.store(true, Ordering::SeqCst);
    let deadline = Instant::now() + Duration::from_secs(10);
    while display.stale_count() > 0 {
        assert!(Instant::now() < deadline, "the server link never resumed");
        display
            .wait_and_process(Duration::from_millis(100))
            .unwrap();
    }
    let red = Value::Int(i64::from(Color::RED.to_u32()));
    let obj = display.object(do_id).unwrap();
    assert_eq!(obj.attr("Color"), Some(&red), "{:?}", obj.attrs);
}

/// Network outage with a live server: timeouts during the partition
/// window, stale-marked serving while disconnected, then a *resumed*
/// session (same identity, epoch + 1) whose resync refreshes exactly
/// what changed during the gap. The update log loses the gap's suffix
/// during the outage, so the resume takes the resync path; a resume the
/// log still covers is a cursor replay, which tests/replay_recovery.rs
/// covers.
#[test]
fn partition_serves_stale_then_resumes_and_resyncs() {
    use displaydb::viz::Color;
    use std::sync::atomic::{AtomicBool, Ordering};
    let catalog = Arc::new(nms_catalog());
    let hub = LocalHub::new();
    let config = ServerConfig::new(tmp("partition"));
    let server = Server::spawn_local(Arc::clone(&catalog), config, &hub).unwrap();

    // First connection goes through a fault-injecting wrapper; reconnect
    // attempts are held off while `gate` is closed, then connect clean.
    let plan = Arc::new(FaultPlan::new());
    let first = Arc::new(AtomicBool::new(true));
    let gate = Arc::new(AtomicBool::new(false));
    let factory: ChannelFactory = {
        let hub = hub.clone();
        let plan = Arc::clone(&plan);
        let first = Arc::clone(&first);
        let gate = Arc::clone(&gate);
        Arc::new(move || {
            if first.swap(false, Ordering::SeqCst) {
                let inner: Box<dyn Channel> = Box::new(hub.connect()?);
                return Ok(
                    Box::new(FaultyChannel::wrap(inner, Arc::clone(&plan))) as Box<dyn Channel>
                );
            }
            if !gate.load(Ordering::SeqCst) {
                return Err(DbError::Disconnected);
            }
            Ok(Box::new(hub.connect()?) as Box<dyn Channel>)
        })
    };
    let client = DbClient::connect_supervised(
        factory,
        ReconnectPolicy::fast_test(),
        short_timeout("operator"),
    )
    .unwrap();
    let updater = DbClient::connect(
        Box::new(hub.connect().unwrap()),
        ClientConfig::named("updater"),
    )
    .unwrap();

    let mut txn = client.begin().unwrap();
    let link = txn.create(client.new_object("Link").unwrap()).unwrap();
    txn.commit().unwrap();
    let cache = Arc::new(DisplayCache::new());
    let display = Display::open(Arc::clone(&client), Arc::clone(&cache), "map");
    let do_id = display
        .add_object(&color_coded_link("Utilization"), vec![link.oid])
        .unwrap();
    let epoch_before = client.session().epoch;

    // Partition window: frames vanish but the channel stays "up" — RPCs
    // time out rather than hang, and the pinned DO keeps serving.
    plan.partition();
    let err = client.read_fresh(link.oid).unwrap_err();
    assert!(
        matches!(err, DbError::Timeout(_) | DbError::Disconnected),
        "unexpected {err:?}"
    );
    assert!(display.object(do_id).is_some());
    plan.heal();

    // Now the link actually dies. With the gate closed the supervisor
    // keeps retrying, and the display serves its pinned DO marked stale.
    plan.kill_now();
    let deadline = Instant::now() + Duration::from_secs(5);
    while display.stale_count() == 0 {
        display
            .wait_and_process(Duration::from_millis(100))
            .unwrap();
        assert!(Instant::now() < deadline, "DO was never marked stale");
    }
    assert!(display.object(do_id).is_some(), "degraded DO must serve");
    let err = client.read_fresh(link.oid).unwrap_err();
    assert!(matches!(err, DbError::Timeout(_) | DbError::Disconnected));

    // Meanwhile the rest of the world moves on, and the log loses the
    // suffix the client would have replayed.
    let mut txn = updater.begin().unwrap();
    txn.update(link.oid, |o| o.set(&catalog, "Utilization", 0.95))
        .unwrap();
    txn.commit().unwrap();
    server.core().dlm().update_log_of(0).truncate_all();

    // Let the supervisor through: the session resumes (same identity,
    // epoch + 1), the changed object is reported stale and refreshed,
    // and the stale marks clear.
    gate.store(true, Ordering::SeqCst);
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.ping().is_err() {
        assert!(Instant::now() < deadline, "client never reconnected");
        std::thread::sleep(Duration::from_millis(25));
    }
    let recovery = &client.conn_stats().recovery;
    assert!(recovery.reconnect_attempts.get() >= 1);
    assert_eq!(recovery.sessions_resumed.get(), 1, "session must resume");
    assert_eq!(client.session().epoch, epoch_before + 1);
    assert!(recovery.resync_objects.get() >= 1);
    assert!(recovery.stale_marks.get() >= 1);

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        display
            .wait_and_process(Duration::from_millis(200))
            .unwrap();
        let obj = display.object(do_id).unwrap();
        if !obj.is_stale() && obj.attr("Color") == Some(&Value::Int(i64::from(Color::RED.to_u32())))
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "resync never refreshed the display: {:?}",
            display.object(do_id).unwrap().attrs
        );
    }
}
