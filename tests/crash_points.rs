//! Deterministic crash-point matrix over the durable update log
//! (DESIGN.md § 14): for every named point on the spill path — torn
//! append, unsynced tail, durable-but-unacknowledged record, killed
//! segment rotation — crash there during a live commit, hard-kill the
//! server, restart over the same data directory, and verify the
//! recovery invariants:
//!
//! - **no lost committed update**: the commit whose spill crashed is in
//!   the WAL, so its data survives the restart and reaches a display;
//! - **no duplicate apply**: a reconnecting viewer converges to exactly
//!   the last committed value, whichever recovery path it takes;
//! - **cursor monotonicity**: the gap detector stays silent across the
//!   incarnation change.
//!
//! One more case needs no restart: a spill that fails spends its seqno.
//!
//! The crash-point harness is process-global state, so this matrix gets
//! an integration-test binary of its own (one `#[test]`, points and cases
//! run in sequence) — arming here can never bleed into another binary's
//! durable-log traffic.

mod support;

use displaydb::common::crashpoint::{self, CrashGuard, CrashPoint};
use displaydb::dlm::UpdateLog;
use displaydb::nms::nms_catalog;
use displaydb::prelude::*;
use displaydb::wire::Channel;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use support::TempDir;

type HubSlot = Arc<Mutex<LocalHub>>;

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

fn await_value(display: &Display, id: DoId, want: f64, point: CrashPoint) {
    let start = Instant::now();
    loop {
        display
            .wait_and_process(Duration::from_millis(100))
            .unwrap();
        if display.object(id).unwrap().attr("Utilization") == Some(&Value::Float(want)) {
            return;
        }
        assert!(
            start.elapsed() < Duration::from_secs(15),
            "[{}] display never reached {want}: {:?}",
            point.name(),
            display.object(id).unwrap().attrs
        );
    }
}

#[test]
fn crash_point_matrix_restart_recovers_without_loss_or_duplicates() {
    let catalog = Arc::new(nms_catalog());
    for point in CrashPoint::ALL {
        let guard = CrashGuard::new();
        let tmp = TempDir::new(&format!("matrix-{}", point.name()));
        let config = |dir: &std::path::Path| {
            let mut c = ServerConfig::new(dir);
            c.sync_commits = true;
            c.durable_log = DurableLogConfig {
                sync_every: 1,
                // MidRotation only fires inside a rotation; a one-byte
                // segment target rotates on every append so the armed
                // commit reaches the point deterministically.
                segment_bytes: if point == CrashPoint::MidRotation {
                    1
                } else {
                    256 << 10
                },
                ..DurableLogConfig::enabled()
            };
            c
        };
        let hub_slot: HubSlot = Arc::new(Mutex::new(LocalHub::new()));
        let hub0 = hub_slot.lock().unwrap().clone();
        let mut server =
            Server::spawn_local(Arc::clone(&catalog), config(tmp.path()), &hub0).unwrap();

        let updater = DbClient::connect(
            Box::new(hub0.connect().unwrap()),
            ClientConfig::named("updater"),
        )
        .unwrap();
        let (factory, gate) = gated_slot_factory(&hub_slot);
        let viewer = DbClient::connect_supervised(
            factory,
            ReconnectPolicy::fast_test(),
            ClientConfig {
                name: format!("viewer-{}", point.name()),
                cache_bytes: 1 << 20,
                call_timeout: Duration::from_millis(300),
            },
        )
        .unwrap();

        // Clean history first, so the crash lands mid-stream rather
        // than on the log's first record.
        let mut txn = updater.begin().unwrap();
        let link = txn.create(updater.new_object("Link").unwrap()).unwrap();
        txn.commit().unwrap();
        let cache = Arc::new(DisplayCache::new());
        let display = Display::open(Arc::clone(&viewer), cache, "map");
        let id = display
            .add_object(&width_coded_link("Utilization"), vec![link.oid])
            .unwrap();
        for v in [0.1, 0.2] {
            let mut txn = updater.begin().unwrap();
            txn.update(link.oid, |o| o.set(&catalog, "Utilization", v))
                .unwrap();
            txn.commit().unwrap();
        }
        await_value(&display, id, 0.2, point);

        // Arm, then commit: the spill crashes at the point, the commit
        // itself still succeeds (WAL first, spill containment second),
        // and the unlogged fan-out keeps live viewers converging.
        let fired_before = crashpoint::fired(point);
        crashpoint::arm(point);
        let mut txn = updater.begin().unwrap();
        txn.update(link.oid, |o| o.set(&catalog, "Utilization", 0.3))
            .unwrap();
        txn.commit().unwrap_or_else(|e| {
            panic!("[{}] commit must survive a spill crash: {e}", point.name())
        });
        await_value(&display, id, 0.3, point);
        assert_eq!(
            crashpoint::fired(point),
            fired_before + 1,
            "[{}] the armed point must fire exactly once",
            point.name()
        );

        // Hard kill; restart over the partial on-disk state the crash
        // left behind.
        gate.store(false, Ordering::SeqCst);
        let hub2 = LocalHub::new();
        *hub_slot.lock().unwrap() = hub2.clone();
        server.hard_kill();
        drop(server);
        let server2 = Server::spawn_local(Arc::clone(&catalog), config(tmp.path()), &hub2)
            .unwrap_or_else(|e| panic!("[{}] restart must recover: {e}", point.name()));

        // No lost committed update: 0.3 committed before the kill.
        let reader = DbClient::connect(
            Box::new(hub2.connect().unwrap()),
            ClientConfig::named("reader"),
        )
        .unwrap();
        let obj = reader.read(link.oid).unwrap();
        assert_eq!(
            obj.get(&catalog, "Utilization")
                .unwrap()
                .as_float()
                .unwrap(),
            0.3,
            "[{}] committed update lost across the crash",
            point.name()
        );
        assert!(
            !server2.core().dlm_recoveries().is_empty(),
            "[{}] the durable log must come back",
            point.name()
        );

        // A commit the viewer missed, then reconnect: whichever path
        // recovery takes (replay when the surviving window covers the
        // cursor, stale-set resync when the crash surrendered it), the
        // display must land on exactly the last committed value with a
        // silent gap detector — no duplicate, no loss, no stuck replay.
        let mut txn = reader.begin().unwrap();
        txn.update(link.oid, |o| o.set(&catalog, "Utilization", 0.4))
            .unwrap();
        txn.commit().unwrap();
        gate.store(true, Ordering::SeqCst);
        await_ping(&viewer);
        await_value(&display, id, 0.4, point);
        assert_eq!(
            viewer.dlc().stats().cursor_gaps.get(),
            0,
            "[{}] cursor must stay monotone across incarnations",
            point.name()
        );

        // The post-restart log must keep accepting appends (head moved
        // past whatever the recovery scan found).
        let head = server2.core().dlm().update_log_of(0).head();
        assert!(
            head >= 1,
            "[{}] post-restart appends must land in the log",
            point.name()
        );
        drop(server2);
        drop(guard);
    }
    a_failed_spill_spends_its_seqno(&catalog);
}

fn await_cursor(viewer: &DbClient, log: &UpdateLog) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while viewer.dlc().cursor_of(0) != log.head() {
        assert!(
            Instant::now() < deadline,
            "the viewer's cursor stopped below the log head"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A spill that fails spends its seqno and takes the log's window with
/// it: the commit stands and fans out unlogged, no cursor acked before it
/// is admitted any more, and the next commit's ack carries the viewer
/// past the spent seqno instead of leaving it below.
fn a_failed_spill_spends_its_seqno(catalog: &Arc<Catalog>) {
    let point = CrashPoint::MidAppend;
    let guard = CrashGuard::new();
    let tmp = TempDir::new("spent-seqno");
    let mut config = ServerConfig::new(tmp.path());
    config.durable_log = DurableLogConfig {
        sync_every: 1,
        ..DurableLogConfig::enabled()
    };
    let hub = LocalHub::new();
    let server = Server::spawn_local(Arc::clone(catalog), config, &hub).unwrap();
    let connect = |name| {
        DbClient::connect(Box::new(hub.connect().unwrap()), ClientConfig::named(name)).unwrap()
    };
    let (updater, viewer) = (connect("updater"), connect("viewer"));
    let set = |value: f64, oid: Oid| {
        let mut txn = updater.begin().unwrap();
        txn.update(oid, |o| o.set(catalog, "Utilization", value))
            .unwrap();
        txn.commit()
    };
    let mut txn = updater.begin().unwrap();
    let link = txn.create(updater.new_object("Link").unwrap()).unwrap();
    txn.commit().unwrap();
    let display = Display::open(Arc::clone(&viewer), Arc::new(DisplayCache::new()), "map");
    let id = display
        .add_object(&width_coded_link("Utilization"), vec![link.oid])
        .unwrap();
    set(0.1, link.oid).unwrap();
    await_value(&display, id, 0.1, point);
    let log = server.core().dlm().update_log_of(0);
    await_cursor(&viewer, log);
    let acked = viewer.dlc().cursor_of(0);
    assert!(log.changed_since(acked).is_some());

    let fired_before = crashpoint::fired(point);
    crashpoint::arm(point);
    set(0.2, link.oid).expect("a failed spill leaves the commit standing");
    assert_eq!(crashpoint::fired(point), fired_before + 1);
    await_value(&display, id, 0.2, point);
    assert_eq!(log.head(), acked + 1, "the failed spill spent a seqno");
    assert!(
        log.changed_since(acked).is_none(),
        "a cursor acked before the failure is still admitted"
    );

    set(0.3, link.oid).unwrap();
    await_value(&display, id, 0.3, point);
    await_cursor(&viewer, log);
    assert_eq!(viewer.dlc().cursor_of(0), acked + 2);
    drop(server);
    drop(guard);
}
