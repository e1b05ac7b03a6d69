//! R5 — server restart: durable cross-restart replay vs restart resync
//! (DESIGN.md § 14).
//!
//! R4's storm loses the *connections*; this one loses the *process*.
//! A fleet of viewers is connected to a server that is hard-killed (no
//! outbox drain, no goodbye) and restarted over the same data
//! directory; a slice of the watched topology changes before the fleet
//! is let back in. Every resume token is refused — the in-memory
//! session state died with the process — so without the durable update
//! log each viewer must treat its entire cached set as suspect and
//! resync it. With the spill on, the log's incarnation and window
//! survive the restart: the server proves the unchanged copies current
//! from the durable window and streams only the missed suffix, so
//! recovery traffic is proportional to what actually changed.
//!
//! Both scenarios run the identical kill/restart/change/reconnect
//! cycle; the only difference is `ServerConfig::durable_log`. Recovery
//! traffic is measured at the wire from the moment the fleet is let
//! back in.
//!
//! Claim: durable replay recovery moves ≥3× fewer bytes than
//! restart-resync and converges no slower.

use crate::fixture::scratch_dir;
use crate::report::{self, Metrics, Table};
use crate::Scale;
use displaydb_client::{ChannelFactory, ClientConfig, DbClient};
use displaydb_common::backoff::ReconnectPolicy;
use displaydb_common::{DurableLogConfig, Oid};
use displaydb_display::schema::width_coded_link;
use displaydb_display::{Display, DisplayCache, DoId};
use displaydb_nms::nms_catalog;
use displaydb_schema::Value;
use displaydb_server::{Server, ServerConfig};
use displaydb_wire::{Channel, LocalHub, MeteredChannel, WireMeter};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Run R5.
pub fn run(scale: Scale) -> Vec<Table> {
    run_with_metrics(scale).0
}

/// Run R5 and also return the metrics `tests/gated_experiments.rs` asserts.
pub fn run_with_metrics(scale: Scale) -> (Vec<Table>, Metrics) {
    let viewers = scale.pick(3usize, 10);
    let links = scale.pick(48usize, 160);
    // One link in eight changes across the restart: durable replay
    // should pay for the change, restart-resync pays for the whole
    // watched set per viewer.
    let changed = (links / 8).max(1);

    let resync = storm(viewers, links, changed, false);
    let replay = storm(viewers, links, changed, true);

    let mut t = Table::new(
        "R5 — server restart: durable replay vs restart resync",
        format!(
            "{viewers} viewers each watching {links} links; the server is hard-killed \
             and restarted over the same directory while {changed} links changed. Bytes \
             are total wire traffic across every viewer channel from the moment the \
             fleet is let back in until every display holds the final state."
        ),
        &[
            "scenario",
            "recovery bytes",
            "frames",
            "bytes vs resync",
            "converged in (ms)",
            "cross-restart replays",
            "objects re-read",
            "sessions recovered",
        ],
    );
    for (name, o) in [
        ("restart resync (log off)", &resync),
        ("durable replay", &replay),
    ] {
        t.row(vec![
            name.into(),
            o.bytes.to_string(),
            o.frames.to_string(),
            report::ratio(resync.bytes as f64, o.bytes as f64),
            report::ms(o.convergence),
            o.cross_restart_replays.to_string(),
            o.resync_objects.to_string(),
            o.sessions_recovered.to_string(),
        ]);
    }

    let mut m = Metrics::new("r5");
    m.put("resync_recovery_bytes", resync.bytes as f64);
    m.put("replay_recovery_bytes", replay.bytes as f64);
    m.put(
        "recovery_bytes_reduction_x",
        if replay.bytes == 0 {
            f64::INFINITY
        } else {
            resync.bytes as f64 / replay.bytes as f64
        },
    );
    (vec![t], m)
}

struct Outcome {
    bytes: u64,
    frames: u64,
    convergence: Duration,
    cross_restart_replays: u64,
    resync_objects: u64,
    sessions_recovered: u64,
}

fn supervised_config(name: &str) -> ClientConfig {
    ClientConfig {
        name: name.into(),
        cache_bytes: 1 << 20,
        call_timeout: Duration::from_millis(300),
        disk_cache: None,
    }
}

fn await_value(display: &Display, id: DoId, want: f64) {
    let deadline = Instant::now() + Duration::from_secs(60);
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

type HubSlot = Arc<Mutex<LocalHub>>;

/// One member of the fleet: a supervised, metered client dialing
/// whatever hub currently sits in the shared slot (so the restarted
/// server is reachable on its fresh hub) while the gate is open.
struct FleetViewer {
    client: Arc<DbClient>,
    display: Arc<Display>,
    ids: Vec<DoId>,
}

fn fleet_factory(slot: &HubSlot, meter: &Arc<WireMeter>, gate: &Arc<AtomicBool>) -> ChannelFactory {
    let slot = Arc::clone(slot);
    let meter = Arc::clone(meter);
    let gate = Arc::clone(gate);
    Arc::new(move || {
        if !gate.load(Ordering::SeqCst) {
            return Err(displaydb_common::DbError::Disconnected);
        }
        let inner: Box<dyn Channel> = Box::new(slot.lock().unwrap().connect()?);
        Ok(Box::new(MeteredChannel::wrap(inner, Arc::clone(&meter))) as Box<dyn Channel>)
    })
}

fn server_config(dir: &std::path::Path, durable: bool) -> ServerConfig {
    let mut config = ServerConfig::new(dir);
    config.sync_commits = true;
    config.sync_callbacks = false;
    if durable {
        config.durable_log = DurableLogConfig {
            sync_every: 1,
            ..DurableLogConfig::enabled()
        };
    }
    config
}

/// One kill/restart/recovery cycle over a fleet. `durable == false`
/// leaves the update log memory-only, pinning the restart-resync path.
fn storm(viewers: usize, links: usize, changed: usize, durable: bool) -> Outcome {
    let catalog = Arc::new(nms_catalog());
    let dir = scratch_dir(if durable { "r5-durable" } else { "r5-resync" });
    let hub_slot: HubSlot = Arc::new(Mutex::new(LocalHub::new()));
    let hub0 = hub_slot.lock().unwrap().clone();
    let mut server = Server::spawn_local(Arc::clone(&catalog), server_config(&dir, durable), &hub0)
        .expect("server");

    let updater = DbClient::connect(
        Box::new(hub0.connect().expect("connect")),
        ClientConfig::named("r5-updater"),
    )
    .expect("updater");

    // The same realistically fat NMS links as R4: restart-resync
    // re-reads all of this per viewer, durable replay only the changed
    // slice's deltas.
    let mut oids: Vec<Oid> = Vec::with_capacity(links);
    let mut txn = updater.begin().expect("begin");
    for i in 0..links {
        let obj = updater
            .new_object("Link")
            .expect("new")
            .with(&catalog, "Name", format!("backbone-link-{i:04}"))
            .expect("Name")
            .with(
                &catalog,
                "Notes",
                "10GE wave, protected, maint window sat 02:00",
            )
            .expect("Notes")
            .with(&catalog, "Utilization", 0.0)
            .expect("Utilization")
            .with(&catalog, "ErrorRate", 1e-9)
            .expect("ErrorRate")
            .with(&catalog, "LatencyMs", 4.2)
            .expect("LatencyMs")
            .with(&catalog, "Vendor", "Acme Optical Systems")
            .expect("Vendor")
            .with(&catalog, "CircuitId", format!("CIRCUIT-{i:06}-A"))
            .expect("CircuitId");
        oids.push(txn.create(obj).expect("create").oid);
    }
    txn.commit().expect("commit");

    let meter = WireMeter::new();
    let gate = Arc::new(AtomicBool::new(true));
    let fleet: Vec<FleetViewer> = (0..viewers)
        .map(|v| {
            let factory = fleet_factory(&hub_slot, &meter, &gate);
            let client = DbClient::connect_supervised(
                factory,
                ReconnectPolicy::fast_test(),
                supervised_config(&format!("r5-viewer-{v}")),
            )
            .expect("viewer");
            let cache = Arc::new(DisplayCache::new());
            let display = Display::open(Arc::clone(&client), cache, "r5");
            let ids: Vec<DoId> = oids
                .iter()
                .map(|&oid| {
                    display
                        .add_object(&width_coded_link("Utilization"), vec![oid])
                        .expect("add_object")
                })
                .collect();
            FleetViewer {
                client,
                display,
                ids,
            }
        })
        .collect();

    // Steady state: every link written once, every viewer converged and
    // fully caught up on cursor acks (a lagging cursor would widen the
    // replay beyond the post-restart suffix).
    for &oid in &oids {
        let mut txn = updater.begin().expect("begin");
        txn.update(oid, |o| o.set(&catalog, "Utilization", 0.01))
            .expect("update");
        txn.commit().expect("commit");
    }
    let head = server.core().dlm().update_log_of(0).head();
    for viewer in &fleet {
        await_value(&viewer.display, *viewer.ids.last().expect("ids"), 0.01);
        while viewer
            .display
            .wait_and_process(Duration::from_millis(100))
            .expect("drain")
            > 0
        {}
        let deadline = Instant::now() + Duration::from_secs(10);
        while viewer.client.dlc().cursor_of(0) < head {
            assert!(
                Instant::now() < deadline,
                "viewer cursor never reached {head}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    // The crash: close the gate, park the next hub in the slot, kill
    // the process image, restart over the same directory.
    gate.store(false, Ordering::SeqCst);
    let hub2 = LocalHub::new();
    *hub_slot.lock().unwrap() = hub2.clone();
    server.hard_kill();
    drop(server);
    drop(updater);
    let server2 = Server::spawn_local(Arc::clone(&catalog), server_config(&dir, durable), &hub2)
        .expect("restarted server");

    // The world moves on before the fleet returns.
    let updater2 = DbClient::connect(
        Box::new(hub2.connect().expect("connect")),
        ClientConfig::named("r5-updater2"),
    )
    .expect("updater2");
    let mut finals = vec![0.01f64; changed];
    for (i, f) in finals.iter_mut().enumerate() {
        *f = 0.1 + 0.8 * (i as f64 + 1.0) / changed as f64;
        let mut txn = updater2.begin().expect("begin");
        txn.update(oids[i], |o| o.set(&catalog, "Utilization", *f))
            .expect("update");
        txn.commit().expect("commit");
    }

    // Recovery: meter only what follows the gate opening.
    meter.reset();
    let start = Instant::now();
    gate.store(true, Ordering::SeqCst);
    for viewer in &fleet {
        for (i, &want) in finals.iter().enumerate() {
            await_value(&viewer.display, viewer.ids[i], want);
        }
    }
    let convergence = start.elapsed();

    let mut cross_restart_replays = 0u64;
    let mut resync_objects = 0u64;
    for viewer in &fleet {
        let recovery = &viewer.client.conn_stats().recovery;
        cross_restart_replays += recovery.cross_restart_replays.get();
        resync_objects += recovery.resync_objects.get();
    }
    let sessions_recovered = server2.core().stats().sessions_recovered.get();
    let outcome = Outcome {
        bytes: meter.total_bytes(),
        frames: meter.frames_sent() + meter.frames_received(),
        convergence,
        cross_restart_replays,
        resync_objects,
        sessions_recovered,
    };
    drop(fleet);
    drop(server2);
    outcome
}
