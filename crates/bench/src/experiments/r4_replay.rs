//! R4 — mass-reconnect storm: replay catch-up vs full resync
//! (DESIGN.md § 13).
//!
//! The paper's § 5 failure story, writ large: a fleet of interactive
//! viewers all lose their network at once (a switch reboot, a laptop
//! resume wave) and come back together. A viewer whose cursor the DLM
//! update log no longer covers recovers by full resync — it re-reads
//! every object the server cannot prove current, and the re-read burst
//! lands on the server exactly when it is busiest. A viewer whose
//! cursor is still covered instead sends `ReplayFrom{cursor}` and the
//! server streams only the logged suffix past its cursor, filtered
//! through its registered interests and coalesced per object.
//!
//! Both scenarios run the identical outage on the identical server
//! configuration: every viewer's channel is severed, a slice of the
//! watched topology changes while they are away, then the whole fleet
//! reconnects at once. The only difference is whether every shard's
//! log is truncated during the outage (which leaves resync as the only
//! way back). Recovery traffic is measured at the wire — one
//! [`WireMeter`] spans every viewer channel, reset at the moment the
//! fleet is let back in.
//!
//! Claims: replay recovery moves ≥5× fewer bytes than full resync and
//! converges no slower.

use crate::fixture::scratch_dir;
use crate::report::{self, Metrics, Table};
use crate::Scale;
use displaydb_client::{ChannelFactory, ClientConfig, DbClient};
use displaydb_common::backoff::ReconnectPolicy;
use displaydb_common::Oid;
use displaydb_display::schema::width_coded_link;
use displaydb_display::{Display, DisplayCache, DoId};
use displaydb_nms::nms_catalog;
use displaydb_schema::Value;
use displaydb_server::{Server, ServerConfig};
use displaydb_wire::{Channel, FaultPlan, FaultyChannel, LocalHub, MeteredChannel, WireMeter};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Run R4.
pub fn run(scale: Scale) -> Vec<Table> {
    run_with_metrics(scale).0
}

/// Run R4 and also return the metrics `tests/gated_experiments.rs` asserts.
pub fn run_with_metrics(scale: Scale) -> (Vec<Table>, Metrics) {
    let viewers = scale.pick(4usize, 12);
    let links = scale.pick(64usize, 160);
    // One link in eight changes during the outage: recovery traffic
    // should be proportional to the change, not to the fleet's whole
    // watched set — and for the changed slice, a projected delta, not a
    // full object re-read. Full resync pays for all `links` per viewer
    // regardless.
    let changed = (links / 8).max(1);

    let resync = storm(viewers, links, changed, true);
    let replay = storm(viewers, links, changed, false);

    let mut t = Table::new(
        "R4 — mass reconnect: replay catch-up vs full resync",
        format!(
            "{viewers} viewers each watching {links} links; all disconnected while \
             {changed} links changed, then reconnected at once. Bytes are total wire \
             traffic across every viewer channel from the moment the fleet is let back \
             in until every display holds the final state."
        ),
        &[
            "scenario",
            "recovery bytes",
            "frames",
            "bytes vs resync",
            "converged in (ms)",
            "replay catch-ups",
            "resync fallbacks",
            "objects re-read",
            "resume sheds",
        ],
    );
    for (name, o) in [
        ("full resync (log truncated)", &resync),
        ("replay", &replay),
    ] {
        t.row(vec![
            name.into(),
            o.bytes.to_string(),
            o.frames.to_string(),
            report::ratio(resync.bytes as f64, o.bytes as f64),
            report::ms(o.convergence),
            o.replay_catchups.to_string(),
            o.resync_fallbacks.to_string(),
            o.resync_objects.to_string(),
            o.resume_sheds.to_string(),
        ]);
    }

    let mut m = Metrics::new("r4");
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
    replay_catchups: u64,
    resync_fallbacks: u64,
    resync_objects: u64,
    resume_sheds: u64,
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

type PlanSlot = Arc<Mutex<Arc<FaultPlan>>>;

/// One member of the reconnect fleet: a supervised client whose live
/// channel can be severed (fresh [`FaultPlan`] per connection) and
/// whose traffic lands on the shared meter; reconnects are held off
/// while the shared gate is closed.
struct FleetViewer {
    client: Arc<DbClient>,
    display: Arc<Display>,
    ids: Vec<DoId>,
    plan_slot: PlanSlot,
}

fn fleet_factory(
    hub: &LocalHub,
    meter: &Arc<WireMeter>,
    gate: &Arc<AtomicBool>,
) -> (ChannelFactory, PlanSlot) {
    let plan_slot: PlanSlot = Arc::new(Mutex::new(Arc::new(FaultPlan::new())));
    let factory: ChannelFactory = {
        let hub = hub.clone();
        let meter = Arc::clone(meter);
        let gate = Arc::clone(gate);
        let plan_slot = Arc::clone(&plan_slot);
        Arc::new(move || {
            if !gate.load(Ordering::SeqCst) {
                return Err(displaydb_common::DbError::Disconnected);
            }
            let plan = Arc::new(FaultPlan::new());
            *plan_slot.lock().unwrap() = Arc::clone(&plan);
            let inner: Box<dyn Channel> = Box::new(hub.connect()?);
            let faulty: Box<dyn Channel> = Box::new(FaultyChannel::wrap(inner, plan));
            Ok(Box::new(MeteredChannel::wrap(faulty, Arc::clone(&meter))) as Box<dyn Channel>)
        })
    };
    (factory, plan_slot)
}

/// One outage/recovery cycle over a fleet. `truncate` evicts every
/// shard's update log during the outage, so no cursor is covered and
/// the fleet recovers by resync.
fn storm(viewers: usize, links: usize, changed: usize, truncate: bool) -> Outcome {
    let catalog = Arc::new(nms_catalog());
    let hub = LocalHub::new();
    let mut config = ServerConfig::new(scratch_dir(if truncate {
        "r4-resync"
    } else {
        "r4-replay"
    }));
    config.sync_callbacks = false;
    let server = Server::spawn_local(Arc::clone(&catalog), config, &hub).expect("server");

    let updater = DbClient::connect(
        Box::new(hub.connect().expect("connect")),
        ClientConfig::named("r4-updater"),
    )
    .expect("updater");

    // Realistically fat NMS links (paper § 4's schema): a full resync
    // re-reads all of this per object, a replay delta carries only the
    // one projected attribute that changed.
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
            let (factory, plan_slot) = fleet_factory(&hub, &meter, &gate);
            let client = DbClient::connect_supervised(
                factory,
                ReconnectPolicy::fast_test(),
                supervised_config(&format!("r4-viewer-{v}")),
            )
            .expect("viewer");
            let cache = Arc::new(DisplayCache::new());
            let display = Display::open(Arc::clone(&client), cache, "r4");
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
                plan_slot,
            }
        })
        .collect();

    // Steady state: every link written once, every viewer converged,
    // drained and fully caught up on cursor acks.
    for &oid in &oids {
        let mut txn = updater.begin().expect("begin");
        txn.update(oid, |o| o.set(&catalog, "Utilization", 0.01))
            .expect("update");
        txn.commit().expect("commit");
    }
    for viewer in &fleet {
        await_value(&viewer.display, *viewer.ids.last().expect("ids"), 0.01);
        while viewer
            .display
            .wait_and_process(Duration::from_millis(100))
            .expect("drain")
            > 0
        {}
        // Fully caught up, not just "has a cursor": a cursor behind the
        // head would make the replay redeliver part of the warm-up.
        let head = server.core().dlm().update_log_of(0).head();
        let deadline = Instant::now() + Duration::from_secs(10);
        while viewer.client.dlc().cursor_of(0) < head {
            assert!(
                Instant::now() < deadline,
                "viewer cursor never reached {head}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    // Outage: the whole fleet drops at once, then the topology moves on.
    gate.store(false, Ordering::SeqCst);
    for viewer in &fleet {
        viewer.plan_slot.lock().unwrap().kill_now();
    }
    // The outage starts when the server has noticed it too. A commit is
    // one request and can land while a severed session is still being
    // torn down; what such a viewer still hears with its last frames it
    // need not recover, and the bytes measured below would vary with
    // that race.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.core().sessions().len() > 1 {
        assert!(Instant::now() < deadline, "server never noticed the outage");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut finals = vec![0.01f64; changed];
    for (i, f) in finals.iter_mut().enumerate() {
        *f = 0.1 + 0.8 * (i as f64 + 1.0) / changed as f64;
        let mut txn = updater.begin().expect("begin");
        txn.update(oids[i], |o| o.set(&catalog, "Utilization", *f))
            .expect("update");
        txn.commit().expect("commit");
    }
    if truncate {
        let dlm = server.core().dlm();
        for shard in 0..dlm.shards() {
            dlm.update_log_of(shard).truncate_all();
        }
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

    let mut replay_catchups = 0u64;
    let mut resync_fallbacks = 0u64;
    let mut resync_objects = 0u64;
    for viewer in &fleet {
        let recovery = &viewer.client.conn_stats().recovery;
        replay_catchups += recovery.replay_catchups.get();
        resync_fallbacks += recovery.replay_truncations.get();
        resync_objects += recovery.resync_objects.get();
    }
    let resume_sheds = server.core().dlm().stats().overload.resume_sheds.get();
    let outcome = Outcome {
        bytes: meter.total_bytes(),
        frames: meter.frames_sent() + meter.frames_received(),
        convergence,
        replay_catchups,
        resync_fallbacks,
        resync_objects,
        resume_sheds,
    };
    drop(fleet);
    drop(server);
    outcome
}
