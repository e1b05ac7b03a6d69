//! R4 — mass-reconnect storm: replay catch-up vs resync
//! (DESIGN.md § 13).
//!
//! The paper's § 5 failure story, writ large: a fleet of interactive
//! viewers all lose their network at once (a switch reboot, a laptop
//! resume wave) and come back together. Every viewer's resume presents
//! its cached copies with their fingerprints, and the server reports
//! stale exactly the copies that no longer match the store (DESIGN.md
//! § 14). A viewer whose cursor the DLM update log no longer covers
//! recovers by resync — it re-reads those stale objects whole. A viewer
//! whose cursor is still covered instead sends `ReplayFrom{cursor}` and
//! the server streams only the logged suffix past its cursor, filtered
//! through its registered interests and coalesced per object.
//!
//! Both scenarios run the identical outage on the identical server
//! configuration: every viewer's channel is severed, a slice of the
//! watched topology changes while they are away, then the whole fleet
//! reconnects at once. The only difference is whether every shard's
//! log is truncated during the outage (which leaves resync as the only
//! way back). Recovery traffic is measured at the wire — one
//! [`WireMeter`] spans every viewer channel. It is reset once every
//! severed link is down at both ends, and read once every display has
//! handled the `Restored` that follows its resume, so every resync read
//! lies inside the window.
//!
//! Claims: both arms re-read exactly the changed slice (viewers ×
//! changed objects), and no unchanged copy costs a byte beyond its
//! manifest entry. The replay arm re-reads too: the slice changed while
//! no viewer held a projected lock, so no commit logged the attribute
//! changes a delta would carry.

use crate::fixture::{
    await_link_down, await_restored, await_utilization, fat_links, fleet_viewer_config, scratch_dir,
};
use crate::report::{self, Metrics, Table};
use crate::Scale;
use displaydb_client::{ChannelFactory, ClientConfig, DbClient};
use displaydb_common::backoff::ReconnectPolicy;
use displaydb_display::schema::width_coded_link;
use displaydb_display::{Display, DisplayCache, DoId};
use displaydb_nms::nms_catalog;
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
    // watched set.
    let changed = (links / 8).max(1);

    let resync = storm(viewers, links, changed, true);
    let replay = storm(viewers, links, changed, false);

    let mut t = Table::new(
        "R4 — mass reconnect: replay catch-up vs resync",
        format!(
            "{viewers} viewers each watching {links} links; all disconnected while \
             {changed} links changed, then reconnected at once. Bytes are total wire \
             traffic across every viewer channel from the moment the fleet is let back \
             in until every display holds the final state and has handled its \
             `Restored`. Objects re-read are server reads in that window."
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
    for (name, o) in [("resync (log truncated)", &resync), ("replay", &replay)] {
        t.row(vec![
            name.into(),
            o.bytes.to_string(),
            o.frames.to_string(),
            report::ratio(resync.bytes as f64, o.bytes as f64),
            report::ms(o.convergence),
            o.replay_catchups.to_string(),
            o.resync_fallbacks.to_string(),
            o.reread.to_string(),
            o.resume_sheds.to_string(),
        ]);
    }

    let mut m = Metrics::new("r4");
    m.put("resync_recovery_bytes", resync.bytes as f64);
    m.put("replay_recovery_bytes", replay.bytes as f64);
    m.put("resync_objects_reread", resync.reread as f64);
    m.put("replay_objects_reread", replay.reread as f64);
    (vec![t], m)
}

struct Outcome {
    bytes: u64,
    frames: u64,
    convergence: Duration,
    replay_catchups: u64,
    resync_fallbacks: u64,
    /// Server reads inside the measured window.
    reread: u64,
    resume_sheds: u64,
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

    let oids = fat_links(&updater, &catalog, links);

    let meter = WireMeter::new();
    let gate = Arc::new(AtomicBool::new(true));
    let fleet: Vec<FleetViewer> = (0..viewers)
        .map(|v| {
            let (factory, plan_slot) = fleet_factory(&hub, &meter, &gate);
            let client = DbClient::connect_supervised(
                factory,
                ReconnectPolicy::fast_test(),
                fleet_viewer_config(&format!("r4-viewer-{v}")),
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
        await_utilization(&viewer.display, *viewer.ids.last().expect("ids"), 0.01);
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
    // The outage starts when both ends have noticed it: every viewer's
    // reader has exited and the server has torn down every viewer
    // session. A commit is one request and can land while a severed
    // session is still being torn down; what such a viewer still hears
    // with its last frames it need not recover, and the bytes measured
    // below would vary with that race.
    for viewer in &fleet {
        await_link_down(&viewer.client);
    }
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
    let reads = server.core().stats().reads.get();
    let start = Instant::now();
    gate.store(true, Ordering::SeqCst);
    for viewer in &fleet {
        for (i, &want) in finals.iter().enumerate() {
            await_utilization(&viewer.display, viewer.ids[i], want);
        }
    }
    let convergence = start.elapsed();
    // The resync refreshes are queued ahead of `Restored`; a display
    // that has handled it has made every read its resume asked for.
    for viewer in &fleet {
        await_restored(&viewer.display);
    }

    let mut replay_catchups = 0u64;
    let mut resync_fallbacks = 0u64;
    for viewer in &fleet {
        let recovery = &viewer.client.conn_stats().recovery;
        replay_catchups += recovery.replay_catchups.get();
        resync_fallbacks += recovery.replay_truncations.get();
    }
    let resume_sheds = server.core().dlm().stats().overload.resume_sheds.get();
    let outcome = Outcome {
        bytes: meter.total_bytes(),
        frames: meter.frames_sent() + meter.frames_received(),
        convergence,
        replay_catchups,
        resync_fallbacks,
        reread: server.core().stats().reads.get() - reads,
        resume_sheds,
    };
    drop(fleet);
    drop(server);
    outcome
}
