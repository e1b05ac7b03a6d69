//! R5 — server restart: durable cross-restart replay vs restart resync
//! (DESIGN.md § 14).
//!
//! R4's storm loses the *connections*; this one loses the *process*.
//! A fleet of viewers is connected to a server that is hard-killed (no
//! outbox drain, no goodbye) and restarted over the same data
//! directory; a slice of the watched topology changes before the fleet
//! is let back in. Every resume token is refused — the in-memory
//! session state died with the process — yet the server still proves
//! each cached copy against the store by its fingerprint (DESIGN.md
//! § 14), so only the changed slice is stale. Without the durable
//! update log no cursor is admitted, and each viewer resyncs, re-reading
//! its stale objects whole. With the spill on, the log's incarnation and
//! window survive the restart, and the server streams only the missed
//! suffix. Those commits landed before any viewer relocked, so no
//! projection asked for their attribute changes: the suffix carries
//! `Updated`, and each viewer re-reads the same changed slice.
//!
//! Both scenarios run the identical kill/restart/change/reconnect
//! cycle; the only difference is `ServerConfig::durable_log`. Recovery
//! traffic is measured at the wire, as in R4: from the moment the fleet
//! is let back in, after every old link's reader has exited, until every
//! display has handled its `Restored`.
//!
//! Claims: both arms re-read exactly the changed slice (viewers ×
//! changed objects), and no unchanged copy costs a byte beyond its
//! manifest entry.

use crate::fixture::{
    await_link_down, await_restored, await_utilization, fat_links, fleet_viewer_config, scratch_dir,
};
use crate::report::{self, Metrics, Table};
use crate::Scale;
use displaydb_client::{ChannelFactory, ClientConfig, DbClient};
use displaydb_common::backoff::ReconnectPolicy;
use displaydb_common::DurableLogConfig;
use displaydb_display::schema::width_coded_link;
use displaydb_display::{Display, DisplayCache, DoId};
use displaydb_nms::nms_catalog;
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
    // One link in eight changes across the restart: both arms should pay
    // for the change only.
    let changed = (links / 8).max(1);

    let resync = storm(viewers, links, changed, false);
    let replay = storm(viewers, links, changed, true);

    let mut t = Table::new(
        "R5 — server restart: durable replay vs restart resync",
        format!(
            "{viewers} viewers each watching {links} links; the server is hard-killed \
             and restarted over the same directory while {changed} links changed. Bytes \
             are total wire traffic across every viewer channel from the moment the \
             fleet is let back in until every display holds the final state and has \
             handled its `Restored`. Objects re-read are server reads in that window."
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
            o.reread.to_string(),
            o.sessions_recovered.to_string(),
        ]);
    }

    let mut m = Metrics::new("r5");
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
    cross_restart_replays: u64,
    /// Server reads inside the measured window.
    reread: u64,
    sessions_recovered: u64,
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

    // The same realistically fat links as R4: a re-read pays for each
    // changed one whole.
    let oids = fat_links(&updater, &catalog, links);

    let meter = WireMeter::new();
    let gate = Arc::new(AtomicBool::new(true));
    let fleet: Vec<FleetViewer> = (0..viewers)
        .map(|v| {
            let factory = fleet_factory(&hub_slot, &meter, &gate);
            let client = DbClient::connect_supervised(
                factory,
                ReconnectPolicy::fast_test(),
                fleet_viewer_config(&format!("r5-viewer-{v}")),
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
        await_utilization(&viewer.display, *viewer.ids.last().expect("ids"), 0.01);
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
    for viewer in &fleet {
        await_link_down(&viewer.client);
    }
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
    let reads = server2.core().stats().reads.get();
    let start = Instant::now();
    gate.store(true, Ordering::SeqCst);
    for viewer in &fleet {
        for (i, &want) in finals.iter().enumerate() {
            await_utilization(&viewer.display, viewer.ids[i], want);
        }
    }
    let convergence = start.elapsed();
    for viewer in &fleet {
        await_restored(&viewer.display);
    }

    let mut cross_restart_replays = 0u64;
    for viewer in &fleet {
        let recovery = &viewer.client.conn_stats().recovery;
        cross_restart_replays += recovery.cross_restart_replays.get();
    }
    let sessions_recovered = server2.core().stats().sessions_recovered.get();
    let outcome = Outcome {
        bytes: meter.total_bytes(),
        frames: meter.frames_sent() + meter.frames_received(),
        convergence,
        cross_restart_replays,
        reread: server2.core().stats().reads.get() - reads,
        sessions_recovered,
    };
    drop(fleet);
    drop(server2);
    outcome
}
