//! R1 — connection supervision & session recovery (DESIGN.md § 8).
//!
//! Not a numbered paper claim, but a paper-era implication: the NMS
//! console of § 4 ran for days against a campus network, which means
//! surviving transport blips and server restarts. This experiment
//! drives repeated outages through the client supervisor and reports
//! the recovery counters ([`displaydb_common::metrics::RecoveryStats`])
//! together with wall-clock time-to-recovery:
//!
//! * **transport blip** — the channel dies but the server keeps the
//!   session's resume token; the supervisor reconnects and *resumes*
//!   (same identity, epoch + 1), resyncing only what changed.
//! * **server restart** — the server process is replaced (same data
//!   directory, WAL recovery); the resume token is refused, the client
//!   gets a fresh session, and its whole cached manifest is reported
//!   stale.

use crate::fixture::scratch_dir;
use crate::report::Table;
use crate::Scale;
use displaydb_client::{ChannelFactory, ClientConfig, DbClient};
use displaydb_common::backoff::ReconnectPolicy;
use displaydb_common::DbResult;
use displaydb_display::schema::color_coded_link;
use displaydb_display::{Display, DisplayCache};
use displaydb_nms::nms_catalog;
use displaydb_server::{Server, ServerConfig};
use displaydb_wire::{Channel, FaultPlan, FaultyChannel, LocalHub};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn supervised_config(name: &str) -> ClientConfig {
    ClientConfig {
        name: name.into(),
        cache_bytes: 1 << 20,
        // Short RPC timeout so a dead-but-accepting endpoint fails fast
        // and the supervisor moves on to the next attempt.
        call_timeout: Duration::from_millis(300),
        disk_cache: None,
    }
}

/// Build a display over `n` freshly created links so that recovery has
/// display locks to replay and pinned DOs to stale-mark.
fn build_display(client: &Arc<DbClient>, n: usize) -> DbResult<Arc<Display>> {
    let mut oids = Vec::with_capacity(n);
    let mut txn = client.begin()?;
    for _ in 0..n {
        oids.push(txn.create(client.new_object("Link")?)?.oid);
    }
    txn.commit()?;
    let cache = Arc::new(DisplayCache::new());
    let display = Display::open(Arc::clone(client), cache, "r1");
    for oid in oids {
        display.add_object(&color_coded_link("Utilization"), vec![oid])?;
    }
    Ok(display)
}

/// Block until the supervisor has brought `client` back, returning the
/// elapsed recovery time.
fn await_recovery(client: &DbClient, started: Instant) -> Duration {
    let deadline = Instant::now() + Duration::from_secs(30);
    while client.ping().is_err() {
        assert!(Instant::now() < deadline, "supervisor never recovered");
        std::thread::sleep(Duration::from_millis(5));
    }
    started.elapsed()
}

/// Run R1.
pub fn run(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "R1 — supervised recovery: counters and time-to-recovery",
        "Repeated outages under DbClient::connect_supervised. Transport blips resume the \
         session (epoch bump, targeted resync); server restarts refuse the token (fresh \
         session, whole manifest stale). Counters are RecoveryStats totals over all cycles.",
        &[
            "scenario",
            "outages",
            "attempts",
            "reconnects ok",
            "sessions resumed",
            "resync objects",
            "stale marks",
            "mean recovery (ms)",
        ],
    );
    let cycles = scale.pick(3usize, 10);
    let dos = scale.pick(8usize, 32);

    t.row(transport_blips(cycles, dos));
    t.row(server_restarts(cycles, dos));
    vec![t]
}

/// Kill the live channel with fault injection while the server stays up.
fn transport_blips(cycles: usize, dos: usize) -> Vec<String> {
    let catalog = Arc::new(nms_catalog());
    let hub = LocalHub::new();
    let _server = Server::spawn_local(
        Arc::clone(&catalog),
        ServerConfig::new(scratch_dir("r1-blip")),
        &hub,
    )
    .expect("server");

    // Every connection is wrapped in a fresh fault plan; the latest plan
    // is kept so each cycle can kill the *current* channel.
    let plan_slot: Arc<Mutex<Arc<FaultPlan>>> = Arc::new(Mutex::new(Arc::new(FaultPlan::new())));
    let factory: ChannelFactory = {
        let hub = hub.clone();
        let slot = Arc::clone(&plan_slot);
        Arc::new(move || {
            let plan = Arc::new(FaultPlan::new());
            *slot.lock() = Arc::clone(&plan);
            let inner: Box<dyn Channel> = Box::new(hub.connect()?);
            Ok(Box::new(FaultyChannel::wrap(inner, plan)) as Box<dyn Channel>)
        })
    };
    let client = DbClient::connect_supervised(
        factory,
        ReconnectPolicy::fast_test(),
        supervised_config("r1-blip"),
    )
    .expect("client");
    let display = build_display(&client, dos).expect("display");

    let mut total = Duration::ZERO;
    for _ in 0..cycles {
        let started = Instant::now();
        plan_slot.lock().kill_now();
        total += await_recovery(&client, started);
        // Drain the Degraded/resync/Restored cycle the outage produced.
        while display
            .wait_and_process(Duration::from_millis(100))
            .unwrap()
            > 0
        {}
    }
    let recovery = client.conn_stats().recovery.clone();
    let mean = total / cycles as u32;
    row("transport blip (resume)", cycles, &recovery, mean)
}

/// Replace the server process over the same data directory.
fn server_restarts(cycles: usize, dos: usize) -> Vec<String> {
    let catalog = Arc::new(nms_catalog());
    let dir = scratch_dir("r1-restart");
    let durable = |dir: &std::path::Path| {
        let mut c = ServerConfig::new(dir);
        c.sync_commits = true;
        c
    };
    let hub_slot = Arc::new(Mutex::new(LocalHub::new()));
    let hub0 = hub_slot.lock().clone();
    let mut server =
        Server::spawn_local(Arc::clone(&catalog), durable(&dir), &hub0).expect("server");
    let factory: ChannelFactory = {
        let slot = Arc::clone(&hub_slot);
        Arc::new(move || {
            let channel = slot.lock().connect()?;
            Ok(Box::new(channel) as Box<dyn Channel>)
        })
    };
    let client = DbClient::connect_supervised(
        factory,
        ReconnectPolicy::fast_test(),
        supervised_config("r1-restart"),
    )
    .expect("client");
    let display = build_display(&client, dos).expect("display");

    let mut total = Duration::ZERO;
    for _ in 0..cycles {
        let hub = LocalHub::new();
        *hub_slot.lock() = hub.clone();
        let started = Instant::now();
        server.shutdown();
        server = Server::spawn_local(Arc::clone(&catalog), durable(&dir), &hub).expect("respawn");
        total += await_recovery(&client, started);
        while display
            .wait_and_process(Duration::from_millis(100))
            .unwrap()
            > 0
        {}
    }
    let recovery = client.conn_stats().recovery.clone();
    let mean = total / cycles as u32;
    row("server restart (fresh session)", cycles, &recovery, mean)
}

fn row(
    scenario: &str,
    cycles: usize,
    recovery: &displaydb_common::metrics::RecoveryStats,
    mean: Duration,
) -> Vec<String> {
    vec![
        scenario.to_string(),
        cycles.to_string(),
        recovery.reconnect_attempts.get().to_string(),
        recovery.reconnects_ok.get().to_string(),
        recovery.sessions_resumed.get().to_string(),
        recovery.resync_objects.get().to_string(),
        recovery.stale_marks.get().to_string(),
        crate::report::ms(mean),
    ]
}
