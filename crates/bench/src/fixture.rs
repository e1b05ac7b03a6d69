//! Shared experiment scaffolding: servers, clients, topologies, maps.

use displaydb_client::{ClientConfig, DbClient};
use displaydb_common::{DbResult, Oid};
use displaydb_display::{Display, DisplayCache, DoId};
use displaydb_dlm::DlmConfig;
use displaydb_nms::{nms_catalog, NetworkMap, Topology, TopologyConfig};
use displaydb_schema::{Catalog, Value};
use displaydb_server::{Server, ServerConfig};
use displaydb_viz::Rect;
use displaydb_wire::{LocalHub, SimNetConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

static FIXTURE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory for one experiment run.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("displaydb-bench").join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        FIXTURE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Create `links` realistically fat NMS links (paper § 4's schema) in
/// one transaction: a re-read pays for all of each, a projected delta
/// only for the one attribute that changed.
pub fn fat_links(client: &Arc<DbClient>, catalog: &Catalog, links: usize) -> Vec<Oid> {
    let mut oids = Vec::with_capacity(links);
    let mut txn = client.begin().expect("begin");
    for i in 0..links {
        let obj = client
            .new_object("Link")
            .expect("new")
            .with(catalog, "Name", format!("backbone-link-{i:04}"))
            .expect("Name")
            .with(
                catalog,
                "Notes",
                "10GE wave, protected, maint window sat 02:00",
            )
            .expect("Notes")
            .with(catalog, "Utilization", 0.0)
            .expect("Utilization")
            .with(catalog, "ErrorRate", 1e-9)
            .expect("ErrorRate")
            .with(catalog, "LatencyMs", 4.2)
            .expect("LatencyMs")
            .with(catalog, "Vendor", "Acme Optical Systems")
            .expect("Vendor")
            .with(catalog, "CircuitId", format!("CIRCUIT-{i:06}-A"))
            .expect("CircuitId");
        oids.push(txn.create(obj).expect("create").oid);
    }
    txn.commit().expect("commit");
    oids
}

/// The config of a recovery fleet's supervised viewer: a cache that
/// holds every watched link, and calls that fail fast while it is away.
pub fn fleet_viewer_config(name: &str) -> ClientConfig {
    ClientConfig {
        name: name.into(),
        cache_bytes: 1 << 20,
        call_timeout: Duration::from_millis(300),
    }
}

/// Pump `display` until display object `id` shows `Utilization == want`.
pub fn await_utilization(display: &Display, id: DoId, want: f64) {
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

/// Pump `display`, through its first outage, until it has handled the
/// `Restored` that ends it: the supervisor queues that event behind
/// every refresh the resume asked for, so those reads are all done.
pub fn await_restored(display: &Display) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while display.stats().stale_marks.get() == 0 || display.stale_count() > 0 {
        assert!(Instant::now() < deadline, "the display was never restored");
        display
            .wait_and_process(Duration::from_millis(50))
            .expect("process");
    }
}

/// Wait until the reader of `client`'s current connection has exited:
/// from then on nothing more arrives on, or leaves by, that link.
pub fn await_link_down(client: &DbClient) {
    let conn = client.conn();
    // Nothing is ever sent on `died`: this returns when the reader exits
    // or the wait times out.
    let _ = conn.died().recv_timeout(Duration::from_secs(10));
    assert!(conn.is_dead(), "a severed link's reader never exited");
}

/// A server plus its hub and catalog, cleaned up on drop.
pub struct Bed {
    /// The running server.
    pub server: Server,
    /// Connection hub (possibly latency-simulated).
    pub hub: LocalHub,
    /// Shared catalog.
    pub catalog: Arc<Catalog>,
    dir: PathBuf,
}

impl Bed {
    /// Start a server over the NMS schema with `tune` applied to its
    /// config. `latency` simulates a network on every connection.
    pub fn new(
        tag: &str,
        latency: Option<Duration>,
        tune: impl FnOnce(&mut ServerConfig),
    ) -> DbResult<Self> {
        let catalog = Arc::new(nms_catalog());
        let dir = scratch_dir(tag);
        let hub = match latency {
            Some(l) => LocalHub::with_latency(SimNetConfig::with_latency(l)),
            None => LocalHub::new(),
        };
        let mut config = ServerConfig::new(&dir);
        tune(&mut config);
        let server = Server::spawn_local(Arc::clone(&catalog), config, &hub)?;
        Ok(Self {
            server,
            hub,
            catalog,
            dir,
        })
    }

    /// Start with default tuning and no latency.
    pub fn plain(tag: &str) -> DbResult<Self> {
        Self::new(tag, None, |_| {})
    }

    /// Start with a DLM protocol configuration.
    pub fn with_dlm(tag: &str, dlm: DlmConfig) -> DbResult<Self> {
        Self::new(tag, None, |c| c.dlm = dlm)
    }

    /// Connect a named client.
    pub fn client(&self, name: &str) -> DbResult<Arc<DbClient>> {
        DbClient::connect(Box::new(self.hub.connect()?), ClientConfig::named(name))
    }

    /// Connect a client with a specific database-cache budget.
    pub fn client_with_cache(&self, name: &str, cache_bytes: usize) -> DbResult<Arc<DbClient>> {
        DbClient::connect(
            Box::new(self.hub.connect()?),
            ClientConfig {
                name: name.into(),
                cache_bytes,
                call_timeout: Duration::from_secs(30),
            },
        )
    }

    /// Generate a topology through a transient client.
    pub fn topology(&self, nodes: usize, links: usize) -> DbResult<Topology> {
        let client = self.client("topogen")?;
        Topology::generate(
            &client,
            &TopologyConfig {
                nodes,
                links,
                paths: 0,
                path_len: 0,
                seed: 1996,
            },
        )
    }

    /// Build a network map display for `client` over `topo`.
    pub fn map(
        &self,
        client: &Arc<DbClient>,
        topo: &Topology,
    ) -> DbResult<(Arc<DisplayCache>, NetworkMap)> {
        let cache = Arc::new(DisplayCache::new());
        let map = NetworkMap::build(client, &cache, topo, Rect::new(0.0, 0.0, 800.0, 600.0))?;
        Ok((cache, map))
    }
}

impl Drop for Bed {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
