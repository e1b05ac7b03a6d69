//! Shared experiment scaffolding: servers, clients, topologies, maps.

use displaydb_client::{ClientConfig, DbClient};
use displaydb_common::DbResult;
use displaydb_display::DisplayCache;
use displaydb_dlm::DlmConfig;
use displaydb_nms::{nms_catalog, NetworkMap, Topology, TopologyConfig};
use displaydb_schema::Catalog;
use displaydb_server::{Server, ServerConfig};
use displaydb_viz::Rect;
use displaydb_wire::{LocalHub, SimNetConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
