//! One running system under test: a TCP server, an updater client, a
//! viewer client and the viewer's display over 64 links.

use crate::clock;
use crate::schedule::LINKS;
use crate::workload::Workload;
use displaydb_client::{ClientConfig, DbClient};
use displaydb_common::{DbResult, Oid};
use displaydb_display::{Display, DisplayCache, DoId};
use displaydb_nms::nms_catalog;
use displaydb_schema::Catalog;
use displaydb_server::{Server, ServerConfig};
use displaydb_wire::{MeteredChannel, TcpChannel, WireMeter};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Scratch space for server data directories: next to the running
/// executable, so inside the build directory of whichever checkout this
/// binary was built in, and never in the source tree.
pub fn scratch_root() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    exe.parent()
        .expect("executable has a directory")
        .join(format!("bench-data-{}", std::process::id()))
}

static RIG_SEQ: AtomicU64 = AtomicU64::new(0);

pub struct Rig {
    pub catalog: Arc<Catalog>,
    pub server: Server,
    addr: SocketAddr,
    pub updater: Arc<DbClient>,
    pub viewer: Arc<DbClient>,
    pub display: Arc<Display>,
    /// The 64 links, in creation order.
    pub oids: Vec<Oid>,
    /// The viewer's display object over `oids[i]`.
    pub do_ids: Vec<DoId>,
    /// Payload bytes of both client connections, both directions.
    pub meter: Arc<WireMeter>,
    /// Non-default configuration fields, for the report.
    pub non_default: Vec<(&'static str, String)>,
    /// From the start of set-up to a display ready to watch.
    pub setup_ns: u64,
    dir: PathBuf,
}

impl Rig {
    /// Spawn the server, create the links, connect both clients, build
    /// the display and register its display locks.
    pub fn setup(workload: Workload, scratch: &Path) -> DbResult<Self> {
        let started = clock::now_ns();
        let dir = scratch.join(format!("rig-{}", RIG_SEQ.fetch_add(1, Ordering::Relaxed)));
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = Arc::new(nms_catalog());
        let mut config = ServerConfig::new(&dir);
        let non_default = workload.configure(&mut config);
        let (server, addr) = Server::spawn_tcp(Arc::clone(&catalog), config, "127.0.0.1:0")?;

        let meter = WireMeter::new();
        let connect = |name: &str| -> DbResult<Arc<DbClient>> {
            let channel = MeteredChannel::wrap(Box::new(TcpChannel::connect(addr)?), meter.clone());
            DbClient::connect(Box::new(channel), ClientConfig::named(name))
        };
        let updater = connect("bench-updater")?;
        let viewer = connect("bench-viewer")?;

        let mut txn = updater.begin()?;
        let mut oids = Vec::with_capacity(LINKS);
        for _ in 0..LINKS {
            oids.push(txn.create(updater.new_object("Link")?)?.oid);
        }
        txn.commit()?;

        let display = Display::open(
            Arc::clone(&viewer),
            Arc::new(DisplayCache::new()),
            workload.name(),
        );
        let class = workload.viewer_class();
        let do_ids = oids
            .iter()
            .map(|&oid| display.add_object(&class, vec![oid]))
            .collect::<DbResult<Vec<_>>>()?;

        Ok(Self {
            catalog,
            server,
            addr,
            updater,
            viewer,
            display,
            oids,
            do_ids,
            meter,
            non_default,
            setup_ns: clock::now_ns() - started,
            dir,
        })
    }

    /// A fresh, unmetered client for the output check.
    pub fn checker(&self) -> DbResult<Arc<DbClient>> {
        DbClient::connect(
            Box::new(TcpChannel::connect(self.addr)?),
            ClientConfig::named("bench-checker"),
        )
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        let _ = self.display.close();
        self.viewer.close();
        self.updater.close();
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
