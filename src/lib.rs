//! # displaydb
//!
//! A faithful, from-scratch reproduction of
//! *"Consistency and Performance of Concurrent Interactive Database
//! Applications"* (Stathatos, Kelley, Roussopoulos, Baras — ICDE 1996):
//! **display schemas**, **display caching**, and **display locks** for
//! multi-user interactive database applications, together with every
//! substrate the paper depended on — a client-server object DBMS with
//! WAL durability and callback cache consistency, the Display Lock
//! Manager (both as a standalone agent and integrated into the server's
//! lock manager), headless Tree-Map / PDQ tree-browser visualization,
//! and a network-management application.
//!
//! ## Quick start
//!
//! ```no_run
//! use displaydb::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. A server over the NMS schema.
//! let catalog = Arc::new(displaydb::nms::nms_catalog());
//! let hub = LocalHub::new();
//! let _server = Server::spawn_local(
//!     Arc::clone(&catalog),
//!     ServerConfig::new("/tmp/displaydb-demo"),
//!     &hub,
//! ).unwrap();
//!
//! // 2. A client with a database cache and a display cache.
//! let client = DbClient::connect(
//!     Box::new(hub.connect().unwrap()),
//!     ClientConfig::named("operator"),
//! ).unwrap();
//! let display_cache = Arc::new(DisplayCache::new());
//!
//! // 3. A display showing a color-coded link (figure 1 of the paper).
//! let display = Display::open(Arc::clone(&client), display_cache, "map");
//! // ... create a Link object, then:
//! // display.add_object(&color_coded_link("Utilization"), vec![link_oid]);
//! // display.wait_and_process(timeout);   // live refresh on updates
//! ```
//!
//! See `examples/` for full runnable scenarios and `displaydb-bench` for
//! the experiment harness that regenerates the paper's evaluation.

pub use displaydb_client as client;
pub use displaydb_common as common;
pub use displaydb_display as display;
pub use displaydb_dlm as dlm;
pub use displaydb_lockmgr as lockmgr;
pub use displaydb_nms as nms;
pub use displaydb_schema as schema;
pub use displaydb_server as server;
pub use displaydb_storage as storage;
pub use displaydb_viz as viz;
pub use displaydb_wire as wire;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use displaydb_client::{
        ChannelFactory, ClientConfig, ClientTxn, DbClient, DlcEvent, SessionInfo,
    };
    pub use displaydb_common::backoff::ReconnectPolicy;
    pub use displaydb_common::metrics::RecoveryStats;
    pub use displaydb_common::{ClientId, DbError, DbResult, DisplayId, Oid, TxnId};
    pub use displaydb_common::{DurableLogConfig, OverloadConfig};
    pub use displaydb_display::schema::{color_coded_link, width_coded_link};
    pub use displaydb_display::{
        Display, DisplayCache, DisplayClassBuilder, DisplayClassDef, DisplayObject, DoId,
    };
    pub use displaydb_dlm::{
        DlmAgent, DlmConfig, DlmEvent, NotifyProtocol, ShardedDlm, UpdateInfo,
    };
    pub use displaydb_schema::{AttrType, Catalog, DbObject, Value};
    pub use displaydb_server::{Server, ServerConfig};
    pub use displaydb_wire::{
        FaultPlan, FaultyChannel, FaultyListener, LocalHub, MeteredChannel, SimNetConfig,
        TcpChannel, WireMeter,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let _ = Oid::new(1);
        let _ = DisplayCache::new();
        let config = DlmConfig::default();
        assert_eq!(config.protocol, NotifyProtocol::PostCommit);
    }
}
