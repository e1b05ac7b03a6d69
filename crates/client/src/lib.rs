//! The client library: connection, database cache, transactions, and the
//! Display Lock Client.
//!
//! A client application holds one [`DbClient`]:
//!
//! * [`conn`] — the duplex connection to the server: sequence-numbered
//!   RPCs, plus asynchronous pushes (cache callbacks, display
//!   notifications) routed off a dedicated reader thread;
//! * [`cache`] — the **client database cache** (paper § 2.2): an LRU,
//!   byte-bounded store of whole objects that the *application does not
//!   control* — the DBMS invalidates entries via callbacks and evicts
//!   under pressure, which is precisely why the display cache exists one
//!   level above it;
//! * [`txn`] — client-side transactions (writes are shipped to the
//!   server's workspace as they happen; commit makes them durable and
//!   updates the local cache);
//! * [`dlc`] — the **Display Lock Client** (paper § 4.2.1): one per
//!   client, deduplicating display-lock requests across the client's many
//!   displays and fanning incoming notifications out locally, so the DLM
//!   sees one lock and sends one notification per client regardless of
//!   how many windows show the object.

pub mod cache;
pub mod conn;
pub mod dlc;
pub mod supervisor;
pub mod txn;

mod client;

pub use cache::ClientCache;
pub use client::{ClientConfig, DbClient, SessionInfo};
pub use conn::Connection;
pub use dlc::{Dlc, DlcEvent, DlcStats};
pub use supervisor::ChannelFactory;
pub use txn::ClientTxn;
