//! The Display Lock Manager (DLM).
//!
//! Display locks (paper § 3.3) are non-restrictive shared locks: holding
//! one never blocks an update, but guarantees that the holder is notified
//! whenever the locked object changes. This crate implements the manager
//! side:
//!
//! * [`proto`] — wire messages between clients and the DLM,
//! * [`shard`] — [`ShardedDlm`], the transport-agnostic DLM both
//!   deployments wrap: lock tables and notification fan-out partitioned
//!   by OID hash, with all three protocol variants:
//!   * **post-commit notify** — holders learn about updates after commit
//!     and re-read the objects (3 messages per refresh);
//!   * **early notify** — holders are additionally told when an exclusive
//!     lock is *acquired*, so displays can mark objects "being updated"
//!     and users avoid conflicting edits;
//!   * **eager shipping** — the § 4.3 extension: the new object state
//!     rides inside the notification, eliminating the read round-trip
//!     (1 message per refresh instead of 3);
//! * [`agent`] — the paper's deployment (§ 4.1): the DLM as a standalone
//!   service next to an unmodifiable database server, with clients
//!   connecting over any [`displaydb_wire::Channel`].
//!
//! The integrated deployment (DLM inside the server's lock manager) is
//! assembled in `displaydb-server` around the same [`ShardedDlm`].

pub mod agent;
pub mod core;
pub mod log;
pub mod outbox;
pub mod proto;
pub mod shard;

pub use crate::core::{DlmConfig, DlmStats, EventSink, NotifyProtocol, ReplayOutcome};
pub use crate::log::{DurableRecovery, LogEntry, ReplaySlice, UpdateLog};
pub use agent::{DlmAgent, DlmAgentConnection};
pub use outbox::{CoalescingQueue, OutboxSink, Pushed};
pub use proto::{AttrChanges, DlmEvent, DlmRequest, ShardCursor, UpdateInfo};
pub use shard::{Logged, ShardMap, ShardStats, ShardedDlm};
