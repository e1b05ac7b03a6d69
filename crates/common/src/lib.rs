//! Shared foundation for the `displaydb` workspace.
//!
//! This crate holds the vocabulary types used by every other crate in the
//! reproduction of *"Consistency and Performance of Concurrent Interactive
//! Database Applications"* (Stathatos, Kelley, Roussopoulos, Baras — ICDE
//! 1996):
//!
//! * strongly-typed identifiers ([`ids`]) for objects, pages, transactions,
//!   clients and displays,
//! * the workspace-wide error type ([`error::DbError`]),
//! * lightweight metrics primitives ([`metrics`]) used by the experiment
//!   harness to count messages, cache hits, and record latency percentiles,
//! * a generic intrusive-free [`lru::LruCache`] shared by the client
//!   database cache and the buffer pool bookkeeping,
//! * end-to-end notification-path tracing ([`trace`], DESIGN.md § 12).
//!
//! Nothing here depends on anything else in the workspace.

pub mod backoff;
pub mod crashpoint;
pub mod error;
pub mod ids;
pub mod lru;
pub mod metrics;
pub mod overload;
pub mod sync;
pub mod trace;

pub use backoff::ReconnectPolicy;
pub use crashpoint::CrashPoint;
pub use error::{DbError, DbResult};
pub use ids::{ClassId, ClientId, DisplayId, Lsn, Oid, PageId, RecordId, SlotId, TxnId};
pub use overload::{DurableLogConfig, OverloadConfig, UpdateLogConfig};
pub use sync::{LockRank, OrderedCondvar, OrderedMutex, OrderedRwLock};
pub use trace::TraceId;
