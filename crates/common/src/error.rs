//! The workspace-wide error type.
//!
//! A single error enum keeps the crate boundaries simple: storage, locking,
//! protocol and schema failures all flow to callers as [`DbError`].
//!
//! # Error taxonomy
//!
//! Every variant falls into one of three contract classes that callers can
//! rely on:
//!
//! * **Retryable** — the operation failed due to a transient condition and
//!   may succeed if simply retried (in a new transaction where applicable):
//!   [`DbError::LockTimeout`], [`DbError::Deadlock`], [`DbError::Timeout`],
//!   [`DbError::Overloaded`], [`DbError::StaleBase`], and — now that the
//!   client stack has supervised reconnection — [`DbError::Disconnected`].
//!   A disconnected channel is repaired in the background by the
//!   connection supervisor, so retrying after a short backoff is the
//!   correct reaction. `Overloaded` is the server's admission-control
//!   shed: the request was never admitted, so retrying after backoff is
//!   always safe (no partial effects); so is `StaleBase` (nothing of the
//!   commit was applied).
//!   [`DbError::is_retryable`] returns `true` exactly for this class.
//!
//! * **Fatal** — the request itself can never succeed as issued and must
//!   not be retried verbatim: [`DbError::ObjectNotFound`],
//!   [`DbError::ClassNotFound`], [`DbError::SchemaViolation`],
//!   [`DbError::InvalidArgument`], [`DbError::TxnNotActive`],
//!   [`DbError::Protocol`], [`DbError::Corrupt`], [`DbError::Rejected`],
//!   plus the resource-exhaustion pair [`DbError::PageFull`] and
//!   [`DbError::BufferExhausted`] and raw [`DbError::Io`] failures.
//!   [`DbError::CrashPoint`] also lands here: it is a *simulated* crash
//!   injected by the test harness ([`crate::crashpoint`]), and the only
//!   correct reaction is to tear down and reopen, never to retry.
//!
//! * **Degraded** — not an error variant but a *mode*: while the supervisor
//!   is between a disconnect and a successful resume, display-layer reads
//!   keep serving pinned display objects marked stale rather than failing.
//!   Callers see `Disconnected` only on paths that require the live server
//!   (RPCs, commits); cache-resident reads continue to succeed.
//!
//! # Across the wire
//!
//! The server answers a failed request with the error's [`DbError::kind`]
//! and message. The client rebuilds the retryable kinds as themselves
//! (`deadlock`, `lock_timeout`, `disconnected`, `timeout`, `overloaded`,
//! `stale_base` — which `ClientTxn::commit` answers with one full-state
//! resend), because callers branch on them; every other kind arrives as
//! [`DbError::Rejected`] carrying the original message. A remote caller
//! therefore never sees, say, `ObjectNotFound` — it sees
//! `Rejected("object not found: …")`.

use crate::ids::{Oid, TxnId};
use std::fmt;
use std::io;

/// Result alias used throughout the workspace.
pub type DbResult<T> = Result<T, DbError>;

/// All error conditions surfaced by displaydb components.
#[derive(Debug)]
pub enum DbError {
    /// An underlying I/O failure (disk or network).
    Io(io::Error),
    /// On-disk or on-wire data failed validation.
    Corrupt(String),
    /// A requested object does not exist (or was deleted).
    ObjectNotFound(Oid),
    /// A requested class is unknown to the catalog.
    ClassNotFound(String),
    /// A record insert did not fit in any page.
    PageFull,
    /// The buffer pool had no evictable frame.
    BufferExhausted,
    /// A lock request timed out.
    LockTimeout { oid: Oid },
    /// The transaction was chosen as a deadlock victim.
    Deadlock { victim: TxnId },
    /// Operation attempted on a transaction that is no longer active.
    TxnNotActive(TxnId),
    /// A value did not match the attribute type declared by the schema.
    SchemaViolation(String),
    /// A malformed or unexpected protocol message.
    Protocol(String),
    /// The peer disconnected or the channel is closed.
    Disconnected,
    /// A blocking call exceeded its deadline.
    Timeout(String),
    /// The server shed the request before admitting it (per-client
    /// in-flight cap reached). Safe to retry after backoff.
    Overloaded,
    /// A commit patched a state the object no longer has (the patch's
    /// base fingerprint is not the stored object's). Nothing was applied;
    /// the same write set with full states succeeds.
    StaleBase { oid: Oid },
    /// The server rejected the request.
    Rejected(String),
    /// An invalid argument was supplied by the caller.
    InvalidArgument(String),
    /// A deterministic crash point armed by the test harness fired
    /// (`crate::crashpoint`). The instrumented path already performed the
    /// partial on-disk effect a real crash would leave; the process under
    /// test must treat this as fatal and recover by reopening.
    CrashPoint(&'static str),
}

impl DbError {
    /// Short machine-readable category tag, used in wire encoding and
    /// metrics labels.
    pub fn kind(&self) -> &'static str {
        match self {
            DbError::Io(_) => "io",
            DbError::Corrupt(_) => "corrupt",
            DbError::ObjectNotFound(_) => "object_not_found",
            DbError::ClassNotFound(_) => "class_not_found",
            DbError::PageFull => "page_full",
            DbError::BufferExhausted => "buffer_exhausted",
            DbError::LockTimeout { .. } => "lock_timeout",
            DbError::Deadlock { .. } => "deadlock",
            DbError::TxnNotActive(_) => "txn_not_active",
            DbError::SchemaViolation(_) => "schema_violation",
            DbError::Protocol(_) => "protocol",
            DbError::Disconnected => "disconnected",
            DbError::Timeout(_) => "timeout",
            DbError::Overloaded => "overloaded",
            DbError::StaleBase { .. } => "stale_base",
            DbError::Rejected(_) => "rejected",
            DbError::InvalidArgument(_) => "invalid_argument",
            DbError::CrashPoint(_) => "crash_point",
        }
    }

    /// Whether the operation may succeed if simply retried in a new
    /// transaction (lock timeouts, deadlocks, RPC timeouts, and — because
    /// the connection layer reconnects in the background — disconnects).
    ///
    /// See the module-level *Error taxonomy* section for the full
    /// retryable / fatal / degraded contract.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            DbError::LockTimeout { .. }
                | DbError::Deadlock { .. }
                | DbError::Timeout(_)
                | DbError::Disconnected
                | DbError::Overloaded
                | DbError::StaleBase { .. }
        )
    }
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Io(e) => write!(f, "i/o error: {e}"),
            DbError::Corrupt(m) => write!(f, "corrupt data: {m}"),
            DbError::ObjectNotFound(oid) => write!(f, "object not found: {oid}"),
            DbError::ClassNotFound(name) => write!(f, "class not found: {name}"),
            DbError::PageFull => write!(f, "record does not fit in a page"),
            DbError::BufferExhausted => write!(f, "buffer pool exhausted (all frames pinned)"),
            DbError::LockTimeout { oid } => write!(f, "lock request timed out on {oid}"),
            DbError::Deadlock { victim } => write!(f, "deadlock detected; victim {victim}"),
            DbError::TxnNotActive(t) => write!(f, "transaction {t} is not active"),
            DbError::SchemaViolation(m) => write!(f, "schema violation: {m}"),
            DbError::Protocol(m) => write!(f, "protocol error: {m}"),
            DbError::Disconnected => write!(f, "peer disconnected"),
            DbError::Timeout(m) => write!(f, "timed out: {m}"),
            DbError::Overloaded => write!(f, "server overloaded; retry after backoff"),
            DbError::StaleBase { oid } => {
                write!(f, "patch of {oid} names a state it no longer has")
            }
            DbError::Rejected(m) => write!(f, "rejected: {m}"),
            DbError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            DbError::CrashPoint(name) => write!(f, "simulated crash at '{name}'"),
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DbError {
    fn from(e: io::Error) -> Self {
        DbError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = DbError::ObjectNotFound(Oid::new(9));
        assert_eq!(e.to_string(), "object not found: oid:9");
        assert_eq!(e.kind(), "object_not_found");
        assert!(!e.is_retryable());
    }

    #[test]
    fn retryable_classification() {
        assert!(DbError::Deadlock {
            victim: TxnId::new(1)
        }
        .is_retryable());
        assert!(DbError::LockTimeout { oid: Oid::new(1) }.is_retryable());
        // Disconnected is retryable: the supervisor reconnects in the
        // background, so a retry after backoff can succeed.
        assert!(DbError::Disconnected.is_retryable());
        // Overloaded is retryable: admission control shed the request
        // before it was admitted, so a backed-off retry has no partial
        // effects to worry about.
        assert!(DbError::Overloaded.is_retryable());
        assert_eq!(DbError::Overloaded.kind(), "overloaded");
        // StaleBase is retryable: the refused commit applied nothing.
        let stale = DbError::StaleBase { oid: Oid::new(1) };
        assert!(stale.is_retryable());
        assert_eq!(stale.kind(), "stale_base");
        assert!(!DbError::PageFull.is_retryable());
        assert!(!DbError::Protocol("bad".into()).is_retryable());
    }

    #[test]
    fn io_conversion_preserves_source() {
        let e: DbError = io::Error::new(io::ErrorKind::NotFound, "missing").into();
        assert_eq!(e.kind(), "io");
        assert!(std::error::Error::source(&e).is_some());
    }
}
