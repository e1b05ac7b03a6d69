//! Ranked synchronization primitives enforcing the workspace lock
//! hierarchy (DESIGN.md § 11).
//!
//! Every long-lived lock in the hot crates (`dlm`, `server`, `client`,
//! `storage`) carries a [`LockRank`] from the registry in [`ranks`]. The
//! hierarchy rule is simple and global: **a thread may only acquire a
//! lock of strictly higher rank than the highest rank it already
//! holds** (outermost locks have the lowest ranks). Multi-instance
//! locks — many objects of the same kind, e.g. buffer-pool page frames
//! — share one rank declared with [`LockRank::new_multi`], which
//! permits same-rank nesting.
//!
//! The rule is enforced twice:
//!
//! * **statically** by the `invcheck` workspace linter, which maps lock
//!   call sites to this same registry and rejects acquisition-order
//!   cycles at lint time, and
//! * **dynamically** under the `lock-audit` feature (on in debug/test
//!   CI), where every acquisition checks a thread-local stack of held
//!   ranks and panics — naming both locks and both ranks — on an
//!   out-of-order acquisition.
//!
//! Poisoning: the wrappers are built on `std::sync` primitives, and a
//! panicking holder poisons them. Request paths must not turn one
//! panicked request into a permanently wedged server, so acquisition is
//! spelled [`OrderedMutex::lock_or_recover`]: a poisoned lock is
//! recovered (the guarded state is taken as-is), the global
//! [`poison_recoveries`] counter ticks, and the event is logged once to
//! stderr. `lock()` is an alias kept so wrapper types drop in where
//! `parking_lot` types were.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{self, Condvar as StdCondvar, OnceLock, PoisonError};
use std::time::Duration;

use crate::metrics::Counter;

/// A position in the workspace lock hierarchy: lower ranks are acquired
/// first (outermost). The numeric rank orders acquisitions; the name
/// appears in audit panics, lint reports, and poison-recovery logs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LockRank {
    rank: u16,
    name: &'static str,
    /// Multi-instance lock class: many same-ranked instances may be
    /// held at once (e.g. buffer-pool page frames).
    multi: bool,
}

impl LockRank {
    /// A single-instance rank: acquiring it twice on one thread (or
    /// acquiring any same-or-lower rank while held) is an ordering
    /// violation.
    pub const fn new(rank: u16, name: &'static str) -> Self {
        Self {
            rank,
            name,
            multi: false,
        }
    }

    /// A multi-instance rank: several instances of this class may be
    /// held simultaneously by one thread (same-rank nesting allowed).
    pub const fn new_multi(rank: u16, name: &'static str) -> Self {
        Self {
            rank,
            name,
            multi: true,
        }
    }

    /// Numeric rank (lower = acquired first).
    pub const fn rank(&self) -> u16 {
        self.rank
    }

    /// Registry name, e.g. `"dlm.table"`.
    pub const fn name(&self) -> &'static str {
        self.name
    }

    /// Whether same-rank nesting is allowed (multi-instance class).
    pub const fn is_multi(&self) -> bool {
        self.multi
    }
}

/// The declared lock registry: every ranked lock in the workspace, one
/// constant per lock (or per multi-instance lock class).
///
/// The table is mirrored by `crates/invcheck`'s static registry (which
/// maps source call sites to these ranks); an invcheck self-test fails
/// if the two drift apart. Gaps between ranks are deliberate room for
/// future locks. See DESIGN.md § 11 for the rank table with
/// guards-what documentation.
pub mod ranks {
    use super::LockRank;

    // Client side (outermost: application-facing entry points).
    /// The client's current session identity (resume token, epoch).
    pub const CLIENT_SESSION: LockRank = LockRank::new(110, "client.session");
    /// A swappable connection slot (the server link's or the agent
    /// link's current generation); taken alone, never nested.
    pub const CLIENT_SLOT: LockRank = LockRank::new(120, "client.slot");
    /// In-flight RPCs awaiting responses, keyed by sequence number.
    pub const CONN_PENDING: LockRank = LockRank::new(160, "conn.pending");
    /// The DLC's object→displays dependency table and its per-shard
    /// replay cursors.
    pub const DLC_STATE: LockRank = LockRank::new(190, "dlc.state");
    /// The client's in-memory object cache.
    pub const CLIENT_CACHE: LockRank = LockRank::new(210, "client.cache");

    // Server side.
    /// The connected-session registry and the issued resume tokens.
    pub const SERVER_SESSIONS: LockRank = LockRank::new(300, "server.sessions");
    /// A session's pending callback-ack waiters.
    pub const SESSION_ACKS: LockRank = LockRank::new(340, "session.acks");
    /// The transaction manager's live-transaction table.
    pub const SERVER_TXNS: LockRank = LockRank::new(350, "server.txns");
    /// The copy table (which clients cache which objects).
    pub const SERVER_COPIES: LockRank = LockRank::new(360, "server.copies");
    /// The transactional lock manager's lock table.
    pub const LOCKMGR_TABLE: LockRank = LockRank::new(370, "lockmgr.table");
    /// Per-waiter grant state inside the lock manager (one per queued
    /// request; acquired while scanning the queue).
    pub const LOCKMGR_WAITER: LockRank = LockRank::new_multi(375, "lockmgr.waiter");
    /// One DLM shard's holder/sink table (one lock per shard; a
    /// commit's fan-out threads each take exactly one, so same-rank
    /// instances never nest on a thread).
    pub const DLM_TABLE: LockRank = LockRank::new_multi(380, "dlm.table");
    /// One DLM shard's bounded replayable update log (independent seqno
    /// space per shard; appended before that shard's fan-out, read
    /// alone when serving replay).
    pub const DLM_UPDATE_LOG: LockRank = LockRank::new_multi(385, "dlm.update_log");
    /// The DLM agent's live session-channel list.
    pub const DLM_AGENT_SESSIONS: LockRank = LockRank::new(390, "dlm.agent_sessions");
    /// A per-client outbox's coalescing queue + writer state.
    pub const OUTBOX_STATE: LockRank = LockRank::new_multi(400, "outbox.state");

    // Storage engine (inner: reached from server request paths).
    /// The object store's OID→record-address directory.
    pub const STORE_DIRECTORY: LockRank = LockRank::new(500, "store.directory");
    /// The object store's per-class extent sets.
    pub const STORE_EXTENTS: LockRank = LockRank::new(505, "store.extents");
    /// The write-ahead log's buffer and tail state.
    pub const STORAGE_WAL: LockRank = LockRank::new(510, "storage.wal");
    /// The DLM's durable update-log segments (spill of `dlm.update_log`,
    /// which ranks above it so the spill can run under the ring's lock).
    pub const STORAGE_SEGLOG: LockRank = LockRank::new(515, "storage.seglog");
    /// Heap-file allocation state.
    pub const STORAGE_HEAP: LockRank = LockRank::new(520, "storage.heap");
    /// The buffer pool's frame table and replacement state.
    pub const BUFFER_POOL: LockRank = LockRank::new(530, "buffer.pool");
    /// A page frame latch (one per frame; pages are latched in
    /// pool-managed order).
    pub const BUFFER_FRAME: LockRank = LockRank::new_multi(540, "buffer.frame");
    /// Disk-manager free page list; taken under `buffer.pool` on delete.
    pub const STORAGE_DISK_FREELIST: LockRank = LockRank::new(545, "storage.disk.freelist");
    /// The disk manager's file handle.
    pub const STORAGE_DISK: LockRank = LockRank::new(550, "storage.disk");

    // Wire transports (innermost: every subsystem may end a chain with
    // a socket write, so these rank above everything else).
    /// A TCP channel's writer half.
    pub const WIRE_WRITER: LockRank = LockRank::new_multi(600, "wire.writer");
    /// A TCP channel's reader half.
    pub const WIRE_READER: LockRank = LockRank::new_multi(610, "wire.reader");
    /// An in-process channel's sender slot.
    pub const WIRE_LOCAL_TX: LockRank = LockRank::new_multi(620, "wire.local_tx");
    /// A fault plan's wrapped-channel registry (kill-now close list).
    pub const WIRE_HUB: LockRank = LockRank::new(630, "wire.hub");

    // Tracing (innermost of all: a stage may be recorded while holding
    // any lock in the system, including a wire writer, so the trace
    // sink ranks above the entire hierarchy).
    /// The trace module's ring-buffered event sink.
    pub const TRACE_SINK: LockRank = LockRank::new(700, "trace.sink");

    /// Every declared rank, sorted ascending. The invcheck registry and
    /// DESIGN.md § 11 table are validated against this list.
    pub const ALL: &[LockRank] = &[
        CLIENT_SESSION,
        CLIENT_SLOT,
        CONN_PENDING,
        DLC_STATE,
        CLIENT_CACHE,
        SERVER_SESSIONS,
        SESSION_ACKS,
        SERVER_TXNS,
        SERVER_COPIES,
        LOCKMGR_TABLE,
        LOCKMGR_WAITER,
        DLM_TABLE,
        DLM_UPDATE_LOG,
        DLM_AGENT_SESSIONS,
        OUTBOX_STATE,
        STORE_DIRECTORY,
        STORE_EXTENTS,
        STORAGE_WAL,
        STORAGE_SEGLOG,
        STORAGE_HEAP,
        BUFFER_POOL,
        BUFFER_FRAME,
        STORAGE_DISK_FREELIST,
        STORAGE_DISK,
        WIRE_WRITER,
        WIRE_READER,
        WIRE_LOCAL_TX,
        WIRE_HUB,
        TRACE_SINK,
    ];
}

/// Global counter of poisoned-lock recoveries (a holder panicked and a
/// later acquirer took the state as-is). Nonzero in a healthy run means
/// some request died mid-update; the log line names the lock.
pub fn poison_recoveries() -> &'static Counter {
    static POISON: OnceLock<Counter> = OnceLock::new();
    POISON.get_or_init(Counter::new)
}

/// Per-thread held-rank bookkeeping, compiled in only under
/// `lock-audit`. The release path removes the *latest* entry for the
/// rank, so overlapping multi-instance guards unwind correctly even
/// when dropped out of order.
#[cfg(feature = "lock-audit")]
mod audit {
    use super::LockRank;
    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<Vec<LockRank>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn acquired(rank: LockRank) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(top) = held.last() {
                let ordered = rank.rank() > top.rank()
                    || (rank.rank() == top.rank() && rank.is_multi() && top.is_multi());
                assert!(
                    ordered,
                    "lock-audit: acquiring '{}' (rank {}) while holding '{}' (rank {}): \
                     the lock hierarchy requires strictly increasing ranks \
                     (see displaydb_common::sync::ranks and DESIGN.md § 11)",
                    rank.name(),
                    rank.rank(),
                    top.name(),
                    top.rank(),
                );
            }
            held.push(rank);
        });
    }

    pub(super) fn released(rank: LockRank) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|h| h.rank() == rank.rank()) {
                held.remove(pos);
            }
        });
    }

    /// Ranks currently held by this thread (tests).
    pub fn held_ranks() -> Vec<u16> {
        HELD.with(|held| held.borrow().iter().map(|r| r.rank()).collect())
    }
}

#[cfg(feature = "lock-audit")]
pub use audit::held_ranks;

thread_local!(static BEFORE_WAIT: RefCell<Option<Rc<dyn Fn()>>> = const { RefCell::new(None) });

/// Run `body` with `hook` armed: the first [`before_wait`] in it, on this
/// thread, calls `hook` (DESIGN.md § 5, server threading).
pub fn on_first_wait<R>(hook: &Rc<dyn Fn()>, body: impl FnOnce() -> R) -> R {
    BEFORE_WAIT.with(|slot| slot.replace(Some(Rc::clone(hook))));
    let out = body();
    BEFORE_WAIT.with(RefCell::take);
    out
}

/// Call just before blocking on another thread or peer — a lock wait, a
/// callback push or its ack, the disk: runs the armed hook, once.
pub fn before_wait() {
    if let Some(hook) = BEFORE_WAIT.with(RefCell::take) {
        hook();
    }
}

#[cfg(feature = "lock-audit")]
fn note_acquired(rank: LockRank) {
    audit::acquired(rank);
}

#[cfg(not(feature = "lock-audit"))]
fn note_acquired(_rank: LockRank) {}

#[cfg(feature = "lock-audit")]
fn note_released(rank: LockRank) {
    audit::released(rank);
}

#[cfg(not(feature = "lock-audit"))]
fn note_released(_rank: LockRank) {}

fn recover<G>(lock: &'static str, warned: &AtomicBool, err: PoisonError<G>) -> G {
    poison_recoveries().inc();
    if !warned.swap(true, Ordering::Relaxed) {
        eprintln!(
            "displaydb: recovered poisoned lock '{lock}' (a holder panicked mid-update); \
             continuing with the state as the panicking thread left it"
        );
    }
    err.into_inner()
}

/// A ranked mutual-exclusion lock. See the module docs for the
/// hierarchy rule and poison semantics.
pub struct OrderedMutex<T: ?Sized> {
    rank: LockRank,
    warned: AtomicBool,
    inner: sync::Mutex<T>,
}

/// RAII guard for [`OrderedMutex`]. The inner `Option` exists so
/// [`OrderedCondvar`] can temporarily take the underlying std guard
/// during a wait.
pub struct OrderedMutexGuard<'a, T: ?Sized> {
    rank: LockRank,
    guard: Option<sync::MutexGuard<'a, T>>,
}

impl<T> OrderedMutex<T> {
    /// Create a mutex guarding `value` at `rank`.
    pub const fn new(rank: LockRank, value: T) -> Self {
        Self {
            rank,
            warned: AtomicBool::new(false),
            inner: sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the guarded value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> OrderedMutex<T> {
    /// Acquire the lock, enforcing the rank order (under `lock-audit`)
    /// and recovering from poisoning: a panicked previous holder is
    /// logged (once) and counted in [`poison_recoveries`], and the
    /// state is taken as-is rather than wedging every later request.
    pub fn lock_or_recover(&self) -> OrderedMutexGuard<'_, T> {
        note_acquired(self.rank);
        let guard = self
            .inner
            .lock()
            .unwrap_or_else(|e| recover(self.rank.name(), &self.warned, e));
        OrderedMutexGuard {
            rank: self.rank,
            guard: Some(guard),
        }
    }

    /// Alias for [`OrderedMutex::lock_or_recover`], letting the type
    /// drop in where `parking_lot::Mutex` was used.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        self.lock_or_recover()
    }

    /// Acquire the lock if it is free right now.
    pub fn try_lock(&self) -> Option<OrderedMutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => {
                note_acquired(self.rank);
                Some(OrderedMutexGuard {
                    rank: self.rank,
                    guard: Some(guard),
                })
            }
            Err(sync::TryLockError::Poisoned(e)) => {
                note_acquired(self.rank);
                Some(OrderedMutexGuard {
                    rank: self.rank,
                    guard: Some(recover(self.rank.name(), &self.warned, e)),
                })
            }
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        note_released(self.rank);
    }
}

impl<T: ?Sized> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present")
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("OrderedMutex");
        s.field("rank", &self.rank.name());
        match self.inner.try_lock() {
            Ok(g) => s.field("data", &&*g).finish(),
            Err(_) => s.field("data", &"<locked>").finish(),
        }
    }
}

impl<T: Default> Default for OrderedMutex<T> {
    /// A default-valued mutex at rank 0 ("unranked"). Prefer
    /// [`OrderedMutex::new`] with a registry rank; this exists for
    /// derive-friendliness in tests.
    fn default() -> Self {
        Self::new(LockRank::new_multi(0, "unranked"), T::default())
    }
}

/// Result of [`OrderedCondvar::wait_for`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// Whether the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable for [`OrderedMutex`]. During a wait the mutex
/// is released by the OS but the rank stays on the thread's held stack:
/// the waiting region still "owns" the lock logically, and treating it
/// as held keeps the audit conservative.
#[derive(Default)]
pub struct OrderedCondvar {
    inner: StdCondvar,
}

impl OrderedCondvar {
    /// Create a condition variable.
    pub const fn new() -> Self {
        Self {
            inner: StdCondvar::new(),
        }
    }

    /// Atomically release the guard's lock and sleep until notified.
    pub fn wait<T>(&self, guard: &mut OrderedMutexGuard<'_, T>) {
        let g = guard.guard.take().expect("guard present");
        let g = self.inner.wait(g).unwrap_or_else(PoisonError::into_inner);
        guard.guard = Some(g);
    }

    /// Like [`OrderedCondvar::wait`], with a timeout.
    pub fn wait_for<T>(
        &self,
        guard: &mut OrderedMutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let g = guard.guard.take().expect("guard present");
        let (g, res) = self
            .inner
            .wait_timeout(g, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.guard = Some(g);
        WaitTimeoutResult(res.timed_out())
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl std::fmt::Debug for OrderedCondvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedCondvar").finish_non_exhaustive()
    }
}

/// A ranked reader-writer lock; both `read()` and `write()` participate
/// in the hierarchy at the same rank and recover from poisoning.
pub struct OrderedRwLock<T: ?Sized> {
    rank: LockRank,
    warned: AtomicBool,
    inner: sync::RwLock<T>,
}

/// Shared-read guard for [`OrderedRwLock`].
pub struct OrderedReadGuard<'a, T: ?Sized> {
    rank: LockRank,
    guard: sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-write guard for [`OrderedRwLock`].
pub struct OrderedWriteGuard<'a, T: ?Sized> {
    rank: LockRank,
    guard: sync::RwLockWriteGuard<'a, T>,
}

impl<T> OrderedRwLock<T> {
    /// Create a lock guarding `value` at `rank`.
    pub const fn new(rank: LockRank, value: T) -> Self {
        Self {
            rank,
            warned: AtomicBool::new(false),
            inner: sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the guarded value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> OrderedRwLock<T> {
    /// Acquire a shared read guard (rank-checked, poison-recovering).
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        note_acquired(self.rank);
        OrderedReadGuard {
            rank: self.rank,
            guard: self
                .inner
                .read()
                .unwrap_or_else(|e| recover(self.rank.name(), &self.warned, e)),
        }
    }

    /// Acquire an exclusive write guard (rank-checked, poison-recovering).
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        note_acquired(self.rank);
        OrderedWriteGuard {
            rank: self.rank,
            guard: self
                .inner
                .write()
                .unwrap_or_else(|e| recover(self.rank.name(), &self.warned, e)),
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Drop for OrderedReadGuard<'_, T> {
    fn drop(&mut self) {
        note_released(self.rank);
    }
}

impl<T: ?Sized> Drop for OrderedWriteGuard<'_, T> {
    fn drop(&mut self) {
        note_released(self.rank);
    }
}

impl<T: ?Sized> std::ops::Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("rank", &self.rank.name())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const OUTER: LockRank = LockRank::new(10, "test.outer");
    const INNER: LockRank = LockRank::new(20, "test.inner");
    const PAGE: LockRank = LockRank::new_multi(30, "test.page");

    #[test]
    fn registry_is_sorted_and_unique() {
        for pair in ranks::ALL.windows(2) {
            assert!(
                pair[0].rank() < pair[1].rank(),
                "ranks must be strictly ascending: {} vs {}",
                pair[0].name(),
                pair[1].name()
            );
        }
        let mut names: Vec<&str> = ranks::ALL.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ranks::ALL.len(), "duplicate registry name");
    }

    #[test]
    fn mutex_basics() {
        let m = OrderedMutex::new(OUTER, 1);
        *m.lock() += 1;
        assert_eq!(*m.lock_or_recover(), 2);
        assert!(m.try_lock().is_some());
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = OrderedRwLock::new(INNER, vec![1, 2]);
        {
            let r = l.read();
            assert_eq!(r.len(), 2);
        }
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn ordered_nesting_is_allowed() {
        let outer = OrderedMutex::new(OUTER, ());
        let inner = OrderedMutex::new(INNER, ());
        let g1 = outer.lock();
        let g2 = inner.lock();
        drop(g2);
        drop(g1);
    }

    #[test]
    fn multi_rank_allows_same_rank_nesting() {
        let a = OrderedMutex::new(PAGE, ());
        let b = OrderedMutex::new(PAGE, ());
        let g1 = a.lock();
        let g2 = b.lock();
        // Out-of-order drop must unwind the held stack correctly.
        drop(g1);
        drop(g2);
        let _g3 = a.lock();
    }

    #[cfg(feature = "lock-audit")]
    #[test]
    fn audit_panics_on_inverted_acquisition() {
        let outer = Arc::new(OrderedMutex::new(OUTER, ()));
        let inner = Arc::new(OrderedMutex::new(INNER, ()));
        let err = std::thread::spawn(move || {
            let _inner = inner.lock();
            let _outer = outer.lock(); // rank 10 under rank 20: must panic
        })
        .join()
        .expect_err("inverted acquisition must panic under lock-audit");
        let message = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()).unwrap());
        for needle in ["test.outer", "10", "test.inner", "20"] {
            assert!(
                message.contains(needle),
                "panic message must name both locks and ranks, missing {needle:?}: {message}"
            );
        }
    }

    #[cfg(feature = "lock-audit")]
    #[test]
    fn audit_stack_unwinds_on_release() {
        let outer = OrderedMutex::new(OUTER, ());
        let inner = OrderedMutex::new(INNER, ());
        {
            let _g1 = outer.lock();
            let _g2 = inner.lock();
            assert_eq!(held_ranks(), vec![10, 20]);
        }
        assert!(held_ranks().is_empty());
        // After full release, the higher-ranked lock may be taken first.
        let g = inner.lock();
        drop(g);
        let _g = outer.lock();
        assert_eq!(held_ranks(), vec![10]);
    }

    #[test]
    fn poisoned_mutex_recovers_and_counts() {
        let before = poison_recoveries().get();
        let m = Arc::new(OrderedMutex::new(OUTER, 7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock_or_recover(), 7, "state survives recovery");
        assert!(
            poison_recoveries().get() > before,
            "recovery must be counted"
        );
    }

    #[test]
    fn poisoned_rwlock_recovers() {
        let l = Arc::new(OrderedRwLock::new(INNER, 3));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison it");
        })
        .join();
        assert_eq!(*l.read(), 3);
        *l.write() = 4;
        assert_eq!(*l.read(), 4);
    }

    #[test]
    fn condvar_wait_for_timeout_and_notify() {
        let pair = Arc::new((OrderedMutex::new(OUTER, false), OrderedCondvar::new()));
        let res = {
            let mut g = pair.0.lock();
            pair.1.wait_for(&mut g, Duration::from_millis(10))
        };
        assert!(res.timed_out());

        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            *p2.0.lock() = true;
            p2.1.notify_all();
        });
        let mut g = pair.0.lock();
        while !*g {
            let r = pair.1.wait_for(&mut g, Duration::from_secs(2));
            assert!(!r.timed_out(), "missed the notify");
        }
        drop(g);
        t.join().unwrap();
    }
}
