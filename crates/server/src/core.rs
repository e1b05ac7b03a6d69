//! The request processor: transactions, locking, callbacks, display
//! notifications.
//!
//! ## Consistency model
//!
//! The server keeps client caches coherent with an avoidance-style
//! callback protocol:
//!
//! * **Grant-time callbacks** — when a transaction acquires an exclusive
//!   lock (explicitly, or on its write set as its commit begins), every
//!   other client recorded in the copy table is called back and drops its
//!   copy before the grant returns (read-one/write-all).
//! * **Commit-time callbacks** — copies registered *while* the exclusive
//!   lock was held (reads of the pre-commit state are legal under strict
//!   2PL ordering) are invalidated when the update commits. With
//!   [`ServerConfig::sync_callbacks`] (default), the commit does not
//!   acknowledge until these invalidations are acknowledged, giving
//!   cached reads ROWA semantics; async mode trades a bounded staleness
//!   window (one message delay) for commit latency — the same trade-off
//!   the paper's 1–2 s display-propagation measurement lives in.
//! * **Momentary shared locks on reads** — a server-side read briefly
//!   acquires S, so it can never observe a half-applied update.
//!
//! ## The commit path
//!
//! One `Commit` is the transaction: X-lock the write set in OID order,
//! resolve each write under its lock (a patch whose base fingerprint is
//! not the stored object's refuses the commit as `StaleBase`), apply all
//! of it or none. It is answered once it is logged; its fan-out, and then
//! the release of its locks, follow the answer — or precede it, when the
//! answer's send may block (DESIGN.md § 14).
//!
//! ## Display notifications
//!
//! The commit and explicit-lock paths raise events on the embedded
//! [`ShardedDlm`] (integrated deployment): `Marked` on an explicit X-grant
//! (early-notify protocol; the locks a commit takes for the length of
//! its own request mark nothing), `Resolved` + `Updated` on commit/abort. The
//! same server works with an external DLM agent instead — clients then
//! report commits themselves (paper § 4.1) and the embedded DLM simply
//! has no registered holders.

use crate::copies::CopyTable;
use crate::proto::{Request, Response, ResumeRequest, ServerPush, WireLockMode, WriteForm};
use crate::store::{ObjectStore, WriteOp};
use crate::txn::TxnManager;
use displaydb_common::ids::IdGen;
use displaydb_common::metrics::{Counter, Gauge, SegLogStats};
use displaydb_common::sync::{ranks, OrderedMutex};
use displaydb_common::{ClientId, DbError, DbResult, DurableLogConfig, Oid, TxnId};
use displaydb_dlm::{
    AttrChanges, DlmConfig, DlmRequest, DurableRecovery, EventSink, Logged, OutboxSink,
    ShardCursor, ShardedDlm, UpdateInfo,
};
use displaydb_lockmgr::{LockManager, LockManagerConfig, LockMode, Owner};
use displaydb_schema::{Catalog, DbObject};
use displaydb_wire::{fnv1a, Channel, Encode};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Most concurrent *resume* handshakes admitted before further ones are
/// shed with a retryable `Overloaded`: a mass reconnect (a partition
/// heals, the server restarts) is paced instead of landing every session
/// rebuild — display locks replayed, a cursor catch-up served — at once.
/// Fresh (non-resume) connects are never gated.
const RESUME_ADMISSION_MAX: usize = 64;

/// Buffer-pool frames of the object store.
const BUFFER_FRAMES: usize = 256;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Directory for the data file and WAL.
    pub data_dir: PathBuf,
    /// fsync the WAL on every commit.
    pub sync_commits: bool,
    /// Lock manager tuning.
    pub lock: LockManagerConfig,
    /// Display-lock notification protocol (integrated deployment).
    pub dlm: DlmConfig,
    /// How long to wait for one client's callback acknowledgement.
    pub callback_timeout: Duration,
    /// Wait for commit-time callback acks before acknowledging commits.
    pub sync_callbacks: bool,
    /// Spill the DLM update log to stable storage under
    /// `data_dir/dlmlog` so notification cursors survive restarts
    /// (DESIGN.md § 14). Disabled by default: the in-memory log's seqno
    /// space then dies with the process, exactly as before.
    pub durable_log: DurableLogConfig,
}

impl ServerConfig {
    /// A config rooted at `data_dir` with defaults suitable for tests and
    /// examples.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        Self {
            data_dir: data_dir.into(),
            sync_commits: false,
            lock: LockManagerConfig::default(),
            dlm: DlmConfig::default(),
            callback_timeout: Duration::from_secs(2),
            sync_callbacks: true,
            durable_log: DurableLogConfig::default(),
        }
    }
}

/// Server-wide counters.
#[derive(Clone, Debug, Default)]
pub struct ServerStats {
    /// Requests processed.
    pub requests: Counter,
    /// Object reads served.
    pub reads: Counter,
    /// Commits processed.
    pub commits: Counter,
    /// Aborts processed.
    pub aborts: Counter,
    /// Callback pushes sent.
    pub callbacks: Counter,
    /// Messages pushed to clients (all kinds).
    pub pushes: Counter,
    /// Sessions whose resume token was refused — the server restarted —
    /// but whose cursors were admitted, so the update log proved their
    /// copies (DESIGN.md § 14).
    pub sessions_recovered: Counter,
    /// Threads started to read a session's link for a request about to
    /// wait, when no spare was parked: none for requests that never wait.
    pub worker_spawns: Counter,
    /// Threads that gave a session's reading away and have not taken it
    /// back: blocked in their request, or parked as the session's spare.
    pub workers_resident: Gauge,
}

/// One of a session's `max_in_flight` admission slots, taken by
/// [`SessionHandle::try_admit`]. Releasing on drop is what makes the
/// release happen exactly once however the request ends — answered, or
/// unwound by a panic in its handler.
pub struct Admission(Arc<SessionHandle>);

impl Drop for Admission {
    fn drop(&mut self) {
        self.0
            .in_flight
            .fetch_sub(1, std::sync::atomic::Ordering::AcqRel);
    }
}

/// One connected client's push channel and ack bookkeeping.
pub struct SessionHandle {
    /// The client this session serves.
    pub client: ClientId,
    channel: Arc<dyn Channel>,
    acks: OrderedMutex<HashMap<u64, crossbeam::channel::Sender<()>>>,
    ack_gen: IdGen,
    stats: ServerStats,
    /// The bounded outboxes wrapped around this session's DLM sink (one
    /// per DLM shard); kept here so shutdown can drain them before
    /// closing the channel.
    /// Weak because each outbox's inner sink points back at this handle
    /// — the strong references live in the DLM's sink registries. Set
    /// once, by `ServerCore::connect`.
    outboxes: std::sync::OnceLock<Vec<std::sync::Weak<OutboxSink>>>,
    /// Requests currently being processed for this session (admission
    /// control; see `session_loop`).
    in_flight: std::sync::atomic::AtomicUsize,
    /// Copy callbacks pushed minus `PushAck`s received.
    unacked: std::sync::atomic::AtomicI64,
    /// Set when a commit kept one of this client's copies for a delta
    /// instead of calling it back.
    kept: std::sync::atomic::AtomicBool,
    /// The cursors this session's copies are proven through, fixed when
    /// they are dropped (`ServerCore::park`); shared with its token.
    parked: Parked,
}

/// A session's parked cursors: `None` inside when nothing was proven.
type Parked = Arc<std::sync::OnceLock<Option<Vec<ShardCursor>>>>;

impl SessionHandle {
    fn new(client: ClientId, channel: Arc<dyn Channel>, stats: ServerStats) -> Self {
        Self {
            client,
            channel,
            acks: OrderedMutex::new(ranks::SESSION_ACKS, HashMap::new()),
            ack_gen: IdGen::starting_at(1),
            stats,
            outboxes: std::sync::OnceLock::new(),
            in_flight: std::sync::atomic::AtomicUsize::new(0),
            unacked: std::sync::atomic::AtomicI64::new(0),
            kept: std::sync::atomic::AtomicBool::new(false),
            parked: Parked::default(),
        }
    }

    /// Try to admit one more concurrent request; `None` means shed. The
    /// slot is held by the returned [`Admission`] and released when that
    /// is dropped.
    pub fn try_admit(self: &Arc<Self>, max_in_flight: usize) -> Option<Admission> {
        use std::sync::atomic::Ordering;
        self.in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Relaxed, |current| {
                (current < max_in_flight).then_some(current + 1)
            })
            .ok()
            .map(|_| Admission(Arc::clone(self)))
    }

    /// Requests currently in flight for this session.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The live outboxes as strong references (none before `connect`
    /// set them).
    fn outboxes(&self) -> impl Iterator<Item = Arc<OutboxSink>> + '_ {
        self.outboxes
            .get()
            .into_iter()
            .flatten()
            .filter_map(std::sync::Weak::upgrade)
    }

    /// Flush the session's notification outboxes and owed cursor acks,
    /// bounded by `timeout` across all of them together. Returns whether
    /// the client is current (vacuously true with no outboxes).
    pub fn drain_outbox(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut all = true;
        for outbox in self.outboxes() {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            all &= outbox.drain(left);
        }
        all
    }

    /// Send a callback for `oids`. When `wait` is set, returns a waiter
    /// handle to pass to [`SessionHandle::callback_wait`]; callbacks to
    /// many clients are sent first and awaited together, so the total
    /// cost is one round-trip, not one per client.
    pub fn callback_send(
        &self,
        oids: Vec<Oid>,
        wait: bool,
    ) -> DbResult<Option<(u64, crossbeam::channel::Receiver<()>)>> {
        displaydb_common::sync::before_wait(); // a push can block on its link
        let ack = self.ack_gen.next();
        let (tx, rx) = crossbeam::channel::bounded(1);
        if wait {
            self.acks.lock_or_recover().insert(ack, tx);
        }
        self.stats.callbacks.inc();
        self.unacked
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        self.stats.pushes.inc();
        let push = crate::proto::Envelope::Push(ServerPush::Callback { ack, oids });
        match self.channel.send(push.encode_to_bytes()) {
            Ok(()) => Ok(wait.then_some((ack, rx))),
            Err(e) => {
                self.acks.lock_or_recover().remove(&ack);
                Err(e)
            }
        }
    }

    /// Wait for an ack issued by [`SessionHandle::callback_send`].
    pub fn callback_wait(
        &self,
        ack: u64,
        rx: &crossbeam::channel::Receiver<()>,
        deadline: std::time::Instant,
    ) -> DbResult<()> {
        displaydb_common::sync::before_wait();
        let timeout = deadline.saturating_duration_since(std::time::Instant::now());
        let result = rx
            .recv_timeout(timeout)
            .map_err(|_| DbError::Timeout("callback ack".into()));
        self.acks.lock_or_recover().remove(&ack);
        result
    }

    /// Route an incoming ack to its waiter.
    pub fn handle_ack(&self, ack: u64) {
        self.unacked
            .fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
        // Remove under the lock, send outside it: an `if let` scrutinee
        // guard would live for the whole block, holding the ack table
        // across the channel send.
        let waiter = self.acks.lock_or_recover().remove(&ack);
        if let Some(tx) = waiter {
            let _ = tx.send(());
        }
    }

    /// Tear down the underlying channel.
    pub fn close(&self) {
        self.channel.close();
    }
}

struct SessionSink {
    handle: Arc<SessionHandle>,
    /// Shared byte counter so experiments can measure notification
    /// traffic on the wire (counted after coalescing and batching).
    bytes: Counter,
}

impl EventSink for SessionSink {
    fn deliver(&self, event: displaydb_dlm::DlmEvent) -> DbResult<()> {
        self.handle.stats.pushes.inc();
        event.record_stage(displaydb_common::trace::Stage::WireSend);
        let frame = crate::proto::Envelope::Push(ServerPush::Dlm(event)).encode_to_bytes();
        self.bytes.add(frame.len() as u64);
        self.handle.channel.send(frame)
    }
}

/// All connected sessions, and the resume tokens issued to them.
pub struct SessionRegistry {
    sessions: OrderedMutex<Sessions>,
}

#[derive(Default)]
struct Sessions {
    live: HashMap<ClientId, Arc<SessionHandle>>,
    /// Issued resume tokens. Entries survive disconnects (that is the
    /// point); they die with the process.
    tokens: HashMap<u64, ResumeState>,
}

impl Default for SessionRegistry {
    fn default() -> Self {
        Self {
            sessions: OrderedMutex::new(ranks::SERVER_SESSIONS, Sessions::default()),
        }
    }
}

impl SessionRegistry {
    /// Look up a session.
    pub fn get(&self, client: ClientId) -> Option<Arc<SessionHandle>> {
        self.sessions.lock().live.get(&client).cloned()
    }

    fn insert(&self, handle: Arc<SessionHandle>) {
        self.sessions.lock().live.insert(handle.client, handle);
    }

    fn remove(&self, client: ClientId) {
        self.sessions.lock().live.remove(&client);
    }

    /// Number of connected clients.
    pub fn len(&self) -> usize {
        self.sessions.lock().live.len()
    }

    /// Whether no clients are connected.
    pub fn is_empty(&self) -> bool {
        self.sessions.lock().live.is_empty()
    }

    /// Snapshot of every live session (for shutdown and broadcast).
    pub fn all(&self) -> Vec<Arc<SessionHandle>> {
        self.sessions.lock().live.values().cloned().collect()
    }

    /// Whether the registry still maps `handle.client` to exactly this
    /// handle. False once a resumed session has replaced it.
    fn is_current(&self, handle: &Arc<SessionHandle>) -> bool {
        self.sessions
            .lock()
            .live
            .get(&handle.client)
            .is_some_and(|h| Arc::ptr_eq(h, handle))
    }
}

/// Server-side record behind a resume token.
struct ResumeState {
    client: ClientId,
    epoch: u64,
    parked: Parked,
}

/// The server brain, shared by all session threads.
pub struct ServerCore {
    catalog: Arc<Catalog>,
    store: ObjectStore,
    locks: LockManager,
    txns: TxnManager,
    copies: CopyTable,
    dlm: Arc<ShardedDlm>,
    sessions: SessionRegistry,
    client_gen: IdGen,
    config: ServerConfig,
    stats: ServerStats,
    catalog_bytes: Vec<u8>,
    /// Changes on every server start; lets reconnecting clients detect a
    /// restart (their resume token is from a previous incarnation).
    incarnation: u64,
    /// Handshakes past their copy registration, counted so a commit can
    /// tell one raced its callbacks (see `connect`).
    resumes: std::sync::atomic::AtomicU64,
    /// What the durable DLM update logs recovered at startup, one entry
    /// per shard (empty when [`ServerConfig::durable_log`] is disabled).
    dlm_recovery: Vec<DurableRecovery>,
    /// Segment-log counters for the durable spill (unused-but-present
    /// zeros when the spill is disabled).
    seglog_stats: SegLogStats,
    token_gen: IdGen,
    /// Resume handshakes currently being processed (reconnect-storm
    /// admission gate; see `session_loop`).
    resumes_in_flight: std::sync::atomic::AtomicUsize,
}

impl ServerCore {
    /// Open the store and build the core.
    pub fn open(catalog: Arc<Catalog>, config: ServerConfig) -> DbResult<Arc<Self>> {
        let store = ObjectStore::open(
            &config.data_dir,
            Arc::clone(&catalog),
            BUFFER_FRAMES,
            config.sync_commits,
        )?;
        let catalog_bytes = catalog.encode_to_bytes().to_vec();
        let incarnation = displaydb_common::ids::mint_incarnation();
        // With a durable update log, recover the replay window from
        // `data_dir/dlmlog`, cross-checked against the commit stream the
        // main WAL held at open: a durable notification stream that stops
        // short of a committed txn is missing updates for good and must
        // not serve replays (DESIGN.md § 14).
        let seglog_stats = SegLogStats::new();
        let (dlm, dlm_recovery) = if config.durable_log.is_enabled() {
            let (sharded, recs) = ShardedDlm::new_durable(
                config.dlm,
                config.data_dir.join("dlmlog"),
                config.durable_log,
                seglog_stats.clone(),
                incarnation,
                store.recovered_last_txn(),
            )?;
            (Arc::new(sharded), recs)
        } else {
            (Arc::new(ShardedDlm::new(config.dlm)), Vec::new())
        };
        let txns = TxnManager::new();
        if let Some(max_txn) = dlm_recovery.iter().map(|rec| rec.last_txn).max() {
            // Transaction ids must stay monotone across incarnations:
            // the cross-check above compares txn ids issued by different
            // processes against the durable logs.
            txns.bump_past(max_txn.max(store.recovered_last_txn()));
        }
        Ok(Arc::new(Self {
            store,
            locks: LockManager::new(config.lock),
            txns,
            copies: CopyTable::new(),
            dlm,
            sessions: SessionRegistry::default(),
            client_gen: IdGen::starting_at(1),
            config,
            stats: ServerStats::default(),
            catalog_bytes,
            catalog,
            incarnation,
            dlm_recovery,
            seglog_stats,
            resumes: std::sync::atomic::AtomicU64::new(0),
            token_gen: IdGen::starting_at(1),
            resumes_in_flight: std::sync::atomic::AtomicUsize::new(0),
        }))
    }

    /// The schema catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The object store.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// The embedded (sharded) DLM (integrated deployment).
    pub fn dlm(&self) -> &Arc<ShardedDlm> {
        &self.dlm
    }

    /// The lock manager.
    pub fn locks(&self) -> &LockManager {
        &self.locks
    }

    /// Transactions alive between requests (started by an explicit lock).
    pub fn active_txns(&self) -> usize {
        self.txns.active_count()
    }

    /// Server counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The active configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Connected sessions.
    pub fn sessions(&self) -> &SessionRegistry {
        &self.sessions
    }

    /// The nonce identifying this server process start.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Every shard's update-log incarnation, index = shard
    /// ([`ShardedDlm::incarnations`]): the seqno space that shard's
    /// notification cursors live in. Unlike [`Self::incarnation`], a
    /// durable log's survives restarts (DESIGN.md § 14).
    pub fn log_incarnations(&self) -> Vec<u64> {
        self.dlm.incarnations().to_vec()
    }

    /// What the durable update logs recovered at startup, one entry per
    /// shard (empty when the durable spill is disabled).
    pub fn dlm_recoveries(&self) -> &[DurableRecovery] {
        &self.dlm_recovery
    }

    /// Segment-log counters for the durable update-log spill.
    pub fn seglog_stats(&self) -> &SegLogStats {
        &self.seglog_stats
    }

    /// Try to admit one more concurrent *resume* handshake. After a mass
    /// disconnect (server restart, network partition heal) every client
    /// reconnects at once; bounding how many session rebuilds run
    /// concurrently keeps the storm from starving live traffic. A shed
    /// client receives a retryable `Overloaded` and backs off with
    /// jitter. Balance with [`ServerCore::finish_resume`].
    pub fn try_admit_resume(&self) -> bool {
        use std::sync::atomic::Ordering;
        let mut current = self.resumes_in_flight.load(Ordering::Relaxed);
        loop {
            if current >= RESUME_ADMISSION_MAX {
                return false;
            }
            match self.resumes_in_flight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(observed) => current = observed,
            }
        }
    }

    /// Release one slot taken by [`ServerCore::try_admit_resume`].
    pub fn finish_resume(&self) {
        self.resumes_in_flight
            .fetch_sub(1, std::sync::atomic::Ordering::AcqRel);
    }

    /// Register a new connection; returns its session handle and the
    /// handshake response.
    ///
    /// With `resume`, the previous session is rebuilt: the old client id is
    /// reused and its in-flight transactions (which can never complete)
    /// are aborted. Either way the copy table is re-seeded from the
    /// client's cached-OID manifest, and every entry whose currency the
    /// update log cannot prove comes back in `HelloAck::stale` so the
    /// client invalidates it before serving it again.
    pub fn connect(
        &self,
        _name: &str,
        resume: Option<&ResumeRequest>,
        channel: Arc<dyn Channel>,
    ) -> (Arc<SessionHandle>, Response) {
        // A resume only finds its token within the issuing incarnation; the
        // token table dies with the process.
        let prior = resume.and_then(|r| {
            let mut sessions = self.sessions.sessions.lock();
            sessions
                .tokens
                .remove(&r.token)
                .filter(|_| r.incarnation == self.incarnation)
        });
        let resumed = prior.is_some();
        let (client, epoch) = match &prior {
            Some(state) => (state.client, state.epoch + 1),
            None => (ClientId::new(self.client_gen.next()), 0),
        };
        if resumed {
            // The old connection's transactions can never commit; abort
            // them so their locks stop blocking everyone else. Display
            // locks and copies are rebuilt below / by the DLC replay.
            for txn in self.txns.client_txns(client) {
                let _ = self.abort_txn(client, txn);
            }
            self.locks.release_all(Owner::Client(client));
            if let Some(old) = self.sessions.get(client) {
                self.park(&old);
            }
            self.copies.drop_client(client);
        }
        let parked = prior.and_then(|state| state.parked.get().cloned().flatten());
        // In the registry first: a callback for a copy registered below
        // must reach this connection, not the dead one.
        let handle = Arc::new(SessionHandle::new(client, channel, self.stats.clone()));
        self.sessions.insert(Arc::clone(&handle));
        let (manifest, cursors) =
            resume.map_or((&[][..], &[][..]), |r| (&r.manifest[..], &r.cursors[..]));
        // Register every copy before reading the log. A commit whose
        // callbacks ran before the registration appends after it, and
        // either the read below sees that append, or the commit sees
        // `resumes` move and calls the copy back (`commit_logged`).
        if !manifest.is_empty() {
            self.copies.register_many(client, manifest);
            self.resumes
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
        // Cursor admission (DESIGN.md § 14), once per shard (the last
        // cursor naming a shard counts; the list is wire input).
        let admit = |cursors: &[ShardCursor]| -> Vec<Option<HashSet<Oid>>> {
            let mut per_shard: Vec<Option<&ShardCursor>> = vec![None; self.dlm.shards()];
            for sc in cursors {
                if let Some(slot) = per_shard.get_mut(sc.shard as usize) {
                    *slot = Some(sc);
                }
            }
            per_shard
                .into_iter()
                .map(|sc| self.dlm.admit(sc?))
                .collect()
        };
        let admitted = admit(cursors);
        // The old session's parked cursors, where `park` proved them,
        // are at least as late as the client's own.
        let proven = parked.as_deref().map(admit);
        let changed = proven.as_ref().unwrap_or(&admitted);
        // A copy is current iff it exists and its shard's admitted
        // window does not name it.
        let map = self.dlm.map();
        let mut stale = Vec::new();
        for &oid in manifest {
            let current = self.store.exists(oid)
                && changed[map.shard_of(oid) as usize]
                    .as_ref()
                    .is_some_and(|changed| !changed.contains(&oid));
            if !current {
                self.copies.drop_copy(client, oid);
                stale.push(oid);
            }
        }
        // An admitted shard replays; the rest answer the replay with a
        // `ResyncRequired` over their slice of the watched set. With no
        // admitted shard the client resyncs its stale set.
        let replay_ok = admitted.iter().any(Option::is_some);
        if replay_ok && !resumed {
            self.stats.sessions_recovered.inc();
        }
        let token = self.token_gen.next();
        self.sessions.sessions.lock().tokens.insert(
            token,
            ResumeState {
                client,
                epoch,
                parked: Arc::clone(&handle.parked),
            },
        );
        // One bounded outbox per DLM shard around the session sink
        // (`ShardedDlm::register_session`): commit-path fan-out only
        // enqueues, and a stalled client connection is absorbed by the
        // outbox writer threads instead of blocking `commit_logged`.
        let outboxes = self.dlm.register_session(
            client,
            Arc::new(SessionSink {
                handle: Arc::clone(&handle),
                bytes: self.dlm.stats().overload.notify_bytes.clone(),
            }),
        );
        let _ = handle
            .outboxes
            .set(outboxes.iter().map(Arc::downgrade).collect());
        (
            Arc::clone(&handle),
            Response::HelloAck {
                client,
                catalog: self.catalog_bytes.clone(),
                session: token,
                incarnation: self.incarnation,
                epoch,
                resumed,
                stale,
                replay_ok,
                log_incarnations: self.log_incarnations(),
            },
        )
    }

    /// Tear down a client's state after its connection drops.
    pub fn disconnect(&self, client: ClientId) {
        for txn in self.txns.client_txns(client) {
            let _ = self.abort_txn(client, txn);
        }
        self.dlm.unregister_client(client);
        let handle = self.sessions.get(client);
        if let Some(handle) = &handle {
            self.park(handle);
        }
        self.copies.drop_client(client);
        self.locks.release_all(Owner::Client(client));
        if let Some(handle) = handle {
            handle.close();
        }
        self.sessions.remove(client);
    }

    /// Fix the cursors `handle`'s copies are proven through, once, just
    /// before the copy table forgets them: every shard's head, if the
    /// client had applied every callback pushed to it and no commit kept
    /// a copy of its for a delta. A commit logged by then ran its
    /// callbacks before its append, so they were all applied; one logged
    /// later is past the heads. Unlike the client's cursors, these move
    /// without notifications (DESIGN.md § 14).
    fn park(&self, handle: &SessionHandle) {
        use std::sync::atomic::Ordering::SeqCst;
        handle.parked.get_or_init(|| {
            let heads = self.dlm.heads();
            let settled = handle.unacked.load(SeqCst) == 0 && !handle.kept.load(SeqCst);
            settled.then_some(heads)
        });
    }

    /// Tear down `handle`'s client state, but only if `handle` is still the
    /// registry's current session for that client. When a dropped connection
    /// has already been replaced by a resumed one, the stale session thread
    /// must not wipe the rebuilt state; it just closes its own channel.
    pub fn disconnect_session(&self, handle: &Arc<SessionHandle>) {
        if self.sessions.is_current(handle) {
            self.disconnect(handle.client);
        } else {
            handle.close();
        }
    }

    /// Run one of `session`'s requests and call `answer` once with its
    /// response. A commit answers once it is logged, and fans out and
    /// releases its locks after — unless its link is congested, when it
    /// answers last (DESIGN.md § 14); every other request answers last.
    pub fn handle(&self, session: &SessionHandle, request: Request, answer: impl FnOnce(Response)) {
        self.stats.requests.inc();
        let client = session.client;
        let result = match request {
            Request::Hello { .. } => Err(DbError::Protocol("duplicate hello".into())),
            Request::Read { txn, oid } => self.read(client, txn, oid),
            Request::ReadMany { txn, oids } => self.read_many(client, txn, &oids),
            Request::Lock { txn, oid, mode } => self.lock(client, txn, oid, mode),
            Request::Create => Ok(Response::Created {
                oid: self.store.allocate_oid(),
            }),
            Request::Commit { txn, writes, trace } => {
                return match self.commit_logged(client, txn, &writes, trace) {
                    Ok((ending, logged)) => {
                        // A send that may block waits until last: a slow
                        // committer's answer holds up neither the viewers
                        // of its commit nor the next writer's locks.
                        let answer = if session.channel.congested() {
                            Some(answer)
                        } else {
                            answer(Response::Ok);
                            None
                        };
                        self.dlm.fan_out(logged);
                        // The X locks go after the fan-out: a later commit
                        // of these objects is logged and delivered after
                        // this one.
                        drop(ending);
                        if let Some(answer) = answer {
                            answer(Response::Ok);
                        }
                    }
                    Err(e) => answer(Response::from_error(&e)),
                };
            }
            Request::Abort { txn } => self.abort_txn(client, txn),
            Request::Extent {
                class,
                include_subclasses,
            } => Ok(Response::Oids {
                oids: self.store.extent(class, include_subclasses),
            }),
            // Notifications are raised by this server's own commit and
            // X-grant paths, under the committing client's identity; a
            // report arriving over the wire would be a forged one. There
            // is no DLM handshake on this link either.
            Request::Dlm(
                DlmRequest::Hello { .. }
                | DlmRequest::UpdateCommitted { .. }
                | DlmRequest::WriteIntent { .. }
                | DlmRequest::Resolution { .. },
            ) => Err(DbError::Protocol(
                "not a request an integrated client may send".into(),
            )),
            Request::Dlm(request) => {
                // A copy kept for a delta lives only as long as the
                // projection that kept it: a commit past its callbacks
                // would send it no `Delta`, or an `Updated` that re-reads
                // it. The callback is pushed, not awaited (DESIGN.md § 9).
                let mut ended: Vec<Oid> = match &request {
                    DlmRequest::Release { oids } | DlmRequest::Lock { oids } => oids
                        .iter()
                        .copied()
                        .filter(|&oid| self.dlm.has_interest(client, oid))
                        .collect(),
                    _ => Vec::new(),
                };
                self.dlm.handle_request(client, request);
                ended.retain(|&oid| self.copies.has_copy(client, oid));
                for &oid in &ended {
                    self.copies.drop_copy(client, oid);
                }
                if !ended.is_empty() {
                    let _ = session.callback_send(ended, false);
                }
                Ok(Response::Ok)
            }
            Request::Checkpoint => {
                displaydb_common::sync::before_wait();
                self.store.checkpoint().map(|()| Response::Ok)
            }
            Request::Ping => Ok(Response::Ok),
        };
        answer(result.unwrap_or_else(|e| Response::from_error(&e)));
    }

    fn read_one(
        &self,
        client: ClientId,
        txn: Option<TxnId>,
        oid: Oid,
    ) -> DbResult<Option<Vec<u8>>> {
        self.stats.reads.inc();
        // Momentary shared lock: never observe a half-applied update, and
        // queue behind in-flight exclusive holders — other than the
        // reader's own transaction.
        let owner = match txn {
            Some(txn) => self.txns.with_txn(txn, client, |_| Owner::Txn(txn))?,
            None => Owner::Client(client),
        };
        let reentrant = self.locks.held_mode(owner, oid).is_some();
        if !reentrant {
            self.locks.acquire(owner, oid, LockMode::Shared)?;
        }
        let result = match self.store.get_bytes(oid) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(DbError::ObjectNotFound(_)) => Ok(None),
            Err(e) => Err(e),
        };
        if !reentrant {
            self.locks.release(owner, oid);
        }
        if result.as_ref().is_ok_and(|r| r.is_some()) {
            self.copies.register(client, oid);
        }
        result
    }

    fn read(&self, client: ClientId, txn: Option<TxnId>, oid: Oid) -> DbResult<Response> {
        match self.read_one(client, txn, oid)? {
            Some(bytes) => Ok(Response::Object { bytes }),
            None => Err(DbError::ObjectNotFound(oid)),
        }
    }

    fn read_many(&self, client: ClientId, txn: Option<TxnId>, oids: &[Oid]) -> DbResult<Response> {
        let mut objects = Vec::with_capacity(oids.len());
        for &oid in oids {
            objects.push(self.read_one(client, txn, oid)?);
        }
        Ok(Response::Objects { objects })
    }

    /// Acquire an exclusive lock with grant-time callbacks. Idempotent
    /// per (txn, oid); returns whether this call was the grant.
    fn acquire_exclusive(&self, client: ClientId, txn: TxnId, oid: Oid) -> DbResult<bool> {
        let owner = Owner::Txn(txn);
        if self.locks.held_mode(owner, oid) == Some(LockMode::Exclusive) {
            return Ok(false);
        }
        self.locks.acquire(owner, oid, LockMode::Exclusive)?;
        // Grant-time callbacks: invalidate other clients' cached copies.
        // Projected display-lock holders are deferred to commit time: if
        // the commit turns out to touch only attributes their projection
        // covers, the delta notification patches their copy in place and
        // no callback is needed at all (and an abort leaves their copy
        // valid anyway).
        self.invalidate_copies_filtered(
            client,
            &[oid],
            self.config.sync_callbacks,
            &|holder, oid| self.dlm.has_interest(holder, oid),
        );
        Ok(true)
    }

    /// Send callbacks for `oids` to every caching client except `except`.
    /// All callbacks go out first and are awaited together: invalidating
    /// N clients costs one round-trip, not N. Holders for which `keep`
    /// returns true are skipped: their copy stays registered and no
    /// callback is sent (the caller has arranged another way to keep it
    /// consistent — a commit-time delta, or a deferred commit-time
    /// decision).
    fn invalidate_copies_filtered(
        &self,
        except: ClientId,
        oids: &[Oid],
        wait: bool,
        keep: &dyn Fn(ClientId, Oid) -> bool,
    ) {
        // Group per client to batch into one push each.
        let mut per_client: HashMap<ClientId, Vec<Oid>> = HashMap::new();
        for &oid in oids {
            for holder in self.copies.holders_except(oid, except) {
                if keep(holder, oid) {
                    // Only the client's own cursor can prove it applied
                    // the delta (`park`).
                    if let Some(session) = self.sessions.get(holder) {
                        session
                            .kept
                            .store(true, std::sync::atomic::Ordering::SeqCst);
                    }
                    continue;
                }
                per_client.entry(holder).or_default().push(oid);
            }
        }
        let mut pending = Vec::new();
        for (holder, oids) in per_client {
            for &oid in &oids {
                self.copies.drop_copy(holder, oid);
            }
            if let Some(session) = self.sessions.get(holder) {
                if let Ok(Some(waiter)) = session.callback_send(oids, wait) {
                    pending.push((session, waiter));
                }
            }
        }
        let deadline = std::time::Instant::now() + self.config.callback_timeout;
        for (session, (ack, rx)) in pending {
            let _ = session.callback_wait(ack, &rx, deadline);
        }
    }

    /// An explicit lock, held from now to the transaction's commit or
    /// abort; the only way a transaction comes to exist between requests.
    fn lock(
        &self,
        client: ClientId,
        txn: Option<TxnId>,
        oid: Oid,
        mode: WireLockMode,
    ) -> DbResult<Response> {
        if !self.store.exists(oid) {
            return Err(DbError::ObjectNotFound(oid));
        }
        let started = txn.is_none();
        let txn = match txn {
            Some(txn) => self.txns.with_txn(txn, client, |_| txn)?,
            None => self.txns.begin(client),
        };
        let granted = match mode {
            WireLockMode::Update => self.locks.acquire(Owner::Txn(txn), oid, LockMode::Update),
            WireLockMode::Exclusive => self.acquire_exclusive(client, txn, oid).and_then(|new| {
                if new {
                    self.txns.record_x_lock(txn, client, oid)?;
                    // Early-notify protocol: mark the object at display
                    // holders until the transaction resolves.
                    self.dlm.notify_intent(Some(client), &[oid], txn);
                }
                Ok(())
            }),
        };
        if granted.is_err() && started {
            // The client never learns the id of a transaction whose
            // first lock failed, so nobody else could end it.
            let _ = self.abort_txn(client, txn);
        }
        granted.map(|()| Response::TxnStarted { txn })
    }

    /// One write of a commit, resolved under its X lock into what the
    /// store applies: a patch must name the stored state by fingerprint
    /// and then goes on as a put. With `diff`, a put that replaces a
    /// stored object also returns the attributes it changed.
    fn resolve(
        &self,
        oid: Oid,
        form: &WriteForm,
        diff: bool,
    ) -> DbResult<(WriteOp, Option<AttrChanges>)> {
        use displaydb_wire::Decode;
        let (obj, pre_image) = match form {
            WriteForm::Put(bytes) => {
                let obj = DbObject::decode_from_bytes(bytes)?;
                // An OID the allocator never issued would collide
                // with a later creation.
                if obj.oid != oid || !self.store.issued(oid) {
                    return Err(DbError::InvalidArgument(format!(
                        "write of {} under {oid}, which is not its oid or not one this server issued",
                        obj.oid
                    )));
                }
                let pre_image = if diff { self.store.get(oid).ok() } else { None };
                (obj, pre_image)
            }
            WriteForm::Patch { base, changed } => {
                let bytes = self.store.get_bytes(oid)?;
                if fnv1a(&bytes) != *base {
                    return Err(DbError::StaleBase { oid });
                }
                let mut obj = DbObject::decode_from_bytes(&bytes)?;
                let pre_image = diff.then(|| obj.clone());
                obj.apply_changes(changed)?;
                (obj, pre_image)
            }
            WriteForm::Delete if self.store.exists(oid) => return Ok((WriteOp::Delete(oid), None)),
            WriteForm::Delete => return Err(DbError::ObjectNotFound(oid)),
        };
        let changes = pre_image.map(|old| obj.changes_since(&old));
        Ok((WriteOp::Put(obj), changes))
    }

    /// The one commit entry point, up to its answer: X-lock the write set,
    /// resolve and apply it — all of it or none — register the
    /// committer's copies, call back, mark resolved, log. Returns the transaction, its X locks still held,
    /// and the batch to fan out.
    fn commit_logged(
        &self,
        client: ClientId,
        txn: Option<TxnId>,
        writes: &[(Oid, WriteForm)],
        trace: displaydb_common::TraceId,
    ) -> DbResult<(Ending<'_>, Logged)> {
        let mut ending = self.end_txn(client, txn)?;
        let txn = ending.txn;
        // Ascending OID order, so that two commits over the same objects
        // queue behind each other instead of deadlocking.
        let mut oids: Vec<Oid> = writes.iter().map(|(oid, _)| *oid).collect();
        oids.sort_unstable();
        if oids.windows(2).any(|pair| pair[0] == pair[1]) {
            return Err(DbError::InvalidArgument(
                "write set names an object twice".into(),
            ));
        }
        for &oid in &oids {
            self.acquire_exclusive(client, txn, oid)?;
        }
        // Attribute-level diffs against the pre-commit images, so the DLM
        // can narrow notifications to registered display projections.
        // Skipped when no client registered one.
        let diff = self.dlm.has_projected_interest();
        let mut ops = Vec::with_capacity(writes.len());
        let mut diffs: HashMap<Oid, AttrChanges> = HashMap::new();
        for (oid, form) in writes {
            let (op, changes) = self.resolve(*oid, form, diff)?;
            if let Some(changes) = changes {
                diffs.insert(*oid, changes);
            }
            ops.push(op);
        }
        let outcomes = if ops.is_empty() {
            Vec::new()
        } else {
            // Failed commit = abort.
            self.store.commit(txn, &ops)?
        };
        // The committer caches what it wrote, so that copy is registered
        // like a read's (CB-R): the next writer's callbacks reach it.
        for (oid, payload) in &outcomes {
            match payload {
                Some(_) => self.copies.register(client, *oid),
                None => self.copies.drop_copy(client, *oid),
            }
        }
        self.stats.commits.inc();
        displaydb_common::trace::record(trace, displaydb_common::trace::Stage::Commit);
        ending.committed = true;
        let resumes = self.resumes.load(std::sync::atomic::Ordering::SeqCst);
        // Commit-time callbacks: copies registered during the update
        // window are now stale — except at holders whose projection
        // covers every changed attribute. Those receive a delta that
        // carries the complete change set, so their copy is patched in
        // place instead of dropped (the paper's one-message refresh,
        // extended to attribute granularity).
        let oids: Vec<Oid> = outcomes.iter().map(|(oid, _)| *oid).collect();
        self.invalidate_copies_filtered(
            client,
            &oids,
            self.config.sync_callbacks,
            &|holder, oid| {
                diffs.get(&oid).is_some_and(|diff| {
                    let changed: Vec<u16> = diff.iter().map(|(attr, _)| *attr).collect();
                    self.dlm.interest_covers(holder, oid, &changed)
                })
            },
        );
        // Post-commit notify protocol (+ optional eager payloads).
        // Updates with a diff additionally carry the attribute-level
        // changes, so the DLM can narrow them to each holder's
        // registered projection.
        let updates: Vec<UpdateInfo> = outcomes
            .into_iter()
            .map(|(oid, payload)| match payload {
                Some(bytes) => {
                    let info = UpdateInfo::eager(oid, bytes).with_trace(trace);
                    match diffs.remove(&oid) {
                        Some(diff) => info.with_changes(diff),
                        None => info,
                    }
                }
                None => UpdateInfo::deletion(oid).with_trace(trace),
            })
            .collect();
        self.dlm
            .notify_resolution(Some(client), &ending.x_locked, txn, true);
        // Stamp the committing txn into the (possibly durable) update
        // log. On a spill failure the DLM already surrendered its replay
        // window (see `DlmCore::log_committed`); the commit itself
        // stands — it is durable in the main WAL — so the client still
        // gets its ack.
        let (logged, _) = self.dlm.log_committed(Some(client), &updates, txn.raw());
        if self.resumes.load(std::sync::atomic::Ordering::SeqCst) != resumes {
            // A resume re-registered copies after the callbacks above
            // and may have read the log before this append: the copy it
            // proved current is not. Call it back.
            self.invalidate_copies_filtered(client, &oids, self.config.sync_callbacks, &|_, _| {
                false
            });
        }
        Ok((ending, logged))
    }

    /// Take the transaction out of the table to end it; a commit that
    /// names none gets a fresh id that never enters the table.
    fn end_txn(&self, client: ClientId, txn: Option<TxnId>) -> DbResult<Ending<'_>> {
        let (txn, x_locked) = match txn {
            Some(txn) => (txn, self.txns.finish(txn, client)?.x_locked),
            None => (self.txns.mint(), Vec::new()),
        };
        Ok(Ending {
            core: self,
            client,
            txn,
            x_locked,
            committed: false,
        })
    }

    fn abort_txn(&self, client: ClientId, txn: TxnId) -> DbResult<Response> {
        // Nothing of an unfinished transaction ever reaches the store.
        let _ending = self.end_txn(client, Some(txn))?;
        self.stats.aborts.inc();
        Ok(Response::Ok)
    }
}

/// A transaction on its way out: no longer in the table, its locks still
/// held until it is dropped. Dropping it before `committed` is set is
/// also the abort — display holders hear that its write intents came to
/// nothing — so a commit that is refused, times out in a lock wait,
/// loses a deadlock, fails in the store or unwinds leaves nothing behind.
/// A transaction that lives inside one `Commit` has no other cleanup: it
/// is in no table a disconnect could sweep.
struct Ending<'a> {
    core: &'a ServerCore,
    client: ClientId,
    txn: TxnId,
    /// The early-notify resolution set (explicit exclusive locks).
    x_locked: Vec<Oid>,
    committed: bool,
}

impl Drop for Ending<'_> {
    fn drop(&mut self) {
        self.core.locks.release_all(Owner::Txn(self.txn));
        if !self.committed {
            self.core
                .dlm
                .notify_resolution(Some(self.client), &self.x_locked, self.txn, false);
        }
    }
}

impl std::fmt::Debug for ServerCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerCore")
            .field("objects", &self.store.object_count())
            .field("sessions", &self.sessions.len())
            .finish()
    }
}
