//! The top-level client handle.

use crate::cache::ClientCache;
use crate::conn::{ConnStats, Connection, PushSink};
use crate::dlc::{Dlc, DlmBackend};
use crate::supervisor::{self, ChannelFactory, Target};
use crate::txn::ClientTxn;
use displaydb_common::backoff::ReconnectPolicy;
use displaydb_common::sync::{ranks, OrderedMutex};
use displaydb_common::{ClientId, DbError, DbResult, Oid, TxnId};
use displaydb_dlm::{DlmAgentConnection, DlmEvent, DlmRequest};
use displaydb_schema::{Catalog, DbObject};
use displaydb_server::proto::{Request, Response, ResumeRequest};
use displaydb_wire::{Channel, Decode};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Client configuration.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Name reported to the server (diagnostics).
    pub name: String,
    /// Byte budget for the client database cache.
    pub cache_bytes: usize,
    /// RPC timeout.
    pub call_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            name: "displaydb-client".into(),
            cache_bytes: 16 * 1024 * 1024,
            call_timeout: Duration::from_secs(30),
        }
    }
}

impl ClientConfig {
    /// Config with a given name and defaults otherwise.
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }
}

/// The client's server session identity, as granted at the last
/// handshake. The `token`/`incarnation` pair is what a reconnect
/// presents to resume the session; `epoch` counts how many times this
/// session has been resumed.
#[derive(Clone, Debug)]
pub struct SessionInfo {
    /// Server-assigned client id (changes if a resume is refused).
    pub id: ClientId,
    /// One-shot resume token for the *next* reconnect.
    pub token: u64,
    /// Server incarnation that issued the token; a restarted server
    /// refuses tokens from a previous incarnation.
    pub incarnation: u64,
    /// How many times this session has been resumed (0 = fresh).
    pub epoch: u64,
    /// Per-shard update-log incarnations (index = shard, never 0). They
    /// travel with the per-shard notification cursors on resume: a
    /// shard's cursor is only admitted while the log incarnation it was
    /// acked under lives (DESIGN.md §§ 14, 16).
    pub log_incarnations: Vec<u64>,
}

/// The swappable slot holding a link's current generation: the server
/// [`Connection`], or the agent connection (`None` until it is up).
/// Everything that uses the link goes through the slot, so a supervisor
/// reconnect atomically redirects all traffic to the new channel.
pub(crate) struct Slot<V>(OrderedMutex<V>);

impl<V: Clone> Slot<V> {
    fn new(value: V) -> Self {
        Self(OrderedMutex::new(ranks::CLIENT_SLOT, value))
    }

    pub(crate) fn get(&self) -> V {
        self.0.lock().clone()
    }

    pub(crate) fn set(&self, value: V) {
        *self.0.lock() = value;
    }
}

/// The server link's slot; in the integrated deployment also the DLC's
/// backend.
type ConnCell = Slot<Arc<Connection>>;

/// Agent deployment: the DLC's backend, so a supervisor can swap in a
/// reconnected agent channel behind the DLC's immutable backend handle.
type AgentCell = Slot<Option<Arc<DlmAgentConnection>>>;

/// Integrated deployment: display-lock traffic rides the main server
/// connection as `Request::Dlm`, an RPC, so a returned `send` means the
/// server's DLM has applied the request. `ReplayFrom` alone is posted:
/// the reader thread sends it (`Dlc::dispatch`) and nothing waits on it.
struct IntegratedBackend {
    conn: Arc<ConnCell>,
}

impl DlmBackend for IntegratedBackend {
    fn send(&self, request: DlmRequest) -> DbResult<()> {
        let conn = self.conn.get();
        match request {
            DlmRequest::ReplayFrom { .. } => conn.post(&Request::Dlm(request)),
            _ => conn.call(Request::Dlm(request)).map(|_| ()),
        }
    }
}

impl DlmBackend for AgentCell {
    fn send(&self, request: DlmRequest) -> DbResult<()> {
        self.get().ok_or(DbError::Disconnected)?.send(request)
    }
}

struct Sink {
    cache: Arc<ClientCache>,
    dlc: Arc<Dlc>,
}

impl PushSink for Sink {
    fn on_invalidate(&self, oids: &[Oid]) {
        self.cache.invalidate(oids);
    }
    fn on_dlm(&self, event: DlmEvent) {
        self.dlc.dispatch(event);
    }
}

/// Wire the DLC's attribute-delta hook to the client cache: a delta
/// patches the cached copy in place. An object that is simply not cached
/// (evicted, or invalidated by a consistency callback that raced the
/// delta) needs no patch — the next read fetches fresh state — so only a
/// failed patch of a *present* copy reports `false`, making the DLC fall
/// back to a forced re-read.
fn set_delta_hook(dlc: &Arc<Dlc>, cache: &Arc<ClientCache>) {
    let cache = Arc::clone(cache);
    dlc.set_delta_hook(move |oid, changed| cache.apply_delta(oid, changed) || !cache.contains(oid));
}

/// Connect to the DLM agent over `channel`. Its events reach the DLC
/// through a weak handle, so the agent connection does not keep the DLC
/// (and thus the client) alive.
fn dial_agent(
    dlc: &Arc<Dlc>,
    channel: Box<dyn Channel>,
    client: ClientId,
) -> DbResult<DlmAgentConnection> {
    let dlc = Arc::downgrade(dlc);
    DlmAgentConnection::connect(channel, client, move |event| {
        if let Some(dlc) = dlc.upgrade() {
            dlc.dispatch(event);
        }
    })
}

struct HandshakeOutcome {
    catalog: Catalog,
    session: SessionInfo,
    resumed: bool,
    stale: Vec<Oid>,
    replay_ok: bool,
}

/// A connected database client: RPCs, database cache, transactions, and
/// the display lock client.
pub struct DbClient {
    conn: Arc<ConnCell>,
    /// One stats object shared by every connection generation, so the
    /// experiment report sees the whole history across reconnects.
    conn_stats: ConnStats,
    cache: Arc<ClientCache>,
    catalog: Arc<Catalog>,
    session: OrderedMutex<SessionInfo>,
    dlc: Arc<Dlc>,
    /// Agent deployment only: the swappable agent connection slot the
    /// DLC's backend points at.
    agent: Option<Arc<AgentCell>>,
    /// The push sink installed in each connection generation before its
    /// handshake.
    sink: Arc<dyn PushSink>,
    config: ClientConfig,
    /// Set by [`DbClient::close`]; tells the supervisor a subsequent
    /// connection death is deliberate, not an outage.
    closed: AtomicBool,
}

impl DbClient {
    /// Connect in the **integrated** deployment (display locks handled by
    /// the server's embedded DLM).
    pub fn connect(channel: Box<dyn Channel>, config: ClientConfig) -> DbResult<Arc<Self>> {
        Self::open(channel, None, config)
    }

    /// Like [`DbClient::connect`], but *supervised*: a monitor thread
    /// watches the connection, and when the channel dies it broadcasts
    /// [`DlcEvent::Degraded`](crate::dlc::DlcEvent) to the displays and
    /// reconnects through `factory` under `policy`, resuming the server
    /// session and re-registering display locks on success.
    pub fn connect_supervised(
        factory: ChannelFactory,
        policy: ReconnectPolicy,
        config: ClientConfig,
    ) -> DbResult<Arc<Self>> {
        let client = Self::connect(factory()?, config)?;
        supervisor::spawn(&client, factory, policy, Target::Server);
        Ok(client)
    }

    /// Connect in the **agent** deployment: a separate channel to the DLM
    /// agent carries display-lock traffic, and this client reports its own
    /// commits and intents (exactly the paper's architecture, figure 3).
    pub fn connect_with_agent(
        server_channel: Box<dyn Channel>,
        dlm_channel: Box<dyn Channel>,
        config: ClientConfig,
    ) -> DbResult<Arc<Self>> {
        Self::open(server_channel, Some(dlm_channel), config)
    }

    /// Like [`DbClient::connect_with_agent`], but with *both* channels
    /// supervised: the server connection resumes its session and the
    /// agent connection re-registers display locks after each reconnect.
    pub fn connect_with_agent_supervised(
        server_factory: ChannelFactory,
        dlm_factory: ChannelFactory,
        policy: ReconnectPolicy,
        config: ClientConfig,
    ) -> DbResult<Arc<Self>> {
        let client = Self::connect_with_agent(server_factory()?, dlm_factory()?, config)?;
        supervisor::spawn(&client, server_factory, policy.clone(), Target::Server);
        supervisor::spawn(&client, dlm_factory, policy, Target::Agent);
        Ok(client)
    }

    /// Both deployments: the push sink goes into the connection before
    /// the handshake, and with a `dlm_channel` the DLC's backend is the
    /// agent slot, filled once the server has named this client.
    fn open(
        channel: Box<dyn Channel>,
        dlm_channel: Option<Box<dyn Channel>>,
        config: ClientConfig,
    ) -> DbResult<Arc<Self>> {
        let conn = Connection::new(channel, config.call_timeout);
        let cell = Arc::new(ConnCell::new(Arc::clone(&conn)));
        let cache = Arc::new(ClientCache::new(config.cache_bytes));
        let agent = dlm_channel.as_ref().map(|_| Arc::new(AgentCell::new(None)));
        let backend: Arc<dyn DlmBackend> = match &agent {
            Some(agent) => Arc::clone(agent) as Arc<dyn DlmBackend>,
            None => Arc::new(IntegratedBackend {
                conn: Arc::clone(&cell),
            }),
        };
        let dlc = Arc::new(Dlc::new(backend));
        set_delta_hook(&dlc, &cache);
        let sink: Arc<dyn PushSink> = Arc::new(Sink {
            cache: Arc::clone(&cache),
            dlc: Arc::clone(&dlc),
        });
        conn.install_sink(Arc::clone(&sink));
        let opened = Self::handshake(&conn, &config.name, None).and_then(|outcome| {
            match (dlm_channel, &agent) {
                (Some(channel), Some(slot)) => {
                    let agent = dial_agent(&dlc, channel, outcome.session.id)?;
                    dlc.adopt_log_incarnations(agent.log_incarnations());
                    slot.set(Some(Arc::new(agent)));
                }
                _ => dlc.adopt_log_incarnations(&outcome.session.log_incarnations),
            }
            Ok(outcome)
        });
        // The sink holds the DLC, whose integrated backend holds the
        // connection: dropping it would not close the channel.
        let outcome = opened.map_err(|e| {
            conn.close();
            e
        })?;
        Ok(Arc::new(Self {
            conn: cell,
            conn_stats: conn.stats().clone(),
            cache,
            catalog: Arc::new(outcome.catalog),
            session: OrderedMutex::new(ranks::CLIENT_SESSION, outcome.session),
            dlc,
            agent,
            sink,
            config,
            closed: AtomicBool::new(false),
        }))
    }

    fn handshake(
        conn: &Arc<Connection>,
        name: &str,
        resume: Option<ResumeRequest>,
    ) -> DbResult<HandshakeOutcome> {
        match conn.call(Request::Hello {
            name: name.to_string(),
            resume,
        })? {
            Response::HelloAck {
                client,
                catalog,
                session,
                incarnation,
                epoch,
                resumed,
                stale,
                replay_ok,
                log_incarnations,
            } => Ok(HandshakeOutcome {
                catalog: Catalog::decode_from_bytes(&catalog)?,
                session: SessionInfo {
                    id: client,
                    token: session,
                    incarnation,
                    epoch,
                    log_incarnations,
                },
                resumed,
                stale,
                replay_ok,
            }),
            other => Err(DbError::Protocol(format!(
                "unexpected handshake response {other:?}"
            ))),
        }
    }

    /// One reconnect attempt over a fresh channel: handshake with the
    /// stored resume token, invalidate whatever the server reports stale,
    /// swap the live connection, in the integrated deployment replay
    /// display-lock registrations, and catch the displays up. Returns
    /// whether the server resumed the previous session identity.
    pub(crate) fn try_resume(&self, channel: Box<dyn Channel>) -> DbResult<bool> {
        let conn =
            Connection::with_stats(channel, self.config.call_timeout, self.conn_stats.clone());
        // Before the handshake: the server re-registers the manifest's
        // copies before it answers, so a commit in between calls back a
        // copy on this connection ahead of the `HelloAck`.
        conn.install_sink(Arc::clone(&self.sink));
        let (token, incarnation) = {
            let s = self.session.lock();
            (s.token, s.incarnation)
        };
        // Each cached copy travels with its fingerprint, which the server
        // compares with the stored object's. The per-shard notification
        // cursors let it decide up front, per shard, whether that shard's
        // update log still covers everything this client's displays
        // missed. Shards the client has no ack from yet ride along with
        // cursor 0, each paired with the log incarnation learned at the
        // previous handshake.
        let manifest = self.cache.manifest();
        let cursors = self.dlc.cursors();
        let outcome = Self::handshake(
            &conn,
            &self.config.name,
            Some(ResumeRequest {
                token,
                incarnation,
                manifest,
                cursors: cursors.clone(),
            }),
        )?;
        let recovery = &self.conn_stats.recovery;
        recovery.reconnects_ok.inc();
        if outcome.resumed {
            recovery.sessions_resumed.inc();
        }
        self.cache.invalidate(&outcome.stale);
        let log_incarnations = outcome.session.log_incarnations.clone();
        *self.session.lock() = outcome.session;
        // Swap first: the relock below rides the new connection (in the
        // integrated deployment the DLC backend is this same cell).
        self.conn.set(conn);
        // In the agent deployment the display locks and the cursors live
        // on the agent link, which did not break (its own supervisor
        // relocks when it does), so only the resync below applies.
        if self.agent.is_none() {
            self.dlc.adopt_log_incarnations(&log_incarnations);
            // The server dropped this client's display locks at
            // disconnect; replay them, then catch the displays up. When
            // the server's update log still covers our cursor, a replay
            // of the missed suffix (filtered to our registered interests)
            // is enough — otherwise fall back to forced refreshes.
            let _ = self.dlc.relock_all();
            if outcome.replay_ok {
                recovery.replay_catchups.inc();
                if !outcome.resumed {
                    // The in-memory session died with the old server
                    // process, yet the durable update logs still cover
                    // our cursors: catch-up instead of resync across a
                    // restart.
                    recovery.cross_restart_replays.inc();
                }
                self.dlc
                    .backend()
                    .send(DlmRequest::ReplayFrom { cursors })?;
                return Ok(outcome.resumed);
            }
            if outcome.resumed {
                recovery.replay_truncations.inc();
            }
            // The seqno space may be fresh (server restart); re-baseline
            // so the next CursorAck is adopted unconditionally.
            self.dlc.reset_cursor();
        }
        // Suspect is every watched object without a cached copy: the
        // stale ones, dropped above; any whose copy a callback took as
        // the dying connection's last frame — in no manifest, so never
        // called stale, and its notification is not coming; and, in the
        // agent deployment, any whose refresh read failed on the dead
        // link after the agent's `Updated` had dropped its copy.
        let mut suspect = self.dlc.watched_objects();
        suspect.retain(|&oid| !self.cache.contains(oid));
        recovery.resync_objects.add(outcome.stale.len() as u64);
        self.dlc.resync(&suspect);
        Ok(outcome.resumed)
    }

    /// One agent-reconnect attempt over a fresh DLM channel: swap the
    /// agent slot, replay display-lock registrations, and force refreshes
    /// of everything watched (the DLM keeps no versions, so every watched
    /// object is suspect after a notification gap).
    pub(crate) fn try_reconnect_agent(&self, channel: Box<dyn Channel>) -> DbResult<()> {
        let agent_cell = self
            .agent
            .as_ref()
            .ok_or_else(|| DbError::Protocol("client has no DLM agent connection".into()))?;
        let agent = dial_agent(&self.dlc, channel, self.id())?;
        self.conn_stats.recovery.reconnects_ok.inc();
        // The cursors acked on the old connection, under the
        // incarnations its handshake announced.
        let cursors = self.dlc.cursors();
        let agent = Arc::new(agent);
        self.dlc.adopt_log_incarnations(agent.log_incarnations());
        agent_cell.set(Some(Arc::clone(&agent)));
        self.dlc.relock_all()?;
        // Ask the agent to replay the notification suffix past our
        // cursors. A shard whose log no longer covers its cursor
        // answers with ResyncRequired for the watched set, which the
        // dispatch path turns into forced refreshes — so the blanket
        // "resync everything watched" only happens when it truly must.
        // A changed incarnation means that cursor's seqno
        // space is gone (the agent restarted or lost its log); when
        // every shard's is, skip the doomed replay round-trip and resync
        // outright. Agent incarnations are never 0, so cursors from "no
        // old connection" match nothing — with no proof the seqno space
        // survived, a replay could silently skip updates.
        let survived = cursors
            .iter()
            .any(|sc| sc.acked_under(agent.log_incarnations()));
        let replayed = survived && agent.send(DlmRequest::ReplayFrom { cursors }).is_ok();
        if replayed {
            // Cursor validity crossed connection (and, with a durable
            // log, process) lifetimes (DESIGN.md § 14).
            self.conn_stats.recovery.replay_catchups.inc();
            self.conn_stats.recovery.cross_restart_replays.inc();
        } else {
            if !survived {
                self.conn_stats.recovery.replay_truncations.inc();
            }
            let watched = self.dlc.watched_objects();
            self.conn_stats
                .recovery
                .resync_objects
                .add(watched.len() as u64);
            self.dlc.reset_cursor();
            self.dlc.resync(&watched);
        }
        Ok(())
    }

    /// The agent connection slot (agent deployment only).
    pub(crate) fn agent_cell(&self) -> Option<&Arc<AgentCell>> {
        self.agent.as_ref()
    }

    /// Whether [`DbClient::close`] was called.
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// This client's server-assigned id.
    pub fn id(&self) -> ClientId {
        self.session.lock().id
    }

    /// The current session identity (resume token, incarnation, epoch).
    pub fn session(&self) -> SessionInfo {
        self.session.lock().clone()
    }

    /// The schema catalog (shipped by the server at handshake).
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The client database cache.
    pub fn cache(&self) -> &Arc<ClientCache> {
        &self.cache
    }

    /// The display lock client.
    pub fn dlc(&self) -> &Arc<Dlc> {
        &self.dlc
    }

    /// The current connection generation (stats, advanced calls). A
    /// supervisor reconnect replaces it, so do not hold the returned
    /// handle across failures — re-fetch instead.
    pub fn conn(&self) -> Arc<Connection> {
        self.conn.get()
    }

    /// Cumulative connection statistics across all generations.
    pub fn conn_stats(&self) -> &ConnStats {
        &self.conn_stats
    }

    /// Whether this client reports commits to a DLM agent itself: in
    /// the agent deployment it does (paper § 4.1), in the integrated one
    /// the server does.
    pub fn reports_to_dlm(&self) -> bool {
        self.agent.is_some()
    }

    /// Read an object, serving from the database cache when possible
    /// (inter-transaction caching: a hit costs no server message), else
    /// from the server.
    pub fn read(&self, oid: Oid) -> DbResult<DbObject> {
        self.read_as(None, oid)
    }

    /// [`DbClient::read`] on behalf of a transaction: a server miss
    /// carries the transaction id, so the read is re-entrant with the
    /// transaction's own exclusive locks.
    pub(crate) fn read_as(&self, txn: Option<TxnId>, oid: Oid) -> DbResult<DbObject> {
        match self.cache.get(oid) {
            Some(obj) => Ok(obj),
            None => self.server_read(txn, oid),
        }
    }

    /// Read an object from the server, refreshing the cache.
    pub fn read_fresh(&self, oid: Oid) -> DbResult<DbObject> {
        self.server_read(None, oid)
    }

    /// The server only ever holds committed state, so what it returns may
    /// enter the caches whoever asked.
    fn server_read(&self, txn: Option<TxnId>, oid: Oid) -> DbResult<DbObject> {
        let fill = self.cache.fill();
        match self.conn().call(Request::Read { txn, oid })? {
            Response::Object { bytes } => {
                let obj = DbObject::decode_from_bytes(&bytes)?;
                fill.insert(obj.clone());
                Ok(obj)
            }
            other => Err(DbError::Protocol(format!("unexpected {other:?}"))),
        }
    }

    /// Read many objects; cache hits are served locally, misses fetched in
    /// one round-trip. Missing objects yield `None`.
    pub fn read_many(&self, oids: &[Oid]) -> DbResult<Vec<Option<DbObject>>> {
        let mut out: Vec<Option<DbObject>> = vec![None; oids.len()];
        let mut missing: Vec<(usize, Oid)> = Vec::new();
        for (i, &oid) in oids.iter().enumerate() {
            match self.cache.get(oid) {
                Some(obj) => out[i] = Some(obj),
                None => missing.push((i, oid)),
            }
        }
        if missing.is_empty() {
            return Ok(out);
        }
        let fetch: Vec<Oid> = missing.iter().map(|(_, oid)| *oid).collect();
        let fill = self.cache.fill();
        match self.conn().call(Request::ReadMany {
            txn: None,
            oids: fetch,
        })? {
            Response::Objects { objects } => {
                for ((i, _), bytes) in missing.into_iter().zip(objects) {
                    if let Some(bytes) = bytes {
                        let obj = DbObject::decode_from_bytes(&bytes)?;
                        fill.insert(obj.clone());
                        out[i] = Some(obj);
                    }
                }
                Ok(out)
            }
            other => Err(DbError::Protocol(format!("unexpected {other:?}"))),
        }
    }

    /// All objects of a class (by name).
    pub fn extent(&self, class_name: &str, include_subclasses: bool) -> DbResult<Vec<Oid>> {
        let class = self
            .catalog
            .id_of(class_name)
            .ok_or_else(|| DbError::ClassNotFound(class_name.to_string()))?;
        match self.conn().call(Request::Extent {
            class,
            include_subclasses,
        })? {
            Response::Oids { oids } => Ok(oids),
            other => Err(DbError::Protocol(format!("unexpected {other:?}"))),
        }
    }

    /// Start a transaction. Nothing is sent: the server first hears of
    /// it with an explicit lock, or with the commit (`client/src/txn.rs`).
    pub fn begin(self: &Arc<Self>) -> DbResult<ClientTxn> {
        Ok(ClientTxn::new(Arc::clone(self)))
    }

    /// Liveness probe.
    pub fn ping(&self) -> DbResult<()> {
        self.conn().call(Request::Ping).map(|_| ())
    }

    /// Ask the server to checkpoint.
    pub fn checkpoint(&self) -> DbResult<()> {
        self.conn().call(Request::Checkpoint).map(|_| ())
    }

    /// Build a fresh default-valued object of `class_name` (not yet
    /// persistent; create it inside a transaction).
    pub fn new_object(&self, class_name: &str) -> DbResult<DbObject> {
        DbObject::new_named(&self.catalog, class_name)
    }

    /// Disconnect. A supervised client stops reconnecting: the close is
    /// deliberate, not an outage.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.conn().close();
    }
}

impl std::fmt::Debug for DbClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbClient").field("id", &self.id()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use displaydb_schema::class::ClassBuilder;
    use displaydb_schema::AttrType;
    use displaydb_server::proto::{Envelope, ServerPush};
    use displaydb_wire::{local_pair, Encode, LocalChannel};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.define(ClassBuilder::new("Blob").attr("Data", AttrType::Str))
            .unwrap();
        c
    }

    /// Play the server's side of one handshake: read the `Hello`, send
    /// `ahead` frames, then the `HelloAck` (nothing stale). Returns the
    /// resume request the `Hello` carried.
    fn answer_hello(
        server: &LocalChannel,
        catalog: &Catalog,
        ahead: &[Envelope],
    ) -> Option<ResumeRequest> {
        let frame = server.recv_timeout(Duration::from_secs(10)).unwrap();
        let Ok(Envelope::Req(seq, Request::Hello { resume, .. })) =
            Envelope::decode_from_bytes(&frame)
        else {
            panic!("expected a Hello");
        };
        for envelope in ahead {
            server.send(envelope.encode_to_bytes()).unwrap();
        }
        let ack = Response::HelloAck {
            client: ClientId::new(1),
            catalog: catalog.encode_to_bytes().to_vec(),
            session: 7,
            incarnation: 1,
            epoch: u64::from(resume.is_some()),
            resumed: resume.is_some(),
            stale: Vec::new(),
            replay_ok: false,
            log_incarnations: vec![0],
        };
        server
            .send(Envelope::Resp(seq, ack).encode_to_bytes())
            .unwrap();
        resume
    }

    #[test]
    fn a_callback_ahead_of_the_resume_ack_invalidates_the_copy() {
        // The server re-registers a resumed client's copies before it
        // sends `HelloAck`, so a commit in between calls a copy back on
        // the new connection ahead of the ack. The sink must already be
        // in place to take the copy out of the cache.
        let catalog = catalog();
        let (client_end, server) = local_pair();
        let client = std::thread::scope(|s| {
            s.spawn(|| answer_hello(&server, &catalog, &[]));
            DbClient::connect(Box::new(client_end), ClientConfig::named("resume-race")).unwrap()
        });
        let mut x = DbObject::new_named(&catalog, "Blob").unwrap();
        x.oid = Oid::new(42);
        client.cache().insert(x.clone());
        drop(server);

        let (client_end, server) = local_pair();
        let callback = Envelope::Push(ServerPush::Callback {
            ack: 5,
            oids: vec![x.oid],
        });
        let (resume, acked) = std::thread::scope(|s| {
            let fake = s.spawn(|| {
                let resume = answer_hello(&server, &catalog, &[callback]);
                let frame = server.recv_timeout(Duration::from_secs(10)).unwrap();
                (resume, Envelope::decode_from_bytes(&frame).unwrap())
            });
            assert!(client.try_resume(Box::new(client_end)).unwrap());
            fake.join().unwrap()
        });
        assert_eq!(resume.unwrap().manifest, vec![(x.oid, x.fingerprint())]);
        assert_eq!(acked, Envelope::PushAck(5));
        assert!(
            !client.cache().contains(x.oid),
            "a stale copy stayed cached"
        );
        assert_eq!(client.conn_stats().callbacks.get(), 1);
        drop(server); // before `client`, whose connection joins its reader
    }

    /// Play the server's side of one call: read the request, push a
    /// callback for `oid` ahead of `answer`, then take the callback's ack.
    fn call_back_ahead(server: &LocalChannel, oid: Oid, answer: Response) -> Request {
        let frame = server.recv_timeout(Duration::from_secs(10)).unwrap();
        let Ok(Envelope::Req(seq, request)) = Envelope::decode_from_bytes(&frame) else {
            panic!("expected a request");
        };
        let callback = Envelope::Push(ServerPush::Callback {
            ack: 3,
            oids: vec![oid],
        });
        server.send(callback.encode_to_bytes()).unwrap();
        server
            .send(Envelope::Resp(seq, answer).encode_to_bytes())
            .unwrap();
        let frame = server.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(
            Envelope::decode_from_bytes(&frame).unwrap(),
            Envelope::PushAck(3)
        );
        request
    }

    #[test]
    fn a_callback_ahead_of_the_answer_keeps_the_copy_out() {
        // The server registers the copy a commit or a read hands out
        // before it answers, so the next writer's callback for it can
        // overtake the answer: the copy must not be cached after it.
        let catalog = catalog();
        let (client_end, server) = local_pair();
        let client = std::thread::scope(|s| {
            s.spawn(|| answer_hello(&server, &catalog, &[]));
            DbClient::connect(Box::new(client_end), ClientConfig::named("overtaken")).unwrap()
        });
        let mut x = DbObject::new_named(&catalog, "Blob").unwrap();
        x.oid = Oid::new(42);
        let request = std::thread::scope(|s| {
            let fake = s.spawn(|| call_back_ahead(&server, x.oid, Response::Ok));
            let mut txn = client.begin().unwrap();
            txn.write(x.clone()).unwrap();
            txn.commit().unwrap();
            fake.join().unwrap()
        });
        assert!(matches!(request, Request::Commit { .. }));
        assert!(!client.cache().contains(x.oid), "the commit cached x");

        let answer = Response::Object {
            bytes: x.encode_to_bytes().to_vec(),
        };
        let request = std::thread::scope(|s| {
            let fake = s.spawn(|| call_back_ahead(&server, x.oid, answer));
            assert_eq!(client.read(x.oid).unwrap(), x);
            fake.join().unwrap()
        });
        assert!(matches!(request, Request::Read { .. }));
        assert!(!client.cache().contains(x.oid), "the read cached x");
        drop(server);
    }

    #[test]
    fn a_commit_whose_answer_is_lost_drops_the_written_copy() {
        // The server applied the commit, logged it past a cursor ack the
        // client already holds, and the link died before the answer
        // came. The commit called back no copy of the client's own, so a
        // resume would prove the old copy current: it must not be cached.
        let catalog = catalog();
        let (client_end, server) = local_pair();
        let client = std::thread::scope(|s| {
            s.spawn(|| answer_hello(&server, &catalog, &[]));
            DbClient::connect(Box::new(client_end), ClientConfig::named("lost-answer")).unwrap()
        });
        let mut x = DbObject::new_named(&catalog, "Blob").unwrap();
        x.oid = Oid::new(42);
        client.cache().insert(x.clone());
        let committed = std::thread::scope(|s| {
            s.spawn(|| {
                let frame = server.recv_timeout(Duration::from_secs(10)).unwrap();
                let request = Envelope::decode_from_bytes(&frame).unwrap();
                assert!(matches!(request, Envelope::Req(_, Request::Commit { .. })));
                let ack = DlmEvent::CursorAck { shard: 0, seqno: 9 };
                server
                    .send(Envelope::Push(ServerPush::Dlm(ack)).encode_to_bytes())
                    .unwrap();
                server.close();
            });
            let mut txn = client.begin().unwrap();
            txn.update(x.oid, |o| o.set(&catalog, "Data", "new"))
                .unwrap();
            txn.commit()
        });
        assert!(matches!(committed, Err(DbError::Disconnected)));
        assert!(
            !client.cache().contains(x.oid),
            "the old copy stayed cached"
        );

        let (client_end, server) = local_pair();
        let resume = std::thread::scope(|s| {
            let fake = s.spawn(|| answer_hello(&server, &catalog, &[]));
            assert!(client.try_resume(Box::new(client_end)).unwrap());
            fake.join().unwrap()
        });
        let resume = resume.unwrap();
        assert_eq!(resume.cursors[0].cursor, 9);
        assert!(resume.manifest.is_empty());
        drop(server);
    }
}
