//! Server lifecycle: accept loops and session threads.
//!
//! Each listener runs the accept loop the DLM agent runs too
//! ([`displaydb_wire::serve`]), which starts one *session thread* per
//! accepted channel. The session thread reads the link: it routes
//! push-acks to their waiters, and runs and answers each admitted request
//! itself.
//!
//! One rule keeps that safe: **a thread that can wait never holds the
//! connection's read side.** A request may block — in a lock wait, on a
//! push to another client's link or that client's ack, on the disk — and
//! a blocked thread cannot route acks. Two sessions blocked while reading
//! deadlock in three steps: A's request calls back B's cached copy and
//! waits for B's ack; B's request, in the same moment, calls back A's copy
//! and waits for A's ack; each ack sits unread behind the request its
//! session thread is stuck in.
//!
//! So just before a request first waits (`sync::before_wait`), its thread
//! hands reading to the session's parked spare, or else to a new thread;
//! it answers its request, then parks as the spare if none is parked (one
//! compare-and-swap) or ends. With k requests blocked a session has k + 1
//! threads; a client whose requests never wait keeps one. The reader that
//! finds the link dead tears the session down and ends the spare.

use crate::core::{ServerConfig, ServerCore, SessionHandle};
use crate::proto::{Envelope, Request, Response};
use crossbeam::channel::{Receiver, Sender};
use displaydb_common::{DbError, DbResult};
use displaydb_schema::Catalog;
use displaydb_wire::{Channel, Decode, Encode, Listener, LocalHub, TcpListenerWrapper};
use std::cell::Cell;
use std::net::SocketAddr;
use std::rc::Rc;
use std::sync::atomic::Ordering::{AcqRel, Acquire};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running database server.
pub struct Server {
    core: Arc<ServerCore>,
    shutdown: Arc<AtomicBool>,
    accept_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Start a server over the given listeners.
    pub fn spawn(
        catalog: Arc<Catalog>,
        config: ServerConfig,
        listeners: Vec<Box<dyn Listener>>,
    ) -> DbResult<Self> {
        let core = ServerCore::open(catalog, config)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_threads = listeners
            .into_iter()
            .map(|listener| {
                let core = Arc::clone(&core);
                displaydb_wire::serve(
                    listener,
                    Arc::clone(&shutdown),
                    ("db-accept", "db-session"),
                    move |channel| {
                        let core = Arc::clone(&core);
                        move || session_loop(core, channel)
                    },
                )
            })
            .collect();
        Ok(Self {
            core,
            shutdown,
            accept_threads,
        })
    }

    /// Start a server reachable through an in-process [`LocalHub`].
    pub fn spawn_local(
        catalog: Arc<Catalog>,
        config: ServerConfig,
        hub: &LocalHub,
    ) -> DbResult<Self> {
        Self::spawn(catalog, config, vec![Box::new(hub.clone())])
    }

    /// Start a server on a TCP address (`127.0.0.1:0` for an ephemeral
    /// port). Returns the server and the bound address.
    pub fn spawn_tcp(
        catalog: Arc<Catalog>,
        config: ServerConfig,
        addr: &str,
    ) -> DbResult<(Self, SocketAddr)> {
        let listener = TcpListenerWrapper::bind(addr)?;
        let bound = listener.local_addr()?;
        let server = Self::spawn(catalog, config, vec![Box::new(listener)])?;
        Ok((server, bound))
    }

    /// The shared core (stats, store, embedded DLM).
    pub fn core(&self) -> &Arc<ServerCore> {
        &self.core
    }

    /// Stop accepting connections, drain per-client notification
    /// outboxes (bounded by the configured drain timeout, so a stalled
    /// client cannot wedge shutdown), then close every live session
    /// channel so clients observe the outage immediately (rather than on
    /// their next send). Resume tokens are process-local, so sessions
    /// cannot survive this — reconnecting clients land in the
    /// restarted-server path.
    pub fn shutdown(&mut self) {
        let already_down = self.shutdown.swap(true, Ordering::AcqRel);
        for h in self.accept_threads.drain(..) {
            let _ = h.join();
        }
        // Drain phase: give healthy clients their queued notifications.
        // Sessions drain concurrently with each other only in the sense
        // that each writer thread keeps flushing while we wait; a
        // per-session timeout bounds the total at O(sessions) in the
        // worst (all-stalled) case. Skipped when a `hard_kill` (or an
        // earlier shutdown) already took the server down — the crash
        // simulation must not be softened by Drop re-draining.
        if !already_down {
            let drain_timeout = self.core.config().dlm.overload.drain_timeout;
            for session in self.core.sessions().all() {
                let _ = session.drain_outbox(drain_timeout);
            }
        }
        for session in self.core.sessions().all() {
            session.close();
        }
    }

    /// Simulated crash: stop accepting and sever every live session
    /// channel *without* draining outboxes or giving writers a flush
    /// window. In-flight notification queues die with the process
    /// image; only state already on stable storage (the WAL and, when
    /// enabled, the durable update log) survives into the next
    /// [`Server`] opened over the same data directory. Restart-recovery
    /// tests and the R5 experiment use this to model a hard kill
    /// (DESIGN.md § 14).
    pub fn hard_kill(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for h in self.accept_threads.drain(..) {
            let _ = h.join();
        }
        for session in self.core.sessions().all() {
            session.close();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn send_response(channel: &Arc<dyn Channel>, seq: u64, response: Response) {
    let _ = channel.send(Envelope::Resp(seq, response).encode_to_bytes());
}

fn session_loop(core: Arc<ServerCore>, channel: Arc<dyn Channel>) {
    // Handshake: the first envelope must be a Hello request. Resume
    // handshakes pass through the reconnect admission gate: after a mass
    // disconnect, only `RESUME_ADMISSION_MAX` session rebuilds run at a
    // time and the rest are shed with a retryable `Overloaded` (the
    // channel stays open, so the client may retry its Hello here or
    // reconnect afresh under its jittered backoff).
    let handle: Arc<SessionHandle> = loop {
        let Ok(frame) = channel.recv() else {
            return;
        };
        match Envelope::decode_from_bytes(&frame) {
            Ok(Envelope::Req(seq, Request::Hello { name, resume })) => {
                let gated = resume.is_some();
                if gated && !core.try_admit_resume() {
                    core.dlm().stats().overload.resume_sheds.inc();
                    send_response(&channel, seq, Response::from_error(&DbError::Overloaded));
                    continue;
                }
                let (handle, ack) = core.connect(&name, resume.as_ref(), Arc::clone(&channel));
                if gated {
                    core.finish_resume();
                }
                send_response(&channel, seq, ack);
                break handle;
            }
            Ok(Envelope::Req(seq, _)) => {
                send_response(
                    &channel,
                    seq,
                    Response::from_error(&DbError::Protocol("hello required first".into())),
                );
                return;
            }
            _ => return,
        }
    };

    let session = Arc::new(Session {
        core,
        channel,
        handle,
        parked: AtomicUsize::new(0),
        wake: crossbeam::channel::unbounded(),
    });
    session.run();
}

const CLOSED: usize = usize::MAX;

/// What one session's threads share (module doc).
struct Session {
    core: Arc<ServerCore>,
    channel: Arc<dyn Channel>,
    handle: Arc<SessionHandle>,
    /// 1 while a thread is parked as the spare (or on its way into
    /// `wake`), 0 while none is, [`CLOSED`] after the link died.
    parked: AtomicUsize,
    /// Wakes the spare: `true` to read, `false` to end.
    wake: (Sender<bool>, Receiver<bool>),
}

impl Session {
    /// A thread's life in the session: read and run requests until the
    /// link dies, or until a request gives reading away to wait; then
    /// answer it, and park as the spare unless one is parked already or
    /// the link is dead.
    fn run(self: Arc<Self>) {
        let resident = self.core.stats().workers_resident.clone();
        // Set from this thread's hand-off until it reads again or ends,
        // and counted in `workers_resident` meanwhile, unwinding included.
        let gave_way = Rc::new(Cell::new(false));
        let _counted = OnDrop(|| {
            if gave_way.get() {
                resident.dec();
            }
        });
        let hook: Rc<dyn Fn()> = {
            let (session, gave_way) = (Arc::clone(&self), Rc::clone(&gave_way));
            Rc::new(move || gave_way.set(session.give_way()))
        };
        // AcqRel on `parked`, here and in `give_way`: a claim must see
        // the park it consumes; nothing else is published through it.
        while self.read(&hook, &gave_way)
            && self.parked.compare_exchange(0, 1, AcqRel, Acquire).is_ok()
            && self.wake.1.recv() == Ok(true)
        {
            gave_way.set(false);
            resident.dec();
        }
    }

    /// Read the link and run what arrives on this thread. Returns `true`
    /// once a request gave reading away, `false` once the link died.
    fn read(&self, hook: &Rc<dyn Fn()>, gave_way: &Cell<bool>) -> bool {
        // Reading that ends other than by a hand-off — the link dying, a
        // request unwinding — ends the session: nobody else reads it.
        let _end = OnDrop(|| {
            if !gave_way.get() {
                self.core.disconnect_session(&self.handle);
                if self.parked.swap(CLOSED, AcqRel) == 1 {
                    let _ = self.wake.0.send(false);
                }
            }
        });
        let max_in_flight = self.core.config().dlm.overload.max_in_flight;
        while let Ok(frame) = self.channel.recv() {
            let (seq, request) = match Envelope::decode_from_bytes(&frame) {
                Ok(Envelope::Req(seq, request)) => (seq, request),
                Ok(Envelope::PushAck(ack)) => {
                    self.handle.handle_ack(ack);
                    continue;
                }
                Ok(_) | Err(_) => break, // protocol violation
            };
            // Admission control: past the per-session cap a request is
            // shed as a retryable `Overloaded`, bounding a client's threads.
            // `Request::Dlm` never waits, and a shed `ReplayFrom` is lost.
            let slot = self.handle.try_admit(max_in_flight);
            if slot.is_none() && !matches!(request, Request::Dlm(_)) {
                self.core.dlm().stats().overload.sheds.inc();
                let shed = Response::from_error(&DbError::Overloaded);
                send_response(&self.channel, seq, shed);
                continue;
            }
            displaydb_common::sync::on_first_wait(hook, || {
                self.core.handle(&self.handle, request, |response| {
                    // Before the answer, so that a client which sends its
                    // next request on receipt finds the slot free.
                    drop(slot);
                    send_response(&self.channel, seq, response);
                });
            });
            // The audit's held-rank stack is per thread: a rank left
            // behind would be charged to the next, unrelated request.
            #[cfg(feature = "lock-audit")]
            assert_eq!(
                displaydb_common::sync::held_ranks(),
                Vec::<u16>::new(),
                "lock-audit: session thread still holds ranks after a request"
            );
            if gave_way.get() {
                return true;
            }
        }
        false
    }

    /// Hand reading to the parked spare, or to a new thread; `false` when
    /// neither could take it (out of threads), and this thread reads on
    /// after its request.
    fn give_way(self: &Arc<Self>) -> bool {
        let given = if self.parked.compare_exchange(1, 0, AcqRel, Acquire).is_ok() {
            self.wake.0.send(true).is_ok() // `self` holds the receiver
        } else {
            let session = Arc::clone(self);
            let thread = std::thread::Builder::new().name("db-session".into());
            let started = thread.spawn(move || session.run()).is_ok();
            if started {
                self.core.stats().worker_spawns.inc();
            }
            started
        };
        if given {
            self.core.stats().workers_resident.inc();
        }
        given
    }
}

/// Runs its closure when dropped, unwinding included.
struct OnDrop<F: FnMut()>(F);

impl<F: FnMut()> Drop for OnDrop<F> {
    fn drop(&mut self) {
        (self.0)();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{ResumeRequest, ShardCursor, WireLockMode, WriteForm};
    use displaydb_common::{Oid, TxnId};
    use displaydb_dlm::{DlmEvent, DlmRequest};
    use displaydb_schema::class::ClassBuilder;
    use displaydb_schema::{AttrType, DbObject, Value};
    use parking_lot::Mutex;
    use std::collections::HashMap;
    use std::path::PathBuf;
    use std::time::Duration;

    fn catalog() -> Arc<Catalog> {
        let mut c = Catalog::new();
        c.define(
            ClassBuilder::new("Node")
                .attr("Name", AttrType::Str)
                .attr("Load", AttrType::Float),
        )
        .unwrap();
        Arc::new(c)
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("displaydb-server-tests")
            .join(format!("{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A minimal raw test client speaking envelopes directly (the real
    /// client library lives in displaydb-client).
    struct RawClient {
        channel: Arc<dyn Channel>,
        seq: std::sync::atomic::AtomicU64,
        pushes: Arc<Mutex<Vec<crate::proto::ServerPush>>>,
        responses: Arc<Mutex<HashMap<u64, Response>>>,
    }

    impl RawClient {
        fn connect(hub: &LocalHub) -> (Self, displaydb_common::ClientId) {
            match Self::handshake(hub) {
                (client, Response::HelloAck { client: id, .. }) => (client, id),
                (_, other) => panic!("unexpected {other:?}"),
            }
        }

        /// Connect and return the server's answer to a fresh `Hello`.
        fn handshake(hub: &LocalHub) -> (Self, Response) {
            Self::over(Arc::new(hub.connect().unwrap()))
        }

        /// Connect presenting `resume`; the server's answer.
        fn resume(hub: &LocalHub, resume: ResumeRequest) -> (Self, Response) {
            Self::hello(Arc::new(hub.connect().unwrap()), Some(resume))
        }

        /// Say `Hello` over an established channel.
        fn over(channel: Arc<dyn Channel>) -> (Self, Response) {
            Self::hello(channel, None)
        }

        fn hello(channel: Arc<dyn Channel>, resume: Option<ResumeRequest>) -> (Self, Response) {
            let client = Self {
                channel,
                seq: std::sync::atomic::AtomicU64::new(1),
                pushes: Arc::new(Mutex::new(Vec::new())),
                responses: Arc::new(Mutex::new(HashMap::new())),
            };
            let ack = client.call(Request::Hello {
                name: "raw".into(),
                resume,
            });
            (client, ack)
        }

        fn call(&self, request: Request) -> Response {
            self.wait(self.send(request))
        }

        /// Send a request without waiting for its answer; `wait` on the
        /// returned sequence number collects it.
        fn send(&self, request: Request) -> u64 {
            let seq = self.seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.channel
                .send(Envelope::Req(seq, request).encode_to_bytes())
                .unwrap();
            seq
        }

        /// Read frames until the answer to `seq` has arrived.
        fn wait(&self, seq: u64) -> Response {
            loop {
                if let Some(resp) = self.responses.lock().remove(&seq) {
                    return resp;
                }
                self.pump();
            }
        }

        /// Read frames until one more callback has been acked.
        fn ack_next_callback(&self) {
            let is_callback = |p: &crate::proto::ServerPush| {
                matches!(p, crate::proto::ServerPush::Callback { .. })
            };
            let callbacks = || self.pushes.lock().iter().filter(|p| is_callback(p)).count();
            let before = callbacks();
            while callbacks() == before {
                self.pump();
            }
        }

        /// Take one frame off the channel: file an answer under its
        /// sequence number, keep a push — acking a callback at once, like
        /// a real client.
        fn pump(&self) {
            let frame = self.channel.recv_timeout(Duration::from_secs(10)).unwrap();
            match Envelope::decode_from_bytes(&frame).unwrap() {
                Envelope::Resp(seq, resp) => {
                    self.responses.lock().insert(seq, resp);
                }
                Envelope::Push(push) => {
                    if let crate::proto::ServerPush::Callback { ack, .. } = &push {
                        self.channel
                            .send(Envelope::PushAck(*ack).encode_to_bytes())
                            .unwrap();
                    }
                    self.pushes.lock().push(push);
                }
                Envelope::PushAck(_) | Envelope::Req(..) => panic!("unexpected envelope"),
            }
        }
    }

    /// A `Node` named `name` under `oid`.
    fn node(cat: &Catalog, oid: Oid, name: &str) -> DbObject {
        let mut node = DbObject::new_named(cat, "Node")
            .unwrap()
            .with(cat, "Name", name)
            .unwrap();
        node.oid = oid;
        node
    }

    /// One `Put` of a `Node` named `name` under `oid`, as `Commit` carries it.
    fn put(cat: &Catalog, oid: Oid, name: &str) -> (Oid, WriteForm) {
        encoded(&node(cat, oid, name))
    }

    /// A manifest entry: a cached copy of a `Node` named `name`.
    fn copy(cat: &Catalog, oid: Oid, name: &str) -> (Oid, u64) {
        (oid, node(cat, oid, name).fingerprint())
    }

    /// A `Patch` of `oid` setting attribute `attr` to `value`, against
    /// the state whose fingerprint is `base`.
    fn patch(oid: Oid, base: u64, attr: u16, value: &Value) -> (Oid, WriteForm) {
        let changed = vec![(attr, value.encode_to_bytes().to_vec())];
        (oid, WriteForm::Patch { base, changed })
    }

    fn allocate(c: &RawClient) -> Oid {
        match c.call(Request::Create) {
            Response::Created { oid } => oid,
            o => panic!("{o:?}"),
        }
    }

    fn commit_request(txn: Option<TxnId>, writes: Vec<(Oid, WriteForm)>) -> Request {
        Request::Commit {
            txn,
            writes,
            trace: 0,
        }
    }

    fn commit(c: &RawClient, txn: Option<TxnId>, writes: Vec<(Oid, WriteForm)>) {
        assert_eq!(c.call(commit_request(txn, writes)), Response::Ok);
    }

    /// Create one committed `Node`: an OID, then the one request.
    fn new_node(c: &RawClient, cat: &Catalog, name: &str) -> Oid {
        let oid = allocate(c);
        commit(c, None, vec![put(cat, oid, name)]);
        oid
    }

    fn lock(txn: Option<TxnId>, oid: Oid, mode: WireLockMode) -> Request {
        Request::Lock { txn, oid, mode }
    }

    /// Take an explicit lock; the transaction it ran in (started, when
    /// `txn` is `None`).
    fn locked(c: &RawClient, txn: Option<TxnId>, oid: Oid, mode: WireLockMode) -> TxnId {
        match c.call(lock(txn, oid, mode)) {
            Response::TxnStarted { txn } => txn,
            o => panic!("{o:?}"),
        }
    }

    fn read_node(c: &RawClient, txn: Option<TxnId>, oid: Oid) -> DbObject {
        match c.call(Request::Read { txn, oid }) {
            Response::Object { bytes } => DbObject::decode_from_bytes(&bytes).unwrap(),
            o => panic!("{o:?}"),
        }
    }

    fn encoded(obj: &DbObject) -> (Oid, WriteForm) {
        (obj.oid, WriteForm::Put(obj.encode_to_bytes().to_vec()))
    }

    fn error_kind(response: &Response) -> &str {
        match response {
            Response::Error { kind, .. } => kind,
            o => panic!("expected an error, got {o:?}"),
        }
    }

    /// Poll until `cond` holds; panic with `what` after 10 s.
    fn eventually(what: &str, cond: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(
                std::time::Instant::now() < deadline,
                "never happened: {what}"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Wait until every commit answered has released its locks, which it
    /// does after its fan-out.
    fn await_no_locks(server: &Server) {
        eventually("the locks released", || {
            server.core().locks().locked_objects() == 0
        });
    }

    /// Wait until `n` lock requests in total have had to queue.
    fn await_lock_waits(server: &Server, n: u64) {
        eventually("lock requests parked", || {
            server.core().locks().stats().waits.get() >= n
        });
    }

    #[test]
    fn end_to_end_create_read_update() {
        let cat = catalog();
        let hub = LocalHub::new();
        let server =
            Server::spawn_local(Arc::clone(&cat), ServerConfig::new(tmp("e2e")), &hub).unwrap();
        let (c1, _id1) = RawClient::connect(&hub);

        // Create: the OID first, the object with the commit.
        let oid = new_node(&c1, &cat, "alpha");
        let obj = read_node(&c1, None, oid);
        assert_eq!(obj.get(&cat, "Name").unwrap().as_str().unwrap(), "alpha");

        // Update it: one request, no transaction left behind. Its lock
        // goes once the commit has fanned out, just after its answer.
        let mut obj = obj;
        obj.set(&cat, "Load", 0.9).unwrap();
        commit(&c1, None, vec![encoded(&obj)]);
        assert_eq!(server.core().active_txns(), 0);
        await_no_locks(&server);
        let back = read_node(&c1, None, oid);
        assert_eq!(back.get(&cat, "Load").unwrap().as_float().unwrap(), 0.9);

        // Patch it: the attribute that changed, against that state.
        let renamed = Value::Str("beta".into());
        commit(&c1, None, vec![patch(oid, back.fingerprint(), 0, &renamed)]);
        let back = read_node(&c1, None, oid);
        assert_eq!(back.get(&cat, "Name").unwrap(), &renamed);
        assert_eq!(back.get(&cat, "Load").unwrap().as_float().unwrap(), 0.9);

        // Delete it; deleting it again has nothing to delete.
        commit(&c1, None, vec![(oid, WriteForm::Delete)]);
        assert_eq!(server.core().store().object_count(), 0);
        let again = c1.call(commit_request(None, vec![(oid, WriteForm::Delete)]));
        assert_eq!(error_kind(&again), "object_not_found");
    }

    /// Whether `c` has been pushed a callback naming `oid`.
    fn called_back(c: &RawClient, oid: Oid) -> bool {
        c.pushes.lock().iter().any(
            |p| matches!(p, crate::proto::ServerPush::Callback { oids, .. } if oids.contains(&oid)),
        )
    }

    #[test]
    fn callback_invalidates_other_clients_copy() {
        let cat = catalog();
        let hub = LocalHub::new();
        let server =
            Server::spawn_local(Arc::clone(&cat), ServerConfig::new(tmp("callback")), &hub)
                .unwrap();
        let (c1, _) = RawClient::connect(&hub);
        let (c2, _) = RawClient::connect(&hub);

        // c1 creates two objects; c2 reads (and thus caches) both.
        let by_lock = new_node(&c1, &cat, "shared");
        let by_commit = new_node(&c1, &cat, "shared too");
        read_node(&c2, None, by_lock);
        let copy = read_node(&c2, None, by_commit);

        // An explicit X lock calls c2's copy back at the grant; a commit
        // that locks nothing ahead does so as it takes its own lock.
        let waiting = c1.send(lock(None, by_lock, WireLockMode::Exclusive));
        c2.ack_next_callback();
        let txn = match c1.wait(waiting) {
            Response::TxnStarted { txn } => txn,
            o => panic!("{o:?}"),
        };
        assert!(called_back(&c2, by_lock) && !called_back(&c2, by_commit));
        let waiting = c1.send(commit_request(Some(txn), vec![encoded(&copy)]));
        c2.ack_next_callback();
        assert_eq!(c1.wait(waiting), Response::Ok);
        assert!(called_back(&c2, by_commit));
        assert!(server.core().stats().callbacks.get() >= 2);
    }

    #[test]
    fn integrated_display_notification() {
        let cat = catalog();
        let hub = LocalHub::new();
        let _server =
            Server::spawn_local(Arc::clone(&cat), ServerConfig::new(tmp("display")), &hub).unwrap();
        let (viewer, _) = RawClient::connect(&hub);
        let (updater, _) = RawClient::connect(&hub);
        let oid = new_node(&updater, &cat, "watched");

        // Viewer display-locks the object.
        assert!(matches!(
            viewer.call(Request::Dlm(displaydb_dlm::DlmRequest::Lock {
                oids: vec![oid]
            })),
            Response::Ok
        ));

        // Updater modifies it.
        let mut obj = read_node(&updater, None, oid);
        obj.set(&cat, "Load", 0.8).unwrap();
        commit(&updater, None, vec![encoded(&obj)]);

        // Viewer receives Updated for oid. The outbox may deliver it
        // batched together with the update-log cursor ack, so look
        // inside `Batch` frames as well as at bare events.
        fn mentions_update(event: &displaydb_dlm::DlmEvent, oid: displaydb_common::Oid) -> bool {
            match event {
                displaydb_dlm::DlmEvent::Updated(u) => u.oid == oid,
                displaydb_dlm::DlmEvent::Batch(events) => {
                    events.iter().any(|e| mentions_update(e, oid))
                }
                _ => false,
            }
        }
        let mut seen = false;
        for _ in 0..100 {
            viewer.call(Request::Ping);
            if viewer.pushes.lock().iter().any(|p| {
                matches!(p, crate::proto::ServerPush::Dlm(event) if mentions_update(event, oid))
            }) {
                seen = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(seen, "viewer never received the display notification");
        // A lock that lived inside the commit's own request marked
        // nothing: `Marked` comes from an explicit `Lock` only.
        fn mentions_mark(event: &displaydb_dlm::DlmEvent) -> bool {
            match event {
                displaydb_dlm::DlmEvent::Marked { .. } => true,
                displaydb_dlm::DlmEvent::Batch(events) => events.iter().any(mentions_mark),
                _ => false,
            }
        }
        assert!(!viewer
            .pushes
            .lock()
            .iter()
            .any(|p| matches!(p, crate::proto::ServerPush::Dlm(event) if mentions_mark(event))));
    }

    #[test]
    fn write_conflict_blocks_second_writer() {
        let cat = catalog();
        let hub = LocalHub::new();
        let server =
            Server::spawn_local(Arc::clone(&cat), ServerConfig::new(tmp("conflict")), &hub)
                .unwrap();
        let (c1, _) = RawClient::connect(&hub);
        let (c2, _) = RawClient::connect(&hub);
        let oid = new_node(&c1, &cat, "contested");

        // c1 X-locks; c2's commit of the same object blocks in its own
        // lock wait until c1 commits.
        let t1 = locked(&c1, None, oid, WireLockMode::Exclusive);
        let waits = server.core().locks().stats().waits.get();
        let parked = c2.send(commit_request(None, vec![put(&cat, oid, "second")]));
        await_lock_waits(&server, waits + 1);
        assert!(
            matches!(
                c2.channel.recv_timeout(Duration::from_millis(100)),
                Err(DbError::Timeout(_))
            ),
            "second writer did not block"
        );
        commit(&c1, Some(t1), vec![put(&cat, oid, "first")]);
        assert_eq!(c2.wait(parked), Response::Ok);
        let last = read_node(&c1, None, oid);
        assert_eq!(last.get(&cat, "Name").unwrap().as_str().unwrap(), "second");
    }

    /// A display-lock request is applied past a full admission cap: it
    /// never waits, and a posted `ReplayFrom` that was shed would be lost.
    #[test]
    fn a_display_lock_request_passes_a_full_admission_cap() {
        let cat = catalog();
        let hub = LocalHub::new();
        let mut config = ServerConfig::new(tmp("dlm-uncapped"));
        config.dlm.overload.max_in_flight = 1;
        let server = Server::spawn_local(Arc::clone(&cat), config, &hub).unwrap();
        let (c1, _) = RawClient::connect(&hub);
        let (c2, id2) = RawClient::connect(&hub);
        let oid = new_node(&c1, &cat, "held");

        // c2's one slot goes to a read parked behind c1's X lock.
        let t1 = locked(&c1, None, oid, WireLockMode::Exclusive);
        let waits = server.core().locks().stats().waits.get();
        let parked = c2.send(Request::Read { txn: None, oid });
        await_lock_waits(&server, waits + 1);
        assert_eq!(
            c2.call(Request::Dlm(DlmRequest::Lock { oids: vec![oid] })),
            Response::Ok
        );
        assert_eq!(server.core().dlm().holders(oid), vec![id2]);
        assert_eq!(server.core().dlm().stats().overload.sheds.get(), 0);

        assert_eq!(c1.call(Request::Abort { txn: t1 }), Response::Ok);
        assert!(matches!(c2.wait(parked), Response::Object { .. }));
    }

    #[test]
    fn disconnect_aborts_transactions_and_releases_locks() {
        let cat = catalog();
        let hub = LocalHub::new();
        let server =
            Server::spawn_local(Arc::clone(&cat), ServerConfig::new(tmp("disconnect")), &hub)
                .unwrap();
        let (c1, _) = RawClient::connect(&hub);
        let oid = new_node(&c1, &cat, "orphan");
        locked(&c1, None, oid, WireLockMode::Exclusive);
        assert_eq!(server.core().active_txns(), 1);
        // Drop without commit: connection closes.
        c1.channel.close();
        eventually("the session cleaned up", || {
            server.core().sessions().is_empty()
        });
        assert_eq!(server.core().active_txns(), 0);
        // A new client can lock it freely (no leaked locks).
        assert_eq!(server.core().locks().locked_objects(), 0);
        let (c2, _) = RawClient::connect(&hub);
        locked(&c2, None, oid, WireLockMode::Exclusive);
    }

    /// A commit takes its locks inside its own request, so every way out
    /// of that request must give them back: here the client goes away
    /// while the commit waits, and the transaction is in no table the
    /// disconnect could sweep.
    #[test]
    fn disconnect_during_a_commits_lock_wait_leaves_nothing_behind() {
        let cat = catalog();
        let hub = LocalHub::new();
        let mut config = ServerConfig::new(tmp("disconnect-wait"));
        config.lock.wait_timeout = Duration::from_millis(300);
        let server = Server::spawn_local(Arc::clone(&cat), config, &hub).unwrap();
        let (c1, _) = RawClient::connect(&hub);
        let (c2, id2) = RawClient::connect(&hub);
        let free = new_node(&c1, &cat, "free");
        let held = new_node(&c1, &cat, "held");
        let t1 = locked(&c1, None, held, WireLockMode::Exclusive);

        // c2's commit is granted `free`, then waits for `held`.
        assert!(free < held);
        let waits = server.core().locks().stats().waits.get();
        c2.send(commit_request(
            None,
            vec![put(&cat, free, "never"), put(&cat, held, "never")],
        ));
        await_lock_waits(&server, waits + 1);
        assert_eq!(server.core().locks().locked_objects(), 2);
        c2.channel.close();
        eventually("C2's session ended", || {
            server.core().sessions().get(id2).is_none()
        });
        // The wait times out against the lock c1 still holds; the commit
        // gives `free` back on its way out and applies nothing.
        eventually("the abandoned commit let go", || {
            server.core().locks().locked_objects() == 1
        });
        assert_eq!(server.core().active_txns(), 1, "only c1's transaction");
        commit(&c1, Some(t1), vec![]);
        await_no_locks(&server);
        assert_eq!(server.core().active_txns(), 0);
        for oid in [free, held] {
            let name = read_node(&c1, None, oid);
            assert_ne!(name.get(&cat, "Name").unwrap().as_str().unwrap(), "never");
        }
    }

    /// All of a write set is applied or none of it: one bad entry, and the
    /// good ones before it change nothing, notify nobody, lock nothing.
    #[test]
    fn commit_with_one_bad_write_applies_nothing() {
        let cat = catalog();
        let hub = LocalHub::new();
        let server =
            Server::spawn_local(Arc::clone(&cat), ServerConfig::new(tmp("atomic")), &hub).unwrap();
        let (viewer, _) = RawClient::connect(&hub);
        let (c, _) = RawClient::connect(&hub);
        let a = new_node(&c, &cat, "a");
        let b = new_node(&c, &cat, "b");
        let gone = new_node(&c, &cat, "gone");
        let gone_too = new_node(&c, &cat, "gone too");
        commit(&c, None, vec![(gone, WriteForm::Delete)]);
        commit(&c, None, vec![(gone_too, WriteForm::Delete)]);
        assert_eq!(
            viewer.call(Request::Dlm(displaydb_dlm::DlmRequest::Lock {
                oids: vec![a, b]
            })),
            Response::Ok
        );
        let notifications = server.core().dlm().stats().notifications.get();
        let commits = server.core().stats().commits.get();

        let mut truncated = DbObject::new_named(&cat, "Node").unwrap();
        truncated.oid = b;
        truncated.values.pop();
        let mut misfiled = DbObject::new_named(&cat, "Node").unwrap();
        misfiled.oid = a;
        let never_issued = Oid::new(server.core().store().allocate_oid().raw() + 1000);
        let base = read_node(&c, None, b).fingerprint();
        let load = Value::Float(0.5);
        let name = Value::Str("x".into());
        let mut named_twice = patch(b, base, 1, &load);
        if let (_, WriteForm::Patch { changed, .. }) = &mut named_twice {
            changed.push(changed[0].clone());
        }
        let bad_thirds = [
            (encoded(&truncated), "schema_violation"),
            ((b, WriteForm::Put(vec![0xff, 0xff])), "corrupt"),
            ((gone_too, WriteForm::Delete), "object_not_found"),
            (
                (b, WriteForm::Put(misfiled.encode_to_bytes().to_vec())),
                "invalid_argument",
            ),
            (put(&cat, never_issued, "forged"), "invalid_argument"),
            (put(&cat, Oid::new(0), "unassigned"), "invalid_argument"),
            (put(&cat, a, "twice"), "invalid_argument"),
            // Patches: outside the layout, undecodable, mistyped, an
            // attribute twice, an object that is not there, a base that
            // is not the stored state.
            (patch(b, base, 2, &load), "invalid_argument"),
            (
                (
                    b,
                    WriteForm::Patch {
                        base,
                        changed: vec![(1, vec![0xff])],
                    },
                ),
                "corrupt",
            ),
            (patch(b, base, 1, &name), "schema_violation"),
            (named_twice, "invalid_argument"),
            (patch(never_issued, base, 1, &load), "object_not_found"),
            (patch(gone_too, base, 1, &load), "object_not_found"),
            (patch(b, base ^ 1, 1, &load), "stale_base"),
        ];
        for (third, kind) in bad_thirds {
            // Explicit locks too: the refused commit ends the transaction
            // and gives them back.
            let txn = locked(&c, None, a, WireLockMode::Exclusive);
            let refused = c.call(commit_request(
                Some(txn),
                vec![put(&cat, a, "changed"), put(&cat, gone, "revived"), third],
            ));
            assert_eq!(error_kind(&refused), kind);
            assert_eq!(server.core().locks().locked_objects(), 0, "{kind}");
            assert_eq!(server.core().active_txns(), 0, "{kind}");
        }
        let name = read_node(&c, None, a);
        assert_eq!(name.get(&cat, "Name").unwrap().as_str().unwrap(), "a");
        assert!(!server.core().store().exists(gone));
        assert!(!server.core().store().exists(gone_too));
        assert!(!server.core().store().exists(never_issued));
        assert_eq!(read_node(&c, None, b).fingerprint(), base);
        assert_eq!(server.core().stats().commits.get(), commits);
        assert_eq!(
            server.core().dlm().stats().notifications.get(),
            notifications
        );
        assert!(!viewer.pushes.lock().iter().any(|p| matches!(
            p,
            crate::proto::ServerPush::Dlm(
                displaydb_dlm::DlmEvent::Updated(_) | displaydb_dlm::DlmEvent::Batch(_)
            )
        )));
    }

    #[test]
    fn deadlock_reported_to_client() {
        let cat = catalog();
        let hub = LocalHub::new();
        let mut config = ServerConfig::new(tmp("deadlock"));
        config.lock.wait_timeout = Duration::from_secs(5);
        let server = Server::spawn_local(Arc::clone(&cat), config, &hub).unwrap();
        let (c1, _) = RawClient::connect(&hub);
        let (c2, _) = RawClient::connect(&hub);
        let oid_a = new_node(&c1, &cat, "a");
        let oid_b = new_node(&c1, &cat, "b");

        let t1 = locked(&c1, None, oid_a, WireLockMode::Exclusive);
        let t2 = locked(&c2, None, oid_b, WireLockMode::Exclusive);
        // t1 -> b (blocks), t2 -> a (deadlock; t2 is younger, so t2 dies
        // either on its own request or via victim wakeup on t1's path).
        let waits = server.core().locks().stats().waits.get();
        let blocked = c1.send(lock(Some(t1), oid_b, WireLockMode::Exclusive));
        await_lock_waits(&server, waits + 1);
        let r2 = c2.call(lock(Some(t2), oid_a, WireLockMode::Exclusive));
        assert_eq!(error_kind(&r2), "deadlock");
        c2.call(Request::Abort { txn: t2 });
        assert_eq!(c1.wait(blocked), Response::TxnStarted { txn: t1 });
    }

    /// A `Lock` that starts a transaction and is then refused leaves none
    /// behind: the client never learnt an id it could abort.
    #[test]
    fn a_refused_first_lock_starts_no_transaction() {
        let cat = catalog();
        let hub = LocalHub::new();
        let mut config = ServerConfig::new(tmp("firstlock"));
        config.lock.wait_timeout = Duration::from_millis(100);
        let server = Server::spawn_local(Arc::clone(&cat), config, &hub).unwrap();
        let (c1, _) = RawClient::connect(&hub);
        let (c2, _) = RawClient::connect(&hub);
        let oid = new_node(&c1, &cat, "held");
        let t1 = locked(&c1, None, oid, WireLockMode::Exclusive);
        let refused = c2.call(lock(None, oid, WireLockMode::Update));
        assert_eq!(error_kind(&refused), "lock_timeout");
        let missing = c2.call(lock(None, Oid::new(9999), WireLockMode::Update));
        assert_eq!(error_kind(&missing), "object_not_found");
        assert_eq!(server.core().active_txns(), 1);
        // Somebody else's transaction is not a way in either.
        let stolen = c2.call(lock(Some(t1), oid, WireLockMode::Exclusive));
        assert_eq!(error_kind(&stolen), "rejected");
        let peeked = c2.call(Request::Read { txn: Some(t1), oid });
        assert_eq!(error_kind(&peeked), "rejected");
    }

    #[test]
    fn server_restart_recovers_data() {
        let cat = catalog();
        let dir = tmp("restart");
        let oid;
        {
            let hub = LocalHub::new();
            let mut config = ServerConfig::new(&dir);
            config.sync_commits = true;
            let _server = Server::spawn_local(Arc::clone(&cat), config, &hub).unwrap();
            let (c1, _) = RawClient::connect(&hub);
            oid = new_node(&c1, &cat, "persistent");
        }
        // New server over the same directory.
        let hub = LocalHub::new();
        let mut config = ServerConfig::new(&dir);
        config.sync_commits = true;
        let _server = Server::spawn_local(Arc::clone(&cat), config, &hub).unwrap();
        let (c1, _) = RawClient::connect(&hub);
        let obj = read_node(&c1, None, oid);
        assert_eq!(
            obj.get(&cat, "Name").unwrap().as_str().unwrap(),
            "persistent"
        );
    }

    #[test]
    fn extent_lists_objects() {
        let cat = catalog();
        let hub = LocalHub::new();
        let _server =
            Server::spawn_local(Arc::clone(&cat), ServerConfig::new(tmp("extent")), &hub).unwrap();
        let (c1, _) = RawClient::connect(&hub);
        let created: Vec<Oid> = (0..5).map(|_| allocate(&c1)).collect();
        let writes = created
            .iter()
            .map(|&oid| put(&cat, oid, &format!("n{oid}")))
            .collect();
        commit(&c1, None, writes);
        match c1.call(Request::Extent {
            class: cat.id_of("Node").unwrap(),
            include_subclasses: true,
        }) {
            Response::Oids { oids } => {
                assert_eq!(oids, created);
            }
            o => panic!("{o:?}"),
        }
    }

    /// What a `HelloAck` says about a resume: `(resumed, stale,
    /// replay_ok)`.
    fn resume_outcome(ack: &Response) -> (bool, Vec<Oid>, bool) {
        match ack {
            Response::HelloAck {
                resumed,
                stale,
                replay_ok,
                ..
            } => (*resumed, stale.clone(), *replay_ok),
            o => panic!("{o:?}"),
        }
    }

    /// The resume request that picks up the session `ack` opened, with
    /// `manifest` cached and shard 0 acked through `cursor`.
    fn resume_of(ack: &Response, manifest: Vec<(Oid, u64)>, cursor: u64) -> ResumeRequest {
        match ack {
            Response::HelloAck {
                session,
                incarnation,
                log_incarnations,
                ..
            } => ResumeRequest {
                token: *session,
                incarnation: *incarnation,
                manifest,
                cursors: vec![ShardCursor {
                    shard: 0,
                    cursor,
                    log_incarnation: log_incarnations[0],
                }],
            },
            o => panic!("{o:?}"),
        }
    }

    /// The display-lock events pushed to `c` so far, batches flattened
    /// and cursor acks left out.
    fn dlm_events(c: &RawClient) -> Vec<DlmEvent> {
        fn flatten(event: &DlmEvent, out: &mut Vec<DlmEvent>) {
            match event {
                DlmEvent::Batch(events) => events.iter().for_each(|e| flatten(e, out)),
                DlmEvent::CursorAck { .. } => {}
                e => out.push(e.clone()),
            }
        }
        let mut out = Vec::new();
        for push in c.pushes.lock().iter() {
            if let crate::proto::ServerPush::Dlm(event) = push {
                flatten(event, &mut out);
            }
        }
        out
    }

    /// Close `c`'s link, opened with `ack`, and wait until the server has
    /// torn its session down.
    fn hang_up(server: &Server, c: &RawClient, ack: &Response) {
        let Response::HelloAck { client: id, .. } = ack else {
            panic!("{ack:?}");
        };
        c.channel.close();
        eventually("the server saw the disconnect", || {
            server.core().sessions().get(*id).is_none()
        });
    }

    #[test]
    fn a_copy_committed_before_the_cursor_resumes_current() {
        let cat = catalog();
        let hub = LocalHub::new();
        let server =
            Server::spawn_local(Arc::clone(&cat), ServerConfig::new(tmp("precise")), &hub).unwrap();
        let (c, ack) = RawClient::handshake(&hub);
        let x = new_node(&c, &cat, "x"); // seqno 1
        let y = new_node(&c, &cat, "y"); // seqno 2
        hang_up(&server, &c, &ack);
        let (updater, _) = RawClient::connect(&hub);
        commit(&updater, None, vec![put(&cat, y, "y again")]); // seqno 3
        let manifest = vec![copy(&cat, x, "x"), copy(&cat, y, "y")];
        let (_, resumed) = RawClient::resume(&hub, resume_of(&ack, manifest, 2));
        assert_eq!(
            resume_outcome(&resumed),
            (true, vec![y], true),
            "only what the log names past the cursor is stale"
        );
    }

    #[test]
    fn a_copy_is_current_iff_its_fingerprint_matches_the_store() {
        // A session caches x and y; x is committed while it is connected,
        // y while it is away. What the session acked, kept or was told
        // does not matter at the resume, nor does its cursor: a copy is
        // current iff it still encodes the stored object.
        struct Case {
            name: &'static str,
            /// The session displays x's `Name`: x's commit keeps its copy
            /// for a delta instead of calling it back.
            projected: bool,
            /// The session reads x again after its callback.
            reread: bool,
            /// The copies it presents: x's and y's names in its cache.
            copies: &'static [(usize, &'static str)],
            cursor: Option<u64>,
            stale: &'static [usize],
            replay_ok: bool,
        }
        let cases = [
            Case {
                name: "applied its callback",
                projected: false,
                reread: true,
                copies: &[(0, "x again"), (1, "y")],
                cursor: None,
                stale: &[1],
                replay_ok: false,
            },
            Case {
                name: "left its callback unacked",
                projected: false,
                reread: false,
                copies: &[(0, "x"), (1, "y")],
                cursor: Some(2),
                stale: &[0, 1],
                replay_ok: true,
            },
            Case {
                name: "never applied the delta its copy was kept for",
                projected: true,
                reread: false,
                copies: &[(0, "x")],
                cursor: Some(2),
                stale: &[0],
                replay_ok: true,
            },
            Case {
                name: "applied the delta its copy was kept for",
                projected: true,
                reread: false,
                copies: &[(0, "x again")],
                cursor: Some(2),
                stale: &[],
                replay_ok: true,
            },
        ];
        let cat = catalog();
        for case in cases {
            let hub = LocalHub::new();
            // A window shorter than the session: cursors cannot name
            // what changed.
            let mut config = ServerConfig::new(tmp("fingerprint"));
            config.dlm.log.max_entries = 2;
            // Nobody pumps the session while x commits.
            config.callback_timeout = Duration::from_millis(100);
            let server = Server::spawn_local(Arc::clone(&cat), config, &hub).unwrap();
            let (updater, _) = RawClient::connect(&hub);
            let oids = [new_node(&updater, &cat, "x"), new_node(&updater, &cat, "y")];
            let [x, y] = oids; // seqnos 1, 2
            let (c, ack) = RawClient::handshake(&hub);
            read_node(&c, None, x);
            read_node(&c, None, y);
            if case.projected {
                let lock = DlmRequest::LockProjected {
                    oids: vec![x],
                    attrs: vec![0],
                    version: 1,
                };
                assert_eq!(c.call(Request::Dlm(lock)), Response::Ok);
            }
            commit(&updater, None, vec![put(&cat, x, "x again")]); // seqno 3
            c.call(Request::Ping);
            assert_eq!(called_back(&c, x), !case.projected, "{}", case.name);
            if case.reread {
                read_node(&c, None, x);
            }
            hang_up(&server, &c, &ack);
            commit(&updater, None, vec![put(&cat, y, "y again")]); // seqno 4
            let manifest = case
                .copies
                .iter()
                .map(|&(i, name)| copy(&cat, oids[i], name))
                .collect();
            let mut resume = resume_of(&ack, manifest, case.cursor.unwrap_or(0));
            if case.cursor.is_none() {
                resume.cursors.clear();
            }
            let (_, resumed) = RawClient::resume(&hub, resume);
            let stale = case.stale.iter().map(|&i| oids[i]).collect();
            assert_eq!(
                resume_outcome(&resumed),
                (true, stale, case.replay_ok),
                "{}",
                case.name
            );
        }
    }

    #[test]
    fn a_restarted_server_refuses_the_dead_processs_cursor() {
        // No durable log: each server names its seqno space with a nonce
        // of its own, so a cursor of the first means nothing to the
        // second, though both count from 1.
        let cat = catalog();
        let dir = tmp("deadcursor");
        let dead = {
            let hub = LocalHub::new();
            let _server =
                Server::spawn_local(Arc::clone(&cat), ServerConfig::new(&dir), &hub).unwrap();
            let (c, ack) = RawClient::handshake(&hub);
            new_node(&c, &cat, "before");
            resume_of(&ack, Vec::new(), 2).cursors
        };
        let hub = LocalHub::new();
        let server = Server::spawn_local(Arc::clone(&cat), ServerConfig::new(&dir), &hub).unwrap();
        let (viewer, _) = RawClient::connect(&hub);
        let (updater, _) = RawClient::connect(&hub);
        let x = allocate(&updater);
        for name in ["one", "two", "three"] {
            commit(&updater, None, vec![put(&cat, x, name)]); // seqnos 1-3
        }
        // Fanned out before the viewer locks: it must hear of x from the
        // replay alone.
        await_no_locks(&server);
        let lock = DlmRequest::Lock { oids: vec![x] };
        assert_eq!(viewer.call(Request::Dlm(lock)), Response::Ok);
        let replay = DlmRequest::ReplayFrom { cursors: dead };
        assert_eq!(viewer.call(Request::Dlm(replay)), Response::Ok);
        eventually("the replay's answer", || {
            viewer.call(Request::Ping);
            !dlm_events(&viewer).is_empty()
        });
        // Anything else the replay sent is on its way: wait past one ack
        // interval.
        std::thread::sleep(Duration::from_millis(60));
        viewer.call(Request::Ping);
        assert_eq!(
            dlm_events(&viewer),
            vec![DlmEvent::ResyncRequired { oids: vec![x] }]
        );
    }

    #[test]
    fn a_resume_racing_a_commits_callbacks_is_called_back() {
        // The commit calls back before the resume registers x, and logs
        // x after the resume read the log: x must come back stale, or be
        // called back on the new connection.
        let cat = catalog();
        let hub = LocalHub::new();
        let mut config = ServerConfig::new(tmp("resumerace"));
        config.callback_timeout = Duration::from_millis(300);
        let server = Server::spawn_local(Arc::clone(&cat), config, &hub).unwrap();
        let (updater, _) = RawClient::connect(&hub);
        let x = new_node(&updater, &cat, "x"); // seqno 1
        let (away, ack) = RawClient::handshake(&hub);
        let Response::HelloAck { client: id, .. } = ack else {
            panic!("{ack:?}");
        };
        read_node(&away, None, x);
        away.channel.close();
        eventually("the server saw the disconnect", || {
            server.core().sessions().get(id).is_none()
        });
        // A holder that never acks keeps the commit in its commit-time
        // callbacks: a projected display-lock holder is called back after
        // the store commit, when the change (`Name`) misses its `Load`.
        let (holder, _) = RawClient::connect(&hub);
        read_node(&holder, None, x);
        let lock = DlmRequest::LockProjected {
            oids: vec![x],
            attrs: vec![1],
            version: 1,
        };
        assert_eq!(holder.call(Request::Dlm(lock)), Response::Ok);
        let callbacks = server.core().stats().callbacks.get();
        let committing = updater.send(commit_request(None, vec![put(&cat, x, "changed")]));
        eventually("the commit is calling back", || {
            server.core().stats().callbacks.get() > callbacks
        });
        let (back, resumed) = RawClient::resume(&hub, resume_of(&ack, vec![copy(&cat, x, "x")], 1));
        assert_eq!(updater.wait(committing), Response::Ok);
        back.call(Request::Ping);
        let (resumed, stale, _) = resume_outcome(&resumed);
        assert!(resumed);
        assert!(
            stale.contains(&x) || called_back(&back, x),
            "x resumed current and was never called back"
        );
    }

    #[test]
    fn a_commits_answer_follows_its_log_append() {
        // The answer goes out before the fan-out, never before the log:
        // a resume proves copies with the log, and a commit's callbacks,
        // log and answer come in that order (DESIGN.md § 14).
        let cat = catalog();
        let hub = LocalHub::new();
        let server =
            Server::spawn_local(Arc::clone(&cat), ServerConfig::new(tmp("logged")), &hub).unwrap();
        let (viewer, _) = RawClient::connect(&hub);
        let (c, _) = RawClient::connect(&hub);
        let x = new_node(&c, &cat, "x"); // seqno 1
        let lock = DlmRequest::Lock { oids: vec![x] };
        assert_eq!(viewer.call(Request::Dlm(lock)), Response::Ok);
        let head = || server.core().dlm().update_log_of(0).head();
        for seqno in 2..50 {
            commit(&c, None, vec![put(&cat, x, "x again")]);
            assert_eq!(head(), seqno, "answered before it was logged");
        }
    }

    #[test]
    fn rejects_request_before_hello() {
        let cat = catalog();
        let hub = LocalHub::new();
        let _server =
            Server::spawn_local(Arc::clone(&cat), ServerConfig::new(tmp("nohello")), &hub).unwrap();
        let channel = hub.connect().unwrap();
        channel
            .send(Envelope::Req(1, Request::Create).encode_to_bytes())
            .unwrap();
        let frame = channel.recv_timeout(Duration::from_secs(5)).unwrap();
        match Envelope::decode_from_bytes(&frame).unwrap() {
            Envelope::Resp(1, Response::Error { kind, .. }) => assert_eq!(kind, "protocol"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn works_over_real_tcp() {
        let cat = catalog();
        let (server, addr) = Server::spawn_tcp(
            Arc::clone(&cat),
            ServerConfig::new(tmp("tcp")),
            "127.0.0.1:0",
        )
        .unwrap();
        let channel: Arc<dyn Channel> =
            Arc::new(displaydb_wire::TcpChannel::connect(addr).unwrap());
        channel
            .send(
                Envelope::Req(
                    1,
                    Request::Hello {
                        name: "tcp-client".into(),
                        resume: None,
                    },
                )
                .encode_to_bytes(),
            )
            .unwrap();
        let frame = channel.recv_timeout(Duration::from_secs(5)).unwrap();
        match Envelope::decode_from_bytes(&frame).unwrap() {
            Envelope::Resp(1, Response::HelloAck { catalog, .. }) => {
                let decoded = Catalog::decode_from_bytes(&catalog).unwrap();
                assert!(decoded.id_of("Node").is_some());
            }
            other => panic!("{other:?}"),
        }
        drop(server);
    }

    // --- the session's threads ---------------------------------------------

    /// A client whose requests never wait is served on its session
    /// thread alone: its commits start no thread and leave none behind.
    fn sequential_commits_start_no_worker(server: &Server, cat: &Catalog, c: &RawClient) {
        let oid = new_node(c, cat, "hot"); // warm-up commit
        let stats = server.core().stats();
        let spawned = stats.worker_spawns.get();
        assert_eq!(spawned, 0, "no request waited");
        for i in 0..200 {
            let mut obj = read_node(c, None, oid);
            obj.set(cat, "Load", f64::from(i)).unwrap();
            commit(c, None, vec![encoded(&obj)]);
        }
        assert_eq!(stats.commits.get(), 201);
        assert_eq!(stats.worker_spawns.get(), 0);
        assert_eq!(stats.workers_resident.get(), 0);
    }

    #[test]
    fn no_thread_is_created_on_the_commit_path() {
        let cat = catalog();
        let hub = LocalHub::new();
        let server =
            Server::spawn_local(Arc::clone(&cat), ServerConfig::new(tmp("hot")), &hub).unwrap();
        let (c, _) = RawClient::connect(&hub);
        sequential_commits_start_no_worker(&server, &cat, &c);
    }

    #[test]
    fn no_thread_is_created_on_the_commit_path_over_tcp() {
        let cat = catalog();
        let (server, addr) = Server::spawn_tcp(
            Arc::clone(&cat),
            ServerConfig::new(tmp("hot-tcp")),
            "127.0.0.1:0",
        )
        .unwrap();
        let channel = displaydb_wire::TcpChannel::connect(addr).unwrap();
        let (c, _) = RawClient::over(Arc::new(channel));
        sequential_commits_start_no_worker(&server, &cat, &c);
    }

    /// Why a request hands reading on before it waits: while C2's own
    /// request is parked in a lock wait, C2's session must still route
    /// the callback ack that C1's request is waiting for.
    #[test]
    fn acks_are_routed_while_the_sessions_request_is_blocked() {
        let cat = catalog();
        let hub = LocalHub::new();
        let config = ServerConfig::new(tmp("ackroute"));
        assert!(config.sync_callbacks);
        let server = Server::spawn_local(Arc::clone(&cat), config, &hub).unwrap();
        let (c1, _) = RawClient::connect(&hub);
        let (c2, id2) = RawClient::connect(&hub);
        let o = new_node(&c1, &cat, "cached-by-c2");
        let p = new_node(&c1, &cat, "contended");
        assert!(matches!(
            c2.call(Request::Read { txn: None, oid: o }),
            Response::Object { .. }
        ));

        let t1 = locked(&c1, None, p, WireLockMode::Exclusive);
        let waits = server.core().locks().stats().waits.get();
        let parked = c2.send(lock(None, p, WireLockMode::Exclusive));
        await_lock_waits(&server, waits + 1);

        // X on O calls C2's copy back and waits for C2's ack, which only
        // C2's session thread can route — past C2's parked request.
        let granted = c1.send(lock(Some(t1), o, WireLockMode::Exclusive));
        c2.ack_next_callback();
        assert_eq!(c1.wait(granted), Response::TxnStarted { txn: t1 });
        let session2 = server.core().sessions().get(id2).unwrap();
        assert_eq!(session2.in_flight(), 1, "C2's request is still parked");
        assert!(!c2.responses.lock().contains_key(&parked));

        commit(&c1, Some(t1), vec![]);
        let Response::TxnStarted { txn: t2 } = c2.wait(parked) else {
            panic!("C2's lock was not granted");
        };
        assert_eq!(c2.call(Request::Abort { txn: t2 }), Response::Ok);
        assert_eq!(session2.in_flight(), 0);
    }

    /// k blocked requests hold k threads besides the one reading their
    /// session's link; once they finish all but one end, and that one is
    /// parked as the spare.
    #[test]
    fn workers_grow_with_blocked_requests_and_retire_to_one() {
        let cat = catalog();
        let hub = LocalHub::new();
        let server =
            Server::spawn_local(Arc::clone(&cat), ServerConfig::new(tmp("grow")), &hub).unwrap();
        let stats = server.core().stats();
        let (c1, id1) = RawClient::connect(&hub);
        let (c2, _) = RawClient::connect(&hub);
        let p = new_node(&c1, &cat, "contended");
        let t1 = locked(&c1, None, p, WireLockMode::Exclusive);

        // Four readers from one session, each in a transaction of its
        // own (started by a lock on an object of its own), queue behind
        // the writer.
        let txns: Vec<TxnId> = (0..4)
            .map(|_| new_node(&c2, &cat, "own"))
            .map(|own| locked(&c2, None, own, WireLockMode::Update))
            .collect();
        let waits = server.core().locks().stats().waits.get();
        let parked: Vec<u64> = txns
            .iter()
            .map(|&txn| {
                c2.send(Request::Read {
                    txn: Some(txn),
                    oid: p,
                })
            })
            .collect();
        await_lock_waits(&server, waits + 4);
        // C2's four blocked requests; C1, whose requests never waited,
        // has no thread but its reader.
        eventually("one thread per blocked request", || {
            stats.workers_resident.get() == 4 && stats.worker_spawns.get() == 4
        });

        // Release the lock and take C1's session away, so that what
        // remains resident is C2's.
        commit(&c1, Some(t1), vec![]);
        c1.channel.close();
        for seq in parked {
            assert!(matches!(c2.wait(seq), Response::Object { .. }));
        }
        eventually("all but one blocked thread ended", || {
            server.core().sessions().get(id1).is_none() && stats.workers_resident.get() == 1
        });
        let spawned = stats.worker_spawns.get();
        for txn in txns {
            assert_eq!(c2.call(Request::Abort { txn }), Response::Ok);
        }
        assert_eq!(stats.worker_spawns.get(), spawned);
        assert_eq!(stats.workers_resident.get(), 1);
    }

    /// A session torn down with a request parked does not wait for it,
    /// and the thread left behind ends when its request does.
    #[test]
    fn teardown_with_a_parked_request_leaves_no_worker_behind() {
        let cat = catalog();
        let hub = LocalHub::new();
        let server =
            Server::spawn_local(Arc::clone(&cat), ServerConfig::new(tmp("teardown")), &hub)
                .unwrap();
        let (c1, _) = RawClient::connect(&hub);
        let (c2, id2) = RawClient::connect(&hub);
        let p = new_node(&c1, &cat, "contended");
        let t1 = locked(&c1, None, p, WireLockMode::Exclusive);
        let waits = server.core().locks().stats().waits.get();
        c2.send(lock(None, p, WireLockMode::Exclusive));
        await_lock_waits(&server, waits + 1);

        c2.channel.close();
        eventually("C2's session ended", || {
            server.core().sessions().get(id2).is_none()
        });
        commit(&c1, Some(t1), vec![]);
        c1.channel.close();
        eventually("every session and its threads gone", || {
            server.core().sessions().is_empty() && server.core().stats().workers_resident.get() == 0
        });
    }
}
