//! Server lifecycle: accept loops and session threads.
//!
//! Each connection gets a *session thread* that only demultiplexes frames:
//! requests are dispatched to short-lived worker threads (so a request
//! blocked on a lock or a callback acknowledgement can never stall the
//! session's ability to route acknowledgements and pushes), and push-acks
//! are routed to their waiters.

use crate::core::{ServerConfig, ServerCore, SessionHandle};
use crate::proto::{Envelope, Request, Response};
use displaydb_common::{DbError, DbResult};
use displaydb_schema::Catalog;
use displaydb_wire::{Channel, Decode, Encode, Listener, LocalHub, TcpListenerWrapper};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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
        let mut accept_threads = Vec::new();
        for listener in listeners {
            let core = Arc::clone(&core);
            let shutdown = Arc::clone(&shutdown);
            accept_threads.push(
                std::thread::Builder::new()
                    .name("db-accept".into())
                    .spawn(move || {
                        while !shutdown.load(Ordering::Acquire) {
                            match listener.accept_timeout(Duration::from_millis(100)) {
                                Ok(channel) => {
                                    let core = Arc::clone(&core);
                                    let channel: Arc<dyn Channel> = Arc::from(channel);
                                    std::thread::Builder::new()
                                        .name("db-session".into())
                                        .spawn(move || session_loop(core, channel))
                                        .expect("spawn session thread");
                                }
                                Err(DbError::Timeout(_)) => continue,
                                Err(_) => break,
                            }
                        }
                    })
                    .expect("spawn accept thread"),
            );
        }
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
    // disconnect, only `resume_admission_max` session rebuilds run at a
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

    let client = handle.client;
    let max_in_flight = core.config().dlm.overload.max_in_flight;
    while let Ok(frame) = channel.recv() {
        match Envelope::decode_from_bytes(&frame) {
            Ok(Envelope::Req(seq, request)) => {
                // Admission control: a client pipelining more concurrent
                // requests than the per-session cap is shed with a
                // retryable `Overloaded` *before* a worker is spawned,
                // so a runaway client cannot monopolize worker threads.
                if !handle.try_admit(max_in_flight) {
                    core.dlm().stats().overload.sheds.inc();
                    send_response(&channel, seq, Response::from_error(&DbError::Overloaded));
                    continue;
                }
                // Dispatch to a worker so a blocked request never stops
                // this session from routing acks.
                let core = Arc::clone(&core);
                let channel = Arc::clone(&channel);
                let handle = Arc::clone(&handle);
                std::thread::Builder::new()
                    .name("db-worker".into())
                    .spawn(move || {
                        let response = core.handle(client, request);
                        handle.finish_request();
                        send_response(&channel, seq, response);
                    })
                    .expect("spawn worker thread");
            }
            Ok(Envelope::PushAck(ack)) => handle.handle_ack(ack),
            Ok(_) => break, // protocol violation
            Err(_) => break,
        }
    }
    core.disconnect_session(&handle);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::WireLockMode;
    use displaydb_common::{Oid, TxnId};
    use displaydb_schema::class::ClassBuilder;
    use displaydb_schema::{AttrType, DbObject};
    use parking_lot::Mutex;
    use std::collections::HashMap;
    use std::path::PathBuf;

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
            let channel: Arc<dyn Channel> = Arc::new(hub.connect().unwrap()) as _;
            let client = Self {
                channel,
                seq: std::sync::atomic::AtomicU64::new(1),
                pushes: Arc::new(Mutex::new(Vec::new())),
                responses: Arc::new(Mutex::new(HashMap::new())),
            };
            let ack = client.call(Request::Hello {
                name: "raw".into(),
                resume: None,
            });
            (client, ack)
        }

        fn call(&self, request: Request) -> Response {
            let seq = self.seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.channel
                .send(Envelope::Req(seq, request).encode_to_bytes())
                .unwrap();
            loop {
                let frame = self.channel.recv_timeout(Duration::from_secs(10)).unwrap();
                match Envelope::decode_from_bytes(&frame).unwrap() {
                    Envelope::Resp(s, resp) if s == seq => return resp,
                    Envelope::Resp(s, resp) => {
                        self.responses.lock().insert(s, resp);
                    }
                    Envelope::Push(push) => {
                        // Ack callbacks immediately like a real client.
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
    }

    fn make_node(cat: &Catalog, name: &str) -> Vec<u8> {
        DbObject::new_named(cat, "Node")
            .unwrap()
            .with(cat, "Name", name)
            .unwrap()
            .encode_to_bytes()
            .to_vec()
    }

    #[test]
    fn end_to_end_create_read_update() {
        let cat = catalog();
        let hub = LocalHub::new();
        let _server =
            Server::spawn_local(Arc::clone(&cat), ServerConfig::new(tmp("e2e")), &hub).unwrap();
        let (c1, _id1) = RawClient::connect(&hub);

        // Create in a transaction.
        let txn = match c1.call(Request::Begin) {
            Response::TxnStarted { txn } => txn,
            other => panic!("{other:?}"),
        };
        let oid = match c1.call(Request::Create {
            txn,
            object: make_node(&cat, "alpha"),
        }) {
            Response::Created { oid } => oid,
            other => panic!("{other:?}"),
        };
        assert!(matches!(
            c1.call(Request::Commit { txn, trace: 0 }),
            Response::Ok
        ));

        // Read it back without a transaction.
        match c1.call(Request::Read { txn: None, oid }) {
            Response::Object { bytes } => {
                let obj = DbObject::decode_from_bytes(&bytes).unwrap();
                assert_eq!(obj.get(&cat, "Name").unwrap().as_str().unwrap(), "alpha");
            }
            other => panic!("{other:?}"),
        }

        // Update it.
        let txn2 = match c1.call(Request::Begin) {
            Response::TxnStarted { txn } => txn,
            other => panic!("{other:?}"),
        };
        let mut obj = DbObject::decode_from_bytes(
            match &c1.call(Request::Read {
                txn: Some(txn2),
                oid,
            }) {
                Response::Object { bytes } => bytes,
                other => panic!("{other:?}"),
            },
        )
        .unwrap();
        obj.set(&cat, "Load", 0.9).unwrap();
        assert!(matches!(
            c1.call(Request::Write {
                txn: txn2,
                object: obj.encode_to_bytes().to_vec()
            }),
            Response::Ok
        ));
        assert!(matches!(
            c1.call(Request::Commit {
                txn: txn2,
                trace: 0
            }),
            Response::Ok
        ));

        match c1.call(Request::Read { txn: None, oid }) {
            Response::Object { bytes } => {
                let obj = DbObject::decode_from_bytes(&bytes).unwrap();
                assert_eq!(obj.get(&cat, "Load").unwrap().as_float().unwrap(), 0.9);
            }
            other => panic!("{other:?}"),
        }
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

        // c1 creates; c2 reads (and thus caches).
        let txn = match c1.call(Request::Begin) {
            Response::TxnStarted { txn } => txn,
            o => panic!("{o:?}"),
        };
        let oid = match c1.call(Request::Create {
            txn,
            object: make_node(&cat, "shared"),
        }) {
            Response::Created { oid } => oid,
            o => panic!("{o:?}"),
        };
        c1.call(Request::Commit { txn, trace: 0 });
        c2.call(Request::Read { txn: None, oid });

        // c1 updates: c2 must receive a callback before/at commit.
        let txn2 = match c1.call(Request::Begin) {
            Response::TxnStarted { txn } => txn,
            o => panic!("{o:?}"),
        };
        assert!(matches!(
            c1.call(Request::Lock {
                txn: txn2,
                oid,
                mode: WireLockMode::Exclusive
            }),
            Response::Ok
        ));
        c1.call(Request::Commit {
            txn: txn2,
            trace: 0,
        });

        // The callback was pushed to c2 (it acked inside call()).
        // Poll until the push shows up (delivery is asynchronous).
        let mut seen = false;
        for _ in 0..100 {
            c2.call(Request::Ping);
            if c2
                .pushes
                .lock()
                .iter()
                .any(|p| matches!(p, crate::proto::ServerPush::Callback { oids, .. } if oids.contains(&oid)))
            {
                seen = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(seen, "c2 never received a callback");
        assert!(server.core().stats().callbacks.get() >= 1);
    }

    #[test]
    fn integrated_display_notification() {
        let cat = catalog();
        let hub = LocalHub::new();
        let _server =
            Server::spawn_local(Arc::clone(&cat), ServerConfig::new(tmp("display")), &hub).unwrap();
        let (viewer, _) = RawClient::connect(&hub);
        let (updater, _) = RawClient::connect(&hub);

        let txn = match updater.call(Request::Begin) {
            Response::TxnStarted { txn } => txn,
            o => panic!("{o:?}"),
        };
        let oid = match updater.call(Request::Create {
            txn,
            object: make_node(&cat, "watched"),
        }) {
            Response::Created { oid } => oid,
            o => panic!("{o:?}"),
        };
        updater.call(Request::Commit { txn, trace: 0 });

        // Viewer display-locks the object.
        assert!(matches!(
            viewer.call(Request::DisplayLock { oids: vec![oid] }),
            Response::Ok
        ));

        // Updater modifies it.
        let txn2 = match updater.call(Request::Begin) {
            Response::TxnStarted { txn } => txn,
            o => panic!("{o:?}"),
        };
        let mut obj = DbObject::decode_from_bytes(
            match &updater.call(Request::Read {
                txn: Some(txn2),
                oid,
            }) {
                Response::Object { bytes } => bytes,
                o => panic!("{o:?}"),
            },
        )
        .unwrap();
        obj.set(&cat, "Load", 0.8).unwrap();
        updater.call(Request::Write {
            txn: txn2,
            object: obj.encode_to_bytes().to_vec(),
        });
        updater.call(Request::Commit {
            txn: txn2,
            trace: 0,
        });

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
    }

    #[test]
    fn write_conflict_blocks_second_writer() {
        let cat = catalog();
        let hub = LocalHub::new();
        let _server =
            Server::spawn_local(Arc::clone(&cat), ServerConfig::new(tmp("conflict")), &hub)
                .unwrap();
        let (c1, _) = RawClient::connect(&hub);
        let (c2, _) = RawClient::connect(&hub);

        let txn = match c1.call(Request::Begin) {
            Response::TxnStarted { txn } => txn,
            o => panic!("{o:?}"),
        };
        let oid = match c1.call(Request::Create {
            txn,
            object: make_node(&cat, "contested"),
        }) {
            Response::Created { oid } => oid,
            o => panic!("{o:?}"),
        };
        c1.call(Request::Commit { txn, trace: 0 });

        // c1 X-locks; c2's X request blocks until c1 commits.
        let t1 = match c1.call(Request::Begin) {
            Response::TxnStarted { txn } => txn,
            o => panic!("{o:?}"),
        };
        c1.call(Request::Lock {
            txn: t1,
            oid,
            mode: WireLockMode::Exclusive,
        });
        let t2 = match c2.call(Request::Begin) {
            Response::TxnStarted { txn } => txn,
            o => panic!("{o:?}"),
        };

        let started = std::time::Instant::now();
        let done = std::thread::spawn(move || {
            let resp = c2.call(Request::Lock {
                txn: t2,
                oid,
                mode: WireLockMode::Exclusive,
            });
            (resp, started.elapsed())
        });
        std::thread::sleep(Duration::from_millis(150));
        c1.call(Request::Commit { txn: t1, trace: 0 });
        let (resp, waited) = done.join().unwrap();
        assert!(matches!(resp, Response::Ok));
        assert!(
            waited >= Duration::from_millis(100),
            "second writer did not block: {waited:?}"
        );
    }

    #[test]
    fn disconnect_aborts_transactions_and_releases_locks() {
        let cat = catalog();
        let hub = LocalHub::new();
        let server =
            Server::spawn_local(Arc::clone(&cat), ServerConfig::new(tmp("disconnect")), &hub)
                .unwrap();
        let oid;
        {
            let (c1, _) = RawClient::connect(&hub);
            let txn = match c1.call(Request::Begin) {
                Response::TxnStarted { txn } => txn,
                o => panic!("{o:?}"),
            };
            oid = match c1.call(Request::Create {
                txn,
                object: make_node(&cat, "orphan"),
            }) {
                Response::Created { oid } => oid,
                o => panic!("{o:?}"),
            };
            // Drop without commit: connection closes.
            c1.channel.close();
        }
        // Wait for the session to clean up.
        for _ in 0..100 {
            if server.core().sessions().is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // The uncommitted object must not exist; a new client can lock it
        // freely (no leaked locks).
        let (c2, _) = RawClient::connect(&hub);
        assert!(matches!(
            c2.call(Request::Read { txn: None, oid }),
            Response::Error { .. }
        ));
        assert_eq!(server.core().store().object_count(), 0);
    }

    #[test]
    fn deadlock_reported_to_client() {
        let cat = catalog();
        let hub = LocalHub::new();
        let mut config = ServerConfig::new(tmp("deadlock"));
        config.lock.wait_timeout = Duration::from_secs(5);
        let _server = Server::spawn_local(Arc::clone(&cat), config, &hub).unwrap();
        let (c1, _) = RawClient::connect(&hub);
        let (c2, _) = RawClient::connect(&hub);

        let setup = match c1.call(Request::Begin) {
            Response::TxnStarted { txn } => txn,
            o => panic!("{o:?}"),
        };
        let oid_a = match c1.call(Request::Create {
            txn: setup,
            object: make_node(&cat, "a"),
        }) {
            Response::Created { oid } => oid,
            o => panic!("{o:?}"),
        };
        let oid_b = match c1.call(Request::Create {
            txn: setup,
            object: make_node(&cat, "b"),
        }) {
            Response::Created { oid } => oid,
            o => panic!("{o:?}"),
        };
        c1.call(Request::Commit {
            txn: setup,
            trace: 0,
        });

        let t1 = match c1.call(Request::Begin) {
            Response::TxnStarted { txn } => txn,
            o => panic!("{o:?}"),
        };
        let t2 = match c2.call(Request::Begin) {
            Response::TxnStarted { txn } => txn,
            o => panic!("{o:?}"),
        };
        assert!(matches!(
            c1.call(Request::Lock {
                txn: t1,
                oid: oid_a,
                mode: WireLockMode::Exclusive
            }),
            Response::Ok
        ));
        assert!(matches!(
            c2.call(Request::Lock {
                txn: t2,
                oid: oid_b,
                mode: WireLockMode::Exclusive
            }),
            Response::Ok
        ));
        // t1 -> b (blocks), t2 -> a (deadlock; t2 is younger, so t2 dies
        // either on its own request or via victim wakeup on t1's path).
        let c1_thread = std::thread::spawn(move || {
            c1.call(Request::Lock {
                txn: t1,
                oid: oid_b,
                mode: WireLockMode::Exclusive,
            })
        });
        std::thread::sleep(Duration::from_millis(100));
        let r2 = c2.call(Request::Lock {
            txn: t2,
            oid: oid_a,
            mode: WireLockMode::Exclusive,
        });
        let is_deadlock = matches!(&r2, Response::Error { kind, .. } if kind == "deadlock");
        assert!(is_deadlock, "expected deadlock error, got {r2:?}");
        c2.call(Request::Abort { txn: t2 });
        let r1 = c1_thread.join().unwrap();
        assert!(matches!(r1, Response::Ok));
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
            let txn = match c1.call(Request::Begin) {
                Response::TxnStarted { txn } => txn,
                o => panic!("{o:?}"),
            };
            oid = match c1.call(Request::Create {
                txn,
                object: make_node(&cat, "persistent"),
            }) {
                Response::Created { oid } => oid,
                o => panic!("{o:?}"),
            };
            c1.call(Request::Commit { txn, trace: 0 });
        }
        // New server over the same directory.
        let hub = LocalHub::new();
        let mut config = ServerConfig::new(&dir);
        config.sync_commits = true;
        let _server = Server::spawn_local(Arc::clone(&cat), config, &hub).unwrap();
        let (c1, _) = RawClient::connect(&hub);
        match c1.call(Request::Read { txn: None, oid }) {
            Response::Object { bytes } => {
                let obj = DbObject::decode_from_bytes(&bytes).unwrap();
                assert_eq!(
                    obj.get(&cat, "Name").unwrap().as_str().unwrap(),
                    "persistent"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn extent_lists_objects() {
        let cat = catalog();
        let hub = LocalHub::new();
        let _server =
            Server::spawn_local(Arc::clone(&cat), ServerConfig::new(tmp("extent")), &hub).unwrap();
        let (c1, _) = RawClient::connect(&hub);
        let txn = match c1.call(Request::Begin) {
            Response::TxnStarted { txn } => txn,
            o => panic!("{o:?}"),
        };
        let mut created = Vec::new();
        for i in 0..5 {
            match c1.call(Request::Create {
                txn,
                object: make_node(&cat, &format!("n{i}")),
            }) {
                Response::Created { oid } => created.push(oid),
                o => panic!("{o:?}"),
            }
        }
        c1.call(Request::Commit { txn, trace: 0 });
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

    #[test]
    fn unknown_resume_token_version_resumes_as_fresh_with_everything_stale() {
        use crate::proto::{ResumeRequest, ShardCursor};
        let cat = catalog();
        let hub = LocalHub::new();
        let _server =
            Server::spawn_local(Arc::clone(&cat), ServerConfig::new(tmp("resumever")), &hub)
                .unwrap();
        let (first, ack) = RawClient::handshake(&hub);
        let Response::HelloAck {
            session,
            incarnation,
            log_incarnations,
            ..
        } = ack
        else {
            panic!("unexpected {ack:?}");
        };
        let txn = match first.call(Request::Begin) {
            Response::TxnStarted { txn } => txn,
            other => panic!("unexpected {other:?}"),
        };
        let oid = match first.call(Request::Create {
            txn,
            object: make_node(&cat, "n"),
        }) {
            Response::Created { oid } => oid,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(first.call(Request::Commit { txn, trace: 0 }), Response::Ok);
        // What a reconnect would present to resume `first`'s session,
        // with a manifest entry at the object's current version —
        // provably current if the token is honoured.
        let resume = ResumeRequest {
            token: session,
            incarnation,
            manifest: vec![(oid, 1)],
            cursors: vec![ShardCursor {
                shard: 0,
                cursor: 0,
                log_incarnation: log_incarnations[0],
            }],
        };
        let hello = |resume: ResumeRequest| {
            Envelope::Req(
                1,
                Request::Hello {
                    name: "resumer".into(),
                    resume: Some(resume),
                },
            )
            .encode_to_bytes()
            .to_vec()
        };
        let handshake = |frame: Vec<u8>| {
            let channel = hub.connect().unwrap();
            channel.send(frame.into()).unwrap();
            let resp = channel.recv_timeout(Duration::from_secs(10)).unwrap();
            match Envelope::decode_from_bytes(&resp).unwrap() {
                Envelope::Resp(
                    1,
                    Response::HelloAck {
                        resumed,
                        stale,
                        replay_ok,
                        ..
                    },
                ) => (resumed, stale, replay_ok),
                other => panic!("unexpected {other:?}"),
            }
        };
        // The same token under a version byte this build does not know
        // (it sits right after the envelope tag, seq, request tag, name
        // and option tag): admitted, but as a fresh session with no
        // cursors — every manifest entry stale, no replay.
        let mut unknown = hello(resume.clone());
        let version_at = 1 + 1 + 1 + (1 + "resumer".len()) + 1;
        assert_eq!(unknown[version_at], 2, "resume token version byte");
        unknown[version_at] = 9;
        assert_eq!(handshake(unknown), (false, vec![oid], false));
        // Control: the token was not consumed, and in the version this
        // build speaks it resumes with the copy proven current.
        assert_eq!(handshake(hello(resume)), (true, vec![], true));
    }

    #[test]
    fn rejects_request_before_hello() {
        let cat = catalog();
        let hub = LocalHub::new();
        let _server =
            Server::spawn_local(Arc::clone(&cat), ServerConfig::new(tmp("nohello")), &hub).unwrap();
        let channel = hub.connect().unwrap();
        channel
            .send(Envelope::Req(1, Request::Begin).encode_to_bytes())
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
        // TxnId imported for symmetry with other tests.
        let _ = TxnId::new(0);
        let _ = Oid::new(0);
    }
}
