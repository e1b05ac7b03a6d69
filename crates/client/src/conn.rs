//! The duplex client connection.
//!
//! One reader thread demultiplexes everything arriving from the server:
//! responses are matched to pending calls by sequence number; pushes
//! (cache callbacks, display notifications) are handed to the registered
//! [`PushSink`]. Callback pushes are acknowledged *from the reader thread*
//! after the sink has invalidated its cache, which is what makes the
//! server's synchronous callback protocol deadlock-free: this thread
//! never blocks on server work.
//!
//! ## Failure semantics
//!
//! When the channel dies the reader thread marks the connection dead,
//! *drains every pending call* with [`DbError::Disconnected`] — no RPC
//! ever waits out its full timeout against a connection known to be
//! down — and fires the registered death notifiers. The [`Supervisor`]
//! (crate::supervisor) listens on those notifiers to start reconnecting.

use displaydb_common::ids::IdGen;
use displaydb_common::metrics::{Counter, RecoveryStats};
use displaydb_common::sync::{ranks, OrderedMutex};
use displaydb_common::{DbError, DbResult, Oid};
use displaydb_dlm::DlmEvent;
use displaydb_server::proto::{Envelope, Request, Response, ServerPush};
use displaydb_wire::{Channel, Decode, Encode};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Receives asynchronous pushes from the server.
pub trait PushSink: Send + Sync {
    /// The server invalidated these cached objects (callback protocol).
    fn on_invalidate(&self, oids: &[Oid]);
    /// A display-lock notification arrived (integrated deployment).
    fn on_dlm(&self, event: DlmEvent);
}

/// Message counters for the experiment harness.
#[derive(Clone, Debug, Default)]
pub struct ConnStats {
    /// Frames sent to the server.
    pub sent: Counter,
    /// Frames received from the server.
    pub received: Counter,
    /// Callback invalidations processed.
    pub callbacks: Counter,
    /// Display notifications received.
    pub dlm_events: Counter,
    /// Calls retried after the server shed them with
    /// [`DbError::Overloaded`] (admission control).
    pub overload_retries: Counter,
    /// Reconnection and session-recovery counters.
    pub recovery: RecoveryStats,
}

impl ConnStats {
    /// Counter values for reports and the unified stats registry (the
    /// nested [`RecoveryStats`] registers as its own section).
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("sent", self.sent.get()),
            ("received", self.received.get()),
            ("callbacks", self.callbacks.get()),
            ("dlm_events", self.dlm_events.get()),
            ("overload_retries", self.overload_retries.get()),
        ]
    }
}

impl displaydb_common::stats::StatsSource for ConnStats {
    fn stat_values(&self) -> Vec<(&'static str, u64)> {
        self.snapshot()
    }
}

/// How many times one [`Connection::call`] retries a request the server
/// shed with [`DbError::Overloaded`] before giving the error to the
/// caller. A shed request was never admitted, so every retry is safe.
const OVERLOAD_RETRY_LIMIT: u32 = 5;

/// First retry delay after an [`DbError::Overloaded`] shed; doubles per
/// attempt up to [`OVERLOAD_BACKOFF_CAP`]. Worst-case added latency per
/// call is the geometric sum (~60 ms), well under any call timeout.
const OVERLOAD_BACKOFF_START: Duration = Duration::from_millis(2);

/// Ceiling for the per-attempt overload backoff delay.
const OVERLOAD_BACKOFF_CAP: Duration = Duration::from_millis(50);

/// A live connection to the database server.
pub struct Connection {
    channel: Arc<dyn Channel>,
    seq: IdGen,
    pending: Arc<OrderedMutex<HashMap<u64, crossbeam::channel::Sender<Response>>>>,
    sink: Arc<OrderedMutex<Option<Arc<dyn PushSink>>>>,
    stats: ConnStats,
    call_timeout: Duration,
    reader: OrderedMutex<Option<JoinHandle<()>>>,
    dead: Arc<AtomicBool>,
    death_watchers: Arc<OrderedMutex<Vec<crossbeam::channel::Sender<()>>>>,
}

impl Connection {
    /// Wrap `channel` and start the reader thread.
    pub fn new(channel: Box<dyn Channel>, call_timeout: Duration) -> Arc<Self> {
        Self::with_stats(channel, call_timeout, ConnStats::default())
    }

    /// Like [`Connection::new`], but accumulating into existing counters —
    /// a supervisor reconnect keeps one stats object across connection
    /// generations so the experiment report sees the whole history.
    pub fn with_stats(
        channel: Box<dyn Channel>,
        call_timeout: Duration,
        stats: ConnStats,
    ) -> Arc<Self> {
        let channel: Arc<dyn Channel> = Arc::from(channel);
        let conn = Arc::new(Self {
            channel: Arc::clone(&channel),
            seq: IdGen::starting_at(1),
            pending: Arc::new(OrderedMutex::new(ranks::CONN_PENDING, HashMap::new())),
            sink: Arc::new(OrderedMutex::new(ranks::CONN_SINK, None)),
            stats,
            call_timeout,
            reader: OrderedMutex::new(ranks::CONN_READER, None),
            dead: Arc::new(AtomicBool::new(false)),
            death_watchers: Arc::new(OrderedMutex::new(ranks::CONN_DEATH_WATCHERS, Vec::new())),
        });
        let pending = Arc::clone(&conn.pending);
        let sink = Arc::clone(&conn.sink);
        let stats = conn.stats.clone();
        let dead = Arc::clone(&conn.dead);
        let watchers = Arc::clone(&conn.death_watchers);
        let reader_channel = Arc::clone(&channel);
        let handle = std::thread::Builder::new()
            .name("db-client-reader".into())
            .spawn(move || {
                while let Ok(frame) = reader_channel.recv() {
                    stats.received.inc();
                    match Envelope::decode_from_bytes(&frame) {
                        Ok(Envelope::Resp(seq, response)) => {
                            // Bind before the `if let`: a `pending.lock()`
                            // scrutinee would keep the guard alive across
                            // the channel send.
                            let waiter = pending.lock_or_recover().remove(&seq);
                            if let Some(tx) = waiter {
                                let _ = tx.send(response);
                            }
                        }
                        Ok(Envelope::Push(ServerPush::Callback { ack, oids })) => {
                            stats.callbacks.inc();
                            // Clone the sink out so the callback (which may
                            // take cache locks) runs without the sink guard.
                            let cur = sink.lock_or_recover().clone();
                            if let Some(sink) = cur {
                                sink.on_invalidate(&oids);
                            }
                            stats.sent.inc();
                            let _ = reader_channel.send(Envelope::PushAck(ack).encode_to_bytes());
                        }
                        Ok(Envelope::Push(ServerPush::Dlm(event))) => {
                            stats.dlm_events.inc();
                            event.record_stage(displaydb_common::trace::Stage::WireRecv);
                            let cur = sink.lock_or_recover().clone();
                            if let Some(sink) = cur {
                                sink.on_dlm(event);
                            }
                        }
                        Ok(_) | Err(_) => break,
                    }
                }
                // The channel is gone. Fail every in-flight call now —
                // waiting out call_timeout against a dead connection
                // would just stall the application — then tell the
                // supervisor (if any) to start reconnecting.
                dead.store(true, Ordering::Release);
                let drained: Vec<_> = pending.lock_or_recover().drain().collect();
                for (_, tx) in drained {
                    let _ = tx.send(Response::Error {
                        kind: "disconnected".into(),
                        message: "connection lost".into(),
                    });
                }
                // Take the watcher list, then notify outside the lock.
                let watchers = std::mem::take(&mut *watchers.lock_or_recover());
                for tx in watchers {
                    let _ = tx.send(());
                }
            })
            .expect("spawn client reader");
        *conn.reader.lock() = Some(handle);
        conn
    }

    /// Register the push sink (cache + DLC wiring).
    pub fn set_push_sink(&self, sink: Arc<dyn PushSink>) {
        *self.sink.lock() = Some(sink);
    }

    /// Connection statistics.
    pub fn stats(&self) -> &ConnStats {
        &self.stats
    }

    /// Whether the channel has died (reader thread exited).
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Register a notifier fired (once) when the connection dies. If the
    /// connection is already dead the notification fires immediately, so
    /// registration cannot race with the reader's exit.
    pub fn on_death(&self, tx: crossbeam::channel::Sender<()>) {
        if self.is_dead() {
            let _ = tx.send(());
            return;
        }
        self.death_watchers.lock_or_recover().push(tx);
        // Re-check: the reader may have drained the watcher list between
        // the is_dead() check and the push.
        if self.is_dead() {
            let watchers = std::mem::take(&mut *self.death_watchers.lock_or_recover());
            for tx in watchers {
                let _ = tx.send(());
            }
        }
    }

    /// Issue one RPC and wait for its response. Error responses are
    /// converted to [`DbError`]. Fails fast with
    /// [`DbError::Disconnected`] when the connection is (or becomes)
    /// dead, rather than waiting out the call timeout.
    ///
    /// A server-side admission-control shed ([`DbError::Overloaded`]) is
    /// retried here with exponential backoff — the request was never
    /// admitted, so the retry cannot duplicate effects — and surfaces to
    /// the caller only after [`OVERLOAD_RETRY_LIMIT`] attempts, i.e.
    /// when the server stays saturated across the whole backoff window.
    pub fn call(&self, request: Request) -> DbResult<Response> {
        let mut backoff = OVERLOAD_BACKOFF_START;
        let mut attempts = 0u32;
        loop {
            match self.call_once(&request) {
                Err(DbError::Overloaded) if attempts < OVERLOAD_RETRY_LIMIT => {
                    attempts += 1;
                    self.stats.overload_retries.inc();
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(OVERLOAD_BACKOFF_CAP);
                }
                other => return other,
            }
        }
    }

    /// One RPC attempt, no overload retry. The request is only borrowed:
    /// the frame is encoded straight from it, and the rare retry encodes
    /// it again under its new sequence number.
    fn call_once(&self, request: &Request) -> DbResult<Response> {
        if self.is_dead() {
            return Err(DbError::Disconnected);
        }
        let seq = self.seq.next();
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.pending.lock().insert(seq, tx);
        self.stats.sent.inc();
        if let Err(e) = self.channel.send(Envelope::encode_req(seq, request)) {
            self.pending.lock().remove(&seq);
            // A send on a dead channel means disconnected, whatever the
            // transport reported.
            return match e {
                DbError::Disconnected => Err(DbError::Disconnected),
                other => Err(other),
            };
        }
        match rx.recv_timeout(self.call_timeout) {
            Ok(response) => response.into_result(),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                // Sender dropped without a response: reader died mid-call.
                Err(DbError::Disconnected)
            }
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                self.pending.lock().remove(&seq);
                Err(DbError::Timeout("rpc".into()))
            }
        }
    }

    /// Close the connection; the reader thread terminates.
    pub fn close(&self) {
        self.channel.close();
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        self.channel.close();
        // Bind before the `if let`: the scrutinee would keep the reader
        // guard alive across the join.
        let handle = self.reader.lock().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("dead", &self.is_dead())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use displaydb_common::Oid;
    use displaydb_server::proto::WriteForm;
    use displaydb_wire::local_pair;

    /// The next request the fake server end receives.
    fn next_request(server: &dyn Channel) -> (u64, Request) {
        let frame = server.recv_timeout(Duration::from_secs(10)).unwrap();
        match Envelope::decode_from_bytes(&frame).unwrap() {
            Envelope::Req(seq, request) => (seq, request),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn respond(server: &dyn Channel, seq: u64, response: Response) {
        server
            .send(Envelope::Resp(seq, response).encode_to_bytes())
            .unwrap();
    }

    #[test]
    fn a_late_response_to_a_timed_out_call_is_dropped() {
        let (client_end, server) = local_pair();
        let conn = Connection::new(Box::new(client_end), Duration::from_millis(100));
        // The first call goes unanswered and times out, taking its
        // pending entry with it.
        assert!(matches!(conn.call(Request::Ping), Err(DbError::Timeout(_))));
        let (stale, _) = next_request(&server);
        assert!(conn.pending.lock().is_empty());

        // Its answer arrives while a newer call waits: it must neither
        // complete that call nor disturb its slot.
        let caller = {
            let conn = Arc::clone(&conn);
            std::thread::spawn(move || conn.call(Request::Create))
        };
        let (seq, request) = next_request(&server);
        assert_eq!(request, Request::Create);
        assert_ne!(seq, stale);
        respond(&server, stale, Response::Ok);
        let oid = Oid::new(7);
        respond(&server, seq, Response::Created { oid });
        assert_eq!(caller.join().unwrap().unwrap(), Response::Created { oid });
        assert!(conn.pending.lock().is_empty());
        drop(server); // before `conn`, whose drop joins the reader
    }

    #[test]
    fn a_shed_call_is_sent_again_unchanged_under_a_new_seq() {
        let (client_end, server) = local_pair();
        let conn = Connection::new(Box::new(client_end), Duration::from_secs(10));
        let request = Request::Commit {
            txn: None,
            writes: vec![(Oid::new(3), WriteForm::Put(vec![7; 300]))],
            trace: 0,
        };
        let caller = {
            let (conn, request) = (Arc::clone(&conn), request.clone());
            std::thread::spawn(move || conn.call(request))
        };
        let (first, sent) = next_request(&server);
        assert_eq!(sent, request);
        respond(&server, first, Response::from_error(&DbError::Overloaded));
        let (second, resent) = next_request(&server);
        assert_eq!(resent, request);
        assert_ne!(second, first);
        respond(&server, second, Response::Ok);
        assert_eq!(caller.join().unwrap().unwrap(), Response::Ok);
        assert_eq!(conn.stats().overload_retries.get(), 1);
        drop(server); // before `conn`, whose drop joins the reader
    }

    #[test]
    fn a_call_that_fails_to_send_leaves_no_pending_entry() {
        let (client_end, server) = local_pair();
        let conn = Connection::new(Box::new(client_end), Duration::from_secs(10));
        drop(server);
        conn.channel.close();
        assert!(conn.call(Request::Ping).is_err());
        assert!(conn.pending.lock().is_empty());
    }
}
