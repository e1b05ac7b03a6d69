//! The duplex client connection.
//!
//! A [`wire::Reader`](displaydb_wire::Reader) thread demultiplexes
//! everything arriving from the server: responses are matched to pending
//! calls by sequence number; pushes (cache callbacks, display
//! notifications) go to the connection's [`PushSink`]. Callback pushes
//! are acknowledged *from the reader thread* after the sink has
//! invalidated its cache, which is what makes the server's synchronous
//! callback protocol deadlock-free: this thread never blocks on server
//! work.
//!
//! The sink is installed once, before the first request
//! ([`Connection::install_sink`]): the server may push a callback for a
//! resumed copy before its `HelloAck`, and a callback that found no sink
//! would be acked without invalidating anything.
//!
//! ## Failure semantics
//!
//! The connection dies when its reader exits. The reader marks the
//! connection dead, then *drains every pending call* with
//! [`DbError::Disconnected`] — no RPC ever waits out its full timeout
//! against a connection known to be down — and ends, which disconnects
//! every receiver [`Connection::died`] handed out. The supervisor
//! ([`crate::supervisor`]) waits on one to start reconnecting.

use displaydb_common::ids::IdGen;
use displaydb_common::metrics::{Counter, RecoveryStats};
use displaydb_common::sync::{ranks, OrderedMutex};
use displaydb_common::{DbError, DbResult, Oid};
use displaydb_dlm::DlmEvent;
use displaydb_server::proto::{Envelope, Request, Response, ServerPush};
use displaydb_wire::{Channel, Decode, Encode, Reader};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
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

/// In-flight calls, each waiting on its response by sequence number.
type Pending = OrderedMutex<HashMap<u64, crossbeam::channel::Sender<Response>>>;

/// A live connection to the database server.
pub struct Connection {
    seq: IdGen,
    pending: Arc<Pending>,
    sink: Arc<OnceLock<Arc<dyn PushSink>>>,
    stats: ConnStats,
    call_timeout: Duration,
    reader: Reader,
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
        let pending: Arc<Pending> =
            Arc::new(OrderedMutex::new(ranks::CONN_PENDING, HashMap::new()));
        let sink: Arc<OnceLock<Arc<dyn PushSink>>> = Arc::default();
        let on_frame = {
            let (pending, sink, stats) = (Arc::clone(&pending), Arc::clone(&sink), stats.clone());
            let channel = Arc::clone(&channel);
            move |frame: bytes::Bytes| {
                stats.received.inc();
                match Envelope::decode_from_bytes(&frame) {
                    Ok(Envelope::Resp(seq, response)) => {
                        // Bind before the `if let`: a `pending.lock()`
                        // scrutinee would keep the guard alive across the
                        // channel send.
                        let waiter = pending.lock_or_recover().remove(&seq);
                        if let Some(tx) = waiter {
                            let _ = tx.send(response);
                        }
                    }
                    Ok(Envelope::Push(ServerPush::Callback { ack, oids })) => {
                        stats.callbacks.inc();
                        if let Some(sink) = sink.get() {
                            sink.on_invalidate(&oids);
                        }
                        stats.sent.inc();
                        let _ = channel.send(Envelope::PushAck(ack).encode_to_bytes());
                    }
                    Ok(Envelope::Push(ServerPush::Dlm(event))) => {
                        stats.dlm_events.inc();
                        event.record_stage(displaydb_common::trace::Stage::WireRecv);
                        if let Some(sink) = sink.get() {
                            sink.on_dlm(event);
                        }
                    }
                    Ok(_) | Err(_) => return false,
                }
                true
            }
        };
        // The channel is gone. Fail every in-flight call now — waiting
        // out call_timeout against a dead connection would just stall
        // the application.
        let on_exit = {
            let pending = Arc::clone(&pending);
            move || {
                let drained: Vec<_> = pending.lock_or_recover().drain().collect();
                for (_, tx) in drained {
                    let _ = tx.send(Response::Error {
                        kind: "disconnected".into(),
                        message: "connection lost".into(),
                    });
                }
            }
        };
        Arc::new(Self {
            seq: IdGen::starting_at(1),
            pending,
            sink,
            stats,
            call_timeout,
            reader: Reader::spawn(channel, "db-client-reader", on_frame, on_exit),
        })
    }

    /// Install the push sink (cache + DLC wiring). Call it once, before
    /// the first request: a push that arrives with no sink is acked and
    /// otherwise dropped, and a second sink is ignored.
    pub fn install_sink(&self, sink: Arc<dyn PushSink>) {
        let _ = self.sink.set(sink);
    }

    /// Connection statistics.
    pub fn stats(&self) -> &ConnStats {
        &self.stats
    }

    /// Whether the channel has died (reader thread exited).
    pub fn is_dead(&self) -> bool {
        self.reader.is_dead()
    }

    /// A receiver that disconnects when this connection dies (at once,
    /// if it already has).
    pub fn died(&self) -> crossbeam::channel::Receiver<()> {
        self.reader.died()
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
        let seq = self.seq.next();
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.pending.lock().insert(seq, tx);
        if let Err(e) = self.send(seq, request) {
            self.pending.lock().remove(&seq);
            return Err(e);
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

    /// Send one request and wait for nothing: with no pending entry, the
    /// reader drops its answer. For the reader thread's own requests.
    pub fn post(&self, request: &Request) -> DbResult<()> {
        self.send(self.seq.next(), request)
    }

    /// Send `request` under `seq`; fails fast once the connection is dead.
    fn send(&self, seq: u64, request: &Request) -> DbResult<()> {
        if self.is_dead() {
            return Err(DbError::Disconnected);
        }
        self.stats.sent.inc();
        let frame = Envelope::encode_req(seq, request);
        self.reader.channel().send(frame)
    }

    /// Close the connection; the reader thread terminates.
    pub fn close(&self) {
        self.reader.channel().close();
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
        conn.close();
        assert!(conn.call(Request::Ping).is_err());
        assert!(conn.pending.lock().is_empty());
    }
}
