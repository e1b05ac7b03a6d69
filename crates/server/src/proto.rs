//! Client ↔ server protocol.
//!
//! One duplex connection per client carries three kinds of traffic,
//! multiplexed by the [`Envelope`]:
//!
//! * `Req`/`Resp` — sequence-numbered RPCs issued by the client;
//! * `Push` — asynchronous server-initiated messages: cache-consistency
//!   callbacks (which the client must acknowledge) and, in the integrated
//!   deployment, display-lock notifications;
//! * `PushAck` — the client's acknowledgement of an ack-bearing push.

use displaydb_common::{ClassId, ClientId, DbError, DbResult, Oid, TxnId};
use displaydb_dlm::proto::{decode_changes, decode_cursors, encode_changes, encode_cursors};
pub use displaydb_dlm::ShardCursor;
use displaydb_dlm::{AttrChanges, DlmEvent, DlmRequest};
use displaydb_wire::{Decode, Encode, WireReader, WireWriter};

/// Lock modes requestable over the wire (transactional subset).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireLockMode {
    /// Update-intention lock.
    Update,
    /// Exclusive lock.
    Exclusive,
}

impl Encode for WireLockMode {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(match self {
            WireLockMode::Update => 1,
            WireLockMode::Exclusive => 2,
        });
    }
}

impl Decode for WireLockMode {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        Ok(match r.get_u8()? {
            1 => WireLockMode::Update,
            2 => WireLockMode::Exclusive,
            t => return Err(DbError::Protocol(format!("unknown lock mode {t}"))),
        })
    }
}

/// How one object of a commit's write set travels.
#[derive(Clone, Debug, PartialEq)]
pub enum WriteForm {
    /// The encoded [`displaydb_schema::DbObject`] to store under the OID.
    Put(Vec<u8>),
    /// `changed` (a `DlmEvent::Delta`'s pairs) applied to the stored
    /// object if its `DbObject::fingerprint` is `base`, else refused as
    /// `DbError::StaleBase`.
    Patch {
        /// Fingerprint of the state the patch was computed against.
        base: u64,
        /// `(layout index, encoded value)` pairs, ascending by index.
        changed: AttrChanges,
    },
    /// Remove the object.
    Delete,
}

const WRITE_DELETE: u8 = 0;
const WRITE_PUT: u8 = 1;
const WRITE_PATCH: u8 = 2;

impl Encode for WriteForm {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            WriteForm::Delete => w.put_u8(WRITE_DELETE),
            WriteForm::Put(bytes) => {
                w.put_u8(WRITE_PUT);
                bytes.encode(w);
            }
            WriteForm::Patch { base, changed } => {
                w.put_u8(WRITE_PATCH);
                w.put_u64(*base);
                encode_changes(changed, w);
            }
        }
    }
}

impl Decode for WriteForm {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        Ok(match r.get_u8()? {
            WRITE_DELETE => WriteForm::Delete,
            WRITE_PUT => WriteForm::Put(Vec::<u8>::decode(r)?),
            WRITE_PATCH => WriteForm::Patch {
                base: r.get_u64()?,
                changed: decode_changes(r)?,
            },
            t => return Err(DbError::Protocol(format!("unknown write form {t}"))),
        })
    }
}

/// The session-resume half of a [`Request::Hello`]: presented by a client
/// that was previously connected and wants its server-side session state
/// (client id, copy-table registrations) rebuilt instead of starting fresh.
#[derive(Clone, Debug, PartialEq)]
pub struct ResumeRequest {
    /// The resume token issued in the previous [`Response::HelloAck`].
    pub token: u64,
    /// The server incarnation the token was issued by. A mismatch means the
    /// server restarted: the session starts fresh, and the manifest is
    /// still checked against the cursors.
    pub incarnation: u64,
    /// Every object in the client's cache at disconnect time. The server
    /// re-registers these in the copy table and reports which it cannot
    /// prove current.
    pub manifest: Vec<Oid>,
    /// The client's notification cursors (DESIGN.md §§ 13–14, 16), one
    /// per DLM shard, each with the log incarnation it was acked under.
    /// An admitted shard's log names what changed past its cursor, which
    /// proves the manifest's copies in that shard and lets the session
    /// catch up by replay instead of a resync.
    pub cursors: Vec<ShardCursor>,
}

impl Encode for ResumeRequest {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.token);
        w.put_varint(self.incarnation);
        self.manifest.encode(w);
        encode_cursors(&self.cursors, w);
    }
}

impl Decode for ResumeRequest {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        Ok(ResumeRequest {
            token: r.get_varint()?,
            incarnation: r.get_varint()?,
            manifest: Vec::<Oid>::decode(r)?,
            cursors: decode_cursors(r)?,
        })
    }
}

/// Client-issued requests.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Handshake; must be the first request on a connection.
    Hello {
        /// Human-readable client name (for diagnostics).
        name: String,
        /// Present when reconnecting: asks the server to rebuild the
        /// previous session instead of allocating a fresh one.
        resume: Option<ResumeRequest>,
    },
    /// Read an object (registers the client in the copy table, making the
    /// cached copy callback-protected).
    Read {
        /// Reading transaction, if any: the read is re-entrant with the
        /// locks that transaction holds. What it returns is committed
        /// state either way.
        txn: Option<TxnId>,
        /// The object.
        oid: Oid,
    },
    /// Read several objects at once (one round-trip).
    ReadMany {
        /// Reading transaction, if any.
        txn: Option<TxnId>,
        /// The objects.
        oids: Vec<Oid>,
    },
    /// Acquire a transactional lock ahead of the commit, answered with
    /// [`Response::TxnStarted`]. Exclusive grants trigger callbacks to
    /// other caching clients and early-notify marks to display holders.
    Lock {
        /// The locking transaction; `None` starts one. A server-side
        /// transaction exists only from here to its `Commit`/`Abort`.
        txn: Option<TxnId>,
        /// The object.
        oid: Oid,
        /// Requested mode.
        mode: WireLockMode,
    },
    /// Allocate the OID of an object to be created, answered with
    /// [`Response::Created`]. The object itself travels in the creating
    /// transaction's `Commit`.
    Create,
    /// Commit: X-lock the write set, make it durable, release every lock
    /// the transaction holds, notify display holders — or do none of it.
    Commit {
        /// The transaction, if explicit locks started one; `None` for
        /// one that lives only for this request.
        txn: Option<TxnId>,
        /// The write set, at most one entry per object.
        writes: Vec<(Oid, WriteForm)>,
        /// End-to-end trace id minted by the committing client
        /// (DESIGN.md § 12); `0` when the client is not tracing. The
        /// server stamps it onto every notification this commit
        /// produces.
        trace: displaydb_common::TraceId,
    },
    /// Abort: release the transaction's locks.
    Abort {
        /// The transaction.
        txn: TxnId,
    },
    /// List all objects of a class.
    Extent {
        /// The class.
        class: ClassId,
        /// Include objects of subclasses.
        include_subclasses: bool,
    },
    /// A display-lock request to the server's embedded DLM (integrated
    /// deployment): the same [`DlmRequest`] a client of the standalone
    /// agent sends, one vocabulary for both deployments of fig. 3.
    /// Fire-and-forget semantics — outcomes arrive as `ServerPush::Dlm`
    /// — but carried as an RPC so callers can fence on the answer. The
    /// server refuses the variants an integrated client has no business
    /// sending (`Hello` and the three reports).
    Dlm(DlmRequest),
    /// Force a checkpoint (flush heap, truncate WAL).
    Checkpoint,
    /// Liveness probe.
    Ping,
}

/// Server responses.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Handshake reply.
    HelloAck {
        /// The id assigned to this client.
        client: ClientId,
        /// Encoded [`displaydb_schema::Catalog`].
        catalog: Vec<u8>,
        /// Resume token to present on reconnect.
        session: u64,
        /// Server incarnation (changes when the server restarts).
        incarnation: u64,
        /// Session epoch: 0 for a fresh session, incremented on each
        /// successful resume. Pushes from earlier epochs are obsolete.
        epoch: u64,
        /// Whether the previous session was found and rebuilt.
        resumed: bool,
        /// Manifest entries whose currency the update log could not
        /// prove. The client must invalidate these before serving them
        /// again.
        stale: Vec<Oid>,
        /// Whether at least one shard admitted the client's cursor for
        /// it: the client should catch up with a `ReplayFrom` instead of
        /// resyncing `stale`. With a durable log this can hold even
        /// across a server restart (DESIGN.md § 14). Always false for a
        /// `Hello` without cursors.
        replay_ok: bool,
        /// Per-shard update-log incarnations (index = shard id, never 0;
        /// [`displaydb_dlm::ShardedDlm::incarnations`]). The client keeps
        /// these alongside its per-shard cursors and echoes them in
        /// replay requests and the next resume's cursor vector; their
        /// count is the DLM's shard count.
        log_incarnations: Vec<u64>,
    },
    /// A [`Request::Lock`] was granted.
    TxnStarted {
        /// The transaction that now holds the lock: the one the request
        /// named, or the one it started.
        txn: TxnId,
    },
    /// One object's encoded state.
    Object {
        /// Encoded object.
        bytes: Vec<u8>,
    },
    /// Several objects' encoded states (order matches the request; missing
    /// objects are `None`).
    Objects {
        /// Encoded objects.
        objects: Vec<Option<Vec<u8>>>,
    },
    /// Object created.
    Created {
        /// The assigned OID.
        oid: Oid,
    },
    /// A list of OIDs.
    Oids {
        /// The OIDs.
        oids: Vec<Oid>,
    },
    /// Generic success.
    Ok,
    /// Failure.
    Error {
        /// Machine-readable error category (see
        /// [`displaydb_common::DbError::kind`]).
        kind: String,
        /// Human-readable message.
        message: String,
    },
}

impl Response {
    /// Convert an error into its wire form.
    pub fn from_error(e: &DbError) -> Self {
        Response::Error {
            kind: e.kind().to_string(),
            message: e.to_string(),
        }
    }

    /// Convert a wire error back into a [`DbError`]. Only the retryable
    /// kinds survive the wire as themselves; every other kind arrives as
    /// `Rejected` with the original message (see the `DbError` taxonomy).
    pub fn into_result(self) -> DbResult<Response> {
        match self {
            Response::Error { kind, message } => Err(match kind.as_str() {
                "deadlock" => DbError::Deadlock {
                    victim: TxnId::new(0),
                },
                "lock_timeout" => DbError::LockTimeout { oid: Oid::new(0) },
                "disconnected" => DbError::Disconnected,
                "timeout" => DbError::Timeout(message),
                "overloaded" => DbError::Overloaded,
                "stale_base" => DbError::StaleBase { oid: Oid::new(0) },
                _ => DbError::Rejected(message),
            }),
            other => Ok(other),
        }
    }
}

/// Server-initiated pushes.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerPush {
    /// Avoidance-protocol callback: drop these objects from the client
    /// database cache and acknowledge with the given id.
    Callback {
        /// Ack id to echo in [`Envelope::PushAck`].
        ack: u64,
        /// Objects to invalidate.
        oids: Vec<Oid>,
    },
    /// A display-lock notification (integrated deployment).
    Dlm(DlmEvent),
}

/// The connection multiplexing envelope.
#[derive(Clone, Debug, PartialEq)]
pub enum Envelope {
    /// A client request with its sequence number.
    Req(u64, Request),
    /// The server's response to the request with that sequence number.
    Resp(u64, Response),
    /// A server push.
    Push(ServerPush),
    /// Client acknowledgement of an ack-bearing push.
    PushAck(u64),
}

// --- encoding -------------------------------------------------------------

const REQ_HELLO: u8 = 1;
const REQ_READ: u8 = 3;
const REQ_READ_MANY: u8 = 4;
const REQ_ABORT: u8 = 10;
const REQ_EXTENT: u8 = 11;
const REQ_CHECKPOINT: u8 = 14;
const REQ_PING: u8 = 15;
const REQ_DLM: u8 = 18;
const REQ_CREATE: u8 = 19;
const REQ_COMMIT: u8 = 20;
const REQ_LOCK: u8 = 21;
// Retired, never reused: 2, 7 and 8 were `Begin`, `Write` and `Delete`;
// 5, 6 and 9 the `Lock`, `Create` and `Commit` of transactions the server
// buffered write by write; 12, 13, 16 and 17 `DisplayLock`,
// `DisplayRelease`, `DisplayLockProjected` and `ReplayFrom`.

impl Encode for Request {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Request::Hello { name, resume } => {
                w.put_u8(REQ_HELLO);
                name.encode(w);
                resume.encode(w);
            }
            Request::Read { txn, oid } => {
                w.put_u8(REQ_READ);
                txn.encode(w);
                oid.encode(w);
            }
            Request::ReadMany { txn, oids } => {
                w.put_u8(REQ_READ_MANY);
                txn.encode(w);
                oids.encode(w);
            }
            Request::Lock { txn, oid, mode } => {
                w.put_u8(REQ_LOCK);
                txn.encode(w);
                oid.encode(w);
                mode.encode(w);
            }
            Request::Create => w.put_u8(REQ_CREATE),
            Request::Commit { txn, writes, trace } => {
                w.put_u8(REQ_COMMIT);
                txn.encode(w);
                w.put_varint(writes.len() as u64);
                writes.iter().for_each(|write| write.encode(w));
                w.put_varint(*trace);
            }
            Request::Abort { txn } => {
                w.put_u8(REQ_ABORT);
                txn.encode(w);
            }
            Request::Extent {
                class,
                include_subclasses,
            } => {
                w.put_u8(REQ_EXTENT);
                class.encode(w);
                include_subclasses.encode(w);
            }
            Request::Dlm(request) => {
                w.put_u8(REQ_DLM);
                request.encode(w);
            }
            Request::Checkpoint => w.put_u8(REQ_CHECKPOINT),
            Request::Ping => w.put_u8(REQ_PING),
        }
    }
}

impl Decode for Request {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        Ok(match r.get_u8()? {
            REQ_HELLO => Request::Hello {
                name: String::decode(r)?,
                resume: Option::<ResumeRequest>::decode(r)?,
            },
            REQ_READ => Request::Read {
                txn: Option::<TxnId>::decode(r)?,
                oid: Oid::decode(r)?,
            },
            REQ_READ_MANY => Request::ReadMany {
                txn: Option::<TxnId>::decode(r)?,
                oids: Vec::<Oid>::decode(r)?,
            },
            REQ_LOCK => Request::Lock {
                txn: Option::<TxnId>::decode(r)?,
                oid: Oid::decode(r)?,
                mode: WireLockMode::decode(r)?,
            },
            REQ_CREATE => Request::Create,
            REQ_COMMIT => {
                let txn = Option::<TxnId>::decode(r)?;
                let n = r.get_varint()? as usize;
                let mut writes = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    writes.push(<(Oid, WriteForm)>::decode(r)?);
                }
                Request::Commit {
                    txn,
                    writes,
                    trace: r.get_varint()?,
                }
            }
            REQ_ABORT => Request::Abort {
                txn: TxnId::decode(r)?,
            },
            REQ_EXTENT => Request::Extent {
                class: ClassId::decode(r)?,
                include_subclasses: bool::decode(r)?,
            },
            REQ_CHECKPOINT => Request::Checkpoint,
            REQ_PING => Request::Ping,
            REQ_DLM => Request::Dlm(DlmRequest::decode(r)?),
            t => return Err(DbError::Protocol(format!("unknown request tag {t}"))),
        })
    }
}

const RESP_HELLO_ACK: u8 = 1;
const RESP_TXN: u8 = 2;
const RESP_OBJECT: u8 = 3;
const RESP_OBJECTS: u8 = 4;
const RESP_CREATED: u8 = 5;
const RESP_OIDS: u8 = 6;
const RESP_OK: u8 = 7;
const RESP_ERROR: u8 = 8;

impl Encode for Response {
    fn encode(&self, w: &mut WireWriter) {
        match self {
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
            } => {
                w.put_u8(RESP_HELLO_ACK);
                client.encode(w);
                catalog.encode(w);
                w.put_varint(*session);
                w.put_varint(*incarnation);
                w.put_varint(*epoch);
                resumed.encode(w);
                stale.encode(w);
                replay_ok.encode(w);
                log_incarnations.encode(w);
            }
            Response::TxnStarted { txn } => {
                w.put_u8(RESP_TXN);
                txn.encode(w);
            }
            Response::Object { bytes } => {
                w.put_u8(RESP_OBJECT);
                bytes.encode(w);
            }
            Response::Objects { objects } => {
                w.put_u8(RESP_OBJECTS);
                w.put_varint(objects.len() as u64);
                for o in objects {
                    o.encode(w);
                }
            }
            Response::Created { oid } => {
                w.put_u8(RESP_CREATED);
                oid.encode(w);
            }
            Response::Oids { oids } => {
                w.put_u8(RESP_OIDS);
                oids.encode(w);
            }
            Response::Ok => w.put_u8(RESP_OK),
            Response::Error { kind, message } => {
                w.put_u8(RESP_ERROR);
                kind.encode(w);
                message.encode(w);
            }
        }
    }
}

impl Decode for Response {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        Ok(match r.get_u8()? {
            RESP_HELLO_ACK => Response::HelloAck {
                client: ClientId::decode(r)?,
                catalog: Vec::<u8>::decode(r)?,
                session: r.get_varint()?,
                incarnation: r.get_varint()?,
                epoch: r.get_varint()?,
                resumed: bool::decode(r)?,
                stale: Vec::<Oid>::decode(r)?,
                replay_ok: bool::decode(r)?,
                log_incarnations: Vec::<u64>::decode(r)?,
            },
            RESP_TXN => Response::TxnStarted {
                txn: TxnId::decode(r)?,
            },
            RESP_OBJECT => Response::Object {
                bytes: Vec::<u8>::decode(r)?,
            },
            RESP_OBJECTS => {
                let n = r.get_varint()? as usize;
                let mut objects = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    objects.push(Option::<Vec<u8>>::decode(r)?);
                }
                Response::Objects { objects }
            }
            RESP_CREATED => Response::Created {
                oid: Oid::decode(r)?,
            },
            RESP_OIDS => Response::Oids {
                oids: Vec::<Oid>::decode(r)?,
            },
            RESP_OK => Response::Ok,
            RESP_ERROR => Response::Error {
                kind: String::decode(r)?,
                message: String::decode(r)?,
            },
            t => return Err(DbError::Protocol(format!("unknown response tag {t}"))),
        })
    }
}

const PUSH_CALLBACK: u8 = 1;
const PUSH_DLM: u8 = 2;

impl Encode for ServerPush {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ServerPush::Callback { ack, oids } => {
                w.put_u8(PUSH_CALLBACK);
                w.put_varint(*ack);
                oids.encode(w);
            }
            ServerPush::Dlm(event) => {
                w.put_u8(PUSH_DLM);
                event.encode(w);
            }
        }
    }
}

impl Decode for ServerPush {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        Ok(match r.get_u8()? {
            PUSH_CALLBACK => ServerPush::Callback {
                ack: r.get_varint()?,
                oids: Vec::<Oid>::decode(r)?,
            },
            PUSH_DLM => ServerPush::Dlm(DlmEvent::decode(r)?),
            t => return Err(DbError::Protocol(format!("unknown push tag {t}"))),
        })
    }
}

const ENV_REQ: u8 = 1;
const ENV_RESP: u8 = 2;
const ENV_PUSH: u8 = 3;
const ENV_PUSH_ACK: u8 = 4;

impl Envelope {
    /// The frame of `Envelope::Req(seq, request)`, encoded from a
    /// borrowed request: a caller that may have to send the request again
    /// under a new sequence number keeps it instead of cloning it.
    pub fn encode_req(seq: u64, request: &Request) -> bytes::Bytes {
        let mut w = WireWriter::new();
        put_req(&mut w, seq, request);
        w.finish()
    }
}

fn put_req(w: &mut WireWriter, seq: u64, request: &Request) {
    w.put_u8(ENV_REQ);
    w.put_varint(seq);
    request.encode(w);
}

impl Encode for Envelope {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Envelope::Req(seq, req) => put_req(w, *seq, req),
            Envelope::Resp(seq, resp) => {
                w.put_u8(ENV_RESP);
                w.put_varint(*seq);
                resp.encode(w);
            }
            Envelope::Push(push) => {
                w.put_u8(ENV_PUSH);
                push.encode(w);
            }
            Envelope::PushAck(ack) => {
                w.put_u8(ENV_PUSH_ACK);
                w.put_varint(*ack);
            }
        }
    }
}

impl Decode for Envelope {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        Ok(match r.get_u8()? {
            ENV_REQ => Envelope::Req(r.get_varint()?, Request::decode(r)?),
            ENV_RESP => Envelope::Resp(r.get_varint()?, Response::decode(r)?),
            ENV_PUSH => Envelope::Push(ServerPush::decode(r)?),
            ENV_PUSH_ACK => Envelope::PushAck(r.get_varint()?),
            t => return Err(DbError::Protocol(format!("unknown envelope tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use displaydb_dlm::UpdateInfo;
    use displaydb_schema::Value;

    fn rt(e: Envelope) {
        let bytes = e.encode_to_bytes();
        assert_eq!(Envelope::decode_from_bytes(&bytes).unwrap(), e);
    }

    #[test]
    fn encode_req_is_the_req_envelope() {
        let request = Request::Commit {
            txn: Some(TxnId::new(5)),
            writes: vec![(Oid::new(4), WriteForm::Put(vec![1, 2, 3]))],
            trace: 0,
        };
        assert_eq!(
            Envelope::encode_req(300, &request),
            Envelope::Req(300, request).encode_to_bytes()
        );
    }

    #[test]
    fn envelope_roundtrips() {
        rt(Envelope::Req(
            7,
            Request::Hello {
                name: "nms-console".into(),
                resume: None,
            },
        ));
        rt(Envelope::Req(
            7,
            Request::Hello {
                name: "nms-console".into(),
                resume: Some(ResumeRequest {
                    token: 0xdead_beef,
                    incarnation: 42,
                    manifest: vec![Oid::new(1), Oid::new(9)],
                    cursors: vec![
                        ShardCursor {
                            shard: 0,
                            cursor: 1234,
                            log_incarnation: 0xfeed,
                        },
                        ShardCursor {
                            shard: 3,
                            cursor: 0,
                            log_incarnation: 0,
                        },
                        ShardCursor {
                            shard: 7,
                            cursor: u64::MAX,
                            log_incarnation: u64::MAX,
                        },
                    ],
                }),
            },
        ));
        rt(Envelope::Req(
            7,
            Request::Hello {
                name: "nms-console".into(),
                resume: Some(ResumeRequest {
                    token: 1,
                    incarnation: 1,
                    manifest: vec![],
                    cursors: vec![],
                }),
            },
        ));
        rt(Envelope::Req(8, Request::Create));
        rt(Envelope::Req(
            9,
            Request::Read {
                txn: Some(TxnId::new(3)),
                oid: Oid::new(4),
            },
        ));
        rt(Envelope::Req(
            10,
            Request::ReadMany {
                txn: None,
                oids: vec![Oid::new(1), Oid::new(2)],
            },
        ));
        rt(Envelope::Req(
            11,
            Request::Lock {
                txn: Some(TxnId::new(3)),
                oid: Oid::new(4),
                mode: WireLockMode::Exclusive,
            },
        ));
        rt(Envelope::Req(
            13,
            Request::Commit {
                txn: Some(TxnId::new(3)),
                writes: vec![],
                trace: 0,
            },
        ));
        rt(Envelope::Req(
            17,
            Request::Commit {
                txn: None,
                writes: vec![
                    (Oid::new(4), WriteForm::Put(vec![1, 2, 3])),
                    (Oid::new(9), WriteForm::Delete),
                    (
                        Oid::new(11),
                        WriteForm::Patch {
                            base: u64::MAX,
                            changed: vec![(1, vec![2, 3]), (9, vec![])],
                        },
                    ),
                ],
                trace: u64::MAX,
            },
        ));
        rt(Envelope::Req(
            14,
            Request::Extent {
                class: ClassId::new(2),
                include_subclasses: true,
            },
        ));
        rt(Envelope::Req(
            15,
            Request::Dlm(DlmRequest::Lock {
                oids: vec![Oid::new(9)],
            }),
        ));
        rt(Envelope::Req(
            16,
            Request::Dlm(DlmRequest::LockProjected {
                oids: vec![Oid::new(9), Oid::new(10)],
                attrs: vec![1, 3, 500],
                version: 6,
            }),
        ));
        rt(Envelope::Req(
            18,
            Request::Dlm(DlmRequest::ReplayFrom { cursors: vec![] }),
        ));
        rt(Envelope::Req(
            19,
            Request::Dlm(DlmRequest::ReplayFrom {
                cursors: vec![
                    ShardCursor {
                        shard: 0,
                        cursor: 17,
                        log_incarnation: 0,
                    },
                    ShardCursor {
                        shard: 7,
                        cursor: u64::MAX,
                        log_incarnation: u64::MAX,
                    },
                ],
            }),
        ));
        rt(Envelope::Push(ServerPush::Dlm(DlmEvent::CursorAck {
            shard: 0,
            seqno: 912,
        })));
        rt(Envelope::Push(ServerPush::Dlm(DlmEvent::ReplayNeeded {
            shard: 3,
            from: 907,
        })));
        rt(Envelope::Push(ServerPush::Dlm(DlmEvent::Delta {
            oid: Oid::new(5),
            version: 2,
            changed: vec![(1, vec![7, 8])],
            trace: 41,
        })));
        rt(Envelope::Push(ServerPush::Dlm(DlmEvent::Batch(vec![
            DlmEvent::Updated(UpdateInfo::lazy(Oid::new(5))),
            DlmEvent::Delta {
                oid: Oid::new(6),
                version: 1,
                changed: vec![(0, vec![1])],
                trace: 0,
            },
        ]))));
        rt(Envelope::Resp(
            7,
            Response::HelloAck {
                client: ClientId::new(1),
                catalog: vec![0, 1],
                session: 99,
                incarnation: 7,
                epoch: 2,
                resumed: true,
                stale: vec![Oid::new(9)],
                replay_ok: true,
                log_incarnations: vec![4242, 0, 977],
            },
        ));
        rt(Envelope::Resp(
            9,
            Response::Objects {
                objects: vec![Some(vec![1]), None],
            },
        ));
        rt(Envelope::Resp(
            10,
            Response::Error {
                kind: "deadlock".into(),
                message: "boom".into(),
            },
        ));
        rt(Envelope::Push(ServerPush::Callback {
            ack: 77,
            oids: vec![Oid::new(5)],
        }));
        rt(Envelope::Push(ServerPush::Dlm(DlmEvent::Updated(
            UpdateInfo::lazy(Oid::new(5)),
        ))));
        rt(Envelope::PushAck(77));
    }

    /// Round-trip `request` and pin its wire tag: the numbers are
    /// written out here so a renumbering fails a test instead of
    /// shifting `wire_bytes_per_commit`.
    fn rt_req(tag: u8, request: Request) {
        let bytes = request.encode_to_bytes();
        assert_eq!(bytes[0], tag, "wire tag of {request:?}");
        assert_eq!(Request::decode_from_bytes(&bytes).unwrap(), request);
    }

    #[test]
    fn request_roundtrips_with_pinned_tags() {
        let txn = TxnId::new(3);
        let oid = Oid::new(4);
        rt_req(
            1,
            Request::Hello {
                name: "nms-console".into(),
                resume: None,
            },
        );
        rt_req(3, Request::Read { txn: None, oid });
        rt_req(
            4,
            Request::ReadMany {
                txn: Some(txn),
                oids: vec![oid],
            },
        );
        rt_req(10, Request::Abort { txn });
        rt_req(
            11,
            Request::Extent {
                class: ClassId::new(2),
                include_subclasses: false,
            },
        );
        rt_req(14, Request::Checkpoint);
        rt_req(15, Request::Ping);
        rt_req(19, Request::Create);
        rt_req(
            20,
            Request::Commit {
                txn: None,
                writes: vec![
                    (oid, WriteForm::Put(vec![1, 2])),
                    (Oid::new(5), WriteForm::Delete),
                ],
                trace: 77,
            },
        );
        for txn in [None, Some(txn)] {
            rt_req(
                21,
                Request::Lock {
                    txn,
                    oid,
                    mode: WireLockMode::Update,
                },
            );
        }
        // Tag 18 carries `DlmRequest`'s own codec untouched: all eight
        // variants cross, their inner tags following the outer one.
        let oids = vec![Oid::new(9), Oid::new(10)];
        for (inner, request) in [
            (
                1,
                DlmRequest::Hello {
                    client: ClientId::new(9),
                },
            ),
            (2, DlmRequest::Lock { oids: oids.clone() }),
            (3, DlmRequest::Release { oids: oids.clone() }),
            (
                4,
                DlmRequest::UpdateCommitted {
                    updates: vec![UpdateInfo::eager(oid, vec![1, 2, 3]).with_trace(5)],
                },
            ),
            (
                5,
                DlmRequest::WriteIntent {
                    oids: oids.clone(),
                    txn,
                },
            ),
            (
                6,
                DlmRequest::Resolution {
                    oids: oids.clone(),
                    txn,
                    committed: true,
                },
            ),
            (
                8,
                DlmRequest::LockProjected {
                    oids,
                    attrs: vec![1, 3, 500],
                    version: 6,
                },
            ),
            (
                9,
                DlmRequest::ReplayFrom {
                    cursors: vec![ShardCursor {
                        shard: 7,
                        cursor: u64::MAX,
                        log_incarnation: u64::MAX,
                    }],
                },
            ),
        ] {
            let inner_bytes = request.encode_to_bytes();
            assert_eq!(inner_bytes[0], inner, "inner tag of {request:?}");
            let request = Request::Dlm(request);
            assert_eq!(request.encode_to_bytes()[1..], inner_bytes[..]);
            rt_req(18, request);
        }
    }

    /// A commit's write forms, with their tags pinned: a put and a
    /// delete are the bytes the `Option<object bytes>` before them were,
    /// and a patch is its 8-byte base beside a `Delta`'s change set.
    #[test]
    fn write_forms_roundtrip_with_pinned_tags() {
        let patch = WriteForm::Patch {
            base: 0x0123_4567_89ab_cdef,
            changed: vec![(1, Value::Float(0.5).encode_to_bytes().to_vec())],
        };
        for (tag, form, len) in [
            (1, WriteForm::Put(vec![7; 49]), 1 + 1 + 49),
            (2, patch, 1 + 8 + 1 + 1 + 1 + 9),
            (0, WriteForm::Delete, 1),
        ] {
            let bytes = form.encode_to_bytes();
            assert_eq!((bytes[0], bytes.len()), (tag, len), "{form:?}");
            assert_eq!(WriteForm::decode_from_bytes(&bytes).unwrap(), form);
        }
        assert_eq!(
            WriteForm::Put(vec![7; 3]).encode_to_bytes(),
            Some(vec![7u8; 3]).encode_to_bytes()
        );
        assert_eq!(
            WriteForm::Delete.encode_to_bytes(),
            None::<Vec<u8>>.encode_to_bytes()
        );
        assert!(matches!(
            WriteForm::decode_from_bytes(&[3]),
            Err(DbError::Protocol(_))
        ));
    }

    /// A count read off the wire reserves at most a bounded amount before
    /// the input runs out: a commit claiming 2^40 writes, or a patch 2^40
    /// pairs, fails on its missing bytes instead of allocating for them.
    #[test]
    fn commit_counts_are_bounded_on_decode() {
        let huge = 1u64 << 40;
        let many_writes = {
            let mut w = WireWriter::new();
            w.put_u8(REQ_COMMIT);
            None::<TxnId>.encode(&mut w);
            w.put_varint(huge);
            w.finish()
        };
        let many_pairs = {
            let mut w = WireWriter::new();
            w.put_u8(REQ_COMMIT);
            None::<TxnId>.encode(&mut w);
            w.put_varint(1);
            Oid::new(4).encode(&mut w);
            w.put_u8(WRITE_PATCH);
            w.put_u64(9);
            w.put_varint(huge);
            w.finish()
        };
        for bytes in [many_writes, many_pairs] {
            assert!(matches!(
                Request::decode_from_bytes(&bytes),
                Err(DbError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn retired_request_tags_are_protocol_errors() {
        // 12/13/16/17 carried the display-lock requests `Request::Dlm`
        // replaced; 2/7/8 were `Begin`/`Write`/`Delete` and 5/6/9 the
        // `Lock`/`Create`/`Commit` that went with them. A frame from such
        // a build must fail loudly, not be read as something else.
        for tag in [2u8, 5, 6, 7, 8, 9, 12, 13, 16, 17] {
            let mut w = WireWriter::new();
            w.put_u8(tag);
            Vec::<Oid>::new().encode(&mut w);
            assert!(
                matches!(
                    Request::decode_from_bytes(&w.finish()),
                    Err(DbError::Protocol(_))
                ),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn error_response_into_result() {
        let e = Response::Error {
            kind: "deadlock".into(),
            message: "x".into(),
        };
        assert!(matches!(e.into_result(), Err(DbError::Deadlock { .. })));
        let d = Response::Error {
            kind: "disconnected".into(),
            message: "gone".into(),
        };
        assert!(matches!(d.into_result(), Err(DbError::Disconnected)));
        let o = Response::Error {
            kind: "overloaded".into(),
            message: "shed".into(),
        };
        assert!(matches!(o.into_result(), Err(DbError::Overloaded)));
        let stale = Response::from_error(&DbError::StaleBase { oid: Oid::new(7) });
        assert!(matches!(
            stale.into_result(),
            Err(DbError::StaleBase { .. })
        ));
        // A fatal kind does not survive the wire: it arrives as
        // `Rejected` carrying the server's message.
        let n = Response::from_error(&DbError::ObjectNotFound(Oid::new(7)));
        let wire_message = DbError::ObjectNotFound(Oid::new(7)).to_string();
        assert!(matches!(
            n.into_result(),
            Err(DbError::Rejected(m)) if m == wire_message
        ));
        assert!(Response::Ok.into_result().is_ok());
    }

    #[test]
    fn junk_envelope_rejected() {
        assert!(Envelope::decode_from_bytes(&[99, 1, 2]).is_err());
        assert!(Envelope::decode_from_bytes(&[]).is_err());
    }

    #[test]
    fn over_wide_narrow_fields_rejected() {
        // Behind tag 18 the narrow-field checks are `DlmRequest`'s own
        // (8 = LockProjected, 9 = ReplayFrom).
        let wide_attr = {
            let mut w = WireWriter::new();
            w.put_u8(REQ_DLM);
            w.put_u8(8);
            Vec::<Oid>::new().encode(&mut w);
            w.put_varint(1);
            w.put_varint(65_541); // must not alias attr 5
            w.put_varint(1);
            w.finish()
        };
        let wide_version = {
            let mut w = WireWriter::new();
            w.put_u8(REQ_DLM);
            w.put_u8(8);
            Vec::<Oid>::new().encode(&mut w);
            w.put_varint(0);
            w.put_varint(1 << 32);
            w.finish()
        };
        let wide_shard = {
            let mut w = WireWriter::new();
            w.put_u8(REQ_DLM);
            w.put_u8(9);
            w.put_varint(1);
            w.put_varint(1 << 32); // must not alias shard 0
            w.put_varint(9);
            w.put_varint(1);
            w.finish()
        };
        for bytes in [wide_attr, wide_version, wide_shard] {
            assert!(matches!(
                Request::decode_from_bytes(&bytes),
                Err(DbError::Protocol(_))
            ));
        }
    }
}
