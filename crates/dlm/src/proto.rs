//! Wire messages between display-lock clients and the DLM.

use displaydb_common::{ClientId, DbError, DbResult, Oid, TraceId, TxnId};
use displaydb_wire::{Decode, Encode, WireReader, WireWriter};

/// Attribute-level change set: layout indices paired with the new
/// encoded [`Value`](displaydb_schema) bytes. The DLM never decodes the
/// values — it only intersects the indices with registered projections —
/// so this crate stays schema-agnostic.
pub type AttrChanges = Vec<(u16, Vec<u8>)>;

/// Encode a change set: the pair count, then each pair.
pub fn encode_changes(changes: &AttrChanges, w: &mut WireWriter) {
    w.put_varint(changes.len() as u64);
    for (attr, bytes) in changes {
        w.put_varint(*attr as u64);
        bytes.encode(w);
    }
}

/// Decode a change set, reserving for at most 1024 pairs up front.
pub fn decode_changes(r: &mut WireReader<'_>) -> DbResult<AttrChanges> {
    let n = r.get_varint()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push((u16::decode(r)?, Vec::<u8>::decode(r)?));
    }
    Ok(out)
}

/// One committed update as reported to the DLM.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateInfo {
    /// The updated (or deleted) object.
    pub oid: Oid,
    /// The new encoded object state for eager shipping; `None` when the
    /// protocol is not eager (holders re-read from the server) or the
    /// object was deleted.
    pub payload: Option<Vec<u8>>,
    /// Whether the object was deleted.
    pub deleted: bool,
    /// Attribute-level diff against the pre-commit image, when the
    /// reporter could compute one. `None` means "unknown — assume
    /// everything changed" (creations, recovered resyncs, old
    /// reporters); `Some` lets the DLM suppress or shrink notifications
    /// to holders with projected interest.
    pub changed: Option<AttrChanges>,
    /// End-to-end trace id of the commit this update belongs to
    /// (DESIGN.md § 12); `0` when the committing client was not
    /// tracing. Carried across the wire so receiver-side stages keep
    /// correlating.
    pub trace: TraceId,
}

impl UpdateInfo {
    /// An update without shipped state (post-commit / early protocols).
    pub fn lazy(oid: Oid) -> Self {
        Self {
            oid,
            payload: None,
            deleted: false,
            changed: None,
            trace: 0,
        }
    }

    /// An update with shipped state (eager protocol).
    pub fn eager(oid: Oid, payload: Vec<u8>) -> Self {
        Self {
            oid,
            payload: Some(payload),
            deleted: false,
            changed: None,
            trace: 0,
        }
    }

    /// A deletion.
    pub fn deletion(oid: Oid) -> Self {
        Self {
            oid,
            payload: None,
            deleted: true,
            changed: None,
            trace: 0,
        }
    }

    /// Attach an attribute-level diff (builder style).
    pub fn with_changes(mut self, changed: AttrChanges) -> Self {
        self.changed = Some(changed);
        self
    }

    /// Stamp the originating commit's trace id (builder style).
    pub fn with_trace(mut self, trace: TraceId) -> Self {
        self.trace = trace;
        self
    }
}

impl Encode for UpdateInfo {
    fn encode(&self, w: &mut WireWriter) {
        self.oid.encode(w);
        self.payload.encode(w);
        self.deleted.encode(w);
        match &self.changed {
            None => w.put_u8(0),
            Some(changes) => {
                w.put_u8(1);
                encode_changes(changes, w);
            }
        }
        w.put_varint(self.trace);
    }
}

impl Decode for UpdateInfo {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        Ok(Self {
            oid: Oid::decode(r)?,
            payload: Option::<Vec<u8>>::decode(r)?,
            deleted: bool::decode(r)?,
            changed: match r.get_u8()? {
                0 => None,
                1 => Some(decode_changes(r)?),
                t => return Err(DbError::Protocol(format!("bad changed marker {t}"))),
            },
            trace: r.get_varint()?,
        })
    }
}

/// One shard's notification cursor: the last update-log seqno the client
/// applied from that shard, and the log incarnation it was acked under.
/// Each shard's log has its own seqno space, so a client's position is
/// a vector of these — carried by replay requests and resume tokens
/// alike (DESIGN.md § 13).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardCursor {
    /// The DLM shard whose seqno space `cursor` belongs to.
    pub shard: u32,
    /// Last update-log seqno the client applied from that shard (0 =
    /// from the beginning of retained history).
    pub cursor: u64,
    /// The shard's log incarnation at ack time, as announced in the
    /// handshake. Cursors are only comparable within one incarnation: a
    /// mismatch forces the resync fallback.
    pub log_incarnation: u64,
}

impl ShardCursor {
    /// The incarnation half of cursor admission
    /// ([`crate::ShardedDlm::admit`]): whether this cursor was acked
    /// under the incarnation `incarnations` names for its shard.
    pub fn acked_under(&self, incarnations: &[u64]) -> bool {
        incarnations.get(self.shard as usize) == Some(&self.log_incarnation)
    }
}

impl Encode for ShardCursor {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(u64::from(self.shard));
        w.put_varint(self.cursor);
        w.put_varint(self.log_incarnation);
    }
}

impl Decode for ShardCursor {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        Ok(Self {
            shard: u32::decode(r)?,
            cursor: r.get_varint()?,
            log_incarnation: r.get_varint()?,
        })
    }
}

/// Encode a cursor vector (length-prefixed); shared by every message
/// that carries one.
pub fn encode_cursors(cursors: &[ShardCursor], w: &mut WireWriter) {
    w.put_varint(cursors.len() as u64);
    for sc in cursors {
        sc.encode(w);
    }
}

/// Decode a cursor vector written by [`encode_cursors`].
pub fn decode_cursors(r: &mut WireReader<'_>) -> DbResult<Vec<ShardCursor>> {
    let n = r.get_varint()? as usize;
    let mut cursors = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        cursors.push(ShardCursor::decode(r)?);
    }
    Ok(cursors)
}

/// Client → DLM messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DlmRequest {
    /// Identify the connection. Must be first.
    Hello {
        /// The client's server-assigned id.
        client: ClientId,
    },
    /// Acquire display locks. Per § 4.1, lock requests are **not
    /// acknowledged** — they are always granted.
    Lock {
        /// Objects to display-lock.
        oids: Vec<Oid>,
    },
    /// Acquire display locks with a registered attribute projection: the
    /// DLM records which layout indices this client's displays consume
    /// for each object, so commits touching only other attributes are
    /// suppressed and covered commits arrive as attribute deltas.
    LockProjected {
        /// Objects to display-lock.
        oids: Vec<Oid>,
        /// Projected attribute layout indices (sorted, deduped).
        attrs: Vec<u16>,
        /// The client's projection-registry version; echoed in every
        /// [`DlmEvent::Delta`] so the client can detect staleness.
        version: u32,
    },
    /// Release display locks.
    Release {
        /// Objects to release.
        oids: Vec<Oid>,
    },
    /// An updating client reports a commit so holders can be notified
    /// (post-commit notify protocol).
    UpdateCommitted {
        /// The committed updates.
        updates: Vec<UpdateInfo>,
    },
    /// An updating client reports that it acquired exclusive locks (early
    /// notify protocol: displays mark these objects "being updated").
    WriteIntent {
        /// Objects about to be updated.
        oids: Vec<Oid>,
        /// The updating transaction.
        txn: TxnId,
    },
    /// An updating client reports the outcome of an earlier intent.
    Resolution {
        /// Objects previously marked.
        oids: Vec<Oid>,
        /// The updating transaction.
        txn: TxnId,
        /// Whether the transaction committed.
        committed: bool,
    },
    /// Catch up from the DLM's bounded update logs (DESIGN.md § 13): for
    /// each listed shard the DLM streams every logged commit past the
    /// cursor, filtered through this client's registered interests, then
    /// marks the client current with a [`DlmEvent::CursorAck`]. A shard
    /// whose cursor was truncated out of its log (or acked under another
    /// incarnation) answers with one [`DlmEvent::ResyncRequired`] over
    /// the client's interests in that shard instead. Sent after
    /// reconnect (locks must be re-registered first so interest
    /// filtering sees them), or in response to a
    /// [`DlmEvent::ReplayNeeded`] marker. Shards not listed are
    /// untouched.
    ReplayFrom {
        /// One cursor per shard to catch up.
        cursors: Vec<ShardCursor>,
    },
}

/// DLM → client notifications.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DlmEvent {
    /// An object this client display-locks was updated (post-commit).
    Updated(UpdateInfo),
    /// An object is about to be updated by `txn` (early notify).
    Marked {
        /// The object being updated.
        oid: Oid,
        /// The updating transaction.
        txn: TxnId,
    },
    /// An earlier [`DlmEvent::Marked`] resolved.
    Resolved {
        /// The object.
        oid: Oid,
        /// The updating transaction.
        txn: TxnId,
        /// Whether it committed (if so, an [`DlmEvent::Updated`] for the
        /// same object accompanies or precedes this event).
        committed: bool,
    },
    /// Handshake acknowledgement: the agent registered this client and
    /// will deliver notifications. Sent once, immediately after `Hello`;
    /// lets a (re)connecting client distinguish a live agent from a
    /// channel that merely accepted the connection.
    Ready {
        /// Each shard's log incarnation (index = shard,
        /// [`crate::ShardedDlm::incarnations`]): the namespace that shard's
        /// [`DlmEvent::CursorAck`] seqnos belong to. The durable
        /// incarnation when the log spills to storage, a per-process
        /// nonce otherwise — never 0. A resuming client echoes them in
        /// [`DlmRequest::ReplayFrom`]; a change means the seqno
        /// namespace did not survive and cursors from the old
        /// incarnation are void (the agent answers them with a resync,
        /// never a silent partial replay).
        log_incarnations: Vec<u64>,
    },
    /// The client asked to replay from a cursor its shard's update log
    /// no longer covers (evicted, truncated, or another incarnation):
    /// the notifications it missed cannot be reproduced. The DLC answers
    /// by re-reading `oids`, which restores latest-state-wins without
    /// the backlog.
    ResyncRequired {
        /// Every OID the client display-locks on that shard.
        oids: Vec<Oid>,
    },
    /// An object this client display-locks with a registered projection
    /// was updated: only the projected attributes that actually changed
    /// are shipped, as `(layout index, encoded value)` pairs. The client
    /// patches its cached copy in place; a `version` older than its
    /// current projection registration means the delta was computed
    /// against a stale attribute set and the object must be resynced.
    Delta {
        /// The updated object.
        oid: Oid,
        /// Projection-registry version the delta was computed against.
        version: u32,
        /// Changed projected attributes (never empty on the wire — an
        /// empty intersection suppresses the event entirely).
        changed: AttrChanges,
        /// Trace id of the originating commit (`0` = untraced). A
        /// coalesced merge keeps the newest commit's id — latest-wins,
        /// like the payload it describes.
        trace: TraceId,
    },
    /// Several pending events for this client drained from its outbox in
    /// one wire frame. Constructed only at outbox-drain time (never
    /// stored in queues) and flattened immediately on receipt; batches
    /// do not nest.
    Batch(Vec<DlmEvent>),
    /// Cursor advancement in one shard's seqno space: every commit that
    /// shard logged with seqno ≤ `seqno` has been delivered to (or
    /// legitimately filtered/coalesced away for) this client. Emitted by
    /// the shard's outbox writer on a frame that drains its queue, at
    /// most once per 25 ms (a replay's closing ack included), so a cursor
    /// may trail the client by that much. The client keeps one cursor per
    /// shard; this advances one entry. Monotone non-decreasing; a
    /// regression is tolerated (counted, ignored), never fatal.
    CursorAck {
        /// The shard whose seqno space `seqno` belongs to.
        shard: u32,
        /// Highest fully-delivered seqno in that shard's log.
        seqno: u64,
    },
    /// The client's outbox for one shard overflowed and that shard's
    /// backlog was dropped in favour of its update log: the client must
    /// send [`DlmRequest::ReplayFrom`] with its cursor for that shard to
    /// catch up; other shards' streams flow on undisturbed. Unlogged
    /// intent events (`Marked`/`Resolved`) swept with the backlog are
    /// not replayed, so the client also drops every early-notify mark it
    /// is showing.
    ReplayNeeded {
        /// The shard whose backlog was dropped.
        shard: u32,
        /// The seqno that shard had delivered through when it swept (the
        /// client's own cursor is authoritative; this is diagnostic).
        from: u64,
    },
}

impl DlmEvent {
    /// The trace id this event carries, if it is a per-update
    /// notification (`Updated`/`Delta`). Control events (`Ready`,
    /// recovery markers) and batches carry none — a batch's members each
    /// carry their own.
    pub fn trace(&self) -> TraceId {
        match self {
            DlmEvent::Updated(u) => u.trace,
            DlmEvent::Delta { trace, .. } => *trace,
            _ => 0,
        }
    }

    /// Record `stage` for every trace id this event carries (batch
    /// members included). One relaxed load per member when tracing is
    /// disabled.
    pub fn record_stage(&self, stage: displaydb_common::trace::Stage) {
        match self {
            DlmEvent::Batch(events) => {
                for e in events {
                    displaydb_common::trace::record(e.trace(), stage);
                }
            }
            e => displaydb_common::trace::record(e.trace(), stage),
        }
    }
}

const REQ_HELLO: u8 = 1;
const REQ_LOCK: u8 = 2;
const REQ_RELEASE: u8 = 3;
const REQ_UPDATE: u8 = 4;
const REQ_INTENT: u8 = 5;
const REQ_RESOLUTION: u8 = 6;
// 7 was `Bye`: retired, never reused.
const REQ_LOCK_PROJECTED: u8 = 8;
const REQ_REPLAY_FROM: u8 = 9;

impl Encode for DlmRequest {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            DlmRequest::Hello { client } => {
                w.put_u8(REQ_HELLO);
                client.encode(w);
            }
            DlmRequest::Lock { oids } => {
                w.put_u8(REQ_LOCK);
                oids.encode(w);
            }
            DlmRequest::LockProjected {
                oids,
                attrs,
                version,
            } => {
                w.put_u8(REQ_LOCK_PROJECTED);
                oids.encode(w);
                w.put_varint(attrs.len() as u64);
                for a in attrs {
                    w.put_varint(*a as u64);
                }
                w.put_varint(*version as u64);
            }
            DlmRequest::Release { oids } => {
                w.put_u8(REQ_RELEASE);
                oids.encode(w);
            }
            DlmRequest::UpdateCommitted { updates } => {
                w.put_u8(REQ_UPDATE);
                w.put_varint(updates.len() as u64);
                for u in updates {
                    u.encode(w);
                }
            }
            DlmRequest::WriteIntent { oids, txn } => {
                w.put_u8(REQ_INTENT);
                oids.encode(w);
                txn.encode(w);
            }
            DlmRequest::Resolution {
                oids,
                txn,
                committed,
            } => {
                w.put_u8(REQ_RESOLUTION);
                oids.encode(w);
                txn.encode(w);
                committed.encode(w);
            }
            DlmRequest::ReplayFrom { cursors } => {
                w.put_u8(REQ_REPLAY_FROM);
                encode_cursors(cursors, w);
            }
        }
    }
}

impl Decode for DlmRequest {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        Ok(match r.get_u8()? {
            REQ_HELLO => DlmRequest::Hello {
                client: ClientId::decode(r)?,
            },
            REQ_LOCK => DlmRequest::Lock {
                oids: Vec::<Oid>::decode(r)?,
            },
            REQ_LOCK_PROJECTED => {
                let oids = Vec::<Oid>::decode(r)?;
                let n = r.get_varint()? as usize;
                let mut attrs = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    attrs.push(u16::decode(r)?);
                }
                let version = u32::decode(r)?;
                DlmRequest::LockProjected {
                    oids,
                    attrs,
                    version,
                }
            }
            REQ_RELEASE => DlmRequest::Release {
                oids: Vec::<Oid>::decode(r)?,
            },
            REQ_UPDATE => {
                let n = r.get_varint()? as usize;
                let mut updates = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    updates.push(UpdateInfo::decode(r)?);
                }
                DlmRequest::UpdateCommitted { updates }
            }
            REQ_INTENT => DlmRequest::WriteIntent {
                oids: Vec::<Oid>::decode(r)?,
                txn: TxnId::decode(r)?,
            },
            REQ_RESOLUTION => DlmRequest::Resolution {
                oids: Vec::<Oid>::decode(r)?,
                txn: TxnId::decode(r)?,
                committed: bool::decode(r)?,
            },
            REQ_REPLAY_FROM => DlmRequest::ReplayFrom {
                cursors: decode_cursors(r)?,
            },
            t => return Err(DbError::Protocol(format!("unknown dlm request tag {t}"))),
        })
    }
}

const EV_UPDATED: u8 = 1;
const EV_MARKED: u8 = 2;
const EV_RESOLVED: u8 = 3;
const EV_READY: u8 = 4;
const EV_RESYNC_REQUIRED: u8 = 5;
// 6 was `Lagging`: retired, never reused.
const EV_DELTA: u8 = 7;
const EV_BATCH: u8 = 8;
const EV_CURSOR_ACK: u8 = 9;
const EV_REPLAY_NEEDED: u8 = 10;

impl Encode for DlmEvent {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            DlmEvent::Updated(u) => {
                w.put_u8(EV_UPDATED);
                u.encode(w);
            }
            DlmEvent::Marked { oid, txn } => {
                w.put_u8(EV_MARKED);
                oid.encode(w);
                txn.encode(w);
            }
            DlmEvent::Resolved {
                oid,
                txn,
                committed,
            } => {
                w.put_u8(EV_RESOLVED);
                oid.encode(w);
                txn.encode(w);
                committed.encode(w);
            }
            DlmEvent::Ready { log_incarnations } => {
                w.put_u8(EV_READY);
                log_incarnations.encode(w);
            }
            DlmEvent::ResyncRequired { oids } => {
                w.put_u8(EV_RESYNC_REQUIRED);
                oids.encode(w);
            }
            DlmEvent::Delta {
                oid,
                version,
                changed,
                trace,
            } => {
                w.put_u8(EV_DELTA);
                oid.encode(w);
                w.put_varint(*version as u64);
                encode_changes(changed, w);
                w.put_varint(*trace);
            }
            DlmEvent::Batch(events) => {
                w.put_u8(EV_BATCH);
                w.put_varint(events.len() as u64);
                for e in events {
                    e.encode(w);
                }
            }
            DlmEvent::CursorAck { shard, seqno } => {
                w.put_u8(EV_CURSOR_ACK);
                w.put_varint(u64::from(*shard));
                w.put_varint(*seqno);
            }
            DlmEvent::ReplayNeeded { shard, from } => {
                w.put_u8(EV_REPLAY_NEEDED);
                w.put_varint(u64::from(*shard));
                w.put_varint(*from);
            }
        }
    }
}

impl Decode for DlmEvent {
    fn decode(r: &mut WireReader<'_>) -> DbResult<Self> {
        Ok(match r.get_u8()? {
            EV_UPDATED => DlmEvent::Updated(UpdateInfo::decode(r)?),
            EV_MARKED => DlmEvent::Marked {
                oid: Oid::decode(r)?,
                txn: TxnId::decode(r)?,
            },
            EV_RESOLVED => DlmEvent::Resolved {
                oid: Oid::decode(r)?,
                txn: TxnId::decode(r)?,
                committed: bool::decode(r)?,
            },
            EV_READY => DlmEvent::Ready {
                log_incarnations: Vec::<u64>::decode(r)?,
            },
            EV_RESYNC_REQUIRED => DlmEvent::ResyncRequired {
                oids: Vec::<Oid>::decode(r)?,
            },
            EV_DELTA => DlmEvent::Delta {
                oid: Oid::decode(r)?,
                version: u32::decode(r)?,
                changed: decode_changes(r)?,
                trace: r.get_varint()?,
            },
            EV_BATCH => {
                let n = r.get_varint()? as usize;
                let mut events = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let e = DlmEvent::decode(r)?;
                    if matches!(e, DlmEvent::Batch(_)) {
                        return Err(DbError::Protocol("nested dlm batch".into()));
                    }
                    events.push(e);
                }
                DlmEvent::Batch(events)
            }
            EV_CURSOR_ACK => DlmEvent::CursorAck {
                shard: u32::decode(r)?,
                seqno: r.get_varint()?,
            },
            EV_REPLAY_NEEDED => DlmEvent::ReplayNeeded {
                shard: u32::decode(r)?,
                from: r.get_varint()?,
            },
            t => return Err(DbError::Protocol(format!("unknown dlm event tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt_req(r: DlmRequest) {
        let bytes = r.encode_to_bytes();
        assert_eq!(DlmRequest::decode_from_bytes(&bytes).unwrap(), r);
    }

    /// Round-trip `e` and pin its wire tag: the numbers are written out
    /// here so a renumbering fails a test instead of shifting
    /// `wire_bytes_per_commit`.
    fn rt_ev(tag: u8, e: DlmEvent) {
        let bytes = e.encode_to_bytes();
        assert_eq!(bytes[0], tag, "wire tag of {e:?}");
        assert_eq!(DlmEvent::decode_from_bytes(&bytes).unwrap(), e);
    }

    #[test]
    fn request_roundtrips() {
        rt_req(DlmRequest::Hello {
            client: ClientId::new(9),
        });
        rt_req(DlmRequest::Lock {
            oids: vec![Oid::new(1), Oid::new(2)],
        });
        rt_req(DlmRequest::Release { oids: vec![] });
        rt_req(DlmRequest::UpdateCommitted {
            updates: vec![
                UpdateInfo::lazy(Oid::new(1)),
                UpdateInfo::eager(Oid::new(2), vec![1, 2, 3]),
                UpdateInfo::deletion(Oid::new(3)),
            ],
        });
        rt_req(DlmRequest::WriteIntent {
            oids: vec![Oid::new(5)],
            txn: TxnId::new(11),
        });
        rt_req(DlmRequest::Resolution {
            oids: vec![Oid::new(5)],
            txn: TxnId::new(11),
            committed: false,
        });
        rt_req(DlmRequest::ReplayFrom { cursors: vec![] });
        rt_req(DlmRequest::ReplayFrom {
            cursors: vec![
                ShardCursor {
                    shard: 0,
                    cursor: 0,
                    log_incarnation: 0,
                },
                ShardCursor {
                    shard: u32::MAX,
                    cursor: u64::MAX,
                    log_incarnation: u64::MAX,
                },
            ],
        });
    }

    #[test]
    fn event_roundtrips_with_pinned_tags() {
        rt_ev(
            1,
            DlmEvent::Updated(UpdateInfo::eager(Oid::new(4), vec![9])),
        );
        rt_ev(
            2,
            DlmEvent::Marked {
                oid: Oid::new(4),
                txn: TxnId::new(2),
            },
        );
        rt_ev(
            3,
            DlmEvent::Resolved {
                oid: Oid::new(4),
                txn: TxnId::new(2),
                committed: true,
            },
        );
        rt_ev(
            4,
            DlmEvent::Ready {
                log_incarnations: vec![],
            },
        );
        rt_ev(
            4,
            DlmEvent::Ready {
                log_incarnations: vec![7, u64::MAX],
            },
        );
        rt_ev(
            5,
            DlmEvent::ResyncRequired {
                oids: vec![Oid::new(7), Oid::new(8)],
            },
        );
        rt_ev(5, DlmEvent::ResyncRequired { oids: vec![] });
        rt_ev(
            7,
            DlmEvent::Delta {
                oid: Oid::new(11),
                version: 3,
                changed: vec![(1, vec![0xAA])],
                trace: 0,
            },
        );
        rt_ev(8, DlmEvent::Batch(vec![]));
        rt_ev(9, DlmEvent::CursorAck { shard: 0, seqno: 0 });
        rt_ev(
            9,
            DlmEvent::CursorAck {
                shard: u32::MAX,
                seqno: u64::MAX,
            },
        );
        rt_ev(10, DlmEvent::ReplayNeeded { shard: 3, from: 42 });
    }

    #[test]
    fn retired_tags_are_protocol_errors() {
        assert!(matches!(
            DlmEvent::decode_from_bytes(&[6]),
            Err(DbError::Protocol(_))
        ));
        assert!(matches!(
            DlmRequest::decode_from_bytes(&[7]),
            Err(DbError::Protocol(_))
        ));
    }

    #[test]
    fn over_wide_narrow_fields_rejected() {
        // A varint that does not fit its field is a protocol error, never
        // a silent truncation (attr 65541 must not alias attr 5, shard
        // 2^32 must not alias shard 0).
        let wide_attr = {
            let mut w = WireWriter::new();
            w.put_u8(EV_DELTA);
            Oid::new(1).encode(&mut w);
            w.put_varint(1); // version
            w.put_varint(1); // one change
            w.put_varint(65_541);
            Vec::<u8>::new().encode(&mut w);
            w.put_varint(0); // trace
            w.finish()
        };
        let wide_version = {
            let mut w = WireWriter::new();
            w.put_u8(REQ_LOCK_PROJECTED);
            Vec::<Oid>::new().encode(&mut w);
            w.put_varint(0); // no attrs
            w.put_varint(1 << 32);
            w.finish()
        };
        let wide_shard = |tag: u8| {
            let mut w = WireWriter::new();
            w.put_u8(tag);
            w.put_varint(1 << 32);
            w.put_varint(9);
            w.finish()
        };
        let wide_cursor_shard = {
            let mut w = WireWriter::new();
            w.put_u8(REQ_REPLAY_FROM);
            w.put_varint(1);
            w.put_varint(1 << 32);
            w.put_varint(9);
            w.put_varint(1);
            w.finish()
        };
        for bytes in [
            wide_attr,
            wide_shard(EV_CURSOR_ACK),
            wide_shard(EV_REPLAY_NEEDED),
        ] {
            assert!(matches!(
                DlmEvent::decode_from_bytes(&bytes),
                Err(DbError::Protocol(_))
            ));
        }
        for bytes in [wide_version, wide_cursor_shard] {
            assert!(matches!(
                DlmRequest::decode_from_bytes(&bytes),
                Err(DbError::Protocol(_))
            ));
        }
    }

    #[test]
    fn junk_rejected() {
        assert!(DlmRequest::decode_from_bytes(&[99]).is_err());
        assert!(DlmEvent::decode_from_bytes(&[99]).is_err());
        assert!(DlmRequest::decode_from_bytes(&[]).is_err());
    }

    #[test]
    fn projected_lock_roundtrips() {
        rt_req(DlmRequest::LockProjected {
            oids: vec![Oid::new(1), Oid::new(2)],
            attrs: vec![0, 3, 9],
            version: 7,
        });
        rt_req(DlmRequest::LockProjected {
            oids: vec![Oid::new(1)],
            attrs: vec![],
            version: 0,
        });
    }

    #[test]
    fn update_info_with_changes_roundtrips() {
        rt_req(DlmRequest::UpdateCommitted {
            updates: vec![
                UpdateInfo::eager(Oid::new(2), vec![1, 2, 3])
                    .with_changes(vec![(1, vec![9, 9]), (4, vec![])]),
                UpdateInfo::lazy(Oid::new(3)).with_changes(vec![]),
            ],
        });
    }

    #[test]
    fn delta_roundtrips() {
        rt_ev(
            7,
            DlmEvent::Delta {
                oid: Oid::new(11),
                version: 3,
                changed: vec![(1, vec![0xAA, 0xBB]), (7, vec![])],
                trace: 0,
            },
        );
        rt_ev(
            7,
            DlmEvent::Delta {
                oid: Oid::new(11),
                version: 3,
                changed: vec![(1, vec![0xAA])],
                trace: u64::MAX, // full-width varint survives the wire
            },
        );
    }

    #[test]
    fn trace_ids_survive_the_wire() {
        let updated = DlmEvent::Updated(UpdateInfo::lazy(Oid::new(1)).with_trace(77));
        let bytes = updated.encode_to_bytes();
        assert_eq!(DlmEvent::decode_from_bytes(&bytes).unwrap().trace(), 77);
        rt_req(DlmRequest::UpdateCommitted {
            updates: vec![UpdateInfo::eager(Oid::new(2), vec![1])
                .with_changes(vec![(1, vec![9])])
                .with_trace(12345)],
        });
        // Control events carry no trace.
        assert_eq!(
            DlmEvent::Ready {
                log_incarnations: vec![7]
            }
            .trace(),
            0
        );
    }

    #[test]
    fn batch_roundtrips_and_rejects_nesting() {
        rt_ev(
            8,
            DlmEvent::Batch(vec![
                DlmEvent::Updated(UpdateInfo::eager(Oid::new(4), vec![9])),
                DlmEvent::Delta {
                    oid: Oid::new(5),
                    version: 1,
                    changed: vec![(0, vec![1])],
                    trace: 9,
                },
                DlmEvent::CursorAck { shard: 0, seqno: 3 },
            ]),
        );

        let nested = {
            let mut w = WireWriter::new();
            w.put_u8(8); // EV_BATCH
            w.put_varint(1);
            w.put_u8(8); // nested EV_BATCH
            w.put_varint(0);
            w.finish()
        };
        assert!(DlmEvent::decode_from_bytes(&nested).is_err());
    }
}
