//! The DLM as a standalone agent service.
//!
//! This mirrors the paper's actual deployment (§ 4.1): the commercial
//! database server could not be modified, so the Display Lock Manager ran
//! as a separate application beside it. Clients open a dedicated
//! connection to the agent; display-lock requests are fire-and-forget
//! (never acknowledged), and notifications flow back over the same
//! connection.
//!
//! The agent adds only the link, and the link is the server's: the
//! agent accepts through [`displaydb_wire::serve`] and a client reads
//! through [`displaydb_wire::Reader`], so a connection's death is its
//! reader's exit on both links. Both ends speak [`DlmRequest`] as is
//! ([`DlmAgentConnection::send`] out, [`ShardedDlm::handle_request`] in)
//! and every [`DlmEvent`] back — the same message set and the same
//! dispatch the integrated server reaches through `Request::Dlm` and
//! `ServerPush::Dlm` (DESIGN.md "Message vocabulary").

use crate::core::EventSink;
use crate::proto::{DlmEvent, DlmRequest};
use crate::shard::ShardedDlm;
use displaydb_common::sync::{ranks, OrderedMutex};
use displaydb_common::{ClientId, DbError, DbResult};
use displaydb_wire::{Channel, Decode, Encode, Listener, Reader};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

struct ChannelSink {
    channel: Arc<dyn Channel>,
    /// Shared byte counter so experiments can measure wire traffic.
    bytes: displaydb_common::metrics::Counter,
}

impl EventSink for ChannelSink {
    fn deliver(&self, event: DlmEvent) -> DbResult<()> {
        let frame = event.encode_to_bytes();
        self.bytes.add(frame.len() as u64);
        event.record_stage(displaydb_common::trace::Stage::WireSend);
        self.channel.send(frame)
    }

    fn close(&self) {
        // Unblocks an outbox writer stuck in a stalled send.
        self.channel.close();
    }
}

/// A running DLM agent accepting connections on its own listener.
pub struct DlmAgent {
    dlm: Arc<ShardedDlm>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    sessions: Arc<OrderedMutex<Vec<Weak<dyn Channel>>>>,
}

impl DlmAgent {
    /// Start the agent over `listener`.
    pub fn spawn(dlm: Arc<ShardedDlm>, listener: Box<dyn Listener>) -> Self {
        let shutdown = Arc::new(AtomicBool::new(false));
        let sessions: Arc<OrderedMutex<Vec<Weak<dyn Channel>>>> =
            Arc::new(OrderedMutex::new(ranks::DLM_AGENT_SESSIONS, Vec::new()));
        let accept_thread = {
            let (dlm, sessions) = (Arc::clone(&dlm), Arc::clone(&sessions));
            displaydb_wire::serve(
                listener,
                Arc::clone(&shutdown),
                ("dlm-accept", "dlm-session"),
                // Listed weakly, so a dead link's socket closes with its session, and
                // on the accept thread, so `shutdown` (joining it first) closes the rest.
                move |channel| {
                    let mut listed = sessions.lock();
                    listed.retain(|c| c.strong_count() > 0);
                    listed.push(Arc::downgrade(&channel));
                    let dlm = Arc::clone(&dlm);
                    move || session_loop(dlm, channel)
                },
            )
        };
        Self {
            dlm,
            shutdown,
            accept_thread: Some(accept_thread),
            sessions,
        }
    }

    /// The DLM behind the agent (for inspecting stats in tests/benches).
    pub fn dlm(&self) -> &Arc<ShardedDlm> {
        &self.dlm
    }

    /// Stop the agent: no new connections, and every live session channel
    /// is closed (clients observe a dead DLM).
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        // Take the list under the lock, close outside it: a close can
        // block on a wedged socket, and the accept loop must never find
        // the session list held across that stall.
        let channels = std::mem::take(&mut *self.sessions.lock_or_recover());
        for channel in channels.iter().filter_map(Weak::upgrade) {
            channel.close();
        }
    }
}

impl Drop for DlmAgent {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn session_loop(dlm: Arc<ShardedDlm>, channel: Arc<dyn Channel>) {
    // First frame must identify the client.
    let client = match channel
        .recv()
        .ok()
        .and_then(|f| DlmRequest::decode_from_bytes(&f).ok())
    {
        Some(DlmRequest::Hello { client }) => client,
        _ => return,
    };
    // Ack the handshake *before* registering the sink, so `Ready` is
    // guaranteed to be the first frame the client reads — no notification
    // can be queued ahead of it. The ack names each shard's log
    // incarnation, so a resuming client knows whether its cursors' seqno
    // spaces survived (DESIGN.md § 14).
    let ready = DlmEvent::Ready {
        log_incarnations: dlm.incarnations().to_vec(),
    };
    if channel.send(ready.encode_to_bytes()).is_err() {
        channel.close();
        return;
    }
    dlm.register_session(
        client,
        Arc::new(ChannelSink {
            channel: Arc::clone(&channel),
            bytes: dlm.stats().overload.notify_bytes.clone(),
        }),
    );
    while let Ok(frame) = channel.recv() {
        let request = match DlmRequest::decode_from_bytes(&frame) {
            Ok(r) => r,
            Err(_) => break,
        };
        if dlm.handle_request(client, request) {
            break;
        }
    }
    dlm.unregister_client(client);
    channel.close();
}

/// Client-side handle to an agent connection. Owned by the Display Lock
/// Client in `displaydb-client`.
pub struct DlmAgentConnection {
    /// Marks the connection dead when the agent side goes away, so that
    /// later fire-and-forget sends fail fast instead of writing into the
    /// void.
    reader: Reader,
    /// Per-shard log incarnations from the agent's `Ready`.
    log_incarnations: Vec<u64>,
}

impl DlmAgentConnection {
    /// How long `connect` waits for the agent's [`DlmEvent::Ready`] ack.
    pub const READY_TIMEOUT: Duration = Duration::from_secs(5);

    /// Connect over `channel`, identifying as `client`. Every later event
    /// is passed to `on_event` as decoded (a `Batch` whole) from a
    /// dedicated reader thread.
    ///
    /// Blocks until the agent acknowledges the handshake with
    /// [`DlmEvent::Ready`] (or [`READY_TIMEOUT`] elapses) — transports
    /// may accept a connection without a live agent behind it, and a
    /// reconnecting supervisor must not declare victory against one.
    ///
    /// [`READY_TIMEOUT`]: DlmAgentConnection::READY_TIMEOUT
    pub fn connect(
        channel: Box<dyn Channel>,
        client: ClientId,
        on_event: impl Fn(DlmEvent) + Send + 'static,
    ) -> DbResult<Self> {
        let channel: Arc<dyn Channel> = Arc::from(channel);
        channel.send(DlmRequest::Hello { client }.encode_to_bytes())?;
        let ack = channel.recv_timeout(Self::READY_TIMEOUT)?;
        let log_incarnations = match DlmEvent::decode_from_bytes(&ack)? {
            DlmEvent::Ready { log_incarnations } => log_incarnations,
            _ => {
                channel.close();
                return Err(DbError::Protocol("dlm agent did not ack handshake".into()));
            }
        };
        let on_frame = move |frame: bytes::Bytes| match DlmEvent::decode_from_bytes(&frame) {
            Ok(event) => {
                event.record_stage(displaydb_common::trace::Stage::WireRecv);
                on_event(event);
                true
            }
            Err(_) => false,
        };
        Ok(Self {
            reader: Reader::spawn(channel, "dlm-events", on_frame, || {}),
            log_incarnations,
        })
    }

    /// The per-shard log incarnations the agent announced in its
    /// `Ready` ([`ShardedDlm::incarnations`]), index = shard: cursors are
    /// only worth keeping together with these.
    pub fn log_incarnations(&self) -> &[u64] {
        &self.log_incarnations
    }

    /// Whether the agent side of the connection has gone away.
    pub fn is_dead(&self) -> bool {
        self.reader.is_dead()
    }

    /// A receiver that disconnects when this connection dies (at once,
    /// if it already has).
    pub fn died(&self) -> crossbeam::channel::Receiver<()> {
        self.reader.died()
    }

    /// Send one request (fire-and-forget: the agent never acknowledges,
    /// § 4.1). Fails fast once the reader has seen the agent go away.
    pub fn send(&self, request: DlmRequest) -> DbResult<()> {
        if self.is_dead() {
            return Err(DbError::Disconnected);
        }
        self.reader.channel().send(request.encode_to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{DlmConfig, NotifyProtocol};
    use crate::proto::{ShardCursor, UpdateInfo};
    use crossbeam::channel::unbounded;
    use displaydb_common::{Oid, TxnId};
    use displaydb_wire::LocalHub;
    use std::time::Duration;

    fn agent(config: DlmConfig) -> (DlmAgent, LocalHub) {
        let hub = LocalHub::new();
        let agent = DlmAgent::spawn(Arc::new(ShardedDlm::new(config)), Box::new(hub.clone()));
        (agent, hub)
    }

    fn lock(oids: Vec<Oid>) -> DlmRequest {
        DlmRequest::Lock { oids }
    }

    fn committed(updates: Vec<UpdateInfo>) -> DlmRequest {
        DlmRequest::UpdateCommitted { updates }
    }

    fn replay(cursors: Vec<ShardCursor>) -> DlmRequest {
        DlmRequest::ReplayFrom { cursors }
    }

    fn connect(
        hub: &LocalHub,
        client: u64,
    ) -> (DlmAgentConnection, crossbeam::channel::Receiver<DlmEvent>) {
        let (tx, rx) = unbounded();
        // Flattened, as `Dlc::dispatch` flattens them: these tests match
        // single events.
        let conn = DlmAgentConnection::connect(
            Box::new(hub.connect().unwrap()),
            ClientId::new(client),
            move |e| match e {
                DlmEvent::Batch(events) => events.into_iter().for_each(|e| {
                    let _ = tx.send(e);
                }),
                e => {
                    let _ = tx.send(e);
                }
            },
        )
        .unwrap();
        (conn, rx)
    }

    #[test]
    fn accepts_racing_shutdown_leave_no_channel_open() {
        for _ in 0..20 {
            let hub = LocalHub::new();
            let mut agent = DlmAgent::spawn(
                Arc::new(ShardedDlm::new(DlmConfig::default())),
                Box::new(hub.clone()),
            );
            let dialers: Vec<_> = (0..2)
                .map(|_| {
                    let hub = hub.clone();
                    std::thread::spawn(move || hub.connect().unwrap())
                })
                .collect();
            // The dialers' and the agent's handles are the last ones: a
            // channel never accepted dies with them.
            drop(hub);
            agent.shutdown();
            for dialer in dialers {
                let channel = dialer.join().unwrap();
                assert!(matches!(
                    channel.recv_timeout(Duration::from_secs(10)),
                    Err(DbError::Disconnected)
                ));
            }
        }
    }

    #[test]
    fn a_dropped_link_leaves_the_session_list() {
        let (agent, hub) = agent(DlmConfig::default());
        for client in 0..50 {
            let (conn, _rx) = connect(&hub, client);
            drop(conn);
        }
        // Each accept prunes the links whose sessions have ended: once
        // they all have, the list holds the live link and at most the
        // one dropped just before it.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        for client in 50.. {
            let (_live, _rx) = connect(&hub, client);
            let listed = agent.sessions.lock().len();
            if listed <= 2 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "{listed} links still listed"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn end_to_end_post_commit_notification() {
        let (_agent, hub) = agent(DlmConfig::default());
        let (viewer, viewer_rx) = connect(&hub, 1);
        let (updater, _updater_rx) = connect(&hub, 2);

        viewer.send(lock(vec![Oid::new(7)])).unwrap();
        std::thread::sleep(Duration::from_millis(50)); // lock is fire-and-forget
        updater
            .send(committed(vec![UpdateInfo::lazy(Oid::new(7))]))
            .unwrap();

        let event = viewer_rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(event, DlmEvent::Updated(UpdateInfo::lazy(Oid::new(7))));
    }

    #[test]
    fn early_notify_end_to_end() {
        let (_agent, hub) = agent(DlmConfig {
            protocol: NotifyProtocol::EarlyNotify,
            ..DlmConfig::default()
        });
        let (viewer, viewer_rx) = connect(&hub, 1);
        let (updater, _rx2) = connect(&hub, 2);

        viewer.send(lock(vec![Oid::new(3)])).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let txn = TxnId::new(9);
        updater
            .send(DlmRequest::WriteIntent {
                oids: vec![Oid::new(3)],
                txn,
            })
            .unwrap();
        assert_eq!(
            viewer_rx.recv_timeout(Duration::from_secs(2)).unwrap(),
            DlmEvent::Marked {
                oid: Oid::new(3),
                txn
            }
        );
        updater
            .send(DlmRequest::Resolution {
                oids: vec![Oid::new(3)],
                txn,
                committed: false,
            })
            .unwrap();
        assert_eq!(
            viewer_rx.recv_timeout(Duration::from_secs(2)).unwrap(),
            DlmEvent::Resolved {
                oid: Oid::new(3),
                txn,
                committed: false
            }
        );
    }

    #[test]
    fn release_stops_notifications() {
        let (agent, hub) = agent(DlmConfig::default());
        let (viewer, viewer_rx) = connect(&hub, 1);
        let (updater, _rx2) = connect(&hub, 2);

        viewer.send(lock(vec![Oid::new(5)])).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        viewer
            .send(DlmRequest::Release {
                oids: vec![Oid::new(5)],
            })
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        updater
            .send(committed(vec![UpdateInfo::lazy(Oid::new(5))]))
            .unwrap();
        std::thread::sleep(Duration::from_millis(100));
        assert!(viewer_rx.try_recv().is_err());
        assert_eq!(agent.dlm().stats().notifications.get(), 0);
    }

    #[test]
    fn disconnect_unregisters_client() {
        let (agent, hub) = agent(DlmConfig::default());
        {
            let (viewer, _rx) = connect(&hub, 1);
            viewer.send(lock(vec![Oid::new(1)])).unwrap();
            std::thread::sleep(Duration::from_millis(50));
            assert_eq!(agent.dlm().locked_objects(), 1);
            viewer.send(DlmRequest::Bye).unwrap();
        }
        // Wait for the session loop to process the disconnect.
        for _ in 0..50 {
            if agent.dlm().locked_objects() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(agent.dlm().locked_objects(), 0);
    }

    #[test]
    fn ready_incarnation_is_never_zero() {
        // Even without a durable log the handshake announces a nonzero
        // session incarnation: 0 used to mean "no durable log" AND
        // "skip the replay-admission check", which let stale cursors
        // from a previous agent process replay silently.
        let (_agent, hub) = agent(DlmConfig::default());
        let (conn, _rx) = connect(&hub, 1);
        assert!(!conn.log_incarnations().contains(&0));
    }

    /// The cursor vector that replays every shard from `cursor` under
    /// the given incarnations.
    fn cursors_from(cursor: u64, incarnations: &[u64]) -> Vec<ShardCursor> {
        incarnations
            .iter()
            .enumerate()
            .map(|(s, &log_incarnation)| ShardCursor {
                shard: s as u32,
                cursor,
                log_incarnation,
            })
            .collect()
    }

    #[test]
    fn live_replay_under_handshake_incarnation_replays() {
        // A cursor obtained on this connection replays under the
        // incarnation the handshake announced, which matches by
        // construction.
        let (_agent, hub) = agent(DlmConfig::default());
        let (viewer, viewer_rx) = connect(&hub, 1);
        let (updater, _urx) = connect(&hub, 2);
        viewer.send(lock(vec![Oid::new(7)])).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        updater
            .send(committed(vec![UpdateInfo::lazy(Oid::new(7))]))
            .unwrap();
        // Live delivery first (plus a cursor ack once the outbox
        // drains), then the replayed copy after the replay request.
        let live = viewer_rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(matches!(live, DlmEvent::Updated(_)));
        viewer
            .send(replay(cursors_from(0, viewer.log_incarnations())))
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            let e = viewer_rx
                .recv_timeout(deadline.saturating_duration_since(std::time::Instant::now()))
                .expect("replayed update never arrived");
            match e {
                DlmEvent::Updated(u) => {
                    assert_eq!(u.oid, Oid::new(7));
                    break;
                }
                DlmEvent::ResyncRequired { .. } => {
                    panic!("live replay under matching incarnation must not resync")
                }
                _ => continue,
            }
        }
    }

    #[test]
    fn stale_incarnation_after_agent_restart_forces_resync() {
        // A client that outlives a non-durable agent restart holds a
        // cursor from the dead seqno space. The restarted agent's
        // session incarnation differs, so replay admission must answer
        // with a resync — never a silent "nothing past your cursor".
        let (agent1, hub1) = agent(DlmConfig::default());
        let old_incarnation = {
            let (viewer, viewer_rx) = connect(&hub1, 1);
            let (updater, _urx) = connect(&hub1, 2);
            viewer.send(lock(vec![Oid::new(7)])).unwrap();
            std::thread::sleep(Duration::from_millis(50));
            updater
                .send(committed(vec![UpdateInfo::lazy(Oid::new(7))]))
                .unwrap();
            let e = viewer_rx.recv_timeout(Duration::from_secs(2)).unwrap();
            assert!(matches!(e, DlmEvent::Updated(_)));
            viewer.log_incarnations().to_vec()
        };
        drop(agent1);

        // "Restart": a fresh agent process with an empty in-memory log.
        let (_agent2, hub2) = agent(DlmConfig::default());
        let (viewer, viewer_rx) = connect(&hub2, 1);
        assert_ne!(viewer.log_incarnations(), old_incarnation);
        viewer.send(lock(vec![Oid::new(7)])).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        viewer
            .send(replay(cursors_from(1, &old_incarnation)))
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            let e = viewer_rx
                .recv_timeout(deadline.saturating_duration_since(std::time::Instant::now()))
                .expect("resync marker never arrived");
            match e {
                DlmEvent::ResyncRequired { oids } => {
                    assert_eq!(oids, vec![Oid::new(7)]);
                    break;
                }
                DlmEvent::Updated(_) => panic!("stale cursor must not replay silently"),
                _ => continue,
            }
        }
    }

    #[test]
    fn two_shard_agent_overflow_replays_the_overflowed_shard_only() {
        // The agent deployment at shards = 2. Every agent → client send
        // is slowed so a burst into one shard overflows that shard's
        // outbox; recovery must stay inside that shard's seqno space:
        // ReplayNeeded{hot} → ReplayFrom[hot] → replayed suffix →
        // CursorAck{hot}, with the other shard's stream untouched.
        use displaydb_wire::{FaultPlan, FaultyListener};
        let mut config = DlmConfig {
            shards: 2,
            ..DlmConfig::default()
        };
        config.overload.outbox_high_water = 4;
        let hub = LocalHub::new();
        let plan = Arc::new(FaultPlan::new());
        plan.set_delay(1000, Duration::from_millis(10));
        let agent = DlmAgent::spawn(
            Arc::new(ShardedDlm::new(config)),
            Box::new(FaultyListener::wrap(Box::new(hub.clone()), plan)),
        );
        let (viewer, rx) = connect(&hub, 1);
        let (updater, _urx) = connect(&hub, 2);
        assert_eq!(viewer.log_incarnations().len(), 2);

        let map = agent.dlm().map();
        let (hot, calm) = (0u32, 1u32);
        let in_shard = |shard: u32| {
            (0u64..)
                .map(Oid::new)
                .filter(move |&o| map.shard_of(o) == shard)
        };
        let hot_oids: Vec<Oid> = in_shard(hot).take(24).collect();
        let calm_oid = in_shard(calm).next().unwrap();
        let mut watched = hot_oids.clone();
        watched.push(calm_oid);
        viewer.send(lock(watched)).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while agent.dlm().locked_objects() < 25 {
            assert!(std::time::Instant::now() < deadline, "locks never landed");
            std::thread::sleep(Duration::from_millis(5));
        }
        let next = |what: &str| {
            rx.recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("timed out waiting for {what}"))
        };

        // One commit in the calm shard: delivered and acked in its own
        // seqno space.
        updater
            .send(committed(vec![UpdateInfo::lazy(calm_oid)]))
            .unwrap();
        assert_eq!(
            next("calm update"),
            DlmEvent::Updated(UpdateInfo::lazy(calm_oid))
        );
        assert_eq!(
            next("calm ack"),
            DlmEvent::CursorAck {
                shard: calm,
                seqno: 1
            }
        );

        // One commit of 24 updates, all in the hot shard: the writer is
        // asleep inside its first (slowed) send while the rest of the
        // fan-out lands on a 4-deep queue.
        updater
            .send(committed(
                hot_oids.iter().map(|&o| UpdateInfo::lazy(o)).collect(),
            ))
            .unwrap();
        loop {
            match next("the hot shard's replay marker") {
                DlmEvent::Updated(u) => assert_eq!(map.shard_of(u.oid), hot),
                DlmEvent::ReplayNeeded { shard, .. } => {
                    assert_eq!(shard, hot, "only the overflowed shard asks for replay");
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        viewer
            .send(replay(vec![ShardCursor {
                shard: hot,
                cursor: 0,
                log_incarnation: viewer.log_incarnations()[hot as usize],
            }]))
            .unwrap();
        let mut replayed = std::collections::HashSet::new();
        loop {
            match next("the hot shard's replayed suffix and ack") {
                DlmEvent::Updated(u) => {
                    assert_eq!(map.shard_of(u.oid), hot);
                    replayed.insert(u.oid);
                }
                DlmEvent::CursorAck { shard, seqno } => {
                    assert_eq!((shard, seqno), (hot, 1));
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(replayed.len(), hot_oids.len(), "the whole commit came back");
        assert!(agent.dlm().stats().overload.overflows.get() >= 1);
        assert_eq!(agent.dlm().stats().log.truncated_replays.get(), 0);
        // Nothing else is owed: the calm shard was never disturbed. The
        // window outlasts an ack interval, so a deferred ack would show.
        assert!(rx.recv_timeout(crate::outbox::ACK_INTERVAL * 4).is_err());
    }

    #[test]
    fn many_clients_fan_out() {
        let (agent, hub) = agent(DlmConfig::default());
        let mut viewers = Vec::new();
        for i in 0..5 {
            let (conn, rx) = connect(&hub, i);
            conn.send(lock(vec![Oid::new(42)])).unwrap();
            viewers.push((conn, rx));
        }
        std::thread::sleep(Duration::from_millis(100));
        let (updater, _rx) = connect(&hub, 99);
        updater
            .send(committed(vec![UpdateInfo::lazy(Oid::new(42))]))
            .unwrap();
        for (_, rx) in &viewers {
            let e = rx.recv_timeout(Duration::from_secs(2)).unwrap();
            assert!(matches!(e, DlmEvent::Updated(_)));
        }
        assert_eq!(agent.dlm().stats().notifications.get(), 5);
    }
}
