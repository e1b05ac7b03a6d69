//! Commits ship what changed (DESIGN.md § 5): a one-shot update of an
//! object the client cache holds travels as the attributes that differ
//! from that copy, named by the copy's fingerprint. A server whose stored
//! object is no longer that copy refuses the whole commit, and the client
//! sends the same write set once more with full states — so what commits
//! is exactly the objects the transaction wrote, whatever the cache held.
//!
//! Frame sizes are computed from the request the test expects, with a
//! one-byte sequence number (every client here sends fewer than 128
//! requests before the measured one) — except in the byte guard, which
//! mirrors a long run.

mod support;

use displaydb::nms::nms_catalog;
use displaydb::prelude::*;
use displaydb::server::proto::{Envelope, Request, Response, WriteForm};
use displaydb::wire::{Encode, Listener};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};
use support::TempDir;

/// One server (and, for the agent deployment, one DLM agent) with two
/// ways in: a plain hub, and a hub whose every server → client frame can
/// be delayed through `slow`.
struct Deployment {
    _dir: TempDir,
    server: Server,
    agent: Option<DlmAgent>,
    fast_hub: LocalHub,
    slow_hub: LocalHub,
    slow: Arc<FaultPlan>,
    dlm_hub: Option<LocalHub>,
    catalog: Arc<Catalog>,
}

impl Deployment {
    fn new(agent: bool) -> Self {
        let dir = TempDir::new(if agent {
            "patch-agent"
        } else {
            "patch-integrated"
        });
        let catalog = Arc::new(nms_catalog());
        let (fast_hub, slow_hub) = (LocalHub::new(), LocalHub::new());
        let slow = Arc::new(FaultPlan::new());
        let listeners: Vec<Box<dyn Listener>> = vec![
            Box::new(fast_hub.clone()),
            Box::new(FaultyListener::wrap(
                Box::new(slow_hub.clone()),
                Arc::clone(&slow),
            )),
        ];
        let config = ServerConfig::new(dir.path());
        let server = Server::spawn(Arc::clone(&catalog), config, listeners).unwrap();
        let (agent, dlm_hub) = if agent {
            let dlm_hub = LocalHub::new();
            let dlm = Arc::new(ShardedDlm::new(DlmConfig::default()));
            (
                Some(DlmAgent::spawn(dlm, Box::new(dlm_hub.clone()))),
                Some(dlm_hub),
            )
        } else {
            (None, None)
        };
        Self {
            _dir: dir,
            server,
            agent,
            fast_hub,
            slow_hub,
            slow,
            dlm_hub,
            catalog,
        }
    }

    /// A client whose server link is metered on `meter`; `slow` puts it
    /// behind the delayable hub.
    fn client(&self, name: &str, slow: bool, meter: &Arc<WireMeter>) -> Arc<DbClient> {
        let hub = if slow { &self.slow_hub } else { &self.fast_hub };
        let db = Box::new(MeteredChannel::wrap(
            Box::new(hub.connect().unwrap()),
            Arc::clone(meter),
        ));
        let config = ClientConfig::named(name);
        match &self.dlm_hub {
            Some(dlm_hub) => {
                DbClient::connect_with_agent(db, Box::new(dlm_hub.connect().unwrap()), config)
            }
            None => DbClient::connect(db, config),
        }
        .unwrap()
    }

    fn link(&self, updater: &Arc<DbClient>) -> Oid {
        let mut txn = updater.begin().unwrap();
        let oid = txn.create(updater.new_object("Link").unwrap()).unwrap().oid;
        txn.commit().unwrap();
        oid
    }

    /// The display-lock table the viewer's requests land in.
    fn dlm(&self) -> &Arc<ShardedDlm> {
        match &self.agent {
            Some(agent) => agent.dlm(),
            None => self.server.core().dlm(),
        }
    }
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Bytes of the frame carrying `request` under a one-byte sequence number.
fn frame(request: Request) -> u64 {
    Envelope::Req(1, request).encode_to_bytes().len() as u64
}

fn commit_of(writes: Vec<(Oid, WriteForm)>, txn: Option<TxnId>) -> Request {
    Request::Commit {
        txn,
        writes,
        trace: 0,
    }
}

/// Which form each kind of write travels in, pinned by the bytes of the
/// commit frame: a one-shot update of a cached object is a patch of that
/// copy; a transaction that took an explicit lock ships full states, and
/// creations and deletions are what they always were.
fn write_forms(deployment: &Deployment) {
    let cat = &deployment.catalog;
    let meter = WireMeter::new();
    let c = deployment.client("writer", false, &meter);
    let commit_bytes = |txn: ClientTxn| {
        let before = meter.bytes_sent();
        txn.commit().unwrap();
        meter.bytes_sent() - before
    };

    let mut txn = c.begin().unwrap();
    let created = txn.create(c.new_object("Link").unwrap()).unwrap();
    let oid = created.oid;
    let put = |obj: &DbObject| WriteForm::Put(obj.encode_to_bytes().to_vec());
    assert_eq!(
        commit_bytes(txn),
        frame(commit_of(vec![(oid, put(&created))], None))
    );

    let cached = c.read(oid).unwrap();
    let mut txn = c.begin().unwrap();
    txn.update(oid, |o| o.set(cat, "Utilization", 0.5)).unwrap();
    let written = txn.read(oid).unwrap();
    let patch = WriteForm::Patch {
        base: cached.fingerprint(),
        changed: written.changes_since(&cached),
    };
    assert_eq!(
        commit_bytes(txn),
        frame(commit_of(vec![(oid, patch)], None))
    );

    let mut txn = c.begin().unwrap();
    txn.lock_exclusive(oid).unwrap();
    txn.update(oid, |o| o.set(cat, "Utilization", 0.75))
        .unwrap();
    let (id, written) = (txn.id(), txn.read(oid).unwrap());
    assert_eq!(
        commit_bytes(txn),
        frame(commit_of(vec![(oid, put(&written))], id))
    );

    let mut txn = c.begin().unwrap();
    txn.delete(oid).unwrap();
    assert_eq!(
        commit_bytes(txn),
        frame(commit_of(vec![(oid, WriteForm::Delete)], None))
    );
    assert!(deployment.server.core().store().get(oid).is_err());
}

#[test]
fn integrated_write_forms() {
    write_forms(&Deployment::new(false));
}

#[test]
fn agent_write_forms() {
    write_forms(&Deployment::new(true));
}

/// A viewer whose copy of a link is refreshed late — the integrated
/// deployment's `Delta`, the agent deployment's callback, either frame
/// delayed in the server's send — commits another attribute of that link
/// meanwhile. Its patch names a state the link no longer has: one refused
/// request, one resend with full states, and the link ends exactly as the
/// viewer wrote it (the updater's change included, undone: last writer
/// wins per object, as with full states).
fn stale_base(deployment: &Deployment) {
    let cat = &deployment.catalog;
    let meter = WireMeter::new();
    let updater = deployment.client("updater", false, &meter);
    let viewer = deployment.client("viewer", true, &meter);
    let checker = deployment.client("checker", false, &meter);
    let oid = deployment.link(&updater);
    let display = Display::open(Arc::clone(&viewer), Arc::new(DisplayCache::new()), "map");
    display
        .add_object(&width_coded_link("Utilization"), vec![oid])
        .unwrap();
    wait_until("the projected lock", || {
        deployment.dlm().has_interest(viewer.id(), oid)
    });
    assert!(viewer.cache().contains(oid));

    let core = deployment.server.core();
    let commits = core.stats().commits.get();
    deployment.slow.set_delay(Duration::from_millis(300));
    std::thread::scope(|scope| {
        let update = scope.spawn(|| {
            let mut txn = updater.begin().unwrap();
            txn.update(oid, |o| o.set(cat, "Utilization", 0.75))
                .unwrap();
            txn.commit()
        });
        wait_until("the update to take its lock", || {
            core.stats().commits.get() > commits || core.locks().locked_objects() > 0
        });
        let conn = viewer.conn();
        let sent = conn.stats().sent.get() - conn.stats().callbacks.get();
        let mut txn = viewer.begin().unwrap();
        txn.update(oid, |o| o.set(cat, "ErrorRate", 0.25)).unwrap();
        let written = txn.read(oid).unwrap();
        assert_eq!(written.get(cat, "Utilization").unwrap(), &Value::Float(0.0));
        txn.commit().unwrap();
        let requests = conn.stats().sent.get() - conn.stats().callbacks.get() - sent;
        assert_eq!(requests, 2, "one refused patch, one full-state resend");
        update.join().unwrap().unwrap();
        deployment.slow.clear_delay();
        let committed = checker.read_fresh(oid).unwrap();
        assert_eq!(committed.encode_to_bytes(), written.encode_to_bytes());
    });
    assert_eq!(core.stats().commits.get(), commits + 2);
    assert_eq!(core.locks().locked_objects(), 0);
    assert_eq!(core.active_txns(), 0);
}

#[test]
fn integrated_a_stale_base_costs_one_refusal_and_one_resend() {
    stale_base(&Deployment::new(false));
}

#[test]
fn agent_a_stale_base_costs_one_refusal_and_one_resend() {
    stale_base(&Deployment::new(true));
}

/// A client caches every object it commits, so the server registers that
/// copy as it would a read's: the next writer calls it back. Covered for a
/// creation and for a full state written without reading it first. With
/// synchronous callbacks a commit returns only after its callbacks are
/// acked, so no read below can race one.
fn own_commit_copies(deployment: &Deployment) {
    let cat = &deployment.catalog;
    let meter = WireMeter::new();
    let a = deployment.client("a", false, &meter);
    let b = deployment.client("b", false, &meter);
    let set = |client: &Arc<DbClient>, oid: Oid, value: f64| {
        let mut txn = client.begin().unwrap();
        txn.update(oid, |o| o.set(cat, "Utilization", value))
            .unwrap();
        txn.commit().unwrap();
    };
    let value = |client: &Arc<DbClient>, oid: Oid| {
        client
            .read(oid)
            .unwrap()
            .get(cat, "Utilization")
            .unwrap()
            .clone()
    };

    let mut txn = a.begin().unwrap();
    let mut link = a.new_object("Link").unwrap();
    link.set(cat, "Utilization", 0.0).unwrap();
    let oid = txn.create(link).unwrap().oid;
    txn.commit().unwrap();
    set(&b, oid, 0.7);
    assert_eq!(value(&a, oid), Value::Float(0.7), "the creator's copy");

    // B's next commit calls A's read copy back, so A's write below is
    // blind: a full state A never read.
    set(&b, oid, 0.8);
    assert!(!a.cache().contains(oid));
    let mut blind = b.read(oid).unwrap();
    blind.set(cat, "ErrorRate", 0.25).unwrap();
    let mut txn = a.begin().unwrap();
    txn.write(blind).unwrap();
    txn.commit().unwrap();
    assert!(a.cache().contains(oid));
    set(&b, oid, 0.9);
    assert_eq!(value(&a, oid), Value::Float(0.9), "the blind writer's copy");
}

#[test]
fn integrated_a_copy_cached_by_its_own_commit_is_called_back() {
    own_commit_copies(&Deployment::new(false));
}

#[test]
fn agent_a_copy_cached_by_its_own_commit_is_called_back() {
    own_commit_copies(&Deployment::new(true));
}

/// Two commits of one link, the first stalled in a commit-time callback to
/// a slow holder, the second arriving meanwhile: the second must queue
/// behind the first until the first has fanned out, or its notification
/// goes out first and the viewer is left showing the older value.
#[test]
fn a_later_commits_notification_is_not_overtaken() {
    let deployment = Deployment::new(false);
    let cat = &deployment.catalog;
    let meter = WireMeter::new();
    let (a, b) = (
        deployment.client("a", false, &meter),
        deployment.client("b", false, &meter),
    );
    let viewer = deployment.client("viewer", false, &meter);
    let slow = deployment.client("slow", true, &meter);
    let checker = deployment.client("checker", false, &meter);
    let oid = deployment.link(&a);
    let display = Display::open(Arc::clone(&viewer), Arc::new(DisplayCache::new()), "map");
    let id = display
        .add_object(&width_coded_link("Utilization"), vec![oid])
        .unwrap();
    let slow_display = Display::open(Arc::clone(&slow), Arc::new(DisplayCache::new()), "slow");
    slow_display
        .add_object(&width_coded_link("Utilization"), vec![oid])
        .unwrap();
    wait_until("both projected locks", || {
        deployment.dlm().has_interest(viewer.id(), oid)
            && deployment.dlm().has_interest(slow.id(), oid)
    });

    let core = deployment.server.core();
    let callbacks = core.stats().callbacks.get();
    deployment.slow.set_delay(Duration::from_millis(300));
    std::thread::scope(|scope| {
        // ErrorRate is outside both projections: A calls both copies back,
        // and the slow holder's callback takes 300 ms to send.
        let first = scope.spawn(|| {
            let mut txn = a.begin().unwrap();
            txn.update(oid, |o| {
                o.set(cat, "Utilization", 0.5)?;
                o.set(cat, "ErrorRate", 0.1)
            })
            .unwrap();
            txn.commit()
        });
        wait_until("A's callbacks", || core.stats().callbacks.get() > callbacks);
        let mut txn = b.begin().unwrap();
        txn.update(oid, |o| o.set(cat, "Utilization", 0.9)).unwrap();
        txn.commit().unwrap();
        first.join().unwrap().unwrap();
    });
    deployment.slow.clear_delay();
    let stored = checker.read_fresh(oid).unwrap();
    assert_eq!(stored.get(cat, "Utilization").unwrap(), &Value::Float(0.9));
    // Quiescence: the viewer has acknowledged every logged commit, so
    // every notification it will get is in.
    let head = deployment.dlm().update_log_of(0).head();
    wait_until("the viewer's ack of both commits", || {
        viewer.dlc().cursor_of(0) >= head
    });
    display.process_pending().unwrap();
    assert_eq!(
        display.object(id).unwrap().attr("Utilization"),
        Some(&Value::Float(0.9)),
        "the viewer shows an older commit's value"
    );
}

/// A committer behind a slow link holds up neither the viewers of its
/// commit nor the next writer's locks on its objects: a commit whose
/// answer may block sends it after its fan-out and the release of its
/// locks. The next writer's commit calls back the copy the slow client
/// cached by committing, as it would a read copy, so it pays one trip
/// over the slow link, but not a second one for the blocked answer.
#[test]
fn a_slow_committers_answer_holds_up_nobody() {
    let deployment = Deployment::new(false);
    let cat = &deployment.catalog;
    let meter = WireMeter::new();
    let (writer, viewer) = (
        deployment.client("writer", false, &meter),
        deployment.client("viewer", false, &meter),
    );
    let slow = deployment.client("slow", true, &meter);
    let oid = deployment.link(&writer);
    let display = Display::open(Arc::clone(&viewer), Arc::new(DisplayCache::new()), "map");
    let id = display
        .add_object(&width_coded_link("Utilization"), vec![oid])
        .unwrap();
    wait_until("the projected lock", || {
        deployment.dlm().has_interest(viewer.id(), oid)
    });
    // A full state the slow client never read.
    let mut obj = slow.new_object("Link").unwrap();
    obj.oid = oid;
    obj.set(cat, "Utilization", 0.5).unwrap();
    let log = deployment.dlm().update_log_of(0);
    let head = log.head();
    let delay = Duration::from_millis(600);
    deployment.slow.set_delay(delay);
    std::thread::scope(|scope| {
        let slow_commit = scope.spawn(|| {
            let mut txn = slow.begin().unwrap();
            txn.write(obj).unwrap();
            txn.commit()
        });
        wait_until("the slow commit's log append", || log.head() > head);
        let logged = Instant::now();
        wait_until("the viewer's refresh", || {
            display.process_pending().unwrap();
            display.object(id).unwrap().attr("Utilization") == Some(&Value::Float(0.5))
        });
        let mut txn = writer.begin().unwrap();
        txn.lock_update(oid).unwrap();
        let waited = logged.elapsed();
        assert!(waited < delay / 2, "waited {waited:?} on a slow answer");
        txn.update(oid, |o| o.set(cat, "Utilization", 0.9)).unwrap();
        txn.commit().unwrap();
        let committed = logged.elapsed();
        assert!(
            committed < delay + delay / 2,
            "committed after {committed:?}: a slow answer and a callback"
        );
        slow_commit.join().unwrap().unwrap();
    });
    deployment.slow.clear_delay();
}

/// How long an outbox waits between two cursor acks (the writer's own
/// constant): an ack owed sooner after the previous one goes on a later
/// frame, or alone when the interval ends.
const ACK_INTERVAL: Duration = Duration::from_millis(25);

/// Bytes on the wire per commit, pinned: the `steady` workloads' exchange
/// (one updater writing `Utilization`, one viewer displaying it through a
/// projected lock) in the integrated deployment, after enough commits
/// that request sequence numbers and update-log seqnos take two bytes, as
/// through most of a long run. A regression here moves a number that
/// `wire_bytes_per_commit` would otherwise have to catch.
#[test]
fn bytes_per_commit_are_pinned() {
    let deployment = Deployment::new(false);
    let cat = &deployment.catalog;
    let (updater_meter, viewer_meter) = (WireMeter::new(), WireMeter::new());
    let updater = deployment.client("updater", false, &updater_meter);
    let viewer = deployment.client("viewer", false, &viewer_meter);
    let oid = deployment.link(&updater);
    let display = Display::open(Arc::clone(&viewer), Arc::new(DisplayCache::new()), "map");
    let id = display
        .add_object(&width_coded_link("Utilization"), vec![oid])
        .unwrap();
    let set = |value: f64| {
        let mut txn = updater.begin().unwrap();
        txn.update(oid, |o| o.set(cat, "Utilization", value))
            .unwrap();
        txn.commit().unwrap();
    };
    let shown = |value: f64| {
        let width = displaydb::viz::utilization_width(value, 1.0, 9.0);
        let deadline = Instant::now() + Duration::from_secs(10);
        while display.object(id).unwrap().attr("Width") != Some(&Value::Float(width.into())) {
            assert!(Instant::now() < deadline, "display never showed {value}");
            display.wait_and_process(Duration::from_millis(20)).unwrap();
        }
    };
    // Wait until the viewer has heard nothing for longer than an ack
    // interval: an owed cursor ack has arrived, and the next one is due.
    let settle = || {
        let mut received = viewer_meter.bytes_received();
        loop {
            display
                .wait_and_process(ACK_INTERVAL + ACK_INTERVAL / 5)
                .unwrap();
            if viewer_meter.bytes_received() == received {
                break;
            }
            received = viewer_meter.bytes_received();
        }
    };
    // One traffic sample after an idle interval: what each side sent and
    // received for `commit`.
    let sample = |commit: &dyn Fn()| {
        settle();
        let meters = [&updater_meter, &viewer_meter];
        let before = meters.map(|m| (m.bytes_sent(), m.bytes_received()));
        commit();
        settle();
        let after = meters.map(|m| (m.bytes_sent(), m.bytes_received()));
        [
            after[0].0 - before[0].0,
            after[0].1 - before[0].1,
            after[1].0 - before[1].0,
            after[1].1 - before[1].1,
        ]
    };
    for i in 0..140 {
        let value = f64::from(i) / 1000.0;
        set(value);
        shown(value);
    }
    // updater sent (the commit), updater received (its `Ok`), viewer
    // sent, viewer received (`Batch[Delta, CursorAck]`: the ack rides).
    for i in 0..3 {
        let value = 0.5 + f64::from(i) / 10.0;
        let traffic = sample(&|| {
            set(value);
            shown(value);
        });
        assert_eq!(traffic, [29, 4, 0, 24], "commit {i}");
        assert_eq!(traffic.iter().sum::<u64>(), 57);
    }
    // A burst of shown commits: each is a bare 18-byte `Delta`, and the
    // cursor is acknowledged at most once per interval — 6 bytes whether
    // the ack rides a delta's frame or goes alone.
    let k = 10u64;
    settle();
    let stats = viewer.dlc().stats();
    let (bytes, acks_before) = (viewer_meter.bytes_received(), stats.cursor_acks_in.get());
    let started = Instant::now();
    for i in 0..k {
        let value = 0.2 + i as f64 / 100.0;
        set(value);
        shown(value);
    }
    // Until the ack naming the last commit has arrived.
    let head = deployment.server.core().dlm().update_log_of(0).head();
    wait_until("the burst's last ack", || viewer.dlc().cursor_of(0) >= head);
    let elapsed = started.elapsed();
    settle();
    let acks = stats.cursor_acks_in.get() - acks_before;
    let bound = 1 + (elapsed.as_nanos() / ACK_INTERVAL.as_nanos()) as u64;
    assert!((1..=bound).contains(&acks), "{acks} acks in {elapsed:?}");
    assert_eq!(viewer_meter.bytes_received() - bytes, 18 * k + 6 * acks);
    // A stale base: the updater's cached copy is an older state (as a late
    // refresh would leave it), so its patch is refused and sent again whole.
    let mut stale = updater.read(oid).unwrap();
    stale.set(cat, "Utilization", 0.125).unwrap();
    updater.cache().insert(stale);
    let traffic = sample(&|| {
        set(0.9);
        shown(0.9);
    });
    // The refusal is `Envelope::Resp` (tag, two-byte seq) around the
    // error's kind and message.
    let refusal = Response::from_error(&DbError::StaleBase { oid });
    assert_eq!(3 + refusal.encode_to_bytes().len(), 61);
    assert_eq!(traffic, [29 + 59, 61 + 4, 0, 24]);
}

/// One writer's step in the interleaving below.
#[derive(Clone, Debug)]
enum Op {
    /// Read a link: its state now is both the base and the working copy.
    Read { client: usize, link: usize },
    /// Change one attribute of the working copy.
    Change {
        client: usize,
        attr: usize,
        value: usize,
    },
    /// Commit the working copy; with `stale`, first put the base back in
    /// the client cache, as a refresh that has not arrived would leave it.
    Commit { client: usize, stale: bool },
}

const ATTRS: [(&str, AttrType); 5] = [
    ("Utilization", AttrType::Float),
    ("ErrorRate", AttrType::Float),
    ("LatencyMs", AttrType::Float),
    ("CapacityMbps", AttrType::Int),
    ("Vendor", AttrType::Str),
];

fn value_of(ty: AttrType, i: usize) -> Value {
    match ty {
        AttrType::Float => Value::Float([0.0, -0.0, 0.5, 1.5][i % 4]),
        AttrType::Int => Value::Int([0, 1000, -7, 40][i % 4]),
        _ => Value::Str(["", "acme", "globex", "initech"][i % 4].into()),
    }
}

fn arb_op() -> impl Strategy<Value = Op> {
    let client = 0usize..2;
    prop_oneof![
        (client.clone(), 0usize..2).prop_map(|(client, link)| Op::Read { client, link }),
        (client.clone(), 0usize..ATTRS.len(), 0usize..4).prop_map(|(client, attr, value)| {
            Op::Change {
                client,
                attr,
                value,
            }
        }),
        (client, any::<bool>()).prop_map(|(client, stale)| Op::Commit { client, stale }),
    ]
}

proptest! {
    /// Two clients interleave read → change → commit over two shared
    /// links. Whatever each one's cache held, the committed state is the
    /// model in which every commit writes the whole object it built: the
    /// last writer wins per object, byte for byte.
    #[test]
    fn prop_committed_state_is_the_last_object_written(
        ops in proptest::collection::vec(arb_op(), 1..40)
    ) {
        thread_local! {
            // One server for every case (each case writes links of its
            // own): a server's shutdown waits out its accept poll.
            static DEPLOYMENT: Deployment = Deployment::new(false);
        }
        DEPLOYMENT.with(|deployment| interleave(deployment, ops))?;
    }
}

fn interleave(deployment: &Deployment, ops: Vec<Op>) -> Result<(), String> {
    let cat = &deployment.catalog;
    let meter = WireMeter::new();
    let writers = [
        deployment.client("a", false, &meter),
        deployment.client("b", false, &meter),
    ];
    let checker = deployment.client("checker", false, &meter);
    let links = [deployment.link(&writers[0]), deployment.link(&writers[0])];
    let mut model: Vec<DbObject> = links.iter().map(|&l| checker.read(l).unwrap()).collect();
    // Per writer: (link, base, working copy) since its last read.
    let mut open: [Option<(usize, DbObject, DbObject)>; 2] = [None, None];
    for op in ops {
        match op {
            Op::Read { client, link } => {
                let base = writers[client].read(links[link]).unwrap();
                open[client] = Some((link, base.clone(), base));
            }
            Op::Change {
                client,
                attr,
                value,
            } => {
                if let Some((_, _, working)) = &mut open[client] {
                    let (name, ty) = ATTRS[attr];
                    working.set(cat, name, value_of(ty, value)).unwrap();
                }
            }
            Op::Commit { client, stale } => {
                let Some((link, base, working)) = open[client].take() else {
                    continue;
                };
                let writer = &writers[client];
                if stale {
                    writer.cache().insert(base);
                }
                let mut txn = writer.begin().unwrap();
                txn.write(working.clone()).unwrap();
                txn.commit().unwrap();
                model[link] = working;
            }
        }
        for (link, expected) in links.iter().zip(&model) {
            let committed = checker.read_fresh(*link).unwrap();
            prop_assert_eq!(committed.encode_to_bytes(), expected.encode_to_bytes());
        }
    }
    for client in writers.iter().chain([&checker]) {
        client.close();
    }
    Ok(())
}
