//! Protocol-level integration: the two DLM deployments (integrated vs
//! agent), eager shipping, and message accounting.

use displaydb::dlm::{DlmRequest, ShardCursor};
use displaydb::nms::nms_catalog;
use displaydb::prelude::*;
use displaydb::server::proto::{Envelope, Request, Response};
use displaydb::wire::{Channel, Decode, Encode};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("displaydb-it-protocols")
        .join(format!("{}-{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Deployment {
    server: Server,
    agent: Option<DlmAgent>,
    db_hub: LocalHub,
    dlm_hub: Option<LocalHub>,
    catalog: Arc<Catalog>,
}

impl Deployment {
    fn integrated(name: &str, dlm: DlmConfig) -> Self {
        let catalog = Arc::new(nms_catalog());
        let db_hub = LocalHub::new();
        let mut config = ServerConfig::new(tmp(name));
        config.dlm = dlm;
        let server = Server::spawn_local(Arc::clone(&catalog), config, &db_hub).unwrap();
        Self {
            server,
            agent: None,
            db_hub,
            dlm_hub: None,
            catalog,
        }
    }

    fn agent(name: &str, dlm: DlmConfig) -> Self {
        let catalog = Arc::new(nms_catalog());
        let db_hub = LocalHub::new();
        let server =
            Server::spawn_local(Arc::clone(&catalog), ServerConfig::new(tmp(name)), &db_hub)
                .unwrap();
        let dlm_hub = LocalHub::new();
        let agent = DlmAgent::spawn(Arc::new(ShardedDlm::new(dlm)), Box::new(dlm_hub.clone()));
        Self {
            server,
            agent: Some(agent),
            db_hub,
            dlm_hub: Some(dlm_hub),
            catalog,
        }
    }

    /// The DLM the clients' display-lock requests land in.
    fn dlm(&self) -> &Arc<ShardedDlm> {
        match &self.agent {
            Some(agent) => agent.dlm(),
            None => self.server.core().dlm(),
        }
    }

    fn client(&self, name: &str) -> Arc<DbClient> {
        match &self.dlm_hub {
            Some(dlm_hub) => DbClient::connect_with_agent(
                Box::new(self.db_hub.connect().unwrap()),
                Box::new(dlm_hub.connect().unwrap()),
                ClientConfig::named(name),
            )
            .unwrap(),
            None => DbClient::connect(
                Box::new(self.db_hub.connect().unwrap()),
                ClientConfig::named(name),
            )
            .unwrap(),
        }
    }
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn await_utilization(display: &Display, id: DoId, want: f64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while display.object(id).unwrap().attr("Utilization") != Some(&Value::Float(want)) {
        assert!(Instant::now() < deadline, "display never showed {want}");
        display
            .wait_and_process(Duration::from_millis(100))
            .unwrap();
    }
}

fn set_utilization(updater: &Arc<DbClient>, catalog: &Catalog, oid: Oid, value: f64) {
    let mut txn = updater.begin().unwrap();
    txn.update(oid, |o| o.set(catalog, "Utilization", value))
        .unwrap();
    txn.commit().unwrap();
}

/// A link class on whole-object display locks (DESIGN.md § 10).
fn whole_object_link() -> Arc<DisplayClassDef> {
    DisplayClassBuilder::new("WholeObjectLink")
        .project(&["Utilization"])
        .compute("Color", |ctx| {
            let u = ctx.max_float("Utilization")?;
            Ok(Value::Int(i64::from(
                displaydb::viz::utilization_color(u).to_u32(),
            )))
        })
        .whole_object()
        .build()
}

/// Both deployments must produce the same observable display behaviour:
/// every request the DLC sends — projected lock, plain lock, release,
/// replay — goes through the one dispatch, whichever link carried it.
fn refresh_scenario(deployment: &Deployment) {
    let viewer = deployment.client("viewer");
    let updater = deployment.client("updater");
    let catalog = &deployment.catalog;
    let dlm = deployment.dlm();

    let mut txn = updater.begin().unwrap();
    let mut create = || {
        let link = updater
            .new_object("Link")
            .unwrap()
            .with(catalog, "Utilization", 0.2)
            .unwrap();
        txn.create(link).unwrap().oid
    };
    let (link, other) = (create(), create());
    txn.commit().unwrap();

    // Projected lock → the update arrives and the display refreshes.
    let cache = Arc::new(DisplayCache::new());
    let display = Display::open(Arc::clone(&viewer), cache, "view");
    let projected = display
        .add_object(&color_coded_link("Utilization"), vec![link])
        .unwrap();
    // Agent-mode requests are fire-and-forget: wait for them to land.
    wait_until("the projected lock", || dlm.has_interest(viewer.id(), link));
    set_utilization(&updater, catalog, link, 0.9);
    await_utilization(&display, projected, 0.9);

    // Replay from the start of a log that lost its entries: the shard
    // answers with one ResyncRequired over the viewer's interests.
    dlm.update_log_of(0).truncate_all();
    let from_start: Vec<ShardCursor> = viewer
        .dlc()
        .cursors()
        .into_iter()
        .map(|sc| ShardCursor { cursor: 0, ..sc })
        .collect();
    assert_eq!(from_start.len(), 1, "one cursor per announced shard");
    viewer
        .dlc()
        .backend()
        .send(DlmRequest::ReplayFrom {
            cursors: from_start,
        })
        .unwrap();
    wait_until("the resync marker", || {
        viewer.dlc().stats().resyncs_in.get() == 1
    });
    assert_eq!(dlm.stats().log.truncated_replays.get(), 1);

    // Release `link`, plain-lock `other`: a commit to the released
    // object raises nothing, the next one reaches the display.
    display.remove_object(projected).unwrap();
    wait_until("the release", || dlm.holders(link).is_empty());
    let whole = display
        .add_object(&whole_object_link(), vec![other])
        .unwrap();
    wait_until("the plain lock", || dlm.holders(other) == vec![viewer.id()]);
    assert!(!dlm.has_interest(viewer.id(), other), "not projected");
    let before = dlm.stats().notifications.get();
    set_utilization(&updater, catalog, link, 0.5);
    set_utilization(&updater, catalog, other, 0.7);
    await_utilization(&display, whole, 0.7);
    // The DLM counts a delivery after handing it to the outbox, so the
    // display can get there first. Reports are handled in order: once
    // `other`'s is counted, `link`'s would have been too.
    let notified = || dlm.stats().notifications.get() - before;
    wait_until("the delivery to be counted", || notified() >= 1);
    assert_eq!(notified(), 1, "only the still-locked object notifies");
}

#[test]
fn integrated_deployment_refreshes() {
    let d = Deployment::integrated("integrated", DlmConfig::default());
    refresh_scenario(&d);
}

#[test]
fn agent_deployment_refreshes() {
    let d = Deployment::agent("agent", DlmConfig::default());
    refresh_scenario(&d);
}

#[test]
fn agent_deployment_eager_shipping_refreshes() {
    let d = Deployment::agent(
        "agent-eager",
        DlmConfig {
            eager_shipping: true,
            ..DlmConfig::default()
        },
    );
    refresh_scenario(&d);
}

/// An eager payload refreshes the display without a read and never
/// enters the database cache: a copy there would be one the server did
/// not register, so once the display lets go no commit calls it back.
fn eager_copy_scenario(deployment: &Deployment) {
    let viewer = deployment.client("viewer");
    let updater = deployment.client("updater");
    let catalog = &deployment.catalog;
    let dlm = deployment.dlm();

    let mut txn = updater.begin().unwrap();
    let link = updater
        .new_object("Link")
        .unwrap()
        .with(catalog, "Utilization", 0.2)
        .unwrap();
    let oid = txn.create(link).unwrap().oid;
    txn.commit().unwrap();

    let display = Display::open(Arc::clone(&viewer), Arc::new(DisplayCache::new()), "view");
    let id = display.add_object(&whole_object_link(), vec![oid]).unwrap();
    wait_until("the lock", || dlm.holders(oid) == vec![viewer.id()]);
    let reads = || deployment.server.core().stats().reads.get();
    let before = reads();
    set_utilization(&updater, catalog, oid, 0.5);
    await_utilization(&display, id, 0.5);
    assert_eq!(reads(), before, "the eager refresh read");

    display.remove_object(id).unwrap();
    wait_until("the release", || dlm.holders(oid).is_empty());
    set_utilization(&updater, catalog, oid, 0.9);
    let read = viewer.read(oid).unwrap();
    let util = read.get(catalog, "Utilization").unwrap();
    assert_eq!(util, &Value::Float(0.9), "the read served the eager copy");
}

#[test]
fn integrated_eager_copy_is_never_cached() {
    let d = Deployment::integrated(
        "integrated-eager-copy",
        DlmConfig {
            eager_shipping: true,
            ..DlmConfig::default()
        },
    );
    eager_copy_scenario(&d);
}

#[test]
fn agent_eager_copy_is_never_cached() {
    let d = Deployment::agent(
        "agent-eager-copy",
        DlmConfig {
            eager_shipping: true,
            ..DlmConfig::default()
        },
    );
    eager_copy_scenario(&d);
}

/// One RPC over a raw channel: send `request` as `seq`, return its
/// response (the typed client would fold the error kind into
/// `Rejected`).
fn raw_call(channel: &dyn Channel, seq: u64, request: Request) -> Response {
    channel
        .send(Envelope::Req(seq, request).encode_to_bytes())
        .unwrap();
    loop {
        let frame = channel.recv_timeout(Duration::from_secs(5)).unwrap();
        if let Envelope::Resp(s, response) = Envelope::decode_from_bytes(&frame).unwrap() {
            assert_eq!(s, seq);
            return response;
        }
    }
}

#[test]
fn integrated_server_refuses_client_reports() {
    // The integrated server raises notifications from its own commit
    // path; a client must not be able to forge one (or to replay the
    // agent's handshake) through `Request::Dlm`.
    let d = Deployment::integrated("refuse-reports", DlmConfig::default());
    let viewer = d.client("viewer");
    let mut txn = viewer.begin().unwrap();
    let link = txn.create(viewer.new_object("Link").unwrap()).unwrap().oid;
    txn.commit().unwrap();
    let display = Display::open(Arc::clone(&viewer), Arc::new(DisplayCache::new()), "v");
    display
        .add_object(&whole_object_link(), vec![link])
        .unwrap();
    assert_eq!(d.dlm().holders(link), vec![viewer.id()]);

    let rogue = d.db_hub.connect().unwrap();
    let hello = Request::Hello {
        name: "rogue".into(),
        resume: None,
    };
    assert!(matches!(
        raw_call(&rogue, 1, hello),
        Response::HelloAck { .. }
    ));
    let txn = TxnId::new(77);
    let refused = [
        DlmRequest::UpdateCommitted {
            updates: vec![UpdateInfo::lazy(link)],
        },
        DlmRequest::WriteIntent {
            oids: vec![link],
            txn,
        },
        DlmRequest::Resolution {
            oids: vec![link],
            txn,
            committed: true,
        },
        DlmRequest::Hello {
            client: viewer.id(),
        },
    ];
    for (i, request) in refused.into_iter().enumerate() {
        let what = format!("{request:?}");
        match raw_call(&rogue, 2 + i as u64, Request::Dlm(request)) {
            Response::Error { kind, .. } => assert_eq!(kind, "protocol", "{what}"),
            other => panic!("{what} answered {other:?}"),
        }
    }
    // The session survived all four.
    assert!(matches!(raw_call(&rogue, 9, Request::Ping), Response::Ok));
    // No holder heard anything.
    let stats = d.dlm().stats();
    assert_eq!(stats.notifications.get(), 0);
    assert_eq!(stats.intent_notifications.get(), 0);
    assert_eq!(d.dlm().holders(link), vec![viewer.id()]);
    assert_eq!(display.process_pending().unwrap(), 0);
    assert_eq!(viewer.dlc().stats().notifications_in.get(), 0);
}

#[test]
fn eager_shipping_eliminates_read_roundtrip() {
    // The § 4.3 claim: eager shipping removes two of the three messages
    // on the refresh path (the read request and its reply). The claim is
    // about *whole-object* watching, so the display class here asks for
    // it — otherwise (DESIGN.md § 10) the display locks what it reads,
    // gets in-place deltas and needs no read round-trip in either mode,
    // collapsing the comparison to 0 vs 0.
    let run = |eager: bool, name: &str| -> u64 {
        let d = Deployment::integrated(
            name,
            DlmConfig {
                eager_shipping: eager,
                ..DlmConfig::default()
            },
        );
        let viewer = d.client("viewer");
        let updater = d.client("updater");
        let catalog = &d.catalog;

        let mut txn = updater.begin().unwrap();
        let link = txn
            .create(
                updater
                    .new_object("Link")
                    .unwrap()
                    .with(catalog, "Utilization", 0.2)
                    .unwrap(),
            )
            .unwrap();
        txn.commit().unwrap();

        let cache = Arc::new(DisplayCache::new());
        let display = Display::open(Arc::clone(&viewer), cache, "view");
        let do_id = display
            .add_object(&whole_object_link(), vec![link.oid])
            .unwrap();

        // Steady state reached; now count the viewer's outgoing frames
        // during 10 refresh rounds.
        let sent_before = viewer.conn().stats().sent.get();
        for i in 0..10 {
            let value = 0.3 + f64::from(i) * 0.05;
            set_utilization(&updater, catalog, link.oid, value);
            await_utilization(&display, do_id, value);
        }
        assert_eq!(
            display.stats().delta_refreshes.get(),
            0,
            "a delta refreshed"
        );
        viewer.conn().stats().sent.get() - sent_before
    };

    let lazy_sent = run(false, "lazy-count");
    let eager_sent = run(true, "eager-count");
    // Lazy: each refresh issues a read request (+ callback acks). Eager:
    // only callback acks remain.
    assert!(
        eager_sent < lazy_sent,
        "eager shipping should reduce viewer messages: lazy={lazy_sent} eager={eager_sent}"
    );
}

#[test]
fn dlc_dedup_reduces_agent_traffic() {
    // § 4.2.1: one DLM lock message per object regardless of how many
    // local displays watch it.
    let d = Deployment::agent("dedup", DlmConfig::default());
    let viewer = d.client("viewer");
    let catalog = &d.catalog;

    let mut txn = viewer.begin().unwrap();
    let mut links = Vec::new();
    for _ in 0..5 {
        links.push(
            txn.create(
                viewer
                    .new_object("Link")
                    .unwrap()
                    .with(catalog, "Utilization", 0.5)
                    .unwrap(),
            )
            .unwrap()
            .oid,
        );
    }
    txn.commit().unwrap();

    let cache = Arc::new(DisplayCache::new());
    let class = color_coded_link("Utilization");
    let mut displays = Vec::new();
    for w in 0..4 {
        let display = Display::open(Arc::clone(&viewer), Arc::clone(&cache), format!("w{w}"));
        for &link in &links {
            display.add_object(&class, vec![link]).unwrap();
        }
        displays.push(display);
    }
    let stats = viewer.dlc().stats();
    assert_eq!(stats.local_lock_requests.get(), 4 * 5);
    assert_eq!(
        stats.dlm_lock_messages.get(),
        5,
        "DLC should deduplicate per-object lock traffic"
    );
    // Releases follow the same rule: only the last display frees the
    // object.
    for d in &displays {
        d.close().unwrap();
    }
    assert_eq!(stats.dlm_release_messages.get(), 5);
}
