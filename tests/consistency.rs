//! Cache-consistency integration: callback invalidation guarantees and
//! display-cache pinning under database-cache pressure.

use displaydb::dlm::DlmRequest;
use displaydb::nms::nms_catalog;
use displaydb::prelude::*;
use displaydb::server::core::SessionHandle;
use displaydb::server::proto::WriteForm;
use displaydb::server::{Envelope, Request, Response, ServerCore, ServerPush};
use displaydb::wire::{local_pair, Channel, Decode, Encode};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("displaydb-it-consistency")
        .join(format!("{}-{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn cached_reads_are_never_stale_after_commit_ack() {
    // With synchronous callbacks (the default), once an updater's commit
    // returns, *no* other client's cache still holds the old state.
    let catalog = Arc::new(nms_catalog());
    let hub = LocalHub::new();
    let _server =
        Server::spawn_local(Arc::clone(&catalog), ServerConfig::new(tmp("rowa")), &hub).unwrap();
    let updater = DbClient::connect(
        Box::new(hub.connect().unwrap()),
        ClientConfig::named("updater"),
    )
    .unwrap();
    let readers: Vec<Arc<DbClient>> = (0..4)
        .map(|i| {
            DbClient::connect(
                Box::new(hub.connect().unwrap()),
                ClientConfig::named(format!("reader-{i}")),
            )
            .unwrap()
        })
        .collect();

    let mut txn = updater.begin().unwrap();
    let link = txn
        .create(
            updater
                .new_object("Link")
                .unwrap()
                .with(&catalog, "Utilization", 0.0)
                .unwrap(),
        )
        .unwrap();
    txn.commit().unwrap();

    for round in 1..=20 {
        // All readers cache the current state.
        for r in &readers {
            r.read(link.oid).unwrap();
        }
        // Update.
        let target = f64::from(round) / 20.0;
        let mut txn = updater.begin().unwrap();
        txn.update(link.oid, |o| o.set(&catalog, "Utilization", target))
            .unwrap();
        txn.commit().unwrap();
        // Immediately after commit returns, every reader must see the
        // new value (their stale copies were called back synchronously).
        for r in &readers {
            let seen = r
                .read(link.oid)
                .unwrap()
                .get(&catalog, "Utilization")
                .unwrap()
                .as_float()
                .unwrap();
            assert!(
                (seen - target).abs() < 1e-9,
                "round {round}: reader saw stale {seen}, expected {target}"
            );
        }
    }
}

#[test]
fn display_cache_pins_survive_database_cache_thrash() {
    // § 3.2: the display cache is application-managed; database-cache
    // evictions (tiny capacity + a scan of unrelated objects) must not
    // touch pinned display objects.
    let catalog = Arc::new(nms_catalog());
    let hub = LocalHub::new();
    let _server =
        Server::spawn_local(Arc::clone(&catalog), ServerConfig::new(tmp("pin")), &hub).unwrap();
    let client = DbClient::connect(
        Box::new(hub.connect().unwrap()),
        ClientConfig {
            name: "tiny-cache".into(),
            cache_bytes: 4 * 1024, // tiny database cache
            call_timeout: Duration::from_secs(30),
        },
    )
    .unwrap();

    // One watched link + 200 unrelated nodes.
    let mut txn = client.begin().unwrap();
    let link = txn
        .create(
            client
                .new_object("Link")
                .unwrap()
                .with(&catalog, "Utilization", 0.5)
                .unwrap(),
        )
        .unwrap();
    txn.commit().unwrap();
    let mut noise = Vec::new();
    let mut txn = client.begin().unwrap();
    for i in 0..200 {
        noise.push(
            txn.create(
                client
                    .new_object("Node")
                    .unwrap()
                    .with(&catalog, "Name", format!("noise-{i}"))
                    .unwrap()
                    .with(&catalog, "Notes", "x".repeat(200))
                    .unwrap(),
            )
            .unwrap()
            .oid,
        );
    }
    txn.commit().unwrap();

    let cache = Arc::new(DisplayCache::new());
    let display = Display::open(Arc::clone(&client), Arc::clone(&cache), "pinned");
    let do_id = display
        .add_object(&color_coded_link("Utilization"), vec![link.oid])
        .unwrap();

    // Thrash the database cache with a full scan.
    for &oid in &noise {
        client.read(oid).unwrap();
    }
    assert!(
        client.cache().stats().evictions > 0,
        "database cache never evicted — test setup wrong"
    );
    // The display object is still resident and instantly accessible:
    // zoom/pan would not touch the network.
    let before = client.conn().stats().sent.get();
    let obj = display.object(do_id).unwrap();
    assert_eq!(obj.attr("Utilization"), Some(&Value::Float(0.5)));
    display.set_geometry(do_id, displaydb::viz::Rect::new(0.0, 0.0, 50.0, 50.0));
    assert_eq!(
        client.conn().stats().sent.get(),
        before,
        "display-cache operations must not hit the network"
    );
    assert_eq!(cache.len(), 1);
}

#[test]
fn update_lock_serializes_writers_without_blocking_readers() {
    let catalog = Arc::new(nms_catalog());
    let hub = LocalHub::new();
    let mut config = ServerConfig::new(tmp("ulock"));
    config.lock.wait_timeout = Duration::from_millis(500);
    let _server = Server::spawn_local(Arc::clone(&catalog), config, &hub).unwrap();
    let a = DbClient::connect(Box::new(hub.connect().unwrap()), ClientConfig::named("a")).unwrap();
    let b = DbClient::connect(Box::new(hub.connect().unwrap()), ClientConfig::named("b")).unwrap();

    let mut txn = a.begin().unwrap();
    let link = txn.create(a.new_object("Link").unwrap()).unwrap();
    txn.commit().unwrap();

    // a takes a U lock (update intention).
    let mut ta = a.begin().unwrap();
    ta.lock_update(link.oid).unwrap();
    // b can still *read* (U is compatible with S)...
    let mut tb = b.begin().unwrap();
    assert!(tb.read(link.oid).is_ok());
    // ...but b cannot take U or X.
    assert!(tb.lock_update(link.oid).is_err());
    tb.abort().unwrap();
    ta.commit().unwrap();
}

#[test]
fn projected_display_suppresses_unrelated_writes_end_to_end() {
    // Tentpole end-to-end check: a display that projects only
    // `Utilization` must receive *zero* DLM events for a commit that
    // touches a different attribute, and exactly one attribute-level
    // delta (applied in place, no resync fallback) for a commit that
    // touches the projected one.
    let catalog = Arc::new(nms_catalog());
    let hub = LocalHub::new();
    let _server =
        Server::spawn_local(Arc::clone(&catalog), ServerConfig::new(tmp("proj")), &hub).unwrap();
    let updater = DbClient::connect(
        Box::new(hub.connect().unwrap()),
        ClientConfig::named("proj-updater"),
    )
    .unwrap();
    let viewer = DbClient::connect(
        Box::new(hub.connect().unwrap()),
        ClientConfig::named("proj-viewer"),
    )
    .unwrap();

    let mut txn = updater.begin().unwrap();
    let link = txn
        .create(
            updater
                .new_object("Link")
                .unwrap()
                .with(&catalog, "Utilization", 0.10)
                .unwrap(),
        )
        .unwrap();
    txn.commit().unwrap();

    let cache = Arc::new(DisplayCache::new());
    let display = Display::open(Arc::clone(&viewer), cache, "projected");
    let do_id = display
        .add_object(&width_coded_link("Utilization"), vec![link.oid])
        .unwrap();

    // 1. Write outside the projection: no event reaches the viewer.
    let mut txn = updater.begin().unwrap();
    txn.update(link.oid, |o| o.set(&catalog, "Notes", "maintenance window"))
        .unwrap();
    txn.commit().unwrap();
    let events = display
        .wait_and_process(Duration::from_millis(300))
        .unwrap();
    assert_eq!(events, 0, "non-projected write leaked a display event");
    let stats = viewer.dlc().stats();
    assert_eq!(stats.notifications_in.get(), 0, "DLM event not suppressed");
    assert_eq!(stats.deltas_in.get(), 0);

    // 2. Write inside the projection: one delta, applied in place.
    let mut txn = updater.begin().unwrap();
    txn.update(link.oid, |o| o.set(&catalog, "Utilization", 0.90))
        .unwrap();
    txn.commit().unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        if display.object(do_id).unwrap().attr("Utilization") == Some(&Value::Float(0.90)) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "projected write never converged"
        );
        display.wait_and_process(Duration::from_millis(50)).unwrap();
    }
    let stats = viewer.dlc().stats();
    assert!(
        stats.deltas_in.get() >= 1,
        "projected write was not a delta"
    );
    assert_eq!(
        stats.delta_fallbacks.get(),
        0,
        "delta should patch the cached copy in place, not force a re-read"
    );
}

#[test]
fn a_projection_dropped_mid_commit_calls_the_kept_copy_back() {
    // A commit keeps a projected holder's copy for the `Delta` its
    // fan-out sends. A `Release` or a whole-object `Lock` landing between
    // that decision and the fan-out ends the projection: no `Delta`
    // comes, or an `Updated` whose refresh would read the kept copy.
    // Either way the copy must be called back.
    for case in ["release", "widen"] {
        let catalog = Arc::new(nms_catalog());
        let dir = tmp(&format!("mid-commit-{case}"));
        let core = ServerCore::open(Arc::clone(&catalog), ServerConfig::new(dir)).unwrap();
        let session = |name: &str| {
            let (near, far) = local_pair();
            (core.connect(name, None, Arc::new(near)).0, far)
        };
        let (writer, _writer_end) = session("writer");
        let (viewer, viewer_end) = session("viewer");
        let call = |session: &SessionHandle, request: Request| {
            let mut out = None;
            core.handle(session, request, |response| out = Some(response));
            out.unwrap()
        };

        let Response::Created { oid } = call(&writer, Request::Create) else {
            panic!("no oid");
        };
        let mut link = DbObject::new_named(&catalog, "Link")
            .unwrap()
            .with(&catalog, "Utilization", 0.25)
            .unwrap();
        link.oid = oid;
        let put = |obj: &DbObject| Request::Commit {
            txn: None,
            writes: vec![(oid, WriteForm::Put(obj.encode_to_bytes().to_vec()))],
            trace: 0,
        };
        assert_eq!(call(&writer, put(&link)), Response::Ok);
        let read = call(&viewer, Request::Read { txn: None, oid });
        assert!(matches!(read, Response::Object { .. }), "{case}: {read:?}");
        let newer = link.clone().with(&catalog, "Utilization", 0.75).unwrap();
        let attrs = newer.changes_since(&link).into_iter().map(|(attr, _)| attr);
        let lock = DlmRequest::LockProjected {
            oids: vec![oid],
            attrs: attrs.collect(),
            version: 1,
        };
        assert_eq!(call(&viewer, Request::Dlm(lock)), Response::Ok);
        let end_projection = match case {
            "release" => DlmRequest::Release { oids: vec![oid] },
            _ => DlmRequest::Lock { oids: vec![oid] },
        };

        // `handle` answers a commit before its fan-out.
        core.handle(&writer, put(&newer), |answer| {
            assert_eq!(answer, Response::Ok);
            let ended = call(&viewer, Request::Dlm(end_projection));
            assert_eq!(ended, Response::Ok);
        });

        let deadline = Instant::now() + Duration::from_millis(500);
        let mut called_back = false;
        while let Ok(frame) =
            viewer_end.recv_timeout(deadline.saturating_duration_since(Instant::now()))
        {
            if let Ok(Envelope::Push(ServerPush::Callback { oids, .. })) =
                Envelope::decode_from_bytes(&frame)
            {
                called_back |= oids.contains(&oid);
            }
        }
        assert!(called_back, "{case}: the kept copy was never called back");
        core.disconnect(viewer.client);
        core.disconnect(writer.client);
    }
}
