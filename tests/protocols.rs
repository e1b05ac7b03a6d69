//! Protocol-level integration: the two DLM deployments (integrated vs
//! agent), eager shipping, and message accounting.

use displaydb::nms::nms_catalog;
use displaydb::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("displaydb-it-protocols")
        .join(format!("{}-{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Deployment {
    _server: Server,
    _agent: Option<DlmAgent>,
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
            _server: server,
            _agent: None,
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
            _server: server,
            _agent: Some(agent),
            db_hub,
            dlm_hub: Some(dlm_hub),
            catalog,
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

/// Both deployments must produce the same observable display behaviour.
fn refresh_scenario(deployment: &Deployment) {
    let viewer = deployment.client("viewer");
    let updater = deployment.client("updater");
    let catalog = &deployment.catalog;

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
        .add_object(&color_coded_link("Utilization"), vec![link.oid])
        .unwrap();
    // Agent-mode lock requests are fire-and-forget: allow settling.
    std::thread::sleep(Duration::from_millis(100));

    let mut txn = updater.begin().unwrap();
    txn.update(link.oid, |o| o.set(catalog, "Utilization", 0.9))
        .unwrap();
    txn.commit().unwrap();

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        display
            .wait_and_process(Duration::from_millis(100))
            .unwrap();
        if display.object(do_id).unwrap().attr("Utilization") == Some(&Value::Float(0.9)) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "display never refreshed"
        );
    }
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

#[test]
fn eager_shipping_eliminates_read_roundtrip() {
    // The § 4.3 claim: eager shipping removes two of the three messages
    // on the refresh path (the read request and its reply). The claim is
    // about *whole-object* watching, so the display class here leaves
    // its compute step undeclared — a projectable class (DESIGN.md § 10)
    // gets in-place deltas and needs no read round-trip in either mode,
    // collapsing the comparison to 0 vs 0.
    let whole_object_link = || {
        displaydb::display::schema::DisplayClassBuilder::new("WholeObjectLink")
            .project(&["Utilization"])
            .compute("Color", |ctx| {
                let u = ctx.max_float("Utilization")?;
                Ok(Value::Int(i64::from(
                    displaydb::viz::utilization_color(u).to_u32(),
                )))
            })
            .build()
    };
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
            let mut txn = updater.begin().unwrap();
            txn.update(link.oid, |o| {
                o.set(catalog, "Utilization", 0.3 + f64::from(i) * 0.05)
            })
            .unwrap();
            txn.commit().unwrap();
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            loop {
                display.wait_and_process(Duration::from_millis(50)).unwrap();
                let now = display.object(do_id).unwrap();
                if now.attr("Utilization") == Some(&Value::Float(0.3 + f64::from(i) * 0.05)) {
                    break;
                }
                assert!(std::time::Instant::now() < deadline);
            }
        }
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
