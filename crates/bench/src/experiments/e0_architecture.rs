//! E0 — the paper's figures as running code.
//!
//! * Figure 1: the `ColorCodedLink` / `WidthCodedLink` display classes
//!   over a `Link` database class.
//! * Figure 2: the four-level memory hierarchy (server disk → server
//!   buffer → client database cache → client display cache).
//! * Figure 3: the DLM/DLC architecture — exercised in both the
//!   integrated and standalone-agent deployments.

use crate::fixture::Bed;
use crate::{Scale, Table};
use displaydb_client::{ClientConfig, DbClient};
use displaydb_display::schema::{color_coded_link, width_coded_link};
use displaydb_display::{Display, DisplayCache};
use displaydb_dlm::{DlmAgent, DlmConfig, ShardedDlm};
use displaydb_schema::Value;
use displaydb_wire::LocalHub;
use std::sync::Arc;
use std::time::Duration;

/// Run E0.
pub fn run(scale: Scale) -> Vec<Table> {
    vec![figure1(), figure2(scale), figure3()]
}

fn figure1() -> Table {
    let mut t = Table::new(
        "E0.1 — Figure 1: display classes over the Link class",
        "Display attributes derived from Utilization; database schema untouched by GUI concerns.",
        &[
            "display class",
            "derived attrs",
            "utilization",
            "derived value",
        ],
    );
    let bed = Bed::plain("e0-fig1").unwrap();
    let client = bed.client("fig1").unwrap();
    let cat = &bed.catalog;

    let mut txn = client.begin().unwrap();
    let link = txn
        .create(
            client
                .new_object("Link")
                .unwrap()
                .with(cat, "Utilization", 0.0)
                .unwrap(),
        )
        .unwrap();
    txn.commit().unwrap();

    for util in [0.15f64, 0.55, 0.92] {
        let mut txn = client.begin().unwrap();
        txn.update(link.oid, |o| o.set(cat, "Utilization", util))
            .unwrap();
        txn.commit().unwrap();

        for class in [
            color_coded_link("Utilization"),
            width_coded_link("Utilization"),
        ] {
            let obj = client.read_fresh(link.oid).unwrap();
            let attrs = class.derive(cat, &[obj]).unwrap();
            let derived = attrs
                .iter()
                .find(|(n, _)| n == "Color" || n == "Width")
                .map(|(n, v)| match v {
                    Value::Int(rgb) => format!("{n}=#{rgb:06x}"),
                    Value::Float(w) => format!("{n}={w:.1}px"),
                    other => format!("{n}={other:?}"),
                })
                .unwrap();
            t.row(vec![
                class.name().to_string(),
                class.attr_names().join(","),
                format!("{util:.2}"),
                derived,
            ]);
        }
    }
    t
}

fn figure2(scale: Scale) -> Table {
    let mut t = Table::new(
        "E0.2 — Figure 2: the four-level memory hierarchy",
        "Occupancy of every level after building a live display over a topology.",
        &["level", "content", "objects/pages", "bytes (approx)"],
    );
    let bed = Bed::plain("e0-fig2").unwrap();
    let links = scale.pick(60, 300);
    let topo = bed.topology(links / 3, links).unwrap();
    let client = bed.client("operator").unwrap();
    let (cache, map) = bed.map(&client, &topo).unwrap();

    // Level 4: display cache.
    t.row(vec![
        "4 (new): client display cache".into(),
        "display objects (projected + derived attrs)".into(),
        cache.len().to_string(),
        cache.used_bytes().to_string(),
    ]);
    // Level 3: client database cache.
    t.row(vec![
        "3: client database cache".into(),
        "whole database objects".into(),
        client.cache().len().to_string(),
        client.cache().used_bytes().to_string(),
    ]);
    // Level 2: server buffer pool.
    let pool = bed.server.core().store().pool();
    t.row(vec![
        "2: server buffer pool".into(),
        "8 KiB pages".into(),
        pool.resident_pages().to_string(),
        (pool.resident_pages() * displaydb_storage::PAGE_SIZE).to_string(),
    ]);
    // Level 1: server disk.
    let disk_pages = pool.disk().page_count();
    t.row(vec![
        "1: server disk".into(),
        "heap file + WAL".into(),
        disk_pages.to_string(),
        (disk_pages as usize * displaydb_storage::PAGE_SIZE).to_string(),
    ]);
    let _ = map;
    t
}

fn figure3() -> Table {
    let mut t = Table::new(
        "E0.3 — Figure 3: DLM deployments",
        "The same update notified through the integrated lock manager and the standalone agent.",
        &[
            "deployment",
            "display locks",
            "update → notification",
            "notifications delivered",
        ],
    );

    // Integrated.
    {
        let bed = Bed::plain("e0-fig3-int").unwrap();
        let viewer = bed.client("viewer").unwrap();
        let updater = bed.client("updater").unwrap();
        let delivered = one_update_roundtrip(&bed, &viewer, &updater);
        t.row(vec![
            "integrated (lock manager)".into(),
            bed.server.core().dlm().locked_objects().to_string(),
            if delivered > 0 {
                "ok".into()
            } else {
                "FAILED".into()
            },
            bed.server
                .core()
                .dlm()
                .stats()
                .notifications
                .get()
                .to_string(),
        ]);
    }

    // Agent (paper's deployment).
    {
        let bed = Bed::plain("e0-fig3-agent").unwrap();
        let dlm_hub = LocalHub::new();
        let agent = DlmAgent::spawn(
            Arc::new(ShardedDlm::new(DlmConfig::default())),
            Box::new(dlm_hub.clone()),
        );
        let connect = |name: &str| {
            DbClient::connect_with_agent(
                Box::new(bed.hub.connect().unwrap()),
                Box::new(dlm_hub.connect().unwrap()),
                ClientConfig::named(name),
            )
            .unwrap()
        };
        let viewer = connect("viewer");
        let updater = connect("updater");
        let delivered = one_update_roundtrip(&bed, &viewer, &updater);
        t.row(vec![
            "agent (paper § 4.1)".into(),
            agent.dlm().locked_objects().to_string(),
            if delivered > 0 {
                "ok".into()
            } else {
                "FAILED".into()
            },
            agent.dlm().stats().notifications.get().to_string(),
        ]);
    }
    t
}

/// Create a link, watch it, update it, wait for the refresh; returns the
/// number of events the display handled.
fn one_update_roundtrip(bed: &Bed, viewer: &Arc<DbClient>, updater: &Arc<DbClient>) -> u64 {
    let cat = &bed.catalog;
    let mut txn = updater.begin().unwrap();
    let link = txn
        .create(
            updater
                .new_object("Link")
                .unwrap()
                .with(cat, "Utilization", 0.1)
                .unwrap(),
        )
        .unwrap();
    txn.commit().unwrap();

    let cache = Arc::new(DisplayCache::new());
    let display = Display::open(Arc::clone(viewer), cache, "fig3");
    let do_id = display
        .add_object(&color_coded_link("Utilization"), vec![link.oid])
        .unwrap();
    std::thread::sleep(Duration::from_millis(100)); // agent lock settle

    let mut txn = updater.begin().unwrap();
    txn.update(link.oid, |o| o.set(cat, "Utilization", 0.9))
        .unwrap();
    txn.commit().unwrap();

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while std::time::Instant::now() < deadline {
        display
            .wait_and_process(Duration::from_millis(100))
            .unwrap();
        if display.object(do_id).unwrap().attr("Utilization") == Some(&Value::Float(0.9)) {
            return display.stats().events.get();
        }
    }
    0
}
