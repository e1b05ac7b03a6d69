//! Collaborative configuration management with the early-notify
//! protocol (§ 3.3).
//!
//! Two operators look at the same links. When operator A starts editing
//! one (acquires an exclusive lock), operator B's display immediately
//! marks it "being updated" — deterring a conflicting edit. After A
//! commits, B's display clears the mark and refreshes to the new state;
//! after an abort it simply clears the mark.
//!
//! This example also demonstrates the **agent** deployment: the Display
//! Lock Manager runs as a standalone service beside the database server
//! (the paper's figure 3 architecture), and updating clients report
//! their own intents and commits to it.
//!
//! Run with: `cargo run --example collaborative_config`

use displaydb::nms::nms_catalog;
use displaydb::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn main() -> DbResult<()> {
    let catalog = Arc::new(nms_catalog());
    let data_dir = std::env::temp_dir().join(format!("displaydb-collab-{}", std::process::id()));

    // Database server and, separately, the DLM agent (early-notify,
    // eager shipping off).
    let db_hub = LocalHub::new();
    let _server = Server::spawn_local(Arc::clone(&catalog), ServerConfig::new(&data_dir), &db_hub)?;
    let dlm_hub = LocalHub::new();
    let _agent = DlmAgent::spawn(
        Arc::new(ShardedDlm::new(DlmConfig {
            protocol: NotifyProtocol::EarlyNotify,
            ..DlmConfig::default()
        })),
        Box::new(dlm_hub.clone()),
    );
    println!("database server and DLM agent up (agent deployment, early-notify)");

    // Two operators, each with a DB connection and a DLM connection.
    let connect = |name: &str| -> DbResult<Arc<DbClient>> {
        DbClient::connect_with_agent(
            Box::new(db_hub.connect()?),
            Box::new(dlm_hub.connect()?),
            ClientConfig::named(name),
        )
    };
    let alice = connect("alice")?;
    let bob = connect("bob")?;

    // Alice provisions a couple of links.
    let mut txn = alice.begin()?;
    let mut links = Vec::new();
    for i in 0..3 {
        let link = txn.create(
            alice
                .new_object("Link")?
                .with(&catalog, "Name", format!("backbone-{i}"))?
                .with(&catalog, "Utilization", 0.3)?,
        )?;
        links.push(link.oid);
    }
    txn.commit()?;

    // Bob's display watches all of them.
    let bob_cache = Arc::new(DisplayCache::new());
    let bob_display = Display::open(Arc::clone(&bob), bob_cache, "bob-console");
    let class = width_coded_link("Utilization");
    let mut bob_dos = Vec::new();
    for &link in &links {
        bob_dos.push(bob_display.add_object(&class, vec![link])?);
    }
    // Display-lock requests are fire-and-forget; give the agent a moment.
    std::thread::sleep(Duration::from_millis(100));

    // --- Alice starts editing backbone-0 ------------------------------
    let mut edit = alice.begin()?;
    edit.lock_exclusive(links[0])?;
    bob_display.wait_and_process(Duration::from_secs(5))?;
    let marked = bob_display.object(bob_dos[0]).unwrap().marked_by;
    println!("alice locked backbone-0 → bob sees it marked by {marked:?}");
    assert!(marked.is_some());

    // Bob's tooling steers him away from marked objects (conflict
    // avoidance — the paper: "update conflicts and therefore transaction
    // aborts can be significantly decreased").
    let victim = bob_dos
        .iter()
        .zip(&links)
        .find(|(do_id, _)| {
            bob_display
                .object(**do_id)
                .is_some_and(|o| o.marked_by.is_none())
        })
        .map(|(_, oid)| *oid)
        .expect("an unmarked link");
    let mut bob_txn = bob.begin()?;
    bob_txn.update(victim, |o| o.set(&catalog, "Utilization", 0.6))?;
    bob_txn.commit()?;
    println!("bob edited an unmarked link instead ({victim}) — no conflict");

    // --- Alice commits -------------------------------------------------
    edit.update(links[0], |o| o.set(&catalog, "Utilization", 0.85))?;
    edit.commit()?;
    // Bob gets Resolved(committed) + Updated: the mark clears and the
    // width refreshes.
    let mut waited = 0;
    while waited < 50 {
        bob_display.wait_and_process(Duration::from_millis(100))?;
        let obj = bob_display.object(bob_dos[0]).unwrap();
        if obj.marked_by.is_none() && obj.attr("Utilization") == Some(&Value::Float(0.85)) {
            break;
        }
        waited += 1;
    }
    let obj = bob_display.object(bob_dos[0]).unwrap();
    println!(
        "alice committed → bob sees utilization={:?}, width={:?}, mark cleared={}",
        obj.attr("Utilization"),
        obj.attr("Width"),
        obj.marked_by.is_none()
    );
    assert_eq!(obj.attr("Utilization"), Some(&Value::Float(0.85)));
    assert!(obj.marked_by.is_none());

    // --- An aborted edit just clears the mark ---------------------------
    let mut doomed = alice.begin()?;
    doomed.lock_exclusive(links[1])?;
    bob_display.wait_and_process(Duration::from_secs(5))?;
    assert!(bob_display.object(bob_dos[1]).unwrap().marked_by.is_some());
    doomed.abort()?;
    let mut waited = 0;
    while waited < 50 && bob_display.object(bob_dos[1]).unwrap().marked_by.is_some() {
        bob_display.wait_and_process(Duration::from_millis(100))?;
        waited += 1;
    }
    println!(
        "alice aborted → bob's mark cleared={}, value untouched={:?}",
        bob_display.object(bob_dos[1]).unwrap().marked_by.is_none(),
        bob_display.object(bob_dos[1]).unwrap().attr("Utilization"),
    );

    bob_display.close()?;
    let _ = std::fs::remove_dir_all(&data_dir);
    println!("done.");
    Ok(())
}
