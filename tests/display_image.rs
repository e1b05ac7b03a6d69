//! The display cache's source image (DESIGN.md § 10): a display object
//! locks, and images, exactly the source attributes its derivations have
//! read, and derives its delta refreshes from that image, so an
//! out-of-projection write — whose callback empties the database cache —
//! never turns the next refresh into a read. A derivation that reads more
//! widens the object: lock, then read, then derive. Every scenario runs in
//! both fig.-3 deployments.
//!
//! In the agent deployment the committing client reports no attribute
//! diff (it cannot know the committed pre-image), so the agent sends
//! whole-object `Updated` events, never deltas: there the image is
//! re-seeded from each refresh rather than patched, and the scenarios run
//! with eager shipping, the agent deployment's own read-free refresh.

mod support;

use displaydb::prelude::*;
use displaydb::wire::Channel;
use std::sync::Arc;
use std::time::{Duration, Instant};
use support::TempDir;

struct Deployment {
    _dir: TempDir,
    server: Server,
    agent: Option<DlmAgent>,
    db_hub: LocalHub,
    dlm_hub: Option<LocalHub>,
    catalog: Arc<Catalog>,
}

impl Deployment {
    fn integrated() -> Self {
        Self::new(false)
    }

    fn agent() -> Self {
        Self::new(true)
    }

    fn new(agent: bool) -> Self {
        let dir = TempDir::new(if agent {
            "image-agent"
        } else {
            "image-integrated"
        });
        let catalog = Arc::new(displaydb::nms::nms_catalog());
        let db_hub = LocalHub::new();
        let config = ServerConfig::new(dir.path());
        let server = Server::spawn_local(Arc::clone(&catalog), config, &db_hub).unwrap();
        let (agent, dlm_hub) = if agent {
            let dlm_hub = LocalHub::new();
            let dlm = ShardedDlm::new(DlmConfig {
                eager_shipping: true,
                ..DlmConfig::default()
            });
            let agent = DlmAgent::spawn(Arc::new(dlm), Box::new(dlm_hub.clone()));
            (Some(agent), Some(dlm_hub))
        } else {
            (None, None)
        };
        Self {
            _dir: dir,
            server,
            agent,
            db_hub,
            dlm_hub,
            catalog,
        }
    }

    fn is_agent(&self) -> bool {
        self.agent.is_some()
    }

    /// The DLM the clients' display-lock requests land in.
    fn dlm(&self) -> &Arc<ShardedDlm> {
        match &self.agent {
            Some(agent) => agent.dlm(),
            None => self.server.core().dlm(),
        }
    }

    /// A client, and the fault plan of the link its display-lock
    /// requests ride: the server connection (integrated) or the agent
    /// connection (agent).
    fn client(&self, name: &str) -> (Arc<DbClient>, Arc<FaultPlan>) {
        let plan = Arc::new(FaultPlan::new());
        let faulty = |hub: &LocalHub| -> Box<dyn Channel> {
            let channel = Box::new(hub.connect().unwrap());
            Box::new(FaultyChannel::wrap(channel, Arc::clone(&plan)))
        };
        let config = ClientConfig::named(name);
        let client = match &self.dlm_hub {
            Some(dlm_hub) => {
                let db = Box::new(self.db_hub.connect().unwrap());
                DbClient::connect_with_agent(db, faulty(dlm_hub), config)
            }
            None => DbClient::connect(faulty(&self.db_hub), config),
        };
        (client.unwrap(), plan)
    }

    fn links(&self, updater: &Arc<DbClient>, n: usize) -> Vec<Oid> {
        let mut txn = updater.begin().unwrap();
        let oids = (0..n)
            .map(|_| txn.create(updater.new_object("Link").unwrap()).unwrap().oid)
            .collect();
        txn.commit().unwrap();
        oids
    }

    /// The layout index of a `Link` attribute.
    fn index(&self, attr: &str) -> u16 {
        let link = self.catalog.id_of("Link").unwrap();
        self.catalog.attr_index(link, attr).unwrap() as u16
    }

    /// Whether `viewer`'s display locks on `oid` cover `attr`.
    fn covers(&self, viewer: &DbClient, oid: Oid, attr: &str) -> bool {
        self.dlm()
            .interest_covers(viewer.id(), oid, &[self.index(attr)])
    }

    fn set(&self, updater: &Arc<DbClient>, oid: Oid, attr: &str, value: f64) {
        let mut txn = updater.begin().unwrap();
        txn.update(oid, |o| o.set(&self.catalog, attr, value))
            .unwrap();
        txn.commit().unwrap();
    }

    /// Agent-mode lock requests are fire-and-forget: wait for them to
    /// land before a commit relies on them.
    fn await_interest(&self, viewer: &DbClient, oids: &[Oid]) {
        wait_until("the projected locks", || {
            oids.iter()
                .all(|&oid| self.dlm().has_interest(viewer.id(), oid))
        });
    }

    /// Whether display object `id` shows the projection of `updater`'s
    /// committed state (the updater is the only writer, so its own
    /// write-through copies are the committed state).
    fn shows_committed(
        &self,
        display: &Display,
        class: &DisplayClassDef,
        id: DoId,
        updater: &DbClient,
    ) -> bool {
        let obj = display.object(id).unwrap();
        let committed: Vec<DbObject> = obj
            .assoc
            .iter()
            .map(|&oid| updater.read(oid).unwrap())
            .collect();
        obj.attrs == class.derive(&self.catalog, &committed).unwrap()
    }
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Pump `display` until `done` holds at a quiet moment: no event arrived
/// for 30 ms, so nothing older is still queued behind the check.
fn settle(display: &Display, what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let heard = display.wait_and_process(Duration::from_millis(30)).unwrap();
        if heard == 0 && done() {
            return;
        }
        assert!(Instant::now() < deadline, "display never settled on {what}");
    }
}

/// `delta_refreshes` is the sum of its two sources.
fn assert_delta_books_balance(display: &Display) {
    let s = display.stats();
    assert_eq!(
        s.delta_refreshes.get(),
        s.image_refreshes.get() + s.delta_reads.get()
    );
}

/// A class reading two attributes: `Utilization` projected from the
/// primary source, `ErrorRate` aggregated over every source.
fn two_attribute_class() -> Arc<DisplayClassDef> {
    DisplayClassBuilder::new("UtilErr")
        .project(&["Utilization"])
        .compute("MaxErr", |ctx| {
            Ok(Value::Float(ctx.max_float("ErrorRate")?))
        })
        .build()
}

/// A class that reads `ErrorRate` only while the primary source's
/// `Utilization` is above `threshold`: what its display objects read
/// depends on the data.
fn branching_class(threshold: f64) -> Arc<DisplayClassDef> {
    DisplayClassBuilder::new(format!("Branch{threshold}"))
        .project(&["Utilization"])
        .compute("MaxErr", move |ctx| {
            let hot = ctx.primary("Utilization")?.as_float()? > threshold;
            Ok(Value::Float(if hot {
                ctx.max_float("ErrorRate")?
            } else {
                0.0
            }))
        })
        .build()
}

/// (i) `steady.whole`'s class computes from `Utilization` and says nothing
/// about it: its display object locks exactly `Utilization`, projected,
/// and 50 commits to it refresh from the image — no read, no callback.
fn a_class_learns_what_it_reads(dep: &Deployment) {
    let (viewer, _) = dep.client("viewer");
    let (updater, _) = dep.client("updater");
    let link = dep.links(&updater, 1)[0];
    let display = Display::open(Arc::clone(&viewer), Arc::new(DisplayCache::new()), "map");
    let class = DisplayClassBuilder::new("WholeObjectLink")
        .project(&["Utilization"])
        .compute("Width", |ctx| {
            Ok(Value::Float(ctx.max_float("Utilization")?.clamp(0.0, 1.0)))
        })
        .build();
    let id = display.add_object(&class, vec![link]).unwrap();
    dep.await_interest(&viewer, &[link]);
    assert!(dep.covers(&viewer, link, "Utilization"));
    for unread in ["Name", "ErrorRate", "LatencyMs"] {
        assert!(!dep.covers(&viewer, link, unread), "{unread} is locked");
    }

    let server = dep.server.core().stats();
    let (reads, callbacks) = (server.reads.get(), server.callbacks.get());
    for round in 1..=50 {
        let util = f64::from(round) / 100.0;
        dep.set(&updater, link, "Utilization", util);
        settle(&display, "the new value", || {
            display.object(id).unwrap().attr("Utilization") == Some(&Value::Float(util))
        });
    }
    assert_eq!(server.reads.get() - reads, 0, "a refresh read the server");
    let called_back = server.callbacks.get() - callbacks;
    let stats = display.stats();
    if dep.is_agent() {
        // Eager `Updated` payloads re-fill a copy the server no longer
        // knows of, so at most the first commit calls back.
        assert!(called_back <= 1, "{called_back} callbacks");
        assert_eq!(stats.delta_refreshes.get(), 0, "the agent sends no deltas");
    } else {
        assert_eq!(called_back, 0, "a commit waited for a callback");
        assert_eq!(stats.image_refreshes.get(), 50);
    }
    assert_eq!(stats.widens.get(), 0);
    assert_delta_books_balance(&display);
}

#[test]
fn integrated_a_class_learns_what_it_reads() {
    a_class_learns_what_it_reads(&Deployment::integrated());
}

#[test]
fn agent_a_class_learns_what_it_reads() {
    a_class_learns_what_it_reads(&Deployment::agent());
}

/// (ii) A commit that flips `branching_class`'s branch makes the display
/// object read `ErrorRate`: it widens its lock. A commit to `ErrorRate`
/// lands while that lock is held in the sender; the display must show it.
/// Read before the lock, the widened object would miss it for good: it
/// was outside the old projection, so nobody was notified.
fn a_commit_racing_the_widen_is_not_lost(dep: &Deployment) {
    let (viewer, plan) = dep.client("viewer");
    let (updater, _) = dep.client("updater");
    let link = dep.links(&updater, 1)[0];
    let display = Display::open(Arc::clone(&viewer), Arc::new(DisplayCache::new()), "map");
    let class = branching_class(0.8);
    let id = display.add_object(&class, vec![link]).unwrap();
    dep.await_interest(&viewer, &[link]);
    assert!(!dep.covers(&viewer, link, "ErrorRate"));

    dep.set(&updater, link, "Utilization", 0.9);
    wait_until("the flip to arrive", || {
        viewer.dlc().stats().notifications_in.get() >= 1
    });
    plan.set_delay(Duration::from_secs(1));
    let pump = {
        let display = Arc::clone(&display);
        std::thread::spawn(move || display.wait_and_process(Duration::from_secs(5)))
    };
    wait_until("the widening lock to stall", || plan.delayed() >= 1);
    plan.clear_delay();
    dep.set(&updater, link, "ErrorRate", 0.3);
    assert!(
        !dep.covers(&viewer, link, "ErrorRate"),
        "the commit must land before the widened lock registers"
    );
    pump.join().unwrap().unwrap();
    settle(&display, "the raced commit", || {
        dep.shows_committed(&display, &class, id, &updater)
    });
    assert_eq!(
        display.object(id).unwrap().attr("MaxErr"),
        Some(&Value::Float(0.3))
    );
    assert_eq!(display.stats().widens.get(), 1);
    wait_until("the widened lock", || {
        dep.covers(&viewer, link, "ErrorRate")
    });
    assert_delta_books_balance(&display);
}

#[test]
fn integrated_a_commit_racing_the_widen_is_not_lost() {
    a_commit_racing_the_widen_is_not_lost(&Deployment::integrated());
}

#[test]
fn agent_a_commit_racing_the_widen_is_not_lost() {
    a_commit_racing_the_widen_is_not_lost(&Deployment::agent());
}

/// (iv) A class that reads nothing locks no attribute: no commit reaches
/// its display object, which still goes when its source is deleted. (The
/// agent, with no attribute diff to intersect, notifies every commit.)
fn a_class_that_reads_nothing(dep: &Deployment) {
    let (viewer, _) = dep.client("viewer");
    let (updater, _) = dep.client("updater");
    let link = dep.links(&updater, 1)[0];
    let display = Display::open(Arc::clone(&viewer), Arc::new(DisplayCache::new()), "map");
    let class = DisplayClassBuilder::new("Marker")
        .compute("Shape", |_| Ok(Value::Int(1)))
        .build();
    let id = display.add_object(&class, vec![link]).unwrap();
    dep.await_interest(&viewer, &[link]);
    for attr in ["Utilization", "ErrorRate", "LatencyMs"] {
        assert!(!dep.covers(&viewer, link, attr), "{attr} is locked");
        dep.set(&updater, link, attr, 0.5);
    }
    if !dep.is_agent() {
        let heard = display
            .wait_and_process(Duration::from_millis(100))
            .unwrap();
        assert_eq!(heard, 0, "a commit reached the display");
        assert_eq!(viewer.dlc().stats().notifications_in.get(), 0);
    }
    let mut txn = updater.begin().unwrap();
    txn.delete(link).unwrap();
    txn.commit().unwrap();
    settle(&display, "the deletion", || display.object(id).is_none());
    assert_eq!(display.stats().removed_by_deletion.get(), 1);
}

#[test]
fn integrated_a_class_that_reads_nothing() {
    a_class_that_reads_nothing(&Deployment::integrated());
}

#[test]
fn agent_a_class_that_reads_nothing() {
    a_class_that_reads_nothing(&Deployment::agent());
}

/// (i) Out-of-projection and projected commits alternate 50 times: every
/// projected value shows, the server serves no read, the viewer sends
/// nothing but the acks of at most one callback per link.
fn alternating_commits_refresh_without_reads(dep: &Deployment) {
    let (viewer, _) = dep.client("viewer");
    let (updater, _) = dep.client("updater");
    let links = dep.links(&updater, 4);
    let display = Display::open(Arc::clone(&viewer), Arc::new(DisplayCache::new()), "map");
    let class = width_coded_link("Utilization");
    let ids: Vec<DoId> = links
        .iter()
        .map(|&link| display.add_object(&class, vec![link]).unwrap())
        .collect();
    dep.await_interest(&viewer, &links);

    let server = dep.server.core().stats();
    let (reads, callbacks) = (server.reads.get(), server.callbacks.get());
    let (sent, acked) = (
        viewer.conn_stats().sent.get(),
        viewer.conn_stats().callbacks.get(),
    );
    for round in 0..50 {
        let i = round % links.len();
        dep.set(&updater, links[i], "ErrorRate", round as f64 / 50.0);
        let util = (round + 1) as f64 / 100.0;
        dep.set(&updater, links[i], "Utilization", util);
        settle(&display, "the projected value", || {
            display.object(ids[i]).unwrap().attr("Utilization") == Some(&Value::Float(util))
        });
    }
    assert_eq!(server.reads.get() - reads, 0, "a refresh read the server");
    let acks = viewer.conn_stats().callbacks.get() - acked;
    assert_eq!(
        viewer.conn_stats().sent.get() - sent,
        acks,
        "the viewer sent a request"
    );
    let called_back = server.callbacks.get() - callbacks;
    assert!(called_back <= links.len() as u64, "{called_back} callbacks");
    assert_delta_books_balance(&display);
    let stats = display.stats();
    if dep.is_agent() {
        assert_eq!(stats.delta_refreshes.get(), 0, "the agent sends no deltas");
    } else {
        assert_eq!(stats.image_refreshes.get(), 50);
        assert_eq!(stats.delta_reads.get(), 0);
    }
}

#[test]
fn integrated_alternating_commits_refresh_without_reads() {
    alternating_commits_refresh_without_reads(&Deployment::integrated());
}

#[test]
fn agent_alternating_commits_refresh_without_reads() {
    alternating_commits_refresh_without_reads(&Deployment::agent());
}

/// (ii) A commit to `Utilization` lands between the viewer's first read
/// and the registration of its projected lock (the lock frame is held in
/// the sender), then one to `ErrorRate`: the display must show both. An
/// image seeded from the first read would miss the first commit for good
/// — its notification went to nobody, and the delta of the second
/// carries only `ErrorRate`.
fn commit_racing_the_lock_is_not_lost(dep: &Deployment) {
    let (viewer, plan) = dep.client("viewer");
    let (updater, _) = dep.client("updater");
    let link = dep.links(&updater, 1)[0];
    // Cached, so the first read of add_object sends nothing.
    viewer.read(link).unwrap();
    let display = Display::open(Arc::clone(&viewer), Arc::new(DisplayCache::new()), "map");
    let class = two_attribute_class();

    plan.set_delay(Duration::from_secs(1));
    let adder = {
        let (display, class) = (Arc::clone(&display), Arc::clone(&class));
        std::thread::spawn(move || display.add_object(&class, vec![link]))
    };
    wait_until("the lock frame to stall", || plan.delayed() >= 1);
    plan.clear_delay();
    dep.set(&updater, link, "Utilization", 0.7);
    assert!(
        !dep.dlm().has_interest(viewer.id(), link),
        "the commit must land before the lock registers"
    );
    let id = adder.join().unwrap().unwrap();
    dep.await_interest(&viewer, &[link]);
    dep.set(&updater, link, "ErrorRate", 0.3);
    settle(&display, "both commits", || {
        dep.shows_committed(&display, &class, id, &updater)
    });
    let obj = display.object(id).unwrap();
    assert_eq!(obj.attr("Utilization"), Some(&Value::Float(0.7)));
    assert_eq!(obj.attr("MaxErr"), Some(&Value::Float(0.3)));
    assert_delta_books_balance(&display);
}

#[test]
fn integrated_commit_racing_the_lock_is_not_lost() {
    commit_racing_the_lock_is_not_lost(&Deployment::integrated());
}

#[test]
fn agent_commit_racing_the_lock_is_not_lost() {
    commit_racing_the_lock_is_not_lost(&Deployment::agent());
}

/// (iii) Random commit sequences over `Utilization`, `ErrorRate` and the
/// unread `LatencyMs`, under display objects of one or two sources whose
/// classes read two attributes or branch on `Utilization`: at quiescence
/// every DO is the projection of committed state, and — where deltas
/// exist, so the image is patched — no refresh read the server unless a
/// display object widened. (In the agent deployment a two-source DO's `Updated`
/// refresh reads both sources, and one whose copy a callback took ahead
/// of its own eager notification comes from the server.)
fn random_commits_converge_without_reads(dep: &Deployment) {
    let (viewer, _) = dep.client("viewer");
    let (updater, _) = dep.client("updater");
    let display = Display::open(Arc::clone(&viewer), Arc::new(DisplayCache::new()), "map");
    let classes = [
        two_attribute_class(),
        branching_class(0.3),
        branching_class(0.7),
    ];
    let (reads, widens) = (&dep.server.core().stats().reads, &display.stats().widens);
    proptest::test_runner::run("random_commits_converge_without_reads", |rng| {
        let links = dep.links(&updater, 3);
        let dos: Vec<(DoId, &Arc<DisplayClassDef>)> = (0..rng.below(1, 4))
            .map(|_| {
                let first = rng.below(0, links.len());
                let mut assoc = vec![links[first]];
                if rng.below(0, 2) == 1 {
                    assoc.push(links[(first + rng.below(1, links.len())) % links.len()]);
                }
                let class = &classes[rng.below(0, classes.len())];
                (display.add_object(class, assoc).unwrap(), class)
            })
            .collect();
        let ids: Vec<DoId> = dos.iter().map(|&(id, _)| id).collect();
        dep.await_interest(&viewer, &links_of(&display, &ids));
        let before = (reads.get(), widens.get());
        for _ in 0..rng.below(1, 16) {
            let attr = ["Utilization", "ErrorRate", "LatencyMs"][rng.below(0, 3)];
            dep.set(&updater, links[rng.below(0, links.len())], attr, rng.unit());
        }
        settle(&display, "committed state", || {
            dos.iter()
                .all(|&(id, class)| dep.shows_committed(&display, class, id, &updater))
        });
        let (read, widened) = (reads.get() - before.0, widens.get() - before.1);
        // A widen re-registers the projection, so a delta still in flight
        // under the old version is resynced by a read too.
        proptest::prop_assert!(
            dep.is_agent() || read == 0 || widened > 0,
            "{read} refresh reads, no widen"
        );
        for id in ids {
            display.remove_object(id).unwrap();
        }
        Ok(())
    });
    assert_delta_books_balance(&display);
    assert_eq!(display.stats().delta_reads.get(), 0);
}

fn links_of(display: &Display, ids: &[DoId]) -> Vec<Oid> {
    ids.iter()
        .flat_map(|&id| display.object(id).unwrap().assoc)
        .collect()
}

#[test]
fn integrated_random_commits_converge_without_reads() {
    random_commits_converge_without_reads(&Deployment::integrated());
}

#[test]
fn agent_random_commits_converge_without_reads() {
    random_commits_converge_without_reads(&Deployment::agent());
}

/// `add_object` is all or nothing: with the display-lock link dead it
/// fails, and pins, references and locks nothing.
fn add_object_on_a_dead_link_leaves_nothing(dep: &Deployment) {
    let (viewer, plan) = dep.client("viewer");
    let (updater, _) = dep.client("updater");
    let links = dep.links(&updater, 2);
    let display = Display::open(Arc::clone(&viewer), Arc::new(DisplayCache::new()), "map");
    let projected = width_coded_link("Utilization");
    display.add_object(&projected, vec![links[0]]).unwrap();
    // Cached, so add_object gets as far as the lock.
    viewer.read(links[1]).unwrap();
    plan.kill_now();

    let counts = || {
        (
            display.object_count(),
            display.cache().len(),
            viewer.dlc().locked_objects(),
        )
    };
    let before = counts();
    assert_eq!(before, (1, 1, 1));
    let whole = DisplayClassBuilder::new("WholeLink")
        .project(&["Utilization"])
        .compute("Width", |ctx| Ok(ctx.primary("Utilization")?.clone()))
        .whole_object()
        .build();
    for class in [&projected, &whole] {
        assert!(display.add_object(class, vec![links[1]]).is_err());
        assert_eq!(counts(), before, "{} left something", class.name());
    }
}

#[test]
fn integrated_add_object_on_a_dead_link_leaves_nothing() {
    add_object_on_a_dead_link_leaves_nothing(&Deployment::integrated());
}

#[test]
fn agent_add_object_on_a_dead_link_leaves_nothing() {
    add_object_on_a_dead_link_leaves_nothing(&Deployment::agent());
}

/// The bytes of `ids`' display objects.
fn object_bytes(display: &Display, ids: &[DoId]) -> usize {
    ids.iter()
        .map(|&id| display.object(id).unwrap().size_bytes())
        .sum()
}

/// Eight projected display objects over one link, in one display, hold
/// one image of it — its OID, `Utilization` and `ErrorRate`, the union of
/// what the two classes read. A commit patches it once and refreshes all
/// eight from it, with no read; removing the last object takes it.
fn one_image_per_watched_object(dep: &Deployment) {
    let (viewer, _) = dep.client("viewer");
    let (updater, _) = dep.client("updater");
    let link = dep.links(&updater, 1)[0];
    let cache = Arc::new(DisplayCache::new());
    let display = Display::open(Arc::clone(&viewer), Arc::clone(&cache), "map");
    let classes = [two_attribute_class(), width_coded_link("Utilization")];
    let dos: Vec<(DoId, &Arc<DisplayClassDef>)> = (0..8)
        .map(|i| {
            let class = &classes[i % 2];
            (display.add_object(class, vec![link]).unwrap(), class)
        })
        .collect();
    let ids: Vec<DoId> = dos.iter().map(|&(id, _)| id).collect();
    dep.await_interest(&viewer, &[link]);
    let image = 8 + 8 + 8;
    assert_eq!(cache.used_bytes(), object_bytes(&display, &ids) + image);

    let reads = dep.server.core().stats().reads.get();
    let patches = cache.stats().patches;
    dep.set(&updater, link, "Utilization", 0.5);
    settle(&display, "the new value", || {
        dos.iter()
            .all(|&(id, class)| dep.shows_committed(&display, class, id, &updater))
    });
    assert_eq!(
        dep.server.core().stats().reads.get() - reads,
        0,
        "a refresh read"
    );
    let stats = display.stats();
    if dep.is_agent() {
        assert_eq!(stats.delta_refreshes.get(), 0, "the agent sends no deltas");
    } else {
        assert_eq!(cache.stats().patches - patches, 1);
        assert_eq!(stats.image_refreshes.get(), 8);
        assert_eq!(stats.delta_reads.get(), 0);
    }
    assert_eq!(cache.used_bytes(), object_bytes(&display, &ids) + image);
    assert_delta_books_balance(&display);
    for id in ids {
        display.remove_object(id).unwrap();
    }
    assert_eq!(cache.used_bytes(), 0);
}

#[test]
fn integrated_one_image_per_watched_object() {
    one_image_per_watched_object(&Deployment::integrated());
}

#[test]
fn agent_one_image_per_watched_object() {
    one_image_per_watched_object(&Deployment::agent());
}

/// Two displays of one client share a display cache, each with two
/// objects over one link: each display holds its own image of it.
/// Display A shows two `Utilization` commits; display B drains late, and
/// while it handles the first — the moment an image shared across
/// displays would be rolled back to it — A handles a commit to
/// `ErrorRate`. Both still show committed state: a shared image would
/// have had A derive from the rolled-back `Utilization`, and nothing
/// later would correct it.
fn displays_keep_their_own_images(dep: &Deployment) {
    let (viewer, _) = dep.client("viewer");
    let (updater, _) = dep.client("updater");
    let link = dep.links(&updater, 1)[0];
    let cache = Arc::new(DisplayCache::new());
    let class = two_attribute_class();
    let open = |name| Display::open(Arc::clone(&viewer), Arc::clone(&cache), name);
    let (a, b) = (open("a"), open("b"));
    let add = |display: &Display| -> Vec<DoId> {
        (0..2)
            .map(|_| display.add_object(&class, vec![link]).unwrap())
            .collect()
    };
    let (a_ids, b_ids) = (add(&a), add(&b));
    dep.await_interest(&viewer, &[link]);
    let objects = object_bytes(&a, &a_ids) + object_bytes(&b, &b_ids);
    assert_eq!(cache.used_bytes(), objects + 2 * (8 + 8 + 8));
    let committed = |display: &Display, ids: &[DoId]| {
        ids.iter()
            .all(|&id| dep.shows_committed(display, &class, id, &updater))
    };

    dep.set(&updater, link, "Utilization", 0.5);
    dep.set(&updater, link, "Utilization", 0.6);
    settle(&a, "A ahead of B", || committed(&a, &a_ids));
    let dispatched = &viewer.dlc().stats().notifications_dispatched;
    let before = dispatched.get();
    dep.set(&updater, link, "ErrorRate", 0.3);
    wait_until("the commit in both queues", || {
        dispatched.get() >= before + 2
    });
    let ahead = std::sync::Mutex::new(Some(Arc::clone(&a)));
    b.set_draw(move |_| {
        if let Some(a) = ahead.lock().unwrap().take() {
            a.process_pending().unwrap();
        }
        None
    });
    settle(&b, "B caught up", || committed(&b, &b_ids));
    settle(&a, "A at quiescence", || committed(&a, &a_ids));
    assert_eq!(
        a.object(a_ids[0]).unwrap().attr("MaxErr"),
        Some(&Value::Float(0.3))
    );
    assert_eq!(cache.used_bytes(), objects + 2 * (8 + 8 + 8));
    assert_delta_books_balance(&a);
    assert_delta_books_balance(&b);
}

#[test]
fn integrated_displays_keep_their_own_images() {
    displays_keep_their_own_images(&Deployment::integrated());
}

#[test]
fn agent_displays_keep_their_own_images() {
    displays_keep_their_own_images(&Deployment::agent());
}
