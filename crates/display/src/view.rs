//! A display (window): display objects over database objects, kept live
//! by display-lock notifications.
//!
//! Lifecycle (the paper's *display transaction*, § 2.3/4.2.2):
//!
//! 1. **Open** — the display registers with the client's DLC and gets an
//!    event queue.
//! 2. **Build** — [`Display::add_object`] reads the associated database
//!    objects, derives once to learn what the class reads, locks that
//!    (deduplicated by the DLC), *then* reads again to derive and seed the
//!    display's source images of them, and pins the display object — or,
//!    failing, nothing.
//! 3. **Live** — [`Display::process_pending`] consumes notifications: a
//!    `Delta` patches the display's image of its OID once and every
//!    dependent re-derives from its images; an eager `Updated` re-seeds
//!    the image from its payload and a lazy one from a read, and every
//!    dependent re-derives likewise; `Marked`/`Resolved` toggle the
//!    early-notify "being updated" flag. A derivation reading outside the
//!    locks is thrown away: the object *widens* (lock, read).
//! 4. **Close** — dropping the display releases every display lock and
//!    unpins its display objects.
//!
//! ## Degraded mode
//!
//! When the client's supervisor reports the connection down
//! ([`DlcEvent::Degraded`]), the display keeps serving its pinned
//! display objects — the GUI does not go blank — but marks each one
//! [`stale`](DisplayObject::is_stale) so the draw function can render
//! the uncertainty. After a successful reconnect the supervisor resyncs
//! objects the server reported changed (ordinary `Updated` refreshes,
//! which clear their stale marks), then broadcasts
//! [`DlcEvent::Restored`], which clears the remaining marks: those
//! objects were proved current by the session-resume handshake.

use crate::cache::DisplayCache;
use crate::object::{DisplayObject, DoId};
use crate::schema::{DisplayClassDef, SourceAttr};
use displaydb_client::{DbClient, DlcEvent};
use displaydb_common::metrics::{Counter, LatencyRecorder};
use displaydb_common::{ClassId, DbError, DbResult, DisplayId, Oid};
use displaydb_dlm::DlmEvent;
use displaydb_schema::{DbObject, Value};
use displaydb_viz::{Rect, Scene, Shape};
use displaydb_wire::Decode;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

static DISPLAY_IDS: AtomicU64 = AtomicU64::new(1);

/// Counters and latency for one display.
#[derive(Clone, Debug, Default)]
pub struct DisplayStats {
    /// Notifications processed.
    pub events: Counter,
    /// Display-object re-derivations performed.
    pub refreshes: Counter,
    /// Early-notify marks applied.
    pub marks: Counter,
    /// Refreshes driven by deltas: `image_refreshes + delta_reads`.
    pub delta_refreshes: Counter,
    /// Delta refreshes derived from the patched source image, no read.
    pub image_refreshes: Counter,
    /// Delta refreshes that missed the image and fell back to a read.
    pub delta_reads: Counter,
    /// Derivations thrown away for reading outside the locks (widenings).
    pub widens: Counter,
    /// Display objects dropped because their sources were deleted.
    pub removed_by_deletion: Counter,
    /// Display objects marked stale on connection degradation.
    pub stale_marks: Counter,
    /// Time from picking an `Updated` event off the queue to the display
    /// object being re-derived and redrawn.
    pub refresh_latency: LatencyRecorder,
}

type DrawFn = Arc<dyn Fn(&DisplayObject) -> Option<Shape> + Send + Sync>;

/// A derivation, the attributes its locks cover, and its sources.
type Derived = (Vec<(String, Value)>, BTreeSet<SourceAttr>, Vec<DbObject>);

/// One window over the database.
pub struct Display {
    id: DisplayId,
    name: String,
    client: Arc<DbClient>,
    cache: Arc<DisplayCache>,
    scene: Mutex<Scene>,
    events: crossbeam::channel::Receiver<DlcEvent>,
    /// Display classes by name (needed to re-derive on refresh).
    classes: Mutex<HashMap<String, Arc<DisplayClassDef>>>,
    /// This display's objects.
    mine: Mutex<HashSet<DoId>>,
    /// Per-OID reference counts within this display (several DOs may
    /// share a source object).
    refs: Mutex<HashMap<Oid, usize>>,
    draw: Mutex<Option<DrawFn>>,
    stats: DisplayStats,
    closed: std::sync::atomic::AtomicBool,
}

impl Display {
    /// Open a display on `client`, sharing the client-wide display
    /// `cache`.
    pub fn open(
        client: Arc<DbClient>,
        cache: Arc<DisplayCache>,
        name: impl Into<String>,
    ) -> Arc<Self> {
        let id = DisplayId::new(DISPLAY_IDS.fetch_add(1, Ordering::Relaxed));
        let events = client.dlc().register_display(id);
        Arc::new(Self {
            id,
            name: name.into(),
            client,
            cache,
            scene: Mutex::new(Scene::new()),
            events,
            classes: Mutex::new(HashMap::new()),
            mine: Mutex::new(HashSet::new()),
            refs: Mutex::new(HashMap::new()),
            draw: Mutex::new(None),
            stats: DisplayStats::default(),
            closed: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// The display id (DLC address).
    pub fn id(&self) -> DisplayId {
        self.id
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Statistics.
    pub fn stats(&self) -> &DisplayStats {
        &self.stats
    }

    /// The shared display cache.
    pub fn cache(&self) -> &Arc<DisplayCache> {
        &self.cache
    }

    /// Set the draw function mapping display objects to shapes.
    pub fn set_draw(&self, f: impl Fn(&DisplayObject) -> Option<Shape> + Send + Sync + 'static) {
        *self.draw.lock() = Some(Arc::new(f));
    }

    /// Number of display objects owned by this display.
    pub fn object_count(&self) -> usize {
        self.mine.lock().len()
    }

    /// Build a display object of `class` over the database objects
    /// `assoc` (in order), acquire display locks, and draw it. All or
    /// nothing: on `Err` nothing is pinned and the DLC forgets what this
    /// display did not already watch.
    pub fn add_object(&self, class: &Arc<DisplayClassDef>, assoc: Vec<Oid>) -> DbResult<DoId> {
        if assoc.is_empty() {
            return Err(DbError::InvalidArgument(
                "display object needs at least one source".into(),
            ));
        }
        // The first derivation says what the class reads of these sources.
        let first = self.read_sources(&assoc)?;
        let (derived, reads) = class.derive_reading(self.client.catalog(), &first);
        derived?;
        let mut refs = self.refs.lock();
        for &oid in &assoc {
            *refs.entry(oid).or_insert(0) += 1;
        }
        drop(refs);
        // Lock, then read again: a commit that landed before the
        // registration called this client back ahead of the lock's reply,
        // so the read after it sees that commit; a later one is notified.
        let mut locked = BTreeSet::new();
        let built = self
            .lock(class, &first, &mut locked, reads)
            .and_then(|()| self.derive_locked(class, &assoc, locked));
        let (attrs, learned, sources) = built.map_err(|e| {
            let _ = self.unref(&assoc);
            e
        })?;
        let id = self.cache.allocate_id();
        let mut obj = DisplayObject::new(id, class.name(), assoc);
        obj.attrs = attrs;
        self.cache.insert(obj);
        self.cache.seed_image(self.id, id, &learned, sources);
        self.classes
            .lock()
            .entry(class.name().to_string())
            .or_insert_with(|| Arc::clone(class));
        self.mine.lock().insert(id);
        self.redraw_object(id);
        Ok(id)
    }

    /// Add `reads` to `locked` and lock `sources` for `class`: whole
    /// objects if the class asks for them, else one projected lock per
    /// source class on what `locked` holds of that class.
    fn lock(
        &self,
        class: &DisplayClassDef,
        sources: &[DbObject],
        locked: &mut BTreeSet<SourceAttr>,
        reads: BTreeSet<SourceAttr>,
    ) -> DbResult<()> {
        locked.extend(reads);
        let dlc = self.client.dlc();
        if class.whole_object {
            let oids: Vec<Oid> = sources.iter().map(|s| s.oid).collect();
            return dlc.acquire(self.id, &oids);
        }
        let mut groups: BTreeMap<ClassId, Vec<Oid>> = BTreeMap::new();
        for source in sources {
            groups.entry(source.class).or_default().push(source.oid);
        }
        for (c, oids) in groups {
            let attrs: Vec<u16> = locked.iter().filter(|r| r.0 == c).map(|r| r.1).collect();
            dlc.acquire_projected(self.id, &oids, &attrs)?;
        }
        Ok(())
    }

    /// Read `assoc` and derive `class` from it, the locks covering
    /// `locked`. A derivation that read more is thrown away and the object
    /// *widens*: lock the union, and only then read again, so a commit to
    /// a newly read attribute is either in that read or notified.
    fn derive_locked(
        &self,
        class: &DisplayClassDef,
        assoc: &[Oid],
        mut locked: BTreeSet<SourceAttr>,
    ) -> DbResult<Derived> {
        loop {
            let sources = self.read_sources(assoc)?;
            let (attrs, reads) = class.derive_reading(self.client.catalog(), &sources);
            if class.whole_object || reads.is_subset(&locked) {
                // A whole-object lock covers every read: image them all.
                locked.extend(reads);
                return Ok((attrs?, locked, sources));
            }
            self.stats.widens.inc();
            self.lock(class, &sources, &mut locked, reads)?;
        }
    }

    fn read_sources(&self, assoc: &[Oid]) -> DbResult<Vec<DbObject>> {
        let maybe = self.client.read_many(assoc)?;
        maybe
            .into_iter()
            .zip(assoc)
            .map(|(o, &oid)| o.ok_or(DbError::ObjectNotFound(oid)))
            .collect()
    }

    /// Assign screen geometry to a display object (layout output).
    pub fn set_geometry(&self, id: DoId, rect: Rect) {
        self.cache.with_mut(id, |d| {
            d.geometry = Some(rect);
            d.dirty = true;
        });
        self.redraw_object(id);
    }

    /// Read a display object (clone).
    pub fn object(&self, id: DoId) -> Option<DisplayObject> {
        self.cache.get(id)
    }

    /// Remove one display object: unpin it and release display locks no
    /// other object of this display needs.
    pub fn remove_object(&self, id: DoId) -> DbResult<()> {
        if !self.mine.lock().remove(&id) {
            return Ok(());
        }
        let Some(obj) = self.cache.remove(id) else {
            return Ok(());
        };
        if let Some(node) = obj.scene_node {
            self.scene.lock().remove(node);
        }
        self.unref(&obj.assoc)
    }

    /// Drop one reference to each of `oids`; drop the images and release
    /// the display locks no other object of this display needs.
    fn unref(&self, oids: &[Oid]) -> DbResult<()> {
        let mut freed = Vec::new();
        let mut refs = self.refs.lock();
        for oid in oids {
            if let Some(count) = refs.get_mut(oid) {
                *count -= 1;
                if *count == 0 {
                    refs.remove(oid);
                    self.cache.drop_image(self.id, *oid);
                    freed.push(*oid);
                }
            }
        }
        drop(refs);
        self.client.dlc().release(self.id, &freed)
    }

    /// Process all queued notifications without blocking. Returns the
    /// number of events handled.
    pub fn process_pending(&self) -> DbResult<usize> {
        let mut n = 0;
        while let Ok(event) = self.events.try_recv() {
            self.handle_event(event)?;
            n += 1;
        }
        Ok(n)
    }

    /// Block up to `timeout` for at least one notification, then drain
    /// the queue. Returns the number of events handled (0 on timeout).
    pub fn wait_and_process(&self, timeout: Duration) -> DbResult<usize> {
        match self.events.recv_timeout(timeout) {
            Ok(event) => {
                self.handle_event(event)?;
                Ok(1 + self.process_pending()?)
            }
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => Ok(0),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => Err(DbError::Disconnected),
        }
    }

    fn handle_event(&self, event: DlcEvent) -> DbResult<()> {
        self.stats.events.inc();
        match event {
            DlcEvent::Dlm(event) => self.handle_dlm_event(event),
            DlcEvent::Degraded => {
                self.mark_all_stale();
                Ok(())
            }
            DlcEvent::Restored => {
                self.clear_stale_marks();
                Ok(())
            }
        }
    }

    fn handle_dlm_event(&self, event: DlmEvent) -> DbResult<()> {
        match event {
            DlmEvent::Updated(info) => {
                let start = Instant::now();
                if info.deleted {
                    // The source object is gone: erase dependent DOs.
                    for id in self.my_dependents(info.oid) {
                        self.remove_object(id)?;
                        self.stats.removed_by_deletion.inc();
                    }
                    return Ok(());
                }
                // The next read refetches: the server's commit-time
                // callback may still be in flight on another link in the
                // agent deployment, and an eager payload is no copy the
                // server registered, so it stays out of the database cache.
                self.client.cache().invalidate(&[info.oid]);
                let dependents = self.my_dependents(info.oid);
                let imaged = match (&info.payload, dependents.first()) {
                    // Eager shipping: the new state rides the notification
                    // and re-seeds this display's image, no server read.
                    (Some(payload), Some(&id)) => {
                        let obj = DbObject::decode_from_bytes(payload)?;
                        self.cache
                            .seed_image(self.id, id, &BTreeSet::new(), vec![obj]);
                        true
                    }
                    _ => false,
                };
                for id in dependents {
                    self.refresh(id, imaged)?;
                }
                self.stats.refresh_latency.record(start.elapsed());
            }
            DlmEvent::Delta { oid, changed, .. } => {
                // The DLC checked the projection version (a stale one is
                // resynced, never reaching a display) and patched the
                // database copy for transactions; this display patches its
                // image once, every dependent derives from its images, and
                // only a miss reads.
                let start = Instant::now();
                let patched = self.cache.patch_image(self.id, oid, &changed);
                for id in self.my_dependents(oid) {
                    if self.refresh(id, patched)? {
                        self.stats.image_refreshes.inc();
                    } else {
                        self.stats.delta_reads.inc();
                    }
                    self.stats.delta_refreshes.inc();
                }
                self.stats.refresh_latency.record(start.elapsed());
            }
            DlmEvent::Marked { oid, txn } => {
                self.stats.marks.inc();
                self.change(Some(oid), |d| d.marked_by.replace(txn) != Some(txn));
            }
            DlmEvent::Resolved { oid, txn, .. } => {
                self.change(Some(oid), |d| {
                    let mark = d.marked_by.take();
                    d.marked_by = mark.filter(|&t| t != txn);
                    mark == Some(txn)
                });
            }
            // An outbox swept its backlog, unlogged intent events
            // included, and the replay the DLC asked for carries only
            // commits: the `Resolved` of a mark shown here may be gone
            // for good, so no mark can be trusted.
            DlmEvent::ReplayNeeded { .. } => self.clear_marks(),
            // Connection plumbing; filtered out before dispatch.
            DlmEvent::Ready { .. } => {}
            // The DLC answers a resync marker with forced `Updated`
            // re-reads, flattens batches before fan-out and keeps
            // cursor acks for its own bookkeeping, so none of these
            // reaches a display.
            DlmEvent::ResyncRequired { .. } | DlmEvent::Batch(_) | DlmEvent::CursorAck { .. } => {}
        }
        Ok(())
    }

    /// Apply `change` to this display's objects — those derived from
    /// `oid`, or all — and redraw the ones it reports changed; returns how
    /// many those were.
    fn change(&self, oid: Option<Oid>, change: impl Fn(&mut DisplayObject) -> bool) -> u64 {
        let ids: Vec<DoId> = match oid {
            Some(oid) => self.my_dependents(oid),
            None => self.mine.lock().iter().copied().collect(),
        };
        let mut changed = 0;
        for id in ids {
            let hit = self.cache.with_mut(id, |d| {
                let hit = change(d);
                d.dirty |= hit;
                hit
            });
            if hit == Some(true) {
                self.redraw_object(id);
                changed += 1;
            }
        }
        changed
    }

    /// Take every early-notify mark off this display's objects — what
    /// `refresh` does per object on the resync path.
    fn clear_marks(&self) {
        self.change(None, |d| d.marked_by.take().is_some());
    }

    /// Degraded connection: keep serving every pinned DO, marked stale.
    fn mark_all_stale(&self) {
        let now = Instant::now();
        let marked = self.change(None, |d| {
            let fresh = d.stale_since.is_none();
            d.stale_since.get_or_insert(now);
            fresh
        });
        self.stats.stale_marks.add(marked);
        self.client.conn_stats().recovery.stale_marks.add(marked);
    }

    /// Connection restored: any DO still stale was proved current by the
    /// resume handshake (changed ones were refreshed by resync events
    /// queued ahead of `Restored`).
    fn clear_stale_marks(&self) {
        self.change(None, |d| d.stale_since.take().is_some());
    }

    /// Number of this display's objects currently marked stale.
    pub fn stale_count(&self) -> usize {
        let mine = self.mine.lock();
        mine.iter()
            .filter(|&&id| self.cache.get(id).is_some_and(|d| d.is_stale()))
            .count()
    }

    fn my_dependents(&self, oid: Oid) -> Vec<DoId> {
        let mut ids = self.cache.dependents(oid);
        let mine = self.mine.lock();
        ids.retain(|id| mine.contains(id));
        ids
    }

    /// Re-derive `id` from clones of its sources' images when `from_image`
    /// and each has one — a derivation that reads outside them is thrown
    /// away, and the object widens — else from a read that re-seeds them.
    /// Returns whether the images were there to derive from.
    fn refresh(&self, id: DoId, from_image: bool) -> DbResult<bool> {
        let Some(obj) = self.cache.get(id) else {
            return Ok(false);
        };
        let unknown = || DbError::InvalidArgument(format!("unknown display class {}", obj.class));
        let class = self.classes.lock().get(&obj.class).cloned();
        let class = class.ok_or_else(unknown)?;
        // The images hold what this display has locked of the sources.
        let (mut locked, thin) = self.cache.images(self.id, &obj.assoc);
        let thin = thin.filter(|_| from_image);
        let imaged = thin.is_some();
        if let Some(thin) = thin {
            let (attrs, reads) = class.derive_reading(self.client.catalog(), &thin);
            if reads.is_subset(&locked) {
                self.show(id, attrs?);
                return Ok(true);
            }
            self.stats.widens.inc();
            self.lock(&class, &thin, &mut locked, reads)?;
        }
        match self.derive_locked(&class, &obj.assoc, locked) {
            Ok((attrs, learned, sources)) => {
                self.show(id, attrs);
                self.cache.seed_image(self.id, id, &learned, sources);
                Ok(imaged)
            }
            Err(DbError::ObjectNotFound(_)) => {
                // A source vanished under us: drop the DO.
                self.remove_object(id)?;
                self.stats.removed_by_deletion.inc();
                Ok(imaged)
            }
            Err(e) => Err(e),
        }
    }

    /// Show a fresh derivation of `id` and redraw it.
    fn show(&self, id: DoId, attrs: Vec<(String, Value)>) {
        self.cache.with_mut(id, |d| {
            d.attrs = attrs;
            d.dirty = true;
            // A fresh derivation is not stale, nor "being updated": if the
            // intention's Resolved was swept into the resync that caused
            // this refresh, this is the only place the mark comes off.
            d.stale_since = None;
            d.marked_by = None;
        });
        self.stats.refreshes.inc();
        self.redraw_object(id);
    }

    fn redraw_object(&self, id: DoId) {
        let draw = self.draw.lock().clone();
        let Some(draw) = draw else {
            return;
        };
        let Some(obj) = self.cache.get(id) else {
            return;
        };
        let Some(shape) = draw(&obj) else {
            return;
        };
        let mut scene = self.scene.lock();
        match obj.scene_node {
            Some(node) => {
                scene.update(node, shape);
            }
            None => {
                let node = scene.add(shape, 0);
                drop(scene);
                self.cache.with_mut(id, |d| d.scene_node = Some(node));
            }
        }
        self.cache.with_mut(id, |d| d.dirty = false);
    }

    /// Run `f` with the display's scene (rendering, hit tests).
    pub fn with_scene<T>(&self, f: impl FnOnce(&Scene) -> T) -> T {
        f(&self.scene.lock())
    }

    /// Close the display: remove every display object and release all
    /// display locks (destructor semantics, § 4.2.2).
    pub fn close(&self) -> DbResult<()> {
        if self.closed.swap(true, Ordering::AcqRel) {
            return Ok(());
        }
        let ids: Vec<DoId> = self.mine.lock().iter().copied().collect();
        for id in ids {
            self.remove_object(id)?;
        }
        self.client.dlc().release_display(self.id)?;
        Ok(())
    }
}

impl Drop for Display {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

impl std::fmt::Debug for Display {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Display")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("objects", &self.object_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{color_coded_link, width_coded_link, DisplayClassBuilder};
    use displaydb_client::ClientConfig;
    use displaydb_schema::class::ClassBuilder;
    use displaydb_schema::{AttrType, Catalog, Value};
    use displaydb_server::{Server, ServerConfig};
    use displaydb_viz::Color;
    use displaydb_wire::{Encode, LocalHub};
    use std::path::PathBuf;

    fn catalog() -> Arc<Catalog> {
        let mut c = Catalog::new();
        c.define(
            ClassBuilder::new("Link")
                .attr("Name", AttrType::Str)
                .attr("Utilization", AttrType::Float)
                .attr("Vendor", AttrType::Str)
                .attr("CircuitId", AttrType::Str)
                .attr("Notes", AttrType::Str),
        )
        .unwrap();
        Arc::new(c)
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("displaydb-display-tests")
            .join(format!("{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    struct Fixture {
        _server: Server,
        hub: LocalHub,
        cat: Arc<Catalog>,
    }

    fn setup(name: &str, configure: impl FnOnce(&mut ServerConfig)) -> Fixture {
        let cat = catalog();
        let hub = LocalHub::new();
        let mut config = ServerConfig::new(tmp(name));
        configure(&mut config);
        let server = Server::spawn_local(Arc::clone(&cat), config, &hub).unwrap();
        Fixture {
            _server: server,
            hub,
            cat,
        }
    }

    fn client(fx: &Fixture, name: &str) -> Arc<DbClient> {
        DbClient::connect(
            Box::new(fx.hub.connect().unwrap()),
            ClientConfig::named(name),
        )
        .unwrap()
    }

    fn make_link(fx: &Fixture, c: &Arc<DbClient>, util: f64) -> Oid {
        let mut txn = c.begin().unwrap();
        let obj = txn
            .create(
                c.new_object("Link")
                    .unwrap()
                    .with(&fx.cat, "Utilization", util)
                    .unwrap()
                    .with(&fx.cat, "Vendor", "acme telecommunications equipment co.")
                    .unwrap()
                    .with(&fx.cat, "CircuitId", "CKT-2026-000417-ATL-DCA-OC48")
                    .unwrap()
                    // Real NMS link records carry plenty of operational
                    // detail the GUI never shows (the paper's § 2.2
                    // premise).
                    .with(
                        &fx.cat,
                        "Notes",
                        "installed 1995-07; maintenance window sundays; \
                         contact noc@example.net; last audited by field team 7; \
                         fiber pair 12/13 through conduit B; SLA tier gold",
                    )
                    .unwrap(),
            )
            .unwrap();
        txn.commit().unwrap();
        obj.oid
    }

    fn set_util(fx: &Fixture, c: &Arc<DbClient>, oid: Oid, util: f64) {
        let mut txn = c.begin().unwrap();
        txn.update(oid, |o| o.set(&fx.cat, "Utilization", util))
            .unwrap();
        txn.commit().unwrap();
    }

    #[test]
    fn add_object_derives_and_locks() {
        let fx = setup("add", |_| {});
        let viewer = client(&fx, "viewer");
        let oid = make_link(&fx, &viewer, 0.9);
        let cache = Arc::new(DisplayCache::new());
        let display = Display::open(Arc::clone(&viewer), cache, "map");
        let id = display
            .add_object(&color_coded_link("Utilization"), vec![oid])
            .unwrap();
        let obj = display.object(id).unwrap();
        assert_eq!(
            obj.attr("Color"),
            Some(&Value::Int(i64::from(Color::RED.to_u32())))
        );
        assert_eq!(viewer.dlc().locked_objects(), 1);
    }

    #[test]
    fn update_propagates_to_display() {
        let fx = setup("propagate", |_| {});
        let viewer = client(&fx, "viewer");
        let updater = client(&fx, "updater");
        let oid = make_link(&fx, &updater, 0.1);
        let cache = Arc::new(DisplayCache::new());
        let display = Display::open(Arc::clone(&viewer), cache, "map");
        let id = display
            .add_object(&color_coded_link("Utilization"), vec![oid])
            .unwrap();
        assert_eq!(
            display.object(id).unwrap().attr("Color"),
            Some(&Value::Int(i64::from(Color::WHITE.to_u32())))
        );

        set_util(&fx, &updater, oid, 0.95);
        let handled = display.wait_and_process(Duration::from_secs(5)).unwrap();
        assert!(handled >= 1, "no notification arrived");
        assert_eq!(
            display.object(id).unwrap().attr("Color"),
            Some(&Value::Int(i64::from(Color::RED.to_u32()))),
            "display did not refresh to red"
        );
        assert!(display.stats().refreshes.get() >= 1);
        assert!(!display.stats().refresh_latency.is_empty());
    }

    #[test]
    fn updates_to_unwatched_objects_do_not_arrive() {
        let fx = setup("unwatched", |_| {});
        let viewer = client(&fx, "viewer");
        let updater = client(&fx, "updater");
        let watched = make_link(&fx, &updater, 0.1);
        let unwatched = make_link(&fx, &updater, 0.1);
        let cache = Arc::new(DisplayCache::new());
        let display = Display::open(Arc::clone(&viewer), cache, "map");
        display
            .add_object(&color_coded_link("Utilization"), vec![watched])
            .unwrap();

        set_util(&fx, &updater, unwatched, 0.99);
        assert_eq!(
            display
                .wait_and_process(Duration::from_millis(300))
                .unwrap(),
            0
        );
    }

    #[test]
    fn unprojected_attribute_write_is_suppressed() {
        let fx = setup("suppress", |_| {});
        let viewer = client(&fx, "viewer");
        let updater = client(&fx, "updater");
        let oid = make_link(&fx, &updater, 0.1);
        let cache = Arc::new(DisplayCache::new());
        let display = Display::open(Arc::clone(&viewer), cache, "map");
        // ColorCodedLink declares its full read set (Utilization), so
        // add_object registers a projected display lock.
        display
            .add_object(&color_coded_link("Utilization"), vec![oid])
            .unwrap();

        // A write to an attribute outside the projection must produce
        // zero client events — the server suppresses the notification.
        let mut txn = updater.begin().unwrap();
        txn.update(oid, |o| o.set(&fx.cat, "Notes", "rerouted via conduit C"))
            .unwrap();
        txn.commit().unwrap();
        assert_eq!(
            display
                .wait_and_process(Duration::from_millis(300))
                .unwrap(),
            0,
            "suppressed write still reached the display"
        );
        assert_eq!(viewer.dlc().stats().deltas_in.get(), 0);
    }

    #[test]
    fn projected_attribute_write_arrives_as_delta() {
        let fx = setup("delta", |_| {});
        let viewer = client(&fx, "viewer");
        let updater = client(&fx, "updater");
        let oid = make_link(&fx, &updater, 0.1);
        let cache = Arc::new(DisplayCache::new());
        let display = Display::open(Arc::clone(&viewer), cache, "map");
        let id = display
            .add_object(&color_coded_link("Utilization"), vec![oid])
            .unwrap();

        set_util(&fx, &updater, oid, 0.95);
        let handled = display.wait_and_process(Duration::from_secs(5)).unwrap();
        assert!(handled >= 1, "no notification arrived");
        assert_eq!(
            display.object(id).unwrap().attr("Color"),
            Some(&Value::Int(i64::from(Color::RED.to_u32()))),
            "display did not refresh to red"
        );
        assert!(
            viewer.dlc().stats().deltas_in.get() >= 1,
            "update did not arrive as an attribute-level delta"
        );
        assert_eq!(viewer.dlc().stats().delta_fallbacks.get(), 0);
        assert!(display.stats().delta_refreshes.get() >= 1);
    }

    #[test]
    fn multi_source_path_refreshes_on_any_member() {
        let fx = setup("path", |_| {});
        let viewer = client(&fx, "viewer");
        let updater = client(&fx, "updater");
        let l1 = make_link(&fx, &updater, 0.2);
        let l2 = make_link(&fx, &updater, 0.3);
        let cache = Arc::new(DisplayCache::new());
        let display = Display::open(Arc::clone(&viewer), cache, "paths");
        let path_class = DisplayClassBuilder::new("PathLine")
            .compute("MaxUtil", |ctx| {
                Ok(Value::Float(ctx.max_float("Utilization")?))
            })
            .build();
        let id = display.add_object(&path_class, vec![l1, l2]).unwrap();
        assert_eq!(
            display.object(id).unwrap().attr("MaxUtil"),
            Some(&Value::Float(0.3))
        );
        set_util(&fx, &updater, l2, 0.7);
        display.wait_and_process(Duration::from_secs(5)).unwrap();
        assert_eq!(
            display.object(id).unwrap().attr("MaxUtil"),
            Some(&Value::Float(0.7))
        );
    }

    #[test]
    fn a_delta_of_the_wrong_type_is_a_miss_that_reads() {
        let fx = setup("wrong-type", |_| {});
        let viewer = client(&fx, "viewer");
        let updater = client(&fx, "updater");
        let oid = make_link(&fx, &updater, 0.1);
        let cache = Arc::new(DisplayCache::new());
        let display = Display::open(Arc::clone(&viewer), Arc::clone(&cache), "map");
        let id = display
            .add_object(&color_coded_link("Utilization"), vec![oid])
            .unwrap();
        set_util(&fx, &updater, oid, 0.95);
        let event = display.events.recv_timeout(Duration::from_secs(5)).unwrap();
        let DlcEvent::Dlm(DlmEvent::Delta {
            version, changed, ..
        }) = &event
        else {
            panic!("{event:?}");
        };
        let text = Value::Str("hot".into()).encode_to_bytes().to_vec();
        let bad = DlmEvent::Delta {
            oid,
            version: *version,
            changed: vec![(changed[0].0, text)],
            trace: 0,
        };
        display.handle_event(event).unwrap();
        // Not cached, so the DLC's hook has no copy to refuse it with.
        viewer.cache().invalidate(&[oid]);
        let reads = fx._server.core().stats().reads.get();
        viewer.dlc().dispatch(bad);
        assert_eq!(display.process_pending().unwrap(), 1);
        let stats = display.stats();
        assert_eq!(
            (stats.image_refreshes.get(), stats.delta_reads.get()),
            (1, 1)
        );
        assert_eq!(fx._server.core().stats().reads.get() - reads, 1);
        assert_eq!(cache.stats().patches, 1, "the refused patch is not one");
        let thin = cache.images(display.id(), &[oid]).1.unwrap();
        let util = thin[0].get(&fx.cat, "Utilization").unwrap();
        assert_eq!(util, &Value::Float(0.95));
        assert_eq!(
            display.object(id).unwrap().attr("Color"),
            Some(&Value::Int(i64::from(Color::RED.to_u32())))
        );
    }

    #[test]
    fn early_notify_marks_and_clears() {
        let fx = setup("early", |c| {
            c.dlm.protocol = displaydb_dlm::NotifyProtocol::EarlyNotify;
        });
        let viewer = client(&fx, "viewer");
        let updater = client(&fx, "updater");
        let oid = make_link(&fx, &updater, 0.5);
        let cache = Arc::new(DisplayCache::new());
        let display = Display::open(Arc::clone(&viewer), cache, "map");
        let id = display
            .add_object(&width_coded_link("Utilization"), vec![oid])
            .unwrap();

        // The updater X-locks: the DO must become marked.
        let mut txn = updater.begin().unwrap();
        txn.lock_exclusive(oid).unwrap();
        display.wait_and_process(Duration::from_secs(5)).unwrap();
        assert!(
            display.object(id).unwrap().marked_by.is_some(),
            "not marked"
        );
        assert!(display.stats().marks.get() >= 1);

        // Abort: the mark clears, no refresh necessary.
        txn.abort().unwrap();
        display.wait_and_process(Duration::from_secs(5)).unwrap();
        assert!(
            display.object(id).unwrap().marked_by.is_none(),
            "mark not cleared"
        );
    }

    #[test]
    fn deletion_removes_display_object() {
        let fx = setup("deletion", |_| {});
        let viewer = client(&fx, "viewer");
        let updater = client(&fx, "updater");
        let oid = make_link(&fx, &updater, 0.5);
        let cache = Arc::new(DisplayCache::new());
        let display = Display::open(Arc::clone(&viewer), cache, "map");
        let id = display
            .add_object(&color_coded_link("Utilization"), vec![oid])
            .unwrap();

        let mut txn = updater.begin().unwrap();
        txn.delete(oid).unwrap();
        txn.commit().unwrap();
        display.wait_and_process(Duration::from_secs(5)).unwrap();
        assert!(display.object(id).is_none(), "DO should be gone");
        assert_eq!(display.object_count(), 0);
        assert_eq!(display.stats().removed_by_deletion.get(), 1);
    }

    #[test]
    fn close_releases_display_locks() {
        let fx = setup("close", |_| {});
        let viewer = client(&fx, "viewer");
        let oid = make_link(&fx, &viewer, 0.5);
        let cache = Arc::new(DisplayCache::new());
        {
            let display = Display::open(Arc::clone(&viewer), Arc::clone(&cache), "map");
            display
                .add_object(&color_coded_link("Utilization"), vec![oid])
                .unwrap();
            assert_eq!(viewer.dlc().locked_objects(), 1);
            assert_eq!(cache.len(), 1);
            display.close().unwrap();
        }
        assert_eq!(viewer.dlc().locked_objects(), 0);
        assert_eq!(cache.len(), 0, "display cache must unpin on close");
    }

    #[test]
    fn shared_oid_between_two_displays_one_lock() {
        let fx = setup("shared", |_| {});
        let viewer = client(&fx, "viewer");
        let oid = make_link(&fx, &viewer, 0.5);
        let cache = Arc::new(DisplayCache::new());
        let d1 = Display::open(Arc::clone(&viewer), Arc::clone(&cache), "map");
        let d2 = Display::open(Arc::clone(&viewer), Arc::clone(&cache), "table");
        d1.add_object(&color_coded_link("Utilization"), vec![oid])
            .unwrap();
        d2.add_object(&width_coded_link("Utilization"), vec![oid])
            .unwrap();
        // One DLM lock despite two displays (DLC dedup, § 4.2.1).
        assert_eq!(viewer.dlc().stats().dlm_lock_messages.get(), 1);
        assert_eq!(viewer.dlc().locked_objects(), 1);
        d1.close().unwrap();
        // Still locked: d2 depends on it.
        assert_eq!(viewer.dlc().locked_objects(), 1);
        d2.close().unwrap();
        assert_eq!(viewer.dlc().locked_objects(), 0);
    }

    #[test]
    fn scene_redraws_on_refresh() {
        let fx = setup("scene", |_| {});
        let viewer = client(&fx, "viewer");
        let updater = client(&fx, "updater");
        let oid = make_link(&fx, &updater, 0.1);
        let cache = Arc::new(DisplayCache::new());
        let display = Display::open(Arc::clone(&viewer), cache, "map");
        display.set_draw(|obj| {
            let color = match obj.attr("Color") {
                Some(Value::Int(rgb)) => Color::new(
                    ((rgb >> 16) & 0xff) as u8,
                    ((rgb >> 8) & 0xff) as u8,
                    (rgb & 0xff) as u8,
                ),
                _ => Color::GRAY,
            };
            Some(Shape::Rect {
                rect: obj.geometry.unwrap_or(Rect::new(0.0, 0.0, 10.0, 10.0)),
                fill: color,
                border: None,
            })
        });
        let id = display
            .add_object(&color_coded_link("Utilization"), vec![oid])
            .unwrap();
        display.set_geometry(id, Rect::new(5.0, 5.0, 20.0, 20.0));
        let v1 = display.with_scene(|s| {
            assert_eq!(s.len(), 1);
            s.version()
        });
        set_util(&fx, &updater, oid, 0.95);
        display.wait_and_process(Duration::from_secs(5)).unwrap();
        display.with_scene(|s| {
            assert!(s.version() > v1, "scene did not change");
            let node = s.draw_order()[0];
            match &node.shape {
                Shape::Rect { fill, .. } => assert_eq!(*fill, Color::RED),
                other => panic!("{other:?}"),
            }
        });
    }

    #[test]
    fn display_cache_smaller_than_database_cache() {
        // The § 4.3 observation in miniature: DOs project 2 of 5 link
        // attributes, so the display cache is several times smaller.
        let fx = setup("sizes", |_| {});
        let viewer = client(&fx, "viewer");
        let cache = Arc::new(DisplayCache::new());
        let display = Display::open(Arc::clone(&viewer), Arc::clone(&cache), "map");
        let class = color_coded_link("Utilization");
        for _ in 0..50 {
            let oid = make_link(&fx, &viewer, 0.5);
            display.add_object(&class, vec![oid]).unwrap();
        }
        let db_bytes = viewer.cache().used_bytes();
        let display_bytes = cache.used_bytes();
        assert!(
            db_bytes >= 2 * display_bytes,
            "expected display cache several times smaller: db={db_bytes} display={display_bytes}"
        );
    }
}
