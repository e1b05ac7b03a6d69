//! The display cache: the new topmost level of the memory hierarchy
//! (§ 3.2, figure 2).
//!
//! Its two defining properties, in deliberate contrast to the client
//! database cache one level below:
//!
//! * **Application-managed pinning** — once a display object is created
//!   it stays resident until its display explicitly removes it. No LRU,
//!   no server callbacks, no interference from database workload or
//!   buffer policies. This is what makes zoom/pan latency predictable
//!   (§ 2.2's complaint about "unexpectedly delayed" interactions).
//! * **Filtered content** — it holds display objects (projections +
//!   derived GUI attributes), not whole database objects, so it is
//!   typically several times smaller (§ 4.3 measured 3–5×).
//!
//! Beside the display objects it keeps *source images*: one per display
//! per watched OID, a thin copy holding the attributes that display's
//! objects read and locked (counted in the bytes). A delta patches it
//! once, through [`DbObject::apply_changes`], and an eager payload
//! re-seeds it; every dependent object re-derives from it, so neither
//! refresh reads the database.

use crate::object::{DisplayObject, DoId};
use crate::schema::SourceAttr;
use displaydb_common::ids::IdGen;
use displaydb_common::{DisplayId, Oid};
use displaydb_schema::DbObject;
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Cache occupancy statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DisplayCacheStats {
    /// Resident display objects.
    pub objects: usize,
    /// Total bytes of resident display objects and source images.
    pub bytes: usize,
    /// Lifetime inserts.
    pub inserts: u64,
    /// Lifetime removals.
    pub removals: u64,
    /// Lifetime image patches: one per delta per display.
    pub patches: u64,
}

/// What a display's images of some sources hold, and clones of them.
pub type Images = (BTreeSet<SourceAttr>, Option<Vec<DbObject>>);

/// A source image: a thin copy of one object holding the attributes in
/// `attrs`, every other one at its type's default.
struct Image {
    attrs: BTreeSet<u16>,
    thin: DbObject,
}

impl Image {
    /// The OID and the imaged values.
    fn size_bytes(&self) -> usize {
        let value = |&a: &u16| self.thin.values[usize::from(a)].size_bytes();
        8 + self.attrs.iter().map(value).sum::<usize>()
    }
}

#[derive(Default)]
struct CacheState {
    objects: HashMap<DoId, DisplayObject>,
    images: HashMap<(DisplayId, Oid), Image>,
    by_oid: HashMap<Oid, HashSet<DoId>>,
    bytes: usize,
    inserts: u64,
    removals: u64,
    patches: u64,
}

/// The per-client display cache (shared by all of the client's displays,
/// like the paper's per-client DLC).
#[derive(Default)]
pub struct DisplayCache {
    state: Mutex<CacheState>,
    ids: IdGen,
}

impl DisplayCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a display-object id.
    pub fn allocate_id(&self) -> DoId {
        DoId(self.ids.next())
    }

    /// Pin a display object. Its id must come from
    /// [`DisplayCache::allocate_id`].
    pub fn insert(&self, obj: DisplayObject) {
        let mut state = self.state.lock();
        state.bytes += obj.size_bytes();
        state.inserts += 1;
        for &oid in &obj.assoc {
            state.by_oid.entry(oid).or_default().insert(obj.id);
        }
        if let Some(old) = state.objects.insert(obj.id, obj) {
            state.bytes -= old.size_bytes();
            state.inserts -= 1; // replacement, not a new insert
        }
    }

    /// Read a display object.
    pub fn get(&self, id: DoId) -> Option<DisplayObject> {
        self.state.lock().objects.get(&id).cloned()
    }

    /// Mutate a display object in place, keeping byte accounting
    /// correct. Its `assoc` is fixed at insert: the OID index, and its
    /// display's references and images, were taken for those sources.
    /// Returns `None` if absent.
    pub fn with_mut<T>(&self, id: DoId, f: impl FnOnce(&mut DisplayObject) -> T) -> Option<T> {
        let mut state = self.state.lock();
        let state = &mut *state;
        let obj = state.objects.get_mut(&id)?;
        let old_bytes = obj.size_bytes();
        let out = f(obj);
        state.bytes = state.bytes - old_bytes + obj.size_bytes();
        Some(out)
    }

    /// Unpin and remove a display object. The images of its sources
    /// belong to its display, which drops each with its last reference.
    pub fn remove(&self, id: DoId) -> Option<DisplayObject> {
        let mut state = self.state.lock();
        let obj = state.objects.remove(&id)?;
        state.bytes -= obj.size_bytes();
        state.removals += 1;
        for oid in &obj.assoc {
            if let Some(set) = state.by_oid.get_mut(oid) {
                set.remove(&id);
                if set.is_empty() {
                    state.by_oid.remove(oid);
                }
            }
        }
        Some(obj)
    }

    /// Merge a read of `sources`, taken for display object `id`, into
    /// `display`'s images of them: each holds its attributes in `attrs`
    /// besides those it held, every one at its value in the read. Nothing
    /// happens once `id` is gone.
    pub fn seed_image(
        &self,
        display: DisplayId,
        id: DoId,
        attrs: &BTreeSet<SourceAttr>,
        sources: Vec<DbObject>,
    ) {
        let mut state = self.state.lock();
        if !state.objects.contains_key(&id) {
            return;
        }
        for mut thin in sources {
            let class = thin.class;
            let of_class = attrs.range((class, 0)..=(class, u16::MAX));
            let mut held: BTreeSet<u16> = of_class.map(|r| r.1).collect();
            if let Some(old) = state.images.remove(&(display, thin.oid)) {
                state.bytes -= old.size_bytes();
                held.extend(old.attrs);
            }
            for (i, value) in thin.values.iter_mut().enumerate() {
                if !held.contains(&(i as u16)) {
                    *value = value.attr_type().default_value();
                }
            }
            let image = Image { attrs: held, thin };
            state.bytes += image.size_bytes();
            state.images.insert((display, image.thin.oid), image);
        }
    }

    /// Patch `display`'s image of `oid` with the imaged attributes of a
    /// delta, all or nothing. `false` — a miss, image untouched — without
    /// an image or when [`DbObject::apply_changes`] refuses the pairs.
    pub fn patch_image(&self, display: DisplayId, oid: Oid, changed: &[(u16, Vec<u8>)]) -> bool {
        let mut state = self.state.lock();
        let state = &mut *state;
        let Some(image) = state.images.get_mut(&(display, oid)) else {
            return false;
        };
        // Attributes no object of the display reads are skipped (a DLM
        // registration is the union over the client's displays).
        let imaged = changed.iter().filter(|(a, _)| image.attrs.contains(a));
        let imaged: Vec<(u16, Vec<u8>)> = imaged.cloned().collect();
        let before = image.size_bytes();
        if image.thin.apply_changes(&imaged).is_err() {
            return false;
        }
        state.bytes = state.bytes - before + image.size_bytes();
        state.patches += 1;
        true
    }

    /// The attributes `display`'s images of `oids` all hold — per source
    /// class, those each image of that class holds — and clones of the
    /// images to derive from; nothing unless each of `oids` has one.
    pub fn images(&self, display: DisplayId, oids: &[Oid]) -> Images {
        let state = self.state.lock();
        let mut found = Vec::with_capacity(oids.len());
        for oid in oids {
            let Some(image) = state.images.get(&(display, *oid)) else {
                return (BTreeSet::new(), None);
            };
            found.push(image);
        }
        let mut held = BTreeSet::new();
        for image in &found {
            let class = image.thin.class;
            let mut attrs = image.attrs.clone();
            for other in found.iter().filter(|i| i.thin.class == class) {
                attrs.retain(|a| other.attrs.contains(a));
            }
            held.extend(attrs.into_iter().map(|a| (class, a)));
        }
        (held, Some(found.iter().map(|i| i.thin.clone()).collect()))
    }

    /// Drop `display`'s image of `oid`: its last reference to it died.
    pub fn drop_image(&self, display: DisplayId, oid: Oid) {
        let mut state = self.state.lock();
        if let Some(image) = state.images.remove(&(display, oid)) {
            state.bytes -= image.size_bytes();
        }
    }

    /// Display objects derived from `oid` — the refresh fan-out set.
    pub fn dependents(&self, oid: Oid) -> Vec<DoId> {
        let state = self.state.lock();
        let mut ids: Vec<DoId> = state
            .by_oid
            .get(&oid)
            .into_iter()
            .flatten()
            .copied()
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Occupancy statistics.
    pub fn stats(&self) -> DisplayCacheStats {
        let state = self.state.lock();
        DisplayCacheStats {
            objects: state.objects.len(),
            bytes: state.bytes,
            inserts: state.inserts,
            removals: state.removals,
            patches: state.patches,
        }
    }

    /// Resident object count.
    pub fn len(&self) -> usize {
        self.state.lock().objects.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total resident bytes.
    pub fn used_bytes(&self) -> usize {
        self.state.lock().bytes
    }
}

impl std::fmt::Debug for DisplayCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("DisplayCache")
            .field("objects", &s.objects)
            .field("bytes", &s.bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use displaydb_schema::Value;

    fn obj(cache: &DisplayCache, oids: &[u64]) -> DoId {
        let id = cache.allocate_id();
        let mut d = DisplayObject::new(id, "T", oids.iter().map(|&o| Oid::new(o)).collect());
        d.attrs.push(("U".into(), Value::Float(0.0)));
        cache.insert(d);
        id
    }

    #[test]
    fn insert_get_remove_accounting() {
        let cache = DisplayCache::new();
        let id = obj(&cache, &[1, 2]);
        assert_eq!(cache.len(), 1);
        assert!(cache.used_bytes() > 0);
        let d = cache.get(id).unwrap();
        assert_eq!(d.assoc.len(), 2);
        let removed = cache.remove(id).unwrap();
        assert_eq!(removed.id, id);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.used_bytes(), 0);
        assert!(cache.get(id).is_none());
        let s = cache.stats();
        assert_eq!((s.inserts, s.removals), (1, 1));
    }

    #[test]
    fn dependents_index() {
        let cache = DisplayCache::new();
        let a = obj(&cache, &[1, 2]);
        let b = obj(&cache, &[2, 3]);
        assert_eq!(cache.dependents(Oid::new(1)), vec![a]);
        assert_eq!(cache.dependents(Oid::new(2)), vec![a, b]);
        assert_eq!(cache.dependents(Oid::new(3)), vec![b]);
        assert!(cache.dependents(Oid::new(9)).is_empty());
        cache.remove(a);
        assert!(cache.dependents(Oid::new(1)).is_empty());
        assert_eq!(cache.dependents(Oid::new(2)), vec![b]);
    }

    #[test]
    fn with_mut_updates_bytes() {
        let cache = DisplayCache::new();
        let id = obj(&cache, &[1]);
        let before = cache.used_bytes();
        cache.with_mut(id, |d| {
            d.attrs.push(("Long".into(), Value::Str("x".repeat(500))));
        });
        assert!(cache.used_bytes() > before + 400);
        assert_eq!(cache.dependents(Oid::new(1)), vec![id]);
        assert!(cache.with_mut(DoId(999), |_| ()).is_none());
    }

    #[test]
    fn objects_are_pinned_no_eviction() {
        // Unlike the LRU database cache, inserting many objects never
        // evicts: the application is in control.
        let cache = DisplayCache::new();
        let ids: Vec<DoId> = (0..10_000).map(|i| obj(&cache, &[i])).collect();
        assert_eq!(cache.len(), 10_000);
        for id in ids {
            assert!(cache.get(id).is_some());
        }
    }

    #[test]
    fn replacement_insert_keeps_accounting() {
        let cache = DisplayCache::new();
        let id = obj(&cache, &[1]);
        let mut replacement = cache.get(id).unwrap();
        replacement.attrs.push(("Extra".into(), Value::Int(1)));
        cache.insert(replacement);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().inserts, 1);
    }

    use crate::schema::{color_coded_link, width_coded_link, DisplayClassBuilder, DisplayClassDef};
    use displaydb_schema::class::ClassBuilder;
    use displaydb_schema::{AttrType, Catalog};
    use displaydb_wire::Encode;

    fn link_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.define(
            ClassBuilder::new("Link")
                .attr("Name", AttrType::Str)
                .attr("Utilization", AttrType::Float)
                .attr("ErrorRate", AttrType::Float)
                .attr("Notes", AttrType::Str),
        )
        .unwrap();
        c
    }

    fn link(cat: &Catalog, oid: u64, util: f64, errors: f64) -> DbObject {
        let mut o = DbObject::new_named(cat, "Link").unwrap();
        o.oid = Oid::new(oid);
        o.set(cat, "Name", format!("link-{oid}")).unwrap();
        o.set(cat, "Utilization", util).unwrap();
        o.set(cat, "ErrorRate", errors).unwrap();
        o.set(cat, "Notes", "operational detail no display reads")
            .unwrap();
        o
    }

    fn index(cat: &Catalog, attr: &str) -> u16 {
        cat.attr_index(cat.id_of("Link").unwrap(), attr).unwrap() as u16
    }

    /// Pin a display object of `class` over `sources` in `display`, and
    /// image what it reads.
    fn imaged(
        cache: &DisplayCache,
        display: DisplayId,
        cat: &Catalog,
        class: &DisplayClassDef,
        sources: &[DbObject],
    ) -> DoId {
        let id = cache.allocate_id();
        let assoc = sources.iter().map(|s| s.oid).collect();
        cache.insert(DisplayObject::new(id, class.name(), assoc));
        let (_, reads) = class.derive_reading(cat, sources);
        cache.seed_image(display, id, &reads, sources.to_vec());
        id
    }

    fn float(v: f64) -> Vec<u8> {
        Value::Float(v).encode_to_bytes().to_vec()
    }

    #[test]
    fn deriving_from_the_image_equals_deriving_from_the_objects() {
        let cat = link_catalog();
        let cache = DisplayCache::new();
        let path = DisplayClassBuilder::new("PathLine")
            .compute("MaxUtil", |ctx| {
                Ok(Value::Float(ctx.max_float("Utilization")?))
            })
            .compute("AvgErr", |ctx| {
                Ok(Value::Float(ctx.avg_float("ErrorRate")?))
            })
            .build();
        let mut full = [link(&cat, 1, 0.3, 0.01), link(&cat, 2, 0.6, 0.2)];
        for (display, class, n) in [
            (1, width_coded_link("Utilization"), 1),
            (2, color_coded_link("Utilization"), 1),
            (3, path, 2),
        ] {
            let display = DisplayId::new(display);
            imaged(&cache, display, &cat, &class, &full[..n]);
            let oids: Vec<Oid> = full[..n].iter().map(|s| s.oid).collect();
            for util in [0.1, 0.55, 0.97] {
                full[n - 1].set(&cat, "Utilization", util).unwrap();
                let delta = [(index(&cat, "Utilization"), float(util))];
                assert!(cache.patch_image(display, oids[n - 1], &delta));
                let (held, thin) = cache.images(display, &oids);
                let thin = thin.unwrap();
                assert!(thin
                    .iter()
                    .all(|s| s.get(&cat, "Notes").unwrap() == &Value::Str("".into())));
                let (attrs, reads) = class.derive_reading(&cat, &thin);
                assert_eq!(
                    attrs.unwrap(),
                    class.derive(&cat, &full[..n]).unwrap(),
                    "{} at {util}",
                    class.name()
                );
                assert_eq!(reads, held, "read only the image");
            }
        }
    }

    #[test]
    fn a_display_holds_what_each_source_of_a_class_holds() {
        let cat = link_catalog();
        let cache = DisplayCache::new();
        let display = DisplayId::new(1);
        let (a, b) = (link(&cat, 1, 0.3, 0.1), link(&cat, 2, 0.6, 0.2));
        let both = DisplayClassBuilder::new("UtilErr")
            .project(&["Utilization", "ErrorRate"])
            .build();
        let width = width_coded_link("Utilization");
        imaged(&cache, display, &cat, &both, std::slice::from_ref(&a));
        imaged(&cache, display, &cat, &width, std::slice::from_ref(&b));
        let link = cat.id_of("Link").unwrap();
        let util = (link, index(&cat, "Utilization"));
        let errors = (link, index(&cat, "ErrorRate"));
        let held = |oids: &[Oid]| cache.images(display, oids).0;
        assert_eq!(held(&[a.oid]), BTreeSet::from([util, errors]));
        // Link 2's `ErrorRate` is neither imaged nor locked.
        assert_eq!(held(&[a.oid, b.oid]), BTreeSet::from([util]));
        assert_eq!(held(&[a.oid, Oid::new(3)]), BTreeSet::new());
    }

    #[test]
    fn image_patches_are_all_or_nothing_and_counted() {
        let cat = link_catalog();
        let cache = DisplayCache::new();
        let (display, oid) = (DisplayId::new(1), Oid::new(1));
        let (util, errors) = (index(&cat, "Utilization"), index(&cat, "ErrorRate"));
        let id = imaged(
            &cache,
            display,
            &cat,
            &width_coded_link("Utilization"),
            &[link(&cat, 1, 0.3, 0.0)],
        );
        let bytes = cache.used_bytes();
        assert_eq!(
            bytes,
            cache.get(id).unwrap().size_bytes() + 8 + 8,
            "an OID and a float"
        );
        let thin = || cache.images(display, &[oid]).1.unwrap().remove(0);
        let utilization = || thin().get(&cat, "Utilization").unwrap().clone();

        // Misses leave the image as it was: no image of that OID in that
        // display, a value that does not decode, one of the wrong type.
        assert!(!cache.patch_image(DisplayId::new(2), oid, &[(util, float(0.5))]));
        assert!(!cache.patch_image(display, Oid::new(2), &[(util, float(0.5))]));
        let name = Value::Str("x".into()).encode_to_bytes().to_vec();
        for bad in [vec![0xff], name] {
            assert!(!cache.patch_image(display, oid, &[(util, bad)]));
        }
        assert_eq!(utilization(), Value::Float(0.3));
        assert_eq!(cache.stats().patches, 0);
        // An attribute no object of the display reads is skipped, not a
        // miss.
        assert!(cache.patch_image(display, oid, &[(errors, float(0.7))]));
        assert_eq!(thin().get(&cat, "ErrorRate").unwrap(), &Value::Float(0.0));
        assert!(cache.patch_image(display, oid, &[(util, float(0.5))]));
        assert_eq!(utilization(), Value::Float(0.5));
        assert_eq!((cache.used_bytes(), cache.stats().patches), (bytes, 2));

        // A second object's read merges into the one image: the union of
        // the attributes, each at its value in the read.
        let class = cat.id_of("Link").unwrap();
        let other = cache.allocate_id();
        cache.insert(DisplayObject::new(other, "Err", vec![oid]));
        let attrs = BTreeSet::from([(class, errors)]);
        cache.seed_image(display, other, &attrs, vec![link(&cat, 1, 0.8, 0.4)]);
        assert_eq!(thin().get(&cat, "ErrorRate").unwrap(), &Value::Float(0.4));
        assert_eq!(utilization(), Value::Float(0.8));
        let held = BTreeSet::from([(class, util), (class, errors)]);
        assert_eq!(cache.images(display, &[oid]).0, held);
        let other_bytes = cache.get(other).unwrap().size_bytes();
        assert_eq!(
            cache.used_bytes(),
            bytes + other_bytes + 8,
            "one more float"
        );

        // The image outlives its objects until its display drops it; a
        // removed object's read seeds nothing.
        cache.remove(id);
        cache.remove(other);
        assert_eq!(cache.used_bytes(), 8 + 8 + 8);
        cache.drop_image(display, oid);
        assert_eq!(cache.used_bytes(), 0);
        cache.seed_image(display, id, &held, vec![link(&cat, 1, 0.8, 0.0)]);
        assert_eq!(cache.used_bytes(), 0);
        assert_eq!(cache.images(display, &[oid]), (BTreeSet::new(), None));
    }
}

#[cfg(test)]
mod concurrency_tests {
    use super::*;
    use displaydb_schema::Value;
    use std::sync::Arc;

    /// Concurrent inserts/mutations/removals across threads must leave
    /// accounting exact: byte total equals the sum over residents, and
    /// the OID index contains exactly the resident objects.
    #[test]
    fn concurrent_ops_keep_accounting_exact() {
        let cache = Arc::new(DisplayCache::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                let mut mine = Vec::new();
                for i in 0..200u64 {
                    let id = cache.allocate_id();
                    let mut d = DisplayObject::new(id, "T", vec![Oid::new(t * 1000 + i % 50)]);
                    d.attrs.push(("U".into(), Value::Float(0.0)));
                    cache.insert(d);
                    mine.push(id);
                    if i % 3 == 0 {
                        cache.with_mut(id, |d| {
                            d.attrs.push(("Extra".into(), Value::Int(i as i64)));
                        });
                    }
                    if i % 5 == 0 {
                        let victim = mine.remove(0);
                        cache.remove(victim);
                    }
                }
                mine
            }));
        }
        let survivors: Vec<DoId> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let stats = cache.stats();
        assert_eq!(stats.objects, survivors.len());
        // Byte accounting must equal the sum of resident footprints.
        let sum: usize = survivors
            .iter()
            .map(|&id| cache.get(id).unwrap().size_bytes())
            .sum();
        assert_eq!(stats.bytes, sum);
        // Index agrees: every survivor is its OID's dependent.
        for &id in &survivors {
            let obj = cache.get(id).unwrap();
            assert!(cache.dependents(obj.assoc[0]).contains(&id));
        }
    }
}
