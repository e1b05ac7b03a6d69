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
//! Beside every DO not built on whole objects it keeps a *source image*:
//! per associated OID, the attributes the DO has read and locked (counted
//! in the bytes, not part of the [`DisplayObject`]). Deltas patch it and
//! the DO re-derives from it, so a delta refresh never reads the database.

use crate::object::{DisplayObject, DoId};
use crate::schema::SourceAttr;
use displaydb_common::ids::IdGen;
use displaydb_common::Oid;
use displaydb_schema::{DbObject, Value};
use displaydb_wire::Decode;
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Cache occupancy statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DisplayCacheStats {
    /// Resident display objects.
    pub objects: usize,
    /// Total bytes of resident display objects and their source images.
    pub bytes: usize,
    /// Lifetime inserts.
    pub inserts: u64,
    /// Lifetime removals.
    pub removals: u64,
}

/// A source image: per associated OID, a thin copy holding the attributes
/// in `attrs` of its class, every other one at its type's default.
struct Image {
    attrs: BTreeSet<SourceAttr>,
    sources: Vec<DbObject>,
}

impl Image {
    fn new(attrs: BTreeSet<SourceAttr>, mut sources: Vec<DbObject>) -> Self {
        for source in &mut sources {
            let class = source.class;
            for (i, value) in source.values.iter_mut().enumerate() {
                if !attrs.contains(&(class, i as u16)) {
                    *value = value.attr_type().default_value();
                }
            }
        }
        Self { attrs, sources }
    }

    /// The OID and the imaged values of each source.
    fn size_bytes(&self) -> usize {
        let values = |s: &DbObject| -> usize {
            let imaged = self.attrs.range((s.class, 0)..=(s.class, u16::MAX));
            imaged
                .map(|&(_, a)| s.values.get(usize::from(a)).map_or(0, Value::size_bytes))
                .sum()
        };
        self.sources.iter().map(|s| 8 + values(s)).sum()
    }
}

#[derive(Default)]
struct CacheState {
    objects: HashMap<DoId, DisplayObject>,
    images: HashMap<DoId, Image>,
    by_oid: HashMap<Oid, HashSet<DoId>>,
    bytes: usize,
    inserts: u64,
    removals: u64,
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

    /// Mutate a display object in place, keeping byte accounting and the
    /// OID index correct. Returns `None` if absent.
    pub fn with_mut<T>(&self, id: DoId, f: impl FnOnce(&mut DisplayObject) -> T) -> Option<T> {
        let mut state = self.state.lock();
        // Take the object out to sidestep aliasing on the index.
        let mut obj = state.objects.remove(&id)?;
        let old_bytes = obj.size_bytes();
        let old_assoc = obj.assoc.clone();
        let out = f(&mut obj);
        state.bytes = state.bytes - old_bytes + obj.size_bytes();
        if old_assoc != obj.assoc {
            for oid in &old_assoc {
                if let Some(set) = state.by_oid.get_mut(oid) {
                    set.remove(&id);
                    if set.is_empty() {
                        state.by_oid.remove(oid);
                    }
                }
            }
            for &oid in &obj.assoc {
                state.by_oid.entry(oid).or_default().insert(id);
            }
        }
        state.objects.insert(id, obj);
        Some(out)
    }

    /// Unpin and remove a display object.
    pub fn remove(&self, id: DoId) -> Option<DisplayObject> {
        let mut state = self.state.lock();
        let obj = state.objects.remove(&id)?;
        state.bytes -= obj.size_bytes();
        if let Some(image) = state.images.remove(&id) {
            state.bytes -= image.size_bytes();
        }
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

    /// Seed `id`'s source image with the attributes `attrs` of `sources`.
    pub fn seed_image(&self, id: DoId, attrs: BTreeSet<SourceAttr>, sources: Vec<DbObject>) {
        let mut state = self.state.lock();
        if !state.objects.contains_key(&id) {
            return;
        }
        let image = Image::new(attrs, sources);
        state.bytes += image.size_bytes();
        if let Some(old) = state.images.insert(id, image) {
            state.bytes -= old.size_bytes();
        }
    }

    /// The attributes `id`'s image holds, or `None` without an image.
    pub fn image_attrs(&self, id: DoId) -> Option<BTreeSet<SourceAttr>> {
        self.state.lock().images.get(&id).map(|i| i.attrs.clone())
    }

    /// Patch `id`'s image with a delta for `oid`; return the thin sources
    /// to derive from, or `None` — a miss, image untouched — when there is
    /// no image or source `oid`, or a value fails to decode.
    pub fn patch_image(
        &self,
        id: DoId,
        oid: Oid,
        changed: &[(u16, Vec<u8>)],
    ) -> Option<Vec<DbObject>> {
        let mut state = self.state.lock();
        let state = &mut *state;
        let image = state.images.get_mut(&id)?;
        let class = image.sources.iter().find(|s| s.oid == oid)?.class;
        // Attributes the DO does not read are skipped (a DLM
        // registration is the union over the client's display objects).
        let mut values = Vec::with_capacity(changed.len());
        for (attr, bytes) in changed
            .iter()
            .filter(|(a, _)| image.attrs.contains(&(class, *a)))
        {
            values.push((usize::from(*attr), Value::decode_from_bytes(bytes).ok()?));
        }
        let before = image.size_bytes();
        for source in image.sources.iter_mut().filter(|s| s.oid == oid) {
            for (i, value) in &values {
                source.values[*i] = value.clone(); // `attrs` index the sources' layout
            }
        }
        state.bytes = state.bytes - before + image.size_bytes();
        Some(image.sources.clone())
    }

    /// Display objects derived from `oid` — the refresh fan-out set.
    pub fn dependents(&self, oid: Oid) -> Vec<DoId> {
        self.state
            .lock()
            .by_oid
            .get(&oid)
            .map(|s| {
                let mut v: Vec<DoId> = s.iter().copied().collect();
                v.sort_unstable();
                v
            })
            .unwrap_or_default()
    }

    /// Occupancy statistics.
    pub fn stats(&self) -> DisplayCacheStats {
        let state = self.state.lock();
        DisplayCacheStats {
            objects: state.objects.len(),
            bytes: state.bytes,
            inserts: state.inserts,
            removals: state.removals,
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
    fn with_mut_updates_bytes_and_index() {
        let cache = DisplayCache::new();
        let id = obj(&cache, &[1]);
        let before = cache.used_bytes();
        cache.with_mut(id, |d| {
            d.attrs.push(("Long".into(), Value::Str("x".repeat(500))));
            d.assoc = vec![Oid::new(5)];
        });
        assert!(cache.used_bytes() > before + 400);
        assert!(cache.dependents(Oid::new(1)).is_empty());
        assert_eq!(cache.dependents(Oid::new(5)), vec![id]);
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

    /// Pin a display object of `class` over `sources`, imaged.
    fn imaged(
        cache: &DisplayCache,
        cat: &Catalog,
        class: &DisplayClassDef,
        sources: &[DbObject],
    ) -> DoId {
        let id = cache.allocate_id();
        let assoc = sources.iter().map(|s| s.oid).collect();
        cache.insert(DisplayObject::new(id, class.name(), assoc));
        let (_, reads) = class.derive_reading(cat, sources);
        cache.seed_image(id, reads, sources.to_vec());
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
        for (class, n) in [
            (width_coded_link("Utilization"), 1),
            (color_coded_link("Utilization"), 1),
            (path, 2),
        ] {
            let id = imaged(&cache, &cat, &class, &full[..n]);
            for util in [0.1, 0.55, 0.97] {
                let oid = full[n - 1].oid;
                full[n - 1].set(&cat, "Utilization", util).unwrap();
                let thin = cache.patch_image(id, oid, &[(index(&cat, "Utilization"), float(util))]);
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
                assert_eq!(Some(reads), cache.image_attrs(id), "read only the image");
            }
        }
    }

    #[test]
    fn image_patches_are_all_or_nothing_and_counted() {
        let cat = link_catalog();
        let cache = DisplayCache::new();
        let (util, errors) = (index(&cat, "Utilization"), index(&cat, "ErrorRate"));
        let id = imaged(
            &cache,
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
        let utilization = |thin: Vec<DbObject>| thin[0].get(&cat, "Utilization").unwrap().clone();

        // Misses leave the image as it was: no image, no such source, a
        // value that does not decode.
        assert!(cache.patch_image(DoId(999), Oid::new(1), &[]).is_none());
        assert!(cache
            .patch_image(id, Oid::new(2), &[(util, float(0.5))])
            .is_none());
        let torn = [(util, float(0.5)), (util, vec![0xff])];
        assert!(cache.patch_image(id, Oid::new(1), &torn).is_none());
        let thin = cache.patch_image(id, Oid::new(1), &[]).unwrap();
        assert_eq!(utilization(thin), Value::Float(0.3));
        // An attribute the class does not read is skipped, not a miss.
        let thin = cache
            .patch_image(id, Oid::new(1), &[(errors, float(0.7))])
            .unwrap();
        assert_eq!(thin[0].get(&cat, "ErrorRate").unwrap(), &Value::Float(0.0));
        let thin = cache
            .patch_image(id, Oid::new(1), &[(util, float(0.5))])
            .unwrap();
        assert_eq!(utilization(thin), Value::Float(0.5));
        assert_eq!(cache.used_bytes(), bytes);

        // A re-seed may widen the image; removal takes the bytes, and a
        // removed DO is not re-seeded.
        let class = cat.id_of("Link").unwrap();
        let attrs = BTreeSet::from([(class, util), (class, errors)]);
        cache.seed_image(id, attrs.clone(), vec![link(&cat, 1, 0.8, 0.4)]);
        let thin = cache.patch_image(id, Oid::new(1), &[]).unwrap();
        assert_eq!(thin[0].get(&cat, "ErrorRate").unwrap(), &Value::Float(0.4));
        assert_eq!(utilization(thin), Value::Float(0.8));
        assert_eq!(cache.used_bytes(), bytes + 8, "one more float");
        cache.remove(id);
        assert_eq!(cache.used_bytes(), 0);
        cache.seed_image(id, attrs, vec![link(&cat, 1, 0.8, 0.0)]);
        assert_eq!((cache.used_bytes(), cache.image_attrs(id)), (0, None));
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
