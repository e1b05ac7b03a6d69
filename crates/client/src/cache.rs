//! The client database cache.
//!
//! This is the third level of the paper's memory hierarchy (figure 2):
//! whole database objects cached in the client's main memory. Its
//! defining properties — the ones the paper's § 2.2 critique hinges on —
//! are implemented faithfully:
//!
//! * **whole-object granularity**: every attribute is cached even if the
//!   GUI needs two of them;
//! * **application has no pin control**: entries are evicted LRU under
//!   byte pressure and invalidated by server callbacks at any time;
//! * **inter-transaction reuse**: a hit costs no server round-trip
//!   (avoidance-based consistency keeps hits valid).

use displaydb_common::lru::{LruCache, LruStats};
use displaydb_common::sync::{ranks, OrderedMutex};
use displaydb_common::Oid;
use displaydb_schema::DbObject;

/// Thread-safe, byte-bounded LRU cache of decoded objects.
pub struct ClientCache {
    inner: OrderedMutex<LruCache<Oid, DbObject>>,
}

impl ClientCache {
    /// Create a cache bounded to `capacity_bytes`.
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            inner: OrderedMutex::new(ranks::CLIENT_CACHE, LruCache::new(capacity_bytes)),
        }
    }

    /// Look up an object (LRU touch on hit).
    pub fn get(&self, oid: Oid) -> Option<DbObject> {
        self.inner.lock().get(&oid).cloned()
    }

    /// Run `f` on the cached copy of `oid`, if there is one, with no LRU
    /// touch and no hit or miss counted.
    pub fn peek<R>(&self, oid: Oid, f: impl FnOnce(&DbObject) -> R) -> Option<R> {
        self.inner.lock().peek(&oid).map(f)
    }

    /// Insert (or refresh) an object; its footprint is measured with
    /// [`DbObject::size_bytes`].
    pub fn insert(&self, obj: DbObject) {
        let size = obj.size_bytes();
        self.inner.lock().insert(obj.oid, obj, size);
    }

    /// Patch a cached object in place from an attribute-level delta
    /// (`(layout index, encoded Value)` pairs). Returns `false` — the
    /// caller must fall back to a full re-read — when the object is not
    /// cached or [`DbObject::apply_changes`] refuses the pairs. The patch
    /// is all-or-nothing: a bad pair leaves the cached object untouched.
    pub fn apply_delta(&self, oid: Oid, changed: &[(u16, Vec<u8>)]) -> bool {
        let mut inner = self.inner.lock();
        let Some(obj) = inner.get(&oid) else {
            return false;
        };
        let mut patched = obj.clone();
        if patched.apply_changes(changed).is_err() {
            return false;
        }
        let size = patched.size_bytes();
        inner.insert(oid, patched, size);
        true
    }

    /// Drop objects (server callback or local knowledge of staleness).
    pub fn invalidate(&self, oids: &[Oid]) {
        let mut inner = self.inner.lock();
        for oid in oids {
            inner.remove(oid);
        }
    }

    /// Drop everything.
    pub fn clear(&self) {
        self.inner.lock().clear();
    }

    /// Whether `oid` is cached (no LRU effect).
    pub fn contains(&self, oid: Oid) -> bool {
        self.inner.lock().contains(&oid)
    }

    /// Every cached oid, most-recently-used first (no LRU effect) — the
    /// manifest a resuming session presents to the server so it can
    /// rebuild copy-table entries and report which copies went stale.
    pub fn oids(&self) -> Vec<Oid> {
        self.inner.lock().keys_mru().copied().collect()
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Bytes used by cached objects.
    pub fn used_bytes(&self) -> usize {
        self.inner.lock().used_bytes()
    }

    /// Configured capacity.
    pub fn capacity_bytes(&self) -> usize {
        self.inner.lock().capacity_bytes()
    }

    /// Hit/miss/eviction statistics.
    pub fn stats(&self) -> LruStats {
        self.inner.lock().stats()
    }
}

impl std::fmt::Debug for ClientCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("ClientCache")
            .field("objects", &inner.len())
            .field("used_bytes", &inner.used_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use displaydb_schema::class::ClassBuilder;
    use displaydb_schema::{AttrType, Catalog};

    fn obj(cat: &Catalog, oid: u64, payload: &str) -> DbObject {
        let mut o = DbObject::new_named(cat, "Blob").unwrap();
        o.oid = Oid::new(oid);
        o.set(cat, "Data", payload).unwrap();
        o
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.define(ClassBuilder::new("Blob").attr("Data", AttrType::Str))
            .unwrap();
        c
    }

    #[test]
    fn insert_get_invalidate() {
        let cat = catalog();
        let cache = ClientCache::new(10_000);
        cache.insert(obj(&cat, 1, "one"));
        assert!(cache.contains(Oid::new(1)));
        assert_eq!(
            cache
                .get(Oid::new(1))
                .unwrap()
                .get(&cat, "Data")
                .unwrap()
                .as_str()
                .unwrap(),
            "one"
        );
        cache.invalidate(&[Oid::new(1)]);
        assert!(cache.get(Oid::new(1)).is_none());
    }

    #[test]
    fn byte_pressure_evicts_lru() {
        let cat = catalog();
        // Each object is ~48 + 24 + len bytes; cap at ~3 small objects.
        let cache = ClientCache::new(300);
        for i in 0..5 {
            cache.insert(obj(&cat, i, "xxxxxxxxxx"));
        }
        assert!(cache.len() < 5, "no eviction happened");
        assert!(cache.used_bytes() <= 300);
        assert!(cache.stats().evictions > 0);
        // Most recent insert survives.
        assert!(cache.contains(Oid::new(4)));
    }

    #[test]
    fn refresh_replaces_in_place() {
        let cat = catalog();
        let cache = ClientCache::new(10_000);
        cache.insert(obj(&cat, 1, "old"));
        cache.insert(obj(&cat, 1, "new"));
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache
                .get(Oid::new(1))
                .unwrap()
                .get(&cat, "Data")
                .unwrap()
                .as_str()
                .unwrap(),
            "new"
        );
    }

    #[test]
    fn apply_delta_patches_cached_object() {
        use displaydb_wire::Encode;
        let cat = catalog();
        let cache = ClientCache::new(10_000);
        cache.insert(obj(&cat, 1, "old"));
        let donor = obj(&cat, 2, "patched");
        let bytes = donor.values[0].encode_to_bytes().to_vec();
        assert!(cache.apply_delta(Oid::new(1), &[(0, bytes)]));
        assert_eq!(
            cache
                .get(Oid::new(1))
                .unwrap()
                .get(&cat, "Data")
                .unwrap()
                .as_str()
                .unwrap(),
            "patched"
        );
    }

    #[test]
    fn apply_delta_rejects_uncached_and_out_of_range() {
        let cat = catalog();
        let cache = ClientCache::new(10_000);
        assert!(!cache.apply_delta(Oid::new(9), &[]), "uncached object");
        cache.insert(obj(&cat, 1, "old"));
        assert!(
            !cache.apply_delta(Oid::new(1), &[(7, vec![])]),
            "index outside the layout"
        );
        assert_eq!(
            cache
                .get(Oid::new(1))
                .unwrap()
                .get(&cat, "Data")
                .unwrap()
                .as_str()
                .unwrap(),
            "old",
            "failed patch must leave the object untouched"
        );
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let cat = catalog();
        let cache = ClientCache::new(10_000);
        cache.insert(obj(&cat, 1, "x"));
        cache.get(Oid::new(1));
        cache.get(Oid::new(2));
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }
}
