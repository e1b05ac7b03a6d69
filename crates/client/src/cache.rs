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
use std::collections::HashMap;

/// Thread-safe, byte-bounded LRU cache of decoded objects.
pub struct ClientCache {
    inner: OrderedMutex<Inner>,
}

struct Inner {
    lru: LruCache<Oid, DbObject>,
    /// Invalidation calls so far.
    generation: u64,
    /// The generation each open [`Fill`] started at.
    fills: Vec<u64>,
    /// While a fill is open: each oid invalidated since, with the
    /// generation of its latest invalidation.
    dropped: HashMap<Oid, u64>,
}

/// A server call's right to cache what it returns. The server registers
/// a copy before it answers, so the next writer's callback for that copy
/// can overtake the answer; an object a callback names after the fill
/// opened is therefore not inserted. Open it before the request is sent.
pub(crate) struct Fill<'a> {
    cache: &'a ClientCache,
    started: u64,
}

impl Fill<'_> {
    /// Insert `obj` unless a callback named it since the fill opened.
    pub(crate) fn insert(&self, obj: DbObject) {
        let mut inner = self.cache.inner.lock();
        if inner.dropped.get(&obj.oid) <= Some(&self.started) {
            let size = obj.size_bytes();
            inner.lru.insert(obj.oid, obj, size);
        }
    }
}

impl Drop for Fill<'_> {
    fn drop(&mut self) {
        let mut inner = self.cache.inner.lock();
        if let Some(at) = inner.fills.iter().position(|&g| g == self.started) {
            inner.fills.swap_remove(at);
        }
        if inner.fills.is_empty() {
            inner.dropped.clear();
        }
    }
}

impl ClientCache {
    /// Create a cache bounded to `capacity_bytes`.
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            inner: OrderedMutex::new(
                ranks::CLIENT_CACHE,
                Inner {
                    lru: LruCache::new(capacity_bytes),
                    generation: 0,
                    fills: Vec::new(),
                    dropped: HashMap::new(),
                },
            ),
        }
    }

    /// Open a [`Fill`] for a server call about to be sent.
    pub(crate) fn fill(&self) -> Fill<'_> {
        let mut inner = self.inner.lock();
        let started = inner.generation;
        inner.fills.push(started);
        Fill {
            cache: self,
            started,
        }
    }

    /// Look up an object (LRU touch on hit).
    pub fn get(&self, oid: Oid) -> Option<DbObject> {
        self.inner.lock().lru.get(&oid).cloned()
    }

    /// Run `f` on the cached copy of `oid`, if there is one, with no LRU
    /// touch and no hit or miss counted.
    pub fn peek<R>(&self, oid: Oid, f: impl FnOnce(&DbObject) -> R) -> Option<R> {
        self.inner.lock().lru.peek(&oid).map(f)
    }

    /// Insert (or refresh) an object; its footprint is measured with
    /// [`DbObject::size_bytes`]. No production path calls this: only a
    /// server answer (`Fill::insert`) and the delta hook write the cache,
    /// both for copies the server registered. It is public for tests and
    /// for the benchmark's `apply_delta_ns` layer, which seeds its cache
    /// with it.
    pub fn insert(&self, obj: DbObject) {
        let size = obj.size_bytes();
        self.inner.lock().lru.insert(obj.oid, obj, size);
    }

    /// Patch a cached object in place from an attribute-level delta
    /// (`(layout index, encoded Value)` pairs). Returns `false` — the
    /// caller must fall back to a full re-read — when the object is not
    /// cached or [`DbObject::apply_changes`] refuses the pairs. The patch
    /// is all-or-nothing: a bad pair leaves the cached object untouched.
    pub fn apply_delta(&self, oid: Oid, changed: &[(u16, Vec<u8>)]) -> bool {
        let mut inner = self.inner.lock();
        let Some(obj) = inner.lru.get(&oid) else {
            return false;
        };
        let mut patched = obj.clone();
        if patched.apply_changes(changed).is_err() {
            return false;
        }
        let size = patched.size_bytes();
        inner.lru.insert(oid, patched, size);
        true
    }

    /// Drop objects (server callback or local knowledge of staleness);
    /// an open `Fill` will not cache them either.
    pub fn invalidate(&self, oids: &[Oid]) {
        let mut inner = self.inner.lock();
        inner.generation += 1;
        let generation = inner.generation;
        let filling = !inner.fills.is_empty();
        for oid in oids {
            inner.lru.remove(oid);
            if filling {
                inner.dropped.insert(*oid, generation);
            }
        }
    }

    /// Drop everything.
    pub fn clear(&self) {
        self.inner.lock().lru.clear();
    }

    /// Whether `oid` is cached (no LRU effect).
    pub fn contains(&self, oid: Oid) -> bool {
        self.inner.lock().lru.contains(&oid)
    }

    /// Every cached oid, most-recently-used first (no LRU effect) — the
    /// manifest a resuming session presents to the server so it can
    /// rebuild copy-table entries and report which copies went stale.
    pub fn oids(&self) -> Vec<Oid> {
        self.inner.lock().lru.keys_mru().copied().collect()
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.inner.lock().lru.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().lru.is_empty()
    }

    /// Bytes used by cached objects.
    pub fn used_bytes(&self) -> usize {
        self.inner.lock().lru.used_bytes()
    }

    /// Configured capacity.
    pub fn capacity_bytes(&self) -> usize {
        self.inner.lock().lru.capacity_bytes()
    }

    /// Hit/miss/eviction statistics.
    pub fn stats(&self) -> LruStats {
        self.inner.lock().lru.stats()
    }
}

impl std::fmt::Debug for ClientCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("ClientCache")
            .field("objects", &inner.lru.len())
            .field("used_bytes", &inner.lru.used_bytes())
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
    fn a_fill_skips_what_a_callback_named_after_it_opened() {
        let cat = catalog();
        let cache = ClientCache::new(10_000);
        cache.invalidate(&[Oid::new(1)]); // before the fill: no effect
        let fill = cache.fill();
        let other = cache.fill();
        drop(other); // an overlapping fill's end keeps this one's record
        cache.invalidate(&[Oid::new(2)]);
        fill.insert(obj(&cat, 1, "one"));
        fill.insert(obj(&cat, 2, "two"));
        assert!(cache.contains(Oid::new(1)));
        assert!(!cache.contains(Oid::new(2)));
        let later = cache.fill();
        later.insert(obj(&cat, 2, "two"));
        assert!(cache.contains(Oid::new(2)), "opened after the callback");
        drop((fill, later));
        cache.invalidate(&[Oid::new(3)]);
        cache.fill().insert(obj(&cat, 3, "three"));
        assert!(cache.contains(Oid::new(3)));
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
