//! A generic LRU cache with byte-size accounting.
//!
//! This backs the *client database cache* (paper § 2.2): the level of the
//! memory hierarchy whose contents the application does **not** control and
//! whose evictions are the motivation for the display cache. The paper's
//! footnote 3 assumes an LRU replacement policy, which is what this
//! implements.
//!
//! The implementation is a doubly-linked list threaded through a slab,
//! indexed by a `HashMap`, so `get`/`insert`/`remove` are O(1). Entries
//! carry an explicit size in bytes; eviction triggers whenever the running
//! total exceeds the configured capacity.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node<K, V> {
    key: K,
    value: Option<V>,
    size: usize,
    prev: usize,
    next: usize,
}

/// Statistics exposed by the cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LruStats {
    /// Lookups that found the key.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

/// An LRU cache bounded by total entry size in bytes.
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    slab: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity_bytes: usize,
    used_bytes: usize,
    stats: LruStats,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Create a cache that holds at most `capacity_bytes` of entry payload.
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity_bytes,
            used_bytes: 0,
            stats: LruStats::default(),
        }
    }

    /// Number of entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total bytes accounted to cached entries.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Configured capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Hit/miss/eviction statistics.
    pub fn stats(&self) -> LruStats {
        self.stats
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.slab[idx].prev = NIL;
        self.slab[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Look up `key`, marking it most-recently-used on hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.stats.hits += 1;
                self.detach(idx);
                self.push_front(idx);
                self.slab[idx].value.as_ref()
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Look up `key` without disturbing recency or statistics.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map
            .get(key)
            .and_then(|&idx| self.slab[idx].value.as_ref())
    }

    /// Whether `key` is present (no recency/statistics effect).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Insert `key` with payload `value` of `size` bytes, evicting
    /// least-recently-used entries as needed. Returns the evicted entries.
    ///
    /// An entry larger than the whole capacity is still admitted (the cache
    /// then holds only that entry); this mirrors buffer managers that must
    /// accommodate at least one object.
    pub fn insert(&mut self, key: K, value: V, size: usize) -> Vec<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            self.used_bytes = self.used_bytes - self.slab[idx].size + size;
            self.slab[idx].value = Some(value);
            self.slab[idx].size = size;
            self.detach(idx);
            self.push_front(idx);
        } else {
            let node = Node {
                key: key.clone(),
                value: Some(value),
                size,
                prev: NIL,
                next: NIL,
            };
            let idx = match self.free.pop() {
                Some(i) => {
                    self.slab[i] = node;
                    i
                }
                None => {
                    self.slab.push(node);
                    self.slab.len() - 1
                }
            };
            self.map.insert(key, idx);
            self.used_bytes += size;
            self.push_front(idx);
        }
        self.evict_to_fit()
    }

    fn evict_to_fit(&mut self) -> Vec<(K, V)> {
        let mut evicted = Vec::new();
        while self.used_bytes > self.capacity_bytes && self.map.len() > 1 {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            let key = self.slab[victim].key.clone();
            if let Some((k, v)) = self.remove(&key) {
                self.stats.evictions += 1;
                evicted.push((k, v));
            }
        }
        evicted
    }

    /// Remove `key`, returning its entry if present.
    pub fn remove(&mut self, key: &K) -> Option<(K, V)> {
        let idx = self.map.remove(key)?;
        self.detach(idx);
        self.used_bytes -= self.slab[idx].size;
        self.free.push(idx);
        let value = self.slab[idx].value.take()?;
        Some((self.slab[idx].key.clone(), value))
    }

    /// Remove every entry, returning the cache to empty without changing
    /// capacity or statistics.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.used_bytes = 0;
    }

    /// Iterate keys from most- to least-recently used.
    pub fn keys_mru(&self) -> impl Iterator<Item = &K> {
        struct Iter<'a, K, V> {
            cache: &'a LruCache<K, V>,
            cur: usize,
        }
        impl<'a, K, V> Iterator for Iter<'a, K, V> {
            type Item = &'a K;
            fn next(&mut self) -> Option<&'a K> {
                if self.cur == NIL {
                    return None;
                }
                let node = &self.cache.slab[self.cur];
                self.cur = node.next;
                Some(&node.key)
            }
        }
        Iter {
            cache: self,
            cur: self.head,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut c: LruCache<u32, &str> = LruCache::new(100);
        assert!(c.insert(1, "a", 10).is_empty());
        assert_eq!(c.get(&1), Some(&"a"));
        assert_eq!(c.get(&2), None);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.used_bytes(), 10);
    }

    #[test]
    fn evicts_lru_order() {
        let mut c: LruCache<u32, u32> = LruCache::new(30);
        c.insert(1, 10, 10);
        c.insert(2, 20, 10);
        c.insert(3, 30, 10);
        // Touch 1 so 2 becomes LRU.
        c.get(&1);
        let evicted = c.insert(4, 40, 10);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, 2);
        assert!(c.contains(&1) && c.contains(&3) && c.contains(&4));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reinsert_updates_size() {
        let mut c: LruCache<u32, &str> = LruCache::new(100);
        c.insert(1, "a", 10);
        c.insert(1, "b", 50);
        assert_eq!(c.used_bytes(), 50);
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(&1), Some(&"b"));
    }

    #[test]
    fn oversized_entry_admitted_alone() {
        let mut c: LruCache<u32, u32> = LruCache::new(10);
        c.insert(1, 1, 5);
        let evicted = c.insert(2, 2, 100);
        // Entry 1 gets evicted; entry 2 stays alone even though oversized.
        assert_eq!(evicted.len(), 1);
        assert_eq!(c.len(), 1);
        assert!(c.contains(&2));
    }

    #[test]
    fn remove_returns_value() {
        let mut c: LruCache<u32, String> = LruCache::new(100);
        c.insert(7, "x".to_string(), 1);
        let (k, v) = c.remove(&7).unwrap();
        assert_eq!((k, v.as_str()), (7, "x"));
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
        assert!(c.remove(&7).is_none());
    }

    #[test]
    fn mru_iteration_order() {
        let mut c: LruCache<u32, u32> = LruCache::new(1000);
        for i in 0..4 {
            c.insert(i, i, 1);
        }
        c.get(&0);
        let order: Vec<u32> = c.keys_mru().copied().collect();
        assert_eq!(order, vec![0, 3, 2, 1]);
    }

    #[test]
    fn clear_resets() {
        let mut c: LruCache<u32, u32> = LruCache::new(100);
        c.insert(1, 1, 10);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
        c.insert(2, 2, 10);
        assert_eq!(c.get(&2), Some(&2));
    }

    #[test]
    fn slot_reuse_after_removal() {
        let mut c: LruCache<u32, u32> = LruCache::new(1000);
        for i in 0..100 {
            c.insert(i, i, 1);
        }
        for i in 0..100 {
            c.remove(&i);
        }
        for i in 100..200 {
            c.insert(i, i, 1);
        }
        // Slab should have been reused, not grown to 200.
        assert_eq!(c.slab.len(), 100);
        assert_eq!(c.len(), 100);
        for i in 100..200 {
            assert_eq!(c.peek(&i), Some(&i));
        }
    }
}
