//! The client copy table for avoidance-based cache consistency.
//!
//! Under the ROWA / callback discipline (paper § 3.3), the server must
//! know which clients hold cached copies of each object so it can call
//! them back (invalidate) before an exclusive lock is granted. The copy
//! table is a conservative over-approximation: clients may silently drop
//! entries from their LRU caches, in which case a callback is a harmless
//! no-op at that client.

use displaydb_common::sync::{ranks, OrderedMutex};
use displaydb_common::{ClientId, Oid};
use std::collections::{HashMap, HashSet};

/// Tracks which clients cache which objects.
#[derive(Debug)]
pub struct CopyTable {
    by_oid: OrderedMutex<HashMap<Oid, HashSet<ClientId>>>,
}

impl Default for CopyTable {
    fn default() -> Self {
        Self::new()
    }
}

impl CopyTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self {
            by_oid: OrderedMutex::new(ranks::SERVER_COPIES, HashMap::new()),
        }
    }

    /// Record that `client` received a copy of `oid`.
    pub fn register(&self, client: ClientId, oid: Oid) {
        self.by_oid.lock().entry(oid).or_default().insert(client);
    }

    /// Record copies for a batch of objects.
    pub fn register_many(&self, client: ClientId, oids: impl IntoIterator<Item = Oid>) {
        let mut map = self.by_oid.lock();
        for oid in oids {
            map.entry(oid).or_default().insert(client);
        }
    }

    /// All clients (except `except`) that cache `oid` — the callback set.
    pub fn holders_except(&self, oid: Oid, except: ClientId) -> Vec<ClientId> {
        self.by_oid
            .lock()
            .get(&oid)
            .map(|s| s.iter().copied().filter(|&c| c != except).collect())
            .unwrap_or_default()
    }

    /// Drop `client`'s copy of `oid` (after a callback completes).
    pub fn drop_copy(&self, client: ClientId, oid: Oid) {
        let mut map = self.by_oid.lock();
        if let Some(set) = map.get_mut(&oid) {
            set.remove(&client);
            if set.is_empty() {
                map.remove(&oid);
            }
        }
    }

    /// Drop every copy held by `client` (disconnect).
    pub fn drop_client(&self, client: ClientId) {
        let mut map = self.by_oid.lock();
        map.retain(|_, set| {
            set.remove(&client);
            !set.is_empty()
        });
    }

    /// Whether `client` is recorded as caching `oid`.
    pub fn has_copy(&self, client: ClientId, oid: Oid) -> bool {
        self.by_oid
            .lock()
            .get(&oid)
            .is_some_and(|s| s.contains(&client))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u64) -> ClientId {
        ClientId::new(i)
    }

    fn o(i: u64) -> Oid {
        Oid::new(i)
    }

    #[test]
    fn register_and_holders() {
        let t = CopyTable::new();
        t.register(c(1), o(1));
        t.register(c(2), o(1));
        t.register(c(1), o(2));
        let mut holders = t.holders_except(o(1), c(2));
        holders.sort();
        assert_eq!(holders, vec![c(1)]);
        assert!(t.has_copy(c(1), o(2)));
    }

    #[test]
    fn holders_except_excludes_requester() {
        let t = CopyTable::new();
        t.register_many(c(1), [o(1)]);
        assert!(t.holders_except(o(1), c(1)).is_empty());
        assert_eq!(t.holders_except(o(1), c(9)), vec![c(1)]);
    }

    #[test]
    fn drop_copy_and_client() {
        let t = CopyTable::new();
        t.register_many(c(1), [o(1), o(2)]);
        t.register_many(c(2), [o(1)]);
        t.drop_copy(c(1), o(1));
        assert!(!t.has_copy(c(1), o(1)));
        assert!(t.has_copy(c(2), o(1)));
        t.drop_client(c(2));
        assert!(t.holders_except(o(1), c(9)).is_empty());
        assert!(t.has_copy(c(1), o(2)));
    }

    #[test]
    fn unknown_oid_has_no_holders() {
        let t = CopyTable::new();
        assert!(t.holders_except(o(42), c(1)).is_empty());
        t.drop_copy(c(1), o(42)); // no-op, no panic
    }
}
