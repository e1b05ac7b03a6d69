//! The lock table: grant/queue/upgrade/deadlock machinery.

use crate::mode::{compatible, LockMode, Owner};
use displaydb_common::metrics::Counter;
use displaydb_common::sync::{ranks, OrderedCondvar, OrderedMutex};
use displaydb_common::{ClientId, DbError, DbResult, Oid, TxnId};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct LockManagerConfig {
    /// Maximum time a request may wait before failing with
    /// [`DbError::LockTimeout`].
    pub wait_timeout: Duration,
}

impl Default for LockManagerConfig {
    fn default() -> Self {
        Self {
            wait_timeout: Duration::from_secs(10),
        }
    }
}

/// Counters exposed for the server-overhead experiment (paper § 4.3:
/// "display locks ... very small fraction of overhead").
#[derive(Clone, Debug, Default)]
pub struct LockStats {
    /// Transactional lock grants (S/U/X).
    pub grants: Counter,
    /// Display lock grants.
    pub display_grants: Counter,
    /// Requests that had to wait.
    pub waits: Counter,
    /// Deadlocks resolved by aborting a victim.
    pub deadlocks: Counter,
    /// Requests that timed out.
    pub timeouts: Counter,
    /// Lock upgrades performed (e.g. U→X).
    pub upgrades: Counter,
}

#[derive(Debug)]
enum WaitState {
    Waiting,
    Granted,
    /// Chosen as a deadlock victim.
    Victim,
    /// Taken out of the queue by a release on the owner's behalf (its
    /// transaction aborted or its client disconnected mid-wait).
    Withdrawn,
}

#[derive(Debug)]
struct Waiter {
    owner: Owner,
    mode: LockMode,
    /// True when this waiter already holds a weaker lock on the object.
    upgrade: bool,
    state: OrderedMutex<WaitState>,
    cond: OrderedCondvar,
}

#[derive(Debug, Default)]
struct Entry {
    granted: Vec<(Owner, LockMode)>,
    queue: VecDeque<Arc<Waiter>>,
}

impl Entry {
    fn is_empty(&self) -> bool {
        self.granted.is_empty() && self.queue.is_empty()
    }

    /// Drop everything `owner` holds or waits for here. A waiter taken
    /// out is told so: nothing else would ever wake it, and its thread
    /// would sit in `acquire` for good.
    fn remove_owner(&mut self, owner: Owner) {
        self.granted.retain(|(o, _)| *o != owner);
        self.queue.retain(|w| {
            if w.owner != owner {
                return true;
            }
            *w.state.lock() = WaitState::Withdrawn;
            w.cond.notify_one();
            false
        });
    }

    fn held_by(&self, owner: Owner) -> Option<LockMode> {
        // An owner may hold at most one transactional mode plus possibly a
        // display lock; transactional lookup ignores display entries and
        // vice versa (callers pass the right mode kind).
        self.granted
            .iter()
            .find(|(o, _)| *o == owner)
            .map(|(_, m)| *m)
    }

    /// Whether `mode` is compatible with every granted lock except those
    /// held by `owner` itself.
    fn compatible_with_granted(&self, owner: Owner, mode: LockMode) -> bool {
        self.granted
            .iter()
            .filter(|(o, _)| *o != owner)
            .all(|(_, held)| compatible(*held, mode))
    }
}

#[derive(Default)]
struct State {
    locks: HashMap<Oid, Entry>,
    /// Owner -> objects it holds or waits on (for O(1) release-all).
    held: HashMap<Owner, HashSet<Oid>>,
}

/// The integrated lock manager (paper § 3.3 / § 4.1).
pub struct LockManager {
    state: OrderedMutex<State>,
    config: LockManagerConfig,
    stats: LockStats,
}

impl std::fmt::Debug for LockManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockManager").finish()
    }
}

impl LockManager {
    /// Create a lock manager with `config`.
    pub fn new(config: LockManagerConfig) -> Self {
        Self {
            state: OrderedMutex::new(ranks::LOCKMGR_TABLE, State::default()),
            config,
            stats: LockStats::default(),
        }
    }

    /// Statistics counters (shared handles).
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// Acquire `mode` on `oid` for `owner`, waiting if necessary.
    ///
    /// * Display locks are granted immediately — they are compatible with
    ///   everything, so they can never wait (and the paper's DLM does not
    ///   even acknowledge them, § 4.1).
    /// * Transactional locks follow FIFO queueing with upgrades served
    ///   first; blocking triggers deadlock detection.
    pub fn acquire(&self, owner: Owner, oid: Oid, mode: LockMode) -> DbResult<()> {
        let waiter = {
            let mut state = self.state.lock();
            let entry = state.locks.entry(oid).or_default();

            if mode == LockMode::Display {
                if entry.held_by(owner) != Some(LockMode::Display) {
                    entry.granted.push((owner, LockMode::Display));
                    state.held.entry(owner).or_default().insert(oid);
                }
                self.stats.display_grants.inc();
                return Ok(());
            }

            // Re-entrant or covered request.
            let held = entry
                .granted
                .iter()
                .find(|(o, m)| *o == owner && *m != LockMode::Display)
                .map(|(_, m)| *m);
            if let Some(h) = held {
                if h.covers(mode) {
                    return Ok(());
                }
            }
            let upgrade = held.is_some();

            let can_grant = entry.compatible_with_granted(owner, mode)
                && (upgrade || entry.queue.iter().all(|w| compatible(w.mode, mode)));
            if can_grant {
                Self::grant_in_entry(entry, owner, mode);
                state.held.entry(owner).or_default().insert(oid);
                self.stats.grants.inc();
                if upgrade {
                    self.stats.upgrades.inc();
                }
                return Ok(());
            }

            // Must wait.
            self.stats.waits.inc();
            let waiter = Arc::new(Waiter {
                owner,
                mode,
                upgrade,
                state: OrderedMutex::new(ranks::LOCKMGR_WAITER, WaitState::Waiting),
                cond: OrderedCondvar::new(),
            });
            if upgrade {
                entry.queue.push_front(Arc::clone(&waiter));
            } else {
                entry.queue.push_back(Arc::clone(&waiter));
            }
            state.held.entry(owner).or_default().insert(oid);

            if let Some(victim) = self.detect_deadlock(&state, owner) {
                self.stats.deadlocks.inc();
                if Owner::Txn(victim) == owner {
                    // We are the victim: undo our enqueue and fail.
                    let entry = state.locks.get_mut(&oid).expect("entry exists");
                    entry.queue.retain(|w| !Arc::ptr_eq(w, &waiter));
                    Self::promote(&mut state, oid, &self.stats);
                    return Err(DbError::Deadlock { victim });
                }
                // Abort another waiting transaction in the cycle.
                Self::abort_victim(&mut state, victim);
            }
            waiter
        };

        // Wait outside the table lock.
        displaydb_common::sync::before_wait();
        let mut ws = waiter.state.lock();
        loop {
            match *ws {
                WaitState::Granted => return Ok(()),
                WaitState::Victim => {
                    return Err(DbError::Deadlock {
                        victim: owner.txn().unwrap_or(TxnId::new(0)),
                    })
                }
                WaitState::Withdrawn => {
                    return Err(owner
                        .txn()
                        .map_or(DbError::LockTimeout { oid }, DbError::TxnNotActive))
                }
                WaitState::Waiting => {
                    if waiter
                        .cond
                        .wait_for(&mut ws, self.config.wait_timeout)
                        .timed_out()
                    {
                        drop(ws);
                        // Remove ourselves from the queue if still waiting.
                        let mut state = self.state.lock();
                        let mut removed = false;
                        if let Some(entry) = state.locks.get_mut(&oid) {
                            let before = entry.queue.len();
                            entry.queue.retain(|w| !Arc::ptr_eq(w, &waiter));
                            removed = entry.queue.len() != before;
                        }
                        if removed {
                            Self::promote(&mut state, oid, &self.stats);
                            self.stats.timeouts.inc();
                            return Err(DbError::LockTimeout { oid });
                        }
                        // We were granted (or victimized) in the race
                        // window; re-check the state.
                        drop(state);
                        ws = waiter.state.lock();
                    }
                }
            }
        }
    }

    fn grant_in_entry(entry: &mut Entry, owner: Owner, mode: LockMode) {
        if let Some(slot) = entry
            .granted
            .iter_mut()
            .find(|(o, m)| *o == owner && *m != LockMode::Display)
        {
            slot.1 = mode; // upgrade in place
        } else {
            entry.granted.push((owner, mode));
        }
    }

    /// Grant queued requests that are now compatible. FIFO: scan from the
    /// head, stop at the first incompatible waiter (upgrades sit at the
    /// front already).
    fn promote(state: &mut State, oid: Oid, stats: &LockStats) {
        let Some(entry) = state.locks.get_mut(&oid) else {
            return;
        };
        let mut granted_owners: Vec<Owner> = Vec::new();
        while let Some(waiter) = entry.queue.front() {
            let ok = entry.compatible_with_granted(waiter.owner, waiter.mode);
            if !ok {
                break;
            }
            let waiter = entry.queue.pop_front().expect("front exists");
            Self::grant_in_entry(entry, waiter.owner, waiter.mode);
            stats.grants.inc();
            if waiter.upgrade {
                stats.upgrades.inc();
            }
            granted_owners.push(waiter.owner);
            let mut ws = waiter.state.lock();
            *ws = WaitState::Granted;
            waiter.cond.notify_one();
        }
        if entry.is_empty() {
            state.locks.remove(&oid);
        }
        for owner in granted_owners {
            state.held.entry(owner).or_default().insert(oid);
        }
    }

    /// Build the waits-for graph and look for a cycle reachable from
    /// `from`. Returns the youngest transaction in the cycle, if any.
    fn detect_deadlock(&self, state: &State, from: Owner) -> Option<TxnId> {
        let Some(start) = from.txn() else {
            return None; // display/client owners never wait
        };
        // Edges: waiting txn -> txns holding incompatible granted locks on
        // the object it waits for, plus incompatible waiters queued ahead.
        let mut edges: HashMap<TxnId, HashSet<TxnId>> = HashMap::new();
        for entry in state.locks.values() {
            for (qi, waiter) in entry.queue.iter().enumerate() {
                let Some(wt) = waiter.owner.txn() else {
                    continue;
                };
                let deps = edges.entry(wt).or_default();
                for (o, m) in &entry.granted {
                    if *o != waiter.owner && !compatible(*m, waiter.mode) {
                        if let Some(t) = o.txn() {
                            deps.insert(t);
                        }
                    }
                }
                for ahead in entry.queue.iter().take(qi) {
                    if ahead.owner != waiter.owner && !compatible(ahead.mode, waiter.mode) {
                        if let Some(t) = ahead.owner.txn() {
                            deps.insert(t);
                        }
                    }
                }
            }
        }
        // DFS from `start` looking for a cycle that includes `start`'s
        // strongly-reachable set; detect any cycle on the path.
        let mut path: Vec<TxnId> = Vec::new();
        let mut on_path: HashSet<TxnId> = HashSet::new();
        let mut visited: HashSet<TxnId> = HashSet::new();
        fn dfs(
            node: TxnId,
            edges: &HashMap<TxnId, HashSet<TxnId>>,
            path: &mut Vec<TxnId>,
            on_path: &mut HashSet<TxnId>,
            visited: &mut HashSet<TxnId>,
        ) -> Option<Vec<TxnId>> {
            path.push(node);
            on_path.insert(node);
            if let Some(deps) = edges.get(&node) {
                for &next in deps {
                    if on_path.contains(&next) {
                        let start = path.iter().position(|&t| t == next).unwrap();
                        return Some(path[start..].to_vec());
                    }
                    if visited.insert(next) {
                        if let Some(c) = dfs(next, edges, path, on_path, visited) {
                            return Some(c);
                        }
                    }
                }
            }
            path.pop();
            on_path.remove(&node);
            None
        }
        visited.insert(start);
        let cycle = dfs(start, &edges, &mut path, &mut on_path, &mut visited)?;
        // Youngest = largest txn id (most recently started loses).
        cycle.into_iter().max()
    }

    /// Mark every waiting request of `victim` as victimized and wake it.
    fn abort_victim(state: &mut State, victim: TxnId) {
        let owner = Owner::Txn(victim);
        for entry in state.locks.values_mut() {
            for waiter in entry.queue.iter().filter(|w| w.owner == owner) {
                let mut ws = waiter.state.lock();
                *ws = WaitState::Victim;
                waiter.cond.notify_one();
            }
            entry.queue.retain(|w| w.owner != owner);
        }
    }

    /// Release one lock. Display locks are released by their client owner;
    /// transactional locks by their transaction.
    pub fn release(&self, owner: Owner, oid: Oid) {
        let mut state = self.state.lock();
        if let Some(entry) = state.locks.get_mut(&oid) {
            entry.remove_owner(owner);
            if entry.is_empty() {
                state.locks.remove(&oid);
            }
        }
        if let Some(set) = state.held.get_mut(&owner) {
            set.remove(&oid);
            if set.is_empty() {
                state.held.remove(&owner);
            }
        }
        Self::promote(&mut state, oid, &self.stats);
    }

    /// Release everything `owner` holds or waits for (commit/abort path
    /// for transactions, disconnect path for clients). Returns the objects
    /// released.
    pub fn release_all(&self, owner: Owner) -> Vec<Oid> {
        let mut state = self.state.lock();
        let oids: Vec<Oid> = state
            .held
            .remove(&owner)
            .map(|s| s.into_iter().collect())
            .unwrap_or_default();
        for &oid in &oids {
            if let Some(entry) = state.locks.get_mut(&oid) {
                entry.remove_owner(owner);
                if entry.is_empty() {
                    state.locks.remove(&oid);
                }
            }
            Self::promote(&mut state, oid, &self.stats);
        }
        oids
    }

    /// The transactional mode `owner` currently holds on `oid`, if any.
    pub fn held_mode(&self, owner: Owner, oid: Oid) -> Option<LockMode> {
        let state = self.state.lock();
        state.locks.get(&oid).and_then(|e| e.held_by(owner))
    }

    /// Clients currently holding display locks on `oid` — the notification
    /// fan-out set for both protocol variants (§ 3.3).
    pub fn display_holders(&self, oid: Oid) -> Vec<ClientId> {
        let state = self.state.lock();
        state
            .locks
            .get(&oid)
            .map(|e| {
                e.granted
                    .iter()
                    .filter(|(_, m)| *m == LockMode::Display)
                    .filter_map(|(o, _)| o.client())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Number of objects with any lock state (table size).
    pub fn locked_objects(&self) -> usize {
        self.state.lock().locks.len()
    }
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new(LockManagerConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    fn lm() -> Arc<LockManager> {
        Arc::new(LockManager::new(LockManagerConfig {
            wait_timeout: Duration::from_millis(500),
        }))
    }

    fn txn(i: u64) -> Owner {
        Owner::Txn(TxnId::new(i))
    }

    fn client(i: u64) -> Owner {
        Owner::Client(ClientId::new(i))
    }

    const O1: Oid = Oid::new(1);
    const O2: Oid = Oid::new(2);

    #[test]
    fn shared_locks_coexist() {
        let lm = lm();
        lm.acquire(txn(1), O1, LockMode::Shared).unwrap();
        lm.acquire(txn(2), O1, LockMode::Shared).unwrap();
        assert_eq!(lm.stats().grants.get(), 2);
    }

    #[test]
    fn releasing_a_waiting_owner_wakes_its_request() {
        // An abort or disconnect that lands while the owner's request is
        // queued: the request must fail now, not sit out timeout after
        // timeout on a queue it is no longer in.
        let lm = Arc::new(LockManager::new(LockManagerConfig {
            wait_timeout: Duration::from_secs(60),
        }));
        lm.acquire(txn(1), O1, LockMode::Exclusive).unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let lm2 = Arc::clone(&lm);
        thread::spawn(move || {
            let _ = done_tx.send(lm2.acquire(txn(2), O1, LockMode::Exclusive));
        });
        while lm.stats().waits.get() == 0 {
            thread::yield_now();
        }
        lm.release_all(txn(2));
        let woken = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the withdrawn request returned");
        assert!(matches!(woken, Err(DbError::TxnNotActive(t)) if t == TxnId::new(2)));
        // The holder is untouched and nothing is left queued behind it.
        assert_eq!(lm.held_mode(txn(1), O1), Some(LockMode::Exclusive));
        lm.release_all(txn(1));
        assert_eq!(lm.locked_objects(), 0);
    }

    #[test]
    fn exclusive_blocks_shared_until_release() {
        let lm = lm();
        lm.acquire(txn(1), O1, LockMode::Exclusive).unwrap();
        let lm2 = Arc::clone(&lm);
        let h = thread::spawn(move || lm2.acquire(txn(2), O1, LockMode::Shared));
        thread::sleep(Duration::from_millis(50));
        assert!(!h.is_finished(), "S request should be blocked by X");
        lm.release_all(txn(1));
        h.join().unwrap().unwrap();
    }

    #[test]
    fn display_locks_never_block_and_never_block_others() {
        let lm = lm();
        // X held: display still granted instantly.
        lm.acquire(txn(1), O1, LockMode::Exclusive).unwrap();
        lm.acquire(client(10), O1, LockMode::Display).unwrap();
        lm.acquire(client(11), O1, LockMode::Display).unwrap();
        // Display held: X by another txn still granted instantly.
        lm.acquire(client(10), O2, LockMode::Display).unwrap();
        lm.acquire(txn(2), O2, LockMode::Exclusive).unwrap();
        assert_eq!(lm.stats().display_grants.get(), 3);
        assert_eq!(
            {
                let mut v = lm.display_holders(O1);
                v.sort();
                v
            },
            vec![ClientId::new(10), ClientId::new(11)]
        );
    }

    #[test]
    fn display_lock_is_idempotent_per_client() {
        let lm = lm();
        lm.acquire(client(1), O1, LockMode::Display).unwrap();
        lm.acquire(client(1), O1, LockMode::Display).unwrap();
        assert_eq!(lm.display_holders(O1).len(), 1);
    }

    #[test]
    fn display_locks_survive_transaction_release() {
        let lm = lm();
        lm.acquire(client(1), O1, LockMode::Display).unwrap();
        lm.acquire(txn(1), O1, LockMode::Exclusive).unwrap();
        lm.release_all(txn(1));
        assert_eq!(lm.display_holders(O1), vec![ClientId::new(1)]);
        lm.release_all(client(1));
        assert!(lm.display_holders(O1).is_empty());
        assert_eq!(lm.locked_objects(), 0);
    }

    #[test]
    fn reentrant_and_covered_requests() {
        let lm = lm();
        lm.acquire(txn(1), O1, LockMode::Exclusive).unwrap();
        lm.acquire(txn(1), O1, LockMode::Shared).unwrap(); // covered
        lm.acquire(txn(1), O1, LockMode::Exclusive).unwrap(); // re-entrant
        assert_eq!(lm.held_mode(txn(1), O1), Some(LockMode::Exclusive));
    }

    #[test]
    fn upgrade_s_to_x_waits_for_other_readers() {
        let lm = lm();
        lm.acquire(txn(1), O1, LockMode::Shared).unwrap();
        lm.acquire(txn(2), O1, LockMode::Shared).unwrap();
        let lm2 = Arc::clone(&lm);
        let h = thread::spawn(move || lm2.acquire(txn(1), O1, LockMode::Exclusive));
        thread::sleep(Duration::from_millis(50));
        assert!(!h.is_finished());
        lm.release_all(txn(2));
        h.join().unwrap().unwrap();
        assert_eq!(lm.held_mode(txn(1), O1), Some(LockMode::Exclusive));
        assert!(lm.stats().upgrades.get() >= 1);
    }

    #[test]
    fn update_mode_prevents_second_update() {
        let lm = lm();
        lm.acquire(txn(1), O1, LockMode::Update).unwrap();
        let lm2 = Arc::clone(&lm);
        let h = thread::spawn(move || lm2.acquire(txn(2), O1, LockMode::Update));
        thread::sleep(Duration::from_millis(50));
        assert!(!h.is_finished(), "U-U must conflict");
        lm.release_all(txn(1));
        h.join().unwrap().unwrap();
    }

    #[test]
    fn fifo_fairness_no_reader_overtake() {
        // t1 holds X; t2 queues S; t3's S must not be granted before t2.
        let lm = lm();
        lm.acquire(txn(1), O1, LockMode::Exclusive).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let lm2 = Arc::clone(&lm);
        let ord2 = Arc::clone(&order);
        let h2 = thread::spawn(move || {
            lm2.acquire(txn(2), O1, LockMode::Exclusive).unwrap();
            ord2.lock().push(2);
            thread::sleep(Duration::from_millis(20));
            lm2.release_all(txn(2));
        });
        thread::sleep(Duration::from_millis(30));
        let lm3 = Arc::clone(&lm);
        let ord3 = Arc::clone(&order);
        let h3 = thread::spawn(move || {
            lm3.acquire(txn(3), O1, LockMode::Shared).unwrap();
            ord3.lock().push(3);
            lm3.release_all(txn(3));
        });
        thread::sleep(Duration::from_millis(30));
        lm.release_all(txn(1));
        h2.join().unwrap();
        h3.join().unwrap();
        assert_eq!(*order.lock(), vec![2, 3], "FIFO order violated");
    }

    #[test]
    fn timeout_expires() {
        let lm = Arc::new(LockManager::new(LockManagerConfig {
            wait_timeout: Duration::from_millis(50),
        }));
        lm.acquire(txn(1), O1, LockMode::Exclusive).unwrap();
        let err = lm.acquire(txn(2), O1, LockMode::Shared).unwrap_err();
        assert!(matches!(err, DbError::LockTimeout { .. }));
        assert_eq!(lm.stats().timeouts.get(), 1);
        // The lock table must be clean: release and re-grant works.
        lm.release_all(txn(1));
        lm.acquire(txn(2), O1, LockMode::Shared).unwrap();
    }

    #[test]
    fn deadlock_detected_and_victim_aborted() {
        let lm = lm();
        lm.acquire(txn(1), O1, LockMode::Exclusive).unwrap();
        lm.acquire(txn(2), O2, LockMode::Exclusive).unwrap();
        let lm2 = Arc::clone(&lm);
        let h = thread::spawn(move || {
            // t1 waits for O2 (held by t2).
            lm2.acquire(txn(1), O2, LockMode::Exclusive)
        });
        thread::sleep(Duration::from_millis(50));
        // t2 waits for O1 (held by t1): cycle. Youngest (t2) is victim.
        let r2 = lm.acquire(txn(2), O1, LockMode::Exclusive);
        assert!(matches!(r2, Err(DbError::Deadlock { .. })));
        assert_eq!(lm.stats().deadlocks.get(), 1);
        // t2 aborts: release its locks; t1 proceeds.
        lm.release_all(txn(2));
        h.join().unwrap().unwrap();
    }

    #[test]
    fn deadlock_victim_is_youngest_waiter() {
        let lm = lm();
        lm.acquire(txn(5), O1, LockMode::Exclusive).unwrap();
        lm.acquire(txn(9), O2, LockMode::Exclusive).unwrap();
        let lm2 = Arc::clone(&lm);
        let h = thread::spawn(move || lm2.acquire(txn(5), O2, LockMode::Exclusive));
        thread::sleep(Duration::from_millis(50));
        // Cycle {5, 9}: youngest is 9 — the requester itself.
        let r = lm.acquire(txn(9), O1, LockMode::Exclusive);
        match r {
            Err(DbError::Deadlock { victim }) => assert_eq!(victim, TxnId::new(9)),
            other => panic!("expected deadlock, got {other:?}"),
        }
        lm.release_all(txn(9));
        h.join().unwrap().unwrap();
    }

    #[test]
    fn concurrent_stress_no_lost_grants() {
        let lm = Arc::new(LockManager::new(LockManagerConfig {
            wait_timeout: Duration::from_secs(5),
        }));
        let successes = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let lm = Arc::clone(&lm);
            let successes = Arc::clone(&successes);
            handles.push(thread::spawn(move || {
                for i in 0..50u64 {
                    let owner = txn(t * 1000 + i + 1);
                    let oid = Oid::new(i % 5);
                    // Lock objects in consistent (ascending) order, so no
                    // deadlock is possible; every acquire must succeed.
                    lm.acquire(owner, oid, LockMode::Exclusive).unwrap();
                    successes.fetch_add(1, Ordering::Relaxed);
                    lm.release_all(owner);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(successes.load(Ordering::Relaxed), 400);
        assert_eq!(lm.locked_objects(), 0);
    }

    #[test]
    fn display_holders_empty_when_none() {
        let lm = lm();
        assert!(lm.display_holders(O1).is_empty());
        lm.acquire(txn(1), O1, LockMode::Shared).unwrap();
        assert!(lm.display_holders(O1).is_empty());
    }
}
