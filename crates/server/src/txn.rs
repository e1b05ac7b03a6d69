//! Server-side transactions.
//!
//! The server runs strict two-phase locking. A transaction's writes stay
//! with the client until its `Commit` carries them (no-steal), so what the
//! server keeps is only what outlives one request: a transaction exists
//! here from the explicit `Lock` that started it to its `Commit` or
//! `Abort`, and its state is its owner and its early-notify resolution
//! set. A commit without earlier locks takes a fresh id and never enters
//! the table.

use displaydb_common::ids::IdGen;
use displaydb_common::sync::{ranks, OrderedMutex};
use displaydb_common::{ClientId, DbError, DbResult, Oid, TxnId};
use std::collections::HashMap;

/// State of one active transaction.
#[derive(Debug, Default)]
pub struct TxnState {
    /// The owning client.
    pub client: ClientId,
    /// Objects this transaction exclusively locked (the early-notify
    /// resolution set).
    pub x_locked: Vec<Oid>,
}

/// Tracks active transactions.
#[derive(Debug)]
pub struct TxnManager {
    active: OrderedMutex<HashMap<TxnId, TxnState>>,
    txn_gen: IdGen,
}

impl Default for TxnManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TxnManager {
    /// Create an empty manager.
    pub fn new() -> Self {
        Self {
            active: OrderedMutex::new(ranks::SERVER_TXNS, HashMap::new()),
            txn_gen: IdGen::starting_at(1),
        }
    }

    /// Ensure future transaction ids exceed `floor`. With a durable DLM
    /// update log (DESIGN.md § 14), ids must be monotone **across
    /// restarts** — the startup cross-check compares the log's newest
    /// batch txn against the WAL's, which is only meaningful when one
    /// incarnation's ids never dip below a previous one's.
    pub fn bump_past(&self, floor: u64) {
        self.txn_gen.bump_to(floor + 1);
    }

    /// A fresh id for a transaction that lives for one request only.
    pub fn mint(&self) -> TxnId {
        TxnId::new(self.txn_gen.next())
    }

    /// Start a transaction for `client`.
    pub fn begin(&self, client: ClientId) -> TxnId {
        let txn = self.mint();
        self.active.lock().insert(
            txn,
            TxnState {
                client,
                ..TxnState::default()
            },
        );
        txn
    }

    /// Number of active transactions.
    pub fn active_count(&self) -> usize {
        self.active.lock().len()
    }

    /// Run `f` with the transaction's state, failing if it is not active
    /// or belongs to another client.
    pub fn with_txn<T>(
        &self,
        txn: TxnId,
        client: ClientId,
        f: impl FnOnce(&mut TxnState) -> T,
    ) -> DbResult<T> {
        let mut active = self.active.lock();
        let state = active.get_mut(&txn).ok_or(DbError::TxnNotActive(txn))?;
        if state.client != client {
            return Err(DbError::Rejected(format!(
                "{txn} belongs to {}",
                state.client
            )));
        }
        Ok(f(state))
    }

    /// Record an exclusive lock acquisition (for early-notify resolution).
    pub fn record_x_lock(&self, txn: TxnId, client: ClientId, oid: Oid) -> DbResult<()> {
        self.with_txn(txn, client, |s| {
            if !s.x_locked.contains(&oid) {
                s.x_locked.push(oid);
            }
        })
    }

    /// Remove and return the transaction's state (commit/abort).
    pub fn finish(&self, txn: TxnId, client: ClientId) -> DbResult<TxnState> {
        let mut active = self.active.lock();
        match active.get(&txn) {
            Some(s) if s.client == client => Ok(active.remove(&txn).expect("present")),
            Some(s) => Err(DbError::Rejected(format!("{txn} belongs to {}", s.client))),
            None => Err(DbError::TxnNotActive(txn)),
        }
    }

    /// All active transactions of `client` (disconnect cleanup).
    pub fn client_txns(&self, client: ClientId) -> Vec<TxnId> {
        self.active
            .lock()
            .iter()
            .filter(|(_, s)| s.client == client)
            .map(|(t, _)| *t)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_lock_finish() {
        let tm = TxnManager::new();
        let client = ClientId::new(1);
        let txn = tm.begin(client);
        tm.record_x_lock(txn, client, Oid::new(5)).unwrap();
        tm.record_x_lock(txn, client, Oid::new(5)).unwrap();
        let state = tm.finish(txn, client).unwrap();
        assert_eq!(state.x_locked, vec![Oid::new(5)]);
        assert!(matches!(
            tm.finish(txn, client),
            Err(DbError::TxnNotActive(_))
        ));
    }

    #[test]
    fn ownership_enforced() {
        let tm = TxnManager::new();
        let txn = tm.begin(ClientId::new(1));
        assert!(tm
            .record_x_lock(txn, ClientId::new(2), Oid::new(1))
            .is_err());
        assert!(tm.finish(txn, ClientId::new(2)).is_err());
        assert!(tm.finish(txn, ClientId::new(1)).is_ok());
    }

    #[test]
    fn minted_ids_are_fresh_and_never_active() {
        let tm = TxnManager::new();
        let t1 = tm.begin(ClientId::new(1));
        let one_shot = tm.mint();
        assert!(one_shot > t1 && tm.begin(ClientId::new(1)) > one_shot);
        assert!(matches!(
            tm.finish(one_shot, ClientId::new(1)),
            Err(DbError::TxnNotActive(_))
        ));
        tm.bump_past(100);
        assert!(tm.mint().raw() > 100);
    }

    #[test]
    fn client_txns_lists_only_owned() {
        let tm = TxnManager::new();
        let t1 = tm.begin(ClientId::new(1));
        let _t2 = tm.begin(ClientId::new(2));
        let t3 = tm.begin(ClientId::new(1));
        let mut mine = tm.client_txns(ClientId::new(1));
        mine.sort();
        assert_eq!(mine, vec![t1, t3]);
        assert_eq!(tm.active_count(), 3);
    }
}
