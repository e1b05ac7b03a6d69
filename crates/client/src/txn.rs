//! Client-side transactions.
//!
//! A [`ClientTxn`] is the transaction's workspace: `create`, `write` and
//! `delete` fill an overlay here, checked against the client's catalog,
//! and `commit` ships the write set in one request — the server locks,
//! applies and notifies before it answers, or does none of it. Without
//! explicit locks an update of a cached object ships as a patch of the
//! cached copy; a stale copy costs one refused request and a full-state
//! resend, never a different outcome. A schema
//! error surfaces at the call that made it; a lock conflict or a delete
//! of a missing object at `commit`. Only an explicit `lock_*` talks to the
//! server earlier: it starts the server-side transaction, holds the lock
//! until commit or abort, and (exclusive) marks the object at other
//! displays — the early-notify protocol. After a successful commit the
//! local database cache is refreshed with the written states, and — in
//! the agent deployment — the client reports the update set (and,
//! earlier, its write intents) to the DLM itself, as the paper's clients
//! did.

use crate::client::DbClient;
use displaydb_common::{DbError, DbResult, Oid, TraceId, TxnId};
use displaydb_dlm::{DlmRequest, UpdateInfo};
use displaydb_schema::DbObject;
use displaydb_server::proto::{Request, Response, WireLockMode, WriteForm};
use displaydb_wire::Encode;
use std::collections::BTreeMap;
use std::sync::Arc;

/// An open transaction. Dropping it without committing discards its
/// writes and, if it took locks, aborts it at the server (best-effort).
pub struct ClientTxn {
    client: Arc<DbClient>,
    /// The server-side transaction, from the explicit lock that started
    /// one until it committed or aborted.
    id: Option<TxnId>,
    /// This transaction's writes, one per object (`None` = deleted), in
    /// the ascending OID order the commit ships and locks them in.
    local: BTreeMap<Oid, Option<DbObject>>,
    /// Objects created here: until the commit nobody else knows of them.
    created: Vec<Oid>,
    /// Objects exclusively locked, in acquisition order (for DLM intent
    /// reporting in the agent deployment).
    x_locked: Vec<Oid>,
}

impl ClientTxn {
    pub(crate) fn new(client: Arc<DbClient>) -> Self {
        Self {
            client,
            id: None,
            local: BTreeMap::new(),
            created: Vec::new(),
            x_locked: Vec::new(),
        }
    }

    /// The server-side transaction id; `None` until an explicit lock
    /// starts one (a transaction that only writes never has one).
    pub fn id(&self) -> Option<TxnId> {
        self.id
    }

    /// Read within the transaction: own writes first, then the client
    /// caches, then a server read that is re-entrant with this
    /// transaction's locks.
    pub fn read(&self, oid: Oid) -> DbResult<DbObject> {
        if let Some(view) = self.local.get(&oid) {
            return view.clone().ok_or(DbError::ObjectNotFound(oid));
        }
        self.client.read_as(self.id, oid)
    }

    /// Take a lock now and hold it to the end of the transaction. An
    /// object created here needs none: nobody else can know its OID.
    fn lock(&mut self, oid: Oid, mode: WireLockMode) -> DbResult<()> {
        if self.created.contains(&oid) {
            return Ok(());
        }
        let request = Request::Lock {
            txn: self.id,
            oid,
            mode,
        };
        let txn = match self.client.conn().call(request)? {
            Response::TxnStarted { txn } => txn,
            other => return Err(DbError::Protocol(format!("unexpected {other:?}"))),
        };
        self.id = Some(txn);
        // Agent deployment: the client itself reports write intents so
        // the DLM can run the early-notify protocol (§ 3.3).
        if mode == WireLockMode::Exclusive && !self.x_locked.contains(&oid) {
            self.x_locked.push(oid);
            if self.client.reports_to_dlm() {
                self.client.dlc().backend().send(DlmRequest::WriteIntent {
                    oids: vec![oid],
                    txn,
                })?;
            }
        }
        Ok(())
    }

    /// Acquire an update-intention lock (deters write-write conflicts
    /// without blocking readers).
    pub fn lock_update(&mut self, oid: Oid) -> DbResult<()> {
        self.lock(oid, WireLockMode::Update)
    }

    /// Acquire an exclusive lock ahead of the commit (which X-locks every
    /// write anyway, for the length of its own request): other displays
    /// mark the object until this transaction ends.
    pub fn lock_exclusive(&mut self, oid: Oid) -> DbResult<()> {
        self.lock(oid, WireLockMode::Exclusive)
    }

    /// Create a new persistent object; returns it with its assigned OID
    /// (all the server does here — the object reaches it with the commit).
    pub fn create(&mut self, mut obj: DbObject) -> DbResult<DbObject> {
        obj.validate(self.client.catalog())?;
        match self.client.conn().call(Request::Create)? {
            Response::Created { oid } => {
                obj.oid = oid;
                self.created.push(oid);
                self.local.insert(oid, Some(obj.clone()));
                Ok(obj)
            }
            other => Err(DbError::Protocol(format!("unexpected {other:?}"))),
        }
    }

    /// Write an object's full state (X-locked when the commit applies it).
    pub fn write(&mut self, obj: DbObject) -> DbResult<()> {
        if obj.oid.raw() == 0 {
            return Err(DbError::InvalidArgument(
                "object has no oid; use create()".into(),
            ));
        }
        obj.validate(self.client.catalog())?;
        self.local.insert(obj.oid, Some(obj));
        Ok(())
    }

    /// Read-modify-write helper: applies `f` to the current state and
    /// writes the result.
    pub fn update(
        &mut self,
        oid: Oid,
        f: impl FnOnce(&mut DbObject) -> DbResult<()>,
    ) -> DbResult<()> {
        let mut obj = self.read(oid)?;
        f(&mut obj)?;
        self.write(obj)
    }

    /// Delete an object (X-locked when the commit applies it; an object
    /// that does not exist by then fails the commit).
    pub fn delete(&mut self, oid: Oid) -> DbResult<()> {
        if let Some(at) = self.created.iter().position(|&c| c == oid) {
            // Created here and never shipped: the server has nothing to
            // delete.
            self.created.swap_remove(at);
            self.local.remove(&oid);
        } else {
            self.local.insert(oid, None);
        }
        Ok(())
    }

    /// Commit: one request carries the write set. On success the client
    /// cache reflects the written states and (agent deployment) the DLM
    /// is informed of the update set — an error from that report leaves
    /// the commit standing. When the server refuses, nothing was applied
    /// and it holds nothing for this transaction any more — after a
    /// `StaleBase` refusal of its patches, the write set goes once more
    /// with full states. When the outcome is unknown (`Disconnected`,
    /// `Timeout`), the write set leaves the local cache.
    pub fn commit(mut self) -> DbResult<()> {
        // Mint a trace id at the committing client (0 when tracing is
        // off): the server stamps the notification fan-out with it, and
        // in the agent deployment the client's own commit report carries
        // it to the DLM agent.
        let trace = displaydb_common::trace::next_trace_id();
        let patches = self.id.is_none();
        let fill = self.client.cache().fill();
        let sent = match self.send_commit(patches, trace) {
            Err(DbError::StaleBase { .. }) if patches => self.send_commit(false, trace),
            result => result,
        };
        if let Err(e) = sent {
            if matches!(e, DbError::Disconnected | DbError::Timeout(_)) {
                // The commit may have applied, and it calls back no copy
                // of its own client's: were the copies kept, a resume
                // could prove them current (DESIGN.md § 14).
                let written: Vec<Oid> = self.local.keys().copied().collect();
                self.client.cache().invalidate(&written);
            }
            return Err(e);
        }
        // The server-side transaction ended with it: `Drop` aborts nothing.
        let txn = self.id.take();
        // Refresh the local cache with the now-committed states, which
        // the server registered as this client's copies.
        for (oid, view) in &self.local {
            match view {
                Some(obj) => fill.insert(obj.clone()),
                None => self.client.cache().invalidate(&[*oid]),
            }
        }
        drop(fill);
        if self.client.reports_to_dlm() {
            self.report_resolution(txn, true)?;
            let updates: Vec<UpdateInfo> = self
                .local
                .iter()
                .map(|(oid, view)| match view {
                    Some(obj) => UpdateInfo::eager(*oid, obj.encode_to_bytes().to_vec()),
                    None => UpdateInfo::deletion(*oid),
                })
                .map(|u| u.with_trace(trace))
                .collect();
            if !updates.is_empty() {
                self.client
                    .dlc()
                    .backend()
                    .send(DlmRequest::UpdateCommitted { updates })?;
            }
        }
        Ok(())
    }

    /// Send the write set as one `Commit`; with `patches`, an update of a
    /// cached object travels as its changes since the cached copy.
    fn send_commit(&self, patches: bool, trace: TraceId) -> DbResult<Response> {
        let cache = self.client.cache();
        let writes = self
            .local
            .iter()
            .map(|(oid, view)| {
                let form = match view {
                    None => WriteForm::Delete,
                    Some(obj) => cache
                        .peek(*oid, |base| {
                            (patches && base.class == obj.class).then(|| WriteForm::Patch {
                                base: base.fingerprint(),
                                changed: obj.changes_since(base),
                            })
                        })
                        .flatten()
                        .unwrap_or_else(|| WriteForm::Put(obj.encode_to_bytes().to_vec())),
                };
                (*oid, form)
            })
            .collect();
        self.client.conn().call(Request::Commit {
            txn: self.id,
            writes,
            trace,
        })
    }

    /// Agent deployment: tell the DLM how this transaction's write
    /// intents resolved.
    fn report_resolution(&self, txn: Option<TxnId>, committed: bool) -> DbResult<()> {
        match txn {
            Some(txn) if !self.x_locked.is_empty() => {
                self.client.dlc().backend().send(DlmRequest::Resolution {
                    oids: self.x_locked.clone(),
                    txn,
                    committed,
                })
            }
            _ => Ok(()),
        }
    }

    /// Abort, discarding all writes.
    pub fn abort(mut self) -> DbResult<()> {
        self.abort_inner()
    }

    fn abort_inner(&mut self) -> DbResult<()> {
        // Never locked, or already over: the server knows of nothing.
        let Some(txn) = self.id.take() else {
            return Ok(());
        };
        self.client.conn().call(Request::Abort { txn })?;
        if self.client.reports_to_dlm() {
            self.report_resolution(Some(txn), false)?;
        }
        Ok(())
    }
}

impl Drop for ClientTxn {
    fn drop(&mut self) {
        let _ = self.abort_inner();
    }
}

impl std::fmt::Debug for ClientTxn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientTxn")
            .field("id", &self.id)
            .field("writes", &self.local.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientConfig;
    use displaydb_lockmgr::LockManagerConfig;
    use displaydb_schema::class::ClassBuilder;
    use displaydb_schema::{AttrType, Catalog, Value};
    use displaydb_server::{Server, ServerConfig};
    use displaydb_wire::LocalHub;
    use std::path::PathBuf;
    use std::time::Duration;

    fn catalog() -> Arc<Catalog> {
        let mut c = Catalog::new();
        c.define(
            ClassBuilder::new("Link")
                .attr("Name", AttrType::Str)
                .attr("Utilization", AttrType::Float),
        )
        .unwrap();
        Arc::new(c)
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("displaydb-client-tests")
            .join(format!("{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn setup(name: &str) -> (Server, LocalHub, Arc<Catalog>) {
        let cat = catalog();
        let hub = LocalHub::new();
        let server =
            Server::spawn_local(Arc::clone(&cat), ServerConfig::new(tmp(name)), &hub).unwrap();
        (server, hub, cat)
    }

    fn client(hub: &LocalHub, name: &str) -> Arc<DbClient> {
        DbClient::connect(Box::new(hub.connect().unwrap()), ClientConfig::named(name)).unwrap()
    }

    #[test]
    fn create_commit_read_through_cache() {
        let (_server, hub, cat) = setup("txn-basic");
        let c = client(&hub, "c1");
        let mut txn = c.begin().unwrap();
        let obj = txn
            .create(
                c.new_object("Link")
                    .unwrap()
                    .with(&cat, "Name", "uplink")
                    .unwrap(),
            )
            .unwrap();
        let oid = obj.oid;
        // Transaction sees its own write.
        assert_eq!(
            txn.read(oid).unwrap().get(&cat, "Name").unwrap(),
            &Value::Str("uplink".into())
        );
        txn.commit().unwrap();
        // Cache was primed by the commit: this read is a cache hit.
        let sent_before = c.conn().stats().sent.get();
        let back = c.read(oid).unwrap();
        assert_eq!(back.get(&cat, "Name").unwrap().as_str().unwrap(), "uplink");
        assert_eq!(
            c.conn().stats().sent.get(),
            sent_before,
            "read hit the network"
        );
    }

    #[test]
    fn cached_read_avoids_server_after_first_fetch() {
        let (_server, hub, cat) = setup("txn-cache");
        let c1 = client(&hub, "writer");
        let c2 = client(&hub, "reader");
        let mut txn = c1.begin().unwrap();
        let obj = txn.create(c1.new_object("Link").unwrap()).unwrap();
        txn.commit().unwrap();
        let _ = &cat;

        // First read: network. Second: cache.
        c2.read(obj.oid).unwrap();
        let sent = c2.conn().stats().sent.get();
        c2.read(obj.oid).unwrap();
        c2.read(obj.oid).unwrap();
        assert_eq!(c2.conn().stats().sent.get(), sent);
        assert_eq!(c2.cache().stats().hits, 2);
    }

    #[test]
    fn callback_invalidates_reader_cache_on_update() {
        let (_server, hub, cat) = setup("txn-callback");
        let c1 = client(&hub, "writer");
        let c2 = client(&hub, "reader");

        let mut txn = c1.begin().unwrap();
        let obj = txn.create(c1.new_object("Link").unwrap()).unwrap();
        let oid = obj.oid;
        txn.commit().unwrap();

        // Reader caches the object.
        c2.read(oid).unwrap();
        assert!(c2.cache().contains(oid));

        // Writer updates it; the synchronous callback protocol guarantees
        // the reader's copy is gone by the time commit returns.
        let mut txn = c1.begin().unwrap();
        txn.update(oid, |o| o.set(&cat, "Utilization", 0.9))
            .unwrap();
        txn.commit().unwrap();

        assert!(
            !c2.cache().contains(oid),
            "reader cache still holds the stale object"
        );
        // Reader's next read re-fetches the new state.
        let fresh = c2.read(oid).unwrap();
        assert_eq!(
            fresh.get(&cat, "Utilization").unwrap().as_float().unwrap(),
            0.9
        );
    }

    #[test]
    fn abort_discards_writes() {
        let (_server, hub, cat) = setup("txn-abort");
        let c = client(&hub, "c1");
        let mut txn = c.begin().unwrap();
        let obj = txn.create(c.new_object("Link").unwrap()).unwrap();
        let oid = obj.oid;
        txn.abort().unwrap();
        assert!(matches!(
            c.read_fresh(oid),
            Err(DbError::Rejected(_)) | Err(DbError::ObjectNotFound(_))
        ));
        let _ = &cat;
    }

    #[test]
    fn drop_aborts_uncommitted() {
        let (server, hub, _cat) = setup("txn-drop");
        let c = client(&hub, "c1");
        let mut txn = c.begin().unwrap();
        let obj = txn.create(c.new_object("Link").unwrap()).unwrap();
        txn.commit().unwrap();
        {
            let mut txn = c.begin().unwrap();
            let _ = txn.create(c.new_object("Link").unwrap()).unwrap();
            txn.lock_exclusive(obj.oid).unwrap();
            assert_eq!(server.core().active_txns(), 1);
            // dropped here
        }
        // Server state: the one committed object, no lock, no active
        // txn (the abort is an RPC: done when drop returns).
        assert_eq!(server.core().store().object_count(), 1);
        assert_eq!(server.core().locks().locked_objects(), 0);
        assert_eq!(server.core().active_txns(), 0);
    }

    /// The count the one-request commit is about: frames sent.
    #[test]
    fn a_transaction_costs_one_request_and_a_dropped_one_none() {
        let (server, hub, cat) = setup("txn-frames");
        let c = client(&hub, "c1");
        let mut txn = c.begin().unwrap();
        let obj = txn.create(c.new_object("Link").unwrap()).unwrap();
        txn.commit().unwrap();
        assert!(c.cache().contains(obj.oid));
        let sent = || c.conn().stats().sent.get();

        let before = sent();
        let mut txn = c.begin().unwrap();
        assert_eq!(txn.id(), None);
        // Two writes to one object are one entry of the write set: the
        // second reads the first, and the last one is what commits.
        for value in [0.4, 0.5] {
            txn.update(obj.oid, |o| o.set(&cat, "Utilization", value))
                .unwrap();
        }
        let mine = txn.read(obj.oid).unwrap();
        assert_eq!(mine.get(&cat, "Utilization").unwrap(), &Value::Float(0.5));
        txn.commit().unwrap();
        assert_eq!(sent(), before + 1, "begin + updates + commit");
        assert_eq!(server.core().stats().commits.get(), 2);

        let before = sent();
        let mut txn = c.begin().unwrap();
        txn.write(obj.clone()).unwrap();
        txn.delete(obj.oid).unwrap();
        drop(txn);
        let txn = c.begin().unwrap();
        txn.abort().unwrap();
        assert_eq!(sent(), before, "a transaction that never locked is local");
        assert_eq!(
            c.read_fresh(obj.oid)
                .unwrap()
                .get(&cat, "Utilization")
                .unwrap()
                .as_float()
                .unwrap(),
            0.5
        );
    }

    #[test]
    fn schema_errors_surface_at_the_write_and_the_rest_at_commit() {
        let (server, hub, cat) = setup("txn-errors");
        let c = client(&hub, "c1");
        let sent = || c.conn().stats().sent.get();
        let before = sent();
        let mut txn = c.begin().unwrap();
        let mut bad = c.new_object("Link").unwrap();
        bad.values.pop();
        assert!(matches!(
            txn.create(bad.clone()),
            Err(DbError::SchemaViolation(_))
        ));
        bad.oid = Oid::new(1);
        assert!(matches!(txn.write(bad), Err(DbError::SchemaViolation(_))));
        assert!(matches!(
            txn.write(c.new_object("Link").unwrap()),
            Err(DbError::InvalidArgument(_))
        ));
        assert_eq!(sent(), before, "refused before anything was sent");

        // An object created here is the transaction's own: locking it
        // needs no server, deleting it again leaves nothing to commit.
        let kept = txn.create(c.new_object("Link").unwrap()).unwrap();
        let dropped = txn.create(c.new_object("Link").unwrap()).unwrap();
        let before = sent();
        txn.lock_exclusive(kept.oid).unwrap();
        txn.lock_update(dropped.oid).unwrap();
        txn.delete(dropped.oid).unwrap();
        assert_eq!((sent(), txn.id()), (before, None));
        assert!(txn.read(dropped.oid).is_err());
        txn.commit().unwrap();
        assert_eq!(server.core().store().object_count(), 1);

        // A delete of something that is not there, and a write under an
        // OID the server never issued, are the server's to refuse: the
        // whole commit fails and nothing of it is applied.
        for forged in [false, true] {
            let mut txn = c.begin().unwrap();
            txn.update(kept.oid, |o| o.set(&cat, "Name", "changed"))
                .unwrap();
            if forged {
                let mut ghost = c.new_object("Link").unwrap();
                ghost.oid = Oid::new(kept.oid.raw() + 5000);
                txn.write(ghost).unwrap();
            } else {
                txn.delete(dropped.oid).unwrap();
            }
            assert!(matches!(txn.commit(), Err(DbError::Rejected(_))));
        }
        assert_eq!(server.core().store().object_count(), 1);
        assert_eq!(server.core().locks().locked_objects(), 0);
        let back = c.read_fresh(kept.oid).unwrap();
        assert_eq!(back.get(&cat, "Name").unwrap().as_str().unwrap(), "");
    }

    #[test]
    fn update_helper_roundtrips() {
        let (_server, hub, cat) = setup("txn-update");
        let c = client(&hub, "c1");
        let mut txn = c.begin().unwrap();
        let obj = txn.create(c.new_object("Link").unwrap()).unwrap();
        txn.commit().unwrap();

        let mut txn = c.begin().unwrap();
        txn.update(obj.oid, |o| o.set(&cat, "Utilization", 0.42))
            .unwrap();
        txn.commit().unwrap();
        assert_eq!(
            c.read_fresh(obj.oid)
                .unwrap()
                .get(&cat, "Utilization")
                .unwrap()
                .as_float()
                .unwrap(),
            0.42
        );
    }

    #[test]
    fn delete_in_txn() {
        let (_server, hub, _cat) = setup("txn-delete");
        let c = client(&hub, "c1");
        let mut txn = c.begin().unwrap();
        let obj = txn.create(c.new_object("Link").unwrap()).unwrap();
        txn.commit().unwrap();

        let mut txn = c.begin().unwrap();
        txn.delete(obj.oid).unwrap();
        // Within the txn the object is gone.
        assert!(txn.read(obj.oid).is_err());
        txn.commit().unwrap();
        assert!(!c.cache().contains(obj.oid));
        assert!(c.read(obj.oid).is_err());
    }

    #[test]
    fn txn_read_is_reentrant_with_own_exclusive_lock() {
        // Regression: a transaction that X-locks an object and then reads
        // it with a cold cache must not block behind its own lock.
        let cat = catalog();
        let hub = LocalHub::new();
        let mut config = ServerConfig::new(tmp("txn-reentrant-read"));
        config.lock = LockManagerConfig {
            wait_timeout: Duration::from_millis(300),
        };
        let _server = Server::spawn_local(Arc::clone(&cat), config, &hub).unwrap();
        let c = client(&hub, "c1");
        let mut txn = c.begin().unwrap();
        let obj = txn.create(c.new_object("Link").unwrap()).unwrap();
        txn.commit().unwrap();

        let mut txn = c.begin().unwrap();
        txn.lock_exclusive(obj.oid).unwrap();
        c.cache().clear(); // force the read to the server
        let started = std::time::Instant::now();
        let read = txn.read(obj.oid).unwrap();
        assert_eq!(read.oid, obj.oid);
        assert!(
            started.elapsed() < Duration::from_millis(200),
            "read self-blocked behind own X lock"
        );
        txn.commit().unwrap();
    }

    #[test]
    fn write_conflicts_respect_locks() {
        let cat = catalog();
        let hub = LocalHub::new();
        let mut config = ServerConfig::new(tmp("txn-conflict"));
        config.lock = LockManagerConfig {
            wait_timeout: Duration::from_millis(300),
        };
        let _server = Server::spawn_local(Arc::clone(&cat), config, &hub).unwrap();
        let c1 = client(&hub, "c1");
        let c2 = client(&hub, "c2");

        let mut txn = c1.begin().unwrap();
        let obj = txn.create(c1.new_object("Link").unwrap()).unwrap();
        txn.commit().unwrap();

        let mut t1 = c1.begin().unwrap();
        t1.lock_exclusive(obj.oid).unwrap();
        let mut t2 = c2.begin().unwrap();
        // t2's write must time out while t1 holds X.
        let err = t2.lock_exclusive(obj.oid).unwrap_err();
        assert!(err.is_retryable(), "{err:?}");
        t1.commit().unwrap();
        // After t1 commits, t2 can retry on a fresh txn.
        let mut t3 = c2.begin().unwrap();
        t3.lock_exclusive(obj.oid).unwrap();
        t3.commit().unwrap();
    }

    #[test]
    fn a_commit_that_meets_a_held_lock_is_retryable() {
        let cat = catalog();
        let hub = LocalHub::new();
        let mut config = ServerConfig::new(tmp("txn-commit-conflict"));
        config.lock.wait_timeout = Duration::from_millis(300);
        let server = Server::spawn_local(Arc::clone(&cat), config, &hub).unwrap();
        let c1 = client(&hub, "c1");
        let c2 = client(&hub, "c2");
        let mut txn = c1.begin().unwrap();
        let obj = txn.create(c1.new_object("Link").unwrap()).unwrap();
        txn.commit().unwrap();

        let mut t1 = c1.begin().unwrap();
        t1.lock_exclusive(obj.oid).unwrap();
        let attempt = || {
            let mut t2 = c2.begin()?;
            t2.update(obj.oid, |o| o.set(&cat, "Utilization", 0.7))?;
            t2.commit()
        };
        // The commit's own lock wait times out against t1's lock.
        let err = attempt().unwrap_err();
        assert!(err.is_retryable(), "{err:?}");
        assert_eq!(server.core().locks().locked_objects(), 1, "t1's only");
        t1.commit().unwrap();
        attempt().unwrap();
        let read = c1.read_fresh(obj.oid).unwrap();
        assert_eq!(
            read.get(&cat, "Utilization").unwrap().as_float().unwrap(),
            0.7
        );
    }

    /// Commits lock their write sets in ascending OID order whatever order
    /// the writes were made in, so two of them over the same objects
    /// queue; they cannot deadlock.
    #[test]
    fn opposite_order_commits_never_deadlock() {
        let (server, hub, cat) = setup("txn-order");
        let c1 = client(&hub, "c1");
        let c2 = client(&hub, "c2");
        let mut txn = c1.begin().unwrap();
        let a = txn.create(c1.new_object("Link").unwrap()).unwrap().oid;
        let b = txn.create(c1.new_object("Link").unwrap()).unwrap().oid;
        txn.commit().unwrap();

        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for (c, order, value) in [(&c1, [a, b], 0.25), (&c2, [b, a], 0.75)] {
                let (start, cat) = (&start, &cat);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..200 {
                        let mut txn = c.begin().unwrap();
                        for oid in order {
                            txn.update(oid, |o| o.set(cat, "Utilization", value))
                                .unwrap();
                        }
                        txn.commit().unwrap();
                    }
                });
            }
        });
        assert_eq!(server.core().locks().stats().deadlocks.get(), 0);
        assert_eq!(server.core().stats().commits.get(), 401);
        // Both objects carry the same committer's value: each write set
        // went in whole.
        let value = |oid| {
            let obj = c1.read_fresh(oid).unwrap();
            obj.get(&cat, "Utilization").unwrap().as_float().unwrap()
        };
        assert_eq!(value(a), value(b));
    }
}
