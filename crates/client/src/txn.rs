//! Client-side transactions.
//!
//! Writes are shipped to the server's transaction workspace as they
//! happen (so locks are acquired at write time — enabling grant-time
//! callbacks and early-notify marks); commit makes them durable. After a
//! successful commit the local database cache is refreshed with the
//! written states, and — in the agent deployment — the client reports the
//! update set (and, earlier, its write intents) to the DLM itself, as the
//! paper's clients did.

use crate::client::DbClient;
use displaydb_common::{DbError, DbResult, Oid, TxnId};
use displaydb_dlm::{DlmRequest, UpdateInfo};
use displaydb_schema::DbObject;
use displaydb_server::proto::{Request, Response, WireLockMode};
use displaydb_wire::Encode;
use std::collections::HashMap;
use std::sync::Arc;

/// An open transaction. Dropping it without committing aborts it
/// (best-effort).
pub struct ClientTxn {
    client: Arc<DbClient>,
    id: TxnId,
    finished: bool,
    /// Local view of this transaction's writes (`None` = deleted).
    local: HashMap<Oid, Option<DbObject>>,
    /// Objects exclusively locked, in acquisition order (for DLM intent
    /// reporting in the agent deployment).
    x_locked: Vec<Oid>,
}

impl ClientTxn {
    pub(crate) fn new(client: Arc<DbClient>, id: TxnId) -> Self {
        Self {
            client,
            id,
            finished: false,
            local: HashMap::new(),
            x_locked: Vec::new(),
        }
    }

    /// The transaction id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Read within the transaction: own writes first, then the client
    /// cache, then a server read that is re-entrant with this
    /// transaction's locks.
    pub fn read(&self, oid: Oid) -> DbResult<DbObject> {
        if let Some(view) = self.local.get(&oid) {
            return view.clone().ok_or(DbError::ObjectNotFound(oid));
        }
        self.client.read_in_txn(self.id, oid)
    }

    /// Acquire an update-intention lock (deters write-write conflicts
    /// without blocking readers).
    pub fn lock_update(&mut self, oid: Oid) -> DbResult<()> {
        self.client
            .conn()
            .call(Request::Lock {
                txn: self.id,
                oid,
                mode: WireLockMode::Update,
            })
            .map(|_| ())
    }

    /// Acquire an exclusive lock explicitly (writes do this implicitly).
    pub fn lock_exclusive(&mut self, oid: Oid) -> DbResult<()> {
        self.client.conn().call(Request::Lock {
            txn: self.id,
            oid,
            mode: WireLockMode::Exclusive,
        })?;
        self.note_x_lock(oid)?;
        Ok(())
    }

    fn note_x_lock(&mut self, oid: Oid) -> DbResult<()> {
        if !self.x_locked.contains(&oid) {
            self.x_locked.push(oid);
            // Agent deployment: the client itself reports write intents so
            // the DLM can run the early-notify protocol (§ 3.3).
            if self.client.reports_to_dlm() {
                self.client.dlc().backend().send(DlmRequest::WriteIntent {
                    oids: vec![oid],
                    txn: self.id,
                })?;
            }
        }
        Ok(())
    }

    /// Create a new persistent object; returns it with its assigned OID.
    pub fn create(&mut self, obj: DbObject) -> DbResult<DbObject> {
        match self.client.conn().call(Request::Create {
            txn: self.id,
            object: obj.encode_to_bytes().to_vec(),
        })? {
            Response::Created { oid } => {
                let mut obj = obj;
                obj.oid = oid;
                self.local.insert(oid, Some(obj.clone()));
                self.x_locked.push(oid);
                Ok(obj)
            }
            other => Err(DbError::Protocol(format!("unexpected {other:?}"))),
        }
    }

    /// Write an object's full state (implicitly X-locks it).
    pub fn write(&mut self, obj: DbObject) -> DbResult<()> {
        if obj.oid.raw() == 0 {
            return Err(DbError::InvalidArgument(
                "object has no oid; use create()".into(),
            ));
        }
        self.client.conn().call(Request::Write {
            txn: self.id,
            object: obj.encode_to_bytes().to_vec(),
        })?;
        self.note_x_lock(obj.oid)?;
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

    /// Delete an object (implicitly X-locks it).
    pub fn delete(&mut self, oid: Oid) -> DbResult<()> {
        self.client
            .conn()
            .call(Request::Delete { txn: self.id, oid })?;
        self.note_x_lock(oid)?;
        self.local.insert(oid, None);
        Ok(())
    }

    /// Commit. On success the client cache reflects the written states and
    /// (agent deployment) the DLM is informed of the update set.
    pub fn commit(mut self) -> DbResult<()> {
        // Mint a trace id at the committing client (0 when tracing is
        // off): the server stamps the notification fan-out with it, and
        // in the agent deployment the client's own commit report carries
        // it to the DLM agent.
        let trace = displaydb_common::trace::next_trace_id();
        self.client.conn().call(Request::Commit {
            txn: self.id,
            trace,
        })?;
        self.finished = true;
        // Refresh the local cache with the now-committed states.
        for (oid, view) in &self.local {
            match view {
                Some(obj) => self.client.cache_committed(obj),
                None => self.client.uncache_deleted(*oid),
            }
        }
        if self.client.reports_to_dlm() {
            self.report_resolution(true)?;
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

    /// Agent deployment: tell the DLM how this transaction's write
    /// intents resolved.
    fn report_resolution(&self, committed: bool) -> DbResult<()> {
        if self.x_locked.is_empty() {
            return Ok(());
        }
        self.client.dlc().backend().send(DlmRequest::Resolution {
            oids: self.x_locked.clone(),
            txn: self.id,
            committed,
        })
    }

    /// Abort, discarding all writes.
    pub fn abort(mut self) -> DbResult<()> {
        self.abort_inner()
    }

    fn abort_inner(&mut self) -> DbResult<()> {
        if self.finished {
            return Ok(());
        }
        self.finished = true;
        self.client.conn().call(Request::Abort { txn: self.id })?;
        if self.client.reports_to_dlm() {
            self.report_resolution(false)?;
        }
        Ok(())
    }
}

impl Drop for ClientTxn {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.abort_inner();
        }
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
        {
            let mut txn = c.begin().unwrap();
            let _ = txn.create(c.new_object("Link").unwrap()).unwrap();
            // dropped here
        }
        // Server state: no object, no active txn.
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(server.core().store().object_count(), 0);
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
            deadlock_detection: true,
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
            deadlock_detection: true,
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
}
