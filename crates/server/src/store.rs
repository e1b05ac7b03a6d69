//! The durable object store: heap + WAL + object directory + class
//! extents, with crash recovery.
//!
//! Objects are stored as encoded [`DbObject`] records in a heap file. An
//! in-memory directory maps OID → record address and is rebuilt on open by
//! scanning the heap; committed WAL effects after the last checkpoint are
//! then replayed on top (redo-only recovery, see
//! [`displaydb_storage::wal`]).

use displaydb_common::ids::IdGen;
use displaydb_common::sync::{ranks, OrderedRwLock};
use displaydb_common::{ClassId, DbError, DbResult, Oid, RecordId, TxnId};
use displaydb_schema::{Catalog, DbObject};
use displaydb_storage::{BufferPool, DiskManager, HeapFile, Wal, WalRecord};
use displaydb_wire::{Decode, Encode};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

/// One write in a transaction's commit set.
#[derive(Clone, Debug, PartialEq)]
pub enum WriteOp {
    /// Insert or overwrite the full object state.
    Put(DbObject),
    /// Remove the object.
    Delete(Oid),
}

impl WriteOp {
    /// The object this op touches.
    pub fn oid(&self) -> Oid {
        match self {
            WriteOp::Put(o) => o.oid,
            WriteOp::Delete(oid) => *oid,
        }
    }
}

/// The server-side persistent object store.
pub struct ObjectStore {
    catalog: Arc<Catalog>,
    heap: HeapFile,
    wal: Wal,
    directory: OrderedRwLock<HashMap<Oid, RecordId>>,
    extents: OrderedRwLock<HashMap<ClassId, HashSet<Oid>>>,
    oid_gen: IdGen,
    sync_commits: bool,
    /// Highest committed transaction id found in the WAL at open (0 =
    /// none). Snapshot of the commit stream the durable DLM update log
    /// must not trail (DESIGN.md § 14).
    recovered_last_txn: u64,
}

impl std::fmt::Debug for ObjectStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectStore")
            .field("objects", &self.directory.read().len())
            .finish()
    }
}

impl ObjectStore {
    /// Open (or create) the store in `dir`, recovering committed WAL
    /// effects. `frames` sizes the server buffer pool.
    pub fn open(
        dir: impl AsRef<Path>,
        catalog: Arc<Catalog>,
        frames: usize,
        sync_commits: bool,
    ) -> DbResult<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let disk = Arc::new(DiskManager::open(dir.join("data.db"))?);
        let pool = BufferPool::new(disk, frames);
        let heap = HeapFile::open(Arc::clone(&pool))?;
        let wal_path = dir.join("wal.log");
        let records = Wal::read_all(&wal_path)?;
        let wal = Wal::open(&wal_path)?;

        let recovered_last_txn = records
            .iter()
            .filter_map(|r| match r {
                WalRecord::Commit(t) => Some(t.raw()),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let store = Self {
            catalog,
            heap,
            wal,
            directory: OrderedRwLock::new(ranks::STORE_DIRECTORY, HashMap::new()),
            extents: OrderedRwLock::new(ranks::STORE_EXTENTS, HashMap::new()),
            oid_gen: IdGen::starting_at(1),
            sync_commits,
            recovered_last_txn,
        };

        // Rebuild the directory and extents from the heap.
        let mut max_oid = 0u64;
        {
            let mut dir_map = store.directory.write();
            let mut ext_map = store.extents.write();
            store.heap.for_each(|rid, payload| {
                if let Ok(obj) = DbObject::decode_from_bytes(payload) {
                    max_oid = max_oid.max(obj.oid.raw());
                    dir_map.insert(obj.oid, rid);
                    ext_map.entry(obj.class).or_default().insert(obj.oid);
                }
            })?;
        }

        // Replay committed WAL effects on top.
        let fx = displaydb_storage::wal::redo_effects(&records);
        max_oid = max_oid.max(fx.max_oid);
        for (oid, state) in &fx.objects {
            match state {
                Some(bytes) => {
                    let obj = DbObject::decode_from_bytes(bytes)?;
                    store.apply_put(&obj, bytes)?;
                }
                None => store.apply_delete(*oid)?,
            }
        }
        store.oid_gen.bump_to(max_oid + 1);

        // Make the replayed state durable and truncate the log.
        if !fx.objects.is_empty() {
            store.checkpoint()?;
        }
        Ok(store)
    }

    /// The schema catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// Highest committed transaction id the WAL held when the store was
    /// opened (0 = clean/empty log). Feeds the durable update log's
    /// startup cross-check (DESIGN.md § 14).
    pub fn recovered_last_txn(&self) -> u64 {
        self.recovered_last_txn
    }

    /// The buffer pool (for stats and the memory-hierarchy bench).
    pub fn pool(&self) -> &Arc<BufferPool> {
        self.heap.pool()
    }

    /// Allocate a fresh OID.
    pub fn allocate_oid(&self) -> Oid {
        Oid::new(self.oid_gen.next())
    }

    /// Whether `oid` is one the allocator has handed out (or recovered):
    /// the only OIDs an object may be stored under.
    pub fn issued(&self, oid: Oid) -> bool {
        (1..self.oid_gen.peek()).contains(&oid.raw())
    }

    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.directory.read().len()
    }

    /// Whether `oid` exists.
    pub fn exists(&self, oid: Oid) -> bool {
        self.directory.read().contains_key(&oid)
    }

    /// Read an object's encoded state.
    pub fn get_bytes(&self, oid: Oid) -> DbResult<Vec<u8>> {
        let rid = *self
            .directory
            .read()
            .get(&oid)
            .ok_or(DbError::ObjectNotFound(oid))?;
        self.heap.get(rid)
    }

    /// Read and decode an object.
    pub fn get(&self, oid: Oid) -> DbResult<DbObject> {
        DbObject::decode_from_bytes(&self.get_bytes(oid)?)
    }

    /// OIDs of all objects of `class` (optionally including subclasses).
    pub fn extent(&self, class: ClassId, include_subclasses: bool) -> Vec<Oid> {
        let extents = self.extents.read();
        let mut out: Vec<Oid> = Vec::new();
        if include_subclasses {
            for sub in self.catalog.family_of(class) {
                if let Some(set) = extents.get(&sub) {
                    out.extend(set.iter().copied());
                }
            }
        } else if let Some(set) = extents.get(&class) {
            out.extend(set.iter().copied());
        }
        out.sort_unstable();
        out
    }

    fn apply_put(&self, obj: &DbObject, bytes: &[u8]) -> DbResult<()> {
        let oid = obj.oid;
        let existing = self.directory.read().get(&oid).copied();
        let rid = match existing {
            Some(rid) => self.heap.update(rid, bytes)?,
            None => self.heap.insert(bytes)?,
        };
        self.directory.write().insert(oid, rid);
        self.extents
            .write()
            .entry(obj.class)
            .or_default()
            .insert(oid);
        Ok(())
    }

    fn apply_delete(&self, oid: Oid) -> DbResult<()> {
        let rid = self.directory.write().remove(&oid);
        if let Some(rid) = rid {
            // Class membership: find and remove from whichever extent.
            let class = self
                .heap
                .get(rid)
                .ok()
                .and_then(|b| DbObject::decode_from_bytes(&b).ok())
                .map(|o| o.class);
            self.heap.delete(rid)?;
            if let Some(class) = class {
                if let Some(set) = self.extents.write().get_mut(&class) {
                    set.remove(&oid);
                }
            } else {
                // Fallback: purge from all extents.
                for set in self.extents.write().values_mut() {
                    set.remove(&oid);
                }
            }
        }
        Ok(())
    }

    /// Durably apply a transaction's write set: WAL (force), then heap.
    /// Every put is validated against the catalog first; an invalid one
    /// fails the commit before anything is logged.
    ///
    /// Returns the encoded post-states, in write order, for the display
    /// notification fan-out (eager shipping needs the bytes).
    pub fn commit(&self, txn: TxnId, writes: &[WriteOp]) -> DbResult<Vec<(Oid, Option<Vec<u8>>)>> {
        for w in writes {
            if let WriteOp::Put(obj) = w {
                obj.validate(&self.catalog)?;
                if obj.oid.raw() == 0 {
                    return Err(DbError::InvalidArgument(
                        "cannot commit object with unassigned oid".into(),
                    ));
                }
            }
        }
        // Log phase (redo information + commit record, forced). Each
        // put is encoded once: the bytes go into the WAL record, then
        // out of it into the outcome the heap and the fan-out read.
        self.wal.append(&WalRecord::Begin(txn))?;
        let mut outcomes = Vec::with_capacity(writes.len());
        for w in writes {
            let record = match w {
                WriteOp::Put(obj) => WalRecord::Put {
                    txn,
                    oid: obj.oid,
                    bytes: obj.encode_to_bytes().to_vec(),
                },
                WriteOp::Delete(oid) => WalRecord::Delete { txn, oid: *oid },
            };
            self.wal.append(&record)?;
            outcomes.push(match record {
                WalRecord::Put { oid, bytes, .. } => (oid, Some(bytes)),
                _ => (w.oid(), None),
            });
        }
        self.wal.append(&WalRecord::Commit(txn))?;
        if self.sync_commits {
            self.wal.sync()?;
        }
        // Apply phase.
        for (w, (oid, bytes)) in writes.iter().zip(&outcomes) {
            match (w, bytes) {
                (WriteOp::Put(obj), Some(bytes)) => self.apply_put(obj, bytes)?,
                _ => self.apply_delete(*oid)?,
            }
        }
        Ok(outcomes)
    }

    /// Flush all heap pages, then truncate the WAL behind a checkpoint
    /// record.
    pub fn checkpoint(&self) -> DbResult<()> {
        self.heap.pool().flush_all()?;
        self.wal.reset()?;
        self.wal.append(&WalRecord::Checkpoint)?;
        self.wal.sync()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use displaydb_schema::class::ClassBuilder;
    use displaydb_schema::AttrType;
    use std::path::PathBuf;

    fn catalog() -> Arc<Catalog> {
        let mut c = Catalog::new();
        c.define(
            ClassBuilder::new("Node")
                .attr("Name", AttrType::Str)
                .attr_default("Status", AttrType::Str, "up"),
        )
        .unwrap();
        c.define(
            ClassBuilder::new("Router")
                .extends("Node")
                .attr("Ports", AttrType::Int),
        )
        .unwrap();
        Arc::new(c)
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("displaydb-store-tests")
            .join(format!("{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn node(cat: &Catalog, store: &ObjectStore, name: &str) -> DbObject {
        let mut o = DbObject::new_named(cat, "Node").unwrap();
        o.oid = store.allocate_oid();
        o.set(cat, "Name", name).unwrap();
        o
    }

    #[test]
    fn commit_and_read_back() {
        let cat = catalog();
        let dir = tmp("basic");
        let store = ObjectStore::open(&dir, Arc::clone(&cat), 16, false).unwrap();
        let obj = node(&cat, &store, "alpha");
        let oid = obj.oid;
        store
            .commit(TxnId::new(1), &[WriteOp::Put(obj.clone())])
            .unwrap();
        assert_eq!(store.get(oid).unwrap(), obj);
        assert_eq!(store.object_count(), 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn extent_with_subclasses() {
        let cat = catalog();
        let dir = tmp("extent");
        let store = ObjectStore::open(&dir, Arc::clone(&cat), 16, false).unwrap();
        let n = node(&cat, &store, "plain");
        let mut r = DbObject::new_named(&cat, "Router").unwrap();
        r.oid = store.allocate_oid();
        store
            .commit(
                TxnId::new(1),
                &[WriteOp::Put(n.clone()), WriteOp::Put(r.clone())],
            )
            .unwrap();
        let node_class = cat.id_of("Node").unwrap();
        assert_eq!(store.extent(node_class, false), vec![n.oid]);
        let with_subs = store.extent(node_class, true);
        assert_eq!(with_subs.len(), 2);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn recovery_replays_committed_wal() {
        let cat = catalog();
        let dir = tmp("recovery");
        let oid;
        {
            let store = ObjectStore::open(&dir, Arc::clone(&cat), 16, true).unwrap();
            let obj = node(&cat, &store, "durable");
            oid = obj.oid;
            store.commit(TxnId::new(1), &[WriteOp::Put(obj)]).unwrap();
            // Simulate a crash: drop without flushing heap pages.
        }
        let store = ObjectStore::open(&dir, Arc::clone(&cat), 16, true).unwrap();
        let back = store.get(oid).unwrap();
        assert_eq!(back.get(&cat, "Name").unwrap().as_str().unwrap(), "durable");
        // OID allocator resumed past recovered ids.
        assert!(store.allocate_oid() > oid);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn recovery_ignores_unfinished_txn() {
        let cat = catalog();
        let dir = tmp("unfinished");
        {
            let store = ObjectStore::open(&dir, Arc::clone(&cat), 16, true).unwrap();
            let obj = node(&cat, &store, "ghost");
            // A transaction the crash caught between its log records.
            let txn = TxnId::new(9);
            store.wal.append(&WalRecord::Begin(txn)).unwrap();
            let (oid, bytes) = (obj.oid, obj.encode_to_bytes().to_vec());
            store
                .wal
                .append(&WalRecord::Put { txn, oid, bytes })
                .unwrap();
            store.wal.sync().unwrap();
        }
        let store = ObjectStore::open(&dir, Arc::clone(&cat), 16, true).unwrap();
        assert_eq!(store.object_count(), 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn checkpoint_then_recovery() {
        let cat = catalog();
        let dir = tmp("checkpoint");
        let (a, b);
        {
            let store = ObjectStore::open(&dir, Arc::clone(&cat), 16, true).unwrap();
            let oa = node(&cat, &store, "before");
            a = oa.oid;
            store.commit(TxnId::new(1), &[WriteOp::Put(oa)]).unwrap();
            store.checkpoint().unwrap();
            let ob = node(&cat, &store, "after");
            b = ob.oid;
            store.commit(TxnId::new(2), &[WriteOp::Put(ob)]).unwrap();
        }
        let store = ObjectStore::open(&dir, Arc::clone(&cat), 16, true).unwrap();
        assert!(store.exists(a));
        assert!(store.exists(b));
        assert_eq!(store.object_count(), 2);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn delete_removes_from_extent_and_directory() {
        let cat = catalog();
        let dir = tmp("delete");
        let store = ObjectStore::open(&dir, Arc::clone(&cat), 16, false).unwrap();
        let obj = node(&cat, &store, "bye");
        let oid = obj.oid;
        store.commit(TxnId::new(1), &[WriteOp::Put(obj)]).unwrap();
        store
            .commit(TxnId::new(2), &[WriteOp::Delete(oid)])
            .unwrap();
        assert!(!store.exists(oid));
        assert!(store.get(oid).is_err());
        assert!(store.extent(cat.id_of("Node").unwrap(), true).is_empty());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn commit_rejects_invalid_objects() {
        let cat = catalog();
        let dir = tmp("invalid");
        let store = ObjectStore::open(&dir, Arc::clone(&cat), 16, false).unwrap();
        let mut obj = node(&cat, &store, "bad");
        obj.values.pop(); // corrupt
        assert!(store.commit(TxnId::new(1), &[WriteOp::Put(obj)]).is_err());
        let mut obj2 = DbObject::new_named(&cat, "Node").unwrap();
        obj2.set(&cat, "Name", "no oid").unwrap();
        assert!(store.commit(TxnId::new(2), &[WriteOp::Put(obj2)]).is_err());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn many_objects_and_updates_survive_reopen() {
        let cat = catalog();
        let dir = tmp("many");
        let mut oids = Vec::new();
        {
            let store = ObjectStore::open(&dir, Arc::clone(&cat), 8, true).unwrap();
            for i in 0..200 {
                let obj = node(&cat, &store, &format!("n{i}"));
                oids.push(obj.oid);
                store
                    .commit(TxnId::new(i as u64 + 1), &[WriteOp::Put(obj)])
                    .unwrap();
            }
            // Update half of them.
            for (i, &oid) in oids.iter().enumerate().filter(|(i, _)| i % 2 == 0) {
                let mut obj = store.get(oid).unwrap();
                obj.set(&cat, "Status", "down").unwrap();
                store
                    .commit(TxnId::new(1000 + i as u64), &[WriteOp::Put(obj)])
                    .unwrap();
            }
        }
        let store = ObjectStore::open(&dir, Arc::clone(&cat), 8, true).unwrap();
        assert_eq!(store.object_count(), 200);
        for (i, &oid) in oids.iter().enumerate() {
            let obj = store.get(oid).unwrap();
            let status = obj
                .get(&cat, "Status")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string();
            assert_eq!(status, if i % 2 == 0 { "down" } else { "up" }, "object {i}");
        }
        std::fs::remove_dir_all(dir).unwrap();
    }
}
