//! Tricky-but-clean durability fixture (scanned as `server/src/store.rs`):
//! the sync is delegated to a helper, but the helper's name says so —
//! the storage layer's naming convention is exactly what the
//! call-name-based rule keys on.

pub struct Store {
    wal: Wal,
}

impl Store {
    /// Clean: append, helper sync, then the frontier escape.
    pub fn commit(&mut self, rec: &[u8]) {
        self.wal.append(rec);
        self.ensure_synced();
        self.advance_frontier(1);
    }

    /// Clean: an append that never lets anything escape needs no sync
    /// here (the caller syncs before acknowledging).
    pub fn stage(&mut self, rec: &[u8]) {
        self.wal.append(rec);
    }

    fn ensure_synced(&mut self) {
        self.wal.sync();
    }

    fn advance_frontier(&mut self, _n: u64) {}
}
