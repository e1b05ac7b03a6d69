//! Seeded durability-ordering violations (scanned as `dlm/src/log.rs`):
//! an append whose frontier escapes with no sync anywhere, and an ack
//! that escapes before the sync lands.

pub struct Log {
    seg: Seg,
}

impl Log {
    /// Violation: the frontier escapes and nothing ever syncs.
    pub fn commit_unsynced(&mut self, rec: &[u8]) {
        self.seg.append(rec);
        self.advance_frontier(rec.len() as u64);
    }

    /// Violation: the frontier escapes first, the sync lands after it.
    pub fn commit_acked_early(&mut self, rec: &[u8]) {
        self.seg.append_batch(rec);
        self.advance_frontier(1);
        self.seg.sync();
    }

    fn advance_frontier(&mut self, _n: u64) {}
}
