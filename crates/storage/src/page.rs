//! Slotted pages.
//!
//! Classic layout: a fixed header, a slot directory growing downward from
//! the header, and record payloads packed upward from the end of the page.
//! Deleted slots are tombstoned (never reused for a *different* record id
//! while the page lives, so record ids stay stable until explicit
//! compaction by the heap layer).
//!
//! ```text
//! +-----------+-----------------+......free......+----------+--------+
//! | header 24B| slot dir 4B/slot|                | rec N .. | rec 0  |
//! +-----------+-----------------+......free......+----------+--------+
//!                               ^free ends       ^free_ptr
//! ```

use displaydb_common::{DbError, DbResult, PageId, SlotId};

/// Size of every page in bytes.
pub const PAGE_SIZE: usize = 8192;

/// Byte size of the page header.
pub const HEADER_SIZE: usize = 24;

/// Byte size of one slot directory entry (offset u16 + len u16).
const SLOT_SIZE: usize = 4;

/// Largest record payload a single page can host.
pub const MAX_RECORD_LEN: usize = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE;

// Header field offsets.
const OFF_PAGE_ID: usize = 0; // u64
const OFF_LSN: usize = 8; // u64
const OFF_SLOT_COUNT: usize = 16; // u16
const OFF_FREE_PTR: usize = 18; // u16: lowest offset of used record space
const OFF_FLAGS: usize = 20; // u16
const OFF_GARBAGE: usize = 22; // u16: dead record bytes reclaimable by compaction

/// Page flag: the page belongs to a heap file.
pub const FLAG_HEAP: u16 = 0x0001;

/// A fixed-size slotted page.
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("page_id", &self.page_id())
            .field("slots", &self.slot_count())
            .field("free", &self.free_space())
            .finish()
    }
}

impl Page {
    /// A zeroed page formatted as empty with the given id and flags.
    pub fn new(page_id: PageId, flags: u16) -> Self {
        let mut p = Self {
            data: vec![0u8; PAGE_SIZE].into_boxed_slice().try_into().unwrap(),
        };
        p.format(page_id, flags);
        p
    }

    /// Reinitialize as an empty page.
    pub fn format(&mut self, page_id: PageId, flags: u16) {
        self.data.fill(0);
        self.set_u64(OFF_PAGE_ID, page_id.raw());
        self.set_u16(OFF_FREE_PTR, PAGE_SIZE as u16);
        self.set_u16(OFF_FLAGS, flags);
    }

    /// Construct from raw bytes read off disk.
    pub fn from_bytes(bytes: &[u8]) -> DbResult<Self> {
        if bytes.len() != PAGE_SIZE {
            return Err(DbError::Corrupt(format!(
                "page must be {PAGE_SIZE} bytes, got {}",
                bytes.len()
            )));
        }
        let mut data = vec![0u8; PAGE_SIZE].into_boxed_slice();
        data.copy_from_slice(bytes);
        Ok(Self {
            data: data.try_into().unwrap(),
        })
    }

    /// Raw page bytes (for writing to disk).
    pub fn as_bytes(&self) -> &[u8] {
        &self.data[..]
    }

    fn get_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.data[off], self.data[off + 1]])
    }

    fn set_u16(&mut self, off: usize, v: u16) {
        self.data[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    fn get_u64(&self, off: usize) -> u64 {
        u64::from_le_bytes(self.data[off..off + 8].try_into().unwrap())
    }

    fn set_u64(&mut self, off: usize, v: u64) {
        self.data[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// The page's self-recorded id.
    pub fn page_id(&self) -> PageId {
        PageId::new(self.get_u64(OFF_PAGE_ID))
    }

    /// Log sequence number of the last change (set by the WAL layer).
    pub fn lsn(&self) -> u64 {
        self.get_u64(OFF_LSN)
    }

    /// Page flags.
    pub fn flags(&self) -> u16 {
        self.get_u16(OFF_FLAGS)
    }

    /// Number of slot directory entries (including tombstones).
    pub fn slot_count(&self) -> u16 {
        self.get_u16(OFF_SLOT_COUNT)
    }

    fn free_ptr(&self) -> usize {
        self.get_u16(OFF_FREE_PTR) as usize
    }

    fn garbage(&self) -> usize {
        self.get_u16(OFF_GARBAGE) as usize
    }

    fn slot_entry(&self, slot: SlotId) -> (usize, usize) {
        let base = HEADER_SIZE + SLOT_SIZE * slot as usize;
        (self.get_u16(base) as usize, self.get_u16(base + 2) as usize)
    }

    fn set_slot_entry(&mut self, slot: SlotId, offset: usize, len: usize) {
        let base = HEADER_SIZE + SLOT_SIZE * slot as usize;
        self.set_u16(base, offset as u16);
        self.set_u16(base + 2, len as u16);
    }

    /// Contiguous free bytes between the slot directory and record space.
    pub fn free_space(&self) -> usize {
        let dir_end = HEADER_SIZE + SLOT_SIZE * self.slot_count() as usize;
        self.free_ptr().saturating_sub(dir_end)
    }

    /// Free bytes recoverable if the page were compacted, including dead
    /// record space.
    pub fn usable_space(&self) -> usize {
        self.free_space() + self.garbage()
    }

    /// Number of live (non-tombstoned) records.
    pub fn live_records(&self) -> usize {
        (0..self.slot_count())
            .filter(|&s| {
                let (off, _) = self.slot_entry(s);
                off != 0
            })
            .count()
    }

    /// Insert a record, compacting the page if fragmentation requires it.
    pub fn insert(&mut self, payload: &[u8]) -> DbResult<SlotId> {
        if payload.len() > MAX_RECORD_LEN {
            return Err(DbError::PageFull);
        }
        let need = payload.len() + SLOT_SIZE;
        if self.free_space() < need {
            if self.usable_space() < need {
                return Err(DbError::PageFull);
            }
            self.compact();
            if self.free_space() < need {
                return Err(DbError::PageFull);
            }
        }
        let slot = self.slot_count();
        self.set_u16(OFF_SLOT_COUNT, slot + 1);
        let new_ptr = self.free_ptr() - payload.len();
        self.data[new_ptr..new_ptr + payload.len()].copy_from_slice(payload);
        self.set_u16(OFF_FREE_PTR, new_ptr as u16);
        self.set_slot_entry(slot, new_ptr, payload.len());
        Ok(slot)
    }

    /// Read a record.
    pub fn get(&self, slot: SlotId) -> DbResult<&[u8]> {
        if slot >= self.slot_count() {
            return Err(DbError::Corrupt(format!("slot {slot} out of range")));
        }
        let (off, len) = self.slot_entry(slot);
        if off == 0 {
            return Err(DbError::Corrupt(format!("slot {slot} is deleted")));
        }
        Ok(&self.data[off..off + len])
    }

    /// Whether `slot` holds a live record.
    pub fn is_live(&self, slot: SlotId) -> bool {
        slot < self.slot_count() && self.slot_entry(slot).0 != 0
    }

    /// Overwrite a record in place. Fails with [`DbError::PageFull`] if the
    /// new payload cannot fit even after compaction (the caller relocates
    /// to another page).
    pub fn update(&mut self, slot: SlotId, payload: &[u8]) -> DbResult<()> {
        if slot >= self.slot_count() {
            return Err(DbError::Corrupt(format!("slot {slot} out of range")));
        }
        let (off, len) = self.slot_entry(slot);
        if off == 0 {
            return Err(DbError::Corrupt(format!("slot {slot} is deleted")));
        }
        if payload.len() <= len {
            // Shrink or same-size: rewrite in place, leak the tail as
            // garbage (reclaimed on compaction).
            self.data[off..off + payload.len()].copy_from_slice(payload);
            self.set_slot_entry(slot, off, payload.len());
            self.add_garbage(len - payload.len());
            return Ok(());
        }
        if payload.len() > MAX_RECORD_LEN {
            return Err(DbError::PageFull);
        }
        // Grow: dead the old space, place a fresh copy.
        let need = payload.len();
        if self.free_space() < need {
            if self.usable_space() + len < need {
                return Err(DbError::PageFull);
            }
            // Tombstone first so compaction reclaims the old copy.
            self.set_slot_entry(slot, 0, 0);
            self.add_garbage(len);
            self.compact();
            if self.free_space() < need {
                // Restore nothing: caller sees PageFull and relocates, but
                // the record is gone. Avoid that: we checked usable_space
                // above so this cannot happen.
                return Err(DbError::PageFull);
            }
        } else {
            self.set_slot_entry(slot, 0, 0);
            self.add_garbage(len);
        }
        let new_ptr = self.free_ptr() - payload.len();
        self.data[new_ptr..new_ptr + payload.len()].copy_from_slice(payload);
        self.set_u16(OFF_FREE_PTR, new_ptr as u16);
        self.set_slot_entry(slot, new_ptr, payload.len());
        Ok(())
    }

    /// Tombstone a record.
    pub fn delete(&mut self, slot: SlotId) -> DbResult<()> {
        if slot >= self.slot_count() {
            return Err(DbError::Corrupt(format!("slot {slot} out of range")));
        }
        let (off, len) = self.slot_entry(slot);
        if off == 0 {
            return Err(DbError::Corrupt(format!("slot {slot} already deleted")));
        }
        self.set_slot_entry(slot, 0, 0);
        self.add_garbage(len);
        Ok(())
    }

    fn add_garbage(&mut self, n: usize) {
        let g = self.garbage() + n;
        self.set_u16(OFF_GARBAGE, g as u16);
    }

    /// Repack live records to the end of the page, zeroing garbage.
    pub fn compact(&mut self) {
        let count = self.slot_count();
        let mut records: Vec<(SlotId, Vec<u8>)> = Vec::with_capacity(count as usize);
        for s in 0..count {
            let (off, len) = self.slot_entry(s);
            if off != 0 {
                records.push((s, self.data[off..off + len].to_vec()));
            }
        }
        let mut ptr = PAGE_SIZE;
        for (s, bytes) in &records {
            ptr -= bytes.len();
            self.data[ptr..ptr + bytes.len()].copy_from_slice(bytes);
            self.set_slot_entry(*s, ptr, bytes.len());
        }
        self.set_u16(OFF_FREE_PTR, ptr as u16);
        self.set_u16(OFF_GARBAGE, 0);
    }

    /// Iterate `(slot, payload)` over live records.
    pub fn iter_live(&self) -> impl Iterator<Item = (SlotId, &[u8])> {
        (0..self.slot_count()).filter_map(move |s| {
            let (off, len) = self.slot_entry(s);
            (off != 0).then(|| (s, &self.data[off..off + len]))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn page() -> Page {
        Page::new(PageId::new(1), FLAG_HEAP)
    }

    #[test]
    fn empty_page_properties() {
        let p = page();
        assert_eq!(p.page_id(), PageId::new(1));
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.flags(), FLAG_HEAP);
        assert_eq!(p.free_space(), PAGE_SIZE - HEADER_SIZE);
        assert_eq!(p.live_records(), 0);
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut p = page();
        let s1 = p.insert(b"hello").unwrap();
        let s2 = p.insert(b"world!").unwrap();
        assert_eq!(p.get(s1).unwrap(), b"hello");
        assert_eq!(p.get(s2).unwrap(), b"world!");
        assert_eq!(p.live_records(), 2);
    }

    #[test]
    fn delete_tombstones() {
        let mut p = page();
        let s = p.insert(b"gone").unwrap();
        p.delete(s).unwrap();
        assert!(p.get(s).is_err());
        assert!(!p.is_live(s));
        assert!(p.delete(s).is_err());
        assert_eq!(p.live_records(), 0);
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = page();
        let s = p.insert(b"aaaa").unwrap();
        p.update(s, b"bb").unwrap();
        assert_eq!(p.get(s).unwrap(), b"bb");
        p.update(s, b"cccccccccc").unwrap();
        assert_eq!(p.get(s).unwrap(), b"cccccccccc");
    }

    #[test]
    fn fill_page_until_full() {
        let mut p = page();
        let rec = [0xABu8; 100];
        let mut count = 0;
        while p.insert(&rec).is_ok() {
            count += 1;
        }
        // 8192 - 24 header; each record costs 104 bytes.
        assert!(count >= 77, "only {count} records fit");
        assert!(p.free_space() < 104 + SLOT_SIZE);
    }

    #[test]
    fn oversized_record_rejected() {
        let mut p = page();
        let huge = vec![0u8; MAX_RECORD_LEN + 1];
        assert!(matches!(p.insert(&huge), Err(DbError::PageFull)));
        let max = vec![7u8; MAX_RECORD_LEN];
        let s = p.insert(&max).unwrap();
        assert_eq!(p.get(s).unwrap().len(), MAX_RECORD_LEN);
    }

    #[test]
    fn compaction_reclaims_garbage() {
        let mut p = page();
        let mut slots = Vec::new();
        for _ in 0..50 {
            slots.push(p.insert(&[1u8; 100]).unwrap());
        }
        for s in slots.iter().step_by(2) {
            p.delete(*s).unwrap();
        }
        let before = p.free_space();
        p.compact();
        assert!(p.free_space() > before);
        // Survivors intact after compaction.
        for s in slots.iter().skip(1).step_by(2) {
            assert_eq!(p.get(*s).unwrap(), &[1u8; 100]);
        }
    }

    #[test]
    fn insert_triggers_compaction_when_fragmented() {
        let mut p = page();
        // Fill the page with 100-byte records.
        let mut slots = Vec::new();
        while let Ok(s) = p.insert(&[9u8; 100]) {
            slots.push(s);
        }
        // Free half the space via deletions (fragmented).
        for s in slots.iter().step_by(2) {
            p.delete(*s).unwrap();
        }
        // A 2000-byte record only fits after compaction.
        let big = vec![5u8; 2000];
        let s = p.insert(&big).unwrap();
        assert_eq!(p.get(s).unwrap(), &big[..]);
    }

    #[test]
    fn disk_roundtrip_preserves_content() {
        let mut p = page();
        let s = p.insert(b"persisted").unwrap();
        let bytes = p.as_bytes().to_vec();
        let p2 = Page::from_bytes(&bytes).unwrap();
        assert_eq!(p2.get(s).unwrap(), b"persisted");
        assert_eq!(p2.page_id(), p.page_id());
    }

    #[test]
    fn from_bytes_wrong_size_rejected() {
        assert!(Page::from_bytes(&[0u8; 100]).is_err());
    }

    #[test]
    fn iter_live_skips_tombstones() {
        let mut p = page();
        let a = p.insert(b"a").unwrap();
        let b = p.insert(b"b").unwrap();
        let c = p.insert(b"c").unwrap();
        p.delete(b).unwrap();
        let live: Vec<_> = p.iter_live().map(|(s, d)| (s, d.to_vec())).collect();
        assert_eq!(live, vec![(a, b"a".to_vec()), (c, b"c".to_vec())]);
    }

    proptest! {
        /// Random op sequences: a HashMap model must agree with the page,
        /// and internal invariants must hold throughout.
        #[test]
        fn prop_page_model_equivalence(ops in proptest::collection::vec(
            (0u8..4, 0usize..64, proptest::collection::vec(any::<u8>(), 0..300)), 1..120))
        {
            let mut p = page();
            let mut model: HashMap<SlotId, Vec<u8>> = HashMap::new();
            let mut known_slots: Vec<SlotId> = Vec::new();

            for (op, pick, payload) in ops {
                match op {
                    0 => { // insert
                        if let Ok(slot) = p.insert(&payload) {
                            model.insert(slot, payload);
                            known_slots.push(slot);
                        }
                    }
                    1 => { // delete a known slot
                        if known_slots.is_empty() { continue; }
                        let slot = known_slots[pick % known_slots.len()];
                        let res = p.delete(slot);
                        prop_assert_eq!(res.is_ok(), model.remove(&slot).is_some());
                    }
                    2 => { // update a known slot
                        if known_slots.is_empty() { continue; }
                        let slot = known_slots[pick % known_slots.len()];
                        if let std::collections::hash_map::Entry::Occupied(mut e) = model.entry(slot) {
                            if p.update(slot, &payload).is_ok() {
                                e.insert(payload);
                            }
                        } else {
                            prop_assert!(p.update(slot, &payload).is_err());
                        }
                    }
                    _ => { p.compact(); }
                }
                // Invariants after every op.
                prop_assert_eq!(p.live_records(), model.len());
                for (slot, expect) in &model {
                    prop_assert_eq!(p.get(*slot).unwrap(), &expect[..]);
                }
            }
            // Survives a disk roundtrip.
            let p2 = Page::from_bytes(p.as_bytes()).unwrap();
            for (slot, expect) in &model {
                prop_assert_eq!(p2.get(*slot).unwrap(), &expect[..]);
            }
        }
    }
}
