//! Strongly-typed identifiers.
//!
//! Every subsystem of the paper's architecture names entities: persistent
//! objects (OIDs, which display objects keep lists of — § 3.1 of the paper),
//! pages, transactions, clients, and displays (windows). Newtypes keep these
//! from being confused with one another at compile time and give the wire
//! codec a single place to agree on widths.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub $inner);

        impl $name {
            /// Construct from the raw integer representation.
            pub const fn new(raw: $inner) -> Self {
                Self(raw)
            }

            /// The raw integer representation.
            pub const fn raw(self) -> $inner {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(raw: $inner) -> Self {
                Self(raw)
            }
        }
    };
}

id_type!(
    /// Identifier of a persistent database object.
    ///
    /// OIDs are allocated by the server and never reused. Display objects
    /// keep a list of the OIDs they were derived from (paper § 3.1,
    /// footnote 1), and the display-lock tables on both the DLM and the DLC
    /// are keyed by OID.
    Oid, u64, "oid:"
);
id_type!(
    /// Identifier of a class in the database (or display) schema.
    ClassId, u32, "class:"
);
id_type!(
    /// Identifier of a transaction. Allocation order doubles as age for
    /// deadlock victim selection (youngest aborts).
    TxnId, u64, "txn:"
);
id_type!(
    /// Identifier of a connected client application.
    ClientId, u64, "client:"
);
id_type!(
    /// Identifier of one display (window) within a client. The paper's DLC
    /// (§ 4.2.1) multiplexes many displays behind a single client.
    DisplayId, u64, "display:"
);
id_type!(
    /// Identifier of a fixed-size page in the storage engine.
    PageId, u64, "page:"
);
id_type!(
    /// Log sequence number in the write-ahead log.
    Lsn, u64, "lsn:"
);

/// Slot index within a slotted page.
pub type SlotId = u16;

/// Physical address of a record: a page and a slot within it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct RecordId {
    /// The page holding the record.
    pub page: PageId,
    /// The slot within the page.
    pub slot: SlotId,
}

impl RecordId {
    /// Construct a record id.
    pub const fn new(page: PageId, slot: SlotId) -> Self {
        Self { page, slot }
    }
}

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rid:{}.{}", self.page.raw(), self.slot)
    }
}

/// A monotonically increasing id allocator, safe to share across threads.
///
/// Used by the server for OIDs and transaction ids, and by clients for
/// request sequence numbers.
#[derive(Debug)]
pub struct IdGen {
    next: AtomicU64,
}

impl IdGen {
    /// Create a generator whose first issued value is `first`.
    pub const fn starting_at(first: u64) -> Self {
        Self {
            next: AtomicU64::new(first),
        }
    }

    /// Issue the next id.
    pub fn next(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Ensure all future ids are `>= floor`. Used after recovery so that
    /// newly allocated OIDs do not collide with recovered ones.
    pub fn bump_to(&self, floor: u64) {
        let mut cur = self.next.load(Ordering::Relaxed);
        while cur < floor {
            match self
                .next
                .compare_exchange(cur, floor, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// Peek at the next value without consuming it.
    pub fn peek(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }
}

impl Default for IdGen {
    fn default() -> Self {
        Self::starting_at(1)
    }
}

/// Mint an incarnation: a value naming one lifetime (of a server
/// process, of an in-memory update log) that a peer must be able to tell
/// from every other. Nonzero, never returned twice in one process, and
/// counted up from the wall clock (in nanoseconds) at the process's
/// first call, so a restarted process does not repeat its predecessor's.
pub fn mint_incarnation() -> u64 {
    static NEXT: std::sync::OnceLock<IdGen> = std::sync::OnceLock::new();
    NEXT.get_or_init(|| {
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(1, |d| d.as_nanos() as u64);
        IdGen::starting_at(now.max(1))
    })
    .next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn id_display_and_roundtrip() {
        let oid = Oid::new(42);
        assert_eq!(oid.raw(), 42);
        assert_eq!(format!("{oid}"), "oid:42");
        assert_eq!(format!("{oid:?}"), "oid:42");
        assert_eq!(Oid::from(42u64), oid);
    }

    #[test]
    fn ids_are_distinct_types() {
        // This is a compile-time property; just sanity check values.
        let rid = RecordId::new(PageId::new(3), 7);
        assert_eq!(format!("{rid}"), "rid:3.7");
        assert_eq!(rid.page, PageId::new(3));
        assert_eq!(rid.slot, 7);
    }

    #[test]
    fn idgen_monotonic() {
        let g = IdGen::starting_at(10);
        assert_eq!(g.next(), 10);
        assert_eq!(g.next(), 11);
        assert_eq!(g.peek(), 12);
        g.bump_to(100);
        assert_eq!(g.next(), 100);
        g.bump_to(50); // no-op: already past
        assert_eq!(g.next(), 101);
    }

    #[test]
    fn idgen_concurrent_unique() {
        let g = Arc::new(IdGen::default());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let g = Arc::clone(&g);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| g.next()).collect::<Vec<_>>()
            }));
        }
        let mut seen = HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(seen.insert(id), "duplicate id {id}");
            }
        }
        assert_eq!(seen.len(), 8000);
    }

    #[test]
    fn record_id_ordering() {
        let a = RecordId::new(PageId::new(1), 5);
        let b = RecordId::new(PageId::new(2), 0);
        assert!(a < b);
    }
}
