//! Page-based storage engine.
//!
//! This crate is the bottom of the memory hierarchy the paper extends
//! (§ 3.2, figure 2): **server disk** → server buffer pool → client
//! database cache → (the paper's new level) client display cache. It
//! provides:
//!
//! * [`page`] — 8 KiB slotted pages with in-page compaction,
//! * [`disk`] — a file-backed page allocator,
//! * [`buffer`] — a pinning buffer pool with LRU eviction (the *server
//!   main-memory* level of the hierarchy),
//! * [`heap`] — heap files of variable-length records addressed by
//!   [`displaydb_common::RecordId`],
//! * [`wal`] — a redo-only write-ahead log with checksummed records and
//!   torn-tail repair, plus replay for crash recovery,
//! * [`seglog`] — the durable segment log backing the DLM's replayable
//!   update log across restarts (incarnation id and batch records;
//!   DESIGN.md § 14).
//!
//! The server crate composes these into an object store; nothing in here
//! knows about objects, classes, or displays.

pub mod buffer;
pub mod disk;
pub mod heap;
pub mod page;
pub mod seglog;
pub mod wal;

pub use buffer::{BufferPool, BufferPoolStats, PageGuard};
pub use disk::DiskManager;
pub use heap::HeapFile;
pub use page::{Page, PAGE_SIZE};
pub use seglog::{RecoveredBatch, SegLog, SegLogRecovery, SegRecord};
pub use wal::{Wal, WalRecord};
