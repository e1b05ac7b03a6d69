//! Property tests for the durable segment log (DESIGN.md § 14).
//!
//! Random batch sequences are pushed through a [`SegLog`] with a crash
//! simulated at a randomly chosen armed crash point, then the directory is
//! reopened ("restarted") and the recovery invariants checked:
//!
//! * the retained window is always a **contiguous suffix** of the appended
//!   seqno space, with byte-identical payloads,
//! * every *acked* append (one whose `append_batch` returned `Ok`) is
//!   recovered — unless the tear truncated the window entirely, which is
//!   the documented resync-fallback case,
//! * the **durable head never trails an acked append** (a cursor acked
//!   to a client stays replayable), and the next seqno never re-issues a
//!   recovered one (cursor monotonicity across incarnations),
//! * a second, crash-free reopen is idempotent: same incarnation, same
//!   window.
//!
//! The crash-point harness is process-global, so everything runs inside
//! one `#[test]` (proptest executes cases sequentially) — this file must
//! not gain a second test that arms crash points.

use displaydb_common::crashpoint::{self, CrashGuard, CrashPoint};
use displaydb_common::metrics::SegLogStats;
use displaydb_common::{DbError, DurableLogConfig};
use displaydb_storage::seglog::SegLog;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);
impl TempDir {
    fn new() -> Self {
        let p = std::env::temp_dir()
            .join("displaydb-seglog-proptest")
            .join(format!(
                "case-{}-{}",
                std::process::id(),
                CASE.fetch_add(1, Ordering::Relaxed)
            ));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[derive(Clone, Debug)]
struct Plan {
    payloads: Vec<Vec<u8>>,
    crash: Option<CrashPoint>,
    skip: u64,
    segment_bytes: u64,
    sync_every: u32,
}

fn plan() -> impl Strategy<Value = Plan> {
    (
        (
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..48), 1..32),
            // 0 = no crash; 1..=4 index CrashPoint::ALL.
            0usize..5,
            0u64..8,
        ),
        (
            prop_oneof![Just(96u64), Just(192u64), Just(512u64)],
            1u32..4,
        ),
    )
        .prop_map(
            |((payloads, crash_idx, skip), (segment_bytes, sync_every))| Plan {
                payloads,
                crash: crash_idx.checked_sub(1).map(|i| CrashPoint::ALL[i]),
                skip,
                segment_bytes,
                sync_every,
            },
        )
}

proptest! {
    #[test]
    fn crash_and_recover_preserves_window_invariants(plan in plan()) {
        let _guard = CrashGuard::new();
        let tmp = TempDir::new();
        let config = DurableLogConfig {
            enabled: true,
            segment_bytes: plan.segment_bytes,
            max_total_bytes: 1 << 20,
            sync_every: plan.sync_every,
        };
        let (log, rec0) = SegLog::open(&tmp.0, config, SegLogStats::new(), 42, 0).unwrap();
        prop_assert_eq!(rec0.next_seqno, 1);

        if let Some(point) = plan.crash {
            crashpoint::arm_after(point, plan.skip);
        }

        let mut acked: Vec<u64> = Vec::new();
        let mut appended: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut crashed = false;
        for (i, payload) in plan.payloads.iter().enumerate() {
            let seqno = (i + 1) as u64;
            match log.append_batch(seqno, seqno, payload) {
                Ok(()) => {
                    acked.push(seqno);
                    appended.push((seqno, payload.clone()));
                }
                Err(DbError::CrashPoint(_)) => {
                    // The crashing batch is un-acked; it may or may not be
                    // durable.
                    appended.push((seqno, payload.clone()));
                    crashed = true;
                    break;
                }
                Err(e) => return Err(format!("unexpected error: {e}")),
            }
        }
        if !crashed {
            log.sync().unwrap();
        }
        drop(log);

        // "Restart": reopen the same directory.
        crashpoint::disarm_all();
        let (log2, rec) = SegLog::open(&tmp.0, config, SegLogStats::new(), 99, 0).unwrap();
        prop_assert!(rec.incarnation_recovered);
        prop_assert_eq!(rec.incarnation, 42);

        let seqnos: Vec<u64> = rec.batches.iter().map(|b| b.seqno).collect();
        // Contiguous suffix with intact payloads.
        for w in seqnos.windows(2) {
            prop_assert_eq!(w[1], w[0] + 1, "window not contiguous: {:?}", seqnos);
        }
        for b in &rec.batches {
            let (_, ref want) = appended[(b.seqno - 1) as usize];
            prop_assert_eq!(&b.payload, want, "payload mismatch at seqno {}", b.seqno);
        }
        if rec.window_truncated {
            prop_assert!(seqnos.is_empty());
        } else {
            // No lost acked batch: the window covers every Ok append.
            for s in &acked {
                prop_assert!(
                    seqnos.contains(s),
                    "acked seqno {} missing from recovered window {:?}",
                    s,
                    seqnos
                );
            }
        }
        // No phantom: nothing beyond what was ever appended.
        if let Some(&last) = seqnos.last() {
            prop_assert!(last <= appended.len() as u64);
        }
        // No acked seqno ahead of the durable head; seqno space is
        // monotone.
        let durable_head = rec.next_seqno - 1;
        let acked_head = acked.last().copied().unwrap_or(0);
        prop_assert!(acked_head <= durable_head, "acked {} > head {}", acked_head, durable_head);
        prop_assert!(rec.next_seqno > seqnos.last().copied().unwrap_or(0));
        prop_assert!(durable_head <= appended.len() as u64);
        drop(log2);

        // Crash-free reopen is idempotent.
        let (_log3, rec2) = SegLog::open(&tmp.0, config, SegLogStats::new(), 99, 0).unwrap();
        prop_assert!(!rec2.window_truncated);
        prop_assert_eq!(rec2.incarnation, 42);
        let seqnos2: Vec<u64> = rec2.batches.iter().map(|b| b.seqno).collect();
        prop_assert_eq!(&seqnos2, &seqnos, "second recovery changed the window");
        prop_assert_eq!(rec2.next_seqno, rec.next_seqno);
    }
}
