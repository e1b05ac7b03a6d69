//! Per-layer costs measured by timed calls into public functions, one
//! layer at a time on one thread (plus an echo peer for `tcp_rtt_us`).
//! Layer = crate name. Each figure is the median over [`BATCHES`] batches
//! of the mean time per operation within a batch.

use crate::report::Metric;
use crate::stats::median;
use displaydb_client::ClientCache;
use displaydb_common::metrics::{SegLogStats, UpdateLogStats};
use displaydb_common::{
    ClientId, DbResult, DurableLogConfig, Oid, OverloadConfig, TxnId, UpdateLogConfig,
};
use displaydb_dlm::{
    CoalescingQueue, DlmConfig, DlmEvent, EventSink, ShardedDlm, UpdateInfo, UpdateLog,
};
use displaydb_lockmgr::{LockManager, LockManagerConfig, LockMode, Owner};
use displaydb_nms::nms_catalog;
use displaydb_schema::{diff_objects, DbObject, Projection, Value};
use displaydb_storage::SegLog;
use displaydb_wire::{Channel, Decode, Encode, TcpChannel};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const BATCHES: usize = 31;

/// Median over batches of nanoseconds per call of `op`, `per_batch`
/// calls to a batch.
fn ns_per_op(per_batch: u32, mut op: impl FnMut()) -> f64 {
    let batch_ns: Vec<u64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_batch {
                op();
            }
            start.elapsed().as_nanos() as u64
        })
        .collect();
    median(batch_ns).unwrap_or(0) as f64 / f64::from(per_batch)
}

fn delta(oid: Oid, attr: u16, value: f64) -> DlmEvent {
    DlmEvent::Delta {
        oid,
        version: 1,
        changed: vec![(attr, Value::Float(value).encode_to_bytes().to_vec())],
        trace: 0,
    }
}

fn codec_ns<T: Encode + Decode>(value: &T) -> (f64, usize) {
    let bytes = value.encode_to_bytes().len();
    let ns = ns_per_op(2_000, || {
        let encoded = black_box(value).encode_to_bytes();
        black_box(T::decode_from_bytes(&encoded).expect("decodes what it encoded"));
    });
    (ns, bytes)
}

/// One frame echoed over a loopback `TcpChannel` pair: the sender blocks
/// in `recv` and the echo thread in its own, so a round trip is two
/// loopback traversals and two thread wake-ups.
fn tcp_rtt_us() -> DbResult<f64> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let near = TcpChannel::connect(listener.local_addr()?)?;
    let far = TcpChannel::from_stream(listener.accept()?.0)?;
    let frame = delta(Oid::new(1), 5, 1.0).encode_to_bytes();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while let Ok(frame) = far.recv() {
                if far.send(frame).is_err() {
                    break;
                }
            }
        });
        let ns = ns_per_op(200, || {
            near.send(frame.clone()).expect("loopback send");
            black_box(near.recv().expect("loopback echo"));
        });
        near.close();
        Ok(ns / 1e3)
    })
}

/// Nanoseconds per `notify_committed_txn` of a one-attribute change to an
/// object that `holders` clients watch with a covering projection; the
/// sinks only count, so this is append + intersect + fan-out.
fn intersect_ns(holders: u64, oid: Oid, attr: u16) -> f64 {
    let dlm = ShardedDlm::new(DlmConfig::default());
    let delivered = Arc::new(AtomicU64::new(0));
    for client in 1..=holders {
        let delivered = Arc::clone(&delivered);
        let sink: Arc<dyn EventSink> = Arc::new(move |_event: DlmEvent| -> DbResult<()> {
            delivered.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        dlm.register_client(ClientId::new(client), sink);
        dlm.lock_projected(ClientId::new(client), &[oid], &[attr], 1);
    }
    let update = [UpdateInfo::lazy(oid)
        .with_changes(vec![(attr, Value::Float(0.5).encode_to_bytes().to_vec())])];
    let origin = Some(ClientId::new(holders + 1));
    let ns = ns_per_op(1_000, || {
        dlm.notify_committed_txn(origin, black_box(&update), 0)
            .expect("memory-only notify");
    });
    assert_eq!(
        delivered.load(Ordering::Relaxed),
        holders * 1_000 * BATCHES as u64,
        "every holder hears every commit"
    );
    ns
}

/// Run every direct-call measurement. `scratch` holds the segment log.
pub fn measure(scratch: &Path) -> DbResult<Vec<Metric>> {
    let catalog = nms_catalog();
    let oid = Oid::new(42);
    let mut link = DbObject::new_named(&catalog, "Link")?;
    link.oid = oid;
    let mut newer = link.clone();
    newer.set(&catalog, "Utilization", 0.75)?;
    let attr = catalog.attr_index(link.class, "Utilization")? as u16;
    let changed = vec![(attr, Value::Float(0.75).encode_to_bytes().to_vec())];
    let mut out = Vec::new();
    let mut put = |name: &'static str, unit: &'static str, value: f64| {
        out.push(Metric::new(name, unit, value));
    };

    // wire
    let (ns, bytes) = codec_ns(&delta(oid, attr, 0.75));
    put("codec_delta_ns", "ns", ns);
    put("codec_delta_bytes", "bytes", bytes as f64);
    let batch = DlmEvent::Batch(
        (0..16)
            .map(|i| delta(Oid::new(100 + i), attr, 0.75))
            .collect(),
    );
    let (ns, bytes) = codec_ns(&batch);
    put("codec_batch16_ns", "ns", ns);
    put("codec_batch16_bytes", "bytes", bytes as f64);
    let (ns, bytes) = codec_ns(&link);
    put("codec_object_ns", "ns", ns);
    put("codec_object_bytes", "bytes", bytes as f64);
    put("tcp_rtt_us", "us", tcp_rtt_us()?);

    // lockmgr: X grant + release on an object a display holder watches.
    let locks = LockManager::new(LockManagerConfig::default());
    locks.acquire(Owner::Client(ClientId::new(1)), oid, LockMode::Display)?;
    let writer = Owner::Txn(TxnId::new(7));
    put(
        "lock_grant_ns",
        "ns",
        ns_per_op(2_000, || {
            locks
                .acquire(writer, black_box(oid), LockMode::Exclusive)
                .expect("uncontended X grant");
            locks.release(writer, oid);
        }),
    );

    // schema
    put(
        "diff_ns",
        "ns",
        ns_per_op(2_000, || {
            black_box(diff_objects(black_box(&link), black_box(&newer)));
        }),
    );
    let projection = Projection::new(link.class, vec![attr], 1);
    let touched = [attr];
    put(
        "intersects_ns",
        "ns",
        ns_per_op(20_000, || {
            black_box(black_box(&projection).intersects(black_box(&touched)));
        }),
    );

    // dlm
    put("intersect_h1_ns", "ns", intersect_ns(1, oid, attr));
    put("intersect_h16_ns", "ns", intersect_ns(16, oid, attr));
    let high_water = OverloadConfig::default().outbox_high_water;
    let mut queue = CoalescingQueue::new(high_water);
    let mut seqno = 0;
    put(
        "queue_push_ns",
        "ns",
        ns_per_op(100, || {
            // 32 distinct objects in, 32 out: nothing merges or overflows.
            for i in 0..32 {
                seqno += 1;
                queue.push_seq(delta(Oid::new(1_000 + i), attr, 0.5), seqno);
            }
            while let Some(event) = queue.pop() {
                black_box(event);
            }
        }) / 32.0,
    );
    queue.push_seq(delta(oid, attr, 0.5), seqno);
    put(
        "queue_merge_ns",
        "ns",
        ns_per_op(2_000, || {
            seqno += 1;
            black_box(queue.push_seq(delta(oid, attr, 0.5), seqno));
        }),
    );
    assert_eq!(queue.len(), 1, "same-object deltas merge in place");
    let log = UpdateLog::new(UpdateLogConfig::default(), UpdateLogStats::new());
    let update = [UpdateInfo::lazy(oid).with_changes(changed.clone())];
    put(
        "log_append_ns",
        "ns",
        ns_per_op(2_000, || {
            black_box(
                log.append(None, black_box(&update), 0)
                    .expect("memory-only append"),
            );
        }),
    );

    // storage: default config. Every call is timed on its own. An explicit
    // `sync` after every fourth append keeps the log's own every-eighth
    // sync from firing inside a timed append, so the two costs stay apart.
    let dir = scratch.join("layers-seglog");
    let _ = std::fs::remove_dir_all(&dir);
    let (seglog, _) = SegLog::open(&dir, DurableLogConfig::enabled(), SegLogStats::new(), 1, 0)?;
    let payload = vec![0u8; 64];
    let mut appends = Vec::new();
    let mut syncs = Vec::new();
    for seqno in 1..=400u64 {
        let start = Instant::now();
        seglog.append_batch(seqno, seqno, &payload)?;
        appends.push(start.elapsed().as_nanos() as u64);
        if seqno % 4 == 0 {
            let start = Instant::now();
            seglog.sync()?;
            syncs.push(start.elapsed().as_nanos() as u64);
        }
    }
    drop(seglog);
    let _ = std::fs::remove_dir_all(&dir);
    put(
        "seglog_append_us",
        "us",
        median(appends).unwrap_or(0) as f64 / 1e3,
    );
    put(
        "seglog_sync_us",
        "us",
        median(syncs).unwrap_or(0) as f64 / 1e3,
    );

    // client
    let cache = ClientCache::new(16 << 20);
    cache.insert(link.clone());
    put(
        "apply_delta_ns",
        "ns",
        ns_per_op(2_000, || {
            assert!(cache.apply_delta(oid, black_box(&changed)));
        }),
    );
    Ok(out)
}
