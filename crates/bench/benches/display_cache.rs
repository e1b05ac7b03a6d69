//! Criterion bench: display cache and DLC hot paths — the operations a
//! GUI performs per frame and per notification.

use criterion::{criterion_group, criterion_main, Criterion};
use displaydb_client::dlc::{Dlc, DlmBackend};
use displaydb_common::{DbResult, DisplayId, Oid};
use displaydb_display::{DisplayCache, DisplayObject};
use displaydb_dlm::{DlmEvent, DlmRequest, UpdateInfo};
use displaydb_schema::Value;
use std::hint::black_box;
use std::sync::Arc;

struct NullBackend;
impl DlmBackend for NullBackend {
    fn send(&self, _: DlmRequest) -> DbResult<()> {
        Ok(())
    }
}

fn populated_cache(n: u64) -> (DisplayCache, Vec<displaydb_display::DoId>) {
    let cache = DisplayCache::new();
    let ids = (0..n)
        .map(|i| {
            let id = cache.allocate_id();
            let mut d = DisplayObject::new(id, "ColorCodedLink", vec![Oid::new(i)]);
            d.attrs.push(("Utilization".into(), Value::Float(0.5)));
            d.attrs.push(("Color".into(), Value::Int(0xffffff)));
            cache.insert(d);
            id
        })
        .collect();
    (cache, ids)
}

fn bench_display_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("display_cache");

    group.bench_function("get_hit", |b| {
        let (cache, ids) = populated_cache(10_000);
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            black_box(cache.get(ids[i % ids.len()]).unwrap().id)
        });
    });

    group.bench_function("dependents_lookup", |b| {
        let (cache, _) = populated_cache(10_000);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(cache.dependents(Oid::new(i % 10_000)).len())
        });
    });

    group.bench_function("with_mut_attr_update", |b| {
        let (cache, ids) = populated_cache(1_000);
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            cache.with_mut(ids[i % ids.len()], |d| {
                d.attrs[0].1 = Value::Float((i % 100) as f64 / 100.0);
                d.dirty = true;
            })
        });
    });

    group.bench_function("dlc_dispatch_fanout4", |b| {
        let dlc = Dlc::new(Arc::new(NullBackend));
        let mut receivers = Vec::new();
        for d in 0..4u64 {
            let rx = dlc.register_display(DisplayId::new(d));
            dlc.acquire(DisplayId::new(d), &[Oid::new(1)]).unwrap();
            receivers.push(rx);
        }
        b.iter(|| {
            dlc.dispatch(DlmEvent::Updated(UpdateInfo::lazy(Oid::new(1))));
            for rx in &receivers {
                black_box(rx.try_recv().unwrap());
            }
        });
    });

    group.bench_function("dlc_acquire_dedup_hit", |b| {
        let dlc = Dlc::new(Arc::new(NullBackend));
        let _rx = dlc.register_display(DisplayId::new(1));
        dlc.acquire(DisplayId::new(1), &[Oid::new(1)]).unwrap();
        b.iter(|| {
            // Re-acquire of an already-locked object: pure local dedup.
            dlc.acquire(DisplayId::new(1), &[Oid::new(1)]).unwrap();
        });
    });

    group.finish();
}

criterion_group!(benches, bench_display_cache);
criterion_main!(benches);
