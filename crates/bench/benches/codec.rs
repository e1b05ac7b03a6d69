//! Criterion microbench: object and message codecs (every byte on the
//! wire and in the caches goes through these).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use displaydb_nms::nms_catalog;
use displaydb_schema::DbObject;
use displaydb_server::proto::{Envelope, Request, WriteForm};
use displaydb_wire::{Decode, Encode};
use std::hint::black_box;

fn sample_link() -> (displaydb_schema::Catalog, DbObject) {
    let cat = nms_catalog();
    let mut obj = DbObject::new_named(&cat, "Link").unwrap();
    obj.oid = displaydb_common::Oid::new(42);
    obj.set(&cat, "Name", "backbone-atl-dca").unwrap();
    obj.set(&cat, "Utilization", 0.73).unwrap();
    obj.set(&cat, "CircuitId", "CKT-96-000417").unwrap();
    obj.set(&cat, "Notes", "x".repeat(200)).unwrap();
    (cat, obj)
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    let (_cat, obj) = sample_link();
    let encoded = obj.encode_to_bytes();
    group.throughput(Throughput::Bytes(encoded.len() as u64));

    group.bench_function("encode_link_object", |b| {
        b.iter(|| black_box(obj.encode_to_bytes()));
    });

    group.bench_function("decode_link_object", |b| {
        b.iter(|| black_box(DbObject::decode_from_bytes(&encoded).unwrap()));
    });

    let envelope = Envelope::Req(
        7,
        Request::Commit {
            txn: None,
            writes: vec![(obj.oid, WriteForm::Put(encoded.to_vec()))],
            trace: 0,
        },
    );
    let env_bytes = envelope.encode_to_bytes();
    group.bench_function("encode_commit_envelope", |b| {
        b.iter(|| black_box(envelope.encode_to_bytes()));
    });
    group.bench_function("decode_commit_envelope", |b| {
        b.iter(|| black_box(Envelope::decode_from_bytes(&env_bytes).unwrap()));
    });

    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
