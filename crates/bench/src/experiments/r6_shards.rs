//! R6 — sharded DLM fan-out scaling (DESIGN.md § 16).
//!
//! The single-table DLM serializes a commit's whole notification path:
//! one interest intersect under one table lock, then one outbox writer
//! paying the wire latency for every queued event, one after another.
//! Partitioning by OID hash gives every shard its own interest table,
//! update log, and per-client outbox — so one commit's fan-out is
//! intersected shard-parallel and, more importantly, *drained* by as
//! many concurrent outbox writers as there are shards.
//!
//! This experiment drives the in-process [`ShardedDlm`] directly with a
//! latency-modeled delivery sink (every event costs a fixed simulated
//! wire delay, paid per event so outbox batching cannot amortize it
//! away — the model is a per-notification network round, not a frame).
//! The same hash-balanced OID set and commit schedule run against 1
//! shard and 8 shards; tracing is on, so the per-stage OBS breakdown
//! (DESIGN.md § 12) attributes where each event's latency went.
//!
//! Claim: 8 shards sustain ≥ 3× the notification throughput of the
//! single-table DLM at no worse delivery p95, and the share of delivery
//! latency spent upstream of the wire (intersect + outbox queueing)
//! drops — the sleeping wire, not the partitioned fan-out, is what's
//! left.

use crate::report::{self, Metrics, Table};
use crate::Scale;
use displaydb_common::trace::{self, Stage, StageBreakdown, TraceEvent};
use displaydb_common::{ClientId, DbResult, Oid};
use displaydb_dlm::{DlmConfig, DlmEvent, EventSink, ShardMap, ShardedDlm, UpdateInfo};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Run R6.
pub fn run(scale: Scale) -> Vec<Table> {
    run_with_metrics(scale).0
}

/// Run R6 and also return the metrics `tests/gated_experiments.rs` asserts.
pub fn run_with_metrics(scale: Scale) -> (Vec<Table>, Metrics) {
    let per_shard = scale.pick(4usize, 8);
    let rounds = scale.pick(30usize, 120);
    let wire_latency = Duration::from_micros(200);

    // A hash-balanced OID set: exactly `per_shard` OIDs landing on each
    // of the 8-way map's shards, so the 8-shard run divides every
    // commit's fan-out evenly and the comparison measures partitioning,
    // not hash luck. The 1-shard run routes the same set to shard 0.
    let map8 = ShardMap::new(8);
    let mut buckets = [0usize; 8];
    let mut oids: Vec<Oid> = Vec::with_capacity(per_shard * 8);
    let mut raw = 1u64;
    while oids.len() < per_shard * 8 {
        let oid = Oid::new(raw);
        raw += 1;
        let s = map8.shard_of(oid) as usize;
        if buckets[s] < per_shard {
            buckets[s] += 1;
            oids.push(oid);
        }
    }

    // Tracing on for both scenarios (ring sized for the full run), then
    // restored so later experiments in the same process run at
    // disabled-path cost.
    trace::enable(1 << 16);
    trace::clear();
    let single = fan_out(1, &oids, rounds, wire_latency);
    trace::clear();
    let sharded = fan_out(8, &oids, rounds, wire_latency);
    trace::disable();
    trace::clear();

    let speedup = sharded.throughput / single.throughput;
    let batch = oids.len();
    let mut t = Table::new(
        "R6 — sharded DLM: notification fan-out scaling",
        format!(
            "{rounds} commits of {batch} updates each (hash-balanced, {per_shard} per \
             8-way shard), fanned out to a viewer whose delivery sink pays a simulated \
             {}µs wire latency per event. Identical workload against 1 shard and 8; \
             per-shard outbox writers overlap the wire waits. Upstream share is the \
             fraction of mean delivery latency spent before the outbox writer handed \
             the event to the wire (intersect + outbox queueing).",
            wire_latency.as_micros()
        ),
        &[
            "scenario",
            "events",
            "elapsed (ms)",
            "events/s",
            "vs 1 shard",
            "p50",
            "p95",
            "upstream share",
        ],
    );
    for (name, o) in [("1 shard (single table)", &single), ("8 shards", &sharded)] {
        t.row(vec![
            name.into(),
            o.events.to_string(),
            report::ms(o.elapsed),
            format!("{:.0}", o.throughput),
            format!("{:.2}x", o.throughput / single.throughput),
            report::ms(o.p50),
            report::ms(o.p95),
            format!("{:.1}%", o.upstream_share * 100.0),
        ]);
    }

    let mut routed = Table::new(
        "R6 — per-shard routing (8-shard run)",
        "Updates routed to each shard by the OID hash; the balanced OID set \
         divides every commit evenly.",
        &["shard", "updates routed"],
    );
    for (s, n) in sharded.per_shard.iter().enumerate() {
        routed.row(vec![format!("shard {s}"), n.to_string()]);
    }

    let mut tables = vec![t, routed];
    for (name, o) in [("1 shard", &single), ("8 shards", &sharded)] {
        let mut st = Table::new(
            format!("R6 — per-stage breakdown, {name}"),
            "Consecutive-stage gaps of every traced event (OBS machinery, \
             DESIGN.md § 12). The commit → intersect and outbox gaps shrink \
             with shards; the simulated wire cost per event does not.",
            &["stage gap", "traces", "p50 (ms)", "p95 (ms)"],
        );
        for ((from, to), rec) in &o.breakdown.pairs {
            if let Some(s) = rec.summary() {
                st.row(vec![
                    format!("{} -> {}", from.name(), to.name()),
                    s.count.to_string(),
                    report::ms(s.p50),
                    report::ms(s.p95),
                ]);
            }
        }
        tables.push(st);
    }

    let mut m = Metrics::new("r6");
    m.put("notify_speedup_x", speedup);
    (tables, m)
}

struct Outcome {
    events: u64,
    elapsed: Duration,
    /// Delivered events per second over the whole run.
    throughput: f64,
    p50: Duration,
    p95: Duration,
    /// Mean (commit → outbox-drain) over mean (commit → delivery).
    upstream_share: f64,
    breakdown: StageBreakdown,
    /// Updates routed per shard (len = shard count).
    per_shard: Vec<u64>,
}

/// The latency-modeled delivery sink: every event — including every
/// event inside a `Batch` — costs one simulated wire round before it
/// counts as delivered. Sleeping (not spinning) is what lets per-shard
/// writer threads overlap on any core count.
struct SleepySink {
    latency: Duration,
    delivered: Arc<AtomicU64>,
    deliveries: Arc<Mutex<Vec<(u64, Instant)>>>,
}

impl SleepySink {
    fn consume(&self, event: DlmEvent) {
        match event {
            DlmEvent::Batch(events) => {
                for e in events {
                    self.consume(e);
                }
            }
            DlmEvent::Updated(info) => {
                std::thread::sleep(self.latency);
                trace::record(info.trace, Stage::DlcApply);
                self.deliveries
                    .lock()
                    .unwrap()
                    .push((info.trace, Instant::now()));
                self.delivered.fetch_add(1, Ordering::Release);
            }
            // Control events (acks, markers) are free: the model only
            // charges for object notifications.
            _ => {}
        }
    }
}

impl EventSink for SleepySink {
    fn deliver(&self, event: DlmEvent) -> DbResult<()> {
        self.consume(event);
        Ok(())
    }
}

/// One scenario: the full commit schedule against a `shards`-way DLM.
fn fan_out(shards: usize, oids: &[Oid], rounds: usize, wire_latency: Duration) -> Outcome {
    let mut config = DlmConfig {
        shards,
        ..DlmConfig::default()
    };
    // Overflow sweeps are R2's subject, not this one's: keep every
    // event on the normal path.
    config.overload.outbox_high_water = 4096;
    let dlm = ShardedDlm::new(config);
    let client = ClientId::new(1);

    let delivered = Arc::new(AtomicU64::new(0));
    let deliveries: Arc<Mutex<Vec<(u64, Instant)>>> = Arc::new(Mutex::new(Vec::new()));
    // One session: an outbox (and writer thread) per shard, all
    // draining into the same simulated wire.
    dlm.register_session(
        client,
        Arc::new(SleepySink {
            latency: wire_latency,
            delivered: Arc::clone(&delivered),
            deliveries: Arc::clone(&deliveries),
        }),
    );
    dlm.lock(client, oids);

    let batch = oids.len();
    let mut submit: Vec<Instant> = Vec::with_capacity(rounds * batch);
    let start = Instant::now();
    for round in 0..rounds {
        let updates: Vec<UpdateInfo> = oids
            .iter()
            .enumerate()
            .map(|(i, &oid)| {
                let trace_id = (round * batch + i + 1) as u64;
                trace::record(trace_id, Stage::Commit);
                let mut u = UpdateInfo::lazy(oid);
                u.trace = trace_id;
                u
            })
            .collect();
        let now = Instant::now();
        submit.extend(std::iter::repeat(now).take(batch));
        dlm.notify_committed_txn(None, &updates, (round + 1) as u64)
            .expect("fan-out");
        // Closed-loop: wait for the commit to fully deliver before the
        // next, so queue depth (and thus p95) is bounded by one
        // commit's fan-out in both scenarios.
        let want = ((round + 1) * batch) as u64;
        while delivered.load(Ordering::Acquire) < want {
            std::thread::sleep(Duration::from_micros(20));
        }
    }
    let elapsed = start.elapsed();
    let events = delivered.load(Ordering::Acquire);

    let mut latencies: Vec<Duration> = deliveries
        .lock()
        .unwrap()
        .iter()
        .map(|&(trace, at)| at.duration_since(submit[(trace - 1) as usize]))
        .collect();
    latencies.sort_unstable();
    let pick = |q: f64| -> Duration {
        if latencies.is_empty() {
            return Duration::ZERO;
        }
        let idx = ((latencies.len() as f64 - 1.0) * q).round() as usize;
        latencies[idx]
    };
    let (p50, p95) = (pick(0.50), pick(0.95));

    // Per-trace stage walk out of the ring: the upstream share is the
    // time from commit to the outbox writer's drain (everything before
    // the simulated wire), over the full commit → delivery span.
    // (first commit, first outbox-drain, last dlc-apply) timestamps.
    type StageSlots = (Option<u64>, Option<u64>, Option<u64>);
    let trace_events = trace::events();
    let mut stages: HashMap<u64, StageSlots> = HashMap::new();
    for TraceEvent { trace, stage, t_ns } in &trace_events {
        let slot = stages.entry(*trace).or_default();
        match stage {
            Stage::Commit => slot.0 = Some(slot.0.map_or(*t_ns, |t: u64| t.min(*t_ns))),
            Stage::OutboxDrain => slot.1 = Some(slot.1.map_or(*t_ns, |t: u64| t.min(*t_ns))),
            Stage::DlcApply => slot.2 = Some(slot.2.map_or(*t_ns, |t: u64| t.max(*t_ns))),
            _ => {}
        }
    }
    let (mut upstream_ns, mut total_ns) = (0u128, 0u128);
    for (commit, drain, apply) in stages.values() {
        if let (Some(c), Some(d), Some(a)) = (commit, drain, apply) {
            upstream_ns += u128::from(d.saturating_sub(*c));
            total_ns += u128::from(a.saturating_sub(*c));
        }
    }
    let upstream_share = if total_ns == 0 {
        0.0
    } else {
        upstream_ns as f64 / total_ns as f64
    };
    let breakdown = StageBreakdown::from_events(&trace_events);

    let per_shard = (0..shards)
        .map(|s| dlm.shard_stats().updates_of(s))
        .collect();
    dlm.unregister_client(client);
    Outcome {
        events,
        elapsed,
        throughput: events as f64 / elapsed.as_secs_f64(),
        p50,
        p95,
        upstream_share,
        breakdown,
        per_shard,
    }
}
