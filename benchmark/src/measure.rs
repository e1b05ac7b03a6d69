//! One run of one workload: set-up, warm-up, the measured window(s), the
//! output check, and the metrics that come out.

use crate::check::check_outputs;
use crate::clock;
use crate::drive::{drive, Driven, Issued, REFRESH_LIMIT};
use crate::layers;
use crate::process::{self, Usage};
use crate::report::{Metric, Outcome};
use crate::rig::Rig;
use crate::schedule::{Attr, Schedule, LINKS};
use crate::stats::{median, percentile, Summary};
use crate::tracepass::{self, GAPS};
use crate::workload::{Pacing, Workload};
use displaydb_common::trace;
use displaydb_common::DbResult;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set-ups per run; `setup_s` is their median and the last one is used.
pub const SETUP_REPEATS: usize = 9;

/// The timeline of one run.
#[derive(Clone, Copy, Debug)]
pub struct Windows {
    /// Idle time before set-up. On this VM the second or so after both
    /// cores were saturated — a closed-loop run, a compile — runs at about
    /// half speed, then recovers; without the pause a run's set-up time
    /// depends on what ran before it.
    pub settle: Duration,
    pub warmup: Duration,
    pub measured: Duration,
}

impl Windows {
    /// `run --smoke` and the package's own tests: does it run, do the
    /// outputs check out. Far too short to quote a number from.
    pub const SMOKE: Windows = Windows {
        settle: Duration::ZERO,
        warmup: Duration::from_millis(300),
        measured: Duration::from_secs(1),
    };
}

/// Cumulative counters of the system under test; subtract two readings
/// to get what a window did.
#[derive(Clone, Default)]
struct Counters {
    wire_bytes: u64,
    usage: Usage,
    server_reads: u64,
    seglog_records: u64,
    seglog_syncs: u64,
    enqueued: u64,
    coalesced: u64,
    suppressed: u64,
    deltas_in: u64,
    delta_fallbacks: u64,
    notifications_in: u64,
    notify_frames: u64,
    shard_updates: Vec<u64>,
}

impl Counters {
    fn read(rig: &Rig) -> Self {
        let core = rig.server.core();
        let dlm = core.dlm();
        let dlc = rig.viewer.dlc().stats();
        Self {
            wire_bytes: rig.meter.total_bytes(),
            usage: Usage::now(),
            server_reads: core.stats().reads.get(),
            seglog_records: core.seglog_stats().records_appended.get(),
            seglog_syncs: core.seglog_stats().syncs.get(),
            enqueued: dlm.stats().overload.enqueued.get(),
            coalesced: dlm.stats().overload.coalesced.get(),
            suppressed: dlm.stats().suppressed_notifications.get(),
            deltas_in: dlc.deltas_in.get(),
            delta_fallbacks: dlc.delta_fallbacks.get(),
            notifications_in: dlc.notifications_in.get(),
            notify_frames: rig.viewer.conn_stats().dlm_events.get(),
            shard_updates: (0..dlm.shards())
                .map(|s| dlm.shard_stats().updates_of(s))
                .collect(),
        }
    }

    /// `self` and `other` combined field by field with `op`.
    fn zip(&self, other: &Counters, op: impl Fn(u64, u64) -> u64) -> Counters {
        Counters {
            wire_bytes: op(self.wire_bytes, other.wire_bytes),
            usage: Usage {
                allocs: op(self.usage.allocs, other.usage.allocs),
                alloc_bytes: op(self.usage.alloc_bytes, other.usage.alloc_bytes),
                cpu_us: op(self.usage.cpu_us, other.usage.cpu_us),
            },
            server_reads: op(self.server_reads, other.server_reads),
            seglog_records: op(self.seglog_records, other.seglog_records),
            seglog_syncs: op(self.seglog_syncs, other.seglog_syncs),
            enqueued: op(self.enqueued, other.enqueued),
            coalesced: op(self.coalesced, other.coalesced),
            suppressed: op(self.suppressed, other.suppressed),
            deltas_in: op(self.deltas_in, other.deltas_in),
            delta_fallbacks: op(self.delta_fallbacks, other.delta_fallbacks),
            notifications_in: op(self.notifications_in, other.notifications_in),
            notify_frames: op(self.notify_frames, other.notify_frames),
            shard_updates: (0..self.shard_updates.len().max(other.shard_updates.len()))
                .map(|s| {
                    let at = |c: &Counters| c.shard_updates.get(s).copied().unwrap_or(0);
                    op(at(self), at(other))
                })
                .collect(),
        }
    }
}

/// What was driven over some stretch of the schedule and what the
/// counters did meanwhile. Windows add up.
#[derive(Default)]
struct Window {
    commits: Vec<Issued>,
    counts: Counters,
    /// From each stretch's start to its last acknowledgement, summed.
    elapsed_ns: u64,
    threads_peak: u64,
    /// Commits that were not acknowledged.
    unacked: u64,
    /// Acknowledged projected commits the display never showed.
    unseen: u64,
}

impl Window {
    fn absorb(&mut self, other: Window) {
        self.commits.extend(other.commits);
        self.counts = self.counts.zip(&other.counts, |a, b| a + b);
        self.elapsed_ns += other.elapsed_ns;
        self.threads_peak = self.threads_peak.max(other.threads_peak);
        self.unacked += other.unacked;
        self.unseen += other.unseen;
    }

    fn acked(&self) -> u64 {
        self.commits.len() as u64 - self.unacked
    }

    fn per_commit(&self, count: u64) -> f64 {
        count as f64 / self.acked().max(1) as f64
    }

    /// Intended start → shown, for every commit the display showed.
    fn refresh(&self) -> Summary {
        Summary::of(
            self.commits
                .iter()
                .filter_map(|c| c.shown_ns.map(|s| s.saturating_sub(c.due_ns)))
                .collect(),
        )
    }

    /// How late the generator began each commit, ascending.
    fn lateness(&self) -> Vec<u64> {
        let mut late: Vec<u64> = self.commits.iter().map(|c| c.begun_ns - c.due_ns).collect();
        late.sort_unstable();
        late
    }

    fn commits_per_s(&self) -> f64 {
        self.acked() as f64 / (self.elapsed_ns.max(1) as f64 / 1e9)
    }

    fn failures(&self) -> Vec<(u64, String)> {
        let mut out = Vec::new();
        if self.unacked > 0 {
            out.push((
                self.unacked,
                format!("{} commits aborted or timed out", self.unacked),
            ));
        }
        if self.unseen > 0 {
            out.push((
                self.unseen,
                format!(
                    "{} commits not shown within {} s of the last commit",
                    self.unseen,
                    REFRESH_LIMIT.as_secs()
                ),
            ));
        }
        out
    }
}

/// The state one run threads through its windows.
struct Run<'a> {
    rig: &'a Rig,
    workload: Workload,
    schedule: Schedule,
    /// Time zero of the open-loop schedule.
    epoch_ns: u64,
    /// Index of the next commit.
    next: u64,
    /// Where the next window starts on the schedule's clock.
    cursor_ns: u64,
    /// The last acknowledged `Utilization` value per link.
    expected: Vec<f64>,
    /// Acknowledged commits inside / outside the viewer's projection, and
    /// the counters, over every window so far (warm-up included).
    projected: u64,
    unprojected: u64,
    counts: Counters,
    converged: bool,
}

impl<'a> Run<'a> {
    fn new(rig: &'a Rig, workload: Workload, schedule: Schedule) -> Self {
        let epoch_ns = clock::now_ns() + 2_000_000;
        Self {
            rig,
            workload,
            schedule,
            epoch_ns,
            next: 0,
            cursor_ns: epoch_ns,
            expected: vec![0.0; LINKS],
            projected: 0,
            unprojected: 0,
            counts: Counters::default(),
            converged: true,
        }
    }

    /// Drive the next `length` of the schedule. The main thread samples
    /// the thread count while the two driver threads work.
    fn window(&mut self, length: Duration) -> DbResult<Window> {
        let start_ns = match self.schedule.commit(self.next).due_ns {
            Some(_) => self.cursor_ns,
            None => clock::now_ns(),
        };
        let end_ns = start_ns + length.as_nanos() as u64;
        let before = Counters::read(self.rig);
        let stop_sampling = AtomicBool::new(false);
        let (driven, threads_peak) = std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut peak = 0;
                while !stop_sampling.load(Ordering::Acquire) {
                    peak = peak.max(process::threads_now());
                    std::thread::sleep(Duration::from_millis(20));
                }
                peak
            });
            let driven = drive(self.rig, &self.schedule, self.next, self.epoch_ns, end_ns);
            stop_sampling.store(true, Ordering::Release);
            (driven, sampler.join().expect("sampler thread panicked"))
        });
        let Driven { commits, converged } = driven?;
        let counts = Counters::read(self.rig).zip(&before, |after, before| after - before);

        let mut window = Window {
            elapsed_ns: commits
                .iter()
                .filter_map(|c| c.acked_ns)
                .max()
                .map_or(0, |last| last.saturating_sub(start_ns)),
            threads_peak,
            ..Window::default()
        };
        for commit in &commits {
            let generated = self.schedule.commit(commit.index);
            let projected = generated.attr == Attr::Utilization;
            if commit.acked_ns.is_none() {
                window.unacked += 1;
                continue;
            }
            if projected {
                self.projected += 1;
                self.expected[generated.link] = generated.value;
                window.unseen += u64::from(commit.shown_ns.is_none());
            } else {
                self.unprojected += 1;
            }
        }
        self.counts = self.counts.zip(&counts, |a, b| a + b);
        self.converged &= converged;
        self.next += commits.len() as u64;
        self.cursor_ns = end_ns;
        window.commits = commits;
        window.counts = counts;
        Ok(window)
    }

    /// Workload-specific predictions that double as output checks.
    fn predictions(&self) -> Vec<(u64, String)> {
        let mut out = Vec::new();
        match self.workload {
            Workload::UpstreamDurable => {
                let c = &self.counts;
                if c.deltas_in + c.coalesced != self.projected {
                    out.push((
                        1,
                        format!(
                            "viewer heard {} deltas (+{} coalesced) for {} projected commits",
                            c.deltas_in, c.coalesced, self.projected
                        ),
                    ));
                }
                if c.suppressed != self.unprojected {
                    out.push((
                        1,
                        format!(
                            "{} notifications suppressed for {} commits outside the projection",
                            c.suppressed, self.unprojected
                        ),
                    ));
                }
            }
            Workload::StormSaturate if !self.converged => {
                out.push((1, "display did not converge after the storm".into()));
            }
            _ => {}
        }
        out
    }

    /// Check the outputs and assemble the outcome; `measured` holds the
    /// commits that count as attempted.
    fn finish(
        &self,
        traced: bool,
        measured: &Window,
        metrics: Vec<Metric>,
        reported: Vec<Metric>,
        tables: Vec<String>,
    ) -> DbResult<Outcome> {
        let mut failures = measured.failures();
        failures.extend(self.predictions());
        failures.extend(check_outputs(self.rig, self.workload, &self.expected)?);
        Ok(Outcome {
            workload: self.workload,
            traced,
            attempted: measured.commits.len() as u64,
            failed: failures.iter().map(|(n, _)| n).sum(),
            failures: failures.into_iter().map(|(_, line)| line).collect(),
            metrics,
            reported,
            non_default: self.rig.non_default.clone(),
            tables,
        })
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Set up [`SETUP_REPEATS`] times, keep the last rig, report the median.
fn setup_repeatedly(workload: Workload, scratch: &Path) -> DbResult<(Rig, Metric)> {
    let mut rig = Rig::setup(workload, scratch)?;
    let mut times = vec![rig.setup_ns];
    for _ in 1..SETUP_REPEATS {
        drop(rig);
        rig = Rig::setup(workload, scratch)?;
        times.push(rig.setup_ns);
    }
    let median_s = median(times).unwrap_or(0) as f64 / 1e9;
    Ok((
        rig,
        Metric::gated("setup_s", median_s).with_samples(SETUP_REPEATS),
    ))
}

/// The end-to-end run: tracing off, the gated metrics.
pub fn end_to_end(
    workload: Workload,
    seed: u64,
    windows: Windows,
    scratch: &Path,
) -> DbResult<Outcome> {
    std::thread::sleep(windows.settle);
    let (rig, setup) = setup_repeatedly(workload, scratch)?;
    let mut run = Run::new(&rig, workload, Schedule::new(workload, seed));
    run.window(windows.warmup)?;
    let w = run.window(windows.measured)?;

    let refresh = w.refresh();
    let commit = Summary::of(
        w.commits
            .iter()
            .filter_map(|c| c.acked_ns.map(|a| a - c.due_ns))
            .collect(),
    );
    let late = w.lateness();
    let metrics = vec![
        Metric::gated("refresh_p50_us", us(refresh.p50)).with_samples(refresh.count),
        Metric::gated("commit_p50_us", us(commit.p50)).with_samples(commit.count),
        Metric::gated("commits_per_s", w.commits_per_s()).with_samples(w.acked() as usize),
        Metric::gated("wire_bytes_per_commit", w.per_commit(w.counts.wire_bytes))
            .with_samples(w.acked() as usize),
        setup,
    ];
    let mut reported = vec![
        Metric::new("refresh_p95_us", "us", us(refresh.p95)).with_samples(refresh.count),
        Metric::new("commit_p95_us", "us", us(commit.p95)).with_samples(commit.count),
        Metric::new(
            "gen_late_p99_us",
            "us",
            us(percentile(&late, 99.0).unwrap_or(0)),
        )
        .with_samples(late.len()),
    ];
    if let Some((p, value)) = refresh.tail {
        reported.push(
            Metric::new("refresh_tail_us", "us", us(value))
                .with_percentile(p)
                .with_samples(refresh.count),
        );
    }
    if workload.pacing() == Pacing::Closed {
        let last =
            |f: fn(&Issued) -> Option<u64>| w.commits.iter().filter_map(f).max().unwrap_or(0);
        reported.push(Metric::new(
            "drain_ms",
            "ms",
            last(|c| c.shown_ns).saturating_sub(last(|c| c.acked_ns)) as f64 / 1e6,
        ));
    }
    run.finish(false, &w, metrics, reported, Vec::new())
}

/// What `sweep` needs of one short run at a given pacing.
pub struct Probe {
    pub refresh: Summary,
    pub commits_per_s: f64,
    pub gen_late_p99_us: f64,
    pub failed: u64,
}

/// Warm up, then drive `workload`'s display at `pacing` for one window.
pub fn probe(
    workload: Workload,
    seed: u64,
    pacing: Pacing,
    windows: Windows,
    scratch: &Path,
) -> DbResult<Probe> {
    std::thread::sleep(windows.settle);
    let rig = Rig::setup(workload, scratch)?;
    let mut run = Run::new(
        &rig,
        workload,
        Schedule::with_pacing(workload, seed, pacing),
    );
    run.window(windows.warmup)?;
    let w = run.window(windows.measured)?;
    Ok(Probe {
        refresh: w.refresh(),
        commits_per_s: w.commits_per_s(),
        gen_late_p99_us: us(percentile(&w.lateness(), 99.0).unwrap_or(0)),
        failed: w.unacked + w.unseen,
    })
}

/// Slices the traced run cuts its measured time into, alternately
/// untraced and traced, so that drift of the machine over the run falls
/// on both halves alike.
const TRACE_SLICES: u32 = 8;

/// The traced run: the direct-call layer costs, then untraced and traced
/// slices of the measured time in alternation.
pub fn per_layer(
    workload: Workload,
    seed: u64,
    windows: Windows,
    scratch: &Path,
) -> DbResult<Outcome> {
    std::thread::sleep(windows.settle);
    let mut metrics = layers::measure(scratch)?;

    let rig = Rig::setup(workload, scratch)?;
    let mut run = Run::new(&rig, workload, Schedule::new(workload, seed));
    run.window(windows.warmup)?;
    let (mut plain, mut traced) = (Window::default(), Window::default());
    trace::clear();
    for slice in 0..TRACE_SLICES {
        let tracing = slice % 2 == 1;
        if tracing {
            trace::enable(tracepass::RING_CAPACITY);
        }
        let window = run.window(windows.measured / TRACE_SLICES);
        trace::disable();
        if tracing { &mut traced } else { &mut plain }.absorb(window?);
    }
    let breakdown = tracepass::analyse(&trace::events(), &traced.commits);
    trace::clear();

    let untraced_p50 = plain.refresh().p50;
    for ((p50_name, p95_name), gap) in GAPS.iter().zip(&breakdown.gaps) {
        metrics.push(Metric::new(p50_name, "us", us(gap.p50)).with_samples(gap.count));
        metrics.push(Metric::new(p95_name, "us", us(gap.p95)).with_samples(gap.count));
    }
    let both = plain.counts.zip(&traced.counts, |a, b| a + b);
    let counts = &plain.counts;
    metrics.extend([
        Metric::new(
            "batch_events_per_frame",
            "ratio",
            both.notifications_in as f64 / both.notify_frames.max(1) as f64,
        ),
        Metric::new(
            "coalesced_share",
            "ratio",
            both.coalesced as f64 / both.enqueued.max(1) as f64,
        ),
        Metric::new("pre_commit_us", "us", us(breakdown.pre_commit.p50))
            .with_samples(breakdown.pre_commit.count),
        Metric::new(
            "apply_to_display_us",
            "us",
            us(breakdown.apply_to_display.p50),
        )
        .with_samples(breakdown.apply_to_display.count),
        Metric::new("traced_refresh_p50_us", "us", us(breakdown.refresh.p50))
            .with_samples(breakdown.refresh.count),
        Metric::new("budget_residual_pct", "%", breakdown.residual_pct()),
        Metric::new(
            "trace_overhead_pct",
            "%",
            tracepass::overhead_pct(breakdown.refresh.p50, untraced_p50),
        ),
        Metric::new(
            "cpu_us_per_commit",
            "us",
            plain.per_commit(counts.usage.cpu_us),
        ),
        Metric::new(
            "allocs_per_commit",
            "count",
            plain.per_commit(counts.usage.allocs),
        ),
        Metric::new(
            "alloc_bytes_per_commit",
            "bytes",
            plain.per_commit(counts.usage.alloc_bytes),
        ),
        Metric::new(
            "threads_peak",
            "count",
            plain.threads_peak.max(traced.threads_peak) as f64,
        ),
        Metric::new(
            "server_reads_per_commit",
            "ratio",
            plain.per_commit(counts.server_reads),
        ),
        Metric::new(
            "delta_fallbacks_per_commit",
            "ratio",
            plain.per_commit(counts.delta_fallbacks),
        ),
        Metric::new(
            "seglog_records_per_commit",
            "ratio",
            plain.per_commit(counts.seglog_records),
        ),
        Metric::new(
            "seglog_syncs_per_commit",
            "ratio",
            plain.per_commit(counts.seglog_syncs),
        ),
        Metric::new(
            "shards_routed",
            "count",
            counts.shard_updates.iter().filter(|&&n| n > 0).count() as f64,
        ),
    ]);
    let mut tables = vec![breakdown.table(workload.name(), untraced_p50)];
    if breakdown.mispaired > 0 {
        tables.push(format!(
            "  note: {} traces could not be paired with their commit and were left out",
            breakdown.mispaired
        ));
    }
    plain.absorb(traced);
    run.finish(true, &plain, metrics, Vec::new(), tables)
}
