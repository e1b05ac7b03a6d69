//! The traced pass: stage stamps from `common::trace`, joined to the
//! generator's and the viewer's own clock readings, as a latency budget.

use crate::drive::Issued;
use crate::stats::Summary;
use displaydb_common::trace::{Stage, TraceEvent};
use std::collections::HashMap;

/// Ring capacity for a traced pass: seven stamps per commit, so 150 000
/// commits — the traced half of the longest (60 s) closed-loop run.
pub const RING_CAPACITY: usize = 1 << 20;

/// The six gaps between the seven stages, with their metric names
/// (median, 95th percentile).
pub const GAPS: [(&str, &str); 6] = [
    ("stage_commit_intersect_us", "stage_commit_intersect_p95_us"),
    (
        "stage_intersect_enqueue_us",
        "stage_intersect_enqueue_p95_us",
    ),
    ("stage_enqueue_drain_us", "stage_enqueue_drain_p95_us"),
    ("stage_drain_send_us", "stage_drain_send_p95_us"),
    ("stage_send_recv_us", "stage_send_recv_p95_us"),
    ("stage_recv_apply_us", "stage_recv_apply_p95_us"),
];

pub struct Breakdown {
    /// Intended start → `commit` stage stamp.
    pub pre_commit: Summary,
    /// Stage `i` → stage `i + 1`, in [`GAPS`] order.
    pub gaps: [Summary; 6],
    /// `dlc_apply` stamp → the viewer thread observes the value.
    pub apply_to_display: Summary,
    /// Intended start → observed, over the traced commits.
    pub refresh: Summary,
    /// Traces whose `commit` stamp fell outside their commit's own
    /// begin..ack interval: the id ↔ commit pairing is then wrong.
    pub mispaired: usize,
}

/// Pair trace ids with the traced `commits` and take the gaps.
///
/// Only the updater mints trace ids while the pass runs, one per commit
/// and in commit order, so the k-th smallest id belongs to the k-th
/// traced commit; the `commit` stamp, taken at the server between
/// the updater's begin and its acknowledgement, checks each pairing.
pub fn analyse(events: &[TraceEvent], commits: &[Issued]) -> Breakdown {
    // Earliest stamp per (trace, stage): an update fanned out to several
    // shards or sinks stamps a stage more than once.
    let mut stamps: HashMap<u64, [Option<u64>; 7]> = HashMap::new();
    for event in events {
        let slot = &mut stamps.entry(event.trace).or_default()[stage_index(event.stage)];
        *slot = Some(slot.map_or(event.t_ns, |t| t.min(event.t_ns)));
    }
    let base = stamps.keys().copied().min().unwrap_or(0);

    let mut pre_commit = Vec::new();
    let mut gaps: [Vec<u64>; 6] = Default::default();
    let mut apply_to_display = Vec::new();
    let mut refresh = Vec::new();
    let mut mispaired = 0;
    for (offset, issued) in commits.iter().enumerate() {
        let shown = issued.shown_ns;
        if let Some(shown) = shown {
            refresh.push(shown.saturating_sub(issued.due_ns));
        }
        let Some(stages) = stamps.get(&(base + offset as u64)) else {
            continue;
        };
        let Some(commit) = stages[0] else { continue };
        if commit < issued.begun_ns || issued.acked_ns.is_some_and(|acked| commit > acked) {
            mispaired += 1;
            continue;
        }
        pre_commit.push(commit.saturating_sub(issued.due_ns));
        for (i, gap) in gaps.iter_mut().enumerate() {
            if let (Some(from), Some(to)) = (stages[i], stages[i + 1]) {
                gap.push(to.saturating_sub(from));
            }
        }
        if let (Some(applied), Some(shown)) = (stages[6], shown) {
            apply_to_display.push(shown.saturating_sub(applied));
        }
    }
    Breakdown {
        pre_commit: Summary::of(pre_commit),
        gaps: gaps.map(Summary::of),
        apply_to_display: Summary::of(apply_to_display),
        refresh: Summary::of(refresh),
        mispaired,
    }
}

fn stage_index(stage: Stage) -> usize {
    Stage::ALL
        .iter()
        .position(|&s| s == stage)
        .expect("Stage::ALL lists every stage")
}

impl Breakdown {
    /// Sum of the rows' medians, in nanoseconds.
    pub fn accounted_ns(&self) -> u64 {
        self.pre_commit.p50
            + self.gaps.iter().map(|g| g.p50).sum::<u64>()
            + self.apply_to_display.p50
    }

    /// Traced refresh median minus the rows' medians, as a share of the
    /// former. Medians do not add, so some residual is expected.
    pub fn residual_pct(&self) -> f64 {
        if self.refresh.p50 == 0 {
            return 0.0;
        }
        (self.refresh.p50 as f64 - self.accounted_ns() as f64) / self.refresh.p50 as f64 * 100.0
    }

    /// The latency-budget table.
    pub fn table(&self, workload: &str, untraced_refresh_p50_ns: u64) -> String {
        let us = |ns: u64| ns as f64 / 1e3;
        let mut rows = vec![("pre_commit_us", &self.pre_commit)];
        rows.extend(GAPS.iter().map(|g| g.0).zip(&self.gaps));
        rows.push(("apply_to_display_us", &self.apply_to_display));
        let mut out = format!(
            "  latency budget, {workload} (traced pass)\n    {:<30} {:>10} {:>10} {:>8}\n",
            "row", "p50 us", "p95 us", "n"
        );
        for (name, s) in rows {
            out += &format!(
                "    {name:<30} {:>10.1} {:>10.1} {:>8}\n",
                us(s.p50),
                us(s.p95),
                s.count
            );
        }
        out += &format!(
            "    {:<30} {:>10.1}\n    {:<30} {:>10.1} {:>10.1} {:>8}\n    {:<30} {:>10.1}   ({:+.1} % of traced refresh_p50_us)\n    {:<30} {:>10.1}   (trace_overhead_pct {:+.1} %)",
            "sum of rows",
            us(self.accounted_ns()),
            "traced refresh_p50_us",
            us(self.refresh.p50),
            us(self.refresh.p95),
            self.refresh.count,
            "residual",
            us(self.refresh.p50) - us(self.accounted_ns()),
            self.residual_pct(),
            "untraced refresh_p50_us",
            us(untraced_refresh_p50_ns),
            overhead_pct(self.refresh.p50, untraced_refresh_p50_ns),
        );
        out
    }
}

/// Traced vs untraced refresh median, percent.
pub fn overhead_pct(traced_ns: u64, untraced_ns: u64) -> f64 {
    if untraced_ns == 0 {
        return 0.0;
    }
    (traced_ns as f64 - untraced_ns as f64) / untraced_ns as f64 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::Issued;

    #[test]
    fn gaps_telescope_and_pair_by_order() {
        // Two commits; ids 10 and 11 (the ids' base is arbitrary).
        let stamp = |trace, stage, t_ns| TraceEvent { trace, stage, t_ns };
        let mut events = Vec::new();
        for (trace, t0) in [(10u64, 1_000u64), (11, 11_000)] {
            for (i, &stage) in Stage::ALL.iter().enumerate() {
                events.push(stamp(trace, stage, t0 + 100 * (i as u64 + 1)));
            }
        }
        // A later duplicate stamp of one stage must not win.
        events.push(stamp(10, Stage::Intersect, 9_999));
        let commits = [
            Issued {
                index: 0,
                due_ns: 1_000,
                begun_ns: 1_010,
                acked_ns: Some(1_900),
                shown_ns: Some(1_800),
            },
            Issued {
                index: 1,
                due_ns: 11_000,
                begun_ns: 11_010,
                acked_ns: Some(11_900),
                shown_ns: Some(11_800),
            },
        ];
        let b = analyse(&events, &commits);
        assert_eq!(b.mispaired, 0);
        assert_eq!(b.pre_commit.p50, 100);
        assert!(b.gaps.iter().all(|g| g.p50 == 100 && g.count == 2));
        assert_eq!(b.apply_to_display.p50, 100);
        assert_eq!(b.refresh.p50, 800);
        assert_eq!(b.accounted_ns(), 800);
        assert_eq!(b.residual_pct(), 0.0);
    }

    #[test]
    fn a_commit_stamp_outside_its_commit_is_mispaired() {
        let events = [TraceEvent {
            trace: 5,
            stage: Stage::Commit,
            t_ns: 50,
        }];
        let commits = [Issued {
            index: 0,
            due_ns: 100,
            begun_ns: 100,
            acked_ns: Some(200),
            shown_ns: None,
        }];
        assert_eq!(analyse(&events, &commits).mispaired, 1);
    }
}
