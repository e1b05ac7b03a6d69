//! The commit schedule: what the updater writes, where and when.
//!
//! Every commit's link, attribute and intended start derive from
//! `(seed, commit index)` alone, so the same seed gives the same inputs
//! on every run and the server only ever sees the generated commits.

use crate::workload::{Pacing, Workload};

/// Links created in set-up and watched by the viewer.
pub const LINKS: usize = 64;

/// Which `Link` attribute a commit writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Attr {
    /// Inside the viewer's projection: the commit must reach the display.
    Utilization,
    /// Outside it: the commit must not be heard by the viewer.
    ErrorRate,
}

impl Attr {
    pub fn name(self) -> &'static str {
        match self {
            Attr::Utilization => "Utilization",
            Attr::ErrorRate => "ErrorRate",
        }
    }
}

/// One generated commit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Commit {
    /// Index into the run's links.
    pub link: usize,
    pub attr: Attr,
    /// The value written: the 1-based commit index, so values are
    /// monotone per link and "display shows ≥ value" means refreshed.
    pub value: f64,
    /// Intended start, nanoseconds after the run's first commit; `None`
    /// in a closed loop, where a commit starts when the previous one ends.
    pub due_ns: Option<u64>,
}

/// SplitMix64 finaliser: a stateless hash of `(seed, stream, index)`.
fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded schedule for one workload.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    seed: u64,
    pacing: Pacing,
    /// One commit in `projected_every` writes `Utilization`.
    projected_every: u64,
}

impl Schedule {
    pub fn new(workload: Workload, seed: u64) -> Self {
        Self::with_pacing(workload, seed, workload.pacing())
    }

    /// `workload`'s commits at another pacing (the rate sweep).
    pub fn with_pacing(workload: Workload, seed: u64, pacing: Pacing) -> Self {
        Self {
            seed,
            pacing,
            projected_every: workload.projected_every(),
        }
    }

    /// The `index`-th commit of the run (0-based).
    pub fn commit(&self, index: u64) -> Commit {
        let projected = index % self.projected_every == 0;
        Commit {
            link: (mix(self.seed, 1, index) % LINKS as u64) as usize,
            attr: if projected {
                Attr::Utilization
            } else {
                Attr::ErrorRate
            },
            value: (index + 1) as f64,
            due_ns: match self.pacing {
                Pacing::Closed => None,
                Pacing::Open { per_second } => {
                    // Evenly spaced slots with a seeded offset of up to
                    // half a slot: arrivals are aperiodic, yet two never
                    // come closer than half a period, so the single
                    // updater does not queue behind itself.
                    let period = 1_000_000_000 / per_second;
                    Some(index * period + mix(self.seed, 2, index) % (period / 2))
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        for w in Workload::ALL {
            let a = Schedule::new(w, 7);
            let b = Schedule::new(w, 7);
            let c = Schedule::new(w, 8);
            let take = |s: &Schedule| (0..500).map(|i| s.commit(i)).collect::<Vec<_>>();
            assert_eq!(take(&a), take(&b));
            assert_ne!(take(&a), take(&c));
        }
    }

    #[test]
    fn open_loop_is_on_rate_and_ordered() {
        let s = Schedule::new(Workload::SteadyDelta, 1);
        let due: Vec<u64> = (0..4000).map(|i| s.commit(i).due_ns.unwrap()).collect();
        assert!(due.windows(2).all(|w| w[1] - w[0] >= 1_250_000));
        assert!((due[4000 - 1] as f64 / 1e9 - 3999.0 / 400.0).abs() < 0.002);
        assert!(Schedule::new(Workload::StormSaturate, 1)
            .commit(5)
            .due_ns
            .is_none());
    }

    #[test]
    fn durable_workload_projects_a_quarter() {
        let s = Schedule::new(Workload::UpstreamDurable, 3);
        let projected = (0..8000)
            .filter(|&i| s.commit(i).attr == Attr::Utilization)
            .count();
        assert_eq!(projected, 2000);
        let all = Schedule::new(Workload::SteadyDelta, 3);
        assert!((0..1000).all(|i| all.commit(i).attr == Attr::Utilization));
        // Every link is written, and values are the 1-based index.
        let mut seen = [false; LINKS];
        (0..2000).for_each(|i| seen[all.commit(i).link] = true);
        assert!(seen.iter().all(|&s| s));
        assert_eq!(all.commit(41).value, 42.0);
    }
}
