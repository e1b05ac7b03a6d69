//! Experiment harness reproducing the paper's evaluation (§ 4.3).
//!
//! The paper reports its evaluation as prose observations, not numbered
//! tables; each observation is reproduced here as a numbered experiment
//! (the mapping lives in `DESIGN.md`):
//!
//! | id | claim |
//! |----|-------|
//! | E0 | figs 1–3: display classes / memory hierarchy / DLM-DLC architecture are real and run end-to-end |
//! | E1 | up to 4 concurrent users + high-rate updater: responsive UI |
//! | E2 | client-side consistency maintenance overhead is very small |
//! | E3 | server-side display-lock handling overhead is a very small fraction |
//! | E4 | update propagation 1–2 s on a mid-90s LAN = 3 messages; eager shipping removes 2 of 3 |
//! | E5 | display cache 3–5× smaller than the database cache |
//! | A1 | ablation: double caching vs database-cache-only interaction latency |
//! | A2 | ablation: DLC hierarchical dedup vs display-per-client |
//! | A3 | ablation: periodic refresh vs notification-driven refresh |
//! | A4 | ablation: early-notify reduces update conflicts and aborts |
//! | R1 | robustness: supervised recovery counters + time-to-recovery for transport blips (session resume) and server restarts (fresh session) |
//! | R2 | robustness: 200 updates/s storm with one 10×-slow viewer — healthy-viewer latency isolation, bounded outbox depth, post-storm convergence via resync |
//! | R3 | projection-aware delta notifications: ≥3× fewer notification bytes than whole-object watching on a 10%-projected-attribute workload, unchanged convergence |
//! | R4 | robustness: mass-reconnect storm — cursor replay catch-up moves ≥5× fewer recovery bytes than full resync, no slower convergence |
//! | R5 | robustness: server hard-kill + restart — durable cross-restart replay moves ≥3× fewer recovery bytes than restart-resync, live cursors survive the incarnation change |
//! | R6 | scalability: 8-way sharded DLM sustains ≥3× the single-table notification throughput against a latency-modeled wire, at equal-or-better p95 and a smaller upstream share of delivery latency |
//!
//! Every experiment returns [`report::Table`]s; the `exp_*` binaries
//! print them, and `exp_all` regenerates the whole evaluation. R3–R6
//! also return their counts as [`report::Metrics`], which
//! `tests/gated_experiments.rs` asserts in tier-1. No table here is a
//! source of performance numbers: `benchmark/` is.

pub mod experiments;
pub mod fixture;
pub mod report;

pub use report::Table;

/// Scale knob: `quick` shrinks workloads for CI; full mode matches the
/// numbers recorded in `EXPERIMENTS.md`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small parameters, seconds per experiment.
    Quick,
    /// Full parameters, tens of seconds per experiment.
    Full,
}

impl Scale {
    /// Read from the `DISPLAYDB_SCALE` env var (`quick`/`full`; default
    /// full).
    pub fn from_env() -> Self {
        match std::env::var("DISPLAYDB_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            _ => Scale::Full,
        }
    }

    /// Pick between quick and full values.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}
