//! One module per experiment; see crate docs for the claim ↔ experiment
//! mapping.

pub mod a1_double_caching;
pub mod a2_dlc_dedup;
pub mod a3_polling;
pub mod a4_conflicts;
pub mod e0_architecture;
pub mod e1_responsiveness;
pub mod e2_client_overhead;
pub mod e3_server_overhead;
pub mod e4_propagation;
pub mod e5_memory;
pub mod r1_recovery;
pub mod r2_overload;
pub mod r3_delta;
pub mod r4_replay;
pub mod r5_restart;
pub mod r6_shards;

use crate::{Scale, Table};

/// Run every experiment in order.
pub fn run_all(scale: Scale) -> Vec<Table> {
    let mut out = Vec::new();
    out.extend(e0_architecture::run(scale));
    out.extend(e1_responsiveness::run(scale));
    out.extend(e2_client_overhead::run(scale));
    out.extend(e3_server_overhead::run(scale));
    out.extend(e4_propagation::run(scale));
    out.extend(e5_memory::run(scale));
    out.extend(a1_double_caching::run(scale));
    out.extend(a2_dlc_dedup::run(scale));
    out.extend(a3_polling::run(scale));
    out.extend(a4_conflicts::run(scale));
    out.extend(r1_recovery::run(scale));
    out.extend(r2_overload::run(scale));
    out.extend(r3_delta::run(scale));
    out.extend(r4_replay::run(scale));
    out.extend(r5_restart::run(scale));
    // Last: R6 toggles the global trace sink on and off, so it must not
    // interleave with the timing-sensitive experiments above.
    out.extend(r6_shards::run(scale));
    out
}
