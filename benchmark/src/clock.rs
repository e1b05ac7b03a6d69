//! The benchmark's clock: the trace module's, so generator times, viewer
//! observations and trace stage stamps share one epoch.

pub use displaydb_common::trace::now_ns;
use std::time::Duration;

/// Block until the clock reads `target_ns`: sleep to within `spin_ns` of
/// it, then yield-spin the remainder.
pub fn sleep_then_spin_until(target_ns: u64, spin_ns: u64) {
    let now = now_ns();
    if target_ns > now + spin_ns {
        std::thread::sleep(Duration::from_nanos(target_ns - now - spin_ns));
    }
    while now_ns() < target_ns {
        std::thread::yield_now();
    }
}
