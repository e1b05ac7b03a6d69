//! Whole-process costs: allocations, CPU time and thread count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator with two relaxed counters in front of it. Installed
/// in the benchmark binary only; the library crates never see it.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no memory the
// allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller guarantees `layout` is valid for `alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`, and this allocator only ever returns `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // block of this allocator and `new_size` is valid for `realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A reading of the process-wide counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// User + system CPU time of every thread, live or exited.
    pub cpu_us: u64,
}

impl Usage {
    pub fn now() -> Self {
        Self {
            allocs: ALLOCS.load(Ordering::Relaxed),
            alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
            cpu_us: cpu_us(),
        }
    }
}

/// Process CPU time from `/proc/self/stat` (utime + stime). The server
/// runs each request on a short-lived thread, and an exited thread's time
/// leaves `/proc/self/task/*/schedstat` but stays in this total. Counted
/// in clock ticks of 10 ms (USER_HZ is 100 on every Linux ABI), which is
/// 0.1 % of a ten-second window. 0 where `/proc` is missing.
fn cpu_us() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, where utime and stime are the 12th and 13th.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks() + ticks()) * 10_000
}

/// Live threads of this process, from `/proc/self/status`.
pub fn threads_now() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
