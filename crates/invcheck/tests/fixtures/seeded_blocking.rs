//! Seeded fixture: blocking operations under a live guard. Never
//! compiled — fed to the scanner as text by lock_selftest.

use displaydb_common::sync::{ranks, OrderedMutex};
use std::sync::mpsc::Sender;

struct Blocky {
    queue: OrderedMutex<Vec<u32>>,
    tx: Sender<u32>,
}

impl Blocky {
    fn new(tx: Sender<u32>) -> Self {
        Self {
            queue: OrderedMutex::new(ranks::SESSION_ACKS, Vec::new()),
            tx,
        }
    }

    fn send_under_guard(&self) {
        let mut q = self.queue.lock();
        // Channel send while session.acks is held: MUST flag.
        self.tx.send(q.pop().unwrap_or(0)).unwrap();
        q.clear();
    }

    fn sleep_under_guard(&self) {
        let q = self.queue.lock();
        // Sleep while the guard is live: MUST flag.
        std::thread::sleep(std::time::Duration::from_millis(q.len() as u64));
    }

    fn scrutinee_extension(&self) {
        // The guard is a temporary of the `if let` scrutinee, so Rust
        // keeps it alive through the whole block: the send MUST flag.
        if let Some(v) = self.queue.lock().pop() {
            self.tx.send(v).unwrap();
        }
    }

    fn take_then_send(&self) {
        // The fixed idiom: bind outside, send after the guard dies.
        let v = self.queue.lock().pop();
        if let Some(v) = v {
            self.tx.send(v).unwrap();
        }
    }
}
