//! Seeded violation: the lock that used `ranks::FIXTURE_LEFT` is gone
//! and only a test still names the rank. Never compiled — lock_selftest
//! expects exactly one unused-rank finding, for `fixture.left`.

use displaydb_common::sync::{ranks, OrderedMutex};

struct Kept {
    slot: OrderedMutex<u32>,
}

impl Kept {
    fn new() -> Self {
        Self {
            slot: OrderedMutex::new(ranks::FIXTURE_USED, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_test_does_not_keep_a_rank_alive() {
        let _ = OrderedMutex::new(ranks::FIXTURE_LEFT, 0);
    }
}
