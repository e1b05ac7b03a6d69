//! Clean fixture: production code names every declared rank. Never
//! compiled — lock_selftest expects no unused-rank finding.

use displaydb_common::sync::{ranks, OrderedMutex};

struct Both {
    first: OrderedMutex<u32>,
    second: OrderedMutex<u32>,
}

impl Both {
    fn new() -> Self {
        Self {
            first: OrderedMutex::new(ranks::FIXTURE_USED, 0),
            second: OrderedMutex::new(ranks::FIXTURE_LEFT, 0),
        }
    }
}
