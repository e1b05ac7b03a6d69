//! Seeded fixture: a ranked lock-order inversion the linter MUST flag.
//! Never compiled — fed to the scanner as text by lock_selftest.

use displaydb_common::sync::{ranks, OrderedMutex};

struct Inverted {
    pool: OrderedMutex<Vec<u32>>,
    txns: OrderedMutex<u32>,
}

impl Inverted {
    fn new() -> Self {
        Self {
            pool: OrderedMutex::new(ranks::BUFFER_POOL, Vec::new()),
            txns: OrderedMutex::new(ranks::SERVER_TXNS, 0),
        }
    }

    fn inverted(&self) -> u32 {
        let pool = self.pool.lock();
        // server.txns (350) acquired under buffer.pool (530): inversion.
        let txns = self.txns.lock();
        let n = *txns + pool.len() as u32;
        drop(txns);
        drop(pool);
        n
    }

    fn correct(&self) -> u32 {
        // The same pair in declared order must NOT flag.
        let txns = self.txns.lock();
        let pool = self.pool.lock();
        *txns + pool.len() as u32
    }
}
