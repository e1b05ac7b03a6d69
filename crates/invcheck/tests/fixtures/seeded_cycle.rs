//! Seeded fixture: an acquisition cycle between two locks the registry
//! cannot rank (plain parking_lot-style mutexes). Never compiled — fed
//! to the scanner as text by lock_selftest.

use parking_lot::Mutex;

struct Cycle {
    alpha: Mutex<u32>,
    beta: Mutex<u32>,
}

impl Cycle {
    fn forward(&self) -> u32 {
        let a = self.alpha.lock();
        let b = self.beta.lock();
        *a + *b
    }

    fn backward(&self) -> u32 {
        // Opposite order to forward(): alpha <-> beta cycle. MUST flag.
        let b = self.beta.lock();
        let a = self.alpha.lock();
        *a + *b
    }
}
