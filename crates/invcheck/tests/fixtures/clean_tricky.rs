//! Clean fixture: lock-shaped text and tight guard scopes that the
//! scanner must NOT flag. Never compiled — fed to the scanner as text by
//! lock_selftest, which asserts zero findings here.

use displaydb_common::sync::{ranks, OrderedMutex};
use std::sync::mpsc::Sender;

struct Tricky {
    pool: OrderedMutex<Vec<usize>>,
    tx: Sender<usize>,
}

impl Tricky {
    fn new(tx: Sender<usize>) -> Self {
        Self {
            pool: OrderedMutex::new(ranks::BUFFER_POOL, Vec::new()),
            tx,
        }
    }

    fn commented_out(&self) {
        // let g = self.pool.lock();
        /* let g = self.pool.lock(); self.tx.send(1).unwrap(); */
        self.tx.send(1).unwrap();
    }

    fn lock_text_in_strings(&self) {
        let raw = r#"let g = self.pool.lock(); std::thread::sleep(d);"#;
        let plain = "self.pool.lock().unwrap()";
        let nested = r##"raw with hashes: "lock()" inside"##;
        self.tx.send(raw.len() + plain.len() + nested.len()).unwrap();
    }

    fn block_scoped_guard(&self) {
        {
            let g = self.pool.lock();
            let _ = g.len();
        }
        // Guard died with its block: no finding.
        self.tx.send(2).unwrap();
    }

    fn closure_scoped_guard(&self) {
        let items = [1usize, 2, 3];
        let total: usize = items
            .iter()
            .map(|i| {
                let g = self.pool.lock();
                g.len() + i
            })
            .sum();
        // Each closure call released its guard: no finding.
        self.tx.send(total).unwrap();
    }

    fn plain_if_condition(&self) {
        // A plain `if` drops condition temporaries before the block
        // (unlike `if let`): the send must NOT flag.
        if self.pool.lock().is_empty() {
            self.tx.send(3).unwrap();
        }
    }

    fn temp_dies_at_semicolon(&self) {
        let n = self.pool.lock().len();
        self.tx.send(n).unwrap();
    }

    fn explicit_drop(&self) {
        let g = self.pool.lock();
        let n = g.len();
        drop(g);
        self.tx.send(n).unwrap();
    }
}

#[cfg(test)]
mod tests {
    // Test-only code is out of scope for the linter: even a seeded
    // violation here must not flag.
    use super::*;

    #[test]
    fn seeded_in_tests_is_skipped(t: &Tricky) {
        let g = t.pool.lock();
        t.tx.send(g.len()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
