//! Seeded fixture: poison-propagating unwraps on a request path. Never
//! compiled — fed to the scanner as text by lock_selftest, which
//! presents it under a crates/server/ path (rule applies) and a
//! crates/display/ path (rule does not).

use std::collections::HashMap;
use std::sync::Mutex;

struct Poisoned {
    sessions: Mutex<HashMap<u64, String>>,
}

impl Poisoned {
    fn handle_request(&self, id: u64) -> Option<String> {
        // A panic in any other holder poisons this lock and wedges every
        // later request: MUST flag on server/dlm/lockmgr paths.
        self.sessions.lock().unwrap().get(&id).cloned()
    }

    fn handle_other(&self, id: u64) -> bool {
        self.sessions.lock().expect("sessions").contains_key(&id)
    }
}
