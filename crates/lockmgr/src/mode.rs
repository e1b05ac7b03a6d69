//! Lock modes and the compatibility matrix.

use displaydb_common::{ClientId, TxnId};
use std::fmt;

/// Lock modes, ordered by strength for upgrade purposes
/// (`Shared < Update < Exclusive`; `Display` is outside the ordering).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Read lock: compatible with other reads.
    Shared,
    /// Update-intention lock: compatible with reads, conflicts with other
    /// updates/writes. Prevents the classic S→X upgrade deadlock.
    Update,
    /// Write lock: conflicts with everything except display locks.
    Exclusive,
    /// The paper's non-restrictive display lock (§ 3.3): compatible with
    /// **all** modes, including [`LockMode::Exclusive`] and itself. Holding
    /// one never blocks anybody; it only registers interest in update
    /// notifications.
    Display,
}

// The tables below are indexed by `mode as usize`, i.e. in the enum's
// declaration order S, U, X, D.
const Y: bool = true;
const N: bool = false;

/// The compatibility matrix of § 3.3, `COMPATIBLE[held][requested]`:
/// S/U/X follow the classic matrix; the `Display` row and column are the
/// paper's central claim — a display lock is compatible with every
/// mode, in both positions.
#[rustfmt::skip]
const COMPATIBLE: [[bool; 4]; 4] = [
    //             S  U  X  D   <- requested
    /* S held */ [ Y, Y, N, Y ],
    /* U held */ [ Y, N, N, Y ],
    /* X held */ [ N, N, N, Y ],
    /* D held */ [ Y, Y, Y, Y ],
];

/// `COVERS[held][requested]`: a holder of `held` needs no new lock to
/// use `requested`'s rights (`S < U < X`; `Display` is incomparable
/// with the transactional modes).
#[rustfmt::skip]
const COVERS: [[bool; 4]; 4] = [
    //             S  U  X  D   <- requested
    /* S held */ [ Y, N, N, N ],
    /* U held */ [ Y, Y, N, N ],
    /* X held */ [ Y, Y, Y, N ],
    /* D held */ [ N, N, N, Y ],
];

impl LockMode {
    /// Whether `self` (held) is at least as strong as `other` (requested),
    /// i.e. a holder of `self` needs no new lock to use `other`'s rights.
    /// Display is incomparable with the transactional modes.
    pub const fn covers(self, other: LockMode) -> bool {
        COVERS[self as usize][other as usize]
    }

    /// Short symbol used in traces and tests.
    pub fn symbol(self) -> &'static str {
        match self {
            LockMode::Shared => "S",
            LockMode::Update => "U",
            LockMode::Exclusive => "X",
            LockMode::Display => "D",
        }
    }
}

impl fmt::Display for LockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// The compatibility matrix of § 3.3: display locks are compatible with
/// every mode; S/U/X follow the classic matrix.
pub const fn compatible(held: LockMode, requested: LockMode) -> bool {
    COMPATIBLE[held as usize][requested as usize]
}

/// Who holds or requests a lock. Transactional modes are owned by
/// transactions; display locks are owned by clients, because they span
/// transaction boundaries for the lifetime of a display (§ 3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Owner {
    /// A transaction (S/U/X locks).
    Txn(TxnId),
    /// A client application (display locks).
    Client(ClientId),
}

impl Owner {
    /// The transaction id, if this owner is a transaction.
    pub fn txn(self) -> Option<TxnId> {
        match self {
            Owner::Txn(t) => Some(t),
            Owner::Client(_) => None,
        }
    }

    /// The client id, if this owner is a client.
    pub fn client(self) -> Option<ClientId> {
        match self {
            Owner::Client(c) => Some(c),
            Owner::Txn(_) => None,
        }
    }
}

impl fmt::Display for Owner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Owner::Txn(t) => write!(f, "{t}"),
            Owner::Client(c) => write!(f, "{c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LockMode::*;

    const MODES: [LockMode; 4] = [Shared, Update, Exclusive, Display];

    #[test]
    fn all_sixteen_pairs_match_the_paper() {
        for held in MODES {
            for requested in MODES {
                let pair = format!("{held} held, {requested} requested");
                // § 3.3: Display is compatible with S, U, X and itself,
                // in both positions — the defining property that lets a
                // GUI watch objects while transactions update them. The
                // rest is the classic matrix: only S/S and S/U coexist.
                let want = matches!(
                    (held, requested),
                    (Display, _)
                        | (_, Display)
                        | (Shared, Shared)
                        | (Shared, Update)
                        | (Update, Shared)
                );
                assert_eq!(compatible(held, requested), want, "{pair}");
                assert_eq!(
                    compatible(held, requested),
                    compatible(requested, held),
                    "compatibility is symmetric: {pair}"
                );
                // Strength order S < U < X; Display only covers itself.
                let strength = |m: LockMode| MODES.iter().position(|&x| x == m).unwrap();
                let want = match (held, requested) {
                    (Display, Display) => true,
                    (Display, _) | (_, Display) => false,
                    _ => strength(held) >= strength(requested),
                };
                assert_eq!(held.covers(requested), want, "{pair}");
            }
        }
    }

    #[test]
    fn owner_accessors() {
        let t = Owner::Txn(TxnId::new(3));
        let c = Owner::Client(ClientId::new(7));
        assert_eq!(t.txn(), Some(TxnId::new(3)));
        assert_eq!(t.client(), None);
        assert_eq!(c.client(), Some(ClientId::new(7)));
        assert_eq!(c.txn(), None);
    }
}
