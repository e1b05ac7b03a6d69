//! Synthetic rank registry for the unused-rank rule: scanned as
//! `crates/common/src/sync.rs` by lock_selftest. Never compiled.

pub mod ranks {
    use super::LockRank;

    /// Named by production code in both user fixtures.
    pub const FIXTURE_USED: LockRank = LockRank::new(900, "fixture.used");
    /// Named by production code in the clean fixture only.
    pub const FIXTURE_LEFT: LockRank = LockRank::new(910, "fixture.left");

    pub const ALL: &[LockRank] = &[FIXTURE_USED, FIXTURE_LEFT];
}
