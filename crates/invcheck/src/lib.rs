//! Workspace invariant linter.
//!
//! A pluggable rule engine over a hand-rolled lexer and token-stream
//! scanner. Four rule families:
//!
//! * **lock** — the hierarchy/blocking/poison rules and unused ranks
//!   (DESIGN.md §11), keyed by the rank registry parsed from
//!   `common/src/sync.rs`;
//! * **durability** — commit-path appends must be synced before any
//!   ack/frontier/cursor write escapes; fsync-adjacent mutations carry
//!   crash-point probes; every `CrashPoint` variant is exercised;
//! * **protocol** — every wire-enum variant has a handler arm and
//!   encode/decode arms stay in lockstep;
//! * **trace** — each `Stage` is recorded somewhere, and never twice on
//!   one path.
//!
//! All registries are parsed from their declaring source files (never
//! duplicated), and `tests/invcheck_selftest.rs` asserts the parses
//! match the compiled enums. See DESIGN.md §15 for the engine, the
//! allowlist policy, and the intra-procedural limitations.

pub mod durability;
pub mod engine;
pub mod lexer;
pub mod lockrules;
pub mod protocol;
pub mod registry;
pub mod report;
pub mod source;
pub mod tracecov;

pub use engine::{all_rules, run, EnumRegistry, Rule, Workspace};
pub use lockrules::{analyze, Analysis, ScanOptions};
pub use registry::Registry;
pub use report::{Allowlist, Finding};
pub use source::SourceFile;

/// Lex and analyze `(path, contents)` pairs with the **lock family
/// only**, against the registry parsed from `sync_source` (the lock
/// self-tests' entry point).
pub fn check_sources(
    sync_source: &str,
    files: &[(String, String)],
    opts: &ScanOptions,
) -> Analysis {
    check_workspace(sync_source, files, &["lock"], opts)
}

/// Lex `(path, contents)` pairs into a [`Workspace`] and run the named
/// rule families. The main entry point for the CLI and the self-tests.
pub fn check_workspace(
    sync_source: &str,
    files: &[(String, String)],
    families: &[&str],
    opts: &ScanOptions,
) -> Analysis {
    let sources: Vec<SourceFile> = files
        .iter()
        .map(|(p, text)| SourceFile::new(p.clone(), text.as_str()))
        .collect();
    let ws = Workspace::new(sync_source, sources, opts.clone());
    run(&ws, families)
}
