//! Self-test for the lock rule family: seeded violations must flag,
//! tricky-but-clean code must not, and the parsed registry must match
//! the compiled-in `displaydb_common::sync::ranks` table.

use displaydb_common::sync::ranks;
use invcheck::report::rules;
use invcheck::{check_sources, Allowlist, Finding, Registry, ScanOptions};

const SYNC_SOURCE: &str = include_str!("../../common/src/sync.rs");

fn run(path: &str, fixture: &str) -> Vec<Finding> {
    check_sources(
        SYNC_SOURCE,
        &[(path.to_string(), fixture.to_string())],
        &ScanOptions::default(),
    )
    .findings
}

#[test]
fn registry_parse_matches_compiled_ranks() {
    let registry = Registry::parse(SYNC_SOURCE);
    let compiled: Vec<_> = ranks::ALL
        .iter()
        .filter(|r| !r.name().starts_with("test."))
        .collect();
    assert_eq!(
        registry.entries.len(),
        compiled.len(),
        "parsed registry and ranks::ALL disagree on lock count"
    );
    for lr in &compiled {
        let entry = registry
            .entries
            .iter()
            .find(|e| e.name == lr.name())
            .unwrap_or_else(|| panic!("rank '{}' missing from parsed registry", lr.name()));
        assert_eq!(entry.rank, lr.rank(), "rank mismatch for '{}'", lr.name());
        assert_eq!(
            entry.multi,
            lr.is_multi(),
            "multi mismatch for '{}'",
            lr.name()
        );
    }
    // The reverse direction, explicitly: every constant parsed out of
    // sync.rs must be registered in ranks::ALL. (The count equality
    // above implies it, but a missing+extra pair would cancel out —
    // this names the drifted lock.)
    for entry in &registry.entries {
        assert!(
            ranks::ALL.iter().any(|lr| lr.name() == entry.name),
            "lock '{}' is declared in sync.rs but missing from ranks::ALL",
            entry.name
        );
    }
}

#[test]
fn registry_covers_post_pr5_and_pr7_ranks() {
    // Drift guard for the seglog and trace-sink ranks: the parser must
    // see them at their declared positions, not silently skip them.
    let registry = Registry::parse(SYNC_SOURCE);
    for (name, rank) in [("storage.seglog", 515u16), ("trace.sink", 700)] {
        let entry = registry
            .entries
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("parsed registry is missing '{name}'"));
        assert_eq!(entry.rank, rank, "unexpected rank for '{name}'");
    }
}

#[test]
fn registry_covers_dlm_shard_ranks() {
    // The DLM's per-shard table and log ranks (DESIGN.md § 16). Checked
    // in both directions by name: the parser must see them in sync.rs
    // with their multi-instance marking (every shard holds its own
    // copy), and the compiled ranks::ALL must register them — a drift
    // on either side names the lock here instead of failing the blanket
    // count assertion.
    let registry = Registry::parse(SYNC_SOURCE);
    for (name, rank) in [("dlm.table", 380u16), ("dlm.update_log", 385)] {
        let entry = registry
            .entries
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("parsed registry is missing '{name}'"));
        assert_eq!(entry.rank, rank, "unexpected rank for '{name}'");
        assert!(
            entry.multi,
            "'{name}' must be multi-instance: one per shard"
        );
        let compiled = ranks::ALL
            .iter()
            .find(|lr| lr.name() == name)
            .unwrap_or_else(|| panic!("ranks::ALL is missing '{name}'"));
        assert_eq!(compiled.rank(), rank);
        assert!(compiled.is_multi());
    }
    // table → log → outbox ordering stays provable.
    let rank_of = |name: &str| {
        ranks::ALL
            .iter()
            .find(|lr| lr.name() == name)
            .unwrap_or_else(|| panic!("ranks::ALL is missing '{name}'"))
            .rank()
    };
    assert!(rank_of("dlm.table") < rank_of("dlm.update_log"));
    assert!(rank_of("dlm.update_log") < rank_of("dlm.agent_sessions"));
    assert!(rank_of("dlm.agent_sessions") < rank_of("outbox.state"));
    assert_eq!(ranks::ALL.len(), 29);
}

#[test]
fn seeded_inversion_is_flagged_once() {
    let findings = run(
        "crates/storage/src/seeded_inversion.rs",
        include_str!("fixtures/seeded_inversion.rs"),
    );
    let orders: Vec<_> = findings.iter().filter(|f| f.rule == rules::ORDER).collect();
    assert_eq!(
        orders.len(),
        1,
        "expected exactly the seeded inversion, got: {findings:?}"
    );
    assert_eq!(orders[0].lock, "buffer.pool");
    assert_eq!(orders[0].detail, "server.txns");
    // correct() acquires the same pair in declared order — the single
    // finding above proves it did not flag.
}

#[test]
fn seeded_blocking_is_flagged() {
    let findings = run(
        "crates/server/src/seeded_blocking.rs",
        include_str!("fixtures/seeded_blocking.rs"),
    );
    let blocking: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == rules::BLOCKING)
        .collect();
    assert_eq!(
        blocking.len(),
        3,
        "expected send, sleep, and scrutinee-send, got: {findings:?}"
    );
    assert!(
        blocking.iter().all(|f| f.lock == "session.acks"),
        "wrong lock: {blocking:?}"
    );
    assert!(blocking.iter().any(|f| f.detail == "tx.send"));
    assert!(blocking.iter().any(|f| f.detail == "sleep"));
    // Two sends flagged: the let-bound guard and the if-let scrutinee.
    assert_eq!(
        blocking.iter().filter(|f| f.detail == "tx.send").count(),
        2,
        "scrutinee-extension send not flagged: {blocking:?}"
    );
    // take_then_send releases before sending: exactly 3, not 4.
}

#[test]
fn seeded_poison_is_flagged_on_request_paths_only() {
    let fixture = include_str!("fixtures/seeded_poison.rs");
    let on_server = run("crates/server/src/seeded_poison.rs", fixture);
    let poisons: Vec<_> = on_server
        .iter()
        .filter(|f| f.rule == rules::POISON)
        .collect();
    assert_eq!(
        poisons.len(),
        2,
        "expected unwrap + expect findings, got: {on_server:?}"
    );
    assert!(poisons.iter().any(|f| f.detail.contains("unwrap")));
    assert!(poisons.iter().any(|f| f.detail.contains("expect")));

    // The same source outside server/dlm/lockmgr is not a request path.
    let on_display = run("crates/display/src/seeded_poison.rs", fixture);
    assert!(
        on_display.iter().all(|f| f.rule != rules::POISON),
        "poison rule must not apply outside request paths: {on_display:?}"
    );
}

#[test]
fn seeded_cycle_is_flagged() {
    let findings = run(
        "crates/display/src/seeded_cycle.rs",
        include_str!("fixtures/seeded_cycle.rs"),
    );
    let cycles: Vec<_> = findings.iter().filter(|f| f.rule == rules::CYCLE).collect();
    assert_eq!(cycles.len(), 1, "expected one cycle, got: {findings:?}");
    assert!(cycles[0].detail.contains("seeded_cycle.alpha"));
    assert!(cycles[0].detail.contains("seeded_cycle.beta"));
}

#[test]
fn clean_tricky_code_is_not_flagged() {
    let findings = run(
        "crates/server/src/clean_tricky.rs",
        include_str!("fixtures/clean_tricky.rs"),
    );
    assert!(
        findings.is_empty(),
        "clean fixture produced findings: {findings:?}"
    );
}

/// Scan `fixture` at `path` beside a synthetic rank registry scanned as
/// the declaring file, which opts the workspace into the unused-rank
/// rule.
fn run_with_rank_decl(path: &str, fixture: &str) -> Vec<Finding> {
    let decl = include_str!("fixtures/rank_decl.rs");
    check_sources(
        decl,
        &[
            ("crates/common/src/sync.rs".to_string(), decl.to_string()),
            (path.to_string(), fixture.to_string()),
        ],
        &ScanOptions::default(),
    )
    .findings
}

#[test]
fn a_rank_named_only_by_tests_is_unused() {
    let findings = run_with_rank_decl(
        "crates/client/src/seeded_unused_rank.rs",
        include_str!("fixtures/seeded_unused_rank.rs"),
    );
    assert_eq!(findings.len(), 1, "expected one finding, got: {findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, rules::UNUSED_RANK);
    assert_eq!(
        (f.lock.as_str(), f.detail.as_str()),
        ("fixture.left", "FIXTURE_LEFT")
    );
    // Reported where the rank is declared.
    assert_eq!((f.file.as_str(), f.line), ("crates/common/src/sync.rs", 10));
}

#[test]
fn ranks_named_by_production_code_are_not_unused() {
    let findings = run_with_rank_decl(
        "crates/client/src/clean_unused_rank.rs",
        include_str!("fixtures/clean_unused_rank.rs"),
    );
    assert!(findings.is_empty(), "clean fixture produced: {findings:?}");
    // Without the declaring file in the scan set the rule stays quiet.
    let alone = run(
        "crates/client/src/seeded_unused_rank.rs",
        include_str!("fixtures/seeded_unused_rank.rs"),
    );
    assert!(alone.is_empty(), "no registry file, yet: {alone:?}");
}

#[test]
fn allowlist_matches_and_reports_stale() {
    let allow = Allowlist::parse(
        "# comment\n\
         blocking-under-guard:crates/wire/src/transport.rs:wire.writer\n\
         poison-unwrap:crates/nowhere/:\n",
    );
    assert_eq!(allow.entries.len(), 2);
    let hit = Finding {
        rule: rules::BLOCKING,
        file: "crates/wire/src/transport.rs".into(),
        line: 90,
        lock: "wire.writer".into(),
        detail: "write_frame".into(),
    };
    assert_eq!(allow.matches(&hit), Some(0));
    let miss = Finding {
        rule: rules::BLOCKING,
        file: "crates/dlm/src/outbox.rs".into(),
        line: 1,
        lock: "outbox.state".into(),
        detail: "send".into(),
    };
    assert_eq!(allow.matches(&miss), None);
}

#[test]
fn design_doc_lists_every_rank() {
    let design = include_str!("../../../DESIGN.md");
    for lr in ranks::ALL {
        if lr.name().starts_with("test.") {
            continue;
        }
        assert!(
            design.contains(lr.name()),
            "DESIGN.md §11 is missing lock '{}'",
            lr.name()
        );
    }
}
