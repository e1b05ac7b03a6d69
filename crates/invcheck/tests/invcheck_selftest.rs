//! Self-test for the durability, protocol, and trace rule families:
//! every seeded-violation fixture must flag, every tricky negative must
//! pass, and the registries invcheck parses out of source text must
//! match the compiled enums (so the linter can never drift from the
//! code it guards).

use invcheck::report::rules;
use invcheck::{check_workspace, Allowlist, Finding, ScanOptions};

const SYNC_SOURCE: &str = include_str!("../../common/src/sync.rs");

fn run(files: &[(&str, &str)], families: &[&str]) -> Vec<Finding> {
    let files: Vec<(String, String)> = files
        .iter()
        .map(|(p, t)| (p.to_string(), t.to_string()))
        .collect();
    check_workspace(SYNC_SOURCE, &files, families, &ScanOptions::default()).findings
}

// ---- durability: append/sync/escape ordering -------------------------

#[test]
fn seeded_append_without_sync_and_ack_before_sync_are_flagged() {
    let findings = run(
        &[(
            "crates/dlm/src/log.rs",
            include_str!("fixtures/seeded_durability.rs"),
        )],
        &["durability"],
    );
    let nosync: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == rules::APPEND_NO_SYNC)
        .collect();
    assert_eq!(
        nosync.len(),
        1,
        "expected one append-without-sync: {findings:?}"
    );
    assert_eq!(nosync[0].lock, "commit_unsynced");
    assert_eq!(nosync[0].detail, "append");

    let early: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == rules::ACK_BEFORE_SYNC)
        .collect();
    assert_eq!(early.len(), 1, "expected one ack-before-sync: {findings:?}");
    assert_eq!(early[0].lock, "commit_acked_early");
    assert_eq!(early[0].detail, "advance_frontier");
}

#[test]
fn sync_in_a_helper_fn_is_clean() {
    let findings = run(
        &[(
            "crates/server/src/store.rs",
            include_str!("fixtures/clean_durability.rs"),
        )],
        &["durability"],
    );
    assert!(
        findings.is_empty(),
        "clean durability fixture produced findings: {findings:?}"
    );
}

// ---- durability: crash-point probes and coverage ---------------------

#[test]
fn seeded_missing_crashpoint_is_flagged_probe_carrier_is_not() {
    let findings = run(
        &[(
            "crates/storage/src/seglog.rs",
            include_str!("fixtures/seeded_crashpoint.rs"),
        )],
        &["durability"],
    );
    let missing: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == rules::MISSING_CRASHPOINT)
        .collect();
    assert_eq!(missing.len(), 1, "expected one missing probe: {findings:?}");
    assert_eq!(missing[0].lock, "rewrite_header");
}

const CP_PROD: &str = r#"
impl SegLog {
    pub fn append(&mut self) {
        if crashpoint::hit(CrashPoint::MidAppend) {
            return;
        }
        self.file.write_all(b"x");
    }
}
"#;

#[test]
fn crashpoint_coverage_flags_unexercised_variant() {
    // MidRotation is declared but neither produced nor tested.
    let findings = run(
        &[
            (
                "crates/common/src/crashpoint.rs",
                include_str!("fixtures/crashpoint_decl.rs"),
            ),
            ("crates/storage/src/seglog.rs", CP_PROD),
            (
                "tests/crash_points.rs",
                "fn restart_mid_append() { arm(CrashPoint::MidAppend); }",
            ),
        ],
        &["durability"],
    );
    let cov: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == rules::CRASHPOINT_COVERAGE)
        .collect();
    assert_eq!(
        cov.len(),
        2,
        "expected prod+test coverage gaps: {findings:?}"
    );
    assert!(cov.iter().all(|f| f.lock == "MidRotation"));
    assert!(cov.iter().any(|f| f.detail == "production code"));
    assert!(cov.iter().any(|f| f.detail == "the restart-test matrix"));
}

#[test]
fn crashpoint_all_loop_in_tests_covers_every_variant() {
    // The restart matrix iterates CrashPoint::ALL — test coverage is
    // satisfied for all variants; only the production gap remains.
    let findings = run(
        &[
            (
                "crates/common/src/crashpoint.rs",
                include_str!("fixtures/crashpoint_decl.rs"),
            ),
            ("crates/storage/src/seglog.rs", CP_PROD),
            (
                "tests/crash_points.rs",
                "fn restart_matrix() { for point in CrashPoint::ALL { exercise(point); } }",
            ),
        ],
        &["durability"],
    );
    let cov: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == rules::CRASHPOINT_COVERAGE)
        .collect();
    assert_eq!(
        cov.len(),
        1,
        "expected only the production gap: {findings:?}"
    );
    assert_eq!(cov[0].lock, "MidRotation");
    assert_eq!(cov[0].detail, "production code");
}

// ---- protocol: handler exhaustiveness --------------------------------

#[test]
fn unhandled_variant_is_flagged_and_wildcard_does_not_count() {
    let findings = run(
        &[
            (
                "crates/dlm/src/proto.rs",
                include_str!("fixtures/seeded_proto.rs"),
            ),
            (
                "crates/client/src/dlc.rs",
                include_str!("fixtures/wildcard_handler.rs"),
            ),
        ],
        &["protocol"],
    );
    let unhandled: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == rules::UNHANDLED_VARIANT)
        .collect();
    assert_eq!(
        unhandled.len(),
        1,
        "expected one unhandled variant: {findings:?}"
    );
    assert_eq!(unhandled[0].lock, "DlmEvent::Dropped");
    assert!(unhandled[0].detail.contains("client/src/dlc.rs"));

    // The deliberate-ignore path is the allowlist, which pins the exact
    // variant — a new variant behind the same wildcard still fails.
    let allow = Allowlist::parse("unhandled-variant:crates/dlm/src/proto.rs:Dropped\n");
    assert!(allow.matches(unhandled[0]).is_some());
    let other = Finding {
        rule: rules::UNHANDLED_VARIANT,
        file: "crates/dlm/src/proto.rs".into(),
        line: 1,
        lock: "DlmEvent::Evicted".into(),
        detail: "crates/client/src/dlc.rs".into(),
    };
    assert!(allow.matches(&other).is_none());
}

#[test]
fn seeded_encode_without_decode_is_flagged() {
    let findings = run(
        &[(
            "crates/wire/src/frames.rs",
            include_str!("fixtures/seeded_codec.rs"),
        )],
        &["protocol"],
    );
    let parity: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == rules::ENCODE_NO_DECODE || f.rule == rules::DECODE_NO_ENCODE)
        .collect();
    assert_eq!(parity.len(), 1, "expected one parity gap: {findings:?}");
    assert_eq!(parity[0].rule, rules::ENCODE_NO_DECODE);
    assert_eq!(parity[0].lock, "Frame::Ping");
}

// ---- trace: stage coverage -------------------------------------------

#[test]
fn duplicate_and_missing_stage_are_flagged_per_arm_recording_is_not() {
    let findings = run(
        &[
            (
                "crates/common/src/trace.rs",
                include_str!("fixtures/trace_decl.rs"),
            ),
            (
                "crates/server/src/core.rs",
                include_str!("fixtures/seeded_trace.rs"),
            ),
        ],
        &["trace"],
    );
    let dup: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == rules::DUPLICATE_STAGE)
        .collect();
    assert_eq!(dup.len(), 1, "expected one duplicate: {findings:?}");
    assert_eq!(dup[0].lock, "Commit");

    let missing: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == rules::MISSING_STAGE)
        .collect();
    assert_eq!(missing.len(), 1, "expected one missing stage: {findings:?}");
    assert_eq!(missing[0].lock, "DlcApply");
    // WireSend is recorded once per match arm — one per path — and must
    // appear in neither list (the single dup/missing assertions above
    // prove it).
}

// ---- parsed registries match the compiled enums ----------------------

#[test]
fn parsed_crashpoint_registry_matches_compiled_enum() {
    let source = include_str!("../../common/src/crashpoint.rs");
    let files = [(
        "crates/common/src/crashpoint.rs".to_string(),
        source.to_string(),
    )];
    let sources: Vec<invcheck::SourceFile> = files
        .iter()
        .map(|(p, t)| invcheck::SourceFile::new(p.clone(), t))
        .collect();
    let ws = invcheck::Workspace::new(SYNC_SOURCE, sources, ScanOptions::default());
    let parsed = ws.crash_points.expect("CrashPoint declaration not parsed");
    let compiled: Vec<String> = displaydb_common::crashpoint::CrashPoint::ALL
        .iter()
        .map(|p| format!("{p:?}"))
        .collect();
    let names: Vec<&String> = parsed.variants.iter().map(|(v, _)| v).collect();
    assert_eq!(
        names,
        compiled.iter().collect::<Vec<_>>(),
        "parsed CrashPoint variants diverge from the compiled enum"
    );
}

#[test]
fn parsed_stage_registry_matches_compiled_enum() {
    let source = include_str!("../../common/src/trace.rs");
    let files = [("crates/common/src/trace.rs".to_string(), source.to_string())];
    let sources: Vec<invcheck::SourceFile> = files
        .iter()
        .map(|(p, t)| invcheck::SourceFile::new(p.clone(), t))
        .collect();
    let ws = invcheck::Workspace::new(SYNC_SOURCE, sources, ScanOptions::default());
    let parsed = ws.stages.expect("Stage declaration not parsed");
    let compiled: Vec<String> = displaydb_common::trace::Stage::ALL
        .iter()
        .map(|s| format!("{s:?}"))
        .collect();
    let names: Vec<&String> = parsed.variants.iter().map(|(v, _)| v).collect();
    assert_eq!(
        names,
        compiled.iter().collect::<Vec<_>>(),
        "parsed Stage variants diverge from the compiled enum"
    );
}

// The compiled-enum anchors below are wildcard-free matches: adding a
// protocol variant breaks compilation here, forcing the name list (and
// therefore the parser assertion) to be updated in the same change.

const REQUEST_VARIANTS: &[&str] = &[
    "Hello",
    "Read",
    "ReadMany",
    "Lock",
    "Create",
    "Commit",
    "Abort",
    "Extent",
    "Dlm",
    "Checkpoint",
    "Ping",
];

fn _request_anchor(r: &displaydb_server::proto::Request) -> &'static str {
    use displaydb_server::proto::Request as R;
    match r {
        R::Hello { .. } => "Hello",
        R::Read { .. } => "Read",
        R::ReadMany { .. } => "ReadMany",
        R::Lock { .. } => "Lock",
        R::Create => "Create",
        R::Commit { .. } => "Commit",
        R::Abort { .. } => "Abort",
        R::Extent { .. } => "Extent",
        R::Dlm(_) => "Dlm",
        R::Checkpoint => "Checkpoint",
        R::Ping => "Ping",
    }
}

const WRITE_FORM_VARIANTS: &[&str] = &["Put", "Patch", "Delete"];

fn _write_form_anchor(w: &displaydb_server::proto::WriteForm) -> &'static str {
    use displaydb_server::proto::WriteForm as W;
    match w {
        W::Put(_) => "Put",
        W::Patch { .. } => "Patch",
        W::Delete => "Delete",
    }
}

const DLM_REQUEST_VARIANTS: &[&str] = &[
    "Hello",
    "Lock",
    "LockProjected",
    "Release",
    "UpdateCommitted",
    "WriteIntent",
    "Resolution",
    "ReplayFrom",
];

fn _dlm_request_anchor(r: &displaydb_dlm::proto::DlmRequest) -> &'static str {
    use displaydb_dlm::proto::DlmRequest as R;
    match r {
        R::Hello { .. } => "Hello",
        R::Lock { .. } => "Lock",
        R::LockProjected { .. } => "LockProjected",
        R::Release { .. } => "Release",
        R::UpdateCommitted { .. } => "UpdateCommitted",
        R::WriteIntent { .. } => "WriteIntent",
        R::Resolution { .. } => "Resolution",
        R::ReplayFrom { .. } => "ReplayFrom",
    }
}

const DLM_EVENT_VARIANTS: &[&str] = &[
    "Updated",
    "Marked",
    "Resolved",
    "Ready",
    "ResyncRequired",
    "Delta",
    "Batch",
    "CursorAck",
    "ReplayNeeded",
];

fn _dlm_event_anchor(e: &displaydb_dlm::proto::DlmEvent) -> &'static str {
    use displaydb_dlm::proto::DlmEvent as E;
    match e {
        E::Updated { .. } => "Updated",
        E::Marked { .. } => "Marked",
        E::Resolved { .. } => "Resolved",
        E::Ready { .. } => "Ready",
        E::ResyncRequired { .. } => "ResyncRequired",
        E::Delta { .. } => "Delta",
        E::Batch { .. } => "Batch",
        E::CursorAck { .. } => "CursorAck",
        E::ReplayNeeded { .. } => "ReplayNeeded",
    }
}

const DLC_EVENT_VARIANTS: &[&str] = &["Dlm", "Degraded", "Restored"];

fn _dlc_event_anchor(e: &displaydb_client::dlc::DlcEvent) -> &'static str {
    use displaydb_client::dlc::DlcEvent as E;
    match e {
        E::Dlm { .. } => "Dlm",
        E::Degraded => "Degraded",
        E::Restored => "Restored",
    }
}

fn parsed_variants(path: &str, source: &str, enum_name: &str) -> Vec<String> {
    let file = invcheck::SourceFile::new(path.to_string(), source);
    let close = invcheck::source::match_brackets(&file.tokens);
    let decl = invcheck::source::enum_decl(&file.tokens, &close, enum_name)
        .unwrap_or_else(|| panic!("could not parse enum {enum_name} out of {path}"));
    decl.variants.into_iter().map(|(v, _)| v).collect()
}

#[test]
fn parsed_protocol_enums_match_compiled_enums() {
    let cases: [(&str, &str, &str, &[&str]); 5] = [
        (
            "crates/server/src/proto.rs",
            include_str!("../../server/src/proto.rs"),
            "Request",
            REQUEST_VARIANTS,
        ),
        (
            "crates/server/src/proto.rs",
            include_str!("../../server/src/proto.rs"),
            "WriteForm",
            WRITE_FORM_VARIANTS,
        ),
        (
            "crates/dlm/src/proto.rs",
            include_str!("../../dlm/src/proto.rs"),
            "DlmRequest",
            DLM_REQUEST_VARIANTS,
        ),
        (
            "crates/dlm/src/proto.rs",
            include_str!("../../dlm/src/proto.rs"),
            "DlmEvent",
            DLM_EVENT_VARIANTS,
        ),
        (
            "crates/client/src/dlc.rs",
            include_str!("../../client/src/dlc.rs"),
            "DlcEvent",
            DLC_EVENT_VARIANTS,
        ),
    ];
    for (path, source, enum_name, expected) in cases {
        let parsed = parsed_variants(path, source, enum_name);
        assert_eq!(
            parsed, *expected,
            "parsed {enum_name} variants diverge from the compiled enum"
        );
    }
}

// ---- the real workspace must be invariant-clean ----------------------

#[test]
fn real_protocol_and_trace_sources_are_clean() {
    // The actual proto/handler/trace files, linted in place: handler
    // exhaustiveness and codec parity must hold on the real tree (the
    // CLI checks this too, but here it runs under plain `cargo test`).
    let findings = run(
        &[
            (
                "crates/server/src/proto.rs",
                include_str!("../../server/src/proto.rs"),
            ),
            (
                "crates/server/src/core.rs",
                include_str!("../../server/src/core.rs"),
            ),
            (
                "crates/dlm/src/proto.rs",
                include_str!("../../dlm/src/proto.rs"),
            ),
            (
                "crates/dlm/src/shard.rs",
                include_str!("../../dlm/src/shard.rs"),
            ),
            (
                "crates/client/src/dlc.rs",
                include_str!("../../client/src/dlc.rs"),
            ),
            (
                "crates/display/src/view.rs",
                include_str!("../../display/src/view.rs"),
            ),
            (
                "crates/storage/src/seglog.rs",
                include_str!("../../storage/src/seglog.rs"),
            ),
            (
                "crates/storage/src/wal.rs",
                include_str!("../../storage/src/wal.rs"),
            ),
        ],
        &["protocol"],
    );
    assert!(
        findings.is_empty(),
        "real protocol sources produced findings: {findings:?}"
    );
}
