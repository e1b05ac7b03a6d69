//! Durability-ordering rules (family `durability`).
//!
//! The paper's commit protocol acknowledges an update only after it is
//! durable; PR 7 added the spilled seglog and crash-point harness that
//! make the ordering testable. These rules make it *checkable*:
//!
//! * `append-without-sync` / `ack-before-sync` — within each function of
//!   a commit-path storage file, every append must be dominated by a
//!   sync before any durability evidence (a frontier/cursor write or
//!   `CursorAck`) escapes. The check is intra-procedural and
//!   call-name-based: a helper whose name contains `sync` counts as a
//!   sync site, which is exactly the naming convention the storage layer
//!   follows (`sync`, `sync_inner`, `sync_data`, `fsync_dir`, …).
//! * `missing-crashpoint` — every fsync-adjacent mutation function in
//!   the seglog must carry a `crashpoint::hit` probe so the restart-test
//!   matrix can cut power at it (ALICE-style explicit crash surface).
//! * `crashpoint-coverage` — every `CrashPoint` variant must appear in
//!   production code *and* be exercised by test code. A test that
//!   iterates `CrashPoint::ALL` covers all variants (the self-test
//!   proves `ALL` is exhaustive against the compiled enum).

use crate::engine::{push, Rule, Workspace};
use crate::lockrules::Analysis;
use crate::report::rules;
use crate::source::{functions, in_regions, is_call, match_brackets, test_regions, SourceFile};
use std::collections::BTreeSet;

/// Call names that append bytes to a log on the commit path.
const APPEND: &[&str] = &["append", "append_batch", "append_record", "write_all"];

/// Call names (and the `CursorAck` constructor) that let durability
/// evidence escape: once one of these runs, a peer may observe the
/// append as durable.
const ESCAPE: &[&str] = &["advance_frontier"];

/// Mutations that must carry a crash-point probe when the function also
/// syncs (fsync-adjacent mutation sites).
const MUTATION: &[&str] = &[
    "append",
    "append_batch",
    "append_record",
    "write_all",
    "set_len",
    "remove_file",
    "create",
];

/// Whether the ordering rules apply to this file: the storage layer's
/// log/commit files.
fn ordering_scope(path: &str) -> bool {
    let name = path.rsplit('/').next().unwrap_or(path);
    name.contains("seglog") || name.contains("wal") || name == "log.rs" || name == "store.rs"
}

/// Whether the crash-point probe rule applies: the segmented log, whose
/// write path the restart-test matrix crashes into.
fn crashpoint_scope(path: &str) -> bool {
    let name = path.rsplit('/').next().unwrap_or(path);
    name.contains("seglog")
}

enum Ev {
    Append(u32, String),
    Sync,
    Escape(u32, String),
}

pub struct DurabilityRules;

impl Rule for DurabilityRules {
    fn family(&self) -> &'static str {
        "durability"
    }

    fn check(&self, ws: &Workspace, out: &mut Analysis) {
        for file in &ws.files {
            if file.is_test {
                continue;
            }
            if ordering_scope(&file.path) {
                check_ordering(file, &mut out.findings);
            }
            if crashpoint_scope(&file.path) {
                check_probes(file, &mut out.findings);
            }
        }
        check_coverage(ws, &mut out.findings);
    }
}

fn check_ordering(file: &SourceFile, out: &mut Vec<crate::report::Finding>) {
    let toks = &file.tokens;
    let close = match_brackets(toks);
    let tests = test_regions(toks, &close);
    for f in functions(toks, &close) {
        if in_regions(&tests, f.body_start) {
            continue;
        }
        let mut events: Vec<Ev> = Vec::new();
        for i in f.body_start + 1..f.body_end {
            let line = toks[i].line;
            if is_call(toks, i) {
                let name = toks[i].ident().unwrap();
                if ESCAPE.contains(&name) {
                    events.push(Ev::Escape(line, name.to_string()));
                } else if APPEND.contains(&name) {
                    events.push(Ev::Append(line, name.to_string()));
                } else if name.contains("sync") {
                    events.push(Ev::Sync);
                }
            } else if toks[i].is_ident("CursorAck") {
                events.push(Ev::Escape(line, "CursorAck".to_string()));
            }
        }
        for (a, ev) in events.iter().enumerate() {
            let Ev::Append(append_line, append_name) = ev else {
                continue;
            };
            // The first escape after this append.
            let Some((e, (esc_line, esc_name))) =
                events.iter().enumerate().skip(a + 1).find_map(|(k, ev)| {
                    if let Ev::Escape(l, n) = ev {
                        Some((k, (*l, n.clone())))
                    } else {
                        None
                    }
                })
            else {
                continue; // nothing escapes in this function
            };
            let synced_before = events[a + 1..e].iter().any(|ev| matches!(ev, Ev::Sync));
            if synced_before {
                continue;
            }
            let synced_after = events[e + 1..].iter().any(|ev| matches!(ev, Ev::Sync));
            if synced_after {
                push(
                    out,
                    rules::ACK_BEFORE_SYNC,
                    &file.path,
                    esc_line,
                    f.name.clone(),
                    esc_name,
                );
            } else {
                push(
                    out,
                    rules::APPEND_NO_SYNC,
                    &file.path,
                    *append_line,
                    f.name.clone(),
                    append_name.clone(),
                );
            }
        }
    }
}

fn check_probes(file: &SourceFile, out: &mut Vec<crate::report::Finding>) {
    let toks = &file.tokens;
    let close = match_brackets(toks);
    let tests = test_regions(toks, &close);
    for f in functions(toks, &close) {
        if in_regions(&tests, f.body_start) {
            continue;
        }
        let body = f.body_start + 1..f.body_end;
        let mut mutation = None;
        let mut syncs = false;
        let mut probed = false;
        for i in body {
            if let Some(name) = toks[i].ident() {
                if name == "crashpoint" || name == "hit" || name == "CrashPoint" {
                    probed = true;
                } else if is_call(toks, i) {
                    if MUTATION.contains(&name) && mutation.is_none() {
                        mutation = Some((toks[i].line, name.to_string()));
                    }
                    if name.contains("sync") {
                        syncs = true;
                    }
                }
            }
        }
        if let Some((line, what)) = mutation {
            if syncs && !probed {
                push(
                    out,
                    rules::MISSING_CRASHPOINT,
                    &file.path,
                    line,
                    f.name.clone(),
                    what,
                );
            }
        }
    }
}

fn check_coverage(ws: &Workspace, out: &mut Vec<crate::report::Finding>) {
    let Some(cp) = &ws.crash_points else {
        return; // no CrashPoint declaration in the scan set
    };
    let mut prod: BTreeSet<String> = BTreeSet::new();
    let mut test: BTreeSet<String> = BTreeSet::new();
    for file in &ws.files {
        // The declaring file defines the harness (and its own unit
        // tests); neither counts as usage or matrix coverage.
        if file.path == cp.file {
            continue;
        }
        let toks = &file.tokens;
        let close = match_brackets(toks);
        let tests = test_regions(toks, &close);
        for i in 0..toks.len() {
            if !toks[i].is_ident("CrashPoint")
                || !crate::source::matches_punct(toks, i + 1, ':')
                || !crate::source::matches_punct(toks, i + 2, ':')
            {
                continue;
            }
            let Some(name) = toks.get(i + 3).and_then(crate::lexer::Token::ident) else {
                continue;
            };
            if file.is_test || in_regions(&tests, i) {
                test.insert(name.to_string());
            } else {
                prod.insert(name.to_string());
            }
        }
    }
    // A test iterating `CrashPoint::ALL` exercises every variant; the
    // self-test proves ALL matches the compiled enum.
    let all_in_tests = test.contains("ALL");
    for (variant, line) in &cp.variants {
        if !prod.contains(variant) {
            push(
                out,
                rules::CRASHPOINT_COVERAGE,
                &cp.file,
                *line,
                variant.clone(),
                "production code",
            );
        }
        if !test.contains(variant) && !all_in_tests {
            push(
                out,
                rules::CRASHPOINT_COVERAGE,
                &cp.file,
                *line,
                variant.clone(),
                "the restart-test matrix",
            );
        }
    }
}
