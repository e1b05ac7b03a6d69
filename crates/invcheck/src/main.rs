//! `invcheck` CLI.
//!
//! Usage: `cargo run -p invcheck -- --workspace [--deny-warnings]
//! [--rules lock,durability,protocol,trace] [--json PATH] [--edges]
//! [--root PATH] [--allowlist PATH]`
//!
//! Scans `crates/*/src/**/*.rs` (production) plus `crates/*/tests/**`
//! and the workspace `tests/` tree (test evidence) under the workspace
//! root, parses the lock registry from `crates/common/src/sync.rs` and
//! the `CrashPoint`/`Stage` registries from their declaring files, and
//! runs all four rule families. Allowlisted findings (from
//! `invcheck.allow` at the root) are reported as allowed. Stale allowlist
//! entries are notes normally but **fail the run** under
//! `--deny-warnings`, so the allowlist can only shrink as code improves.
//! `--json PATH` writes the full findings report for CI artifacts.

use invcheck::report::{render_json_report, FAMILIES};
use invcheck::{Allowlist, Registry, ScanOptions, SourceFile, Workspace};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut allowlist_path: Option<PathBuf> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut families: Vec<String> = FAMILIES.iter().map(|s| s.to_string()).collect();
    let mut deny = false;
    let mut workspace = false;
    let mut dump_edges = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--deny-warnings" => deny = true,
            "--edges" => dump_edges = true,
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage("--root requires a path"),
            },
            "--allowlist" => match args.next() {
                Some(p) => allowlist_path = Some(PathBuf::from(p)),
                None => return usage("--allowlist requires a path"),
            },
            "--json" => match args.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => return usage("--json requires a path"),
            },
            "--rules" => match args.next() {
                Some(list) => {
                    families = list.split(',').map(|s| s.trim().to_string()).collect();
                    for f in &families {
                        if !FAMILIES.contains(&f.as_str()) {
                            return usage(&format!(
                                "unknown rule family `{f}` (expected one of {})",
                                FAMILIES.join(", ")
                            ));
                        }
                    }
                }
                None => return usage("--rules requires a comma-separated list"),
            },
            "--help" | "-h" => {
                return usage("");
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    if !workspace {
        return usage("pass --workspace to scan the workspace");
    }

    let sync_path = root.join("crates/common/src/sync.rs");
    let sync_source = match std::fs::read_to_string(&sync_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("invcheck: cannot read {}: {e}", sync_path.display());
            return ExitCode::from(2);
        }
    };
    let registry = Registry::parse(&sync_source);
    if registry.entries.is_empty() {
        eprintln!(
            "invcheck: no LockRank constants found in {}",
            sync_path.display()
        );
        return ExitCode::from(2);
    }

    // An explicit `--allowlist` must exist; the default
    // `invcheck.allow` at the root may be absent (nothing allowlisted).
    let (allowlist_path, allowlist) = match allowlist_path {
        Some(p) => match std::fs::read_to_string(&p) {
            Ok(text) => (p, Allowlist::parse(&text)),
            Err(e) => {
                eprintln!("invcheck: cannot read {}: {e}", p.display());
                return ExitCode::from(2);
            }
        },
        None => {
            let p = root.join("invcheck.allow");
            let allowlist = std::fs::read_to_string(&p)
                .map(|text| Allowlist::parse(&text))
                .unwrap_or_default();
            (p, allowlist)
        }
    };

    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = match std::fs::read_dir(&crates_dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect(),
        Err(e) => {
            eprintln!("invcheck: cannot read {}: {e}", crates_dir.display());
            return ExitCode::from(2);
        }
    };
    crate_dirs.sort();
    for dir in crate_dirs {
        // The linter's own sources carry rule needles and seeded
        // fixtures; scanning them is pure noise.
        if dir.file_name().is_some_and(|n| n == "invcheck") {
            continue;
        }
        collect_rs(&dir.join("src"), &root, &mut files);
        collect_rs(&dir.join("tests"), &root, &mut files);
    }
    // The workspace-level integration tests are the restart-test matrix
    // the crash-point coverage rule consults.
    collect_rs(&root.join("tests"), &root, &mut files);

    let sources: Vec<SourceFile> = files
        .iter()
        .map(|(p, text)| SourceFile::new(p.clone(), text.as_str()))
        .collect();
    let ws = Workspace::new(&sync_source, sources, ScanOptions::default());
    let family_refs: Vec<&str> = families.iter().map(|s| s.as_str()).collect();
    let analysis = invcheck::run(&ws, &family_refs);

    if dump_edges {
        for (a, b) in &analysis.edges {
            println!("edge: {a} -> {b}");
        }
    }

    let mut used = vec![false; allowlist.entries.len()];
    let mut denied: Vec<&invcheck::Finding> = Vec::new();
    let mut allowed: Vec<&invcheck::Finding> = Vec::new();
    for f in &analysis.findings {
        match allowlist.matches(f) {
            Some(idx) => {
                used[idx] = true;
                allowed.push(f);
            }
            None => {
                denied.push(f);
                print!("{}", f.render());
            }
        }
    }
    let stale: Vec<_> = allowlist
        .entries
        .iter()
        .enumerate()
        .filter(|(idx, _)| !used[*idx])
        .map(|(_, e)| e)
        .collect();
    for entry in &stale {
        eprintln!(
            "{}: stale allowlist entry at {}:{} ({}:{}:{}) matches no finding",
            if deny { "error" } else { "note" },
            allowlist_path.display(),
            entry.line,
            entry.rule,
            entry.path,
            entry.needle
        );
    }

    if let Some(p) = &json_path {
        let doc = render_json_report(&denied, &allowed, &stale);
        if let Err(e) = std::fs::write(p, doc) {
            eprintln!("invcheck: cannot write {}: {e}", p.display());
            return ExitCode::from(2);
        }
    }

    println!(
        "invcheck: {} file(s), {} lock(s) in registry, families [{}], {} finding(s) ({} allowlisted)",
        files.len(),
        registry.entries.len(),
        families.join(","),
        denied.len() + allowed.len(),
        allowed.len()
    );
    if deny && (!denied.is_empty() || !stale.is_empty()) {
        eprintln!(
            "invcheck: {} unallowlisted finding(s), {} stale allowlist entr(ies) with --deny-warnings",
            denied.len(),
            stale.len()
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// Recursively collect `.rs` files under `dir` as repo-relative paths,
/// skipping any `fixtures/` directory.
fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = rd.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            collect_rs(&p, root, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            if let Ok(text) = std::fs::read_to_string(&p) {
                let rel = p
                    .strip_prefix(root)
                    .unwrap_or(&p)
                    .to_string_lossy()
                    .replace('\\', "/");
                out.push((rel, text));
            }
        }
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("invcheck: {err}");
    }
    eprintln!(
        "usage: invcheck --workspace [--deny-warnings] [--rules LIST] [--json PATH] [--edges] \
         [--root PATH] [--allowlist PATH]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
