//! Findings, the committed allowlist, and human-readable rendering.

/// Rule identifiers (stable strings — they key allowlist entries).
pub mod rules {
    // ---- lock family ----
    /// A lock acquired while a same-or-lower-ranked lock is held.
    pub const ORDER: &str = "lock-order-inversion";
    /// A cycle in the observed acquisition graph (unranked locks).
    pub const CYCLE: &str = "lock-order-cycle";
    /// A potentially blocking operation under a live guard.
    pub const BLOCKING: &str = "blocking-under-guard";
    /// A poison-propagating `.lock().unwrap()` on a request path.
    pub const POISON: &str = "poison-unwrap";
    /// A declared rank that no production code names.
    pub const UNUSED_RANK: &str = "unused-rank";

    // ---- durability family ----
    /// A commit-path append with no reachable sync before the function
    /// lets an ack/frontier/cursor write escape.
    pub const APPEND_NO_SYNC: &str = "append-without-sync";
    /// An ack/frontier/cursor write that escapes between an append and
    /// the sync that makes it durable.
    pub const ACK_BEFORE_SYNC: &str = "ack-before-sync";
    /// An fsync-adjacent mutation site with no `crashpoint::hit` probe.
    pub const MISSING_CRASHPOINT: &str = "missing-crashpoint";
    /// A `CrashPoint` variant not exercised by production code or by the
    /// restart-test matrix.
    pub const CRASHPOINT_COVERAGE: &str = "crashpoint-coverage";

    // ---- protocol family ----
    /// A protocol enum variant with no handler arm at its dispatch site.
    pub const UNHANDLED_VARIANT: &str = "unhandled-variant";
    /// A wire-enum variant encoded but never decoded.
    pub const ENCODE_NO_DECODE: &str = "encode-without-decode";
    /// A wire-enum variant decoded but never encoded.
    pub const DECODE_NO_ENCODE: &str = "decode-without-encode";

    // ---- trace family ----
    /// A trace stage never recorded on any notification path.
    pub const MISSING_STAGE: &str = "missing-stage";
    /// A trace stage recorded twice on one path (same block/arm).
    pub const DUPLICATE_STAGE: &str = "duplicate-stage";
}

/// The rule family a rule identifier belongs to (`lock`, `durability`,
/// `protocol`, or `trace`).
pub fn family_of(rule: &str) -> &'static str {
    match rule {
        rules::ORDER | rules::CYCLE | rules::BLOCKING | rules::POISON | rules::UNUSED_RANK => {
            "lock"
        }
        rules::APPEND_NO_SYNC
        | rules::ACK_BEFORE_SYNC
        | rules::MISSING_CRASHPOINT
        | rules::CRASHPOINT_COVERAGE => "durability",
        rules::UNHANDLED_VARIANT | rules::ENCODE_NO_DECODE | rules::DECODE_NO_ENCODE => "protocol",
        rules::MISSING_STAGE | rules::DUPLICATE_STAGE => "trace",
        _ => "unknown",
    }
}

/// All rule families, in reporting order.
pub const FAMILIES: &[&str] = &["lock", "durability", "protocol", "trace"];

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule identifier (see [`rules`]).
    pub rule: &'static str,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// The lock involved: a registry name like `conn.pending`, or a
    /// `file.receiver` key for unranked locks.
    pub lock: String,
    /// Rule-specific detail (the other lock, the blocking call, …).
    pub detail: String,
}

impl Finding {
    /// Render as a compiler-style warning line.
    pub fn render(&self) -> String {
        format!(
            "warning[{}]: {}\n  --> {}:{}\n",
            self.rule,
            self.message(),
            self.file,
            self.line
        )
    }

    /// Render as one JSON object (no external deps — hand-escaped).
    pub fn render_json(&self) -> String {
        format!(
            "{{\"rule\":{},\"family\":{},\"file\":{},\"line\":{},\"subject\":{},\"detail\":{},\"message\":{}}}",
            json_str(self.rule),
            json_str(family_of(self.rule)),
            json_str(&self.file),
            self.line,
            json_str(&self.lock),
            json_str(&self.detail),
            json_str(&self.message()),
        )
    }

    fn message(&self) -> String {
        match self.rule {
            rules::ORDER => format!(
                "acquiring '{}' while holding '{}' violates the declared hierarchy",
                self.detail, self.lock
            ),
            rules::CYCLE => format!("acquisition cycle: {}", self.detail),
            rules::BLOCKING => format!(
                "potentially blocking call `{}` while holding '{}'",
                self.detail, self.lock
            ),
            rules::POISON => format!(
                "`{}` propagates poisoning on a request path; use lock_or_recover() \
                 (or an OrderedMutex, whose lock() recovers)",
                self.detail
            ),
            rules::UNUSED_RANK => format!(
                "rank '{}' (`ranks::{}`) is named by no production code: delete it",
                self.lock, self.detail
            ),
            rules::APPEND_NO_SYNC => format!(
                "append `{}` in `{}` is never followed by a sync before the \
                 function returns durability evidence",
                self.detail, self.lock
            ),
            rules::ACK_BEFORE_SYNC => format!(
                "`{}` escapes before the sync covering the preceding append in `{}`",
                self.detail, self.lock
            ),
            rules::MISSING_CRASHPOINT => format!(
                "fsync-adjacent mutation `{}` has no crashpoint::hit() probe",
                self.lock
            ),
            rules::CRASHPOINT_COVERAGE => format!(
                "CrashPoint::{} is not exercised by {}",
                self.lock, self.detail
            ),
            rules::UNHANDLED_VARIANT => format!(
                "variant `{}` has no handler arm in {}",
                self.lock, self.detail
            ),
            rules::ENCODE_NO_DECODE => {
                format!("variant `{}` is encoded but never decoded", self.lock)
            }
            rules::DECODE_NO_ENCODE => {
                format!("variant `{}` is decoded but never encoded", self.lock)
            }
            rules::MISSING_STAGE => format!(
                "trace stage `{}` is never recorded on any notification path",
                self.lock
            ),
            rules::DUPLICATE_STAGE => format!(
                "trace stage `{}` recorded twice on one path ({})",
                self.lock, self.detail
            ),
            _ => self.detail.clone(),
        }
    }
}

/// Escape a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render the full findings report as a JSON document for CI artifacts.
///
/// `denied` are findings that fail the run; `allowed` were suppressed by
/// the committed allowlist; `stale` are allowlist entries that matched
/// nothing this run.
pub fn render_json_report(
    denied: &[&Finding],
    allowed: &[&Finding],
    stale: &[&AllowEntry],
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"denied_count\": {},\n  \"allowed_count\": {},\n  \"stale_allowlist_count\": {},\n",
        denied.len(),
        allowed.len(),
        stale.len()
    ));
    for (key, list) in [("denied", denied), ("allowed", allowed)] {
        out.push_str(&format!("  \"{key}\": [\n"));
        for (i, f) in list.iter().enumerate() {
            let sep = if i + 1 == list.len() { "" } else { "," };
            out.push_str(&format!("    {}{}\n", f.render_json(), sep));
        }
        out.push_str("  ],\n");
    }
    out.push_str("  \"stale_allowlist\": [\n");
    for (i, e) in stale.iter().enumerate() {
        let sep = if i + 1 == stale.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"line\":{},\"rule\":{},\"path\":{},\"needle\":{}}}{}\n",
            e.line,
            json_str(&e.rule),
            json_str(&e.path),
            json_str(&e.needle),
            sep
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One allowlist entry: `rule:path-suffix:needle`.
///
/// A finding is allowlisted when the rule matches exactly, the file path
/// ends with (or contains) `path-suffix`, and — if `needle` is nonempty
/// — the lock name or detail contains `needle`. Lines starting with `#`
/// and blank lines are comments.
#[derive(Clone, Debug)]
pub struct AllowEntry {
    pub rule: String,
    pub path: String,
    pub needle: String,
    /// Source line in the allowlist file (for stale-entry reporting).
    pub line: u32,
}

/// The parsed allowlist.
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parse the allowlist file contents.
    pub fn parse(text: &str) -> Allowlist {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, ':');
            let rule = parts.next().unwrap_or_default().trim().to_string();
            let path = parts.next().unwrap_or_default().trim().to_string();
            let needle = parts.next().unwrap_or_default().trim().to_string();
            entries.push(AllowEntry {
                rule,
                path,
                needle,
                line: idx as u32 + 1,
            });
        }
        Allowlist { entries }
    }

    /// The index of the first entry covering `finding`, if any.
    pub fn matches(&self, finding: &Finding) -> Option<usize> {
        self.entries.iter().position(|e| {
            e.rule == finding.rule
                && (e.path.is_empty() || finding.file.contains(&e.path))
                && (e.needle.is_empty()
                    || finding.lock.contains(&e.needle)
                    || finding.detail.contains(&e.needle))
        })
    }
}
