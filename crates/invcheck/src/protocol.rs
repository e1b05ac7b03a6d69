//! Protocol-exhaustiveness rules (family `protocol`).
//!
//! The display-lock protocol only works if every wire variant is both
//! round-trippable and handled: a variant the server encodes but the DLC
//! silently drops is a lost notification (the paper's consistency story
//! collapses), and an encode arm without a decode arm is a wire error
//! waiting for the first deployment skew. Two rules:
//!
//! * `unhandled-variant` — for each dispatch pair in [`DISPATCH`], every
//!   variant of the enum must be referenced (`Enum::Variant`) in the
//!   production code of its handler file. A wildcard arm does not count:
//!   deliberately ignored variants are documented in the allowlist, so
//!   adding a variant forces a decision.
//! * `encode-without-decode` / `decode-without-encode` — for every enum
//!   declared in a file that also carries `impl Encode for E` and
//!   `impl Decode for E` blocks, the variant sets referenced in the two
//!   blocks must be equal. New wire enums are picked up automatically.

use crate::engine::{push, Rule, Workspace};
use crate::lockrules::Analysis;
use crate::report::{rules, Finding};
use crate::source::{enum_decl, impl_block, in_regions, match_brackets, test_regions, SourceFile};
use std::collections::BTreeSet;

/// Dispatch table: `(enum, declaring-file suffix, handler-file suffix,
/// handler description)`. The handler file is where the protocol's
/// receive loop matches on the enum.
pub const DISPATCH: &[(&str, &str, &str)] = &[
    // Client requests are dispatched by the server core.
    ("Request", "server/src/proto.rs", "server/src/core.rs"),
    // Every form a commit's write can take is resolved by the commit path.
    ("WriteForm", "server/src/proto.rs", "server/src/core.rs"),
    // DLM requests from either deployment are dispatched by
    // `ShardedDlm::handle_request`.
    ("DlmRequest", "dlm/src/proto.rs", "dlm/src/shard.rs"),
    // DLM events are applied by the client's display-lock cache.
    ("DlmEvent", "dlm/src/proto.rs", "client/src/dlc.rs"),
    // DLC events are consumed by the display view layer.
    ("DlcEvent", "client/src/dlc.rs", "display/src/view.rs"),
];

pub struct ProtocolRules;

impl Rule for ProtocolRules {
    fn family(&self) -> &'static str {
        "protocol"
    }

    fn check(&self, ws: &Workspace, out: &mut Analysis) {
        for &(enum_name, decl_suffix, handler_suffix) in DISPATCH {
            check_dispatch(
                ws,
                enum_name,
                decl_suffix,
                handler_suffix,
                &mut out.findings,
            );
        }
        for file in &ws.files {
            if !file.is_test {
                check_codec_parity(file, &mut out.findings);
            }
        }
    }
}

/// Variant names referenced in the production code of `file` (test
/// regions excluded), as `Enum::V` or `Self::V`.
fn production_refs(
    file: &SourceFile,
    enum_name: &str,
    range: Option<(usize, usize)>,
) -> BTreeSet<String> {
    let toks = &file.tokens;
    let close = match_brackets(toks);
    let tests = test_regions(toks, &close);
    let range = range.unwrap_or((0, toks.len().saturating_sub(1)));
    let mut prod = BTreeSet::new();
    for name in [enum_name, "Self"] {
        let mut i = range.0;
        while i + 3 <= range.1 {
            if toks[i].is_ident(name)
                && crate::source::matches_punct(toks, i + 1, ':')
                && crate::source::matches_punct(toks, i + 2, ':')
            {
                if let Some(v) = toks.get(i + 3).and_then(crate::lexer::Token::ident) {
                    if !in_regions(&tests, i) {
                        prod.insert(v.to_string());
                    }
                    i += 4;
                    continue;
                }
            }
            i += 1;
        }
    }
    prod
}

fn check_dispatch(
    ws: &Workspace,
    enum_name: &str,
    decl_suffix: &str,
    handler_suffix: &str,
    out: &mut Vec<Finding>,
) {
    let Some(decl_file) = ws.files.iter().find(|f| f.path.ends_with(decl_suffix)) else {
        return; // enum not in the scan set (fixture workspaces)
    };
    let Some(handler_file) = ws.files.iter().find(|f| f.path.ends_with(handler_suffix)) else {
        return;
    };
    let close = match_brackets(&decl_file.tokens);
    let Some(decl) = enum_decl(&decl_file.tokens, &close, enum_name) else {
        return;
    };
    let handled = production_refs(handler_file, enum_name, None);
    for (variant, line) in &decl.variants {
        if !handled.contains(variant) {
            push(
                out,
                rules::UNHANDLED_VARIANT,
                &decl_file.path,
                *line,
                format!("{enum_name}::{variant}"),
                handler_file.path.clone(),
            );
        }
    }
}

/// All enum names declared in the token stream.
fn enum_names(toks: &[crate::lexer::Token]) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..toks.len().saturating_sub(1) {
        if toks[i].is_ident("enum") {
            if let Some(name) = toks[i + 1].ident() {
                out.push(name.to_string());
            }
        }
    }
    out
}

fn check_codec_parity(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    let close = match_brackets(toks);
    let tests = test_regions(toks, &close);
    for name in enum_names(toks) {
        let Some(enc) = impl_block(toks, &close, "Encode", &name) else {
            continue;
        };
        let Some(dec) = impl_block(toks, &close, "Decode", &name) else {
            continue;
        };
        if in_regions(&tests, enc.0) || in_regions(&tests, dec.0) {
            continue;
        }
        let Some(decl) = enum_decl(toks, &close, &name) else {
            continue;
        };
        let eset = production_refs(file, &name, Some(enc));
        let dset = production_refs(file, &name, Some(dec));
        for (variant, line) in &decl.variants {
            let encoded = eset.contains(variant);
            let decoded = dset.contains(variant);
            if encoded && !decoded {
                push(
                    out,
                    rules::ENCODE_NO_DECODE,
                    &file.path,
                    *line,
                    format!("{name}::{variant}"),
                    "",
                );
            }
            if decoded && !encoded {
                push(
                    out,
                    rules::DECODE_NO_ENCODE,
                    &file.path,
                    *line,
                    format!("{name}::{variant}"),
                    "",
                );
            }
            if !encoded && !decoded {
                // Wired into neither direction: the variant cannot cross
                // the wire at all. Report it on the encode side.
                push(
                    out,
                    rules::ENCODE_NO_DECODE,
                    &file.path,
                    *line,
                    format!("{name}::{variant}"),
                    "not referenced by either impl",
                );
            }
        }
    }
}
