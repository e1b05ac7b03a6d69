//! Guard-holding-span analysis over the token stream.
//!
//! The scanner is intra-procedural and deliberately conservative. For
//! each file it:
//!
//! 1. derives a field→rank binding map from `OrderedMutex::new(ranks::X,
//!    …)` / `OrderedRwLock::new(ranks::X, …)` constructor sites (so the
//!    map can never drift from the code — there is nothing to maintain
//!    by hand);
//! 2. walks the tokens tracking *guard-holding spans*, modelling Rust
//!    temporary lifetimes: a `let`-bound guard lives to the end of its
//!    block (or an explicit `drop(g)`), a temporary dies at its
//!    statement's `;`, and a guard created in an `if let`/`while let`/
//!    `match`/`for` scrutinee lives through the whole construct — the
//!    scrutinee-extension rule is the source of every real
//!    guard-across-send bug this linter was built to catch;
//! 3. applies the rules inside live spans: hierarchy order (ranked
//!    acquisitions must strictly ascend; multi-instance ranks may nest
//!    at the same rank), blocking calls under a guard, and
//!    `.lock().unwrap()` poisoning on request paths;
//! 4. contributes held→acquired edges to a workspace-wide acquisition
//!    graph; cross-file/cross-crate cycles among locks the registry
//!    cannot rank are reported from the graph's strongly-connected
//!    components.
//!
//! Across files it reports every declared rank that no production code
//! names as `ranks::X` — the rank a change left behind when it deleted
//! its lock's last user — when the declaring file is in the scan set.
//!
//! `mod tests` regions are skipped: test-only lock usage is covered by
//! the runtime audit (`--features lock-audit`), not the linter.

use crate::lexer::Token;
use crate::registry::Registry;
use crate::report::{rules, Finding};
use crate::source::{in_regions, match_brackets, matches_punct, test_regions, SourceFile};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Method names that acquire a guard when called with no arguments.
const ACQUIRE: &[&str] = &["lock", "lock_or_recover", "try_lock", "read", "write"];

/// Method names treated as potentially blocking under a guard.
const BLOCKING_METHODS: &[&str] = &["send", "recv", "recv_timeout", "call", "join", "deliver"];

/// Free functions treated as potentially blocking under a guard.
const BLOCKING_FREE: &[&str] = &["sleep", "write_frame", "read_frame"];

/// Scanner configuration.
#[derive(Clone, Debug)]
pub struct ScanOptions {
    /// Path fragments where the poison-unwrap rule applies (request
    /// paths: a panicking holder must not wedge later requests).
    pub poison_paths: Vec<String>,
}

impl Default for ScanOptions {
    fn default() -> Self {
        Self {
            poison_paths: vec![
                "crates/server/".into(),
                "crates/dlm/".into(),
                "crates/lockmgr/".into(),
            ],
        }
    }
}

/// The result of analyzing a set of files.
#[derive(Debug, Default)]
pub struct Analysis {
    /// All findings, sorted and deduplicated.
    pub findings: Vec<Finding>,
    /// Observed held→acquired edges, keyed by registry name (ranked
    /// locks) or `file-stem.receiver` (unranked).
    pub edges: BTreeSet<(String, String)>,
}

/// Analyze `files` against `registry`.
pub fn analyze(files: &[SourceFile], registry: &Registry, opts: &ScanOptions) -> Analysis {
    let mut analysis = Analysis::default();
    for file in files {
        // Test-only lock usage is covered by the runtime audit
        // (`--features lock-audit`), not the linter.
        if file.is_test {
            continue;
        }
        analyze_file(file, registry, opts, &mut analysis);
    }
    cycle_findings(&analysis.edges, &mut analysis.findings);
    unused_ranks(files, registry, &mut analysis.findings);
    analysis.findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.lock, &a.detail)
            .cmp(&(&b.file, b.line, b.rule, &b.lock, &b.detail))
    });
    analysis.findings.dedup_by(|a, b| {
        (a.file == b.file)
            && a.line == b.line
            && a.rule == b.rule
            && a.lock == b.lock
            && a.detail == b.detail
    });
    analysis
}

/// Path suffix of the file declaring the rank registry.
const RANKS_DECL: &str = "common/src/sync.rs";

/// Flag each registry rank that no production code (outside test files
/// and `mod tests`) names as `ranks::X`. A no-op unless the declaring
/// file is among `files`, so fixture workspaces opt in by including one.
fn unused_ranks(files: &[SourceFile], registry: &Registry, out: &mut Vec<Finding>) {
    let Some(decl) = files.iter().find(|f| f.path.ends_with(RANKS_DECL)) else {
        return;
    };
    let mut named: HashSet<&str> = HashSet::new();
    for file in files.iter().filter(|f| !f.is_test) {
        let toks = &file.tokens;
        let tests = test_regions(toks, &match_brackets(toks));
        for (i, w) in toks.windows(4).enumerate() {
            if w[0].is_ident("ranks") && w[1].is_punct(':') && w[2].is_punct(':') {
                if let Some(ident) = w[3].ident().filter(|_| !in_regions(&tests, i)) {
                    named.insert(ident);
                }
            }
        }
    }
    for entry in &registry.entries {
        if named.contains(entry.const_ident.as_str()) {
            continue;
        }
        let line = decl
            .tokens
            .windows(2)
            .find(|w| w[0].is_ident("const") && w[1].is_ident(&entry.const_ident))
            .map_or(1, |w| w[1].line);
        out.push(Finding {
            rule: rules::UNUSED_RANK,
            file: decl.path.clone(),
            line,
            lock: entry.name.clone(),
            detail: entry.const_ident.clone(),
        });
    }
}

/// How long a freshly acquired guard lives.
enum StmtKind {
    /// `let g = x.lock();` — to the end of the enclosing block.
    LetBinding { name: Option<String> },
    /// Part of a larger statement — to the statement's `;`.
    Temporary,
    /// `if let`/`while let`/`match`/`for` scrutinee — through the whole
    /// construct including `else` chains (Rust extends scrutinee
    /// temporaries to the end of the expression).
    Scrutinee,
}

struct Guard {
    key: String,
    rank: Option<(u16, bool)>,
    /// Token index past which the guard is no longer held.
    end: usize,
    let_name: Option<String>,
}

fn analyze_file(file: &SourceFile, registry: &Registry, opts: &ScanOptions, out: &mut Analysis) {
    let toks = &file.tokens;
    let close = match_brackets(toks);
    let tests = test_regions(toks, &close);
    let (bindings, ambiguous) = rank_bindings(toks, &tests, registry);
    let stem = file
        .path
        .rsplit('/')
        .next()
        .unwrap_or(&file.path)
        .trim_end_matches(".rs");
    let poison_applies = opts.poison_paths.iter().any(|p| file.path.contains(p));

    let mut guards: Vec<Guard> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if let Some(&(_, end)) = tests.iter().find(|&&(s, _)| s == i) {
            i = end + 1;
            continue;
        }
        guards.retain(|g| g.end > i);

        // Explicit early release: drop(g).
        if toks[i].is_ident("drop")
            && matches_punct(toks, i + 1, '(')
            && toks.get(i + 2).and_then(Token::ident).is_some()
            && matches_punct(toks, i + 3, ')')
        {
            let name = toks[i + 2].ident().unwrap().to_string();
            guards.retain(|g| g.let_name.as_deref() != Some(name.as_str()));
            i += 4;
            continue;
        }

        // Guard acquisition: `recv.lock()` / `.read()` / `.write()` …
        if toks[i].is_punct('.')
            && toks
                .get(i + 1)
                .and_then(Token::ident)
                .is_some_and(|m| ACQUIRE.contains(&m))
            && matches_punct(toks, i + 2, '(')
            && matches_punct(toks, i + 3, ')')
        {
            let line = toks[i].line;
            let recv = if i > 0 { toks[i - 1].ident() } else { None };
            let entry = recv
                .filter(|r| !ambiguous.contains(*r))
                .and_then(|r| bindings.get(r))
                .and_then(|c| registry.by_const(c));
            let key = match entry {
                Some(e) => e.name.clone(),
                None => format!("{stem}.{}", recv.unwrap_or("<expr>")),
            };
            let rank = entry.map(|e| (e.rank, e.multi));

            if let Some((nr, nm)) = rank {
                for g in &guards {
                    if let Some((gr, gm)) = g.rank {
                        let ordered = nr > gr || (nr == gr && nm && gm);
                        if !ordered {
                            out.findings.push(Finding {
                                rule: rules::ORDER,
                                file: file.path.clone(),
                                line,
                                lock: g.key.clone(),
                                detail: key.clone(),
                            });
                        }
                    }
                }
            }
            for g in &guards {
                if g.key != key {
                    out.edges.insert((g.key.clone(), key.clone()));
                }
            }

            // Poison rule: `.lock().unwrap()` / `.expect(` on request
            // paths turns one panicked holder into a wedged server.
            if poison_applies
                && matches_punct(toks, i + 4, '.')
                && toks
                    .get(i + 5)
                    .and_then(Token::ident)
                    .is_some_and(|m| m == "unwrap" || m == "expect")
            {
                let method = toks[i + 1].ident().unwrap_or("lock");
                let post = toks[i + 5].ident().unwrap_or("unwrap");
                out.findings.push(Finding {
                    rule: rules::POISON,
                    file: file.path.clone(),
                    line,
                    lock: key.clone(),
                    detail: format!("{}.{method}().{post}()", recv.unwrap_or("<expr>")),
                });
            }

            let after = i + 4;
            let (end, let_name) = match classify(toks, i) {
                StmtKind::LetBinding { name } => (block_end(toks, &close, after), name),
                StmtKind::Temporary => (statement_end(toks, &close, after), None),
                StmtKind::Scrutinee => (scrutinee_end(toks, &close, after), None),
            };
            guards.push(Guard {
                key,
                rank,
                end,
                let_name,
            });
            i = after;
            continue;
        }

        // Blocking calls under a live guard.
        let blocking = if toks[i].is_punct('.')
            && toks
                .get(i + 1)
                .and_then(Token::ident)
                .is_some_and(|m| BLOCKING_METHODS.contains(&m))
            && matches_punct(toks, i + 2, '(')
        {
            let recv = if i > 0 { toks[i - 1].ident() } else { None };
            Some((
                toks[i].line,
                format!(
                    "{}.{}",
                    recv.unwrap_or("<expr>"),
                    toks[i + 1].ident().unwrap()
                ),
            ))
        } else if toks[i]
            .ident()
            .is_some_and(|m| BLOCKING_FREE.contains(&m))
            && matches_punct(toks, i + 1, '(')
            // `.send(` handled above; a free call is not preceded by `.`.
            && (i == 0 || !toks[i - 1].is_punct('.'))
        {
            Some((toks[i].line, toks[i].ident().unwrap().to_string()))
        } else {
            None
        };
        if let Some((line, callee)) = blocking {
            for g in &guards {
                out.findings.push(Finding {
                    rule: rules::BLOCKING,
                    file: file.path.clone(),
                    line,
                    lock: g.key.clone(),
                    detail: callee.clone(),
                });
            }
        }

        i += 1;
    }
}

/// Derive the field→rank-constant map from constructor sites:
/// `field: …OrderedMutex::new(ranks::CONST, …)` or
/// `let field = OrderedMutex::new(ranks::CONST, …)`.
fn rank_bindings(
    toks: &[Token],
    tests: &[(usize, usize)],
    registry: &Registry,
) -> (HashMap<String, String>, HashSet<String>) {
    let mut bindings: HashMap<String, String> = HashMap::new();
    let mut ambiguous: HashSet<String> = HashSet::new();
    for i in 0..toks.len() {
        if tests.iter().any(|&(s, e)| i >= s && i <= e) {
            continue;
        }
        let is_ctor = toks[i]
            .ident()
            .is_some_and(|m| m == "OrderedMutex" || m == "OrderedRwLock");
        if !(is_ctor
            && matches_punct(toks, i + 1, ':')
            && matches_punct(toks, i + 2, ':')
            && toks.get(i + 3).is_some_and(|t| t.is_ident("new"))
            && matches_punct(toks, i + 4, '(')
            && toks.get(i + 5).is_some_and(|t| t.is_ident("ranks"))
            && matches_punct(toks, i + 6, ':')
            && matches_punct(toks, i + 7, ':'))
        {
            continue;
        }
        let Some(const_ident) = toks.get(i + 8).and_then(Token::ident) else {
            continue;
        };
        if registry.by_const(const_ident).is_none() {
            continue;
        }
        let Some(field) = find_binder(toks, i) else {
            continue;
        };
        match bindings.get(&field) {
            Some(existing) if existing != const_ident => {
                ambiguous.insert(field);
            }
            _ => {
                bindings.insert(field, const_ident.to_string());
            }
        }
    }
    (bindings, ambiguous)
}

/// Walk backward from a constructor call to the field or variable it
/// initializes, skipping wrapper calls like `Arc::new(…)`.
fn find_binder(toks: &[Token], ctor: usize) -> Option<String> {
    let mut k = ctor;
    while k > 0 {
        k -= 1;
        match &toks[k].tok {
            crate::lexer::Tok::Punct('(') => continue, // wrapper call opener
            crate::lexer::Tok::Ident(_) => continue,   // wrapper path segment
            crate::lexer::Tok::Punct(':') => {
                if k > 0 && toks[k - 1].is_punct(':') {
                    k -= 1; // `::` path separator
                    continue;
                }
                // Struct-literal field separator: `field: …`.
                return toks
                    .get(k.wrapping_sub(1))
                    .and_then(Token::ident)
                    .map(String::from);
            }
            crate::lexer::Tok::Punct('=') => {
                // `let name = …` / `name = …`: take the identifier
                // before `=`, skipping `mut`.
                let mut j = k;
                while j > 0 {
                    j -= 1;
                    match toks[j].ident() {
                        Some("mut") => continue,
                        Some(name) => return Some(name.to_string()),
                        None => return None,
                    }
                }
                return None;
            }
            _ => return None,
        }
    }
    None
}

/// Classify the statement containing the acquisition at `dot`.
fn classify(toks: &[Token], dot: usize) -> StmtKind {
    // Find the statement boundary going backward: `;`, `{`, or `}` at
    // balance zero, or stepping out of an enclosing group.
    let mut depth = 0i32;
    let mut k = dot;
    let start = loop {
        if k == 0 {
            break 0;
        }
        k -= 1;
        match &toks[k].tok {
            crate::lexer::Tok::Punct(')' | ']') => depth += 1,
            crate::lexer::Tok::Punct('}') => {
                if depth == 0 {
                    break k + 1;
                }
                depth += 1;
            }
            crate::lexer::Tok::Punct('(' | '[') => {
                if depth == 0 {
                    break k + 1; // acquisition is an argument
                }
                depth -= 1;
            }
            crate::lexer::Tok::Punct('{') => {
                if depth == 0 {
                    break k + 1;
                }
                depth -= 1;
            }
            crate::lexer::Tok::Punct(';') if depth == 0 => break k + 1,
            _ => {}
        }
    };
    let mut s = start;
    // `else if let …` chains: skip the `else`.
    if toks.get(s).is_some_and(|t| t.is_ident("else")) {
        s += 1;
    }
    let first = toks.get(s).and_then(Token::ident);
    let second = toks.get(s + 1).and_then(Token::ident);
    match (first, second) {
        (Some("let"), _) => {
            // A chain continuing past the acquisition (other than
            // `.unwrap()`/`.expect(…)`) means the guard itself is a
            // temporary: `let v = m.lock().remove(&k);`.
            if chain_continues(toks, dot) {
                StmtKind::Temporary
            } else {
                let name = match toks.get(s + 1).and_then(Token::ident) {
                    Some("mut") => toks.get(s + 2).and_then(Token::ident),
                    other => other,
                };
                StmtKind::LetBinding {
                    name: name.map(String::from),
                }
            }
        }
        (Some("if" | "while"), Some("let")) => StmtKind::Scrutinee,
        (Some("match" | "for"), _) => StmtKind::Scrutinee,
        _ => StmtKind::Temporary,
    }
}

/// Whether the method chain continues past the acquisition's `()`,
/// ignoring `.unwrap()` / `.expect(…)`.
fn chain_continues(toks: &[Token], dot: usize) -> bool {
    let mut k = dot + 4; // past `.lock ( )`
    loop {
        if !matches_punct(toks, k, '.') {
            return false;
        }
        match toks.get(k + 1).and_then(Token::ident) {
            Some("unwrap") | Some("expect") => {
                // Skip `.unwrap(…)` and look again.
                if matches_punct(toks, k + 2, '(') {
                    if matches_punct(toks, k + 3, ')') {
                        k += 4;
                        continue;
                    }
                    return true; // `.expect("…")` lexes its args away → `()` — but be safe
                }
                return true;
            }
            _ => return true,
        }
    }
}

/// End of the enclosing block, scanning forward from `from` and skipping
/// nested groups.
fn block_end(toks: &[Token], close: &HashMap<usize, usize>, from: usize) -> usize {
    let mut k = from;
    while k < toks.len() {
        match &toks[k].tok {
            crate::lexer::Tok::Punct('(' | '{' | '[') => {
                k = close.get(&k).map_or(toks.len(), |&c| c + 1);
            }
            crate::lexer::Tok::Punct('}' | ')' | ']') => return k,
            _ => k += 1,
        }
    }
    toks.len()
}

/// End of the current statement (`;` at depth zero), scanning forward.
///
/// A `{` at depth zero also ends the span: a plain `if cond { … }` /
/// `while cond { … }` drops its condition temporaries before entering
/// the block (unlike `if let`, which is classified as a scrutinee).
/// Braces nested inside `(…)`/`[…]` (closure bodies in arguments,
/// struct literals in calls) are skipped with their enclosing group.
fn statement_end(toks: &[Token], close: &HashMap<usize, usize>, from: usize) -> usize {
    let mut k = from;
    while k < toks.len() {
        match &toks[k].tok {
            crate::lexer::Tok::Punct('(' | '[') => {
                k = close.get(&k).map_or(toks.len(), |&c| c + 1);
            }
            crate::lexer::Tok::Punct(';') => return k,
            crate::lexer::Tok::Punct('{' | '}' | ')' | ']') => return k,
            _ => k += 1,
        }
    }
    toks.len()
}

/// End of an `if let`/`match`/`for` construct: the close of the block
/// that follows, extended through `else` chains.
fn scrutinee_end(toks: &[Token], close: &HashMap<usize, usize>, from: usize) -> usize {
    let mut k = from;
    // Find the construct's opening `{` at depth zero.
    let mut open = None;
    while k < toks.len() {
        match &toks[k].tok {
            crate::lexer::Tok::Punct('(' | '[') => {
                k = close.get(&k).map_or(toks.len(), |&c| c + 1);
            }
            crate::lexer::Tok::Punct('{') => {
                open = Some(k);
                break;
            }
            crate::lexer::Tok::Punct('}' | ')' | ']' | ';') => return k,
            _ => k += 1,
        }
    }
    let Some(open) = open else { return toks.len() };
    let mut end = close.get(&open).copied().unwrap_or(toks.len());
    // `else { … }` / `else if … { … }` chains keep scrutinee
    // temporaries alive.
    loop {
        let next = end + 1;
        if !toks.get(next).is_some_and(|t| t.is_ident("else")) {
            return end;
        }
        let mut k = next + 1;
        let mut open = None;
        while k < toks.len() {
            match &toks[k].tok {
                crate::lexer::Tok::Punct('(' | '[') => {
                    k = close.get(&k).map_or(toks.len(), |&c| c + 1);
                }
                crate::lexer::Tok::Punct('{') => {
                    open = Some(k);
                    break;
                }
                crate::lexer::Tok::Punct('}' | ')' | ']' | ';') => return end,
                _ => k += 1,
            }
        }
        match open {
            Some(o) => end = close.get(&o).copied().unwrap_or(toks.len()),
            None => return end,
        }
    }
}

/// Report strongly-connected components of the acquisition graph as
/// cycles. Ranked inversions are reported directly at their call sites;
/// this catches orderings among locks the registry cannot rank.
fn cycle_findings(edges: &BTreeSet<(String, String)>, findings: &mut Vec<Finding>) {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges {
        adj.entry(a.as_str()).or_default().push(b.as_str());
        adj.entry(b.as_str()).or_default();
    }
    // Tarjan's SCC.
    struct State<'a> {
        adj: &'a BTreeMap<&'a str, Vec<&'a str>>,
        index: HashMap<&'a str, usize>,
        low: HashMap<&'a str, usize>,
        stack: Vec<&'a str>,
        on_stack: HashSet<&'a str>,
        next: usize,
        sccs: Vec<Vec<&'a str>>,
    }
    fn strongconnect<'a>(v: &'a str, st: &mut State<'a>) {
        st.index.insert(v, st.next);
        st.low.insert(v, st.next);
        st.next += 1;
        st.stack.push(v);
        st.on_stack.insert(v);
        for &w in st.adj.get(v).into_iter().flatten() {
            if !st.index.contains_key(w) {
                strongconnect(w, st);
                let lw = st.low[w];
                let lv = st.low.get_mut(v).unwrap();
                *lv = (*lv).min(lw);
            } else if st.on_stack.contains(w) {
                let iw = st.index[w];
                let lv = st.low.get_mut(v).unwrap();
                *lv = (*lv).min(iw);
            }
        }
        if st.low[v] == st.index[v] {
            let mut scc = Vec::new();
            while let Some(w) = st.stack.pop() {
                st.on_stack.remove(w);
                scc.push(w);
                if w == v {
                    break;
                }
            }
            st.sccs.push(scc);
        }
    }
    let mut st = State {
        adj: &adj,
        index: HashMap::new(),
        low: HashMap::new(),
        stack: Vec::new(),
        on_stack: HashSet::new(),
        next: 0,
        sccs: Vec::new(),
    };
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for v in nodes {
        if !st.index.contains_key(v) {
            strongconnect(v, &mut st);
        }
    }
    for scc in st.sccs {
        if scc.len() > 1 {
            let mut names: Vec<&str> = scc;
            names.sort_unstable();
            findings.push(Finding {
                rule: rules::CYCLE,
                file: "<acquisition-graph>".into(),
                line: 0,
                lock: names[0].to_string(),
                detail: names.join(" <-> "),
            });
        }
    }
}
