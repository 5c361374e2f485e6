//! Workspace call graph over the lexed token stream.
//!
//! This is alint's first *cross-file* layer: every `fn` in the scanned
//! crates is indexed (name, file, token span, call sites), calls are
//! resolved by identifier with a longest-match preference — same file,
//! then same crate, then qualified workspace-wide — and interprocedural
//! reachability classifies functions as **expensive** when their call
//! closure hits one of the configured expensive identifiers (`fit`,
//! `factor`, `optimize`, `step`, `solve`, file I/O, `sleep`, …).
//!
//! L7 `lock_discipline` is the first consumer: "does this call, made
//! while a lock guard is live, reach a multi-millisecond fit?" is a
//! question about the whole workspace, not one file. The graph is
//! deliberately token-level and heuristic — no type information, no
//! trait dispatch — so resolution is documented as *preferences*, not
//! proofs:
//!
//! - Single-segment calls (`helper(x)`, `recv.method(x)`) resolve only
//!   within the same file (nearest definition wins, which also handles
//!   shadowed local `fn`s) or, failing that, the same crate. They never
//!   jump crates: a bare `.get(..)` matching some expensive `get` in an
//!   unrelated crate would drown the lint in false positives.
//! - Qualified calls (`procedure::run_trajectory(..)`, `al_gp::fit(..)`) resolve
//!   workspace-wide, scored by how many qualifier segments match the
//!   candidate's file stem or crate name (longest match wins).
//! - A call whose identifier is itself in the expensive set is expensive
//!   by fiat, no resolution needed — that keeps `state.step(obs)` a
//!   violation even if `step` resolved nowhere.
//!
//! Known limitations, accepted for a lint: turbofish call syntax
//! (`f::<T>(..)`) and calls through function pointers/closures are not
//! seen as calls; `#[cfg(test)]` functions are indexed (their *call
//! sites* are masked by the lint layer, not here).

use crate::lexer::{Lexed, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Path segments of the callee, e.g. `["SessionState", "start_warm"]`
    /// for `SessionState::start_warm(..)`; method calls have one segment.
    pub segments: Vec<String>,
    /// Token index of the callee's final identifier (file-local).
    pub token: usize,
    /// 1-based source line of the call.
    pub line: u32,
    /// True for method calls (`recv.name(..)`). A dotted call never
    /// resolves to the function enclosing it: `guard.len()` inside
    /// `fn len` is a call on the receiver, not recursion.
    pub dotted: bool,
}

/// One indexed function.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Bare function name (the identifier after `fn`).
    pub name: String,
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// Crate root prefix of `file`, e.g. `crates/core`.
    pub crate_root: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword (file-local).
    pub sig_start: usize,
    /// Inclusive token range of the body braces, `None` for bodyless
    /// trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// Call sites in the body, nested `fn` bodies excluded.
    pub calls: Vec<CallSite>,
    /// `.lock()` acquisitions in the body: receiver identifier chain
    /// (e.g. `["self", "warm"]`) plus line, nested `fn` bodies excluded.
    pub direct_locks: Vec<(Vec<String>, u32)>,
}

/// Workspace-wide function index with expensive-reachability baked in.
pub struct CallGraph {
    fns: Vec<FnInfo>,
    by_name: BTreeMap<String, Vec<usize>>,
    expensive: Vec<bool>,
    /// Terminal expensive identifier reached, for diagnostics.
    witness: Vec<Option<String>>,
}

/// Identifiers that can precede `(` without being calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "impl", "pub", "use", "mod", "where",
    "let", "else", "in", "as", "move", "ref", "mut", "dyn", "unsafe", "box", "yield",
];

fn is_ident(token: &Token) -> bool {
    matches!(token.kind, TokenKind::Ident)
}

/// Crate root prefix of a workspace-relative path: `crates/<name>` for
/// crate members, otherwise the first path segment.
fn crate_root_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => format!("crates/{name}"),
        (Some(first), _) => first.to_string(),
        (None, _) => String::new(),
    }
}

/// Name variants a qualifier segment may use to refer to a crate whose
/// directory is `crates/<dir>`: the dir itself, underscored, and the
/// workspace's `al-<dir>` package naming.
fn crate_name_variants(crate_root: &str) -> Vec<String> {
    let dir = crate_root.rsplit('/').next().unwrap_or(crate_root);
    let underscored = dir.replace('-', "_");
    vec![
        dir.to_string(),
        underscored.clone(),
        format!("al_{underscored}"),
    ]
}

/// File stem of a path (`store` for `crates/core/src/store.rs`).
fn file_stem(rel_path: &str) -> &str {
    let base = rel_path.rsplit('/').next().unwrap_or(rel_path);
    base.strip_suffix(".rs").unwrap_or(base)
}

/// Index of the delimiter closing `tokens[open_at]`, scanning forward.
fn close_of(tokens: &[Token], open_at: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0i64;
    for (k, token) in tokens.iter().enumerate().skip(open_at) {
        if token.text == open {
            depth += 1;
        } else if token.text == close {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Index of the delimiter opening `tokens[close_at]`, scanning backward.
fn open_of(tokens: &[Token], close_at: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0i64;
    for k in (0..=close_at).rev() {
        if tokens[k].text == close {
            depth += 1;
        } else if tokens[k].text == open {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Identifier chain of the receiver ending at `dot_idx` (a `.` token),
/// outermost first: `self.shard(id).lock()` yields `["self", "shard"]`.
/// Call-argument and index contents are skipped, only the chain's own
/// identifiers are collected.
pub fn receiver_idents(tokens: &[Token], dot_idx: usize) -> Vec<String> {
    receiver_chain(tokens, dot_idx).1
}

/// Like [`receiver_idents`], but also returns the token index where the
/// receiver chain starts (`self` in `self.shard(id).lock()`).
pub fn receiver_chain(tokens: &[Token], dot_idx: usize) -> (usize, Vec<String>) {
    let mut idents = Vec::new();
    let mut start = dot_idx;
    let mut k = dot_idx;
    loop {
        if k == 0 {
            break;
        }
        k -= 1;
        match tokens[k].text.as_str() {
            ")" => match open_of(tokens, k, "(", ")") {
                Some(opener) if opener > 0 => k = opener,
                _ => break,
            },
            "]" => match open_of(tokens, k, "[", "]") {
                Some(opener) if opener > 0 => k = opener,
                _ => break,
            },
            _ if is_ident(&tokens[k]) => {
                idents.push(tokens[k].text.clone());
                start = k;
                if k == 0 {
                    break;
                }
                let prev = tokens[k - 1].text.as_str();
                if prev == "." || prev == "::" {
                    // Step onto the separator; the loop header then lands
                    // on the next chain link.
                    k -= 1;
                    continue;
                }
                break;
            }
            _ => break,
        }
    }
    idents.reverse();
    (start, idents)
}

/// True when `tokens[i]` is the identifier of a `.lock()` call.
pub fn is_lock_site(tokens: &[Token], i: usize) -> bool {
    tokens[i].text == "lock"
        && is_ident(&tokens[i])
        && i > 0
        && tokens[i - 1].text == "."
        && i + 1 < tokens.len()
        && tokens[i + 1].text == "("
}

/// True when `tokens[i]` is the final identifier of a call expression
/// (`name(..)`), excluding macros, keywords, and `fn` definitions.
pub fn is_call_site(tokens: &[Token], i: usize) -> bool {
    if !is_ident(&tokens[i]) || i + 1 >= tokens.len() || tokens[i + 1].text != "(" {
        return false;
    }
    if NON_CALL_KEYWORDS.contains(&tokens[i].text.as_str()) {
        return false;
    }
    if i > 0 && tokens[i - 1].text == "fn" {
        return false;
    }
    true
}

/// Path segments of the call ending at identifier `i`, walking back over
/// `::`-joined qualifiers.
pub fn call_segments(tokens: &[Token], i: usize) -> Vec<String> {
    let mut segments = vec![tokens[i].text.clone()];
    let mut k = i;
    while k >= 2 && tokens[k - 1].text == "::" && is_ident(&tokens[k - 2]) {
        segments.push(tokens[k - 2].text.clone());
        k -= 2;
    }
    segments.reverse();
    segments
}

impl CallGraph {
    /// Index every `fn` in `files` (workspace-relative path + lexed
    /// tokens) and classify expensive reachability against
    /// `expensive_idents`.
    pub fn build(files: &[(String, &Lexed)], expensive_idents: &BTreeSet<String>) -> CallGraph {
        let mut fns = Vec::new();
        for (rel_path, lexed) in files {
            index_file(rel_path, &lexed.tokens, &mut fns);
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        let mut graph = CallGraph {
            expensive: vec![false; fns.len()],
            witness: vec![None; fns.len()],
            fns,
            by_name,
        };
        graph.classify(expensive_idents);
        graph
    }

    /// All indexed functions, in (file, definition) order.
    pub fn fns(&self) -> &[FnInfo] {
        &self.fns
    }

    /// True when the function's call closure reaches an expensive ident.
    pub fn is_expensive(&self, idx: usize) -> bool {
        self.expensive.get(idx).copied().unwrap_or(false)
    }

    /// The terminal expensive identifier the function reaches, if any.
    pub fn witness(&self, idx: usize) -> Option<&str> {
        self.witness.get(idx).and_then(|w| w.as_deref())
    }

    /// Resolve a call made at token `at_token` of `file` to an indexed
    /// function, by the preference order documented on the module.
    /// `dotted` marks method calls, which never resolve to the function
    /// whose body contains the call site (see [`CallSite::dotted`]).
    pub fn resolve(
        &self,
        file: &str,
        at_token: usize,
        segments: &[String],
        dotted: bool,
    ) -> Option<usize> {
        let name = segments.last()?;
        let quals = &segments[..segments.len() - 1];
        let local_quals = quals.is_empty()
            || quals
                .iter()
                .all(|q| q == "self" || q == "Self" || q == "crate");
        let encloses = |c: usize| {
            self.fns[c].file == file
                && self.fns[c]
                    .body
                    .is_some_and(|(open, end)| open <= at_token && at_token <= end)
        };
        let candidates: Vec<usize> = self
            .by_name
            .get(name)?
            .iter()
            .copied()
            .filter(|&c| !(dotted && encloses(c)))
            .collect();

        // Same file: nearest definition wins, which resolves shadowed
        // local `fn`s to the local definition rather than a distant
        // top-level one.
        if local_quals {
            let same_file = candidates
                .iter()
                .filter(|&&c| self.fns[c].file == file)
                .min_by_key(|&&c| {
                    let d = self.fns[c].sig_start.abs_diff(at_token);
                    (d, c)
                });
            if let Some(&c) = same_file {
                return Some(c);
            }
        }

        // Same crate, then workspace: score by qualifier matches against
        // the candidate's file stem and crate-name variants; longest
        // match (most segments matched) wins, ties break on index order.
        let caller_crate = crate_root_of(file);
        let score = |c: usize| -> usize {
            let cand = &self.fns[c];
            let stem = file_stem(&cand.file);
            let variants = crate_name_variants(&cand.crate_root);
            quals
                .iter()
                .filter(|q| q.as_str() == stem || variants.iter().any(|v| v == q.as_str()))
                .count()
        };
        let best_in = |pool: Vec<usize>, min_score: usize| -> Option<usize> {
            pool.into_iter()
                .map(|c| (score(c), c))
                .filter(|&(s, _)| s >= min_score)
                .max_by_key(|&(s, c)| (s, usize::MAX - c))
                .map(|(_, c)| c)
        };
        let same_crate: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&c| self.fns[c].crate_root == caller_crate)
            .collect();
        if let Some(c) = best_in(same_crate, 0) {
            return Some(c);
        }
        if quals.is_empty() || local_quals {
            // Unqualified calls never jump crates (see module docs).
            return None;
        }
        best_in(candidates.clone(), 1)
    }

    /// Fixpoint expensive classification: direct expensive-ident calls
    /// seed the set, then any function calling an expensive function is
    /// expensive, until nothing changes (cycles converge naturally).
    fn classify(&mut self, expensive_idents: &BTreeSet<String>) {
        for i in 0..self.fns.len() {
            for call in &self.fns[i].calls {
                if let Some(seg) = call
                    .segments
                    .iter()
                    .find(|s| expensive_idents.contains(s.as_str()))
                {
                    self.expensive[i] = true;
                    self.witness[i] = Some(seg.clone());
                    break;
                }
            }
        }
        loop {
            let mut changed = false;
            for i in 0..self.fns.len() {
                if self.expensive[i] {
                    continue;
                }
                let file = self.fns[i].file.clone();
                let calls = self.fns[i].calls.clone();
                for call in &calls {
                    let Some(target) = self.resolve(&file, call.token, &call.segments, call.dotted)
                    else {
                        continue;
                    };
                    if target != i && self.expensive[target] {
                        self.expensive[i] = true;
                        self.witness[i] = self.witness[target].clone();
                        changed = true;
                        break;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }
}

/// Index the functions of one file into `fns`.
fn index_file(rel_path: &str, tokens: &[Token], fns: &mut Vec<FnInfo>) {
    let crate_root = crate_root_of(rel_path);
    let first = fns.len();
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if tokens[i].text != "fn" || !is_ident(&tokens[i]) || !is_ident(&tokens[i + 1]) {
            i += 1;
            continue;
        }
        let name = tokens[i + 1].text.clone();
        // Walk the signature for the body's `{` (or a terminating `;` for
        // bodyless declarations), ignoring braces nested in parens or
        // brackets (closure defaults, const-generic expressions).
        let mut depth = 0i64;
        let mut body = None;
        let mut j = i + 2;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    body = close_of(tokens, j, "{", "}").map(|end| (j, end));
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        fns.push(FnInfo {
            name,
            file: rel_path.to_string(),
            crate_root: crate_root.clone(),
            line: tokens[i].line,
            sig_start: i,
            body,
            calls: Vec::new(),
            direct_locks: Vec::new(),
        });
        // Continue *inside* the signature so nested `fn`s are indexed too.
        i += 2;
    }

    // Second pass: collect calls and lock acquisitions per function,
    // attributing tokens inside a nested `fn` to the nested function only.
    let file_fns: Vec<(usize, usize, usize)> = fns[first..]
        .iter()
        .enumerate()
        .filter_map(|(off, f)| f.body.map(|(_, end)| (first + off, f.sig_start, end)))
        .collect();
    for &(idx, sig_start, end) in &file_fns {
        let Some((open, _)) = fns[idx].body else {
            continue;
        };
        let mut calls = Vec::new();
        let mut locks = Vec::new();
        let mut k = open + 1;
        while k < end {
            // Skip nested fn definitions wholesale (signature + body).
            if let Some(&(_, _, nested_end)) = file_fns
                .iter()
                .find(|&&(n, ns, ne)| n != idx && ns >= sig_start && ne <= end && ns == k)
            {
                k = nested_end + 1;
                continue;
            }
            if is_lock_site(tokens, k) {
                locks.push((receiver_idents(tokens, k - 1), tokens[k].line));
            } else if is_call_site(tokens, k) && tokens[k].text != "lock" {
                calls.push(CallSite {
                    segments: call_segments(tokens, k),
                    token: k,
                    line: tokens[k].line,
                    dotted: k > 0 && tokens[k - 1].text == ".",
                });
            }
            k += 1;
        }
        fns[idx].calls = calls;
        fns[idx].direct_locks = locks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn graph(files: &[(&str, &str)], expensive: &[&str]) -> (CallGraph, Vec<Lexed>) {
        let lexed: Vec<Lexed> = files.iter().map(|(_, src)| lex(src)).collect();
        let input: Vec<(String, &Lexed)> = files
            .iter()
            .zip(&lexed)
            .map(|((path, _), l)| (path.to_string(), l))
            .collect();
        let exp: BTreeSet<String> = expensive.iter().map(|s| s.to_string()).collect();
        (CallGraph::build(&input, &exp), lexed)
    }

    fn find<'g>(g: &'g CallGraph, file: &str, name: &str) -> (usize, &'g FnInfo) {
        g.fns()
            .iter()
            .enumerate()
            .find(|(_, f)| f.file == file && f.name == name)
            .unwrap_or_else(|| panic!("no fn {name} in {file}"))
    }

    #[test]
    fn indexes_names_spans_and_calls() {
        let src = "fn a(x: u32) -> u32 { b(x) + c(x) }\nfn b(x: u32) -> u32 { x }\n";
        let (g, _) = graph(&[("crates/x/src/lib.rs", src)], &[]);
        assert_eq!(g.fns().len(), 2);
        let (_, a) = find(&g, "crates/x/src/lib.rs", "a");
        assert_eq!(a.line, 1);
        let callees: Vec<&str> = a
            .calls
            .iter()
            .map(|c| c.segments.last().map(String::as_str).unwrap_or(""))
            .collect();
        assert_eq!(callees, ["b", "c"]);
        assert_eq!(find(&g, "crates/x/src/lib.rs", "b").1.line, 2);
    }

    #[test]
    fn reachability_crosses_three_hops_and_macros_are_not_calls() {
        let src = "
            fn top() { mid() }
            fn mid() { low() }
            fn low() { base() }
            fn base() { fit(3); }
            fn logs_only() { println!(\"fit\"); }
        ";
        let (g, _) = graph(&[("crates/x/src/lib.rs", src)], &["fit"]);
        for name in ["top", "mid", "low", "base"] {
            let (i, _) = find(&g, "crates/x/src/lib.rs", name);
            assert!(g.is_expensive(i), "{name} should reach fit");
            assert_eq!(g.witness(i), Some("fit"));
        }
        let (i, _) = find(&g, "crates/x/src/lib.rs", "logs_only");
        assert!(!g.is_expensive(i), "macro invocation is not a call");
    }

    #[test]
    fn cycles_converge_without_divergence() {
        let cyclic = "
            fn ping() { pong() }
            fn pong() { ping() }
            fn spin() { spin() }
            fn churn() { whirl() }
            fn whirl() { churn(); solve(1); }
        ";
        let (g, _) = graph(&[("crates/x/src/lib.rs", cyclic)], &["solve"]);
        for name in ["ping", "pong", "spin"] {
            let (i, _) = find(&g, "crates/x/src/lib.rs", name);
            assert!(!g.is_expensive(i), "{name} is a benign cycle");
        }
        for name in ["churn", "whirl"] {
            let (i, _) = find(&g, "crates/x/src/lib.rs", name);
            assert!(g.is_expensive(i), "{name} cycles through solve");
        }
    }

    #[test]
    fn same_name_across_crates_resolves_by_longest_match() {
        let xs = "pub fn run() { fit(1); }";
        let ys = "pub fn run() { let _ = 1; }";
        let caller = "
            fn qualified_x() { al_x::run(); }
            fn qualified_y() { al_y::run(); }
            fn bare() { run(); }
        ";
        let (g, _) = graph(
            &[
                ("crates/x/src/lib.rs", xs),
                ("crates/y/src/lib.rs", ys),
                ("crates/z/src/lib.rs", caller),
            ],
            &["fit"],
        );
        let (qx, _) = find(&g, "crates/z/src/lib.rs", "qualified_x");
        let (qy, _) = find(&g, "crates/z/src/lib.rs", "qualified_y");
        let (bare, _) = find(&g, "crates/z/src/lib.rs", "bare");
        assert!(g.is_expensive(qx), "al_x::run reaches fit");
        assert!(!g.is_expensive(qy), "al_y::run is cheap");
        // Unqualified calls never jump crates.
        assert!(!g.is_expensive(bare));
    }

    #[test]
    fn same_file_beats_same_crate_and_module_qualifiers_pick_the_stem() {
        let store = "pub fn get(x: u32) -> u32 { x }";
        let heavy = "pub fn get(x: u32) -> u32 { optimize(x) }";
        let caller = "
            fn local() -> u32 { get(1) }
            fn get(x: u32) -> u32 { x + 1 }
            fn via_module() -> u32 { heavy::get(2) }
        ";
        let (g, _) = graph(
            &[
                ("crates/c/src/store.rs", store),
                ("crates/c/src/heavy.rs", heavy),
                ("crates/c/src/lib.rs", caller),
            ],
            &["optimize"],
        );
        let (local, _) = find(&g, "crates/c/src/lib.rs", "local");
        assert!(!g.is_expensive(local), "same-file get wins");
        let (via, _) = find(&g, "crates/c/src/lib.rs", "via_module");
        assert!(g.is_expensive(via), "heavy::get matches the file stem");
    }

    #[test]
    fn shadowed_local_fn_wins_over_distant_top_level() {
        let src = "
            fn outer() -> u32 {
                fn helper(x: u32) -> u32 { x }
                helper(1)
            }
            fn far_outer() -> u32 { helper(2) }
        ";
        let far = "\n".repeat(60) + "fn helper(x: u32) -> u32 { sleep(x); x }\n";
        let combined = format!("{src}{far}");
        let (g, _) = graph(&[("crates/x/src/lib.rs", combined.as_str())], &["sleep"]);
        let (outer, info) = find(&g, "crates/x/src/lib.rs", "outer");
        // The nested helper's body is not attributed to outer…
        assert!(info.calls.iter().all(|c| c.segments != ["sleep"]));
        // …and outer's call resolves to the nearby cheap helper.
        assert!(!g.is_expensive(outer));
        let (far_outer, _) = find(&g, "crates/x/src/lib.rs", "far_outer");
        assert!(
            g.is_expensive(far_outer),
            "far_outer's nearest helper is the expensive one"
        );
    }

    #[test]
    fn dotted_calls_do_not_resolve_to_their_enclosing_fn() {
        // `guard.len()` inside `fn len` is a call on the receiver, not
        // recursion — it must not pick up the enclosing fn's locks.
        let src = "
            impl Store {
                fn len(&self) -> usize {
                    self.shards.iter().map(|shard| shard.lock().len()).sum()
                }
                fn spin(&self) -> usize { self.spin() }
            }
        ";
        let (g, _) = graph(&[("crates/c/src/store.rs", src)], &[]);
        let (len_idx, info) = find(&g, "crates/c/src/store.rs", "len");
        let len_call = info
            .calls
            .iter()
            .find(|c| c.segments == ["len"])
            .expect("inner .len() call indexed");
        assert!(len_call.dotted);
        assert_ne!(
            g.resolve(
                "crates/c/src/store.rs",
                len_call.token,
                &len_call.segments,
                true
            ),
            Some(len_idx),
            "dotted call must not resolve to the fn enclosing it"
        );
        // Plain self-recursion still resolves (dotted here, but the
        // nearest non-enclosing candidate is a different fn entirely).
        let (spin_idx, spin) = find(&g, "crates/c/src/store.rs", "spin");
        let rec = spin
            .calls
            .iter()
            .find(|c| c.segments == ["spin"])
            .expect("call");
        assert_ne!(
            g.resolve(
                "crates/c/src/store.rs",
                rec.token,
                &rec.segments,
                rec.dotted
            ),
            Some(spin_idx)
        );
    }

    #[test]
    fn direct_locks_record_receiver_chains() {
        let src = "
            impl Store {
                fn relock(&self) { let g = self.warm.lock(); drop(g); }
                fn chained(&self, id: u64) -> usize { self.shard(id).lock().len() }
            }
        ";
        let (g, _) = graph(&[("crates/c/src/store.rs", src)], &[]);
        let (_, relock) = find(&g, "crates/c/src/store.rs", "relock");
        assert_eq!(relock.direct_locks.len(), 1);
        assert_eq!(relock.direct_locks[0].0, ["self", "warm"]);
        let (_, chained) = find(&g, "crates/c/src/store.rs", "chained");
        assert_eq!(chained.direct_locks[0].0, ["self", "shard"]);
    }

    #[test]
    fn bodyless_trait_methods_index_without_calls() {
        let src =
            "trait T { fn go(&self) -> u32; }\nimpl T for U { fn go(&self) -> u32 { fit(1) } }";
        let (g, _) = graph(&[("crates/x/src/lib.rs", src)], &["fit"]);
        let bodied: Vec<bool> = g
            .fns()
            .iter()
            .filter(|f| f.name == "go")
            .map(|f| f.body.is_some())
            .collect();
        assert_eq!(bodied, [false, true]);
    }
}
