//! The four lint passes.
//!
//! | ID | name         | invariant                                                            |
//! |----|--------------|----------------------------------------------------------------------|
//! | L2 | `float_cmp`  | no bare `==`/`!=` against floating-point expressions                 |
//! | L3 | `typed_error`| public `Result` fns in typed-error crates use a typed error          |
//! | L5 | `unit_safety`| no `+`/`-`/comparison between operands of different inferred units   |
//! | L7 | `lock_discipline` | no expensive calls, order inversions, double-acquires, or       |
//! |    |              | `.await` inside lock-guard windows (call-graph backed)               |
//!
//! The IDs L1 (`panic_site`), L4 (`lossy_cast`) and L6
//! (`determinism_safety`) are retired, not reused: clippy checks them with
//! real name resolution. `unwrap_used`/`expect_used`/`panic`/`todo`/
//! `unimplemented` replace L1, a module-scoped `cast_possible_truncation`
//! replaces L4, and `clippy.toml`'s `disallowed-types` (hash containers)
//! and `disallowed-methods` (thread spawns, wall-clock reads) replace L6.
//! L2 stays because clippy's `float_cmp` exempts comparisons against zero
//! and the infinities, and every function whose name contains `eq`.
//!
//! All passes skip `#[cfg(test)]` items and honour inline suppression
//! markers of the form `// alint: allow(L2)` or `// alint: allow(float_cmp)`
//! on the same or the immediately preceding line.
//!
//! The passes run on the token stream from [`crate::lexer`]; where real type
//! information would be needed (L2) the heuristics are deliberately
//! conservative and documented on each pass. L7 is the first pass with
//! *cross-file* context: it consumes the workspace [`CallGraph`] built in
//! [`crate::callgraph`].

use crate::callgraph::{self, CallGraph};
use crate::config::Config;
use crate::lexer::{Lexed, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// One finding, pointing at a workspace-relative file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    pub path: String,
    pub line: u32,
    /// Lint ID: `L2`, `L3`, `L5` or `L7`.
    pub lint: &'static str,
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}({}): {}",
            self.path,
            self.line,
            self.lint,
            lint_name(self.lint),
            self.message
        )
    }
}

/// Human-readable name for a lint ID.
pub fn lint_name(id: &str) -> &'static str {
    match id {
        "L2" => "float_cmp",
        "L3" => "typed_error",
        "L5" => "unit_safety",
        "L7" => "lock_discipline",
        _ => "unknown",
    }
}

/// One-line description of what a lint enforces (shown by `alint lints`).
pub fn lint_description(id: &str) -> &'static str {
    match id {
        "L2" => "no bare ==/!= against floating-point expressions",
        "L3" => "public Result functions in typed-error crates return typed errors",
        "L5" => "no arithmetic/comparison between operands of different inferred units",
        "L7" => "no expensive calls, order inversions, re-locks, or .await under lock guards",
        _ => "unknown lint",
    }
}

/// Which passes apply to the file being linted (decided by scope config).
/// L2 has no switch: it runs on every scanned file.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileScope {
    /// L3: the file belongs to a typed-error crate's `src/` tree.
    pub typed_error: bool,
    /// L5: unit-safety dataflow over suffix- and ascription-inferred units.
    pub unit_safety: bool,
    /// L7: lock-guard windows are checked for expensive calls, order
    /// inversions, double-acquires, and `.await` (applies to every
    /// scanned file; the pass only fires near `.lock()`).
    pub lock_discipline: bool,
}

/// Unit-inference tables for L5, derived from the `[units]` section of
/// `alint.toml` (see [`Config`]): identifier-suffix → unit, quantity type
/// name → unit, and the allowlist of conversion identifiers whose presence
/// marks a mixed-unit expression as an intentional conversion.
#[derive(Debug, Clone, Default)]
pub struct UnitTables {
    /// `(suffix, unit)` sorted longest-suffix-first so `_node_hours` wins
    /// over any shorter overlapping suffix.
    suffixes: Vec<(String, String)>,
    types: BTreeMap<String, String>,
    conversions: BTreeSet<String>,
}

impl UnitTables {
    /// Build the lookup tables from a parsed configuration.
    pub fn from_config(config: &Config) -> Self {
        let mut suffixes = config.unit_suffixes.clone();
        suffixes.sort_by(|a, b| b.0.len().cmp(&a.0.len()).then(a.0.cmp(&b.0)));
        UnitTables {
            suffixes,
            types: config.unit_types.iter().cloned().collect(),
            conversions: config.unit_conversions.iter().cloned().collect(),
        }
    }

    /// Unit inferred from an identifier's suffix, matched case-insensitively
    /// (`MEM_LIMIT_MB` and `base_mem_mb` both read as megabytes). The
    /// identifier must be strictly longer than the suffix.
    fn suffix_unit(&self, ident: &str) -> Option<&str> {
        let lower = ident.to_ascii_lowercase();
        self.suffixes
            .iter()
            .find(|(suffix, _)| lower.len() > suffix.len() && lower.ends_with(suffix.as_str()))
            .map(|(_, unit)| unit.as_str())
    }

    fn is_empty(&self) -> bool {
        self.suffixes.is_empty() && self.types.is_empty()
    }
}

/// Lookup tables for L7, derived from the `[locks]` section of
/// `alint.toml`: receiver identifier → lock class, the total acquisition
/// order over classes (lowest first), and the expensive-identifier set
/// fed to the call graph.
#[derive(Debug, Clone, Default)]
pub struct LockTables {
    classes: BTreeMap<String, String>,
    order: Vec<String>,
    /// Identifiers that make a call expensive by fiat; public so the
    /// call-graph build can consume the same set.
    pub expensive: BTreeSet<String>,
}

impl LockTables {
    /// Build the lock tables from a parsed configuration.
    pub fn from_config(config: &Config) -> Self {
        LockTables {
            classes: config.lock_classes.iter().cloned().collect(),
            order: config.lock_order.clone(),
            expensive: config.expensive_idents.iter().cloned().collect(),
        }
    }

    /// L7 is disabled when every table is emptied (mirrors L5's
    /// empty-unit-tables switch). An empty *order* alone does not
    /// disable the pass — it makes every acquisition unordered, which
    /// is a violation at each site (the probe discipline).
    fn is_empty(&self) -> bool {
        self.classes.is_empty() && self.order.is_empty()
    }

    /// Rank of a class in the acquisition order (0 = lowest).
    fn rank(&self, class: &str) -> Option<usize> {
        self.order.iter().position(|c| c == class)
    }

    /// Lock class of a receiver chain: the innermost receiver identifier
    /// with a declared class wins (`self.warm` → `warm`). Returns the
    /// class and whether it was declared; undeclared receivers fall back
    /// to their own identifier so nesting checks still have a name.
    fn class_of(&self, receiver: &[String]) -> (String, bool) {
        for ident in receiver.iter().rev() {
            if let Some(class) = self.classes.get(ident) {
                return (class.clone(), true);
            }
        }
        let fallback = receiver
            .iter()
            .rev()
            .find(|i| *i != "self" && *i != "Self")
            .or_else(|| receiver.last())
            .map(String::as_str)
            .unwrap_or("<expr>");
        (fallback.to_string(), false)
    }
}

/// Run every applicable pass over one lexed file.
pub fn lint_file(
    path: &str,
    lexed: &Lexed,
    scope: FileScope,
    units: &UnitTables,
    locks: &LockTables,
    graph: &CallGraph,
) -> Vec<Diagnostic> {
    let tokens = &lexed.tokens;
    let in_test = test_region_mask(tokens);
    let suppressed = suppression_markers(lexed);
    let mut diagnostics = Vec::new();

    let mut push = |lint: &'static str, line: u32, message: String| {
        let by_id = suppressed
            .get(&line)
            .or_else(|| suppressed.get(&(line.saturating_sub(1))));
        if let Some(ids) = by_id {
            if ids.contains(lint) || ids.contains(lint_name(lint)) {
                return;
            }
        }
        diagnostics.push(Diagnostic {
            path: path.to_string(),
            line,
            lint,
            message,
        });
    };

    l2_float_cmp(tokens, &in_test, &mut push);
    if scope.typed_error {
        l3_typed_errors(tokens, &in_test, &mut push);
    }
    if scope.unit_safety {
        l5_unit_safety(tokens, &in_test, units, &mut push);
    }
    if scope.lock_discipline {
        l7_lock_discipline(path, tokens, &in_test, locks, graph, &mut push);
    }

    diagnostics.sort();
    diagnostics
}

/// Lines carrying `alint: allow(...)` markers, with the lint IDs/names they
/// suppress. A marker suppresses findings on its own line and the next one.
fn suppression_markers(lexed: &Lexed) -> BTreeMap<u32, BTreeSet<String>> {
    let mut map: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    for (line, text) in &lexed.comments {
        let Some(rest) = text.strip_prefix("alint:") else {
            continue;
        };
        let rest = rest.trim();
        let Some(args) = rest
            .strip_prefix("allow(")
            .and_then(|r| r.strip_suffix(')'))
        else {
            continue;
        };
        let entry = map.entry(*line).or_default();
        for id in args.split(',') {
            entry.insert(id.trim().to_string());
        }
    }
    // A marker on line N also covers line N+1 (comment-above style).
    let extended: Vec<(u32, BTreeSet<String>)> = map
        .iter()
        .map(|(line, ids)| (*line + 1, ids.clone()))
        .collect();
    for (line, ids) in extended {
        map.entry(line).or_default().extend(ids);
    }
    map
}

/// Boolean mask over tokens: `true` when the token is inside a
/// `#[cfg(test)]`-gated item (attribute plus the item it decorates).
fn test_region_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if !(tokens[i].text == "#" && i + 1 < tokens.len() && tokens[i + 1].text == "[") {
            i += 1;
            continue;
        }
        // Parse the attribute token range.
        let attr_start = i;
        let Some(attr_end) = matching_delim(tokens, i + 1, "[", "]") else {
            break;
        };
        let is_cfg_test = tokens[attr_start..=attr_end]
            .windows(3)
            .any(|w| w[0].text == "cfg" && w[1].text == "(" && w[2].text == "test");
        if !is_cfg_test {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes, then consume the decorated item:
        // everything up to and including its body `{..}` or terminating `;`.
        let mut j = attr_end + 1;
        while j + 1 < tokens.len() && tokens[j].text == "#" && tokens[j + 1].text == "[" {
            match matching_delim(tokens, j + 1, "[", "]") {
                Some(end) => j = end + 1,
                None => break,
            }
        }
        let mut depth = 0i64;
        let mut item_end = tokens.len() - 1;
        let mut k = j;
        while k < tokens.len() {
            match tokens[k].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        item_end = k;
                        break;
                    }
                }
                ";" if depth == 0 => {
                    item_end = k;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        for slot in mask.iter_mut().take(item_end + 1).skip(attr_start) {
            *slot = true;
        }
        i = item_end + 1;
    }
    mask
}

/// Index of the delimiter closing `tokens[open_at]` (which must equal
/// `open`), or `None` when unbalanced.
fn matching_delim(tokens: &[Token], open_at: usize, open: &str, close: &str) -> Option<usize> {
    debug_assert_eq!(tokens[open_at].text, open);
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

/// Float-returning method names used to classify a comparison operand as
/// floating point without type information. Ambiguous names that exist on both int
/// and float types (`abs`, `min`, `max`, `pow*` on ints) are excluded.
const FLOAT_METHODS: [&str; 20] = [
    "sqrt",
    "ln",
    "log10",
    "log2",
    "exp",
    "exp2",
    "exp_m1",
    "ln_1p",
    "floor",
    "ceil",
    "round",
    "trunc",
    "powf",
    "sin",
    "cos",
    "tan",
    "hypot",
    "to_degrees",
    "to_radians",
    "mul_add",
];

/// Variables bound with an explicit float type ascription —
/// `let [mut] name: [&[mut]] (f64 | f32) = …` — outside test regions.
/// Names that also carry a *non-float* ascription anywhere in the file
/// (shadowing, reuse across functions) are dropped: without real scopes
/// the pass cannot tell which binding a later use refers to, and a false
/// positive on an integer comparison would be worse than staying quiet.
/// Unascribed `let name = …` bindings are not tracked at all — they carry
/// no type evidence either way.
fn float_ascribed_vars(tokens: &[Token], in_test: &[bool]) -> BTreeSet<String> {
    let mut float_names = BTreeSet::new();
    let mut nonfloat_names = BTreeSet::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if in_test[i] || tokens[i].kind != TokenKind::Ident || tokens[i].text != "let" {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if tokens.get(j).is_some_and(|t| t.text == "mut") {
            j += 1;
        }
        // Only simple `IDENT :` bindings — destructuring patterns bind
        // through the *inner* types and are left to clippy.
        let Some(name) = tokens.get(j).filter(|t| t.kind == TokenKind::Ident) else {
            i = j;
            continue;
        };
        if tokens.get(j + 1).map(|t| t.text.as_str()) != Some(":") {
            i = j + 1;
            continue;
        }
        // The ascribed type: tokens up to the initializer `=` or the `;`
        // of an uninitialized binding, nesting-aware so `Vec<f64>` or
        // tuple types never read as a bare scalar.
        let mut k = j + 2;
        let mut depth = 0i64;
        let mut ty: Vec<&Token> = Vec::new();
        while let Some(token) = tokens.get(k) {
            match token.text.as_str() {
                "<" | "(" | "[" => depth += 1,
                ">" | ")" | "]" => depth -= 1,
                "=" | ";" if depth <= 0 => break,
                _ => {}
            }
            ty.push(token);
            k += 1;
        }
        // Strip reference layers; what remains must be exactly the scalar.
        let scalar: Vec<&str> = ty
            .iter()
            .filter(|t| !(t.text == "&" || t.text == "mut" || t.kind == TokenKind::Lifetime))
            .map(|t| t.text.as_str())
            .collect();
        if scalar == ["f64"] || scalar == ["f32"] {
            float_names.insert(name.text.clone());
        } else {
            nonfloat_names.insert(name.text.clone());
        }
        i = k;
    }
    for name in &nonfloat_names {
        float_names.remove(name);
    }
    float_names
}

/// L2: `==` / `!=` with a floating-point side.
///
/// Without type inference the pass flags comparisons where either operand's
/// adjacent token chain is *manifestly* float: a float literal, an `f64`/
/// `f32` path, `NAN`/`INFINITY`/`EPSILON` consts, a call to a
/// float-returning method, or a variable the file ascribes a float type
/// via `let` (see [`float_ascribed_vars`]). Opaque `a == b` on fn
/// parameters is still not flagged — clippy's `float_cmp` covers the
/// remaining typed cases.
fn l2_float_cmp(
    tokens: &[Token],
    in_test: &[bool],
    push: &mut impl FnMut(&'static str, u32, String),
) {
    let ascribed = float_ascribed_vars(tokens, in_test);
    let is_floaty_at = |idx: usize| -> bool {
        let Some(token) = tokens.get(idx) else {
            return false;
        };
        match token.kind {
            TokenKind::Float => true,
            TokenKind::Ident => {
                matches!(
                    token.text.as_str(),
                    "f64" | "f32" | "NAN" | "INFINITY" | "NEG_INFINITY" | "EPSILON"
                ) || FLOAT_METHODS.contains(&token.text.as_str())
                    || (ascribed.contains(&token.text)
                        // A following `(` means a call, not the variable.
                        && tokens.get(idx + 1).map(|t| t.text.as_str()) != Some("("))
            }
            _ => false,
        }
    };
    for (i, token) in tokens.iter().enumerate() {
        if in_test[i] || token.kind != TokenKind::Punct {
            continue;
        }
        if token.text != "==" && token.text != "!=" {
            continue;
        }
        // Look a few tokens in both directions: enough to see through
        // `x.method() == 0.0` and `f64::NAN != y` without crossing `;`.
        let window = 5usize;
        let before = (i.saturating_sub(window)..i)
            .rev()
            .take_while(|&k| !matches!(tokens[k].text.as_str(), ";" | "{" | "}" | ","));
        let after = (i + 1..tokens.len().min(i + 1 + window))
            .take_while(|&k| !matches!(tokens[k].text.as_str(), ";" | "{" | "}" | ","));
        let floaty = before.clone().any(is_floaty_at) || after.clone().any(is_floaty_at);
        if floaty {
            push(
                "L2",
                token.line,
                format!(
                    "bare `{}` on a floating-point value; compare with an \
                     epsilon or use total_cmp",
                    token.text
                ),
            );
        }
    }
}

/// L3: public functions returning `Result` must carry the crate's typed
/// error — `Box<dyn Error>`, `String`, `&str`, and `()` error slots are
/// rejected. A one-argument `Result<T>` is the crate's alias and passes.
fn l3_typed_errors(
    tokens: &[Token],
    in_test: &[bool],
    push: &mut impl FnMut(&'static str, u32, String),
) {
    let mut i = 0usize;
    while i < tokens.len() {
        // Match `pub fn name` — `pub(crate)` and friends are not public API.
        if tokens[i].text != "pub" || in_test[i] {
            i += 1;
            continue;
        }
        if tokens.get(i + 1).is_some_and(|t| t.text == "(") {
            i += 1;
            continue;
        }
        let Some(fn_idx) = tokens
            .get(i + 1)
            .filter(|t| t.text == "fn")
            .map(|_| i + 1)
            .or_else(|| {
                // `pub const fn` / `pub unsafe fn` / `pub async fn`.
                tokens
                    .get(i + 2)
                    .filter(|t| t.text == "fn")
                    .map(|_| i + 2)
                    .filter(|_| matches!(tokens[i + 1].text.as_str(), "const" | "unsafe" | "async"))
            })
        else {
            i += 1;
            continue;
        };
        let fn_line = tokens[fn_idx].line;
        // Find the `->` of this signature, tracking nesting so closures or
        // nested parens inside default bounds don't confuse the scan; stop
        // at the body `{` or a trait-decl `;`.
        let mut j = fn_idx + 1;
        let mut depth = 0i64;
        let mut arrow = None;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "->" if depth == 0 => {
                    arrow = Some(j);
                    break;
                }
                "{" | ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(arrow) = arrow else {
            i = j + 1;
            continue;
        };
        // Return type: tokens from arrow+1 to the body `{`, a `;`, or a
        // top-level `where`.
        let mut k = arrow + 1;
        let mut angle = 0i64;
        let mut ret_end = None;
        while k < tokens.len() {
            match tokens[k].text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "{" | ";" if angle <= 0 => {
                    ret_end = Some(k);
                    break;
                }
                "where" if angle <= 0 => {
                    ret_end = Some(k);
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let Some(ret_end) = ret_end else {
            i = k;
            continue;
        };
        let ret = &tokens[arrow + 1..ret_end];
        if let Some(message) = untyped_result_error(ret) {
            push("L3", fn_line, message);
        }
        i = ret_end + 1;
    }
}

/// Inspect a return-type token slice for a `Result` whose error argument is
/// stringly or type-erased. Returns the diagnostic message when violated.
fn untyped_result_error(ret: &[Token]) -> Option<String> {
    let result_idx = ret
        .iter()
        .position(|t| t.text == "Result" || t.text == "AlResult")?;
    let open = result_idx + 1;
    if ret.get(open).map(|t| t.text.as_str()) != Some("<") {
        return None;
    }
    // Split the generic arguments at depth-1 commas.
    let mut depth = 0i64;
    let mut args: Vec<Vec<&Token>> = vec![Vec::new()];
    let mut closed = false;
    for token in &ret[open..] {
        match token.text.as_str() {
            "<" => {
                depth += 1;
                if depth == 1 {
                    continue;
                }
            }
            ">" => {
                depth -= 1;
                if depth == 0 {
                    closed = true;
                    break;
                }
            }
            "," if depth == 1 => {
                args.push(Vec::new());
                continue;
            }
            _ => {}
        }
        args.last_mut()?.push(token);
    }
    if !closed || args.len() < 2 {
        // `Result<T>`: the crate's typed alias.
        return None;
    }
    let err_arg = &args[1];
    let texts: Vec<&str> = err_arg.iter().map(|t| t.text.as_str()).collect();
    if texts.windows(2).any(|w| w == ["Box", "<"]) && err_arg.iter().any(|t| t.text == "dyn") {
        return Some(
            "public Result uses Box<dyn Error>; thread the crate's typed error".to_string(),
        );
    }
    if texts == ["String"] || texts.contains(&"str") {
        return Some(
            "public Result uses a stringly error; thread the crate's typed error".to_string(),
        );
    }
    if texts.is_empty() || texts == ["(", ")"] {
        return Some(
            "public Result uses `()` as the error; thread the crate's typed error".to_string(),
        );
    }
    None
}

/// Variables bound with an explicit quantity-type ascription —
/// `let [mut] name: [&[mut]] Seconds = …` — outside test regions, mapped to
/// the unit the type table assigns. As with [`float_ascribed_vars`], names
/// the file later ascribes a *different* unit type (shadowing, reuse across
/// functions) are dropped: without real scopes the pass cannot tell which
/// binding a use refers to. Non-quantity ascriptions (`f64`, `usize`, …)
/// contribute nothing either way — the identifier's suffix remains the
/// evidence for those bindings.
fn unit_ascribed_vars(
    tokens: &[Token],
    in_test: &[bool],
    units: &UnitTables,
) -> BTreeMap<String, String> {
    let mut unit_names: BTreeMap<String, String> = BTreeMap::new();
    let mut conflicted: BTreeSet<String> = BTreeSet::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if in_test[i] || tokens[i].kind != TokenKind::Ident || tokens[i].text != "let" {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if tokens.get(j).is_some_and(|t| t.text == "mut") {
            j += 1;
        }
        let Some(name) = tokens.get(j).filter(|t| t.kind == TokenKind::Ident) else {
            i = j;
            continue;
        };
        if tokens.get(j + 1).map(|t| t.text.as_str()) != Some(":") {
            i = j + 1;
            continue;
        }
        let mut k = j + 2;
        let mut depth = 0i64;
        let mut ty: Vec<&Token> = Vec::new();
        while let Some(token) = tokens.get(k) {
            match token.text.as_str() {
                "<" | "(" | "[" => depth += 1,
                ">" | ")" | "]" => depth -= 1,
                "=" | ";" if depth <= 0 => break,
                _ => {}
            }
            ty.push(token);
            k += 1;
        }
        let scalar: Vec<&str> = ty
            .iter()
            .filter(|t| !(t.text == "&" || t.text == "mut" || t.kind == TokenKind::Lifetime))
            .map(|t| t.text.as_str())
            .collect();
        if let [single] = scalar.as_slice() {
            if let Some(unit) = units.types.get(*single) {
                match unit_names.get(name.text.as_str()) {
                    Some(existing) if existing != unit => {
                        conflicted.insert(name.text.clone());
                    }
                    _ => {
                        unit_names.insert(name.text.clone(), unit.clone());
                    }
                }
            }
        }
        i = k;
    }
    for name in &conflicted {
        unit_names.remove(name);
    }
    unit_names
}

/// L5: `+`/`-` (including `+=`/`-=`) and comparisons between operands whose
/// inferred units differ.
///
/// A unit is inferred for an identifier from, in order: a `let` ascription
/// to a quantity type (see [`unit_ascribed_vars`]), the quantity type table
/// itself (`Seconds::new(…)` carries seconds), and the longest matching
/// identifier suffix (`_us`, `_mb`, …; case-insensitive). Each operand side
/// is a short token window around the operator, stopping at expression
/// boundaries; the *nearest* unit-bearing identifier on each side decides
/// that side's unit. An operator is flagged only when **both** sides carry
/// units and they disagree — one-sided evidence never flags — and any
/// conversion-allowlist identifier (`to_seconds`, `log10`, …) in either
/// window marks the expression as an intentional conversion and suppresses
/// the finding. `.value()` escapes to raw `f64` are deliberately *not* on
/// the allowlist: `a_us.value() < b_seconds.value()` is exactly the bug
/// class this pass exists to catch.
fn l5_unit_safety(
    tokens: &[Token],
    in_test: &[bool],
    units: &UnitTables,
    push: &mut impl FnMut(&'static str, u32, String),
) {
    if units.is_empty() {
        return;
    }
    let ascribed = unit_ascribed_vars(tokens, in_test, units);
    let unit_at = |idx: usize| -> Option<&str> {
        let token = tokens.get(idx)?;
        if token.kind != TokenKind::Ident {
            return None;
        }
        if let Some(unit) = ascribed.get(&token.text) {
            return Some(unit);
        }
        if let Some(unit) = units.types.get(&token.text) {
            return Some(unit);
        }
        units.suffix_unit(&token.text)
    };
    let converts_at = |idx: usize| -> bool {
        tokens
            .get(idx)
            .is_some_and(|t| t.kind == TokenKind::Ident && units.conversions.contains(&t.text))
    };
    // Expression boundaries: statement/block punctuation, short-circuit
    // operators, assignment, ascription/arrow (type positions), and the
    // statement keywords. Parentheses are transparent on purpose so units
    // are seen through call layers like `f(a_us) + g(b_us)`.
    let stops = |k: usize| {
        matches!(
            tokens[k].text.as_str(),
            ";" | "{"
                | "}"
                | ","
                | "&&"
                | "||"
                | "="
                | "=>"
                | ":"
                | "->"
                | "return"
                | "let"
                | "if"
                | "else"
                | "while"
                | "for"
                | "match"
                | "in"
        )
    };
    for (i, token) in tokens.iter().enumerate() {
        if in_test[i] || token.kind != TokenKind::Punct {
            continue;
        }
        let op = token.text.as_str();
        let arithmetic = matches!(op, "+" | "-");
        if !arithmetic && !matches!(op, "<" | "<=" | ">" | ">=" | "==" | "!=") {
            continue;
        }
        // `+=`/`-=` lex as two tokens; the right operand starts past the `=`
        // and the display operator is reassembled for the message.
        let mut right_from = i + 1;
        let mut shown = op.to_string();
        if arithmetic && tokens.get(i + 1).is_some_and(|t| t.text == "=") {
            right_from = i + 2;
            shown.push('=');
        }
        let window = 6usize;
        let left: Vec<usize> = (0..i)
            .rev()
            .take_while(|&k| !stops(k))
            .take(window)
            .collect();
        let right: Vec<usize> = (right_from..tokens.len())
            .take_while(|&k| !stops(k))
            .take(window)
            .collect();
        if left.iter().chain(right.iter()).any(|&k| converts_at(k)) {
            continue;
        }
        let left_unit = left.iter().find_map(|&k| unit_at(k));
        let right_unit = right.iter().find_map(|&k| unit_at(k));
        if let (Some(lhs), Some(rhs)) = (left_unit, right_unit) {
            if lhs != rhs {
                push(
                    "L5",
                    token.line,
                    format!("`{shown}` mixes {lhs} and {rhs}; convert explicitly before combining"),
                );
            }
        }
    }
}

/// One live lock-guard window for L7.
struct LockWindow {
    /// Token index of the `lock` identifier that opened the window.
    site: usize,
    /// Lock class of the acquisition (declared or fallback).
    class: String,
    /// Rank of the class in `[locks] lock_order`, if declared there.
    rank: Option<usize>,
    /// Token range the guard is live over, end exclusive.
    span: (usize, usize),
}

/// L7 `lock_discipline`: statically enforce the SessionStore locking
/// contract inside lock-guard windows (the first call-graph-backed pass).
///
/// A window opens at each `.lock()` call and is tracked like L5's
/// dataflow windows:
///
/// - `let g = recv.lock();` — a *named* guard: the window runs to the
///   end of the enclosing brace block, or to the first `drop(g)`.
/// - any other `.lock()` use — a *temporary* guard: the window runs to
///   the end of the statement (`;`), the enclosing match-arm `,`, or the
///   enclosing close delimiter, whichever comes first. (Rust extends
///   some temporaries to the whole statement; stopping at the arm comma
///   under-approximates, trading missed exotica for no false positives.)
///
/// Inside a window of class `C` the rules are:
///
/// (a) **expensive-call-under-lock** — a call whose identifier is in
///     `[locks] expensive_idents` (expensive by fiat, `state.step(obs)`
///     needs no resolution), or whose call-graph closure reaches one;
/// (b) **lock-order inversion** — acquiring a class ranked below `C` in
///     `[locks] lock_order`, directly or one call level deep (a resolved
///     callee that itself locks);
/// (c) **double-acquire / guard-across-await** — acquiring `C` again
///     (directly or one call deep; parking_lot mutexes are not
///     reentrant), or any `.await` while the guard is live (guards must
///     not be held across suspension points — the async serving layer
///     lands on this contract).
///
/// Independent of windows, every `.lock()` receiver must map to a class
/// in `[locks] lock_classes` and every class must appear in
/// `lock_order`: deleting the order table surfaces every acquisition
/// site as a finding rather than silencing the pass.
fn l7_lock_discipline(
    path: &str,
    tokens: &[Token],
    in_test: &[bool],
    locks: &LockTables,
    graph: &CallGraph,
    push: &mut impl FnMut(&'static str, u32, String),
) {
    if locks.is_empty() {
        return;
    }
    let order_str = || locks.order.join(" < ");
    let mut windows: Vec<LockWindow> = Vec::new();

    for i in 0..tokens.len() {
        if !callgraph::is_lock_site(tokens, i) || in_test[i] {
            continue;
        }
        let (recv_start, receiver) = callgraph::receiver_chain(tokens, i - 1);
        let (class, declared) = locks.class_of(&receiver);
        let rank = locks.rank(&class);
        if !declared {
            push(
                "L7",
                tokens[i].line,
                format!(
                    "`{class}.lock()` has no declared lock class; map the receiver in \
                     [locks] lock_classes (alint.toml)"
                ),
            );
        } else if rank.is_none() {
            push(
                "L7",
                tokens[i].line,
                format!(
                    "lock class `{class}` is missing from [locks] lock_order; \
                     the acquisition order is undeclared"
                ),
            );
        }
        let Some(close) = matching_delim(tokens, i + 1, "(", ")") else {
            continue;
        };
        // Named guard: `let [mut] NAME = recv.lock();` — nothing chained
        // after the call, so the binding *is* the guard.
        let named = if close + 1 < tokens.len()
            && tokens[close + 1].text == ";"
            && recv_start >= 3
            && tokens[recv_start - 1].text == "="
            && matches!(tokens[recv_start - 2].kind, TokenKind::Ident)
            && (tokens[recv_start - 3].text == "let"
                || (tokens[recv_start - 3].text == "mut"
                    && recv_start >= 4
                    && tokens[recv_start - 4].text == "let"))
        {
            Some(tokens[recv_start - 2].text.clone())
        } else {
            None
        };
        let mut depth = 0i64;
        let mut end = tokens.len();
        let scan_from = match &named {
            Some(_) => close + 2,
            None => close + 1,
        };
        for (k, token) in tokens.iter().enumerate().skip(scan_from) {
            match token.text.as_str() {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => {
                    depth -= 1;
                    if depth < 0 {
                        end = k;
                        break;
                    }
                }
                ";" | "," if named.is_none() && depth == 0 => {
                    end = k;
                    break;
                }
                "drop"
                    if named.as_deref().is_some_and(|name| {
                        k + 3 < tokens.len()
                            && tokens[k + 1].text == "("
                            && tokens[k + 2].text == name
                            && tokens[k + 3].text == ")"
                    }) =>
                {
                    end = k;
                    break;
                }
                _ => {}
            }
        }
        windows.push(LockWindow {
            site: i,
            class,
            rank,
            span: (close + 1, end),
        });
    }

    // Overlapping windows can surface the same defect twice; report each
    // distinct (line, message) once.
    let mut seen: BTreeSet<(u32, String)> = BTreeSet::new();
    for w in &windows {
        let mut emit = |line: u32, message: String| {
            if seen.insert((line, message.clone())) {
                push("L7", line, message);
            }
        };
        let class = &w.class;
        for j in w.span.0..w.span.1.min(tokens.len()) {
            if in_test[j] {
                continue;
            }
            let line = tokens[j].line;
            if tokens[j].text == "await"
                && matches!(tokens[j].kind, TokenKind::Ident)
                && j > 0
                && tokens[j - 1].text == "."
            {
                emit(
                    line,
                    format!(
                        "`{class}` guard is held across `.await`; a future can park or \
                         migrate threads with the lock held — drop the guard first"
                    ),
                );
                continue;
            }
            if callgraph::is_lock_site(tokens, j) {
                if j == w.site {
                    continue;
                }
                let inner = callgraph::receiver_idents(tokens, j - 1);
                let (inner_class, inner_declared) = locks.class_of(&inner);
                if inner_class == *class {
                    emit(
                        line,
                        format!(
                            "`{class}` lock acquired again while a `{class}` guard is \
                             live (double-acquire; parking_lot mutexes are not reentrant)"
                        ),
                    );
                } else if inner_declared {
                    if let (Some(outer), Some(nested)) = (w.rank, locks.rank(&inner_class)) {
                        if nested < outer {
                            emit(
                                line,
                                format!(
                                    "lock-order inversion: acquiring `{inner_class}` while \
                                     `{class}` is held (declared order: {})",
                                    order_str()
                                ),
                            );
                        }
                    }
                }
                continue;
            }
            if !callgraph::is_call_site(tokens, j) || tokens[j].text == "drop" {
                continue;
            }
            let segments = callgraph::call_segments(tokens, j);
            let callee = segments.join("::");
            if let Some(seg) = segments
                .iter()
                .find(|s| locks.expensive.contains(s.as_str()))
            {
                emit(
                    line,
                    format!(
                        "expensive call `{callee}` under the `{class}` lock: `{seg}` is in \
                         [locks] expensive_idents — run it before locking or after \
                         dropping the guard"
                    ),
                );
                continue;
            }
            let dotted = j > 0 && tokens[j - 1].text == ".";
            let Some(target) = graph.resolve(path, j, &segments, dotted) else {
                continue;
            };
            if graph.is_expensive(target) {
                let witness = graph.witness(target).unwrap_or("an expensive ident");
                emit(
                    line,
                    format!(
                        "call to `{callee}` under the `{class}` lock reaches expensive \
                         `{witness}` through the call graph — hoist the work out of \
                         the guard window"
                    ),
                );
            }
            for (chain, _) in &graph.fns()[target].direct_locks {
                let (nested_class, nested_declared) = locks.class_of(chain);
                if !nested_declared {
                    continue;
                }
                if nested_class == *class {
                    emit(
                        line,
                        format!(
                            "call to `{callee}` re-acquires `{class}` one call deep while \
                             a `{class}` guard is live (double-acquire)"
                        ),
                    );
                } else if let (Some(outer), Some(nested)) = (w.rank, locks.rank(&nested_class)) {
                    if nested < outer {
                        emit(
                            line,
                            format!(
                                "lock-order inversion via `{callee}`: it acquires \
                                 `{nested_class}` while `{class}` is held (declared \
                                 order: {})",
                                order_str()
                            ),
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::committed;
    use crate::lexer::lex;

    fn run(src: &str, scope: FileScope) -> Vec<Diagnostic> {
        let lexed = lex(src);
        let config = committed();
        let locks = LockTables::from_config(&config);
        let graph = CallGraph::build(&[("test.rs".to_string(), &lexed)], &locks.expensive);
        lint_file(
            "test.rs",
            &lexed,
            scope,
            &UnitTables::from_config(&config),
            &locks,
            &graph,
        )
    }

    fn all_scopes() -> FileScope {
        FileScope {
            typed_error: true,
            unit_safety: true,
            lock_discipline: true,
        }
    }

    #[test]
    fn l2_flags_float_literal_comparison() {
        let src = "fn f(x: f64) -> bool { x == 0.0 }";
        let diags = run(src, all_scopes());
        assert_eq!(diags.iter().filter(|d| d.lint == "L2").count(), 1);
        let src = "fn f(x: f64) -> bool { x.sqrt() != 1.0e3 }";
        assert_eq!(
            run(src, all_scopes())
                .iter()
                .filter(|d| d.lint == "L2")
                .count(),
            1
        );
    }

    #[test]
    fn l2_ignores_integer_and_opaque_comparisons() {
        let src = "fn f(n: usize, m: usize) -> bool { n == m && n == 3 }";
        assert!(run(src, all_scopes()).is_empty());
        // Opaque floats are clippy's job (it has types); we stay quiet.
        let src = "fn f(a: f64, b: f64) -> bool { a == b }";
        assert!(run(src, all_scopes()).iter().all(|d| d.lint != "L2"));
    }

    #[test]
    fn l2_tracks_let_float_ascriptions() {
        let src = r#"
            fn f(a: f64, b: f64) -> bool {
                let t: f64 = a * b;
                let r: &f64 = &t;
                t == 1.0e0 || t != b || r == &a
            }
        "#;
        // `t == 1.0e0` is manifest; `t != b` and `r == &a` are caught only
        // via the ascriptions.
        let diags = run(src, all_scopes());
        assert_eq!(
            diags.iter().filter(|d| d.lint == "L2").count(),
            3,
            "{diags:?}"
        );
    }

    #[test]
    fn l2_ascription_tracking_skips_shadowed_and_nonscalar_types() {
        let src = r#"
            fn f(xs: Vec<f64>, n: usize) -> bool {
                let count: usize = xs.len();
                let v: Vec<f64> = xs;
                count == n && v.len() == n
            }
            fn g() -> bool {
                let k: f64 = 1.5;
                true
            }
            fn h(k: usize, n: usize) -> bool {
                let k: usize = k + 1;
                k == n
            }
        "#;
        // `k` holds a float in g() but a usize in h(): the ambiguous name
        // is dropped, and `Vec<f64>`/`usize` ascriptions never register.
        let diags = run(src, all_scopes());
        assert!(diags.iter().all(|d| d.lint != "L2"), "{diags:?}");
    }

    #[test]
    fn l2_ascriptions_inside_test_items_do_not_leak() {
        let src = r#"
            #[cfg(test)]
            fn t() { let q: f64 = 0.5; }
            fn f(q: usize, n: usize) -> bool { q == n }
        "#;
        let diags = run(src, all_scopes());
        assert!(diags.iter().all(|d| d.lint != "L2"), "{diags:?}");
    }

    #[test]
    fn l2_sees_nan_consts() {
        let src = "fn f(x: f64) -> bool { x == f64::NAN }";
        assert_eq!(
            run(src, all_scopes())
                .iter()
                .filter(|d| d.lint == "L2")
                .count(),
            1
        );
    }

    #[test]
    fn l3_flags_box_dyn_and_string_errors() {
        let src = r#"
            pub fn a() -> Result<u32, Box<dyn std::error::Error>> { Ok(1) }
            pub fn b() -> Result<u32, String> { Ok(1) }
            pub fn c() -> Result<Vec<u8>, &'static str> { Ok(vec![]) }
        "#;
        let diags = run(src, all_scopes());
        assert_eq!(
            diags.iter().filter(|d| d.lint == "L3").count(),
            3,
            "{diags:?}"
        );
    }

    #[test]
    fn l3_accepts_typed_and_aliased_results() {
        let src = r#"
            pub fn a() -> Result<u32, LinalgError> { Ok(1) }
            pub fn b() -> Result<Vec<Matrix>> { Ok(vec![]) }
            pub fn c() -> Result<(), std::io::Error> { Ok(()) }
            pub fn d<E: std::error::Error>() -> Result<u32, E> { todo!() }
            fn private() -> Result<u32, String> { Ok(1) }
            pub(crate) fn semi() -> Result<u32, String> { Ok(1) }
        "#;
        let diags = run(src, all_scopes());
        assert!(diags.iter().all(|d| d.lint != "L3"), "{diags:?}");
    }

    #[test]
    fn l3_handles_nested_generics_in_ok_slot() {
        let src =
            "pub fn a() -> Result<Vec<Result<u8, Inner>>, Box<dyn Error>> { unimplemented!() }";
        let diags = run(src, all_scopes());
        assert_eq!(diags.iter().filter(|d| d.lint == "L3").count(), 1);
    }

    #[test]
    fn scopes_gate_the_passes() {
        let src = "pub fn f() -> Result<u32, String> { Ok(1) }";
        assert!(run(src, FileScope::default()).is_empty());
        let only_l3 = FileScope {
            typed_error: true,
            ..FileScope::default()
        };
        assert_eq!(run(src, only_l3).len(), 1);
    }

    #[test]
    fn diagnostics_carry_file_line_and_id() {
        let src = "\n\nfn f(x: f64) -> bool { x == 0.0 }";
        let d = &run(src, all_scopes())[0];
        assert_eq!(d.path, "test.rs");
        assert_eq!(d.line, 3);
        assert_eq!(d.lint, "L2");
        assert!(d.to_string().contains("test.rs:3: L2(float_cmp)"));
    }

    fn l5_only() -> FileScope {
        FileScope {
            unit_safety: true,
            ..FileScope::default()
        }
    }

    #[test]
    fn l5_flags_mixed_suffix_arithmetic_and_comparison() {
        let src = "fn f(a_us: f64, b_seconds: f64) -> f64 { a_us + b_seconds }";
        let diags = run(src, l5_only());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].lint, "L5");
        assert!(diags[0].message.contains("microseconds"), "{diags:?}");
        assert!(diags[0].message.contains("seconds"), "{diags:?}");

        let src = "fn g(total_mb: f64, used_bytes: f64) -> bool { total_mb < used_bytes }";
        assert_eq!(run(src, l5_only()).len(), 1);
    }

    #[test]
    fn l5_same_unit_and_one_sided_are_silent() {
        let src = "fn f(a_us: f64, b_us: f64, k: f64) -> f64 { (a_us - b_us) + k }";
        assert!(run(src, l5_only()).is_empty());
        let src = "fn g(wall_seconds: f64, scale: f64) -> bool { wall_seconds < scale }";
        assert!(run(src, l5_only()).is_empty());
    }

    #[test]
    fn l5_conversion_idents_suppress() {
        let src = "fn f(a_us: f64, b_seconds: f64) -> f64 { to_seconds(a_us) + b_seconds }";
        assert!(run(src, l5_only()).is_empty());
        let src =
            "fn g(m: Micros, wall_seconds: Seconds) -> Seconds { wall_seconds + m.to_seconds() }";
        assert!(run(src, l5_only()).is_empty());
    }

    #[test]
    fn l5_detects_compound_assignment() {
        // `+=` lexes as `+` then `=`; the right window must start past the
        // `=`, not stop at it.
        let src =
            "fn f(extra_seconds: f64) { let mut total_us: f64 = 0.0; total_us += extra_seconds; }";
        let diags = run(src, l5_only());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("`+=`"), "{diags:?}");
    }

    #[test]
    fn l5_uses_quantity_type_ascriptions() {
        let src = r#"
            fn f(budget: Seconds, spent_us: f64) -> bool {
                let wall: Seconds = budget;
                wall != spent_us
            }
        "#;
        let diags = run(src, l5_only());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 4);
    }

    #[test]
    fn l5_conflicting_unit_ascriptions_drop_the_name() {
        let src = r#"
            fn f(x: Seconds) -> bool {
                let t: Seconds = x;
                let q_us = report(t);
                t < q_us
            }
            fn g(y: Micros) {
                let t: Micros = y;
                consume(t);
            }
        "#;
        // `t` is seconds in f() but micros in g(): ambiguous, so only the
        // suffix evidence on `q_us` remains and the comparison is one-sided.
        let diags = run(src, l5_only());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn l5_type_names_carry_units_in_expressions() {
        let src = "fn f(raw_mb: f64) -> bool { Seconds::new(1.0) < raw_mb }";
        let diags = run(src, l5_only());
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn l5_signatures_and_generics_do_not_flag() {
        // `Option<Megabytes>` and `-> NodeHours` put two quantity types near
        // `<`/`>` tokens; the `:`/`->`/`,` stops must keep them one-sided.
        let src = "pub fn record(cost_node_hours: f64, limit: Option<Megabytes>) -> NodeHours { NodeHours::new(cost_node_hours) }";
        let diags = run(src, l5_only());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn l5_markers_suppress() {
        let src = "fn f(a_us: f64, b_seconds: f64) -> f64 { a_us + b_seconds } // alint: allow(L5)";
        assert!(run(src, l5_only()).is_empty());
        let src =
            "// alint: allow(unit_safety)\nfn f(a_us: f64, b_mb: f64) -> bool { a_us < b_mb }";
        assert!(run(src, l5_only()).is_empty());
    }

    #[test]
    fn l5_is_silent_inside_test_regions() {
        let src = r#"
            #[cfg(test)]
            fn t(a_us: f64, b_seconds: f64) -> f64 { a_us + b_seconds }
        "#;
        assert!(run(src, l5_only()).is_empty());
    }

    #[test]
    fn l5_empty_tables_disable_the_pass() {
        let cfg = Config {
            unit_suffixes: Vec::new(),
            unit_types: Vec::new(),
            unit_conversions: Vec::new(),
            ..committed()
        };
        let src = "fn f(a_us: f64, b_seconds: f64) -> f64 { a_us + b_seconds }";
        let lexed = lex(src);
        let locks = LockTables::from_config(&cfg);
        let graph = CallGraph::build(&[("t.rs".to_string(), &lexed)], &locks.expensive);
        let diags = lint_file(
            "t.rs",
            &lexed,
            l5_only(),
            &UnitTables::from_config(&cfg),
            &locks,
            &graph,
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    fn l7_only() -> FileScope {
        FileScope {
            lock_discipline: true,
            ..FileScope::default()
        }
    }

    fn l7(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
        diags.iter().filter(|d| d.lint == "L7").collect()
    }

    #[test]
    fn l7_flags_direct_expensive_call_under_named_guard() {
        let src = r#"
            impl Store {
                pub fn observe(&self, id: u64) -> u32 {
                    let mut shard = self.shard(id).lock();
                    shard.step(3)
                }
            }
        "#;
        let diags = run(src, l7_only());
        let v = l7(&diags);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 5);
        assert!(v[0].message.contains("expensive call"), "{}", v[0].message);
    }

    #[test]
    fn l7_temporary_guard_window_ends_at_the_statement() {
        let src = r#"
            impl Store {
                pub fn create(&self) -> u32 {
                    let warm = self.warm.lock().peek();
                    fit(warm)
                }
            }
        "#;
        assert!(
            l7(&run(src, l7_only())).is_empty(),
            "fit runs after the statement"
        );
    }

    #[test]
    fn l7_drop_ends_a_named_window() {
        let src = r#"
            pub fn f(m: &Mutex<u32>) -> u32 {
                let shard = m.shard.lock();
                let x = *shard;
                drop(shard);
                fit(x)
            }
        "#;
        assert!(
            l7(&run(src, l7_only())).is_empty(),
            "guard dropped before fit"
        );
    }

    #[test]
    fn l7_flags_inversion_double_acquire_and_await() {
        let src = r#"
            impl Store {
                pub fn inverted(&self) -> u32 {
                    let shard = self.shard.lock();
                    let warm = self.warm.lock();
                    *shard + *warm
                }
                pub fn doubled(&self) -> u32 {
                    let a = self.shard.lock();
                    let b = self.shard.lock();
                    *a + *b
                }
                pub async fn parked(&self) -> u32 {
                    let g = self.warm.lock();
                    tick().await;
                    *g
                }
            }
        "#;
        let diags = run(src, l7_only());
        let v = l7(&diags);
        let lines: Vec<u32> = v.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![5, 10, 15], "{v:?}");
        assert!(v[0].message.contains("inversion"), "{}", v[0].message);
        assert!(v[1].message.contains("double-acquire"), "{}", v[1].message);
        assert!(v[2].message.contains(".await"), "{}", v[2].message);
    }

    #[test]
    fn l7_ascending_order_is_clean() {
        let src = r#"
            impl Store {
                pub fn ordered(&self) -> u32 {
                    let warm = self.warm.lock();
                    let shard = self.shard.lock();
                    *warm + *shard
                }
            }
        "#;
        assert!(l7(&run(src, l7_only())).is_empty());
    }

    #[test]
    fn l7_undeclared_receiver_and_missing_order_are_findings() {
        let src = "pub fn f(m: &M) -> u32 { *m.mystery.lock() }";
        let diags = run(src, l7_only());
        let v = l7(&diags);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].message.contains("no declared lock class"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn l7_call_graph_reachability_and_one_call_deep_locks() {
        let src = r#"
            impl Store {
                pub fn reaches(&self) -> u32 {
                    let shard = self.shard.lock();
                    helper(*shard)
                }
                pub fn nested_inversion(&self) -> u32 {
                    let shard = self.shard.lock();
                    lock_warm(self) + *shard
                }
            }
            fn helper(x: u32) -> u32 { slow(x) }
            fn slow(x: u32) -> u32 { fit(x) }
            fn fit(x: u32) -> u32 { x + 1 }
            fn lock_warm(s: &Store) -> u32 { *s.warm.lock() }
        "#;
        let diags = run(src, l7_only());
        let v = l7(&diags);
        let lines: Vec<u32> = v.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![5, 9], "{v:?}");
        assert!(
            v[0].message.contains("reaches expensive"),
            "{}",
            v[0].message
        );
        assert!(v[1].message.contains("inversion via"), "{}", v[1].message);
    }

    #[test]
    fn l7_markers_suppress_and_test_regions_are_silent() {
        let src =
            "pub fn f(&self) -> u32 { let g = self.shard.lock(); g.step(1) } // alint: allow(L7)";
        assert!(l7(&run(src, l7_only())).is_empty());
        let test_mod = r#"
            #[cfg(test)]
            mod tests {
                fn t(s: &Store) { let g = s.shard.lock(); g.step(1); }
            }
        "#;
        assert!(l7(&run(test_mod, l7_only())).is_empty());
    }

    #[test]
    fn l7_disabled_when_all_lock_tables_are_empty() {
        let lexed = lex("pub fn f(&self) { let g = self.mystery.lock(); g.step(1); }");
        let empty = LockTables::default();
        let graph = CallGraph::build(&[("test.rs".to_string(), &lexed)], &empty.expensive);
        let diags = lint_file(
            "test.rs",
            &lexed,
            l7_only(),
            &UnitTables::from_config(&committed()),
            &empty,
            &graph,
        );
        assert!(diags.is_empty());
    }

    #[test]
    fn l7_emptied_order_surfaces_every_declared_acquisition() {
        // The probe: classes stay declared, the order table is emptied —
        // every acquisition site must surface, not silence.
        let lexed = lex("pub fn f(&self) -> usize { self.shard.lock().len() }");
        let mut cfg = committed();
        cfg.lock_order.clear();
        let locks = LockTables::from_config(&cfg);
        let graph = CallGraph::build(&[("test.rs".to_string(), &lexed)], &locks.expensive);
        let diags = lint_file(
            "test.rs",
            &lexed,
            l7_only(),
            &UnitTables::from_config(&committed()),
            &locks,
            &graph,
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(
            diags[0].message.contains("missing from [locks] lock_order"),
            "{}",
            diags[0].message
        );
    }
}
