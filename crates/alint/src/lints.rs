//! The two lint passes.
//!
//! | ID | name         | invariant                                                            |
//! |----|--------------|----------------------------------------------------------------------|
//! | L2 | `float_cmp`  | no bare `==`/`!=` against floating-point expressions                 |
//! | L3 | `typed_error`| public `Result` fns in library sources use a typed error             |
//!
//! The IDs L1 (`panic_site`), L4 (`lossy_cast`), L5 (units), L6
//! (`determinism_safety`) and L7 (`lock_discipline`) are retired, not
//! reused: rustc and clippy check them with real name resolution.
//! `unwrap_used`/`expect_used`/`panic`/`todo`/`unimplemented` replace L1,
//! a module-scoped `cast_possible_truncation` replaces L4, and
//! `clippy.toml`'s `disallowed-types` (hash containers) and
//! `disallowed-methods` (thread spawns, wall-clock reads) replace L6.
//! L5's unit rules are type facts of the `al-units` newtypes, which have
//! no `From`/`Into` between units, so rustc rejects a mixed-unit `+`, `-`
//! or comparison. L7's locking contract is a type fact of the store's
//! shard module plus a `disallowed-methods` ban on `Mutex::lock` outside
//! it (DESIGN §14). L2 stays because clippy's `float_cmp` exempts
//! comparisons against zero and the infinities, and every function whose
//! name contains `eq`.
//!
//! All passes skip `#[cfg(test)]` items and honour inline suppression
//! markers of the form `// alint: allow(L2)` or `// alint: allow(float_cmp)`
//! on the same or the immediately preceding line.
//!
//! The passes run on the token stream from [`crate::lexer`]; where real type
//! information would be needed (L2) the heuristics are deliberately
//! conservative and documented on each pass.

use crate::lexer::{Lexed, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// One finding, pointing at a workspace-relative file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    pub path: String,
    pub line: u32,
    /// Lint ID: `L2` or `L3`.
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
        _ => "unknown",
    }
}

/// Which passes apply to the file being linted (decided by
/// [`crate::workspace::scope_for`]). L2 has no switch: it runs on every
/// scanned file.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileScope {
    /// L3: the file is a library source (a `src/` tree, binaries excluded).
    pub typed_error: bool,
}

/// Run every applicable pass over one lexed file.
pub fn lint_file(path: &str, lexed: &Lexed, scope: FileScope) -> Vec<Diagnostic> {
    let tokens = &lexed.tokens;
    let in_test = test_region_mask(tokens);
    let suppressed = suppression_markers(lexed);
    let mut diagnostics = Vec::new();

    let mut push = |lint: &'static str, line: u32, message: String| {
        if let Some(ids) = suppressed.get(&line) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str, scope: FileScope) -> Vec<Diagnostic> {
        lint_file("test.rs", &lex(src), scope)
    }

    fn all_scopes() -> FileScope {
        FileScope { typed_error: true }
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
        assert_eq!(run(src, all_scopes()).len(), 1);
    }

    #[test]
    fn markers_cover_their_own_line_and_the_next_only() {
        let finding = "fn f(x: f64) -> bool { x == 0.0 }";
        let same_line = format!("{finding} // alint: allow(L2)");
        assert!(run(&same_line, all_scopes()).is_empty());
        let above = format!("// alint: allow(float_cmp)\n{finding}");
        assert!(run(&above, all_scopes()).is_empty());
        let two_below = format!("// alint: allow(L2)\n\n{finding}");
        let d = run(&two_below, all_scopes());
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].line, d[0].lint), (3, "L2"));
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
}
