//! alint — workspace static analysis for numerical-robustness invariants.
//!
//! The two lints (L2 float_cmp, L3 typed_error) encode rules that rustc
//! and clippy cannot express: float comparisons clippy's `float_cmp`
//! exempts, and which crates owe typed errors. The retired IDs L1, L4, L5,
//! L6 and L7 are checked by rustc and clippy (the workspace `[lints]`
//! tables, the `al-units` newtypes, `clippy.toml`'s disallowed lists, and
//! the store's shard module, whose types keep GP work out of every lock).
//! Each file is linted on its own, and every diagnostic that
//! no inline `// alint: allow(Lx)` marker suppresses fails the check.
//! See `lints` for the rules, `config` for `alint.toml`, and `DESIGN.md`
//! ("Static analysis & invariants") for the policy.
//!
//! Run with `cargo run -p alint -- check` from the workspace root.

// Tests compare exactly-copied floats; the cfg(test) compile allows that
// while the regular compile still lints library code.
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod config;
pub mod lexer;
pub mod lints;
pub mod workspace;

use config::Config;
use lints::Diagnostic;
use std::path::Path;

/// Outcome of a full workspace check.
#[derive(Debug, Default)]
pub struct Report {
    /// Diagnostics no inline marker suppressed — each one fails the check.
    pub violations: Vec<Diagnostic>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Clean means no violations.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Lint every source file under `root`, or only lint `lint` when it is
/// `Some("L2")` etc. — the single-pass iteration mode behind
/// `check --lint`.
pub fn check_workspace_lint(
    root: &Path,
    config: &Config,
    lint: Option<&str>,
) -> std::io::Result<Report> {
    let files = workspace::scan(root, config)?;
    let mut violations = Vec::new();
    for file in &files {
        let src = std::fs::read_to_string(&file.abs_path)?;
        violations.extend(
            lints::lint_file(&file.rel_path, &lexer::lex(&src), file.scope)
                .into_iter()
                .filter(|d| lint.is_none_or(|id| d.lint == id)),
        );
    }
    violations.sort();
    Ok(Report {
        violations,
        files_scanned: files.len(),
    })
}

/// Every lint ID, in order.
pub const LINT_IDS: [&str; 2] = ["L2", "L3"];

/// Normalize a user-supplied lint selector (`L3`, `l3`, or
/// `typed_error`) to its canonical ID, or `None` when unknown.
pub fn normalize_lint_id(arg: &str) -> Option<&'static str> {
    LINT_IDS
        .into_iter()
        .find(|id| id.eq_ignore_ascii_case(arg) || lints::lint_name(id).eq_ignore_ascii_case(arg))
}

/// Render GitHub Actions workflow commands so a failing CI check annotates
/// the offending lines in the PR diff: one `::error` per violation.
pub fn render_github(report: &Report) -> String {
    let mut out = String::new();
    for d in &report.violations {
        out.push_str(&format!(
            "::error file={},line={},title=alint {}({})::{}\n",
            d.path,
            d.line,
            d.lint,
            lints::lint_name(d.lint),
            d.message
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn github_rendering_annotates_violations() {
        let report = Report {
            violations: vec![Diagnostic {
                path: "crates/a/src/x.rs".into(),
                line: 3,
                lint: "L3",
                message: "public Result uses a stringly error".into(),
            }],
            files_scanned: 7,
        };
        assert_eq!(
            render_github(&report),
            "::error file=crates/a/src/x.rs,line=3,title=alint L3(typed_error)::\
             public Result uses a stringly error\n"
        );
        assert_eq!(render_github(&Report::default()), "");
    }

    #[test]
    fn lint_selectors_normalize_ids_and_names() {
        assert_eq!(normalize_lint_id("L3"), Some("L3"));
        assert_eq!(normalize_lint_id("l2"), Some("L2"));
        assert_eq!(normalize_lint_id("typed_error"), Some("L3"));
        // Retired IDs and names are unknown, not aliases.
        for retired in ["wibble", "L5", "unit_safety", "L6", "L7", "lock_discipline"] {
            assert_eq!(normalize_lint_id(retired), None, "{retired}");
        }
    }
}
