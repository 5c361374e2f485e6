//! alint — workspace static analysis for numerical-robustness invariants.
//!
//! The three lints (L2 float_cmp, L3 typed_error, L5 unit_safety) encode
//! rules that rustc and clippy cannot express: float comparisons clippy's
//! `float_cmp` exempts, which crates owe typed errors, and the repo's own
//! unit vocabulary. The retired IDs L1, L4, L6 and L7 are checked by rustc
//! and clippy (the workspace `[lints]` tables, `clippy.toml`'s disallowed
//! lists, and the store's shard module, whose types keep GP work out of
//! every lock). Each file is linted on its own.
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
use std::collections::BTreeMap;
use std::path::Path;

/// Outcome of a full workspace check, with the allowlist applied.
#[derive(Debug, Default)]
pub struct Report {
    /// Diagnostics not covered by any allowance — these fail the check.
    pub violations: Vec<Diagnostic>,
    /// Grandfathered diagnostics absorbed by `[[allow]]` budgets.
    pub grandfathered: Vec<Diagnostic>,
    /// Budgets larger than the current violation count: `(path, lint,
    /// budget, actual)`. The ratchet should be tightened.
    pub slack: Vec<(String, String, usize, usize)>,
    /// Allowances whose file has no diagnostics at all. Stale entries are
    /// *errors*, not notes: a forgotten entry would silently re-admit the
    /// very debt the ratchet paid down.
    pub unused: Vec<(String, String)>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Clean means no violations *and* no stale allowlist entries.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.unused.is_empty()
    }
}

/// Lint every source file under `root` and apply `config`'s allowlist.
pub fn check_workspace(root: &Path, config: &Config) -> std::io::Result<Report> {
    check_workspace_lint(root, config, None)
}

/// Like [`check_workspace`], restricted to one lint ID when `lint` is
/// `Some("L2")` etc. — the single-pass iteration mode behind
/// `check --lint`. Allowances for *other* lints are dropped rather than
/// reported stale: the filter narrows the question, it must not invent
/// failures about lints it excluded.
pub fn check_workspace_lint(
    root: &Path,
    config: &Config,
    lint: Option<&str>,
) -> std::io::Result<Report> {
    let (mut raw, files) = raw_diagnostics(root, config)?;
    if let Some(id) = lint {
        raw.retain(|d| d.lint == id);
        let mut narrowed = config.clone();
        narrowed.allowances.retain(|a| a.lint == id);
        return Ok(apply_allowlist(raw, &narrowed, files));
    }
    Ok(apply_allowlist(raw, config, files))
}

/// All diagnostics before allowlist filtering, plus the file count.
pub fn raw_diagnostics(root: &Path, config: &Config) -> std::io::Result<(Vec<Diagnostic>, usize)> {
    let files = workspace::scan(root, config)?;
    let units = lints::UnitTables::from_config(config);
    let mut all = Vec::new();
    for file in &files {
        let src = std::fs::read_to_string(&file.abs_path)?;
        all.extend(lints::lint_file(
            &file.rel_path,
            &lexer::lex(&src),
            file.scope,
            &units,
        ));
    }
    all.sort();
    Ok((all, files.len()))
}

/// Every lint ID, in order.
pub const LINT_IDS: [&str; 3] = ["L2", "L3", "L5"];

/// Normalize a user-supplied lint selector (`L5`, `l5`, or
/// `unit_safety`) to its canonical ID, or `None` when unknown.
pub fn normalize_lint_id(arg: &str) -> Option<&'static str> {
    LINT_IDS
        .into_iter()
        .find(|id| id.eq_ignore_ascii_case(arg) || lints::lint_name(id).eq_ignore_ascii_case(arg))
}

/// Split raw diagnostics into violations and grandfathered findings using
/// the ratchet budgets. Within one (path, lint) bucket the *first* `count`
/// diagnostics (in line order) are absorbed; anything beyond the budget is
/// a new violation.
pub fn apply_allowlist(
    diagnostics: Vec<Diagnostic>,
    config: &Config,
    files_scanned: usize,
) -> Report {
    let mut budgets: BTreeMap<(String, String), usize> = BTreeMap::new();
    for a in &config.allowances {
        *budgets.entry((a.path.clone(), a.lint.clone())).or_insert(0) += a.count;
    }

    let mut report = Report {
        files_scanned,
        ..Report::default()
    };
    let mut used: BTreeMap<(String, String), usize> = BTreeMap::new();
    for d in diagnostics {
        let key = (d.path.clone(), d.lint.to_string());
        let budget = budgets.get(&key).copied().unwrap_or(0);
        let u = used.entry(key).or_insert(0);
        if *u < budget {
            *u += 1;
            report.grandfathered.push(d);
        } else {
            report.violations.push(d);
        }
    }
    for ((path, lint), budget) in &budgets {
        let actual = used
            .get(&(path.clone(), lint.clone()))
            .copied()
            .unwrap_or(0);
        if actual == 0 {
            report.unused.push((path.clone(), lint.clone()));
        } else if actual < *budget {
            report
                .slack
                .push((path.clone(), lint.clone(), *budget, actual));
        }
    }
    report
}

/// Escape a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a report as one JSON object with a stable shape for CI tooling:
///
/// ```json
/// {"clean": false, "files_scanned": 2,
///  "violations": [{"path": "...", "line": 3, "lint": "L3",
///                  "name": "typed_error", "message": "..."}],
///  "grandfathered": 0,
///  "slack": [{"path": "...", "lint": "L3", "budget": 5, "actual": 1}],
///  "stale_allowances": [{"path": "...", "lint": "L5"}]}
/// ```
pub fn render_json(report: &Report) -> String {
    let violations: Vec<String> = report
        .violations
        .iter()
        .map(|d| {
            format!(
                "{{\"path\": \"{}\", \"line\": {}, \"lint\": \"{}\", \
                 \"name\": \"{}\", \"message\": \"{}\"}}",
                json_escape(&d.path),
                d.line,
                d.lint,
                lints::lint_name(d.lint),
                json_escape(&d.message)
            )
        })
        .collect();
    let slack: Vec<String> = report
        .slack
        .iter()
        .map(|(path, lint, budget, actual)| {
            format!(
                "{{\"path\": \"{}\", \"lint\": \"{}\", \"budget\": {budget}, \
                 \"actual\": {actual}}}",
                json_escape(path),
                json_escape(lint)
            )
        })
        .collect();
    let stale: Vec<String> = report
        .unused
        .iter()
        .map(|(path, lint)| {
            format!(
                "{{\"path\": \"{}\", \"lint\": \"{}\"}}",
                json_escape(path),
                json_escape(lint)
            )
        })
        .collect();
    format!(
        "{{\"clean\": {}, \"files_scanned\": {}, \"violations\": [{}], \
         \"grandfathered\": {}, \"slack\": [{}], \"stale_allowances\": [{}]}}",
        report.is_clean(),
        report.files_scanned,
        violations.join(", "),
        report.grandfathered.len(),
        slack.join(", "),
        stale.join(", ")
    )
}

/// Render GitHub Actions workflow commands so a failing CI check annotates
/// the offending lines in the PR diff: one `::error` per violation and per
/// stale allowlist entry, one `::warning` per slack budget.
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
    for (path, lint) in &report.unused {
        out.push_str(&format!(
            "::error file=alint.toml,title=alint stale allowance::unused [[allow]] entry \
             for {lint} in {path} — remove it\n"
        ));
    }
    for (path, lint, budget, actual) in &report.slack {
        out.push_str(&format!(
            "::warning file=alint.toml,title=alint ratchet slack::{path}: {lint} budget \
             is {budget} but only {actual} remain — tighten the [[allow]] entry\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use config::Allowance;

    fn diag(path: &str, line: u32, lint: &'static str) -> Diagnostic {
        Diagnostic {
            path: path.to_string(),
            line,
            lint,
            message: String::new(),
        }
    }

    fn config_with(allowances: Vec<Allowance>) -> Config {
        Config {
            allowances,
            ..Config::default()
        }
    }

    #[test]
    fn allowlist_absorbs_up_to_budget() {
        let cfg = config_with(vec![Allowance {
            path: "a.rs".into(),
            lint: "L3".into(),
            count: 2,
            reason: String::new(),
        }]);
        let diags = vec![
            diag("a.rs", 1, "L3"),
            diag("a.rs", 2, "L3"),
            diag("a.rs", 3, "L3"),
        ];
        let report = apply_allowlist(diags, &cfg, 1);
        assert_eq!(report.grandfathered.len(), 2);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].line, 3, "excess is the later site");
        assert!(report.slack.is_empty() && report.unused.is_empty());
    }

    #[test]
    fn slack_budgets_are_notes_but_stale_entries_fail() {
        let slack_only = config_with(vec![Allowance {
            path: "a.rs".into(),
            lint: "L3".into(),
            count: 5,
            reason: String::new(),
        }]);
        let report = apply_allowlist(vec![diag("a.rs", 1, "L3")], &slack_only, 1);
        assert!(report.is_clean(), "slack alone must not fail the check");
        assert_eq!(report.slack, vec![("a.rs".into(), "L3".into(), 5, 1)]);

        let with_stale = config_with(vec![Allowance {
            path: "gone.rs".into(),
            lint: "L5".into(),
            count: 1,
            reason: String::new(),
        }]);
        let report = apply_allowlist(Vec::new(), &with_stale, 1);
        assert!(report.violations.is_empty());
        assert_eq!(report.unused, vec![("gone.rs".into(), "L5".into())]);
        assert!(!report.is_clean(), "a stale allowance is an error");
    }

    #[test]
    fn json_rendering_has_a_stable_shape() {
        let cfg = config_with(vec![Allowance {
            path: "gone.rs".into(),
            lint: "L5".into(),
            count: 2,
            reason: String::new(),
        }]);
        let mut d = diag("crates/a/src/x.rs", 3, "L3");
        d.message = "say \"no\"".into();
        let report = apply_allowlist(vec![d], &cfg, 7);
        assert_eq!(
            render_json(&report),
            "{\"clean\": false, \"files_scanned\": 7, \"violations\": \
             [{\"path\": \"crates/a/src/x.rs\", \"line\": 3, \"lint\": \"L3\", \
             \"name\": \"typed_error\", \"message\": \"say \\\"no\\\"\"}], \
             \"grandfathered\": 0, \"slack\": [], \"stale_allowances\": \
             [{\"path\": \"gone.rs\", \"lint\": \"L5\"}]}"
        );
    }

    #[test]
    fn json_rendering_of_a_clean_report_is_empty_lists() {
        let report = apply_allowlist(Vec::new(), &config_with(Vec::new()), 4);
        assert_eq!(
            render_json(&report),
            "{\"clean\": true, \"files_scanned\": 4, \"violations\": [], \
             \"grandfathered\": 0, \"slack\": [], \"stale_allowances\": []}"
        );
    }

    #[test]
    fn github_rendering_annotates_violations_and_stale_entries() {
        let cfg = config_with(vec![Allowance {
            path: "gone.rs".into(),
            lint: "L5".into(),
            count: 2,
            reason: String::new(),
        }]);
        let mut d = diag("crates/a/src/x.rs", 3, "L5");
        d.message = "`+` mixes seconds and megabytes".into();
        let report = apply_allowlist(vec![d], &cfg, 7);
        let out = render_github(&report);
        assert!(
            out.contains(
                "::error file=crates/a/src/x.rs,line=3,title=alint L5(unit_safety)::\
                 `+` mixes seconds and megabytes"
            ),
            "{out}"
        );
        assert!(
            out.contains("::error file=alint.toml,title=alint stale allowance::"),
            "{out}"
        );
    }

    #[test]
    fn lint_selectors_normalize_ids_and_names() {
        assert_eq!(normalize_lint_id("L5"), Some("L5"));
        assert_eq!(normalize_lint_id("l2"), Some("L2"));
        assert_eq!(normalize_lint_id("unit_safety"), Some("L5"));
        // Retired IDs and names are unknown, not aliases.
        for retired in ["wibble", "L6", "L7", "lock_discipline"] {
            assert_eq!(normalize_lint_id(retired), None, "{retired}");
        }
    }

    #[test]
    fn allowance_for_one_lint_does_not_cover_another() {
        let cfg = config_with(vec![Allowance {
            path: "a.rs".into(),
            lint: "L3".into(),
            count: 9,
            reason: String::new(),
        }]);
        let report = apply_allowlist(vec![diag("a.rs", 1, "L2")], &cfg, 1);
        assert_eq!(report.violations.len(), 1);
    }
}
