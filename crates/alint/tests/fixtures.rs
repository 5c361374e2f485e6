//! Fixture-driven integration tests: each lint runs over a known-bad and a
//! known-clean source under `tests/fixtures/` and must report the exact
//! expected diagnostics.

// Integration-test helpers run outside #[cfg(test)], so the in-tests
// carve-outs from clippy.toml don't reach them.
#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

use alint::lexer::lex;
use alint::lints::{lint_file, Diagnostic, FileScope};
use std::path::Path;

fn lint_fixture(name: &str, scope: FileScope) -> Vec<Diagnostic> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    lint_file(name, &lex(&src), scope)
}

fn all_scopes() -> FileScope {
    FileScope { typed_error: true }
}

#[test]
fn l2_flags_each_kind_of_float_evidence() {
    let diags = lint_fixture("l2_violations.rs", FileScope::default());
    assert_eq!(diags.len(), 3, "{diags:#?}");
    assert!(diags.iter().all(|d| d.lint == "L2"), "{diags:#?}");
    assert_eq!(
        diags.iter().map(|d| d.line).collect::<Vec<_>>(),
        vec![6, 9, 12],
        "{diags:#?}"
    );
}

#[test]
fn l2_clean_fixture_is_silent_under_every_lint() {
    let diags = lint_fixture("l2_clean.rs", all_scopes());
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn l2_flags_ascribed_float_variables() {
    let diags = lint_fixture("l2_ascription_violations.rs", FileScope::default());
    assert_eq!(diags.len(), 3, "{diags:#?}");
    assert!(diags.iter().all(|d| d.lint == "L2"), "{diags:#?}");
    // `t == b`, `lo != hi`, `r == &a`: every comparison is opaque to the
    // manifest-evidence window and only the `let` ascriptions reveal it.
    assert_eq!(
        diags.iter().map(|d| d.line).collect::<Vec<_>>(),
        vec![10, 13, 17],
        "{diags:#?}"
    );
}

#[test]
fn l2_ascription_clean_fixture_is_silent_under_every_lint() {
    let diags = lint_fixture("l2_ascription_clean.rs", all_scopes());
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn l2_markers_suppress_by_id_and_by_name() {
    let diags = lint_fixture("l2_suppressed.rs", FileScope::default());
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].line, 16, "only the unmarked comparison remains");
}

#[test]
fn l3_flags_untyped_error_slots() {
    let diags = lint_fixture("l3_violations.rs", all_scopes());
    assert_eq!(diags.len(), 3, "{diags:#?}");
    assert!(diags.iter().all(|d| d.lint == "L3"), "{diags:#?}");
    assert_eq!(
        diags.iter().map(|d| d.line).collect::<Vec<_>>(),
        vec![4, 8, 12],
        "{diags:#?}"
    );
}

#[test]
fn l3_clean_fixture_is_silent_under_every_lint() {
    let diags = lint_fixture("l3_clean.rs", all_scopes());
    assert!(diags.is_empty(), "{diags:#?}");
}
