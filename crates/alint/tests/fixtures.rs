//! Fixture-driven integration tests: each lint runs over a known-bad and a
//! known-clean source under `tests/fixtures/` and must report the exact
//! expected diagnostics, and the CLI must exit nonzero on a violation.

// Integration-test helpers run outside #[cfg(test)], so the in-tests
// carve-outs from clippy.toml don't reach them.
#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

use alint::config::{Allowance, Config};
use alint::lexer::lex;
use alint::lints::{lint_file, Diagnostic, FileScope, UnitTables};
use std::path::{Path, PathBuf};

/// The committed `alint.toml`, parsed: the repo's tables.
fn repo_config() -> Config {
    alint::config::parse(include_str!("../../../alint.toml")).expect("alint.toml parses")
}

fn lint_fixture(name: &str, scope: FileScope) -> Vec<Diagnostic> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    lint_file(
        name,
        &lex(&src),
        scope,
        &UnitTables::from_config(&repo_config()),
    )
}

fn all_scopes() -> FileScope {
    FileScope {
        typed_error: true,
        unit_safety: true,
    }
}

fn only(select: impl Fn(&mut FileScope)) -> FileScope {
    let mut scope = FileScope::default();
    select(&mut scope);
    scope
}

/// A scratch-crate source with one L3 finding, on line 2.
const UNTYPED_ERROR: &str = "//! Demo.\npub fn boom() -> Result<u8, String> {\n    Ok(1)\n}\n";

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
    let diags = lint_fixture("l3_violations.rs", only(|s| s.typed_error = true));
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

#[test]
fn l5_flags_each_kind_of_unit_mixing() {
    let diags = lint_fixture("l5_violations.rs", only(|s| s.unit_safety = true));
    assert_eq!(diags.len(), 5, "{diags:#?}");
    assert!(diags.iter().all(|d| d.lint == "L5"), "{diags:#?}");
    // Suffix arithmetic, suffix comparison, compound assignment, quantity
    // ascription, and a quantity type name used in an expression.
    assert_eq!(
        diags.iter().map(|d| d.line).collect::<Vec<_>>(),
        vec![5, 9, 15, 21, 25],
        "{diags:#?}"
    );
}

#[test]
fn l5_clean_fixture_is_silent_under_every_lint() {
    let diags = lint_fixture("l5_clean.rs", all_scopes());
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn allowlist_budget_absorbs_fixture_violations_exactly() {
    let diags = lint_fixture("l5_violations.rs", only(|s| s.unit_safety = true));
    let allow = |count| Config {
        allowances: vec![Allowance {
            path: "l5_violations.rs".into(),
            lint: "L5".into(),
            count,
            reason: "fixture".into(),
        }],
        ..Config::default()
    };

    let report = alint::apply_allowlist(diags.clone(), &allow(5), 1);
    assert!(report.is_clean(), "{:#?}", report.violations);
    assert_eq!(report.grandfathered.len(), 5);

    // One site fewer in the budget: exactly one (the last) escapes.
    let report = alint::apply_allowlist(diags, &allow(4), 1);
    assert_eq!(report.violations.len(), 1, "{:#?}", report.violations);
    assert_eq!(report.grandfathered.len(), 4);
}

/// End-to-end CLI checks against a scratch workspace: a violation makes
/// `alint check` exit 1, an allowlist entry brings it back to 0.
#[test]
fn cli_exits_nonzero_on_violation_and_zero_when_allowlisted() {
    let root = scratch_workspace("cli_exit");
    let src_dir = root.join("crates/demo/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    std::fs::write(src_dir.join("lib.rs"), UNTYPED_ERROR).expect("write fixture source");
    let scope = "typed_error_crates = [\"crates/demo\"]\nscan_roots = [\"crates\"]\n";
    std::fs::write(root.join("alint.toml"), scope).expect("write config");

    let run = |root: &Path| {
        std::process::Command::new(env!("CARGO_BIN_EXE_alint"))
            .args(["check", "--root"])
            .arg(root)
            .output()
            .expect("run alint")
    };

    let out = run(&root);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/demo/src/lib.rs:2: L3(typed_error)"),
        "{stdout}"
    );

    let allow = format!(
        "{scope}\n[[allow]]\npath = \"crates/demo/src/lib.rs\"\nlint = \"L3\"\n\
         count = 1\nreason = \"fixture\"\n"
    );
    std::fs::write(root.join("alint.toml"), allow).expect("rewrite config");
    let out = run(&root);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    std::fs::remove_dir_all(&root).ok();
}

/// A stale `[[allow]]` entry (its file has no findings at all) must fail
/// the check rather than linger as a silent re-admission channel.
#[test]
fn cli_fails_on_stale_allowlist_entries() {
    let root = scratch_workspace("stale_allow");
    let src_dir = root.join("crates/demo/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    std::fs::write(src_dir.join("lib.rs"), "pub fn ok() -> u8 {\n    1\n}\n")
        .expect("write fixture source");
    std::fs::write(
        root.join("alint.toml"),
        "typed_error_crates = [\"crates/demo\"]\nscan_roots = [\"crates\"]\n\
         [[allow]]\npath = \"crates/demo/src/lib.rs\"\nlint = \"L3\"\n\
         count = 1\nreason = \"paid down\"\n",
    )
    .expect("write config");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_alint"))
        .args(["check", "--root"])
        .arg(&root)
        .output()
        .expect("run alint");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stale [[allow]] entry for L3"), "{stdout}");

    std::fs::remove_dir_all(&root).ok();
}

/// `--format json` emits one machine-readable object carrying the same
/// verdict as the exit code; `--format github` emits `::error` annotations.
#[test]
fn cli_formats_json_and_github_output() {
    let root = scratch_workspace("formats");
    let src_dir = root.join("crates/demo/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    std::fs::write(src_dir.join("lib.rs"), UNTYPED_ERROR).expect("write fixture source");
    std::fs::write(
        root.join("alint.toml"),
        "typed_error_crates = [\"crates/demo\"]\nscan_roots = [\"crates\"]\n",
    )
    .expect("write config");

    let run = |fmt: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_alint"))
            .args(["check", "--format", fmt, "--root"])
            .arg(&root)
            .output()
            .expect("run alint")
    };

    let out = run("json");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("{\"clean\": false, "), "{stdout}");
    assert!(
        stdout.contains(
            "\"path\": \"crates/demo/src/lib.rs\", \"line\": 2, \
             \"lint\": \"L3\", \"name\": \"typed_error\""
        ),
        "{stdout}"
    );

    let out = run("github");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("::error file=crates/demo/src/lib.rs,line=2,title=alint L3(typed_error)::"),
        "{stdout}"
    );

    std::fs::remove_dir_all(&root).ok();
}

/// `--lint <ID>` restricts check to one pass: the other lints' findings
/// disappear, their allowlist entries are not reported stale, and an
/// unknown selector is a usage error.
#[test]
fn cli_lint_flag_filters_check_to_one_pass() {
    let root = scratch_workspace("lint_flag");
    let src_dir = root.join("crates/demo/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    // One L3 finding (a `String` error) and one L2 finding (`x == 0.0`)
    // in a file scoped to both passes.
    std::fs::write(
        src_dir.join("lib.rs"),
        "pub fn go(x: f64) -> Result<u8, String> {\n    if x == 0.0 {\n        \
         return Ok(0);\n    }\n    Ok(1)\n}\n",
    )
    .expect("write fixture source");
    std::fs::write(
        root.join("alint.toml"),
        "typed_error_crates = [\"crates/demo\"]\nscan_roots = [\"crates\"]\n\
         [[allow]]\npath = \"crates/demo/src/lib.rs\"\nlint = \"L3\"\n\
         count = 1\nreason = \"fixture\"\n",
    )
    .expect("write config");

    let run = |lint: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_alint"))
            .args(["check", "--lint", lint, "--root"])
            .arg(&root)
            .output()
            .expect("run alint")
    };

    // L2 alone: the float-compare finding fires; the L3 allowance for the
    // same file must NOT be reported stale just because L3 was filtered out.
    let out = run("L2");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/demo/src/lib.rs:2: L2(float_cmp)"),
        "{stdout}"
    );
    assert!(!stdout.contains("L3"), "{stdout}");
    assert!(!stdout.contains("stale [[allow]]"), "{stdout}");

    // L3 alone (by name, mixed case): the finding is absorbed by its
    // allowance, so the filtered check is clean.
    let out = run("Typed_Error");
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // Unknown selector, or an ID retired to rustc and clippy: usage error,
    // exit 2.
    for unknown in [
        "L9",
        "L1",
        "lossy_cast",
        "L6",
        "determinism_safety",
        "L7",
        "lock_discipline",
    ] {
        let out = run(unknown);
        assert_eq!(out.status.code(), Some(2), "{unknown}: {out:?}");
    }

    std::fs::remove_dir_all(&root).ok();
}

/// Golden round-trip for `ratchet`: its stdout must parse as `[[allow]]`
/// entries that exactly absorb the current violations — appending it to the
/// config turns a failing check into a clean one with zero slack and zero
/// stale entries.
#[test]
fn cli_ratchet_output_round_trips_through_the_allowlist() {
    let root = scratch_workspace("ratchet_golden");
    let src_dir = root.join("crates/demo/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    std::fs::write(
        src_dir.join("lib.rs"),
        "pub fn a() -> Result<u8, String> {\n    Ok(1)\n}\n\
         pub fn b() -> Result<u8, &'static str> {\n    Ok(2)\n}\n",
    )
    .expect("write fixture source");
    std::fs::write(
        src_dir.join("extra.rs"),
        "pub fn c(x: f64) -> bool {\n    x == 0.0\n}\n",
    )
    .expect("write fixture source");
    let scope = "typed_error_crates = [\"crates/demo\"]\nscan_roots = [\"crates\"]\n";
    std::fs::write(root.join("alint.toml"), scope).expect("write config");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_alint"))
        .args(["ratchet", "--root"])
        .arg(&root)
        .output()
        .expect("run alint ratchet");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let printed = String::from_utf8_lossy(&out.stdout).to_string();

    // The printed entries parse with the workspace config parser and carry
    // exactly the per-(file, lint) violation counts.
    let parsed = alint::config::parse(&format!("{scope}{printed}")).expect("parse ratchet output");
    let entry = |path: &str, lint: &str| {
        parsed
            .allowances
            .iter()
            .find(|a| a.path == path && a.lint == lint)
            .unwrap_or_else(|| panic!("missing [[allow]] for {path} {lint}\n{printed}"))
    };
    assert_eq!(entry("crates/demo/src/lib.rs", "L3").count, 2, "{printed}");
    assert_eq!(
        entry("crates/demo/src/extra.rs", "L2").count,
        1,
        "{printed}"
    );
    assert_eq!(parsed.allowances.len(), 2, "{printed}");

    // Adopting the printed allowlist makes the check clean — and since the
    // counts are exact, no slack notes and no stale-entry errors appear.
    std::fs::write(root.join("alint.toml"), format!("{scope}{printed}")).expect("rewrite config");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_alint"))
        .args(["check", "--root"])
        .arg(&root)
        .output()
        .expect("run alint check");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("stale"), "{stdout}");
    assert!(!stdout.contains("tighten"), "{stdout}");
    assert!(stdout.contains("3 grandfathered sites"), "{stdout}");

    std::fs::remove_dir_all(&root).ok();
}

/// `lints` lists every pass with its name, description, and enabled-status
/// derived from the loaded configuration.
#[test]
fn cli_lints_subcommand_lists_passes_with_enabled_status() {
    let root = scratch_workspace("lints_list");
    std::fs::create_dir_all(root.join("crates")).expect("mkdir");
    // typed_error_crates emptied → L3 off; a unit suffix → L5 on.
    std::fs::write(
        root.join("alint.toml"),
        "scan_roots = [\"crates\"]\ntyped_error_crates = []\n\
         [units]\nunit_suffixes = [\"_us:microseconds\"]\n",
    )
    .expect("write config");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_alint"))
        .args(["lints", "--root"])
        .arg(&root)
        .output()
        .expect("run alint lints");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    for (i, id) in ["L2", "L3", "L5"].iter().enumerate() {
        assert!(lines[i].starts_with(id), "{stdout}");
    }
    let row = |id: &str| {
        lines
            .iter()
            .find(|l| l.starts_with(id))
            .unwrap_or_else(|| panic!("no {id} row\n{stdout}"))
            .to_string()
    };
    assert!(
        row("L3").contains("typed_error") && row("L3").contains("off"),
        "{stdout}"
    );
    assert!(
        row("L2").contains("float_cmp") && row("L2").contains("on"),
        "{stdout}"
    );
    assert!(
        row("L5").contains("unit_safety") && row("L5").contains("on"),
        "{stdout}"
    );

    std::fs::remove_dir_all(&root).ok();
}

/// alint has no built-in tables: a `--root` without `alint.toml` is a
/// config error (exit 2), not a clean check with empty tables.
#[test]
fn cli_fails_without_an_alint_toml() {
    let root = scratch_workspace("no_config");
    std::fs::create_dir_all(root.join("crates")).expect("mkdir");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_alint"))
        .args(["check", "--root"])
        .arg(&root)
        .output()
        .expect("run alint");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("alint.toml"), "{stderr}");

    std::fs::remove_dir_all(&root).ok();
}

/// Unique-per-test scratch directory under the target temp dir.
fn scratch_workspace(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("alint-fixture-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).expect("mkdir scratch root");
    root
}
