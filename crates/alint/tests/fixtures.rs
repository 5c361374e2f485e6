//! Fixture-driven integration tests: each lint runs over a known-bad and a
//! known-clean source under `tests/fixtures/` and must report the exact
//! expected diagnostics, and the CLI must exit 1 on a violation and 2 on a
//! usage or config error.

// Integration-test helpers run outside #[cfg(test)], so the in-tests
// carve-outs from clippy.toml don't reach them.
#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

use alint::lexer::lex;
use alint::lints::{lint_file, Diagnostic, FileScope};
use std::path::{Path, PathBuf};

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

/// Runs the built `alint` binary with `args`, then `--root root`.
fn alint(args: &[&str], root: &Path) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_alint"))
        .args(args)
        .arg("--root")
        .arg(root)
        .output()
        .expect("run alint")
}

/// A scratch workspace whose one source, `crates/demo/src/lib.rs`, holds
/// `src` and is in L3's scope.
fn demo_workspace(tag: &str, src: &str) -> PathBuf {
    let root = scratch_workspace(tag);
    let src_dir = root.join("crates/demo/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    std::fs::write(src_dir.join("lib.rs"), src).expect("write fixture source");
    std::fs::write(root.join("alint.toml"), DEMO_CONFIG).expect("write config");
    root
}

const DEMO_CONFIG: &str = "typed_error_crates = [\"crates/demo\"]\nscan_roots = [\"crates\"]\n";

/// End-to-end CLI checks against a scratch workspace: a violation makes
/// `alint check` exit 1, and an inline marker at the same site brings it
/// back to 0.
#[test]
fn cli_exits_nonzero_on_violation_and_zero_when_marked() {
    let root = demo_workspace("cli_exit", UNTYPED_ERROR);
    let out = alint(&["check"], &root);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/demo/src/lib.rs:2: L3(typed_error)"),
        "{stdout}"
    );

    let marked = UNTYPED_ERROR.replacen("pub fn", "// alint: allow(L3)\npub fn", 1);
    std::fs::write(root.join("crates/demo/src/lib.rs"), marked).expect("rewrite source");
    let out = alint(&["check"], &root);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    std::fs::remove_dir_all(&root).ok();
}

/// There is no allowlist, and units are the `al-units` types' job: a
/// leftover `[[allow]]` or `[units]` table, or a unit key without its
/// header, is a config error like any other retired table.
#[test]
fn cli_rejects_retired_tables_and_keys() {
    let root = demo_workspace("retired_tables", UNTYPED_ERROR);
    for (extra, expected) in [
        (
            "[[allow]]\npath = \"crates/demo/src/lib.rs\"\nlint = \"L3\"\ncount = 1\n",
            "unknown table `[[allow]]`",
        ),
        ("[units]\n", "unknown table `[units]`"),
        (
            "unit_suffixes = [\"_us:microseconds\"]\n",
            "unknown key `unit_suffixes`",
        ),
    ] {
        std::fs::write(root.join("alint.toml"), format!("{DEMO_CONFIG}{extra}"))
            .expect("write config");
        let out = alint(&["check"], &root);
        assert_eq!(out.status.code(), Some(2), "{extra}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expected), "{stderr}");
    }

    std::fs::remove_dir_all(&root).ok();
}

/// The retired subcommands and the JSON format are unknown arguments.
#[test]
fn cli_rejects_retired_commands_and_formats() {
    let root = demo_workspace("retired_args", UNTYPED_ERROR);
    for args in [&["dump"][..], &["ratchet"], &["check", "--format", "json"]] {
        let out = alint(args, &root);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    }

    std::fs::remove_dir_all(&root).ok();
}

/// `--format github` emits one `::error` annotation per violation and
/// nothing else.
#[test]
fn cli_formats_github_output() {
    let root = demo_workspace("formats", UNTYPED_ERROR);
    let out = alint(&["check", "--format", "github"], &root);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    assert!(
        stdout.starts_with(
            "::error file=crates/demo/src/lib.rs,line=2,title=alint L3(typed_error)::"
        ),
        "{stdout}"
    );

    std::fs::remove_dir_all(&root).ok();
}

/// `--lint <ID>` restricts check to one pass: the other lints' findings
/// disappear, and an unknown selector is a usage error.
#[test]
fn cli_lint_flag_filters_check_to_one_pass() {
    // One L3 finding (a `String` error) and one L2 finding (`x == 0.0`)
    // in a file scoped to both passes.
    let root = demo_workspace(
        "lint_flag",
        "pub fn go(x: f64) -> Result<u8, String> {\n    if x == 0.0 {\n        \
         return Ok(0);\n    }\n    Ok(1)\n}\n",
    );
    let run = |lint: &str| alint(&["check", "--lint", lint], &root);

    let out = run("L2");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/demo/src/lib.rs:2: L2(float_cmp)"),
        "{stdout}"
    );
    assert!(!stdout.contains("L3"), "{stdout}");

    // L3 alone, by name in mixed case.
    let out = run("Typed_Error");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/demo/src/lib.rs:1: L3(typed_error)"),
        "{stdout}"
    );
    assert!(!stdout.contains("L2"), "{stdout}");

    // Unknown selector, or an ID retired to rustc and clippy: usage error,
    // exit 2.
    for unknown in [
        "L9",
        "L1",
        "lossy_cast",
        "L5",
        "unit_safety",
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

/// `lints` lists every pass with its name, description, and enabled-status
/// derived from the loaded configuration.
#[test]
fn cli_lints_subcommand_lists_passes_with_enabled_status() {
    let root = scratch_workspace("lints_list");
    std::fs::create_dir_all(root.join("crates")).expect("mkdir");
    // typed_error_crates emptied → L3 off.
    std::fs::write(
        root.join("alint.toml"),
        "scan_roots = [\"crates\"]\ntyped_error_crates = []\n",
    )
    .expect("write config");

    let out = alint(&["lints"], &root);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    for (i, id) in ["L2", "L3"].iter().enumerate() {
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

    std::fs::remove_dir_all(&root).ok();
}

/// alint has no built-in tables: a `--root` without `alint.toml` is a
/// config error (exit 2), not a clean check with empty tables.
#[test]
fn cli_fails_without_an_alint_toml() {
    let root = scratch_workspace("no_config");
    std::fs::create_dir_all(root.join("crates")).expect("mkdir");
    let out = alint(&["check"], &root);
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
