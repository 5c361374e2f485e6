//! The workspace gate: both passes over every Rust source under `crates/`,
//! so `cargo test --workspace` fails on any finding that no inline
//! `// alint: allow(Lx)` marker suppresses. Also pins the scanned file set,
//! a finding and its marker on a scratch workspace, and the clippy lists
//! that took over the retired passes.

use alint::workspace::scan;
use std::path::{Path, PathBuf};

/// The workspace root: two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_is_clean() {
    let root = workspace_root();
    let files = scan(&root).expect("scan the workspace");
    // A scan that found nothing would pass vacuously: every library root,
    // each `crates/*/src/lib.rs`, must be scanned under L3.
    let mut lib_roots = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("list crates/") {
        let name = entry.expect("crates/ entry").file_name();
        let lib = format!("crates/{}/src/lib.rs", name.to_string_lossy());
        if root.join(&lib).is_file() {
            lib_roots.push(lib);
        }
    }
    assert!(!lib_roots.is_empty(), "no crate under crates/");
    for lib in &lib_roots {
        assert!(
            files
                .iter()
                .any(|f| &f.rel_path == lib && f.scope.typed_error),
            "{lib} was not scanned under L3"
        );
    }

    let violations = alint::check(&files).expect("read the workspace sources");
    let report: Vec<String> = violations.iter().map(ToString::to_string).collect();
    assert!(
        violations.is_empty(),
        "{} unsuppressed alint finding(s) in {} files:\n{}",
        violations.len(),
        files.len(),
        report.join("\n")
    );
}

#[test]
fn scan_skips_vendored_and_test_trees() {
    let root = workspace_root();
    assert!(
        root.join("Cargo.toml").is_file(),
        "no workspace manifest at {}",
        root.display()
    );
    let files = scan(&root).expect("scan");
    assert!(!files.is_empty());
    for f in &files {
        assert!(
            !f.rel_path.contains("vendor/")
                && !f.rel_path.contains("/tests/")
                && !f.rel_path.contains("/fixtures/")
                && !f.rel_path.contains("target/"),
            "{} should have been skipped",
            f.rel_path
        );
    }
    // The experiment binaries are scanned (L2) but outside L3.
    let bins: Vec<_> = files
        .iter()
        .filter(|f| f.rel_path.starts_with("crates/bench/src/bin/"))
        .collect();
    assert!(!bins.is_empty());
    assert!(bins.iter().all(|f| !f.scope.typed_error), "{bins:?}");
    // Sorted and deduplicated by construction.
    let mut sorted = files.iter().map(|f| f.rel_path.clone()).collect::<Vec<_>>();
    sorted.dedup();
    assert_eq!(sorted.len(), files.len());
}

/// A finding in a scratch workspace is reported with its path and line,
/// and the same line with a marker is clean.
#[test]
fn a_finding_is_reported_until_its_line_is_marked() {
    let root = std::env::temp_dir().join(format!("alint-scratch-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let src_dir = root.join("crates/demo/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir scratch crate");
    let lib = src_dir.join("lib.rs");
    let lint = || alint::check(&scan(&root).expect("scan")).expect("check");

    let finding = "pub fn is_zero(x: f64) -> bool {\n    x == 0.0\n}\n";
    std::fs::write(&lib, finding).expect("write scratch source");
    let violations = lint();
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(
        violations[0]
            .to_string()
            .starts_with("crates/demo/src/lib.rs:2: L2(float_cmp): "),
        "{}",
        violations[0]
    );

    let marked = finding.replace("x == 0.0", "x == 0.0 // alint: allow(L2)");
    std::fs::write(&lib, marked).expect("rewrite scratch source");
    let violations = lint();
    assert!(violations.is_empty(), "{violations:?}");

    std::fs::remove_dir_all(&root).ok();
}

/// The determinism contract (DESIGN §9) lives in clippy's lists, not in
/// an alint pass; this keeps a dropped entry from passing CI silently.
#[test]
fn committed_clippy_lists_hold_the_determinism_contract() {
    let clippy = include_str!("../../../clippy.toml");
    let (types, methods) = clippy
        .split_once("disallowed-methods")
        .expect("clippy.toml has a disallowed-methods list");
    let listed = |list: &str, path: &str| list.contains(&format!("path = \"{path}\""));
    for path in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::hash::RandomState",
    ] {
        assert!(
            types.contains("disallowed-types") && listed(types, path),
            "{path}"
        );
    }
    for path in [
        "std::thread::spawn",
        "std::thread::scope",
        "std::thread::Builder::spawn",
        "std::thread::Builder::spawn_scoped",
        "std::time::Instant::now",
        "std::time::SystemTime::now",
    ] {
        assert!(listed(methods, path), "{path}");
    }
    // Exemptions are per-site `#[expect]`s: no crate allows the lists
    // wholesale, so an ad-hoc spawn in the bench crate still fails.
    for manifest in [
        include_str!("../../../Cargo.toml"),
        include_str!("../../bench/Cargo.toml"),
    ] {
        assert!(!manifest.contains("disallowed_"));
    }
}

/// The locking contract (DESIGN §14) is the store's shard module plus
/// clippy's ban on `Mutex::lock` everywhere else; this keeps the entry
/// from leaving the list, or a crate from allowing it wholesale.
#[test]
fn committed_clippy_lists_hold_the_locking_contract() {
    let clippy = include_str!("../../../clippy.toml");
    let (_, methods) = clippy
        .split_once("disallowed-methods")
        .expect("clippy.toml has a disallowed-methods list");
    assert!(methods.contains("path = \"std::sync::Mutex::lock\""));
    let core = include_str!("../../core/Cargo.toml");
    assert!(!core.contains("disallowed_"));
}
