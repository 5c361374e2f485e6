//! Workspace traversal: find the Rust sources to lint and decide which
//! passes apply to each file.

use crate::config::Config;
use crate::lints::FileScope;
use std::io;
use std::path::{Path, PathBuf};

/// One source file queued for linting, with its workspace-relative path
/// (forward slashes, so diagnostics and `alint.toml` entries are portable).
#[derive(Debug, Clone)]
pub struct SourceFile {
    pub rel_path: String,
    pub abs_path: PathBuf,
    pub scope: FileScope,
}

/// Directory names never descended into: generated output, vendored stubs,
/// test suites, benches, and lint fixtures (which contain violations on
/// purpose).
const SKIP_DIRS: [&str; 7] = [
    "target", "vendor", "tests", "benches", "fixtures", "examples", ".git",
];

/// Collect every `.rs` file under the configured scan roots, sorted by
/// relative path for deterministic output.
pub fn scan(root: &Path, config: &Config) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for scan_root in &config.scan_roots {
        let dir = root.join(scan_root);
        if dir.is_dir() {
            walk(&dir, root, config, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(files)
}

fn walk(dir: &Path, root: &Path, config: &Config, out: &mut Vec<SourceFile>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(&path, root, config, out)?;
        } else if name.ends_with(".rs") {
            let rel_path = rel_string(&path, root);
            let scope = scope_for(&rel_path, config);
            out.push(SourceFile {
                rel_path,
                abs_path: path,
                scope,
            });
        }
    }
    Ok(())
}

fn rel_string(path: &Path, root: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Map a workspace-relative path onto the passes that cover it.
///
/// - L2 runs on everything scanned (it has no scope switch).
/// - L3 runs on `src/` library files of the typed-error crates — binaries
///   (`main.rs`, `bin/`) are not public API.
/// - L5 runs on everything scanned (disabling it means emptying the unit
///   tables in `alint.toml`, not a per-file carve-out).
/// - L6 runs on every `src/` file of the determinism crates — *including*
///   binaries and `main.rs`, because a bin that prints results in hash
///   order corrupts regenerated datasets just as surely as a lib would.
///   `spawn_approved` exempts the audited pool modules from the fan-out
///   rule and `wall_clock_approved` (file or path prefix) exempts
///   diagnostics-only timing from the wall-clock rule.
/// - L7 runs on everything scanned, like L5: the pass only fires near
///   `.lock()` sites, and a lock in a bin deadlocks just as hard as one
///   in a lib (disabling it means emptying the `[locks]` tables).
pub fn scope_for(rel_path: &str, config: &Config) -> FileScope {
    let in_crate_src = |crate_root: &str| {
        rel_path.starts_with(&format!("{crate_root}/src/"))
            && !rel_path.contains("/bin/")
            && !rel_path.ends_with("/main.rs")
    };
    let prefix_match =
        |entry: &str| rel_path == entry || rel_path.starts_with(&format!("{entry}/"));
    FileScope {
        typed_error: config.typed_error_crates.iter().any(|c| in_crate_src(c)),
        unit_safety: true,
        determinism: config
            .determinism_crates
            .iter()
            .any(|c| rel_path.starts_with(&format!("{c}/src/"))),
        spawn_blessed: config.spawn_approved.iter().any(|p| prefix_match(p)),
        wall_clock_approved: config.wall_clock_approved.iter().any(|p| prefix_match(p)),
        lock_discipline: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::committed;

    #[test]
    fn scope_assignment_follows_config() {
        let config = committed();
        let s = scope_for("crates/linalg/src/cholesky.rs", &config);
        assert!(s.typed_error && s.unit_safety);
        assert!(s.determinism && !s.spawn_blessed && !s.wall_clock_approved);

        let s = scope_for("crates/core/src/procedure.rs", &config);
        assert!(s.typed_error && s.unit_safety && s.determinism);

        // The linter lints itself: L3 covers its own src/ files.
        let s = scope_for("crates/alint/src/lints.rs", &config);
        assert!(s.typed_error);
        assert!(!s.determinism, "the lint runner is not determinism-scoped");
        assert!(s.lock_discipline, "L7 covers everything scanned");

        // Binaries are exempt from the library-only passes but NOT from L6:
        // hash-order output from a bin corrupts regenerated datasets too.
        let s = scope_for("crates/core/src/main.rs", &config);
        assert!(!s.typed_error && s.determinism);
        let s = scope_for("src/main.rs", &config);
        assert!(!s.typed_error && s.unit_safety);
    }

    #[test]
    fn determinism_exemptions_follow_config() {
        let config = committed();
        let s = scope_for("crates/parallel/src/pool.rs", &config);
        assert!(s.determinism && s.spawn_blessed && !s.wall_clock_approved);
        // The old amr pool delegates to al-parallel now — no longer blessed.
        let s = scope_for("crates/amr/src/pool.rs", &config);
        assert!(s.determinism && !s.spawn_blessed);
        // The batch and dataset fan-outs run on the pool's `map_jobs`.
        let s = scope_for("crates/core/src/batch.rs", &config);
        assert!(s.determinism && !s.spawn_blessed);
        let s = scope_for("crates/dataset/src/generate.rs", &config);
        assert!(s.determinism && !s.spawn_blessed);
        // Wall-clock approval is a path prefix: the whole bench crate may
        // time the host run, including its bin/ targets.
        let s = scope_for("crates/bench/src/data.rs", &config);
        assert!(s.determinism && s.wall_clock_approved && !s.spawn_blessed);
        let s = scope_for("crates/bench/src/bin/sweep.rs", &config);
        assert!(s.determinism && s.wall_clock_approved);
        // The solver core is neither blessed nor approved.
        let s = scope_for("crates/amr/src/solver.rs", &config);
        assert!(s.determinism && !s.spawn_blessed && !s.wall_clock_approved);
    }

    #[test]
    fn scan_skips_vendored_and_test_trees() {
        // Run against the real workspace when invoked from the repo.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .map(PathBuf::from)
            .unwrap_or_default();
        if !root.join("Cargo.toml").is_file() {
            return;
        }
        let files = scan(&root, &committed()).expect("scan");
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
        // Sorted and deduplicated by construction.
        let mut sorted = files.iter().map(|f| f.rel_path.clone()).collect::<Vec<_>>();
        sorted.dedup();
        assert_eq!(sorted.len(), files.len());
    }
}
