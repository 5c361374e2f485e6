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
pub fn scope_for(rel_path: &str, config: &Config) -> FileScope {
    let in_crate_src = |crate_root: &str| {
        rel_path.starts_with(&format!("{crate_root}/src/"))
            && !rel_path.contains("/bin/")
            && !rel_path.ends_with("/main.rs")
    };
    FileScope {
        typed_error: config.typed_error_crates.iter().any(|c| in_crate_src(c)),
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
        assert!(s.typed_error);

        let s = scope_for("crates/core/src/procedure.rs", &config);
        assert!(s.typed_error);

        // The linter lints itself: L3 covers its own src/ files.
        let s = scope_for("crates/alint/src/lints.rs", &config);
        assert!(s.typed_error);

        // Binaries are exempt from the library-only passes.
        let s = scope_for("crates/core/src/main.rs", &config);
        assert!(!s.typed_error);
        let s = scope_for("crates/bench/src/bin/sweep.rs", &config);
        assert!(!s.typed_error);
        let s = scope_for("src/main.rs", &config);
        assert!(!s.typed_error);
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
