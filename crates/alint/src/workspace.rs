//! Workspace traversal: find the Rust sources to lint and decide which
//! passes apply to each file.

use crate::lints::FileScope;
use std::io;
use std::path::{Path, PathBuf};

/// One source file queued for linting, with its workspace-relative path
/// (forward slashes, so diagnostics are portable).
#[derive(Debug, Clone)]
pub struct SourceFile {
    pub rel_path: String,
    pub abs_path: PathBuf,
    pub scope: FileScope,
}

/// Workspace-relative directories scanned for sources.
const SCAN_ROOTS: [&str; 1] = ["crates"];

/// Directory names never descended into: generated output, vendored stubs,
/// test suites, benches, and lint fixtures (which contain violations on
/// purpose).
const SKIP_DIRS: [&str; 7] = [
    "target", "vendor", "tests", "benches", "fixtures", "examples", ".git",
];

/// Collect every `.rs` file under `crates/` of `root`, sorted by
/// relative path for deterministic output.
pub fn scan(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for scan_root in SCAN_ROOTS {
        let dir = root.join(scan_root);
        if dir.is_dir() {
            walk(&dir, root, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(files)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(&path, root, out)?;
        } else if name.ends_with(".rs") {
            let rel_path = rel_string(&path, root);
            let scope = scope_for(&rel_path);
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
/// - L3 runs on every library source: the files under `crates/<name>/src/`,
///   except binaries (`main.rs`, `bin/`), which are not public API.
pub fn scope_for(rel_path: &str) -> FileScope {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let library = matches!(parts.as_slice(), ["crates", _, "src", ..])
        && !parts.contains(&"bin")
        && parts.last() != Some(&"main.rs");
    FileScope {
        typed_error: library,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l3_covers_every_library_source_and_no_binary() {
        for library in [
            "crates/linalg/src/cholesky.rs",
            "crates/core/src/procedure.rs",
            "crates/core/src/strategy/mod.rs",
            // The linter lints itself.
            "crates/alint/src/lints.rs",
            "crates/units/src/lib.rs",
            "crates/parallel/src/pool.rs",
            "crates/bench/src/json.rs",
        ] {
            assert!(scope_for(library).typed_error, "{library}");
        }
        // Binaries, and files outside a crate's `src/` tree, are exempt.
        for exempt in [
            "crates/core/src/main.rs",
            "crates/bench/src/bin/reproduce/cli.rs",
            "crates/bench/src/bin/perf.rs",
            "src/lib.rs",
            "src/main.rs",
            "src/bin/tool.rs",
            "crates/amr/build.rs",
        ] {
            assert!(!scope_for(exempt).typed_error, "{exempt}");
        }
    }
}
