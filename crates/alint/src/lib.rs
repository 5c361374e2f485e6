//! alint — workspace static analysis for numerical-robustness invariants.
//!
//! The two lints (L2 float_cmp, L3 typed_error) encode rules that rustc
//! and clippy cannot express: float comparisons clippy's `float_cmp`
//! exempts, and typed errors on public library APIs. The retired IDs L1,
//! L4, L5, L6 and L7 are checked by rustc and clippy (the workspace
//! `[lints]` tables, the `al-units` newtypes, `clippy.toml`'s disallowed
//! lists, and the store's shard module, whose types keep GP work out of
//! every lock). Each file is linted on its own, and every diagnostic that
//! no inline `// alint: allow(Lx)` marker suppresses is a violation.
//! See `lints` for the rules, `workspace` for the file set and scopes, and
//! `DESIGN.md` ("Static analysis & invariants") for the policy.
//!
//! There is no binary: the integration test `tests/workspace.rs` runs
//! both passes over the workspace, so `cargo test --workspace` is the gate.

// Tests compare exactly-copied floats; the cfg(test) compile allows that
// while the regular compile still lints library code.
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod lexer;
pub mod lints;
pub mod workspace;

use lints::Diagnostic;
use workspace::SourceFile;

/// Lint `files`, returning every diagnostic no inline marker suppressed,
/// sorted by path and line.
pub fn check(files: &[SourceFile]) -> std::io::Result<Vec<Diagnostic>> {
    let mut violations = Vec::new();
    for file in files {
        let src = std::fs::read_to_string(&file.abs_path)?;
        violations.extend(lints::lint_file(
            &file.rel_path,
            &lexer::lex(&src),
            file.scope,
        ));
    }
    violations.sort();
    Ok(violations)
}
