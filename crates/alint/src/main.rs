//! CLI entry point: `cargo run -p alint -- <check|lints>`.
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage/config/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut list_lints = false;
    let mut root: Option<PathBuf> = None;
    let mut github = false;
    let mut lint: Option<&'static str> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "check" => list_lints = false,
            "lints" => list_lints = true,
            "--root" => match iter.next() {
                Some(path) => root = Some(PathBuf::from(path)),
                None => {
                    eprintln!("alint: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--lint" => match iter.next().map(|s| alint::normalize_lint_id(s)) {
                Some(Some(id)) => lint = Some(id),
                Some(None) => {
                    eprintln!(
                        "alint: --lint requires a lint ID (L2, L3) or name \
                         (float_cmp, typed_error)"
                    );
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("alint: --lint requires a lint ID");
                    return ExitCode::from(2);
                }
            },
            "--format" => match iter.next().map(String::as_str) {
                Some("text") => github = false,
                Some("github") => github = true,
                other => {
                    eprintln!(
                        "alint: --format requires one of text|github, got {:?}",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("alint: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(workspace_root);
    if !root.is_dir() {
        // A typo'd --root would otherwise scan zero files and report clean,
        // turning a misconfigured CI job into a silent pass.
        eprintln!("alint: root `{}` is not a directory", root.display());
        return ExitCode::from(2);
    }

    let config = match alint::config::load(&root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("alint: {e}");
            return ExitCode::from(2);
        }
    };

    if list_lints {
        lints(&config)
    } else {
        check(&root, &config, github, lint)
    }
}

const USAGE: &str = "\
usage: cargo run -p alint -- [check|lints] [--root <dir>]
                             [--format <fmt>] [--lint <ID>]

  check     lint the workspace; every diagnostic not suppressed by an
            inline `// alint: allow(Lx)` marker fails (default)
  lints     list every lint with its name, description, and whether the
            loaded alint.toml enables it

  --format  check output style: text (default) or github (::error
            workflow-command annotations)
  --lint    restrict check to one lint, by ID (L2, L3) or name
            (float_cmp, typed_error) — fast single-pass iteration while
            developing a lint
";

/// Locate the workspace root: the manifest dir's grandparent when built in
/// place (crates/alint → repo root), else the current directory.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .filter(|p| p.join("Cargo.toml").is_file())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn check(
    root: &std::path::Path,
    config: &alint::config::Config,
    github: bool,
    lint: Option<&'static str>,
) -> ExitCode {
    let report = match alint::check_workspace_lint(root, config, lint) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("alint: {e}");
            return ExitCode::from(2);
        }
    };
    if github {
        print!("{}", alint::render_github(&report));
    } else {
        for d in &report.violations {
            println!("{d}");
        }
        let n = report.violations.len();
        if report.is_clean() {
            println!("alint: clean — {} files scanned", report.files_scanned);
        } else {
            println!(
                "alint: {n} violation{} in {} files scanned",
                if n == 1 { "" } else { "s" },
                report.files_scanned,
            );
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// List every lint with its name, one-line description, and whether the
/// loaded configuration enables it (L2 always runs; L3 is "off" when no
/// crate is in its scope, mirroring how the pass itself gates).
fn lints(config: &alint::config::Config) -> ExitCode {
    for id in alint::LINT_IDS {
        let enabled = id == "L2" || !config.typed_error_crates.is_empty();
        println!(
            "{id}  {:<19} {:<8} {}",
            alint::lints::lint_name(id),
            if enabled { "on" } else { "off" },
            alint::lints::lint_description(id),
        );
    }
    ExitCode::SUCCESS
}
