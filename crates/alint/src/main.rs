//! CLI entry point: `cargo run -p alint -- <check|dump|ratchet|lints>`.
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage/config/IO error.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Output style for `check`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Github,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = "check";
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut lint: Option<&'static str> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "check" | "dump" | "ratchet" | "lints" => {
                command = match arg.as_str() {
                    "dump" => "dump",
                    "ratchet" => "ratchet",
                    "lints" => "lints",
                    _ => "check",
                }
            }
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
                        "alint: --lint requires a lint ID (L2, L3, L5..L7) or name \
                         (float_cmp, …, lock_discipline)"
                    );
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("alint: --lint requires a lint ID");
                    return ExitCode::from(2);
                }
            },
            "--format" => match iter.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("github") => format = Format::Github,
                other => {
                    eprintln!(
                        "alint: --format requires one of text|json|github, got {:?}",
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

    match command {
        "dump" => dump(&root, &config, lint),
        "ratchet" => ratchet(&root, &config),
        "lints" => lints(&config),
        _ => check(&root, &config, format, lint),
    }
}

const USAGE: &str = "\
usage: cargo run -p alint -- [check|dump|ratchet|lints] [--root <dir>]
                             [--format <fmt>] [--lint <ID>]

  check     lint the workspace, applying the alint.toml allowlist (default)
  dump      print every raw diagnostic, ignoring the allowlist
  ratchet   print [[allow]] entries matching the current violation counts
  lints     list every lint with its name, description, and whether the
            loaded alint.toml enables it

  --format  check output style: text (default), json (one machine-readable
            object), or github (::error workflow-command annotations)
  --lint    restrict check/dump to one lint, by ID (L2, L3, L5..L7) or
            name (float_cmp, …, lock_discipline) — fast single-pass
            iteration while developing a lint
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
    format: Format,
    lint: Option<&'static str>,
) -> ExitCode {
    let report = match alint::check_workspace_lint(root, config, lint) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("alint: {e}");
            return ExitCode::from(2);
        }
    };
    let exit = if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    };
    match format {
        Format::Json => {
            println!("{}", alint::render_json(&report));
            return exit;
        }
        Format::Github => {
            print!("{}", alint::render_github(&report));
        }
        Format::Text => {
            for d in &report.violations {
                println!("{d}");
            }
            for (path, lint, budget, actual) in &report.slack {
                println!(
                    "note: {path}: {lint} budget is {budget} but only {actual} remain — \
                     tighten the [[allow]] entry in alint.toml"
                );
            }
            for (path, lint) in &report.unused {
                println!(
                    "error: stale [[allow]] entry for {lint} in {path} — the file has no \
                     {lint} findings; remove it from alint.toml"
                );
            }
        }
    }
    let grandfathered = report.grandfathered.len();
    if report.is_clean() {
        println!(
            "alint: clean — {} files scanned, {} grandfathered site{} within budget",
            report.files_scanned,
            grandfathered,
            if grandfathered == 1 { "" } else { "s" },
        );
    } else {
        println!(
            "alint: {} violation{} and {} stale allowance{} in {} files scanned ({} grandfathered)",
            report.violations.len(),
            if report.violations.len() == 1 {
                ""
            } else {
                "s"
            },
            report.unused.len(),
            if report.unused.len() == 1 { "" } else { "s" },
            report.files_scanned,
            grandfathered,
        );
    }
    exit
}

fn dump(
    root: &std::path::Path,
    config: &alint::config::Config,
    lint: Option<&'static str>,
) -> ExitCode {
    match alint::raw_diagnostics(root, config) {
        Ok((diags, files)) => {
            let diags: Vec<_> = diags
                .into_iter()
                .filter(|d| lint.is_none_or(|l| d.lint == l))
                .collect();
            for d in &diags {
                println!("{d}");
            }
            println!("alint: {} raw diagnostics in {files} files", diags.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("alint: {e}");
            ExitCode::from(2)
        }
    }
}

/// List every lint with its name, one-line description, and whether the
/// loaded configuration enables it (a lint is "off" when the tables that
/// scope it are empty, mirroring how the passes themselves gate).
fn lints(config: &alint::config::Config) -> ExitCode {
    for id in alint::LINT_IDS {
        let enabled = match id {
            "L2" => true,
            "L3" => !config.typed_error_crates.is_empty(),
            "L5" => {
                !(config.unit_suffixes.is_empty()
                    && config.unit_types.is_empty()
                    && config.unit_conversions.is_empty())
            }
            "L6" => !config.determinism_crates.is_empty(),
            _ => !(config.lock_classes.is_empty() && config.lock_order.is_empty()),
        };
        println!(
            "{id}  {:<19} {:<8} {}",
            alint::lints::lint_name(id),
            if enabled { "on" } else { "off" },
            alint::lints::lint_description(id),
        );
    }
    ExitCode::SUCCESS
}

/// Emit `[[allow]]` entries for the current state, for seeding or
/// re-tightening the ratchet after paying down debt.
fn ratchet(root: &std::path::Path, config: &alint::config::Config) -> ExitCode {
    match alint::raw_diagnostics(root, config) {
        Ok((diags, _)) => {
            let mut counts: BTreeMap<(String, &'static str), usize> = BTreeMap::new();
            for d in diags {
                *counts.entry((d.path, d.lint)).or_insert(0) += 1;
            }
            for ((path, lint), count) in counts {
                println!("[[allow]]");
                println!("path = \"{path}\"");
                println!("lint = \"{lint}\"");
                println!("count = {count}");
                println!("reason = \"grandfathered pending conversion\"");
                println!();
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("alint: {e}");
            ExitCode::from(2)
        }
    }
}
