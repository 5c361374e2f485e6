//! `perf` — the BENCH_*.json trajectory driver.
//!
//! ```text
//! perf run     [--group G]... [--out DIR]
//! perf compare <old> <new> [--format text|github] [--check-only]
//! ```
//!
//! `run` prints every scenario it measures and writes one schema-versioned
//! `BENCH_<group>.json` per group (workspace root by default). `compare`
//! takes two files or directories, schema-validates every report of both
//! operands, flags scenarios whose median slowed by more than the threshold
//! with disjoint IQRs, and exits 1 on any regression unless `--check-only`
//! (advisory mode for cross-machine CI). Usage errors and malformed
//! reports exit 2.

use al_bench::perf::{
    compare, group_names, load_dir, load_report, run, workspace_root, write_report, BenchReport,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  perf run     [--group G]... [--out DIR]\n  perf compare <old> <new> [--format text|github] [--check-only]\n\ngroups: {}",
        group_names().join(", ")
    );
    ExitCode::from(2)
}

struct Common {
    groups: Vec<String>,
    out: Option<PathBuf>,
    github: bool,
    check_only: bool,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Option<Common> {
    let mut c = Common {
        groups: Vec::new(),
        out: None,
        github: false,
        check_only: false,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--group" => c.groups.push(it.next()?.clone()),
            "--out" => c.out = Some(PathBuf::from(it.next()?)),
            "--format" => match it.next()?.as_str() {
                "github" => c.github = true,
                "text" => c.github = false,
                _ => return None,
            },
            "--check-only" => c.check_only = true,
            _ if a.starts_with("--") => return None,
            _ => c.positional.push(a.clone()),
        }
    }
    Some(c)
}

/// A compare operand: one report file, or a directory of `BENCH_*.json`.
fn load_operand(path: &Path) -> Result<Vec<BenchReport>, al_bench::error::BenchError> {
    if path.is_dir() {
        load_dir(path)
    } else {
        load_report(path).map(|r| vec![r])
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return usage();
    };
    let Some(c) = parse_args(rest) else {
        return usage();
    };
    match cmd.as_str() {
        "run" => {
            if !c.positional.is_empty() {
                return usage();
            }
            let out_dir = c.out.unwrap_or_else(workspace_root);
            if let Err(e) = std::fs::create_dir_all(&out_dir) {
                eprintln!("perf run: {}: {e}", out_dir.display());
                return ExitCode::from(2);
            }
            let reports = match run(&c.groups, |line| println!("{line}")) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("perf run: {e}");
                    return ExitCode::from(2);
                }
            };
            for report in &reports {
                match write_report(report, &out_dir) {
                    Ok(path) => println!("wrote {}", path.display()),
                    Err(e) => {
                        eprintln!("perf run: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        "compare" => {
            let [old_path, new_path] = c.positional.as_slice() else {
                return usage();
            };
            // Every load error names the file or directory it came from.
            let cmp = load_operand(Path::new(old_path))
                .and_then(|old| compare(&old, &load_operand(Path::new(new_path))?));
            let cmp = match cmp {
                Ok(cmp) => cmp,
                Err(e) => {
                    eprintln!("perf compare: {e}");
                    return ExitCode::from(2);
                }
            };
            if c.github {
                print!("{}", cmp.render_github(c.check_only));
            }
            print!("{}", cmp.render_text());
            if cmp.regression_count() > 0 && !c.check_only {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        _ => usage(),
    }
}
