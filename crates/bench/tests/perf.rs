//! End-to-end tests of the `perf` binary: the acceptance-criteria paths.
//! A real (tiny) `run` emits schema-valid `BENCH_*.json`; `compare`
//! against an injected 2× median slowdown exits nonzero with a
//! `REGRESSION` line and `--format github` annotations; self-compare and
//! `--check-only` exit zero; a malformed report in either operand exits 2.

use al_bench::perf::{compare, load_dir, load_report, registry, workspace_root, SCHEMA_VERSION};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn perf(args: &[&str], cwd: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("perf binary runs")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("al-perf-test-{tag}-{}", std::process::id()));
    // A stale directory from a previous crashed run is fine to reuse.
    std::fs::create_dir_all(&dir).expect("temp dir creates");
    dir
}

/// One real run of the cheapest group, then every downstream CLI path
/// against its artifact. Grouped into one test because the run itself (a
/// real AMR measurement) is the expensive part.
#[test]
fn run_and_compare_round_trip() {
    let dir = temp_dir("run");
    let out = perf(
        &["run", "--group", "amr", "--out", dir.to_str().unwrap()],
        &dir,
    );
    assert!(out.status.success(), "run failed: {out:?}");
    let bench_path = dir.join("BENCH_amr.json");
    assert!(bench_path.exists(), "run writes BENCH_amr.json");

    // The artifact is schema-valid, and `run` printed every scenario.
    let report = load_report(&bench_path).expect("emitted file validates");
    assert_eq!(report.schema_version, SCHEMA_VERSION);
    assert_eq!(report.group, "amr");
    assert_eq!(report.scenarios.len(), 5);
    let text = String::from_utf8_lossy(&out.stdout);
    for s in &report.scenarios {
        assert!(text.contains(&format!("amr/{}: median", s.name)), "{text}");
    }

    // Self-compare: zero regressions, exit 0.
    let out = perf(
        &[
            "compare",
            bench_path.to_str().unwrap(),
            bench_path.to_str().unwrap(),
        ],
        &dir,
    );
    assert!(out.status.success(), "self-compare must pass: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 regression(s)"), "{text}");

    // Injected regression fixture: double every median and shift the IQR
    // fully above the old one — the exact shape `compare` must flag.
    let mut slowed = report.clone();
    for s in &mut slowed.scenarios {
        // Doubling plus an own-max shift puts the whole new IQR strictly
        // above the old one even for skewed sample distributions.
        let shift = s.stats.max_s;
        s.stats.min_s = s.stats.min_s * 2.0 + shift;
        s.stats.q1_s = s.stats.q1_s * 2.0 + shift;
        s.stats.median_s = s.stats.median_s * 2.0 + shift;
        s.stats.q3_s = s.stats.q3_s * 2.0 + shift;
        s.stats.max_s = s.stats.max_s * 2.0 + shift;
        s.stats.mean_s = s.stats.mean_s * 2.0 + shift;
    }
    let slow_path = dir.join("BENCH_amr_slow.json");
    std::fs::write(&slow_path, slowed.to_json().render()).unwrap();
    let out = perf(
        &[
            "compare",
            bench_path.to_str().unwrap(),
            slow_path.to_str().unwrap(),
        ],
        &dir,
    );
    assert!(
        !out.status.success(),
        "2x slowdown must exit nonzero: {out:?}"
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("REGRESSION"), "{text}");

    // --check-only downgrades the same comparison to advisory (exit 0),
    // and --format github emits workflow annotations.
    let out = perf(
        &[
            "compare",
            bench_path.to_str().unwrap(),
            slow_path.to_str().unwrap(),
            "--check-only",
            "--format",
            "github",
        ],
        &dir,
    );
    assert!(out.status.success(), "check-only must exit 0: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("::warning"), "{text}");

    // The improvement direction (old = slowed, new = fast) does not fail.
    let out = perf(
        &[
            "compare",
            slow_path.to_str().unwrap(),
            bench_path.to_str().unwrap(),
        ],
        &dir,
    );
    assert!(
        out.status.success(),
        "improvements are not failures: {out:?}"
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("improvement"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_and_bad_input_exit_two() {
    let dir = temp_dir("usage");
    for args in [
        &[][..],
        &["frobnicate"][..],
        &["run", "--group", "nope"][..],
        &["compare", "only-one-operand"][..],
        // The retired commands and options.
        &["list"][..],
        &["validate", "BENCH_gp.json"][..],
        &["run", "--tier", "quick"][..],
        &["compare", "a", "b", "--threshold", "0.1"][..],
    ] {
        let out = perf(args, &dir);
        assert_eq!(out.status.code(), Some(2), "args {args:?}: {out:?}");
    }
    // A malformed operand is also a usage-class failure (exit 2).
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{not json").unwrap();
    let out = perf(
        &["compare", bad.to_str().unwrap(), bad.to_str().unwrap()],
        &dir,
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A directory operand is schema-validated file by file: one malformed
/// `BENCH_*.json` beside a good one fails the compare with exit 2.
#[test]
fn compare_rejects_a_directory_with_one_malformed_report() {
    let dir = temp_dir("malformed");
    let good = workspace_root().join("BENCH_amr.json");
    std::fs::copy(&good, dir.join("BENCH_amr.json")).unwrap();
    let out = perf(
        &["compare", good.to_str().unwrap(), dir.to_str().unwrap()],
        &dir,
    );
    assert!(
        out.status.success(),
        "the good copy alone compares: {out:?}"
    );
    // Valid JSON with its median removed fails the schema, not the parser.
    let bad = std::fs::read_to_string(&good)
        .unwrap()
        .replace("\"median_s\"", "\"median\"");
    std::fs::write(dir.join("BENCH_gp.json"), bad).unwrap();
    let root = workspace_root();
    for args in [
        [root.to_str().unwrap(), dir.to_str().unwrap()],
        [dir.to_str().unwrap(), root.to_str().unwrap()],
    ] {
        let out = perf(&["compare", args[0], args[1]], &dir);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("BENCH_gp.json"), "names the bad file: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The committed trajectory still loads (files recorded before the `tier`
/// key was retired carry it; the reader ignores it), self-compares clean,
/// and matches the registry name for name.
#[test]
fn committed_reports_load_and_match_the_registry() {
    let committed = load_dir(&workspace_root()).expect("committed BENCH files validate");
    let groups: Vec<&str> = committed.iter().map(|r| r.group.as_str()).collect();
    assert_eq!(groups, ["al", "amr", "gp", "linalg"]);
    let cmp = compare(&committed, &committed).expect("self-compare");
    assert_eq!(cmp.regression_count(), 0);
    assert!(cmp.only_old.is_empty() && cmp.only_new.is_empty());

    let mut recorded: Vec<String> = committed
        .iter()
        .flat_map(|r| {
            r.scenarios
                .iter()
                .map(|s| format!("{}/{}", r.group, s.name))
        })
        .collect();
    let mut registered: Vec<String> = registry(&[])
        .unwrap()
        .iter()
        .map(|s| format!("{}/{}", s.group, s.name))
        .collect();
    recorded.sort();
    registered.sort();
    assert_eq!(recorded, registered);
    assert_eq!(registered.len(), 43);
}
