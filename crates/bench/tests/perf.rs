//! End-to-end tests of the `perf` binary: the acceptance-criteria paths.
//! A real (tiny) `run` emits schema-valid `BENCH_*.json`; `validate`
//! accepts them; `compare` against an injected 2× median slowdown exits
//! nonzero with a `REGRESSION` line and `--format github` annotations;
//! self-compare and `--check-only` exit zero.

use al_bench::perf::{load_report, SCHEMA_VERSION};
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

/// One real quick-tier run of the cheapest group, then every downstream
/// CLI path against its artifact. Grouped into one test because the run
/// itself (a real AMR measurement) is the expensive part.
#[test]
fn run_validate_and_compare_round_trip() {
    let dir = temp_dir("run");
    let out = perf(
        &[
            "run",
            "--tier",
            "quick",
            "--group",
            "amr",
            "--out",
            dir.to_str().unwrap(),
        ],
        &dir,
    );
    assert!(out.status.success(), "run failed: {out:?}");
    let bench_path = dir.join("BENCH_amr.json");
    assert!(bench_path.exists(), "run writes BENCH_amr.json");

    // The artifact is schema-valid both through the library and the CLI.
    let report = load_report(&bench_path).expect("emitted file validates");
    assert_eq!(report.schema_version, SCHEMA_VERSION);
    assert_eq!(report.group, "amr");
    assert_eq!(report.scenarios.len(), 5);
    let out = perf(&["validate", bench_path.to_str().unwrap()], &dir);
    assert!(out.status.success(), "validate failed: {out:?}");

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
        &["run", "--tier", "warp"][..],
        &["run", "--group", "nope"][..],
        &["compare", "only-one-operand"][..],
        &["compare", "a", "b", "--threshold", "-1"][..],
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
    // validate reports invalid files with exit 1.
    let out = perf(&["validate", bad.to_str().unwrap()], &dir);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn list_names_the_contracted_scenarios() {
    let dir = temp_dir("list");
    let out = perf(&["list", "--tier", "quick"], &dir);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "linalg/cholesky_extend_n",
        "linalg/cholesky_refit_n",
        "gp/local_select_100k",
        "amr/solver_step_threads_1",
        "al/strategy_select_rgma_q400",
        "amr/patch_sweep_x_mx32",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
