//! Replica parity and exact-count repeatability.
//!
//! The per-layer numbers come from replicas of the library's loops built
//! out of public calls. These tests prove the replicas do the same work
//! bit for bit — `run_trajectory`'s trajectories, the `SessionStore`'s
//! trajectories, `run_simulation`'s `WorkStats` — and that every count a
//! traced run reports repeats exactly for the same seed.

use al_amr_sim::{run_simulation, MachineModel, SimulationConfig, SolverProfile};
use al_core::{run_trajectory, AlOptions, SessionConfig, StrategyKind};
use al_dataset::{Dataset, Partition};
use al_gp::FitOptions;
use perfbench::digest::of_trajectory;
use perfbench::replica::{traced_simulation, traced_trajectory};
use perfbench::trace::Tracer;
use perfbench::{common, fig3, serve, sweep};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Instant;

fn data_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data/dataset.csv")
}

fn dataset() -> Dataset {
    common::load_dataset(&data_path()).expect("dataset beside the benchmark")
}

#[test]
fn session_replica_matches_run_trajectory() {
    let d = dataset();
    let base = AlOptions {
        initial_fit: FitOptions {
            n_restarts: 1,
            max_iters: 12,
            ..FitOptions::default()
        },
        refit: FitOptions {
            n_restarts: 0,
            max_iters: 6,
            ..FitOptions::default()
        },
        optimize_every: 5,
        max_iterations: Some(12),
        mem_limit_log: Some(d.memory_limit_log_percentile(0.90)),
        ..AlOptions::default()
    };
    let modes = [
        base.clone(),
        AlOptions {
            incremental: true,
            ..base.clone()
        },
        AlOptions {
            incremental: true,
            batch_size: 3,
            ..base.clone()
        },
        AlOptions {
            stabilization: Some((2, 1e9)),
            hyperparam_stabilization: Some((2, 1e9)),
            ..base.clone()
        },
    ];
    for (m, opts) in modes.iter().enumerate() {
        for (s, kind) in StrategyKind::paper_five().into_iter().enumerate() {
            let seed = (m * 10 + s) as u64;
            let partition = Partition::random(d.len(), 10, 200, &mut StdRng::seed_from_u64(seed));
            let opts = AlOptions {
                seed,
                ..opts.clone()
            };
            let real = run_trajectory(&d, &partition, kind, &opts).expect("library trajectory");
            let config = SessionConfig::from_partition(&d, &partition, kind, &opts);
            let mut tr = Tracer::new(Instant::now());
            let replica = traced_trajectory(&d, config, &mut tr).expect("replica trajectory");
            assert_eq!(
                of_trajectory(&real),
                of_trajectory(&replica),
                "mode {m}, {} diverged",
                kind.label()
            );
            assert!(!real.records.is_empty());
        }
    }
}

#[test]
fn simulation_replica_matches_run_simulation() {
    let machine = MachineModel::default();
    let configs = [
        SimulationConfig {
            p: 8,
            mx: 8,
            maxlevel: 3,
            r0: 0.3,
            rhoin: 0.1,
        },
        SimulationConfig {
            p: 16,
            mx: 16,
            maxlevel: 4,
            r0: 0.425,
            rhoin: 0.02,
        },
    ];
    for config in configs {
        for profile in [SolverProfile::smoke(), SolverProfile::fast()] {
            let real = run_simulation(&config, profile, &machine, 3).expect("library run");
            let mut tr = Tracer::new(Instant::now());
            let replica =
                traced_simulation(&config, profile, &machine, 3, &mut tr).expect("replica run");
            assert_eq!(real.work, replica.work, "{config:?}");
            assert_eq!(real, replica, "{config:?}");
        }
    }
}

#[test]
fn serve_traced_run_matches_the_store_and_repeats_exactly() {
    let run = || {
        let inputs = serve::setup(&data_path()).expect("serve inputs");
        serve::run_traced(&inputs, 5, 1, Instant::now()).0
    };
    let (a, b) = (run(), run());
    // `correct` covers the replica's decisions and trajectories against
    // the store's, the warm-hit pattern, and the stored reference.
    assert!(a.correct && b.correct, "{:?}", a.notes);
    assert_eq!(a.failed, 0);
    assert_eq!(a.exact_counts, b.exact_counts);
    assert_eq!(a.exact_counts["core.store.create_cold.calls"], 2);
    assert_eq!(a.exact_counts["core.store.create_warm.calls"], 8);
    assert!(a.exact_counts["linalg.extend_flops"] > 0);
    assert!(!a.exact_counts.contains_key("gp.fit.calls"));
}

#[test]
fn sweep_traced_run_matches_the_reference_and_repeats_exactly() {
    let inputs = sweep::setup().expect("sweep inputs");
    let (a, _) = sweep::run_traced(&inputs, 3, 1, Instant::now());
    let (b, _) = sweep::run_traced(&inputs, 3, 1, Instant::now());
    assert!(a.correct && b.correct, "{:?}", a.notes);
    assert_eq!(a.exact_counts, b.exact_counts);
    assert_eq!(a.exact_counts["amr.sim.calls"], 16);
    assert!(a.exact_counts["amr.cell_updates"] > 0);
}

#[test]
fn fig3_traced_counts_repeat_exactly() {
    let inputs = fig3::setup(&data_path(), 4).expect("fig3 inputs");
    let (a, _) = fig3::run_traced(&inputs, 2, Instant::now());
    let (b, _) = fig3::run_traced(&inputs, 2, Instant::now());
    // The shortened batch matches no stored reference, so the run fails
    // its output check — but through a digest, not a library error.
    assert!(!a.notes.contains_key("error"), "{:?}", a.notes);
    assert!(!a.correct && a.failed == a.attempted);
    assert_eq!(a.exact_counts, b.exact_counts);
    assert_eq!(a.exact_counts["core.batch.job.calls"], 10);
    assert_eq!(a.exact_counts["gp.fit.calls"], 10 * 2 * 4);
    assert!(!a.exact_counts.contains_key("gp.augment.calls"));
}

/// A run whose outputs differ from the stored digests — here because every
/// row's observed memory was nudged by one ulp — must print
/// `correct: false`, count every operation failed, and exit 1.
#[test]
fn a_changed_output_fails_the_run_and_exits_1() {
    let csv = std::fs::read_to_string(data_path()).expect("dataset");
    let mut lines: Vec<String> = csv.lines().map(str::to_string).collect();
    for line in lines.iter_mut().skip(1) {
        let (head, last) = line.rsplit_once(',').expect("a csv row");
        let v: f64 = last.parse().expect("a numeric last column");
        *line = format!("{head},{}", f64::from_bits(v.to_bits() + 1));
    }
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let changed = dir.join("dataset-one-ulp.csv");
    std::fs::write(&changed, lines.join("\n") + "\n").expect("write the changed dataset");

    let output = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", serve::NAME, "--seed", "0", "--seconds", "0.2"])
        .args(["--trace", "0", "--trace-out"])
        .arg(dir.join("trace"))
        .arg("--data")
        .arg(&changed)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(1), "{stdout}");
    let doc = al_bench::json::parse(&stdout).expect("a JSON document");
    let result = doc.get("result").expect("a result");
    assert_eq!(result.get("correct").and_then(|c| c.as_bool()), Some(false));
    let count = |key| result.get(key).and_then(|v| v.as_f64());
    assert_eq!(count("failed"), count("attempted"));

    let unchanged = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", serve::NAME, "--seed", "0", "--seconds", "0.2"])
        .args(["--trace", "0", "--trace-out"])
        .arg(dir.join("trace"))
        .arg("--data")
        .arg(data_path())
        .output()
        .expect("run the benchmark binary");
    assert_eq!(unchanged.status.code(), Some(0));
}
