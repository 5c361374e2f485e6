//! Replay/parity suite for the session core (DESIGN §12).
//!
//! Two claims are enforced here:
//!
//! 1. **Parity.** `run_trajectory` is now a thin driver over
//!    `SessionState::step`. `legacy_run_trajectory` below is a hand-rolled
//!    replica of the pre-split loop body (the same pattern as the
//!    hand-rolled serial stepper in `crates/amr/tests/serial_stepper_parity.rs`)
//!    driving `GpModel` directly; for RGMA and baseline strategies, both
//!    entry points must produce byte-identical trajectory CSVs and the
//!    same `StopReason` from the same seed.
//! 2. **Replay determinism.** `step` is a pure transition function:
//!    stepping a cloned `SessionState` snapshot twice with the same
//!    observation yields bitwise-identical successors (compared through
//!    `SessionState::digest`, since the RNG intentionally has no
//!    `PartialEq`), and a snapshot driven to completion reproduces the
//!    original trajectory exactly.

// Integration tests run outside #[cfg(test)]; tests may panic and compare
// exact copied floats.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use al_amr_sim::SimulationConfig;
use al_core::metrics::{self, CumulativeTracker};
use al_core::stopping::{StabilizationDetector, StopReason, VectorStabilization};
use al_core::trajectory::IterationRecord;
use al_core::{
    io, run_trajectory, AlOptions, Decision, Observation, SelectionContext, SessionConfig,
    SessionState, StrategyKind, Trajectory,
};
use al_dataset::{Dataset, Partition, Sample};
use al_gp::{FitOptions, GpModel};
use al_units::{Megabytes, NodeHours};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic synthetic dataset (twin of `procedure::test_util`, which
/// is crate-private).
fn synth_dataset(n: usize) -> Dataset {
    let ps = [4u32, 8, 16, 32];
    let mxs = [8usize, 16, 24, 32];
    let mls = [3u8, 4, 5, 6];
    let samples: Vec<Sample> = (0..n)
        .map(|i| {
            let config = SimulationConfig {
                p: ps[i % 4],
                mx: mxs[(i / 4) % 4],
                maxlevel: mls[(i / 16) % 4],
                r0: 0.2 + 0.3 * ((i % 7) as f64 / 6.0),
                rhoin: 0.02 + 0.48 * ((i % 5) as f64 / 4.0),
            };
            let work = 4f64.powi(config.maxlevel as i32 - 3)
                * (config.mx as f64 / 8.0).powi(2)
                * (1.0 + config.r0);
            let cost = 0.01 * work * (1.0 + 0.02 * config.p as f64);
            let memory = 0.05 * work * 8.0 / config.p as f64 + 0.01;
            Sample {
                config,
                wall_seconds: al_units::Seconds::new(cost * 3600.0 / config.p as f64),
                cost_node_hours: al_units::NodeHours::new(cost),
                memory_mb: al_units::Megabytes::new(memory),
            }
        })
        .collect();
    Dataset::new(samples)
}

/// Hand-rolled replica of the pre-split `run_trajectory` loop body,
/// driving the GP models and selection strategy directly. Kept verbatim
/// from the legacy implementation so the session core has a fixed
/// reference to be measured against.
fn legacy_run_trajectory(
    dataset: &Dataset,
    partition: &Partition,
    kind: StrategyKind,
    opts: &AlOptions,
) -> Trajectory {
    let strategy = kind.build();
    let mut rng = StdRng::seed_from_u64(opts.seed);

    let x_init = dataset.features_scaled(&partition.init);
    let mut rows: Vec<f64> = x_init.as_slice().to_vec();
    let mut n_train = partition.init.len();
    let mut y_cost = dataset.log_cost(&partition.init);
    let mut y_mem = dataset.log_memory(&partition.init);
    let train_x = |rows: &Vec<f64>, n: usize| al_linalg::Matrix::from_vec(n, 5, rows.clone());

    let mut gp_cost = GpModel::new(
        opts.kernel.build(opts.init_length_scale),
        opts.noise_variance,
    );
    let mut gp_mem = GpModel::new(
        opts.kernel.build(opts.init_length_scale),
        opts.noise_variance,
    );
    gp_cost
        .fit_optimized(&train_x(&rows, n_train), &y_cost, &opts.initial_fit)
        .unwrap();
    gp_mem
        .fit_optimized(&train_x(&rows, n_train), &y_mem, &opts.initial_fit)
        .unwrap();

    let x_test = dataset.features_scaled(&partition.test);
    let test_cost_raw = dataset.raw_cost(&partition.test);
    let test_mem_raw = dataset.raw_memory(&partition.test);
    let test_rmse = |gp_cost: &GpModel, gp_mem: &GpModel| -> (f64, f64) {
        let pc = gp_cost.predict(&x_test).unwrap();
        let pm = gp_mem.predict(&x_test).unwrap();
        (
            metrics::rmse_nonlog(&pc.mean, &test_cost_raw),
            metrics::rmse_nonlog(&pm.mean, &test_mem_raw),
        )
    };
    let (initial_rmse_cost, initial_rmse_mem) = test_rmse(&gp_cost, &gp_mem);

    let mut active: Vec<usize> = partition.active.clone();
    let mem_limit_raw = opts.mem_limit_log.map(|l| l.to_megabytes());
    let mut tracker = CumulativeTracker::default();
    let mut detector = opts
        .stabilization
        .map(|(w, tol)| StabilizationDetector::new(w, tol));
    let mut hp_detector = opts
        .hyperparam_stabilization
        .map(|(w, tol)| VectorStabilization::new(w, tol));

    let mut records = Vec::with_capacity(active.len());
    let max_iterations = opts.max_iterations.unwrap_or(usize::MAX);
    let mut iteration = 0usize;

    let stop_reason = loop {
        if active.is_empty() {
            break StopReason::ActiveExhausted;
        }
        if iteration >= max_iterations {
            break StopReason::MaxIterations;
        }

        let x_active = dataset.features_scaled(&active);
        let pred_cost = gp_cost.predict(&x_active).unwrap();
        let pred_mem = gp_mem.predict(&x_active).unwrap();
        let mut mu_c = pred_cost.mean;
        let mut sg_c = pred_cost.std;
        let mut mu_m = pred_mem.mean;
        let mut sg_m = pred_mem.std;

        let mut picked: Vec<usize> = Vec::with_capacity(opts.batch_size);
        let mut refused = false;
        while picked.len() < opts.batch_size
            && !active.is_empty()
            && iteration + picked.len() < max_iterations
        {
            let ctx = SelectionContext {
                mu_cost: &mu_c,
                sigma_cost: &sg_c,
                mu_mem: &mu_m,
                sigma_mem: &sg_m,
                mem_limit_log: opts.mem_limit_log,
            };
            match strategy.select(&ctx, &mut rng) {
                Some(k) => {
                    picked.push(active.remove(k));
                    mu_c.remove(k);
                    sg_c.remove(k);
                    mu_m.remove(k);
                    sg_m.remove(k);
                }
                None => {
                    refused = true;
                    break;
                }
            }
        }
        if picked.is_empty() {
            break StopReason::AllCandidatesRefused;
        }

        let crossed_optimize_boundary =
            (iteration + picked.len()) / opts.optimize_every > iteration / opts.optimize_every;

        let mut acquired: Vec<(usize, NodeHours, Megabytes, NodeHours, NodeHours, NodeHours)> =
            Vec::new();
        for &dataset_index in &picked {
            let sample = dataset.sample(dataset_index);
            let cost = sample.cost_node_hours;
            let memory = sample.memory_mb;
            let regret = tracker.record(cost, memory, mem_limit_raw);
            rows.extend_from_slice(&dataset.scaled_row(dataset_index));
            n_train += 1;
            y_cost.extend(dataset.log_cost(&[dataset_index]));
            y_mem.extend(dataset.log_memory(&[dataset_index]));
            if opts.incremental && !crossed_optimize_boundary {
                let row = dataset.scaled_row(dataset_index);
                gp_cost
                    .augment(&row, dataset.log_cost(&[dataset_index])[0])
                    .unwrap();
                gp_mem
                    .augment(&row, dataset.log_memory(&[dataset_index])[0])
                    .unwrap();
            }
            acquired.push((
                dataset_index,
                cost,
                memory,
                regret,
                tracker.cumulative_cost(),
                tracker.cumulative_regret(),
            ));
        }

        if crossed_optimize_boundary {
            let x = train_x(&rows, n_train);
            gp_cost.fit_optimized(&x, &y_cost, &opts.refit).unwrap();
            gp_mem.fit_optimized(&x, &y_mem, &opts.refit).unwrap();
        } else if !opts.incremental {
            let x = train_x(&rows, n_train);
            gp_cost.fit(&x, &y_cost).unwrap();
            gp_mem.fit(&x, &y_mem).unwrap();
        }

        let (rmse_cost, rmse_mem) = test_rmse(&gp_cost, &gp_mem);
        for (offset, (dataset_index, cost, memory, regret, cc, cr)) in
            acquired.into_iter().enumerate()
        {
            records.push(IterationRecord {
                iteration: iteration + offset,
                dataset_index,
                cost,
                memory,
                regret,
                cumulative_cost: cc,
                cumulative_regret: cr,
                rmse_cost,
                rmse_mem,
            });
        }
        iteration += picked.len();

        if refused {
            break StopReason::AllCandidatesRefused;
        }
        if let Some(detector) = detector.as_mut() {
            if detector.push(rmse_cost) {
                break StopReason::PredictionsStabilized;
            }
        }
        if let Some(hp) = hp_detector.as_mut() {
            if hp.push(&gp_cost.hyperparams()) {
                break StopReason::HyperparamsStabilized;
            }
        }
    };

    Trajectory {
        strategy: kind.label().to_string(),
        n_init: partition.init.len(),
        initial_rmse_cost,
        initial_rmse_mem,
        records,
        stop_reason,
    }
}

fn fast_opts() -> AlOptions {
    AlOptions {
        initial_fit: FitOptions {
            n_restarts: 1,
            max_iters: 30,
            ..FitOptions::default()
        },
        refit: FitOptions {
            n_restarts: 0,
            max_iters: 10,
            ..FitOptions::default()
        },
        optimize_every: 8,
        ..AlOptions::default()
    }
}

fn partition(dataset: &Dataset, n_init: usize, seed: u64) -> Partition {
    let mut rng = StdRng::seed_from_u64(seed);
    Partition::random(dataset.len(), n_init, dataset.len() / 3, &mut rng)
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("al_parity_{name}_{}.csv", std::process::id()));
    p
}

/// Assert the session-driven and legacy trajectories agree as values AND
/// as serialized bytes.
fn assert_byte_identical(name: &str, session: &Trajectory, legacy: &Trajectory) {
    assert_eq!(session, legacy, "{name}: trajectory values diverged");
    assert_eq!(
        session.stop_reason, legacy.stop_reason,
        "{name}: stop reasons diverged"
    );
    let (pa, pb) = (
        tmp(&format!("{name}_session")),
        tmp(&format!("{name}_legacy")),
    );
    io::write_trajectory_csv(session, &pa).unwrap();
    io::write_trajectory_csv(legacy, &pb).unwrap();
    let (ba, bb) = (std::fs::read(&pa).unwrap(), std::fs::read(&pb).unwrap());
    std::fs::remove_file(&pa).ok();
    std::fs::remove_file(&pb).ok();
    assert!(ba == bb, "{name}: serialized CSV bytes diverged");
}

#[test]
fn rgma_session_matches_legacy_loop_byte_for_byte() {
    let d = synth_dataset(72);
    let p = partition(&d, 12, 5);
    let opts = AlOptions {
        mem_limit_log: Some(d.memory_limit_log(0.7)),
        seed: 17,
        ..fast_opts()
    };
    let kind = StrategyKind::Rgma { base: 10.0 };
    let session = run_trajectory(&d, &p, kind, &opts).unwrap();
    let legacy = legacy_run_trajectory(&d, &p, kind, &opts);
    assert_byte_identical("rgma", &session, &legacy);
    assert!(!session.records.is_empty());
}

#[test]
fn baseline_session_matches_legacy_loop_byte_for_byte() {
    let d = synth_dataset(48);
    let p = partition(&d, 4, 6);
    // RandGoodness consumes RNG draws every selection — the strongest
    // check that the session preserves the legacy draw order exactly.
    let opts = AlOptions {
        seed: 23,
        ..fast_opts()
    };
    let kind = StrategyKind::RandGoodness { base: 10.0 };
    let session = run_trajectory(&d, &p, kind, &opts).unwrap();
    let legacy = legacy_run_trajectory(&d, &p, kind, &opts);
    assert_byte_identical("baseline", &session, &legacy);
    assert_eq!(session.stop_reason, StopReason::ActiveExhausted);
}

#[test]
fn batched_and_incremental_paths_match_legacy() {
    let d = synth_dataset(48);
    let p = partition(&d, 6, 21);
    for (name, opts) in [
        (
            "batch3",
            AlOptions {
                batch_size: 3,
                seed: 31,
                ..fast_opts()
            },
        ),
        (
            "incremental",
            AlOptions {
                incremental: true,
                max_iterations: Some(20),
                seed: 32,
                ..fast_opts()
            },
        ),
        (
            "batch_mid_cap",
            AlOptions {
                batch_size: 4,
                max_iterations: Some(6),
                seed: 33,
                ..fast_opts()
            },
        ),
    ] {
        let kind = StrategyKind::MinPred;
        let session = run_trajectory(&d, &p, kind, &opts).unwrap();
        let legacy = legacy_run_trajectory(&d, &p, kind, &opts);
        assert_byte_identical(name, &session, &legacy);
    }
}

#[test]
fn early_stop_reasons_match_legacy() {
    let d = synth_dataset(60);
    let p = partition(&d, 10, 8);
    for (name, opts, expect) in [
        (
            "stabilized",
            AlOptions {
                stabilization: Some((3, 10.0)),
                seed: 41,
                ..fast_opts()
            },
            StopReason::PredictionsStabilized,
        ),
        (
            "hyperparams",
            AlOptions {
                hyperparam_stabilization: Some((2, 1.0)),
                seed: 42,
                ..fast_opts()
            },
            StopReason::HyperparamsStabilized,
        ),
        (
            "max_iter",
            AlOptions {
                max_iterations: Some(5),
                seed: 43,
                ..fast_opts()
            },
            StopReason::MaxIterations,
        ),
    ] {
        let session = run_trajectory(&d, &p, StrategyKind::RandUniform, &opts).unwrap();
        let legacy = legacy_run_trajectory(&d, &p, StrategyKind::RandUniform, &opts);
        assert_eq!(session.stop_reason, expect, "{name}");
        assert_byte_identical(name, &session, &legacy);
    }
}

#[test]
fn step_is_replay_deterministic_from_any_snapshot() {
    let d = synth_dataset(48);
    let p = partition(&d, 4, 9);
    let opts = AlOptions {
        mem_limit_log: Some(d.memory_limit_log(0.7)),
        max_iterations: Some(10),
        seed: 51,
        ..fast_opts()
    };
    let config = SessionConfig::from_partition(&d, &p, StrategyKind::Rgma { base: 10.0 }, &opts);
    let (mut state, mut decision) = SessionState::start(config).unwrap();
    let mut checked = 0;
    while let Decision::Query(q) = decision {
        let obs = Observation::from_dataset(&d, q.dataset_index);
        // Same snapshot + same observation, applied twice: the successors
        // must be bitwise identical.
        let (s1, d1) = state.clone().step(&obs).unwrap();
        let (s2, d2) = state.clone().step(&obs).unwrap();
        assert_eq!(d1, d2, "decisions diverged at iteration {checked}");
        assert_eq!(
            s1.digest(),
            s2.digest(),
            "successor states diverged at iteration {checked}"
        );
        checked += 1;
        (state, decision) = (s1, d1);
    }
    assert!(checked >= 5, "exercised too few steps ({checked})");
}

#[test]
fn cloned_snapshot_driven_to_completion_reproduces_the_trajectory() {
    let d = synth_dataset(36);
    let p = partition(&d, 3, 12);
    let opts = AlOptions {
        seed: 61,
        ..fast_opts()
    };
    let kind = StrategyKind::RandGoodness { base: 10.0 };
    let config = SessionConfig::from_partition(&d, &p, kind, &opts);
    let (mut state, mut decision) = SessionState::start(config).unwrap();

    // Take a snapshot a few steps in, then race both copies to the end.
    for _ in 0..3 {
        let q = decision.query().expect("pool is large enough");
        let obs = Observation::from_dataset(&d, q.dataset_index);
        (state, decision) = state.step(&obs).unwrap();
    }
    let snapshot = state.clone();
    let snapshot_decision = decision;

    let drive = |mut state: SessionState, mut decision: Decision| -> Trajectory {
        while let Decision::Query(q) = decision {
            let obs = Observation::from_dataset(&d, q.dataset_index);
            (state, decision) = state.step(&obs).unwrap();
        }
        state.into_trajectory()
    };
    let a = drive(state, decision);
    let b = drive(snapshot, snapshot_decision);
    assert_eq!(a, b, "replayed snapshot diverged from the original run");
    assert_eq!(a, legacy_run_trajectory(&d, &p, kind, &opts));
}
