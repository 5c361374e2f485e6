//! Algorithm 1: the active-learning procedure that incrementally trains
//! cost and memory GPR models by selecting one experiment at a time.
//!
//! Since the session-core split, this module is a thin driver: the loop
//! body itself lives in [`crate::session`] as a pure transition function,
//! and [`run_trajectory`] merely feeds it dataset lookups. The replay
//! suite in `tests/session_parity.rs` proves the driver byte-identical to
//! the pre-split loop.

use crate::session::{Decision, Observation, SessionConfig, SessionState};
use crate::strategy::StrategyKind;
use crate::trajectory::Trajectory;
use al_dataset::{Dataset, Partition};
use al_gp::{FitOptions, GpError, KernelKind};
use al_units::LogMegabytes;

/// Options controlling one AL trajectory.
#[derive(Debug, Clone)]
pub struct AlOptions {
    /// Kernel family for both GP models (the paper uses the isotropic RBF).
    pub kernel: KernelKind,
    /// Initial length scale for unit-cube features.
    pub init_length_scale: f64,
    /// Initial observation-noise variance (log10-response units squared).
    pub noise_variance: f64,
    /// Hyperparameter optimization for the initial fit (multi-start).
    pub initial_fit: FitOptions,
    /// Hyperparameter optimization during AL (warm-started, cheap) — the
    /// paper's "use old model's parameters as a starting point".
    pub refit: FitOptions,
    /// Re-optimize hyperparameters every this many iterations; in between,
    /// models are refit (refactored) at fixed hyperparameters. Must be at
    /// least 1.
    pub optimize_every: usize,
    /// Optional cap on AL iterations (default: run the Active pool dry).
    /// With batching, each *selection* counts as one iteration.
    pub max_iterations: Option<usize>,
    /// Selections per retraining round (paper Section VI future work:
    /// "running multiple simulations in parallel at each iteration").
    /// With `batch_size > 1` the strategy picks that many candidates from
    /// the *same* (stale) predictions before the models retrain once —
    /// less greedy, but the round count drops by the batch factor.
    pub batch_size: usize,
    /// Memory limit `L_mem` in log10 MB. Required by RGMA; also enables
    /// regret accounting for every strategy.
    pub mem_limit_log: Option<LogMegabytes>,
    /// Optional stabilizing-predictions early stop `(window, tolerance)`.
    pub stabilization: Option<(usize, f64)>,
    /// Optional stabilizing-hyperparameters early stop
    /// `(consecutive quiet steps, relative tolerance)` on the cost model's
    /// hyperparameter vector.
    pub hyperparam_stabilization: Option<(usize, f64)>,
    /// Absorb newly acquired samples by `O(n²)` bordered-Cholesky updates
    /// ([`al_gp::GpModel::augment`]) between hyperparameter re-optimizations,
    /// instead of full refits. A full refit there is no `O(n³)`
    /// refactorization either: [`al_gp::GpModel::fit`] grows the held
    /// exact factor by one `O(n²)` border step per new row and then solves
    /// in `O(n²)`, so the two paths cost about the same. Augments keep the
    /// centering offset frozen, so the results agree only up to rounding
    /// (near-tie greedy picks may reorder). Off by default — full refits
    /// are the paper-faithful reference path.
    pub incremental: bool,
    /// Seed for the strategy's random draws.
    pub seed: u64,
}

impl Default for AlOptions {
    fn default() -> Self {
        AlOptions {
            kernel: KernelKind::Rbf,
            init_length_scale: 0.3,
            noise_variance: 1e-3,
            initial_fit: FitOptions::default(),
            refit: FitOptions::warm_start_only(),
            optimize_every: 10,
            max_iterations: None,
            batch_size: 1,
            mem_limit_log: None,
            stabilization: None,
            hyperparam_stabilization: None,
            incremental: false,
            seed: 0,
        }
    }
}

/// Run one AL trajectory of `kind` over the given partition (Algorithm 1).
///
/// Both GP models are fit on the Initial partition with full hyperparameter
/// optimization, then AL repeatedly: predicts all remaining Active
/// candidates, asks the strategy for one, acquires its responses, retrains,
/// and records cost/regret/RMSE metrics.
///
/// The loop itself is [`SessionState::step`]; this driver answers each
/// [`Decision::Query`] with a dataset lookup until the session stops.
pub fn run_trajectory(
    dataset: &Dataset,
    partition: &Partition,
    kind: StrategyKind,
    opts: &AlOptions,
) -> Result<Trajectory, GpError> {
    let config = SessionConfig::from_partition(dataset, partition, kind, opts);
    let (mut state, mut decision) = SessionState::start(config)?;
    while let Decision::Query(query) = decision {
        let obs = Observation::from_dataset(dataset, query.dataset_index);
        (state, decision) = state.step(&obs)?;
    }
    Ok(state.into_trajectory())
}

#[cfg(test)]
pub(crate) mod test_util {
    use al_amr_sim::SimulationConfig;
    use al_dataset::{Dataset, Sample};

    /// Deterministic synthetic dataset with smooth, learnable responses:
    /// cost grows multiplicatively in `maxlevel`/`mx`, memory in
    /// `mx`/`maxlevel` divided by `p` — the same qualitative shape as the
    /// AMR data, but cheap to build in tests.
    pub(crate) fn synth_dataset(n: usize) -> Dataset {
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
}

#[cfg(test)]
mod tests {
    use super::test_util::synth_dataset;
    use super::*;
    use crate::stopping::StopReason;
    use al_linalg::stats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    #[test]
    fn rand_uniform_exhausts_the_active_pool() {
        let d = synth_dataset(48);
        let p = partition(&d, 4, 1);
        let t = run_trajectory(&d, &p, StrategyKind::RandUniform, &fast_opts()).unwrap();
        assert_eq!(t.stop_reason, StopReason::ActiveExhausted);
        assert_eq!(t.len(), p.active.len());
        assert_eq!(t.strategy, "RandUniform");
        assert_eq!(t.n_init, 4);
        // Cumulative cost is strictly increasing.
        for w in t.records.windows(2) {
            assert!(w[1].cumulative_cost > w[0].cumulative_cost);
        }
        // Every active sample selected exactly once.
        let mut seen: Vec<usize> = t.records.iter().map(|r| r.dataset_index).collect();
        seen.sort_unstable();
        let mut expected = p.active.clone();
        expected.sort_unstable();
        assert_eq!(seen, expected);
    }

    #[test]
    fn learning_reduces_cost_rmse() {
        let d = synth_dataset(60);
        let p = partition(&d, 4, 2);
        let t = run_trajectory(&d, &p, StrategyKind::MaxSigma, &fast_opts()).unwrap();
        let final_rmse = t.records.last().unwrap().rmse_cost;
        assert!(
            final_rmse < t.initial_rmse_cost,
            "final {final_rmse} vs initial {}",
            t.initial_rmse_cost
        );
    }

    #[test]
    fn min_pred_selects_cheap_experiments_first() {
        let d = synth_dataset(60);
        let p = partition(&d, 6, 3);
        let t = run_trajectory(&d, &p, StrategyKind::MinPred, &fast_opts()).unwrap();
        let first_costs = t.selected_costs(15);
        let pool_costs = d.raw_cost(&p.active);
        assert!(
            stats::median(&first_costs) < stats::median(&pool_costs) / 2.0,
            "MinPred median {} vs pool median {}",
            stats::median(&first_costs),
            stats::median(&pool_costs)
        );
    }

    #[test]
    fn max_iterations_caps_the_run() {
        let d = synth_dataset(48);
        let p = partition(&d, 4, 4);
        let opts = AlOptions {
            max_iterations: Some(5),
            ..fast_opts()
        };
        let t = run_trajectory(&d, &p, StrategyKind::RandUniform, &opts).unwrap();
        assert_eq!(t.len(), 5);
        assert_eq!(t.stop_reason, StopReason::MaxIterations);
    }

    #[test]
    fn rgma_avoids_memory_violations() {
        let d = synth_dataset(72);
        let p = partition(&d, 12, 5);
        let limit_log = d.memory_limit_log(0.7);
        let opts = AlOptions {
            mem_limit_log: Some(limit_log),
            ..fast_opts()
        };
        let rgma = run_trajectory(&d, &p, StrategyKind::Rgma { base: 10.0 }, &opts).unwrap();
        let uniform = run_trajectory(&d, &p, StrategyKind::RandUniform, &opts).unwrap();
        assert!(
            rgma.total_regret() < uniform.total_regret(),
            "RGMA regret {} vs uniform {}",
            rgma.total_regret(),
            uniform.total_regret(),
        );
        assert!(rgma.violations() < uniform.violations());
    }

    #[test]
    fn regret_accounting_matches_limit() {
        let d = synth_dataset(48);
        let p = partition(&d, 4, 6);
        let limit_log = d.memory_limit_log(0.8);
        let limit_raw = limit_log.to_megabytes();
        let opts = AlOptions {
            mem_limit_log: Some(limit_log),
            ..fast_opts()
        };
        let t = run_trajectory(&d, &p, StrategyKind::RandUniform, &opts).unwrap();
        for r in &t.records {
            if r.memory >= limit_raw {
                assert!((r.regret - r.cost).value().abs() < 1e-12);
            } else {
                assert_eq!(r.regret.value(), 0.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "mem_limit_log")]
    fn rgma_without_limit_is_rejected() {
        let d = synth_dataset(24);
        let p = partition(&d, 2, 7);
        let _ = run_trajectory(&d, &p, StrategyKind::Rgma { base: 10.0 }, &fast_opts());
    }

    #[test]
    #[should_panic(expected = "optimize_every")]
    fn zero_optimize_every_is_rejected() {
        // Rejected up front: a round close would otherwise divide by zero
        // mid-session.
        let d = synth_dataset(24);
        let p = partition(&d, 2, 7);
        let opts = AlOptions {
            optimize_every: 0,
            ..fast_opts()
        };
        let _ = run_trajectory(&d, &p, StrategyKind::RandUniform, &opts);
    }

    #[test]
    fn stabilization_stops_early() {
        let d = synth_dataset(60);
        let p = partition(&d, 10, 8);
        let opts = AlOptions {
            stabilization: Some((3, 10.0)), // huge tolerance: fires ASAP
            ..fast_opts()
        };
        let t = run_trajectory(&d, &p, StrategyKind::RandUniform, &opts).unwrap();
        assert_eq!(t.stop_reason, StopReason::PredictionsStabilized);
        assert!(t.len() <= 5);
    }

    #[test]
    fn batched_selection_exhausts_pool_with_fewer_rounds() {
        let d = synth_dataset(48);
        let p = partition(&d, 4, 11);
        let opts = AlOptions {
            batch_size: 4,
            ..fast_opts()
        };
        let t = run_trajectory(&d, &p, StrategyKind::RandUniform, &opts).unwrap();
        assert_eq!(t.len(), p.active.len(), "whole pool still consumed");
        assert_eq!(t.stop_reason, StopReason::ActiveExhausted);
        // Iterations are consecutively numbered across batches.
        for (i, r) in t.records.iter().enumerate() {
            assert_eq!(r.iteration, i);
        }
        // Each batch of 4 shares one RMSE value.
        for chunk in t.records.chunks(4) {
            assert!(chunk.iter().all(|r| r.rmse_cost == chunk[0].rmse_cost));
        }
        // No sample selected twice.
        let mut seen: Vec<usize> = t.records.iter().map(|r| r.dataset_index).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), t.len());
    }

    #[test]
    fn batch_size_one_matches_legacy_behaviour() {
        let d = synth_dataset(36);
        let p = partition(&d, 3, 12);
        let a = run_trajectory(
            &d,
            &p,
            StrategyKind::RandGoodness { base: 10.0 },
            &fast_opts(),
        )
        .unwrap();
        let b = run_trajectory(
            &d,
            &p,
            StrategyKind::RandGoodness { base: 10.0 },
            &AlOptions {
                batch_size: 1,
                ..fast_opts()
            },
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn batched_max_iterations_respected_mid_batch() {
        let d = synth_dataset(48);
        let p = partition(&d, 4, 13);
        let opts = AlOptions {
            batch_size: 4,
            max_iterations: Some(6), // not a multiple of the batch size
            ..fast_opts()
        };
        let t = run_trajectory(&d, &p, StrategyKind::MinPred, &opts).unwrap();
        assert_eq!(t.len(), 6);
        assert_eq!(t.stop_reason, StopReason::MaxIterations);
    }

    #[test]
    fn incremental_updates_match_full_refits() {
        let d = synth_dataset(48);
        let p = partition(&d, 6, 21);
        let base = AlOptions {
            max_iterations: Some(20),
            ..fast_opts()
        };
        let inc = run_trajectory(
            &d,
            &p,
            StrategyKind::MinPred,
            &AlOptions {
                incremental: true,
                ..base.clone()
            },
        )
        .unwrap();
        let full = run_trajectory(
            &d,
            &p,
            StrategyKind::MinPred,
            &AlOptions {
                incremental: false,
                ..base
            },
        )
        .unwrap();
        // The paths are numerically equivalent up to rounding, which can
        // legitimately reorder near-tie greedy picks — compare the
        // selected *set* and the final model quality, not the order.
        let picks = |t: &Trajectory| -> Vec<usize> {
            let mut v: Vec<usize> = t.records.iter().map(|r| r.dataset_index).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(picks(&inc), picks(&full));
        let final_rmse = |t: &Trajectory| t.records.last().unwrap().rmse_cost;
        let (ri, rf) = (final_rmse(&inc), final_rmse(&full));
        assert!(
            (ri - rf).abs() < 0.05 * (ri + rf),
            "final RMSE diverged: {ri} vs {rf}"
        );
        assert!((inc.total_cost() - full.total_cost()).value().abs() < 1e-9);
    }

    #[test]
    fn hyperparam_stabilization_stops_early() {
        let d = synth_dataset(60);
        let p = partition(&d, 10, 12);
        let opts = AlOptions {
            // Between optimize_every refits the hyperparameters are frozen,
            // so a loose detector fires quickly.
            hyperparam_stabilization: Some((2, 1.0)),
            ..fast_opts()
        };
        let t = run_trajectory(&d, &p, StrategyKind::RandUniform, &opts).unwrap();
        assert_eq!(t.stop_reason, StopReason::HyperparamsStabilized);
        assert!(t.len() <= 4);
    }

    #[test]
    fn same_seed_reproduces_trajectory() {
        let d = synth_dataset(36);
        let p = partition(&d, 3, 9);
        let a = run_trajectory(
            &d,
            &p,
            StrategyKind::RandGoodness { base: 10.0 },
            &fast_opts(),
        )
        .unwrap();
        let b = run_trajectory(
            &d,
            &p,
            StrategyKind::RandGoodness { base: 10.0 },
            &fast_opts(),
        )
        .unwrap();
        assert_eq!(a, b);
    }
}
