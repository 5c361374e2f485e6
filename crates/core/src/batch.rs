//! Batch-mode AL: run every strategy on many random partitions in
//! parallel, so comparisons are paired (same partitions for all
//! strategies) and statistics are independent of any single shuffle —
//! the role of the paper's `multiprocessing` outer loop.
//!
//! The fan-out is [`WorkerPool::map_jobs`]: job `k` is strategy
//! `k / n_trajectories` on partition `k % n_trajectories`, each
//! trajectory's RNG is seeded from `base_seed + t` alone, and the results
//! come back in job order, so thread scheduling can never reach the
//! numbers.

use crate::procedure::{run_trajectory, AlOptions};
use crate::strategy::StrategyKind;
use crate::trajectory::Trajectory;
use al_dataset::{Dataset, Partition};
use al_gp::GpError;
use al_parallel::WorkerPool;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What to run: the cross product of strategies × random partitions.
#[derive(Debug, Clone)]
pub struct BatchSpec {
    /// Strategies to compare.
    pub strategies: Vec<StrategyKind>,
    /// Initial-partition size (the paper's `n_init ∈ {1, 50, 100}`).
    pub n_init: usize,
    /// Test-partition size (the paper reserves 200 of 600).
    pub n_test: usize,
    /// Number of random partitions (trajectories) per strategy.
    pub n_trajectories: usize,
    /// Base seed; trajectory `t` uses partition seed `base_seed + t`, so
    /// all strategies see the same partitions (paired comparison).
    pub base_seed: u64,
    /// Worker threads (0 = one per available core).
    pub n_threads: usize,
}

/// Run the batch; returns, per strategy, its trajectories in partition
/// order, or the first error in job order. Results are deterministic
/// regardless of thread count.
pub fn run_batch(
    dataset: &Dataset,
    spec: &BatchSpec,
    opts: &AlOptions,
) -> Result<Vec<(StrategyKind, Vec<Trajectory>)>, GpError> {
    let n_traj = spec.n_trajectories;
    let results = WorkerPool::new(spec.n_threads).map_jobs(spec.strategies.len() * n_traj, |k| {
        let (s, t) = (k / n_traj, k % n_traj);
        let mut prng = StdRng::seed_from_u64(spec.base_seed.wrapping_add(t as u64));
        let partition = Partition::random(dataset.len(), spec.n_init, spec.n_test, &mut prng);
        // Strategy randomness differs per (strategy, trajectory).
        let traj_opts = AlOptions {
            seed: spec
                .base_seed
                .wrapping_add((t as u64) << 8)
                .wrapping_add(s as u64),
            ..opts.clone()
        };
        run_trajectory(dataset, &partition, spec.strategies[s], &traj_opts)
    });
    let mut results = results.into_iter();
    spec.strategies
        .iter()
        .map(|&kind| {
            let trajectories: Result<Vec<Trajectory>, GpError> =
                results.by_ref().take(n_traj).collect();
            Ok((kind, trajectories?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procedure::test_util::synth_dataset;
    use al_gp::FitOptions;

    fn fast_opts() -> AlOptions {
        AlOptions {
            initial_fit: FitOptions {
                n_restarts: 0,
                max_iters: 15,
                ..FitOptions::default()
            },
            refit: FitOptions {
                n_restarts: 0,
                max_iters: 5,
                ..FitOptions::default()
            },
            optimize_every: 10,
            max_iterations: Some(8),
            mem_limit_log: Some(al_units::LogMegabytes::new(1.0)),
            ..AlOptions::default()
        }
    }

    #[test]
    fn batch_runs_all_strategy_trajectory_pairs() {
        let d = synth_dataset(40);
        let spec = BatchSpec {
            strategies: vec![StrategyKind::RandUniform, StrategyKind::MinPred],
            n_init: 3,
            n_test: 12,
            n_trajectories: 3,
            base_seed: 5,
            n_threads: 2,
        };
        let out = run_batch(&d, &spec, &fast_opts()).unwrap();
        assert_eq!(out.len(), 2);
        for (kind, trajectories) in &out {
            assert_eq!(trajectories.len(), 3);
            for t in trajectories {
                assert_eq!(t.strategy, kind.label());
                assert_eq!(t.n_init, 3);
            }
        }
    }

    #[test]
    fn batch_is_deterministic_across_thread_counts() {
        let d = synth_dataset(36);
        let mk_spec = |n_threads| BatchSpec {
            strategies: vec![StrategyKind::RandGoodness { base: 10.0 }],
            n_init: 2,
            n_test: 10,
            n_trajectories: 2,
            base_seed: 9,
            n_threads,
        };
        let a = run_batch(&d, &mk_spec(1), &fast_opts()).unwrap();
        let b = run_batch(&d, &mk_spec(4), &fast_opts()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn strategies_share_partitions_for_paired_comparison() {
        let d = synth_dataset(36);
        let spec = BatchSpec {
            strategies: vec![StrategyKind::RandUniform, StrategyKind::MaxSigma],
            n_init: 2,
            n_test: 10,
            n_trajectories: 2,
            base_seed: 3,
            n_threads: 2,
        };
        let out = run_batch(&d, &spec, &fast_opts()).unwrap();
        // Same partition ⇒ same initial RMSE for deterministic initial fit.
        for t in 0..2 {
            assert_eq!(
                out[0].1[t].initial_rmse_cost, out[1].1[t].initial_rmse_cost,
                "trajectory {t} partitions must match across strategies"
            );
        }
        // Different partitions across trajectories.
        assert_ne!(out[0].1[0].initial_rmse_cost, out[0].1[1].initial_rmse_cost);
    }

    #[test]
    fn empty_spec_yields_empty_results() {
        let d = synth_dataset(24);
        let spec = BatchSpec {
            strategies: vec![],
            n_init: 2,
            n_test: 8,
            n_trajectories: 0,
            base_seed: 0,
            n_threads: 1,
        };
        assert!(run_batch(&d, &spec, &fast_opts()).unwrap().is_empty());
    }
}
