//! The sweep grid: all 1920 feature combinations the paper sampled from,
//! and the stratified draw of the 600-sample dataset.

use al_amr_sim::SimulationConfig;
use al_linalg::rng::weighted_index;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// Sampled values per feature. The cross product has
/// `4 · 4 · 4 · 5 · 6 = 1920` combinations, matching the paper's total.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// Node counts.
    pub p: Vec<u32>,
    /// Patch sizes.
    pub mx: Vec<usize>,
    /// Maximum refinement levels.
    pub maxlevel: Vec<u8>,
    /// Bubble sizes.
    pub r0: Vec<f64>,
    /// Bubble densities.
    pub rhoin: Vec<f64>,
}

impl Default for SweepGrid {
    fn default() -> Self {
        SweepGrid {
            p: vec![4, 8, 16, 32],
            mx: vec![8, 16, 24, 32],
            maxlevel: vec![3, 4, 5, 6],
            r0: vec![0.2, 0.275, 0.35, 0.425, 0.5],
            rhoin: vec![0.02, 0.05, 0.1, 0.2, 0.35, 0.5],
        }
    }
}

impl SweepGrid {
    /// A reduced grid (`2·2·2·2·2 = 32` combos) for tests and smoke runs.
    pub fn small() -> Self {
        SweepGrid {
            p: vec![4, 16],
            mx: vec![8, 16],
            maxlevel: vec![3, 4],
            r0: vec![0.2, 0.4],
            rhoin: vec![0.05, 0.3],
        }
    }

    /// Total number of combinations.
    pub fn n_combinations(&self) -> usize {
        self.p.len() * self.mx.len() * self.maxlevel.len() * self.r0.len() * self.rhoin.len()
    }

    /// Enumerate every configuration in deterministic order.
    pub fn all_configs(&self) -> Vec<SimulationConfig> {
        let mut out = Vec::with_capacity(self.n_combinations());
        for &p in &self.p {
            for &mx in &self.mx {
                for &maxlevel in &self.maxlevel {
                    for &r0 in &self.r0 {
                        for &rhoin in &self.rhoin {
                            out.push(SimulationConfig {
                                p,
                                mx,
                                maxlevel,
                                r0,
                                rhoin,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Relative selection weight of a configuration; the most expensive
    /// corner (`maxlevel` and `mx` high) is thinned, mirroring the paper's
    /// "more sparsely sampling the expensive parameter regimes" so the
    /// dataset's cost distribution is not dominated by huge jobs.
    pub fn selection_weight(&self, config: &SimulationConfig) -> f64 {
        let ml_rank = self
            .maxlevel
            .iter()
            .position(|&v| v == config.maxlevel)
            .unwrap_or(0) as f64
            / (self.maxlevel.len().max(2) - 1) as f64;
        let mx_rank = self.mx.iter().position(|&v| v == config.mx).unwrap_or(0) as f64
            / (self.mx.len().max(2) - 1) as f64;
        // Weight decays from 1.0 for the cheapest corner to ~0.2 for the
        // most expensive one.
        (1.0 - 0.55 * ml_rank) * (1.0 - 0.45 * mx_rank)
    }

    /// Draw the dataset's job list: `n_unique` distinct configurations by
    /// weighted sampling without replacement, plus `n_repeats` repeated
    /// measurements of randomly chosen selected configurations (the paper:
    /// 525 + 75 = 600). Returns `(config, repeat_index)` pairs; repeats get
    /// indices 1, 2, ... so their machine noise differs.
    pub fn draw_jobs(
        &self,
        n_unique: usize,
        n_repeats: usize,
        seed: u64,
    ) -> Vec<(SimulationConfig, u32)> {
        let all = self.all_configs();
        assert!(
            n_unique <= all.len(),
            "cannot draw {n_unique} unique configs from {}",
            all.len()
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut weights: Vec<f64> = all.iter().map(|c| self.selection_weight(c)).collect();
        let mut chosen: Vec<usize> = Vec::with_capacity(n_unique);
        for _ in 0..n_unique {
            // `weighted_index` returns None only when every remaining
            // weight is zero (a degenerate selection_weight). Fall back to
            // the first not-yet-chosen config so the draw still completes
            // with `n_unique` distinct configurations.
            let idx = weighted_index(&mut rng, &weights)
                .or_else(|| (0..all.len()).find(|i| !chosen.contains(i)))
                .unwrap_or(0);
            chosen.push(idx);
            weights[idx] = 0.0; // without replacement
        }
        let mut jobs: Vec<(SimulationConfig, u32)> =
            chosen.iter().map(|&i| (all[i], 0u32)).collect();

        // Repeats: pick among the chosen configs; track per-config counts
        // so a config measured three times gets repeat indices 0, 1, 2.
        let mut repeat_count = vec![0u32; chosen.len()];
        for _ in 0..n_repeats {
            let k = rng.random_range(0..chosen.len());
            repeat_count[k] += 1;
            jobs.push((all[chosen[k]], repeat_count[k]));
        }
        jobs
    }
}

/// Convenience for tests: a deterministic uniform random draw of `n`
/// configurations (with replacement) from the grid.
pub fn random_configs<R: Rng + ?Sized>(
    grid: &SweepGrid,
    n: usize,
    rng: &mut R,
) -> Vec<SimulationConfig> {
    (0..n)
        .map(|_| SimulationConfig {
            p: grid.p[rng.random_range(0..grid.p.len())],
            mx: grid.mx[rng.random_range(0..grid.mx.len())],
            maxlevel: grid.maxlevel[rng.random_range(0..grid.maxlevel.len())],
            r0: grid.r0[rng.random_range(0..grid.r0.len())],
            rhoin: grid.rhoin[rng.random_range(0..grid.rhoin.len())],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_matches_paper_combination_count() {
        assert_eq!(SweepGrid::default().n_combinations(), 1920);
        assert_eq!(SweepGrid::default().all_configs().len(), 1920);
    }

    #[test]
    fn every_grid_config_is_admitted_by_the_solver() {
        // `run_simulation` checks each job first; a grid point it refused
        // would drop a dataset row.
        for grid in [SweepGrid::default(), SweepGrid::small()] {
            for config in grid.all_configs() {
                assert_eq!(config.check(), Ok(()), "{config:?}");
            }
        }
    }

    #[test]
    fn grid_covers_table_one_ranges() {
        let g = SweepGrid::default();
        assert_eq!(*g.p.first().unwrap(), 4);
        assert_eq!(*g.p.last().unwrap(), 32);
        assert_eq!(*g.mx.first().unwrap(), 8);
        assert_eq!(*g.mx.last().unwrap(), 32);
        assert_eq!(*g.maxlevel.first().unwrap(), 3);
        assert_eq!(*g.maxlevel.last().unwrap(), 6);
        assert_eq!(*g.r0.first().unwrap(), 0.2);
        assert_eq!(*g.r0.last().unwrap(), 0.5);
        assert_eq!(*g.rhoin.first().unwrap(), 0.02);
        assert_eq!(*g.rhoin.last().unwrap(), 0.5);
    }

    #[test]
    fn weights_thin_the_expensive_corner() {
        let g = SweepGrid::default();
        let cheap = SimulationConfig {
            p: 4,
            mx: 8,
            maxlevel: 3,
            r0: 0.2,
            rhoin: 0.02,
        };
        let dear = SimulationConfig {
            p: 4,
            mx: 32,
            maxlevel: 6,
            r0: 0.2,
            rhoin: 0.02,
        };
        assert!(g.selection_weight(&cheap) > 2.0 * g.selection_weight(&dear));
        assert!(g.selection_weight(&dear) > 0.0);
    }

    #[test]
    fn draw_jobs_counts_and_uniqueness() {
        let g = SweepGrid::default();
        let jobs = g.draw_jobs(525, 75, 7);
        assert_eq!(jobs.len(), 600);
        // The first 525 are unique configurations at repeat index 0.
        let uniques = &jobs[..525];
        assert!(uniques.iter().all(|(_, r)| *r == 0));
        for a in 0..525 {
            for b in (a + 1)..525 {
                assert_ne!(uniques[a].0, uniques[b].0, "duplicate unique config");
            }
        }
        // Repeats reference selected configs with indices >= 1.
        for (cfg, r) in &jobs[525..] {
            assert!(*r >= 1);
            assert!(uniques.iter().any(|(u, _)| u == cfg));
        }
    }

    #[test]
    fn draw_jobs_is_deterministic_per_seed() {
        let g = SweepGrid::small();
        assert_eq!(g.draw_jobs(10, 3, 1), g.draw_jobs(10, 3, 1));
        assert_ne!(g.draw_jobs(10, 3, 1), g.draw_jobs(10, 3, 2));
    }

    #[test]
    #[should_panic(expected = "cannot draw")]
    fn draw_jobs_rejects_oversized_unique_count() {
        SweepGrid::small().draw_jobs(100, 0, 1);
    }

    #[test]
    fn draw_thins_expensive_configs_in_aggregate() {
        let g = SweepGrid::default();
        let jobs = g.draw_jobs(525, 0, 11);
        let expensive = jobs
            .iter()
            .filter(|(c, _)| c.maxlevel == 6 && c.mx == 32)
            .count();
        let cheap = jobs
            .iter()
            .filter(|(c, _)| c.maxlevel == 3 && c.mx == 8)
            .count();
        assert!(
            cheap > expensive,
            "cheap corner {cheap} should outnumber expensive corner {expensive}"
        );
    }

    #[test]
    fn random_configs_stay_on_grid() {
        let g = SweepGrid::small();
        let mut rng = StdRng::seed_from_u64(3);
        for c in random_configs(&g, 50, &mut rng) {
            assert!(g.p.contains(&c.p));
            assert!(g.mx.contains(&c.mx));
            assert!(g.maxlevel.contains(&c.maxlevel));
            assert!(g.r0.contains(&c.r0));
            assert!(g.rhoin.contains(&c.rhoin));
        }
    }
}
