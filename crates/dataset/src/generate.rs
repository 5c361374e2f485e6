//! Parallel dataset generation: run one AMR simulation per job across a
//! pool of worker threads (the local stand-in for the paper's >1K SLURM
//! jobs on Edison).
//!
//! The fan-out is [`WorkerPool::map_jobs`], which returns results in job
//! order — the regenerated `data/dataset.csv` is byte-identical for any
//! `n_threads`.

use crate::sample::Sample;
use al_amr_sim::{run_simulation, AmrError, MachineModel, SimulationConfig, SolverProfile};
use al_parallel::WorkerPool;

/// Options for [`generate_parallel`].
#[derive(Debug, Clone, Copy)]
pub struct GenerateOptions {
    /// Solver accuracy/horizon profile.
    pub profile: SolverProfile,
    /// Machine model translating work into responses.
    pub machine: MachineModel,
    /// Worker threads (0 = one per available core).
    pub n_threads: usize,
}

impl Default for GenerateOptions {
    fn default() -> Self {
        GenerateOptions {
            profile: SolverProfile::paper(),
            machine: MachineModel::default(),
            n_threads: 0,
        }
    }
}

/// Run every `(config, repeat)` job and return samples in job order, or
/// the first [`AmrError`] in job order — including
/// [`AmrError::Truncated`] for a run that stopped short of its horizon,
/// so a partial burst can never be recorded as a completed measurement.
///
/// Workers claim jobs one at a time, so the expensive tail (deep
/// `maxlevel`, large `mx`) does not serialize behind one thread. Results
/// are deterministic regardless of thread count because each job's noise
/// seed depends only on `(config, repeat)`.
pub fn generate_parallel(
    jobs: &[(SimulationConfig, u32)],
    opts: &GenerateOptions,
) -> Result<Vec<Sample>, AmrError> {
    WorkerPool::new(opts.n_threads)
        .map_jobs(jobs.len(), |i| {
            let (config, repeat) = jobs[i];
            run_simulation(&config, opts.profile, &opts.machine, repeat).map(Sample::from)
        })
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::SweepGrid;

    fn smoke_opts(n_threads: usize) -> GenerateOptions {
        GenerateOptions {
            profile: SolverProfile::smoke(),
            machine: MachineModel::default(),
            n_threads,
        }
    }

    #[test]
    fn empty_job_list_yields_empty_dataset() {
        assert!(generate_parallel(&[], &smoke_opts(2)).unwrap().is_empty());
    }

    #[test]
    fn parallel_generation_matches_serial() {
        let jobs = SweepGrid::small().draw_jobs(6, 2, 3);
        let serial = generate_parallel(&jobs, &smoke_opts(1)).unwrap();
        let parallel = generate_parallel(&jobs, &smoke_opts(4)).unwrap();
        assert_eq!(serial.len(), 8);
        assert_eq!(serial, parallel, "thread count must not change results");
    }

    #[test]
    fn samples_align_with_jobs() {
        let jobs = SweepGrid::small().draw_jobs(4, 1, 9);
        let samples = generate_parallel(&jobs, &smoke_opts(2)).unwrap();
        for ((config, _), sample) in jobs.iter().zip(&samples) {
            assert_eq!(sample.config, *config);
            assert!(sample.cost_node_hours.value() > 0.0);
        }
    }

    #[test]
    fn truncated_simulation_fails_generation() {
        let jobs = SweepGrid::small().draw_jobs(3, 0, 7);
        // A horizon no two steps can reach turns every job into a
        // truncated burst, which must surface as an error rather than a
        // silently-short dataset.
        let opts = GenerateOptions {
            profile: SolverProfile {
                t_final: 1.0,
                max_steps: 2,
                ..SolverProfile::smoke()
            },
            ..smoke_opts(2)
        };
        let err = generate_parallel(&jobs, &opts).unwrap_err();
        assert!(
            matches!(err, AmrError::Truncated { .. }),
            "expected truncation error, got {err:?}"
        );
    }

    #[test]
    fn repeats_differ_only_by_noise() {
        let grid = SweepGrid::small();
        let config = grid.all_configs()[0];
        let jobs = vec![(config, 0u32), (config, 1u32)];
        let samples = generate_parallel(&jobs, &smoke_opts(2)).unwrap();
        assert_ne!(samples[0].cost_node_hours, samples[1].cost_node_hours);
        // Noise is small: within a factor of 2.
        let ratio = samples[0].cost_node_hours / samples[1].cost_node_hours;
        assert!(ratio > 0.5 && ratio < 2.0, "ratio {ratio}");
    }
}
