//! End-to-end simulation runner: configuration → AMR run → machine-model
//! responses. This is the "one job on the supercomputer" primitive that
//! both the offline dataset generator and the online AL example call.

use crate::error::AmrError;
use crate::machine::{MachineModel, MachineOutcome};
use crate::shockbubble::SimulationConfig;
use crate::solver::{AmrSolver, SolverProfile, WorkStats};
use al_units::{Megabytes, NodeHours, Seconds};

/// Everything a completed "job" reports back (the paper collected the
/// analogous records from FORESTCLAW output and SLURM accounting). The
/// three responses carry their units in the type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationOutcome {
    /// The configuration that ran.
    pub config: SimulationConfig,
    /// Wall-clock time (response 1 of Table I).
    pub wall_seconds: Seconds,
    /// Cost in node-hours (response 2).
    pub cost_node_hours: NodeHours,
    /// MaxRSS per process (response 3).
    pub memory_mb: Megabytes,
    /// Raw work counters, for diagnostics and the benchmarks.
    pub work: WorkStats,
}

/// Run one AMR simulation of `config` under `profile` and translate its
/// measured work through `machine`. `repeat` selects the measurement-noise
/// realization: the same `(config, repeat)` pair always reproduces the
/// same responses, while different repeats model run-to-run variability.
///
/// `profile.n_threads` controls within-level sweep parallelism for this
/// run (0 = all cores). It changes only the host wall-clock of the run
/// itself — the counted work in [`WorkStats`], and therefore every
/// machine-model response, is bitwise identical for any thread count, so
/// callers may thread runs however they like without perturbing the
/// dataset. The batch runner keeps the default of 1 and parallelizes
/// across runs instead.
///
/// A run that stops short of `t_final` (step cap, collapsed dt) returns
/// [`AmrError::Truncated`] instead of an outcome: a partial burst priced
/// as a completed job would silently corrupt the dataset's cost surface.
///
/// # Examples
///
/// ```
/// use al_amr_sim::{run_simulation, MachineModel, SimulationConfig, SolverProfile};
///
/// let config = SimulationConfig { p: 8, mx: 8, maxlevel: 3, r0: 0.3, rhoin: 0.1 };
/// let outcome = run_simulation(&config, SolverProfile::smoke(), &MachineModel::default(), 0)
///     .expect("simulation");
/// assert!(outcome.cost_node_hours.value() > 0.0);
/// assert!(outcome.memory_mb.value() > 0.0);
/// // Cost is exactly wall-clock × nodes (in hours).
/// let expected = outcome.wall_seconds.node_hours(8.0);
/// assert!((outcome.cost_node_hours - expected).value().abs() < 1e-12);
/// ```
pub fn run_simulation(
    config: &SimulationConfig,
    profile: SolverProfile,
    machine: &MachineModel,
    repeat: u32,
) -> Result<SimulationOutcome, AmrError> {
    let mut solver = AmrSolver::new(config, profile);
    let work = solver.run()?;
    if let Some(reason) = work.truncation {
        return Err(AmrError::Truncated {
            reason,
            steps: work.steps,
        });
    }
    let seed = config
        .stable_hash()
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(repeat as u64);
    let MachineOutcome {
        wall_seconds,
        cost_node_hours,
        memory_mb,
    } = machine.evaluate(&work, config.p, seed);
    Ok(SimulationOutcome {
        config: *config,
        wall_seconds,
        cost_node_hours,
        memory_mb,
        work,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SimulationConfig {
        SimulationConfig {
            p: 8,
            mx: 8,
            maxlevel: 3,
            r0: 0.3,
            rhoin: 0.1,
        }
    }

    #[test]
    fn outcome_is_deterministic_per_repeat() {
        let m = MachineModel::default();
        let a = run_simulation(&config(), SolverProfile::smoke(), &m, 0).unwrap();
        let b = run_simulation(&config(), SolverProfile::smoke(), &m, 0).unwrap();
        assert_eq!(a, b);
        let c = run_simulation(&config(), SolverProfile::smoke(), &m, 1).unwrap();
        assert_ne!(a.cost_node_hours, c.cost_node_hours, "repeats differ");
        // But the underlying work is identical — only the noise changes.
        assert_eq!(a.work, c.work);
    }

    #[test]
    fn outcome_is_independent_of_thread_count() {
        let m = MachineModel::default();
        let serial = run_simulation(&config(), SolverProfile::smoke(), &m, 0).unwrap();
        for n_threads in [2, 4] {
            let profile = SolverProfile {
                n_threads,
                ..SolverProfile::smoke()
            };
            let threaded = run_simulation(&config(), profile, &m, 0).unwrap();
            // Bitwise: counted work and every machine-model response are
            // reduced in patch order regardless of host threading.
            assert_eq!(serial.work, threaded.work);
            assert_eq!(serial.wall_seconds, threaded.wall_seconds);
            assert_eq!(serial.cost_node_hours, threaded.cost_node_hours);
            assert_eq!(serial.memory_mb, threaded.memory_mb);
        }
    }

    #[test]
    fn responses_are_positive_and_consistent() {
        let m = MachineModel::default();
        let o = run_simulation(&config(), SolverProfile::smoke(), &m, 0).unwrap();
        assert!(o.wall_seconds.value() > 0.0);
        assert!(o.memory_mb.value() > 0.0);
        let expected = o.wall_seconds.node_hours(o.config.p as f64);
        assert!((o.cost_node_hours - expected).value().abs() < 1e-12);
    }

    #[test]
    fn truncated_run_is_an_error_not_an_outcome() {
        let m = MachineModel::default();
        // A horizon far beyond what two steps can cover forces the cap.
        let profile = SolverProfile {
            t_final: 0.05,
            max_steps: 2,
            ..SolverProfile::smoke()
        };
        let err = run_simulation(&config(), profile, &m, 0).unwrap_err();
        match err {
            AmrError::Truncated { reason, steps } => {
                assert_eq!(reason, crate::solver::TruncationReason::MaxSteps);
                assert_eq!(steps, 2);
            }
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn deeper_refinement_is_more_expensive() {
        let m = MachineModel::default();
        let shallow = run_simulation(&config(), SolverProfile::smoke(), &m, 0).unwrap();
        let deep = run_simulation(
            &SimulationConfig {
                maxlevel: 5,
                ..config()
            },
            SolverProfile::smoke(),
            &m,
            0,
        )
        .unwrap();
        assert!(deep.cost_node_hours > shallow.cost_node_hours * 3.0);
        assert!(deep.memory_mb > shallow.memory_mb);
    }
}
