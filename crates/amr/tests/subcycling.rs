//! Berger–Oliger subcycling validation: discrete conservation with
//! refluxing, exact parity with the level-synchronous stepper on a
//! uniform forest, and the work reduction that motivates the mode.

// Integration tests run outside #[cfg(test)], so the in-tests carve-outs
// from clippy.toml don't reach them; tests may panic, compare exact copied
// floats, and index loops for readability.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp,
    clippy::needless_range_loop
)]

use al_amr_sim::euler::{conservative, State};
use al_amr_sim::problem::Problem;
use al_amr_sim::tree::{Bc, Forest};
use al_amr_sim::{AmrSolver, SimulationConfig, SolverProfile, TimeStepping};

/// A smooth pressure bump at the domain centre: outgoing acoustic waves
/// that never reach the boundary within the test horizon, so total mass
/// and energy are exactly conserved by the interior scheme + refluxing.
struct PressureBump;

impl Problem for PressureBump {
    fn name(&self) -> &'static str {
        "pressure-bump"
    }

    fn initial_state(&self, x: f64, y: f64) -> State {
        let dx = x - 0.5;
        let dy = y - 0.5;
        let r2 = (dx * dx + dy * dy) / (0.08 * 0.08);
        let p = 1.0 + 3.0 * (-r2).exp();
        let rho = 1.0 + 0.5 * (-r2).exp();
        conservative(rho, 0.0, 0.0, p)
    }

    fn boundary_conditions(&self) -> Bc {
        Bc::all_extrapolate()
    }
}

/// Total (mass, energy) over the forest: Σ q · h².
fn totals(forest: &Forest) -> (f64, f64) {
    let mut mass = 0.0;
    let mut energy = 0.0;
    for (_, patch) in forest.iter() {
        let vol = patch.h() * patch.h();
        for cy in 0..patch.mx() {
            for cx in 0..patch.mx() {
                let q = patch.interior(cx, cy);
                mass += q[0] * vol;
                energy += q[3] * vol;
            }
        }
    }
    (mass, energy)
}

#[test]
fn subcycled_refluxing_conserves_mass_and_energy() {
    let profile = SolverProfile {
        t_final: 0.02,
        minlevel: 1,
        // No regrid during the run: this isolates the conservation
        // property of sweeps + subcycled refluxing from interpolation
        // done by refinement/coarsening.
        regrid_interval: 1_000_000,
        time_stepping: TimeStepping::Subcycled,
        ..SolverProfile::smoke()
    };
    let mut solver = AmrSolver::with_problem(&PressureBump, 8, 4, profile);
    let forest = solver.forest();
    assert!(
        forest.finest_level() > forest.coarsest_level(),
        "test needs genuine coarse–fine interfaces: levels {}..{}",
        forest.coarsest_level(),
        forest.finest_level()
    );
    let (mass0, energy0) = totals(solver.forest());

    let stats = solver.run().expect("run");
    assert!(stats.truncation.is_none(), "run truncated: {stats:?}");
    assert!(stats.reflux_faces > 0, "refluxing never engaged");

    let (mass1, energy1) = totals(solver.forest());
    let mass_err = ((mass1 - mass0) / mass0).abs();
    let energy_err = ((energy1 - energy0) / energy0).abs();
    assert!(mass_err <= 1e-10, "relative mass drift {mass_err:e}");
    assert!(energy_err <= 1e-10, "relative energy drift {energy_err:e}");
}

#[test]
fn subcycled_matches_synchronous_on_uniform_forest() {
    // minlevel == maxlevel forces a single-level forest, where the two
    // modes must execute the same sweep sequence with the same dt.
    let base = SolverProfile {
        t_final: 0.01,
        minlevel: 2,
        ..SolverProfile::smoke()
    };
    let run = |mode: TimeStepping| {
        let profile = SolverProfile {
            time_stepping: mode,
            ..base
        };
        let mut solver = AmrSolver::with_problem(&PressureBump, 8, 2, profile);
        let stats = solver.run().expect("run");
        (solver, stats)
    };
    let (sync, sync_stats) = run(TimeStepping::LevelSynchronous);
    let (sub, sub_stats) = run(TimeStepping::Subcycled);

    assert_eq!(sync_stats.steps, sub_stats.steps);
    assert_eq!(sync_stats.level_steps, sub_stats.level_steps);
    assert_eq!(sync_stats.cell_updates, sub_stats.cell_updates);

    let keys: Vec<_> = sync.forest().leaf_keys();
    assert_eq!(keys, sub.forest().leaf_keys());
    for key in keys {
        let a = sync.forest().get(key).unwrap();
        let b = sub.forest().get(key).unwrap();
        for cy in 0..a.mx() {
            for cx in 0..a.mx() {
                let qa = a.interior(cx, cy);
                let qb = b.interior(cx, cy);
                for k in 0..4 {
                    assert!(
                        (qa[k] - qb[k]).abs() <= 1e-13,
                        "state mismatch at {key:?} cell ({cx},{cy}) var {k}: {} vs {}",
                        qa[k],
                        qb[k]
                    );
                }
            }
        }
    }
}

#[test]
fn subcycling_cuts_cell_updates_on_multilevel_config() {
    // A paper()-style deep hierarchy: coarse levels dominate the area,
    // so per-level stepping should cut ≥25% of the directional updates
    // the lockstep mode spends advancing coarse patches at the fine dt.
    let config = SimulationConfig {
        p: 4,
        mx: 8,
        maxlevel: 5,
        r0: 0.25,
        rhoin: 0.1,
    };
    // Long enough for several unclamped coarse steps: savings amortize
    // over full subcycle hierarchies, not a single clamped step.
    let base = SolverProfile {
        t_final: 0.03,
        minlevel: 1,
        ..SolverProfile::smoke()
    };
    let run = |mode: TimeStepping| {
        let profile = SolverProfile {
            time_stepping: mode,
            ..base
        };
        let mut solver = AmrSolver::new(&config, profile);
        solver.run().expect("run")
    };
    let sync = run(TimeStepping::LevelSynchronous);
    let sub = run(TimeStepping::Subcycled);

    assert!(sync.truncation.is_none() && sub.truncation.is_none());
    assert!(sub.steps > 1, "need multiple coarse steps: {}", sub.steps);
    assert!(
        (sync.final_time - sub.final_time).abs() < 1e-12,
        "equal horizons"
    );
    assert!(
        (sub.cell_updates as f64) <= 0.75 * sync.cell_updates as f64,
        "subcycling must cut ≥25% of updates: {} vs {}",
        sub.cell_updates,
        sync.cell_updates
    );
    // Latency accounting moves the other way: more synchronization
    // rounds than coarse steps.
    assert!(sub.level_steps > sub.steps);
    assert_eq!(sync.level_steps, sync.steps);
}
