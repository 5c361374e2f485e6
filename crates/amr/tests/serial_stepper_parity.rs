//! Serial-replica oracle for the AMR stepper: the adaptive shock–bubble
//! run through [`AmrSolver`] must reproduce, bit for bit, a hand-driven
//! forest stepped with the same algorithm written out as plain loops.

// Integration tests run outside #[cfg(test)], so the in-tests carve-outs
// from clippy.toml don't reach them; tests may panic and compare exact
// copied floats.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use al_amr_sim::patch::SweepScratch;
use al_amr_sim::problem::{Problem, ShockBubbleProblem};
use al_amr_sim::solver::{CFL, COARSEN_THRESHOLD, REFINE_THRESHOLD};
use al_amr_sim::tree::Axis;
use al_amr_sim::{AmrSolver, SimulationConfig, SolverProfile, TimeStepping};
use std::collections::BTreeMap;

fn config() -> SimulationConfig {
    SimulationConfig {
        p: 8,
        mx: 8,
        maxlevel: 4,
        r0: 0.35,
        rhoin: 0.1,
    }
}

/// `fast()`-derived level-synchronous profile, lengthened so the run takes
/// several coarse steps and crosses regrid cycles.
fn profile() -> SolverProfile {
    SolverProfile {
        t_final: 0.006,
        regrid_interval: 2,
        time_stepping: TimeStepping::LevelSynchronous,
        ..SolverProfile::fast()
    }
}

/// A hand-rolled replica of the level-synchronous stepper (per-key loop
/// in `BTreeMap` order, one shared scratch buffer, reflux after each
/// directional sweep, regrid cadence on step parity) must match the
/// solver bit for bit.
#[test]
fn solver_matches_hand_rolled_serial_stepper() {
    let config = config();
    let profile = profile();

    let mut solver = AmrSolver::new(&config, profile);
    let mut reference = solver.forest().clone();

    let stats = solver.run().expect("run");
    assert!(stats.truncation.is_none());

    // Hand-drive the reference forest through the same algorithm.
    let bc = ShockBubbleProblem::new(config).boundary_conditions();
    let mut scratch = SweepScratch::default();
    let mut time = 0.0f64;
    let mut steps = 0u64;
    while time < profile.t_final {
        let mut dt = reference.cfl_dt(CFL);
        if time + dt > profile.t_final {
            dt = profile.t_final - time;
        }
        let x_first = steps.is_multiple_of(2);
        for half in 0..2 {
            reference.fill_ghosts(&bc).expect("ghost fill");
            let sweep_x = (half == 0) == x_first;
            let mut registers = BTreeMap::new();
            for key in reference.leaf_keys() {
                let patch = reference.get_mut(key).expect("leaf");
                let fluxes = if sweep_x {
                    patch.sweep_x(dt, &mut scratch)
                } else {
                    patch.sweep_y(dt, &mut scratch)
                };
                registers.insert(key, fluxes);
            }
            let axis = if sweep_x { Axis::X } else { Axis::Y };
            reference.reflux(axis, &registers, dt).expect("reflux");
        }
        time += dt;
        steps += 1;
        if steps.is_multiple_of(profile.regrid_interval) {
            reference.regrid(REFINE_THRESHOLD, COARSEN_THRESHOLD);
        }
        assert!(steps < profile.max_steps, "reference run ran away");
        assert!(dt > 0.0 && dt.is_finite());
    }

    assert_eq!(stats.steps, steps, "step counts diverged");
    assert_eq!(solver.forest().leaf_keys(), reference.leaf_keys());
    for (key, patch) in solver.forest().iter() {
        let ref_patch = reference.get(*key).expect("leaf");
        for cy in 0..patch.mx() {
            for cx in 0..patch.mx() {
                for k in 0..4 {
                    assert_eq!(
                        patch.interior(cx, cy)[k].to_bits(),
                        ref_patch.interior(cx, cy)[k].to_bits(),
                        "{key:?} cell ({cx},{cy}) var {k}"
                    );
                }
            }
        }
    }
}
