//! Shock-tube validation: the 2D MUSCL/HLLC scheme, run on a y-invariant
//! Sod problem, must converge to the exact Riemann solution.

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
use al_amr_sim::exact_riemann::{ExactRiemann, Primitive1d};
use al_amr_sim::problem::Problem;
use al_amr_sim::solver::CFL;
use al_amr_sim::tree::{Bc, Forest};
use al_amr_sim::{AmrSolver, SolverProfile, TimeStepping};

/// Advance a uniform (single-level) forest holding the Sod problem to
/// time `t_final`; returns the forest and the actual time reached.
fn run_sod(level: u8, mx: usize, t_final: f64) -> (Forest, f64) {
    let mut forest = Forest::uniform(mx, level, level);
    forest.fill_all(&|x, _y| {
        if x < 0.5 {
            conservative(1.0, 0.0, 0.0, 1.0)
        } else {
            conservative(0.125, 0.0, 0.0, 0.1)
        }
    });
    let bc = Bc::all_extrapolate();
    let mut scratch = al_amr_sim::patch::SweepScratch::default();
    let mut t = 0.0;
    let mut step = 0u64;
    while t < t_final {
        let mut dt = forest.cfl_dt(CFL);
        if t + dt > t_final {
            dt = t_final - t;
        }
        for half in 0..2 {
            forest.fill_ghosts(&bc).expect("fill_ghosts");
            let sweep_x = (half == 0) == step.is_multiple_of(2);
            for key in forest.leaf_keys() {
                let patch = forest.get_mut(key).unwrap();
                if sweep_x {
                    patch.sweep_x(dt, &mut scratch);
                } else {
                    patch.sweep_y(dt, &mut scratch);
                }
            }
        }
        t += dt;
        step += 1;
        assert!(step < 10_000, "runaway time stepping");
    }
    (forest, t)
}

fn exact_sod() -> ExactRiemann {
    ExactRiemann::solve(
        Primitive1d::new(1.0, 0.0, 1.0),
        Primitive1d::new(0.125, 0.0, 0.1),
    )
}

/// Mean |ρ_numerical − ρ_exact| over a horizontal probe line.
fn density_l1_error(forest: &Forest, t: f64, n_probe: usize) -> f64 {
    let exact = exact_sod();
    let mut total = 0.0;
    for i in 0..n_probe {
        let x = (i as f64 + 0.5) / n_probe as f64;
        let xi = (x - 0.5) / t;
        let w = exact.sample(xi);
        total += (forest.sample_density(x, 0.5) - w.rho).abs();
    }
    total / n_probe as f64
}

#[test]
fn sod_profile_matches_exact_solution() {
    let t_final = 0.12;
    let (forest, t) = run_sod(3, 16, t_final); // 128 cells across
    assert!((t - t_final).abs() < 1e-12);

    let err = density_l1_error(&forest, t, 200);
    assert!(err < 0.02, "L1 density error {err}");

    // Plateau checks away from the discontinuities.
    let exact = exact_sod();
    // Star region left of the contact (xi = 0.5 ⇒ x = 0.56).
    let w = exact.sample(0.5);
    let num = forest.sample_density(0.5 + 0.5 * t, 0.5);
    assert!((num - w.rho).abs() < 0.02, "ρ*L: {num} vs {}", w.rho);
    // Undisturbed right state ahead of the shock.
    let num = forest.sample_density(0.98, 0.5);
    assert!((num - 0.125).abs() < 1e-3, "pre-shock density {num}");
    // Undisturbed left state behind the rarefaction head.
    let num = forest.sample_density(0.02, 0.5);
    assert!((num - 1.0).abs() < 1e-3, "left plateau {num}");
}

/// The Sod shock tube as a [`Problem`], so the full adaptive solver
/// (refinement around the discontinuities, refluxing, either stepping
/// mode) can be validated against the exact solution.
struct SodProblem;

impl Problem for SodProblem {
    fn name(&self) -> &'static str {
        "sod"
    }

    fn initial_state(&self, x: f64, _y: f64) -> State {
        if x < 0.5 {
            conservative(1.0, 0.0, 0.0, 1.0)
        } else {
            conservative(0.125, 0.0, 0.0, 0.1)
        }
    }

    fn boundary_conditions(&self) -> Bc {
        Bc::all_extrapolate()
    }
}

#[test]
fn adaptive_sod_matches_exact_in_both_stepping_modes() {
    let t_final = 0.12;
    for mode in [TimeStepping::LevelSynchronous, TimeStepping::Subcycled] {
        let profile = SolverProfile {
            t_final,
            minlevel: 2,
            time_stepping: mode,
            ..SolverProfile::smoke()
        };
        let mut solver = AmrSolver::with_problem(&SodProblem, 16, 4, profile);
        let stats = solver.run().expect("run");
        assert!(stats.truncation.is_none(), "{mode:?} truncated: {stats:?}");
        assert!((stats.final_time - t_final).abs() < 1e-12);

        let err = density_l1_error(solver.forest(), t_final, 200);
        assert!(err < 0.02, "{mode:?}: L1 density error {err}");
    }
}

#[test]
fn sod_error_decreases_with_resolution() {
    let t_final = 0.1;
    let (coarse, t1) = run_sod(2, 16, t_final); // 64 cells
    let (fine, t2) = run_sod(4, 16, t_final); // 256 cells
    let e_coarse = density_l1_error(&coarse, t1, 200);
    let e_fine = density_l1_error(&fine, t2, 200);
    assert!(
        e_fine < 0.6 * e_coarse,
        "refinement must reduce error: {e_coarse} -> {e_fine}"
    );
}

#[test]
fn solution_is_y_invariant() {
    let (forest, _) = run_sod(3, 8, 0.08);
    for i in 0..20 {
        let x = (i as f64 + 0.5) / 20.0;
        let a = forest.sample_density(x, 0.25);
        let b = forest.sample_density(x, 0.75);
        assert!(
            (a - b).abs() < 1e-10,
            "y-symmetry broken at x={x}: {a} vs {b}"
        );
    }
}
