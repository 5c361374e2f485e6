//! The AMR solver on a different problem: a Sedov-type point blast. Shows
//! the library's problem-agnostic interface (`AmrSolver::with_problem`)
//! and how refinement chases an expanding circular front.
//!
//! Run: `cargo run --release -p al-bench --example sedov_blast`

// Examples abort on failure by design, so they opt out of the
// workspace's clippy panic lints.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use al_amr_sim::problem::SedovBlast;
use al_amr_sim::viz::{ascii_density, census_table};
use al_amr_sim::{AmrSolver, SolverProfile};

fn main() {
    let blast = SedovBlast::strong();
    let mut profile = SolverProfile::paper();
    profile.t_final = 0.012;

    println!(
        "Sedov blast: {}x ambient pressure in a disk of radius {}\n",
        blast.blast_pressure, blast.radius
    );
    let mut solver = AmrSolver::with_problem(&blast, 16, 5, profile);

    for frame in 0..=3 {
        let target = profile.t_final * frame as f64 / 3.0;
        while solver.time() < target {
            solver.step().expect("step");
        }
        println!(
            "--- t = {:.4} ({} leaves) ---",
            solver.time(),
            solver.forest().n_leaves()
        );
        println!("{}", ascii_density(solver.forest(), 48));
    }
    println!("{}", census_table(solver.forest()));
}
