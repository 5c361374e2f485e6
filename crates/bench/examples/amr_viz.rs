//! Watch the AMR solver work: evolve the shock–bubble interaction and
//! print ASCII density frames plus the patch census as refinement tracks
//! the moving shock and the deforming bubble (the paper's Fig. 1, live).
//!
//! Run: `cargo run --release -p al-bench --example amr_viz`

// Examples abort on failure by design, so they opt out of the
// workspace's clippy panic lints.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use al_amr_sim::viz::{ascii_density, census_table};
use al_amr_sim::{AmrSolver, SimulationConfig, SolverProfile};

fn main() {
    let config = SimulationConfig {
        p: 8,
        mx: 16,
        maxlevel: 5,
        r0: 0.4,
        rhoin: 0.05,
    };
    let mut profile = SolverProfile::paper();
    profile.t_final = 0.06; // long enough for the shock to hit the bubble

    println!("shock-bubble interaction, maxlevel = {}\n", config.maxlevel);
    let mut solver = AmrSolver::new(&config, profile);

    let frames = 4;
    for frame in 0..=frames {
        let target = profile.t_final * frame as f64 / frames as f64;
        while solver.time() < target {
            solver.step().expect("step");
        }
        println!(
            "--- t = {:.4} ({} steps, {} leaf patches) ---",
            solver.time(),
            solver.stats().steps,
            solver.forest().n_leaves()
        );
        println!("{}", ascii_density(solver.forest(), 56));
    }

    println!("final patch census:");
    println!("{}", census_table(solver.forest()));
    let w = solver.stats();
    println!(
        "work: {} steps, {:.2e} cell updates, {:.2e} ghost cells exchanged, {} regrids",
        w.steps, w.cell_updates as f64, w.ghost_cells as f64, w.regrid_count
    );
}
