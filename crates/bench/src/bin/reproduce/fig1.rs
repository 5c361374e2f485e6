//! Fig. 1: visualization of the 2D shock-bubble interaction at increasing
//! refinement levels — "enabling additional levels of refinement reveals
//! finer features of the simulated phenomenon".
//!
//! Prints an ASCII density rendering and the per-level patch census for
//! `maxlevel ∈ {3, 4, 5, 6}`; with `--out DIR` it also writes PGM images
//! under `DIR/fig1/`.

use crate::Ctx;
use al_amr_sim::viz::{ascii_density, census_table, write_pgm};
use al_amr_sim::{AmrSolver, SimulationConfig};
use std::fs::File;
use std::io::BufWriter;

pub(crate) fn run(ctx: &Ctx) {
    let profile = ctx.profile();
    let pgm_dir = ctx.artifact_dir("fig1");

    println!("FIG 1: shock-bubble interaction at increasing maxlevel\n");
    for maxlevel in [3u8, 4, 5, 6] {
        let config = SimulationConfig {
            p: 8,
            mx: 16,
            maxlevel,
            r0: 0.35,
            rhoin: 0.1,
        };
        let started = al_bench::clock::now();
        let mut solver = AmrSolver::new(&config, profile);
        let work = solver.run().expect("simulation");
        println!(
            "--- maxlevel = {maxlevel} (simulated t = {:.3} in {:.1}s, {} steps) ---",
            work.final_time,
            started.elapsed().as_secs_f64(),
            work.steps
        );
        println!("{}", census_table(solver.forest()));
        println!("{}", ascii_density(solver.forest(), 64));

        if let Some(dir) = &pgm_dir {
            let pgm_path = dir.join(format!("shockbubble_ml{maxlevel}.pgm"));
            let mut w = BufWriter::new(File::create(&pgm_path).expect("create pgm"));
            write_pgm(solver.forest(), 512, &mut w).expect("write pgm");
            println!("wrote {}", pgm_path.display());
        }
        println!();
    }
}
