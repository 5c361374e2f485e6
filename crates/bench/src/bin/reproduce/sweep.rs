//! Workload generator: run a custom parameter sweep with the real AMR
//! solver and write the measured dataset to the CSV file `--csv` names.

use crate::Ctx;
use al_amr_sim::SolverProfile;
use al_dataset::{io, Dataset, SweepGrid, TableSummary};
use std::path::PathBuf;

pub(crate) fn run(ctx: &Ctx) {
    let args = &ctx.args;
    let Some(out) = args.flag_value("--csv").map(PathBuf::from) else {
        eprintln!("--csv FILE is required");
        std::process::exit(2);
    };
    let unique = args.count("--unique").unwrap_or(60);
    let repeats = args.count("--repeats").unwrap_or(8);
    let smoke = args.has_flag("--smoke");

    let grid = if args.has_flag("--small-grid") {
        SweepGrid::small()
    } else {
        SweepGrid::default()
    };
    let profile = if smoke {
        SolverProfile::smoke()
    } else {
        ctx.profile()
    };
    let unique = unique.min(grid.n_combinations());

    eprintln!(
        "sweeping {} unique + {} repeat jobs from a {}-combination grid...",
        unique,
        repeats,
        grid.n_combinations()
    );
    let samples = ctx.measure(&grid.draw_jobs(unique, repeats, args.seed), profile);

    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).expect("create output directory");
    }
    io::write_csv(&samples, &out).expect("write CSV");
    println!("wrote {} samples to {}\n", samples.len(), out.display());
    println!("{}", TableSummary::of(&Dataset::new(samples)).format());
}
