//! Workload generator CLI: run a custom parameter sweep with the real AMR
//! solver and write the measured dataset as CSV.
//!
//! Run: `cargo run -p al-bench --release --bin sweep -- \
//!        --out data/custom.csv [--fast|--smoke] [--unique N] [--repeats N] [--small-grid]`

use al_amr_sim::{MachineModel, SolverProfile};
use al_bench::cli::Args;
use al_dataset::{generate_parallel, io, Dataset, GenerateOptions, SweepGrid, TableSummary};
use std::path::PathBuf;

fn main() {
    let args = Args::parse(&[
        "--out FILE",
        "--unique N",
        "--repeats N",
        "--small-grid",
        "--smoke",
    ]);
    let Some(out) = args.flag_value("--out").map(PathBuf::from) else {
        eprintln!("--out FILE is required");
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
    } else if args.fast {
        SolverProfile::fast()
    } else {
        SolverProfile::paper()
    };
    let unique = unique.min(grid.n_combinations());

    eprintln!(
        "sweeping {} unique + {} repeat jobs from a {}-combination grid...",
        unique,
        repeats,
        grid.n_combinations()
    );
    let jobs = grid.draw_jobs(unique, repeats, args.seed);
    let started = al_bench::clock::now();
    let samples = generate_parallel(
        &jobs,
        &GenerateOptions {
            profile,
            machine: MachineModel::default(),
            n_threads: args.threads,
        },
    )
    .expect("AMR simulation failed");
    eprintln!("measured in {:.1}s", started.elapsed().as_secs_f64());

    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).expect("create output directory");
    }
    io::write_csv(&samples, &out).expect("write CSV");
    println!("wrote {} samples to {}\n", samples.len(), out.display());
    println!("{}", TableSummary::of(&Dataset::new(samples)).format());
}
