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
    let args = Args::parse();
    let mut out: Option<PathBuf> = None;
    let mut unique = 60usize;
    let mut repeats = 8usize;
    let mut small_grid = false;
    let mut smoke = false;
    let mut it = args.extra.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => out = it.next().map(PathBuf::from),
            "--unique" => unique = it.next().and_then(|v| v.parse().ok()).unwrap_or(unique),
            "--repeats" => repeats = it.next().and_then(|v| v.parse().ok()).unwrap_or(repeats),
            "--small-grid" => small_grid = true,
            "--smoke" => smoke = true,
            other => {
                eprintln!("unknown flag {other}");
                eprintln!(
                    "usage: sweep --out FILE [--unique N] [--repeats N] [--small-grid] [--smoke] [--fast] [--seed N] [--threads N]"
                );
                std::process::exit(2);
            }
        }
    }
    let Some(out) = out else {
        eprintln!("--out FILE is required");
        std::process::exit(2);
    };

    let grid = if small_grid {
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
