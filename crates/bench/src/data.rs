//! The shared 600-sample dataset, generated once and cached under
//! `data/` at the workspace root.

use al_amr_sim::{MachineModel, SolverProfile};
use al_dataset::io::load_or_generate;
use al_dataset::{generate_parallel, Dataset, GenerateOptions, SweepGrid};
use std::path::PathBuf;

/// Seed used for the dataset job draw (fixed so every experiment binary
/// sees the same 600 jobs).
pub const DATASET_SEED: u64 = 2018;

/// Number of unique configurations in the dataset (paper: 525).
pub const N_UNIQUE: usize = 525;

/// Number of repeated measurements (paper: 75).
pub const N_REPEATS: usize = 75;

/// Cache path for the dataset (`--fast` uses a separate file so the two
/// profiles never mix).
pub fn dataset_path(fast: bool) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut path = root
        .parent()
        .and_then(|p| p.parent())
        .expect("bench crate lives two levels under the workspace root")
        .to_path_buf();
    path.push("data");
    path.push(if fast {
        "dataset_fast.csv"
    } else {
        "dataset.csv"
    });
    path
}

/// Load the cached 600-sample dataset, generating (and caching) it on
/// first use. Generation runs the real AMR solver for every job, spread
/// across `threads` workers.
pub fn paper_dataset(fast: bool, threads: usize) -> Dataset {
    let path = dataset_path(fast);
    load_or_generate(&path, || {
        eprintln!(
            "generating {} dataset ({} jobs) -> {} ...",
            if fast { "fast" } else { "paper" },
            N_UNIQUE + N_REPEATS,
            path.display()
        );
        let jobs = SweepGrid::default().draw_jobs(N_UNIQUE, N_REPEATS, DATASET_SEED);
        let opts = GenerateOptions {
            profile: if fast {
                SolverProfile::fast()
            } else {
                SolverProfile::paper()
            },
            machine: MachineModel::default(),
            n_threads: threads,
        };
        let started = crate::clock::now();
        let samples = generate_parallel(&jobs, &opts).expect("AMR simulation failed");
        eprintln!("generated in {:.1}s", started.elapsed().as_secs_f64());
        samples
    })
    .expect("dataset generation or cache load failed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_differ_per_profile() {
        let a = dataset_path(false);
        let b = dataset_path(true);
        assert_ne!(a, b);
        assert!(a.ends_with("data/dataset.csv"));
        assert!(b.ends_with("data/dataset_fast.csv"));
    }
}
