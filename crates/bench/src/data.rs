//! The shared dataset's draw: every experiment and the benchmark sweep
//! measure the same 600 jobs.

/// Seed used for the dataset job draw (fixed so every experiment sees the
/// same 600 jobs).
pub const DATASET_SEED: u64 = 2018;

/// Number of unique configurations in the dataset (paper: 525).
pub const N_UNIQUE: usize = 525;

/// Number of repeated measurements (paper: 75).
pub const N_REPEATS: usize = 75;
