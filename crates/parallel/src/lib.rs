//! Deterministic scoped worker pool: the workspace's one fan-out primitive.
//!
//! The paper runs many independent simulations and AL trajectories in
//! parallel and never splits one run across threads, so the workspace has
//! exactly one level of parallelism: [`WorkerPool::map_jobs`], which runs
//! `job(0..n)` on scoped workers that claim indices from an atomic cursor
//! and returns one value per index **in index order**. Each job's value
//! depends on its index alone and lands in that index's slot, so results
//! are bitwise identical for any worker count, including 1. The batch
//! trajectory runner (`al_core::run_batch`) and dataset generation
//! (`al_dataset::generate_parallel`) are its callers.
//!
//! `crates/parallel/src/pool.rs` holds the one exemption outside tests from
//! clippy.toml's ban on `std::thread::spawn`/`scope` (DESIGN §9/§13):
//! everywhere else a spawn is a clippy error and must route through this
//! pool.

pub mod pool;

pub use pool::WorkerPool;
