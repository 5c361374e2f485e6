//! Deterministic scoped worker pool shared by the workspace's hot paths.
//!
//! Every parallel site in this workspace follows one discipline, introduced
//! with the AMR sweep engine (DESIGN §7) and promoted here so the GP and
//! linear-algebra layers can reuse it: workers write into **index-addressed
//! slots** of a pre-sized buffer (each worker owns a disjoint range), and
//! the coordinating thread folds the buffer in **input order** afterwards.
//! No floating-point value ever crosses a thread boundary in a
//! schedule-dependent order, so results are bitwise identical for any
//! thread count, including 1.
//!
//! [`WorkerPool`] owns the resolved worker count and provides three
//! primitives: [`WorkerPool::run`] (spawn a vector of borrowing jobs via
//! [`std::thread::scope`], first job inline on the coordinator),
//! [`WorkerPool::chunked_map`] (split an output slice into disjoint chunks
//! by [`chunk_ranges`], run one job per chunk, collect one return value per
//! chunk in chunk order) and [`WorkerPool::map_jobs`] (hand indices out
//! from an atomic cursor, return one value per index in index order — the
//! batch-trajectory and dataset-generation fan-out).
//! [`chunk_ranges`]/[`chunk_ranges_weighted`] partition index spaces into
//! contiguous ascending ranges.
//!
//! `crates/parallel/src/pool.rs` is an alint L6 `spawn_approved` module
//! (DESIGN §9/§13): everywhere else, `spawn`/parallel iterators are a lint
//! violation and must route through this pool.

pub mod pool;

pub use pool::{chunk_ranges, chunk_ranges_weighted, WorkerPool};
