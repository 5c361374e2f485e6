// Tests compare exactly-copied floats; the cfg(test) compile allows that
// while the regular compile still lints library code.
#![cfg_attr(test, allow(clippy::float_cmp))]
#![warn(missing_docs)]

//! Shared support for the experiment harness: the dataset's job draw, the
//! one wall-clock read, and the deterministic perf harness behind the
//! `BENCH_*.json` trajectory.
//!
//! The `reproduce` binary (`src/bin/reproduce/`) rebuilds every table,
//! figure and ablation of the paper; see `DESIGN.md` §3 for the experiment
//! index, §11 for the perf harness, and `EXPERIMENTS.md` for recorded
//! paper-vs-measured results.

pub mod clock;
pub mod data;
pub mod error;
pub mod json;
pub mod perf;
