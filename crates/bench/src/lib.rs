// Tests compare exactly-copied floats; the cfg(test) compile allows that
// while the regular compile still lints library code.
#![cfg_attr(test, allow(clippy::float_cmp))]
#![warn(missing_docs)]

//! Shared support for the experiment harness: dataset caching, a tiny CLI
//! parser, text reporting helpers, and the deterministic perf harness
//! behind the `BENCH_*.json` trajectory.
//!
//! One binary per table/figure of the paper lives in `src/bin/`; see
//! `DESIGN.md` §3 for the experiment index, §11 for the perf harness, and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results.

pub mod cli;
pub mod clock;
pub mod data;
pub mod error;
pub mod json;
pub mod perf;
pub mod report;
