// Tests compare exactly-copied floats; the cfg(test) compile allows that
// while the regular compile still lints library code.
#![cfg_attr(test, allow(clippy::float_cmp))]
#![warn(missing_docs)]

//! Block-structured adaptive mesh refinement (AMR) substrate.
//!
//! A compact, from-scratch stand-in for the FORESTCLAW/p4est/Clawpack stack
//! the paper ran on NERSC Edison: a quadtree forest of logically Cartesian
//! `mx × mx` patches solving the 2D compressible Euler equations with a
//! MUSCL/HLLC finite-volume scheme, refined around solution features of a
//! shock–bubble interaction, plus an analytic **machine model** that maps
//! counted work (cell updates, ghost exchange, peak resident cells) and a
//! node count `p` into Edison-like wall-clock time, node-hour cost and
//! per-process MaxRSS with run-to-run variability.
//!
//! The paper's 5-feature input space maps onto [`SimulationConfig`]:
//! `p` (nodes), `mx` (box size), `maxlevel` (max refinement level),
//! `r0` (bubble size) and `rhoin` (bubble density).
//!
//! See `DESIGN.md` §1 for why this substitution preserves the behaviour the
//! active-learning layer depends on.

pub mod error;
pub mod euler;
pub mod exact_riemann;
pub mod machine;
pub mod patch;
pub mod problem;
pub mod runner;
pub mod shockbubble;
pub mod solver;
pub mod tree;
pub mod viz;

pub use error::AmrError;
pub use machine::{MachineModel, MachineOutcome};
pub use runner::{run_simulation, SimulationOutcome};
pub use shockbubble::SimulationConfig;
pub use solver::{AmrSolver, SolverProfile, TimeStepping, TruncationReason, WorkStats};
