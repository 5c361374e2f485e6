// Tests compare exactly-copied floats; the cfg(test) compile allows that
// while the regular compile still lints library code.
#![cfg_attr(test, allow(clippy::float_cmp))]
#![warn(missing_docs)]

//! Gaussian process regression for incremental performance modeling.
//!
//! Implements the mathematical constructs of the paper's Section III:
//! posterior mean/variance prediction (Eqs. 2–6), the squared-exponential
//! covariance (Eq. 7) plus the ARD and Matérn alternatives called out as
//! future work, the log marginal likelihood (Eq. 8) with analytic gradients,
//! and hyperparameter selection by LML maximization (Eq. 9) with multi-start
//! gradient ascent and warm starting.
//!
//! The active-learning loop (crate `al-core`) trains two of these models per
//! trajectory — one on cost responses, one on memory responses — and refits
//! them after every acquired sample, warm-started from the previous optimum.

pub mod error;
pub mod gp;
pub mod kernel;
pub mod local;
pub mod optimize;
mod pool_cache;

pub use error::GpError;
pub use gp::{GpModel, Prediction};
pub use kernel::{Kernel, KernelKind};
pub use local::LocalGpModel;
pub use optimize::FitOptions;
pub use pool_cache::PoolCache;
