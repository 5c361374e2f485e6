// Tests compare exactly-copied floats; the cfg(test) compile allows that
// while the regular compile still lints library code.
#![cfg_attr(test, allow(clippy::float_cmp))]
#![warn(missing_docs)]

//! Dense linear algebra and statistics substrate for the active-learning stack.
//!
//! This crate deliberately hand-rolls the small amount of numerical machinery
//! that Gaussian process regression needs — dense matrices, Cholesky
//! factorization of symmetric positive definite systems, triangular solves,
//! log-determinants — plus the descriptive statistics and random sampling
//! helpers used by the dataset pipeline and the experiment harness.
//!
//! Everything is `f64`. The hot kernels (`Matrix::matmul`, [`Cholesky`])
//! are written as loops over contiguous row-major storage so the compiler
//! can vectorize them; the dense Cholesky folds also run in an
//! AVX2-compiled copy when the CPU has AVX2, with bitwise-identical
//! results (DESIGN §13).

pub mod cholesky;
pub mod error;
pub mod matrix;
pub mod ops;
pub mod rng;
pub mod stats;

pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use matrix::Matrix;
