//! Error type for GP fitting and prediction.

use al_linalg::LinalgError;
use std::fmt;

/// Errors produced by GP model construction, fitting or prediction.
#[derive(Debug, Clone, PartialEq)]
pub enum GpError {
    /// Underlying linear algebra failed (singular kernel matrix, shape bugs).
    Linalg(LinalgError),
    /// The model has not been fit yet but a posterior quantity was requested.
    NotFitted,
    /// Training inputs were inconsistent (e.g. `X` rows vs `y` length).
    InvalidTrainingData {
        /// Number of rows in the design matrix.
        n_x: usize,
        /// Number of responses supplied.
        n_y: usize,
    },
    /// A training input or response is NaN or infinite; it would poison
    /// the kernel matrix and every posterior built on it.
    NonFiniteTrainingData {
        /// Training-set row of the first offending value (for an augment,
        /// the row the new observation would have taken).
        row: usize,
    },
    /// A query point holds a NaN or infinite coordinate; its posterior
    /// would be NaN.
    NonFiniteQuery {
        /// Query row of the first offending value.
        row: usize,
    },
    /// A hyperparameter vector of the wrong length was supplied.
    BadParamLength {
        /// Expected number of parameters.
        expected: usize,
        /// Supplied number of parameters.
        got: usize,
    },
}

impl fmt::Display for GpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            GpError::NotFitted => write!(f, "model must be fit before prediction"),
            GpError::InvalidTrainingData { n_x, n_y } => {
                write!(f, "X has {n_x} rows but y has {n_y} entries")
            }
            GpError::NonFiniteTrainingData { row } => {
                write!(f, "training row {row} contains a non-finite value")
            }
            GpError::NonFiniteQuery { row } => {
                write!(f, "query row {row} contains a non-finite value")
            }
            GpError::BadParamLength { expected, got } => {
                write!(f, "expected {expected} hyperparameters, got {got}")
            }
        }
    }
}

impl std::error::Error for GpError {}

impl From<LinalgError> for GpError {
    fn from(e: LinalgError) -> Self {
        GpError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_from() {
        let e: GpError = LinalgError::Empty("x").into();
        assert!(e.to_string().contains("linear algebra"));
        assert!(GpError::NotFitted.to_string().contains("fit"));
        let e = GpError::InvalidTrainingData { n_x: 3, n_y: 4 };
        assert!(e.to_string().contains('3'));
        let e = GpError::NonFiniteTrainingData { row: 7 };
        assert!(e.to_string().contains("row 7"));
        let e = GpError::NonFiniteQuery { row: 3 };
        assert!(e.to_string().contains("query row 3"));
        let e = GpError::BadParamLength {
            expected: 2,
            got: 5,
        };
        assert!(e.to_string().contains('5'));
    }
}
