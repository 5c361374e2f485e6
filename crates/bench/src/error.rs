//! Typed error for the bench library surface.
//!
//! The experiment *binaries* abort on failure by design, but the shared
//! library modules (`report`, `json`, `perf`) follow the same discipline
//! clippy's panic lints and alint L3 enforce on the core crates: no panics
//! in library code, one crate error type on every public `Result`.

use std::fmt;

/// Errors from the bench support library (reporting helpers, the perf
/// harness and its JSON schema layer).
#[derive(Debug)]
pub enum BenchError {
    /// `format_curves` was given a label list and a curve list of
    /// different lengths.
    LabelCountMismatch {
        /// Number of labels provided.
        labels: usize,
        /// Number of curves provided.
        curves: usize,
    },
    /// Reading or writing a `BENCH_*.json` file failed.
    Io {
        /// Path involved (display form).
        path: String,
        /// Underlying I/O error.
        source: std::io::Error,
    },
    /// A JSON document could not be parsed.
    JsonParse {
        /// Byte offset of the first unparseable input.
        offset: usize,
        /// What the parser expected or found.
        detail: String,
    },
    /// A parsed JSON document does not match the BENCH report schema.
    Schema {
        /// Field (dotted path) that failed validation.
        field: String,
        /// Why it failed.
        detail: String,
    },
    /// `perf run --group` named a group the registry does not contain.
    UnknownGroup(String),
    /// `perf compare` found no scenario present in both reports.
    NoCommonScenarios,
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::LabelCountMismatch { labels, curves } => write!(
                f,
                "format_curves: {labels} labels for {curves} curves (must match)"
            ),
            BenchError::Io { path, source } => write!(f, "{path}: {source}"),
            BenchError::JsonParse { offset, detail } => {
                write!(f, "JSON parse error at byte {offset}: {detail}")
            }
            BenchError::Schema { field, detail } => {
                write!(f, "BENCH schema violation at `{field}`: {detail}")
            }
            BenchError::UnknownGroup(g) => write!(f, "unknown scenario group {g:?}"),
            BenchError::NoCommonScenarios => {
                write!(f, "compare: the two reports share no scenario names")
            }
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = BenchError::LabelCountMismatch {
            labels: 2,
            curves: 3,
        };
        assert!(e.to_string().contains("2 labels for 3 curves"));
        let e = BenchError::Schema {
            field: "scenarios[0].stats".into(),
            detail: "missing".into(),
        };
        assert!(e.to_string().contains("scenarios[0].stats"));
    }

    #[test]
    fn io_errors_chain_a_source() {
        use std::error::Error;
        let e = BenchError::Io {
            path: "BENCH_x.json".into(),
            source: std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        };
        assert!(e.source().is_some());
        assert!(e.to_string().contains("BENCH_x.json"));
    }
}
