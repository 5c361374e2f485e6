//! Typed error for the bench library surface.
//!
//! The experiment binary aborts on failure by design, but the library
//! modules (`json`, `perf`) follow the discipline
//! clippy's panic lints and alint L3 enforce on every library crate: no
//! panics in library code, one crate error type on every public `Result`.

use std::fmt;

/// Errors from the bench support library (the perf harness and its JSON
/// schema layer).
#[derive(Debug)]
pub enum BenchError {
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
    /// A `BENCH_*.json` file did not parse or validate.
    Report {
        /// File involved (display form).
        path: String,
        /// The parse or schema error.
        source: Box<BenchError>,
    },
    /// `perf run --group` named a group the registry does not contain.
    UnknownGroup(String),
    /// `perf compare` found no scenario present in both reports.
    NoCommonScenarios,
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Io { path, source } => write!(f, "{path}: {source}"),
            BenchError::JsonParse { offset, detail } => {
                write!(f, "JSON parse error at byte {offset}: {detail}")
            }
            BenchError::Schema { field, detail } => {
                write!(f, "BENCH schema violation at `{field}`: {detail}")
            }
            BenchError::Report { path, source } => write!(f, "{path}: {source}"),
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
            BenchError::Report { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
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
