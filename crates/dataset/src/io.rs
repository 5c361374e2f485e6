//! CSV persistence for datasets.
//!
//! The format is a plain header + rows of `Display`-formatted `f64`s
//! (Rust's shortest-roundtrip float formatting), so write→read is lossless.

use crate::dataset::Dataset;
use crate::sample::Sample;
use al_amr_sim::SimulationConfig;
use al_units::{Megabytes, NodeHours, Seconds};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Column header written and expected by this module.
pub const HEADER: &str = "p,mx,maxlevel,r0,rhoin,wall_seconds,cost_node_hours,memory_mb";

/// Errors from dataset persistence.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// The file's structure did not match the expected CSV schema.
    Parse {
        /// 1-based line number of the offending row.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Write samples as CSV.
pub fn write_csv(samples: &[Sample], path: &Path) -> Result<(), IoError> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "{HEADER}")?;
    for s in samples {
        writeln!(
            w,
            "{},{},{},{},{},{},{},{}",
            s.config.p,
            s.config.mx,
            s.config.maxlevel,
            s.config.r0,
            s.config.rhoin,
            s.wall_seconds,
            s.cost_node_hours,
            s.memory_mb
        )?;
    }
    w.flush()?;
    Ok(())
}

/// Read samples from CSV (as written by [`write_csv`]).
///
/// The file is read in one buffer and each row split into a fixed array
/// of field slices, so parsing allocates only the returned samples.
pub fn read_csv(path: &Path) -> Result<Vec<Sample>, IoError> {
    let text = fs::read_to_string(path)?;
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if lineno == 0 {
            if line.trim() != HEADER {
                return Err(IoError::Parse {
                    line: 1,
                    message: format!("unexpected header {line:?}"),
                });
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let mut fields = [""; 8];
        let mut count = 0;
        for field in line.split(',') {
            if let Some(slot) = fields.get_mut(count) {
                *slot = field;
            }
            count += 1;
        }
        if count != fields.len() {
            return Err(IoError::Parse {
                line: lineno + 1,
                message: format!("expected 8 fields, got {count}"),
            });
        }
        let parse_f = |idx: usize| -> Result<f64, IoError> {
            fields[idx].trim().parse().map_err(|e| IoError::Parse {
                line: lineno + 1,
                message: format!("field {idx}: {e}"),
            })
        };
        let parse_u = |idx: usize| -> Result<u64, IoError> {
            fields[idx].trim().parse().map_err(|e| IoError::Parse {
                line: lineno + 1,
                message: format!("field {idx}: {e}"),
            })
        };
        samples.push(Sample {
            config: SimulationConfig {
                p: parse_u(0)? as u32,
                mx: parse_u(1)? as usize,
                maxlevel: parse_u(2)? as u8,
                r0: parse_f(3)?,
                rhoin: parse_f(4)?,
            },
            wall_seconds: Seconds::new(parse_f(5)?),
            cost_node_hours: NodeHours::new(parse_f(6)?),
            memory_mb: Megabytes::new(parse_f(7)?),
        });
    }
    Ok(samples)
}

/// Load a dataset from CSV, or build it with `generate` and cache it at
/// `path` when the file does not exist yet. This is how the experiment
/// binaries share one expensive generation run.
pub fn load_or_generate(
    path: &Path,
    generate: impl FnOnce() -> Vec<Sample>,
) -> Result<Dataset, IoError> {
    if path.exists() {
        let samples = read_csv(path)?;
        if !samples.is_empty() {
            return Ok(Dataset::new(samples));
        }
    }
    let samples = generate();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    write_csv(&samples, path)?;
    Ok(Dataset::new(samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: usize) -> Sample {
        Sample {
            config: SimulationConfig {
                p: 4 * (i as u32 + 1),
                mx: 8,
                maxlevel: 3,
                r0: 0.2 + 0.017 * i as f64,
                rhoin: 0.02 * (i + 1) as f64,
            },
            wall_seconds: Seconds::new(1.5 + i as f64 * std::f64::consts::PI),
            cost_node_hours: NodeHours::new(0.002 * (i + 1) as f64),
            memory_mb: Megabytes::new(0.05 / (i + 1) as f64),
        }
    }

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("al_dataset_io_{name}_{}.csv", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_is_lossless() {
        let path = tmpfile("roundtrip");
        let samples: Vec<Sample> = (0..5).map(sample).collect();
        write_csv(&samples, &path).unwrap();
        let back = read_csv(&path).unwrap();
        assert_eq!(samples, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_rejects_bad_header() {
        let path = tmpfile("badheader");
        std::fs::write(&path, "a,b,c\n1,2,3\n").unwrap();
        assert!(matches!(
            read_csv(&path),
            Err(IoError::Parse { line: 1, .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_rejects_short_rows_and_bad_numbers() {
        let path = tmpfile("badrow");
        std::fs::write(&path, format!("{HEADER}\n1,2,3\n")).unwrap();
        assert!(matches!(
            read_csv(&path),
            Err(IoError::Parse { line: 2, .. })
        ));

        std::fs::write(&path, format!("{HEADER}\n4,8,3,0.2,abc,1.0,0.1,0.5\n")).unwrap();
        let err = read_csv(&path).unwrap_err();
        assert!(err.to_string().contains("line 2"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_reports_field_counts_with_their_line_numbers() {
        // Blank lines still count toward the line number.
        let path = tmpfile("fieldcount");
        let good = "4,8,3,0.2,0.05,1.0,0.1,0.5";
        for (row, got) in [("1,2,3", 3), ("4,8,3,0.2,0.05,1.0,0.1,0.5,9", 9)] {
            std::fs::write(&path, format!("{HEADER}\n{good}\n\n{row}\n")).unwrap();
            assert_eq!(
                read_csv(&path).unwrap_err().to_string(),
                format!("parse error at line 4: expected 8 fields, got {got}")
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_skips_blank_lines() {
        let path = tmpfile("blank");
        std::fs::write(&path, format!("{HEADER}\n4,8,3,0.2,0.05,1.0,0.1,0.5\n\n")).unwrap();
        assert_eq!(read_csv(&path).unwrap().len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_or_generate_caches() {
        let path = tmpfile("cache");
        std::fs::remove_file(&path).ok();
        let mut calls = 0;
        let d1 = load_or_generate(&path, || {
            calls += 1;
            (0..3).map(sample).collect()
        })
        .unwrap();
        assert_eq!(calls, 1);
        assert_eq!(d1.len(), 3);
        // Second load hits the cache.
        let d2 = load_or_generate(&path, || {
            panic!("generator must not run when the cache exists")
        })
        .unwrap();
        assert_eq!(d1, d2);
        std::fs::remove_file(&path).ok();
    }
}
