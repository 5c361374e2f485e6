//! CSV output for AL trajectories, so experiment outputs can be
//! archived and re-analysed without re-running AL (the role of the
//! paper's published analysis notebooks).

use crate::stopping::StopReason;
use crate::trajectory::Trajectory;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Header of the per-iteration section.
pub const RECORD_HEADER: &str =
    "iteration,dataset_index,cost,memory,regret,cumulative_cost,cumulative_regret,rmse_cost,rmse_mem";

fn stop_reason_str(r: StopReason) -> &'static str {
    match r {
        StopReason::ActiveExhausted => "active_exhausted",
        StopReason::AllCandidatesRefused => "all_candidates_refused",
        StopReason::MaxIterations => "max_iterations",
        StopReason::PredictionsStabilized => "predictions_stabilized",
        StopReason::HyperparamsStabilized => "hyperparams_stabilized",
    }
}

/// Write one trajectory: a `#`-prefixed metadata preamble followed by the
/// record rows.
pub fn write_trajectory_csv(trajectory: &Trajectory, path: &Path) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "# strategy: {}", trajectory.strategy)?;
    writeln!(w, "# n_init: {}", trajectory.n_init)?;
    writeln!(w, "# initial_rmse_cost: {}", trajectory.initial_rmse_cost)?;
    writeln!(w, "# initial_rmse_mem: {}", trajectory.initial_rmse_mem)?;
    writeln!(
        w,
        "# stop_reason: {}",
        stop_reason_str(trajectory.stop_reason)
    )?;
    writeln!(w, "{RECORD_HEADER}")?;
    for r in &trajectory.records {
        writeln!(
            w,
            "{},{},{},{},{},{},{},{},{}",
            r.iteration,
            r.dataset_index,
            r.cost,
            r.memory,
            r.regret,
            r.cumulative_cost,
            r.cumulative_regret,
            r.rmse_cost,
            r.rmse_mem
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::IterationRecord;
    use al_units::{Megabytes, NodeHours};
    use std::io::{BufRead, BufReader};

    fn parse_stop_reason(s: &str) -> Option<StopReason> {
        Some(match s {
            "active_exhausted" => StopReason::ActiveExhausted,
            "all_candidates_refused" => StopReason::AllCandidatesRefused,
            "max_iterations" => StopReason::MaxIterations,
            "predictions_stabilized" => StopReason::PredictionsStabilized,
            "hyperparams_stabilized" => StopReason::HyperparamsStabilized,
            _ => return None,
        })
    }

    /// Read a trajectory written by [`write_trajectory_csv`].
    fn read_trajectory_csv(path: &Path) -> io::Result<Trajectory> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let reader = BufReader::new(File::open(path)?);
        let mut strategy = String::new();
        let mut n_init = 0usize;
        let mut initial_rmse_cost = f64::NAN;
        let mut initial_rmse_mem = f64::NAN;
        let mut stop_reason = StopReason::ActiveExhausted;
        let mut records = Vec::new();
        let mut saw_header = false;

        for (lineno, line) in reader.lines().enumerate() {
            let line = line?;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(meta) = line.strip_prefix('#') {
                let (key, value) = meta
                    .split_once(':')
                    .ok_or_else(|| bad(format!("line {}: bad metadata", lineno + 1)))?;
                let value = value.trim();
                match key.trim() {
                    "strategy" => strategy = value.to_string(),
                    "n_init" => {
                        n_init = value.parse().map_err(|e| bad(format!("n_init: {e}")))?;
                    }
                    "initial_rmse_cost" => {
                        initial_rmse_cost = value.parse().map_err(|e| bad(format!("rmse: {e}")))?;
                    }
                    "initial_rmse_mem" => {
                        initial_rmse_mem = value.parse().map_err(|e| bad(format!("rmse: {e}")))?;
                    }
                    "stop_reason" => {
                        stop_reason = parse_stop_reason(value)
                            .ok_or_else(|| bad(format!("unknown stop reason {value:?}")))?;
                    }
                    other => return Err(bad(format!("unknown metadata key {other:?}"))),
                }
                continue;
            }
            if !saw_header {
                if line != RECORD_HEADER {
                    return Err(bad(format!("line {}: bad header", lineno + 1)));
                }
                saw_header = true;
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 9 {
                return Err(bad(format!(
                    "line {}: expected 9 fields, got {}",
                    lineno + 1,
                    fields.len()
                )));
            }
            let pf = |i: usize| -> io::Result<f64> {
                fields[i]
                    .parse()
                    .map_err(|e| bad(format!("line {}: field {i}: {e}", lineno + 1)))
            };
            let pu = |i: usize| -> io::Result<usize> {
                fields[i]
                    .parse()
                    .map_err(|e| bad(format!("line {}: field {i}: {e}", lineno + 1)))
            };
            records.push(IterationRecord {
                iteration: pu(0)?,
                dataset_index: pu(1)?,
                cost: NodeHours::new(pf(2)?),
                memory: Megabytes::new(pf(3)?),
                regret: NodeHours::new(pf(4)?),
                cumulative_cost: NodeHours::new(pf(5)?),
                cumulative_regret: NodeHours::new(pf(6)?),
                rmse_cost: pf(7)?,
                rmse_mem: pf(8)?,
            });
        }
        Ok(Trajectory {
            strategy,
            n_init,
            initial_rmse_cost,
            initial_rmse_mem,
            records,
            stop_reason,
        })
    }

    fn sample_trajectory() -> Trajectory {
        Trajectory {
            strategy: "RGMA".into(),
            n_init: 50,
            initial_rmse_cost: 1.25,
            initial_rmse_mem: 0.75,
            records: (0..5)
                .map(|i| IterationRecord {
                    iteration: i,
                    dataset_index: 100 + i,
                    cost: NodeHours::new(0.1 * (i + 1) as f64),
                    memory: Megabytes::new(1.0 + i as f64),
                    regret: NodeHours::new(if i == 3 { 0.4 } else { 0.0 }),
                    cumulative_cost: NodeHours::new(0.1 * ((i + 1) * (i + 2) / 2) as f64),
                    cumulative_regret: NodeHours::new(if i >= 3 { 0.4 } else { 0.0 }),
                    rmse_cost: 1.0 / (i + 1) as f64,
                    rmse_mem: 2.0 / (i + 1) as f64,
                })
                .collect(),
            stop_reason: StopReason::AllCandidatesRefused,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("al_traj_{name}_{}.csv", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let path = tmp("roundtrip");
        let t = sample_trajectory();
        write_trajectory_csv(&t, &path).unwrap();
        let back = read_trajectory_csv(&path).unwrap();
        assert_eq!(t, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn all_stop_reasons_roundtrip() {
        for reason in [
            StopReason::ActiveExhausted,
            StopReason::AllCandidatesRefused,
            StopReason::MaxIterations,
            StopReason::PredictionsStabilized,
            StopReason::HyperparamsStabilized,
        ] {
            assert_eq!(parse_stop_reason(stop_reason_str(reason)), Some(reason));
        }
        assert_eq!(parse_stop_reason("bogus"), None);
    }

    #[test]
    fn read_rejects_malformed_files() {
        let path = tmp("bad");
        std::fs::write(&path, "# strategy RGMA\n").unwrap(); // missing colon
        assert!(read_trajectory_csv(&path).is_err());
        std::fs::write(&path, "not,the,header\n").unwrap();
        assert!(read_trajectory_csv(&path).is_err());
        std::fs::write(&path, format!("{RECORD_HEADER}\n1,2,3\n")).unwrap();
        assert!(read_trajectory_csv(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_trajectory_roundtrips() {
        let path = tmp("empty");
        let t = Trajectory {
            records: vec![],
            ..sample_trajectory()
        };
        write_trajectory_csv(&t, &path).unwrap();
        let back = read_trajectory_csv(&path).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.strategy, "RGMA");
        std::fs::remove_file(&path).ok();
    }
}
