//! Pieces every workload shares: the run outcome, the reference digests,
//! input loading and the repeated set-up timer.

use al_bench::json::Json;
use al_dataset::Dataset;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output matched its reference digest.
    pub correct: bool,
    /// Operations attempted (trajectories, decisions or simulations).
    pub attempted: u64,
    /// Operations that returned an error, plus every operation of a run
    /// whose outputs failed the reference check.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Context printed beside the result: sample counts, errors, gaps.
    pub notes: BTreeMap<String, Json>,
    /// Deterministic counts of the traced run.
    pub exact_counts: BTreeMap<String, u64>,
}

impl Outcome {
    /// Record a note.
    pub fn note(&mut self, key: &str, value: Json) {
        self.notes.insert(key.to_string(), value);
    }

    /// Account one checked round of `ops` operations whose output digest
    /// is `digest`: a library error fails its operations and, since there
    /// is no output to check, the reference check too. Returns the round's
    /// mismatch count (0 or 1).
    pub fn check_round<E: std::fmt::Display>(
        &mut self,
        workload: &str,
        class: u64,
        ops: u64,
        digest: Result<u64, E>,
    ) -> usize {
        self.attempted += ops;
        match digest {
            Ok(d) => usize::from(reference(workload, class) != Some(d)),
            Err(e) => {
                self.failed += ops;
                self.note("error", Json::Str(e.to_string()));
                1
            }
        }
    }

    /// Apply the output check: a run with any mismatched round counts
    /// every operation as failed.
    pub fn finish_check(&mut self, mismatches: usize) {
        self.note("digest_mismatches", Json::Num(mismatches as f64));
        self.correct = mismatches == 0;
        if !self.correct {
            self.failed = self.attempted;
        }
    }
}

const REFERENCE: &str = include_str!("../reference.txt");

/// The stored digest of `workload`'s input class `class`, if recorded.
pub fn reference(workload: &str, class: u64) -> Option<u64> {
    REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|line| {
            let mut f = line.split_whitespace();
            let (w, c, d) = (f.next()?, f.next()?, f.next()?);
            (w == workload && c.parse::<u64>().ok()? == class)
                .then(|| u64::from_str_radix(d, 16).ok())
                .flatten()
        })
}

/// One line of `reference.txt`.
pub fn reference_line(workload: &str, class: u64, digest: u64) -> String {
    format!("{workload} {class} {digest:016x}")
}

/// Load the 600-row dataset shipped beside the benchmark.
pub fn load_dataset(path: &Path) -> Result<Dataset, String> {
    let samples = al_dataset::io::read_csv(path)
        .map_err(|e| format!("cannot read dataset {}: {e}", path.display()))?;
    Ok(Dataset::new(samples))
}

/// Run `setup` `reps` (≥ 1) times from scratch, dropping each result
/// before the next; push each time in seconds onto `times` and return the
/// last inputs.
pub fn timed_setup<T>(
    reps: usize,
    setup: &impl Fn() -> Result<T, String>,
    times: &mut Vec<f64>,
) -> Result<T, String> {
    let mut kept = None;
    for _ in 0..reps.max(1) {
        drop(kept.take());
        let started = Instant::now();
        let inputs = setup()?;
        times.push(started.elapsed().as_secs_f64());
        kept = Some(inputs);
    }
    kept.ok_or_else(|| "set-up never ran".to_string())
}

/// Milliseconds in a duration given in nanoseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Median of durations given in nanoseconds, in milliseconds (0 when
/// there are none).
pub fn median_ms(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let v: Vec<f64> = ns.iter().map(|&d| ms(d)).collect();
    al_linalg::stats::median(&v)
}

#[cfg(test)]
mod tests {
    use super::{reference, Outcome};

    fn checked(digest: Result<u64, &str>) -> Outcome {
        let mut out = Outcome::default();
        let ok = out.check_round(
            "amr_sweep",
            0,
            16,
            Ok::<u64, &str>(reference("amr_sweep", 0).unwrap()),
        );
        let bad = out.check_round("amr_sweep", 1, 16, digest);
        out.finish_check(ok + bad);
        out
    }

    #[test]
    fn a_matching_round_passes() {
        let out = checked(Ok(reference("amr_sweep", 1).unwrap()));
        assert!(out.correct);
        assert_eq!((out.attempted, out.failed), (32, 0));
    }

    #[test]
    fn a_library_error_fails_the_whole_run() {
        let out = checked(Err("solver truncated"));
        assert!(!out.correct);
        assert_eq!((out.attempted, out.failed), (32, 32));
        assert!(out.notes.contains_key("error"));
    }

    #[test]
    fn a_wrong_digest_fails_the_whole_run() {
        let out = checked(Ok(reference("amr_sweep", 1).unwrap() ^ 1));
        assert!(!out.correct);
        assert_eq!((out.attempted, out.failed), (32, 32));
    }
}
