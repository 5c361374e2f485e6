//! `amr_sweep`: the data-generation path that feeds the stack.
//!
//! `generate_parallel` over a fixed slice of the dataset's own job draw
//! (`SweepGrid::default().draw_jobs`, seed 2018) with the `fast` solver
//! profile and 2 workers. It loads `amr` and the `dataset::generate`
//! fan-out while every GP layer sits idle, and writes nothing to disk.
//!
//! Every class runs the same configurations, so every round does the
//! same solver work; a class changes only the repeat indices, i.e. the
//! machine-noise realization of each sample.

use crate::common::{Metric, Outcome};
use crate::digest::{self, Digest};
use crate::layers::{self, TracedRun};
use crate::replica::traced_simulation;
use crate::trace::{fan_out, Trace, Tracer};
use al_amr_sim::{AmrError, MachineModel, SimulationConfig, SolverProfile};
use al_bench::data::{DATASET_SEED, N_REPEATS, N_UNIQUE};
use al_bench::json::Json;
use al_dataset::{generate_parallel, GenerateOptions, Sample, SweepGrid};
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "amr_sweep";

/// Input classes; round `r` of a run with seed `s` uses class
/// `(s + r) mod CLASSES`.
pub const CLASSES: u64 = 16;

/// Jobs taken from the front of the dataset's job draw.
const JOBS: usize = 16;
/// `generate_parallel` worker threads.
const WORKERS: usize = 2;
/// Generation calls in the traced run.
pub const TRACED_ROUNDS: usize = 4;

fn profile() -> SolverProfile {
    SolverProfile::fast()
}

/// Everything set-up builds: the fixed job slice.
pub struct Inputs {
    jobs: Vec<(SimulationConfig, u32)>,
}

/// Draw the dataset's job list and keep the benchmark's slice.
pub fn setup() -> Result<Inputs, String> {
    let mut jobs = SweepGrid::default().draw_jobs(N_UNIQUE, N_REPEATS, DATASET_SEED);
    if jobs.len() < JOBS {
        return Err(format!("job draw has {} jobs, need {JOBS}", jobs.len()));
    }
    jobs.truncate(JOBS);
    Ok(Inputs { jobs })
}

fn class_jobs(inputs: &Inputs, class: u64) -> Vec<(SimulationConfig, u32)> {
    let offset = 1000 * class as u32;
    inputs
        .jobs
        .iter()
        .map(|&(config, repeat)| (config, repeat + offset))
        .collect()
}

fn options() -> GenerateOptions {
    GenerateOptions {
        profile: profile(),
        machine: MachineModel::default(),
        n_threads: WORKERS,
    }
}

fn samples_digest(samples: &[Sample]) -> u64 {
    let mut d = Digest::default();
    for s in samples {
        digest::sample(&mut d, s);
    }
    d.value()
}

/// Digest of class `class` through the library's `generate_parallel`.
pub fn class_digest(inputs: &Inputs, class: u64) -> Result<u64, String> {
    let samples = generate_parallel(&class_jobs(inputs, class), &options())
        .map_err(|e| format!("generation failed: {e}"))?;
    Ok(samples_digest(&samples))
}

/// The timed run: whole generation calls until `seconds` have passed.
pub fn run(inputs: &Inputs, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let opts = options();
    let mut makespans_ms = Vec::new();
    let (mut sims, mut mismatches) = (0u64, 0usize);
    let started = Instant::now();
    for round in 0u64.. {
        let class = (seed + round) % CLASSES;
        let jobs = class_jobs(inputs, class);
        let t0 = Instant::now();
        let result = generate_parallel(&jobs, &opts);
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        let digest = result.map(|samples| {
            makespans_ms.push(elapsed_ms);
            sims += samples.len() as u64;
            samples_digest(&samples)
        });
        mismatches += out.check_round(NAME, class, jobs.len() as u64, digest);
        if started.elapsed() >= Duration::from_secs_f64(seconds) {
            break;
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    out.metrics = vec![
        Metric::new("throughput_per_s", sims as f64 / wall_s, "1/s"),
        Metric::new(
            "latency_p50_ms",
            al_linalg::stats::median(&makespans_ms),
            "ms",
        ),
    ];
    out.note("generate_calls", Json::Num(makespans_ms.len() as f64));
    out.finish_check(mismatches);
    out
}

/// One traced generation call: the simulation replica fanned out over
/// the same job order and worker count as `generate_parallel`.
fn traced_round(
    jobs: &[(SimulationConfig, u32)],
    origin: Instant,
) -> (Vec<Result<Sample, AmrError>>, Vec<Tracer>) {
    let machine = MachineModel::default();
    fan_out(jobs.len(), WORKERS, origin, |i, tr| {
        let (config, repeat) = jobs[i];
        tr.enter("amr.sim");
        let result = traced_simulation(&config, profile(), &machine, repeat, tr);
        tr.exit();
        if let Ok(outcome) = &result {
            let w = outcome.work;
            tr.count("amr.cell_updates", w.cell_updates);
            tr.count("amr.ghost_cells", w.ghost_cells);
            tr.count("amr.level_steps", w.level_steps);
            tr.count("amr.regrid_count", w.regrid_count);
        }
        result.map(Sample::from)
    })
}

/// The traced run: `rounds` generation calls ([`TRACED_ROUNDS`] in the
/// benchmark) through the replica.
pub fn run_traced(inputs: &Inputs, seed: u64, rounds: usize, origin: Instant) -> (Outcome, Trace) {
    let mut out = Outcome::default();
    let mut tracers = Vec::new();
    let mut mismatches = 0;
    let started = Instant::now();
    for round in 0..rounds as u64 {
        let class = (seed + round) % CLASSES;
        let (slots, round_tracers) = traced_round(&class_jobs(inputs, class), origin);
        tracers.extend(round_tracers);
        let ops = slots.len() as u64;
        let digest = slots
            .into_iter()
            .collect::<Result<Vec<Sample>, AmrError>>()
            .map(|samples| samples_digest(&samples));
        mismatches += out.check_round(NAME, class, ops, digest);
    }
    let wall_ns = started.elapsed().as_nanos() as u64;
    let trace = Trace::merge(tracers);
    let traced = TracedRun {
        trace: &trace,
        wall_ns,
        workers: WORKERS,
        root: "amr.sim",
        replay_ns: None,
    };
    out.metrics = layers::per_layer(&traced);
    out.note("coverage_gap", layers::coverage_gap(&traced));
    out.exact_counts = trace.exact_counts();
    out.finish_check(mismatches);
    (out, trace)
}
