//! `fig3_batch`: the paper's own outer loop (Fig. 3).
//!
//! `run_batch` over the five paper strategies × 2 shared partitions of the
//! 600-row dataset: `n_init = 50`, `n_test = 200`, `L_mem` at the 90th
//! percentile, 200 iterations with full refits, 2 batch workers. Ten
//! equal-length jobs divide evenly over the two workers. Models grow from
//! n = 50 to 250, so this is the blocked-Cholesky path and the heavy user
//! of `gp.fit_optimized` and `gp.fit`; it never touches `core::store` or
//! `amr`.

use crate::common::{self, Metric, Outcome};
use crate::digest::{self, Digest};
use crate::layers::{self, TracedRun};
use crate::replica::traced_trajectory;
use crate::trace::{fan_out, Trace};
use al_bench::json::Json;
use al_core::{run_batch, AlOptions, BatchSpec, SessionConfig, StrategyKind, Trajectory};
use al_dataset::{Dataset, Partition};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "fig3_batch";

/// Input classes: class `q` runs partitions `2q` and `2q + 1`. A run with
/// seed `s` starts at class `s mod CLASSES`.
pub const CLASSES: u64 = 8;

/// Initial-partition size (the `fig3` binary at `n_init = 50`).
const N_INIT: usize = 50;
/// Test-partition size.
const N_TEST: usize = 200;
/// AL iterations per trajectory.
pub const ITERATIONS: usize = 200;
/// Shared partitions per batch; with the five strategies, ten jobs.
const PARTITIONS: usize = 2;
/// `run_batch` worker threads.
const WORKERS: usize = 2;
/// Jobs per batch: the five paper strategies × [`PARTITIONS`].
const JOBS: u64 = 5 * PARTITIONS as u64;

/// Everything set-up builds.
pub struct Inputs {
    dataset: Dataset,
    opts: AlOptions,
}

/// Load the dataset and build the loop options for trajectories of
/// `iterations` steps ([`ITERATIONS`] in the benchmark; tests shorten it).
pub fn setup(data: &Path, iterations: usize) -> Result<Inputs, String> {
    let dataset = common::load_dataset(data)?;
    let opts = AlOptions {
        mem_limit_log: Some(dataset.memory_limit_log_percentile(0.90)),
        max_iterations: Some(iterations),
        ..AlOptions::default()
    };
    Ok(Inputs { dataset, opts })
}

fn batch_spec(class: u64) -> BatchSpec {
    BatchSpec {
        strategies: StrategyKind::paper_five().to_vec(),
        n_init: N_INIT,
        n_test: N_TEST,
        n_trajectories: PARTITIONS,
        base_seed: class * PARTITIONS as u64,
        n_threads: WORKERS,
    }
}

/// Digest and selection count of a batch, strategy by strategy in job
/// order.
fn batch_digest(results: &[(StrategyKind, Vec<Trajectory>)]) -> (u64, usize) {
    let mut d = Digest::default();
    let mut selections = 0;
    for (_, trajectories) in results {
        for t in trajectories {
            digest::trajectory(&mut d, t);
            selections += t.len();
        }
    }
    (d.value(), selections)
}

/// Digest of class `class` through the library's own `run_batch`.
pub fn class_digest(inputs: &Inputs, class: u64) -> Result<u64, String> {
    let results = run_batch(&inputs.dataset, &batch_spec(class), &inputs.opts)
        .map_err(|e| format!("run_batch failed: {e}"))?;
    Ok(batch_digest(&results).0)
}

/// The timed run: whole batches, one class after another, until
/// `seconds` have passed (at least one batch).
pub fn run(inputs: &Inputs, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut makespans_ms = Vec::new();
    let (mut selections, mut mismatches) = (0usize, 0usize);
    let started = Instant::now();
    for round in 0u64.. {
        let class = (seed + round) % CLASSES;
        let t0 = Instant::now();
        let result = run_batch(&inputs.dataset, &batch_spec(class), &inputs.opts);
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        let digest = result.map(|results| {
            makespans_ms.push(elapsed_ms);
            let (d, n) = batch_digest(&results);
            selections += n;
            d
        });
        mismatches += out.check_round(NAME, class, JOBS, digest);
        if started.elapsed() >= Duration::from_secs_f64(seconds) {
            break;
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    out.metrics = vec![
        Metric::new("throughput_per_s", selections as f64 / wall_s, "1/s"),
        Metric::new(
            "latency_p50_ms",
            al_linalg::stats::median(&makespans_ms),
            "ms",
        ),
    ];
    out.note("batches", Json::Num(makespans_ms.len() as f64));
    out.note("selections", Json::Num(selections as f64));
    out.finish_check(mismatches);
    out
}

/// The traced run: one batch (class `seed mod CLASSES`) through the
/// session replica, fanned out over the same job list, seeds and worker
/// count as `run_batch`.
pub fn run_traced(inputs: &Inputs, seed: u64, origin: Instant) -> (Outcome, Trace) {
    let class = seed % CLASSES;
    let spec = batch_spec(class);
    let job_list: Vec<(usize, usize)> = (0..spec.strategies.len())
        .flat_map(|s| (0..spec.n_trajectories).map(move |t| (s, t)))
        .collect();
    let workers = spec.n_threads.min(job_list.len());
    let started = Instant::now();
    let (results, tracers) = fan_out(job_list.len(), workers, origin, |k, tr| {
        let (s, t) = job_list[k];
        tr.enter("core.batch.job");
        let mut prng = StdRng::seed_from_u64(spec.base_seed.wrapping_add(t as u64));
        let partition =
            Partition::random(inputs.dataset.len(), spec.n_init, spec.n_test, &mut prng);
        let opts = AlOptions {
            seed: spec
                .base_seed
                .wrapping_add((t as u64) << 8)
                .wrapping_add(s as u64),
            ..inputs.opts.clone()
        };
        let config =
            SessionConfig::from_partition(&inputs.dataset, &partition, spec.strategies[s], &opts);
        let result = traced_trajectory(&inputs.dataset, config, tr);
        tr.exit();
        result
    });
    let wall_ns = started.elapsed().as_nanos() as u64;
    let trace = Trace::merge(tracers);

    let mut out = Outcome::default();
    let mut per_strategy: Vec<(StrategyKind, Vec<Trajectory>)> =
        spec.strategies.iter().map(|&k| (k, Vec::new())).collect();
    let digest = job_list
        .iter()
        .zip(results)
        .try_for_each(|(&(s, _), result)| result.map(|t| per_strategy[s].1.push(t)))
        .map(|()| batch_digest(&per_strategy).0);
    let mismatches = out.check_round(NAME, class, JOBS, digest);
    let traced = TracedRun {
        trace: &trace,
        wall_ns,
        workers,
        root: "core.batch.job",
        replay_ns: None,
    };
    out.metrics = layers::per_layer(&traced);
    out.note("coverage_gap", layers::coverage_gap(&traced));
    out.exact_counts = trace.exact_counts();
    out.finish_check(mismatches);
    (out, trace)
}
