//! The payoff the paper motivates: once AL has produced trustworthy cost
//! and memory surrogates, the experimenter can *invert* them — "which is
//! the highest-resolution simulation I can afford within my budget and
//! memory limit?" — without running a single extra job.
//!
//! Trains surrogates on a small measured dataset, then scans the full
//! candidate grid for the best predicted-affordable configuration, using
//! posterior uncertainty for a safety margin (μ + 2σ must fit the budget).
//!
//! Run: `cargo run --release --example inverse_problem`

// Examples abort on failure by design, so they opt out of the
// workspace's clippy panic lints.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use al_for_amr::amr::{run_simulation, MachineModel, SolverProfile};
use al_for_amr::dataset::transform::unlog10_response;
use al_for_amr::dataset::{generate_parallel, Dataset, GenerateOptions, SweepGrid};
use al_for_amr::gp::{FitOptions, GpModel, KernelKind};
use al_for_amr::linalg::Matrix;

/// Budget for one simulation, node-hours.
const BUDGET: f64 = 0.02;

/// Memory limit per process, MB.
const MEM_LIMIT: f64 = 2.0;

fn main() {
    // Measure a subset of the space (the AL phase; uniform here for
    // brevity — see `memory_aware_sweep` for the full RGMA loop).
    println!("measuring 28 training configurations...");
    let grid = SweepGrid::small();
    let jobs = grid.draw_jobs(28, 0, 5);
    let samples = generate_parallel(
        &jobs,
        &GenerateOptions {
            profile: SolverProfile::smoke(),
            machine: MachineModel::default(),
            n_threads: 0,
        },
    )
    .expect("dataset generation");
    let dataset = Dataset::new(samples);
    let idx: Vec<usize> = (0..dataset.len()).collect();

    let fit = FitOptions::default();
    let mut gp_cost = GpModel::new(KernelKind::Rbf.build(0.3), 1e-3);
    gp_cost
        .fit_optimized(
            &dataset.features_scaled(&idx),
            &dataset.log_cost(&idx),
            &fit,
        )
        .expect("cost fit");
    let mut gp_mem = GpModel::new(KernelKind::Rbf.build(0.3), 1e-3);
    gp_mem
        .fit_optimized(
            &dataset.features_scaled(&idx),
            &dataset.log_memory(&idx),
            &fit,
        )
        .expect("memory fit");

    // Invert: scan every grid configuration, keep those whose pessimistic
    // (μ + 2σ) predictions satisfy both constraints, rank by resolution.
    println!(
        "\nscanning {} candidate configurations (budget {BUDGET} node-hours, limit {MEM_LIMIT} MB)...",
        grid.n_combinations()
    );
    let candidates = grid.all_configs();
    let rows: Vec<f64> = candidates
        .iter()
        .flat_map(|c| dataset.scaler().transform(&c.features()))
        .collect();
    let xq = Matrix::from_vec(candidates.len(), 5, rows);
    let pc = gp_cost.predict(&xq).expect("predict cost");
    let pm = gp_mem.predict(&xq).expect("predict memory");

    let mut affordable: Vec<(usize, f64)> = (0..candidates.len())
        .filter(|&i| {
            unlog10_response(pc.mean[i] + 2.0 * pc.std[i]) <= BUDGET
                && unlog10_response(pm.mean[i] + 2.0 * pm.std[i]) <= MEM_LIMIT
        })
        .map(|i| {
            // Effective resolution = mx · 2^maxlevel.
            let c = &candidates[i];
            (i, (c.mx as f64) * f64::from(1u32 << c.maxlevel))
        })
        .collect();
    affordable.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());

    println!(
        "{} of {} configurations predicted affordable; top 5 by resolution:\n",
        affordable.len(),
        candidates.len()
    );
    println!(
        "{:>4} {:>3} {:>9} {:>5} {:>6} {:>10} {:>22} {:>20}",
        "p", "mx", "maxlevel", "r0", "rhoin", "eff.res", "pred cost (±2σ hi)", "pred mem (±2σ hi)"
    );
    for &(i, res) in affordable.iter().take(5) {
        let c = &candidates[i];
        println!(
            "{:>4} {:>3} {:>9} {:>5.2} {:>6.2} {:>10} {:>11.4} ({:>8.4}) {:>9.3} ({:>8.3})",
            c.p,
            c.mx,
            c.maxlevel,
            c.r0,
            c.rhoin,
            res as u64,
            unlog10_response(pc.mean[i]),
            unlog10_response(pc.mean[i] + 2.0 * pc.std[i]),
            unlog10_response(pm.mean[i]),
            unlog10_response(pm.mean[i] + 2.0 * pm.std[i]),
        );
    }

    // Verify the recommendation by actually running it.
    if let Some(&(best, _)) = affordable.first() {
        let config = candidates[best];
        println!("\nverifying the top recommendation by running it: {config:?}");
        let outcome = run_simulation(&config, SolverProfile::smoke(), &MachineModel::default(), 0)
            .expect("simulation");
        println!(
            "measured: cost {:.4} node-hours (budget {BUDGET}), memory {:.3} MB (limit {MEM_LIMIT})",
            outcome.cost_node_hours, outcome.memory_mb
        );
        let ok_cost = outcome.cost_node_hours.value() <= BUDGET * 1.5;
        let ok_mem = outcome.memory_mb.value() <= MEM_LIMIT * 1.5;
        println!(
            "within 1.5x of the constraints: cost {} / memory {}",
            if ok_cost { "yes" } else { "NO" },
            if ok_mem { "yes" } else { "NO" }
        );
    } else {
        println!("\nno configuration fits the constraints — relax the budget.");
    }
}
