//! Quickstart: generate a small AMR performance dataset, run one
//! cost-aware active-learning trajectory, and watch the model error fall.
//!
//! Run: `cargo run --release --example quickstart`

// Examples abort on failure by design, so they opt out of the
// workspace's clippy panic lints.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use al_for_amr::al::{run_trajectory, AlOptions, StrategyKind};
use al_for_amr::amr::{MachineModel, SolverProfile};
use al_for_amr::dataset::{generate_parallel, Dataset, GenerateOptions, Partition, SweepGrid};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. Build a small sweep (32 configurations + 8 repeats) and measure
    //    every job with the real AMR solver + machine model.
    println!("generating a small dataset (40 AMR simulations)...");
    let jobs = SweepGrid::small().draw_jobs(32, 8, 42);
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
    println!(
        "dataset ready: {} samples, cost range [{:.4}, {:.4}] node-hours\n",
        dataset.len(),
        dataset
            .samples()
            .iter()
            .map(|s| s.cost_node_hours.value())
            .fold(f64::INFINITY, f64::min),
        dataset
            .samples()
            .iter()
            .map(|s| s.cost_node_hours.value())
            .fold(f64::NEG_INFINITY, f64::max),
    );

    // 2. Partition: 12 test samples, 4 initial, the rest form the Active
    //    pool AL selects from.
    let mut rng = StdRng::seed_from_u64(7);
    let partition = Partition::random(dataset.len(), 4, 12, &mut rng);

    // 3. Run cost-aware AL (RandGoodness: cheap samples are proportionally
    //    more likely, expensive ones still get explored).
    let trajectory = run_trajectory(
        &dataset,
        &partition,
        StrategyKind::RandGoodness { base: 10.0 },
        &AlOptions::default(),
    )
    .expect("AL trajectory");

    println!("iter  selected-cost  cumulative-cost  cost-RMSE");
    println!(
        "init  {:>13}  {:>15}  {:>9.4}",
        "-", "-", trajectory.initial_rmse_cost
    );
    for r in &trajectory.records {
        println!(
            "{:>4}  {:>13.4}  {:>15.4}  {:>9.4}",
            r.iteration, r.cost, r.cumulative_cost, r.rmse_cost
        );
    }
    println!(
        "\nstopped: {:?}; total cost {:.3} node-hours",
        trajectory.stop_reason,
        trajectory.total_cost()
    );
}
