//! Batch-selection ablation (paper Section VI future work): selecting `q`
//! simulations per AL round divides the number of (serial) retraining
//! rounds by `q` at the price of less greedy selection — within a round
//! all `q` picks come from the same stale predictions.

use crate::Ctx;
use al_core::{run_trajectory, AlOptions, StrategyKind};

pub(crate) fn run(ctx: &Ctx) {
    let (args, dataset) = (&ctx.args, ctx.dataset());

    let partition = ctx.partition(50, args.seed);
    const SELECTIONS: usize = 152;

    println!("BATCH-SELECTION ABLATION (RandGoodness, {SELECTIONS} selections)\n");
    println!(
        "{:>6} {:>8} {:>12} {:>14} {:>14} {:>10}",
        "q", "rounds", "total cost", "final RMSE", "RMSE@half", "wall s"
    );
    for q in [1usize, 2, 4, 8] {
        let opts = AlOptions {
            batch_size: q,
            max_iterations: Some(SELECTIONS),
            seed: args.seed,
            ..AlOptions::default()
        };
        let started = al_bench::clock::now();
        let t = run_trajectory(
            dataset,
            &partition,
            StrategyKind::RandGoodness { base: 10.0 },
            &opts,
        )
        .expect("trajectory");
        let rounds = t.len().div_ceil(q);
        let final_rmse = t.records.last().map(|r| r.rmse_cost).unwrap_or(f64::NAN);
        let half_rmse = t
            .records
            .get(t.len() / 2)
            .map(|r| r.rmse_cost)
            .unwrap_or(f64::NAN);
        println!(
            "{q:>6} {rounds:>8} {:>12.3} {final_rmse:>14.4} {half_rmse:>14.4} {:>10.1}",
            t.total_cost(),
            started.elapsed().as_secs_f64()
        );
    }
    println!(
        "\nexpected: per-sample model quality degrades gracefully with q while\n\
         the retraining-round count (the serial bottleneck on a cluster)\n\
         shrinks by the batch factor."
    );
}
