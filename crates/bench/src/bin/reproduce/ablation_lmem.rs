//! Memory-limit sensitivity: how RGMA's cumulative regret, early stopping
//! and feasible-pool size respond as `L_mem` sweeps from restrictive to
//! permissive (the paper fixes it at the 95% quantile of log memory).

use crate::Ctx;
use al_core::{run_trajectory, AlOptions, StopReason, StrategyKind};

pub(crate) fn run(ctx: &Ctx) {
    let (args, dataset) = (&ctx.args, ctx.dataset());

    let partition = ctx.partition(50, args.seed);

    println!("L_MEM SENSITIVITY (RGMA, 200-iteration cap)\n");
    println!(
        "{:>9} {:>12} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "quantile", "L_mem (MB)", "feasible%", "iterations", "CR", "violations", "stop"
    );
    for quantile in [0.30, 0.50, 0.75, 0.85, 0.95, 1.00] {
        let lmem_log = dataset.memory_limit_log(quantile);
        let lmem_raw = lmem_log.to_megabytes();
        let feasible = partition
            .active
            .iter()
            .filter(|&&i| dataset.sample(i).memory_mb < lmem_raw)
            .count();
        let opts = AlOptions {
            mem_limit_log: Some(lmem_log),
            max_iterations: Some(200),
            seed: args.seed,
            ..AlOptions::default()
        };
        let t = run_trajectory(
            dataset,
            &partition,
            StrategyKind::Rgma { base: 10.0 },
            &opts,
        )
        .expect("trajectory");
        let stop = match t.stop_reason {
            StopReason::AllCandidatesRefused => "all-refused",
            StopReason::ActiveExhausted => "exhausted",
            StopReason::MaxIterations => "max-iter",
            StopReason::PredictionsStabilized => "stabilized",
            StopReason::HyperparamsStabilized => "hp-stable",
        };
        println!(
            "{:>9.2} {:>12.3} {:>9.1}% {:>12} {:>12.3} {:>12} {:>12}",
            quantile,
            lmem_raw,
            100.0 * feasible as f64 / partition.active.len() as f64,
            t.len(),
            t.total_regret(),
            t.violations(),
            stop
        );
    }
    println!(
        "\nexpected: tighter limits shrink the feasible pool, trigger earlier\n\
         all-refused stops, and (because RGMA filters on predictions) keep\n\
         violations near zero once the memory model has learned the boundary."
    );
}
