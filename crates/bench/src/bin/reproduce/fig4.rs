//! Fig. 4: AL "progress" — non-log RMSE of the cost and memory models on
//! the Test partition, vs iteration and vs cumulative cost, for all five
//! algorithms and `n_init ∈ {1, 50, 100}`.
//!
//! Expected shape: all algorithms reduce RMSE as samples accrue; per unit
//! of *cumulative cost*, the cost-efficient algorithms (RandGoodness,
//! RGMA, MinPred) dominate MaxSigma/RandUniform early; RGMA trajectories
//! can stop early when all remaining candidates are predicted to violate
//! the memory limit.
//!
//! `--weighted` additionally reports the cost-weighted RMSE of Eq. 12.

use crate::report::format_curves;
use crate::{fit_gp, mean_of, Ctx};
use al_core::metrics::{cost_weights, rmse_nonlog, weighted_rmse_nonlog};
use al_core::trajectory::mean_curve;
use al_core::{run_trajectory, AlOptions, StrategyKind};
use al_gp::{FitOptions, KernelKind};
use al_units::LogMegabytes;

pub(crate) fn run(ctx: &Ctx) {
    let args = &ctx.args;
    let lmem_log = crate::fig3::lmem(ctx);

    println!("FIG 4: RMSE trajectories (Test partition, non-log units)\n");
    for n_init in [1usize, 50, 100] {
        let (results, secs) = ctx.batch(StrategyKind::paper_five().to_vec(), n_init, lmem_log, 200);
        println!(
            "--- n_init = {n_init} ({} trajectories per strategy, {secs:.0}s) ---\n",
            args.trajectories
        );
        let labels: Vec<&str> = results.iter().map(|(k, _)| k.label()).collect();

        println!("(a) cost-model RMSE vs iteration");
        let rmse_curves: Vec<Vec<f64>> = results
            .iter()
            .map(|(_, ts)| mean_curve(ts, |r| r.rmse_cost))
            .collect();
        println!("{}", format_curves(&labels, &rmse_curves, 20));

        println!("(b) memory-model RMSE vs iteration");
        let mem_curves: Vec<Vec<f64>> = results
            .iter()
            .map(|(_, ts)| mean_curve(ts, |r| r.rmse_mem))
            .collect();
        println!("{}", format_curves(&labels, &mem_curves, 20));

        println!("(c) cost-model RMSE vs cumulative cost (node-hours)");
        for (kind, ts) in &results {
            let cc = mean_curve(ts, |r| r.cumulative_cost.value());
            let rm = mean_curve(ts, |r| r.rmse_cost);
            // Sample a few milestones along the cumulative-cost axis.
            print!("{:<14}", kind.label());
            for frac in [0.1, 0.25, 0.5, 1.0] {
                let i = ((cc.len() as f64 * frac) as usize).saturating_sub(1);
                if let (Some(c), Some(r)) = (cc.get(i), rm.get(i)) {
                    print!("  CC={c:8.2} -> RMSE={r:8.4}");
                }
            }
            println!();
        }
        println!();

        // Paper-style summary: initial vs final RMSE per strategy.
        println!("(d) initial vs final RMSE (cost model)");
        for (kind, ts) in &results {
            let init = mean_of(ts, |t| t.initial_rmse_cost);
            let fin: f64 = ts
                .iter()
                .filter_map(|t| t.records.last().map(|r| r.rmse_cost))
                .sum::<f64>()
                / ts.len().max(1) as f64;
            let cost = mean_of(ts, |t| t.total_cost().value());
            println!(
                "{:<14} initial {init:8.4} -> final {fin:8.4}  (mean total cost {cost:8.2} node-hours)",
                kind.label()
            );
        }
        println!();
    }

    if args.has_flag("--weighted") {
        weighted_rmse_report(ctx, lmem_log);
    }
}

/// Eq. 12 ablation: compare uniform and cost-weighted RMSE of a model
/// trained by RandGoodness — expensive-region errors dominate the weighted
/// metric, showing why scale-dependent weighting matters for cost-aware AL.
fn weighted_rmse_report(ctx: &Ctx, lmem_log: LogMegabytes) {
    let (args, dataset) = (&ctx.args, ctx.dataset());

    println!("--- weighted RMSE (Eq. 12) ---");
    let partition = ctx.partition(50, args.seed);
    let opts = AlOptions {
        mem_limit_log: Some(lmem_log),
        max_iterations: Some(150),
        seed: args.seed,
        ..AlOptions::default()
    };
    let t = run_trajectory(
        dataset,
        &partition,
        StrategyKind::RandGoodness { base: 10.0 },
        &opts,
    )
    .expect("trajectory");

    // Refit a model on everything the trajectory learned and compare
    // uniform vs cost-weighted test error.
    let mut learned = partition.init.clone();
    learned.extend(t.records.iter().map(|r| r.dataset_index));
    let (x, y) = (
        dataset.features_scaled(&learned),
        dataset.log_cost(&learned),
    );
    let gp = fit_gp(KernelKind::Rbf, &x, &y, &FitOptions::default());
    let pred = gp
        .predict(&dataset.features_scaled(&partition.test))
        .expect("predict");
    let actual = dataset.raw_cost(&partition.test);
    let uniform = rmse_nonlog(&pred.mean, &actual);
    let weighted = weighted_rmse_nonlog(&pred.mean, &actual, &cost_weights(&actual));
    println!("uniform RMSE  = {uniform:.4} node-hours");
    println!("cost-weighted = {weighted:.4} node-hours (expensive samples dominate)");
}
