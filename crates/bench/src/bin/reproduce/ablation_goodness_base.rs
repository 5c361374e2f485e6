//! Goodness-base ablation: the paper argues base 10 is "the most intuitive
//! option" (matching the log10 transform) and that "higher bases will lead
//! to more skewed candidate distributions". This experiment quantifies
//! that: for `base ∈ {e, 10, 100}`, how skewed are RandGoodness's
//! selections and how does the cost/error trade-off change?

use crate::report::format_violin;
use crate::Ctx;
use al_core::{run_trajectory, AlOptions, StrategyKind};
use al_linalg::stats;

pub(crate) fn run(ctx: &Ctx) {
    let (args, dataset) = (&ctx.args, ctx.dataset());

    let partition = ctx.partition(50, args.seed);
    let pool_median = stats::median(&dataset.raw_cost(&partition.active));
    println!(
        "GOODNESS-BASE ABLATION (150 iterations, Active-pool median cost = {pool_median:.3})\n"
    );

    for base in [std::f64::consts::E, 10.0, 100.0] {
        let opts = AlOptions {
            max_iterations: Some(150),
            seed: args.seed,
            ..AlOptions::default()
        };
        let t = run_trajectory(
            dataset,
            &partition,
            StrategyKind::RandGoodness { base },
            &opts,
        )
        .expect("trajectory");
        let costs = t.selected_costs(150);
        let log_costs: Vec<f64> = costs.iter().map(|c| c.log10()).collect();
        println!("base = {base:<8.3}");
        print!("{}", format_violin("  selected log10 cost", &log_costs, 10));
        let final_rmse = t.records.last().map(|r| r.rmse_cost).unwrap_or(f64::NAN);
        println!(
            "  total cost = {:.2} node-hours, final cost RMSE = {:.4}\n",
            t.total_cost(),
            final_rmse
        );
    }
    println!(
        "expected: larger bases concentrate selections on cheaper samples\n\
         (lower median, smaller total cost) at some loss of exploration."
    );
}
