//! Extended strategy comparison: the paper's five algorithms plus the two
//! extension strategies (`MaxSigmaMA`, `CostWeightedSigma`), under a
//! memory limit. Attribution question: how much of RGMA's regret win
//! comes from the feasibility filter alone (MaxSigmaMA vs MaxSigma), and
//! where does the deterministic σ−λμ interpolation land?

use crate::Ctx;
use al_core::StrategyKind;
use al_linalg::stats;

pub(crate) fn run(ctx: &Ctx) {
    let (args, dataset) = (&ctx.args, ctx.dataset());
    let lmem_log = dataset.memory_limit_log_percentile(0.90);

    let strategies = vec![
        StrategyKind::RandUniform,
        StrategyKind::MaxSigma,
        StrategyKind::MaxSigmaMa,
        StrategyKind::MinPred,
        StrategyKind::CostWeightedSigma { lambda: 0.5 },
        StrategyKind::RandGoodness { base: 10.0 },
        StrategyKind::Rgma { base: 10.0 },
    ];
    let (results, secs) = ctx.batch(strategies, 50, lmem_log, 150);
    println!(
        "EXTENDED STRATEGY COMPARISON ({} trajectories per strategy, {secs:.0}s)",
        args.trajectories
    );
    println!(
        "L_mem = {:.2} MB ({:.1}% of jobs violate)\n",
        lmem_log.to_megabytes(),
        100.0 * dataset.violating_fraction(lmem_log)
    );
    println!(
        "{:<18} {:>12} {:>12} {:>10} {:>14} {:>14}",
        "strategy", "mean CR", "mean CC", "violations", "final RMSE", "median cost"
    );
    for (kind, ts) in &results {
        let crs: Vec<f64> = ts.iter().map(|t| t.total_regret().value()).collect();
        let ccs: Vec<f64> = ts.iter().map(|t| t.total_cost().value()).collect();
        let viol: Vec<f64> = ts.iter().map(|t| t.violations() as f64).collect();
        let rmse: Vec<f64> = ts
            .iter()
            .filter_map(|t| t.records.last().map(|r| r.rmse_cost))
            .collect();
        let med_costs: Vec<f64> = ts.iter().flat_map(|t| t.selected_costs(150)).collect();
        println!(
            "{:<18} {:>12.3} {:>12.2} {:>10.1} {:>14.4} {:>14.4}",
            kind.label(),
            stats::mean(&crs),
            stats::mean(&ccs),
            stats::mean(&viol),
            stats::mean(&rmse),
            stats::median(&med_costs)
        );
    }
}
