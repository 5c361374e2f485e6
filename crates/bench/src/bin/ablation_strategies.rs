//! Extended strategy comparison: the paper's five algorithms plus the two
//! extension strategies (`MaxSigmaMA`, `CostWeightedSigma`), under a
//! memory limit. Attribution question: how much of RGMA's regret win
//! comes from the feasibility filter alone (MaxSigmaMA vs MaxSigma), and
//! where does the deterministic σ−λμ interpolation land?
//!
//! Run: `cargo run -p al-bench --release --bin ablation_strategies
//!       [--fast] [--trajectories N]`

use al_bench::cli::Args;
use al_bench::data::paper_dataset;
use al_core::{run_batch, AlOptions, BatchSpec, StrategyKind};
use al_linalg::stats;

fn main() {
    let args = Args::parse(&[]);
    let dataset = paper_dataset(args.fast, args.threads);
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
    let opts = AlOptions {
        mem_limit_log: Some(lmem_log),
        max_iterations: Some(150),
        ..AlOptions::default()
    };
    let spec = BatchSpec {
        strategies: strategies.clone(),
        n_init: 50,
        n_test: 200,
        n_trajectories: args.trajectories,
        base_seed: args.seed,
        n_threads: args.threads,
    };
    let started = al_bench::clock::now();
    let results = run_batch(&dataset, &spec, &opts).expect("batch");
    println!(
        "EXTENDED STRATEGY COMPARISON ({} trajectories per strategy, {:.0}s)",
        args.trajectories,
        started.elapsed().as_secs_f64()
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
