//! Fig. 2: cost distributions of the samples selected in the first 150 AL
//! iterations, per selection algorithm (the paper's violin plots).
//!
//! Expected shape: RandUniform and MaxSigma show unbiased, long-tailed
//! distributions; MinPred and RandGoodness concentrate on inexpensive
//! experiments (low medians, tight IQRs), with RandGoodness keeping a
//! longer exploratory tail than MinPred.

use crate::report::format_violin;
use crate::Ctx;
use al_core::{run_trajectory, AlOptions, StrategyKind};

pub(crate) fn run(ctx: &Ctx) {
    let (args, dataset) = (&ctx.args, ctx.dataset());

    // One trajectory per algorithm on a shared partition, first 150
    // iterations — exactly the figure's setup.
    let partition = ctx.partition(50, args.seed);
    let opts = AlOptions {
        max_iterations: Some(150),
        seed: args.seed,
        ..AlOptions::default()
    };

    println!("FIG 2: cost distribution of the first 150 AL selections\n");
    println!("(violin summaries over actual, not predicted, costs in node-hours;");
    println!(" histogram bins are log10 node-hours)\n");
    for kind in StrategyKind::cost_only_four() {
        let started = al_bench::clock::now();
        let t = run_trajectory(dataset, &partition, kind, &opts).expect("trajectory");
        let costs = t.selected_costs(150);
        let log_costs: Vec<f64> = costs.iter().map(|c| c.log10()).collect();
        print!("{}", format_violin(kind.label(), &costs, 1));
        print!(
            "{}",
            format_violin(&format!("{} (log10)", kind.label()), &log_costs, 12)
        );
        println!(
            "  [{} iterations in {:.1}s]\n",
            t.len(),
            started.elapsed().as_secs_f64()
        );
    }
}
