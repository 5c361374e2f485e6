//! Table I: descriptive statistics of the 600-sample AMR shock-bubble
//! dataset (min / median / mean / max of the 5 features and 3 responses).

use crate::Ctx;
use al_dataset::TableSummary;

pub(crate) fn run(ctx: &Ctx) {
    let dataset = ctx.dataset();

    println!("TABLE I: Parameters of the AMR shock-bubble simulation dataset");
    println!("({} samples)\n", dataset.len());
    let summary = TableSummary::of(dataset);
    println!("{}", summary.format());
    println!(
        "cost dynamic range (max/min): {:.3e}   (paper reports 5.4e3)",
        summary.cost_dynamic_range()
    );
    println!(
        "memory limit L_mem (95% of max log10 memory): {:.3} log10 MB = {:.2} MB",
        dataset.memory_limit_log(0.95),
        dataset.memory_limit_log(0.95).to_megabytes()
    );
}
