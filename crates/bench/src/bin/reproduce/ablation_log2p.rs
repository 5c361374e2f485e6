//! Node-count spacing ablation (paper Section V-D, first suggestion):
//! "train GPR models using this exponent as a feature such that the point
//! with 2³ processors is spaced equally from 2² as it is from 2⁴".
//!
//! Fits the cost and memory models on identical training indices with the
//! linear `p` axis and with `log2(p)`, and compares Test RMSE.

use crate::{fit_gp, Ctx};
use al_core::metrics::rmse_nonlog;
use al_dataset::{Dataset, FeatureMap, Partition};
use al_gp::{FitOptions, KernelKind};

fn rmse_pair(dataset: &Dataset, partition: &Partition, seed: u64) -> (f64, f64) {
    let fit = FitOptions {
        n_restarts: 2,
        seed,
        ..FitOptions::default()
    };
    let (init, test) = (&partition.init, &partition.test);
    let x_train = dataset.features_scaled(init);
    let x_test = dataset.features_scaled(test);
    let rmse = |y_train: &[f64], actual: &[f64]| {
        let gp = fit_gp(KernelKind::Rbf, &x_train, y_train, &fit);
        rmse_nonlog(&gp.predict(&x_test).expect("predict").mean, actual)
    };
    let cost = rmse(&dataset.log_cost(init), &dataset.raw_cost(test));
    let memory = rmse(&dataset.log_memory(init), &dataset.raw_memory(test));
    (cost, memory)
}

pub(crate) fn run(ctx: &Ctx) {
    let (args, linear) = (&ctx.args, ctx.dataset());
    let log2p = Dataset::with_map(linear.samples().to_vec(), FeatureMap { log2_p: true });

    println!("LOG2(P) FEATURE ABLATION (n_init = 100, 200 test samples)\n");
    println!(
        "{:>6} {:>8} {:>14} {:>14} {:>14} {:>14}",
        "split", "axis", "cost RMSE", "mem RMSE", "", ""
    );
    let mut wins_cost = 0usize;
    let mut wins_mem = 0usize;
    const SPLITS: u64 = 5;
    for split in 0..SPLITS {
        let partition = ctx.partition(100, args.seed + split);
        let (lc, lm) = rmse_pair(linear, &partition, args.seed + split);
        let (gc, gm) = rmse_pair(&log2p, &partition, args.seed + split);
        println!("{split:>6} {:>8} {lc:>14.4} {lm:>14.4}", "linear");
        println!("{split:>6} {:>8} {gc:>14.4} {gm:>14.4}", "log2(p)");
        if gc < lc {
            wins_cost += 1;
        }
        if gm < lm {
            wins_mem += 1;
        }
    }
    println!("\nlog2(p) wins {wins_cost}/{SPLITS} splits on cost, {wins_mem}/{SPLITS} on memory");
    println!(
        "expected: the exponent axis helps most for the memory model, whose\n\
         1/p structure is poorly captured by a linear node-count feature."
    );
}
