//! Kernel-family ablation (the paper's Section VI future work: "evaluating
//! alternative kernel functions, e.g., anisotropic RBF kernels and Matérn
//! kernels with controllable smoothness").
//!
//! Fits each kernel on the same Initial+AL-selected training sets and
//! compares Test-partition RMSE of the cost and memory models.

use crate::{fit_gp, Ctx};
use al_core::metrics::rmse_nonlog;
use al_core::{run_trajectory, AlOptions, StrategyKind};
use al_gp::{FitOptions, GpModel, KernelKind};

pub(crate) fn run(ctx: &Ctx) {
    let (args, dataset) = (&ctx.args, ctx.dataset());

    // Build one training set with the paper's default pipeline (RBF-driven
    // RandGoodness), then refit every kernel family on it.
    let partition = ctx.partition(50, args.seed);
    let opts = AlOptions {
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
    let mut learned = partition.init.clone();
    learned.extend(t.records.iter().map(|r| r.dataset_index));
    println!(
        "KERNEL ABLATION: {} training samples (50 initial + {} AL-selected), 200 test\n",
        learned.len(),
        t.len().min(150)
    );

    let x_train = dataset.features_scaled(&learned);
    let x_test = dataset.features_scaled(&partition.test);
    let predict = |gp: &GpModel| gp.predict(&x_test).expect("predict").mean;
    let kernels = [
        KernelKind::Rbf,
        KernelKind::ArdRbf { dim: 5 },
        KernelKind::Matern32,
        KernelKind::Matern52,
        KernelKind::RationalQuadratic,
    ];
    println!(
        "{:<12} {:>14} {:>14} {:>12} {:>12}",
        "kernel", "cost RMSE", "memory RMSE", "cost LML", "mem LML"
    );
    for kind in kernels {
        let fit = FitOptions {
            n_restarts: 3,
            ..FitOptions::default()
        };
        let gp_cost = fit_gp(kind, &x_train, &dataset.log_cost(&learned), &fit);
        let gp_mem = fit_gp(kind, &x_train, &dataset.log_memory(&learned), &fit);

        let rmse_c = rmse_nonlog(&predict(&gp_cost), &dataset.raw_cost(&partition.test));
        let rmse_m = rmse_nonlog(&predict(&gp_mem), &dataset.raw_memory(&partition.test));
        println!(
            "{:<12} {:>14.4} {:>14.4} {:>12.1} {:>12.1}",
            kind.label(),
            rmse_c,
            rmse_m,
            gp_cost.lml().unwrap(),
            gp_mem.lml().unwrap()
        );
    }
}
