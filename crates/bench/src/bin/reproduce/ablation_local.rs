//! Local-model ablation (paper Section VI: "train multiple local
//! performance models simultaneously"): global GP vs axis-partitioned
//! local GPs on the real dataset. The natural split axis is `maxlevel`
//! (feature 2): refinement depth changes the response regime most.

use crate::{fit_gp, Ctx};
use al_core::metrics::rmse_nonlog;
use al_gp::{FitOptions, GpModel, KernelKind, LocalGpModel};

pub(crate) fn run(ctx: &Ctx) {
    let (args, dataset) = (&ctx.args, ctx.dataset());

    let partition = ctx.partition(200, args.seed);
    let x_train = dataset.features_scaled(&partition.init);
    let y_train = dataset.log_cost(&partition.init);
    let x_test = dataset.features_scaled(&partition.test);
    let actual = dataset.raw_cost(&partition.test);
    let fit = FitOptions {
        n_restarts: 2,
        seed: args.seed,
        ..FitOptions::default()
    };

    println!("LOCAL-MODEL ABLATION (cost model, 200 training / 200 test samples)\n");
    println!(
        "{:<28} {:>10} {:>14} {:>10}",
        "model", "regions", "cost RMSE", "fit s"
    );

    let t0 = al_bench::clock::now();
    let global = fit_gp(KernelKind::Rbf, &x_train, &y_train, &fit);
    let rmse = rmse_nonlog(&global.predict(&x_test).expect("predict").mean, &actual);
    println!(
        "{:<28} {:>10} {:>14.4} {:>10.1}",
        "global RBF",
        1,
        rmse,
        t0.elapsed().as_secs_f64()
    );

    // Split axes: maxlevel (index 2) and mx (index 1), 2-4 regions.
    for (axis, name) in [(2usize, "maxlevel"), (1usize, "mx")] {
        for regions in [2usize, 4] {
            let t0 = al_bench::clock::now();
            let template = GpModel::new(KernelKind::Rbf.build(0.3), 1e-3);
            let mut local = LocalGpModel::new(template, axis, regions);
            local.fit_optimized(&x_train, &y_train, &fit).expect("fit");
            let rmse = rmse_nonlog(&local.predict(&x_test).expect("predict").mean, &actual);
            println!(
                "{:<28} {:>10} {:>14.4} {:>10.1}",
                format!("local on {name}"),
                local.n_regions(),
                rmse,
                t0.elapsed().as_secs_f64()
            );
        }
    }
    println!(
        "\nexpected: local models fit faster (cubic cost on smaller blocks) and\n\
         can win when the response regime changes across the split axis; with\n\
         abundant smooth data the global model remains competitive."
    );
}
