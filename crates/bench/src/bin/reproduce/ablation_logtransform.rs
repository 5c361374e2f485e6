//! Response-transform ablation (paper Section IV-A): the paper applies
//! log10 to both responses before GP fitting, reporting that it reduces
//! the prediction-quality gap between extremes and eliminates negative
//! predictions. This experiment fits the cost model with and without the
//! transform on identical training data and compares RMSE and the count
//! of nonsensical negative predictions.

use crate::{fit_gp, Ctx};
use al_core::metrics::rmse_nonlog;
use al_gp::{FitOptions, KernelKind};
use al_linalg::stats;
use std::collections::BTreeMap;

pub(crate) fn run(ctx: &Ctx) {
    let (args, dataset) = (&ctx.args, ctx.dataset());

    let partition = ctx.partition(100, args.seed);
    let init = &partition.init;
    let x_train = dataset.features_scaled(init);
    let x_test = dataset.features_scaled(&partition.test);
    let actual = dataset.raw_cost(&partition.test);
    let fit = FitOptions {
        n_restarts: 3,
        ..FitOptions::default()
    };

    // With log10 transform (the paper's pipeline).
    let gp_log = fit_gp(KernelKind::Rbf, &x_train, &dataset.log_cost(init), &fit);
    let pred_log = gp_log.predict(&x_test).expect("predict");
    let rmse_log = rmse_nonlog(&pred_log.mean, &actual);

    // Without transform: fit raw node-hours directly.
    let gp_raw = fit_gp(KernelKind::Rbf, &x_train, &dataset.raw_cost(init), &fit);
    let pred_raw = gp_raw.predict(&x_test).expect("predict");
    let errors: Vec<f64> = pred_raw
        .mean
        .iter()
        .zip(&actual)
        .map(|(p, a)| p - a)
        .collect();
    let rmse_raw = stats::rms(&errors);
    let negatives = pred_raw.mean.iter().filter(|&&p| p < 0.0).count();

    println!("LOG-TRANSFORM ABLATION (cost model, n_init = 100, 200 test samples)\n");
    println!("with log10 transform:    RMSE = {rmse_log:.4} node-hours, negative predictions: 0 (impossible by construction)");
    println!("without transform (raw): RMSE = {rmse_raw:.4} node-hours, negative predictions: {negatives}/{}", actual.len());

    // Per-decade error breakdown: the transform's benefit concentrates in
    // the cheap extremes.
    println!("\nmean |error| by actual-cost decade:");
    println!(
        "{:>20} {:>12} {:>12} {:>6}",
        "decade (node-hours)", "log model", "raw model", "n"
    );
    let mut decades: BTreeMap<i32, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for ((pl, pr), a) in pred_log.mean.iter().zip(&pred_raw.mean).zip(&actual) {
        let (el, er) = decades.entry(a.log10().floor() as i32).or_default();
        el.push((10f64.powf(*pl) - a).abs());
        er.push((pr - a).abs());
    }
    for (d, (el, er)) in &decades {
        println!(
            "{:>10}..{:<9} {:>12.4} {:>12.4} {:>6}",
            format!("1e{d}"),
            format!("1e{}", d + 1),
            stats::mean(el),
            stats::mean(er),
            el.len()
        );
    }
}
