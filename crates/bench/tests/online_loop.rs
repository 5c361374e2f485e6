//! Integration test: online AL against the live solver (no precomputed
//! dataset), mirroring `examples/online_al.rs` with assertions.

// Integration tests run outside #[cfg(test)], so the in-tests carve-outs
// from clippy.toml don't reach them; tests may panic and compare exact
// copied floats freely.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use al_amr_sim::{run_simulation, MachineModel, SolverProfile};
use al_dataset::transform::log10_response;
use al_dataset::{FeatureScaler, SweepGrid};
use al_gp::{FitOptions, GpModel, KernelKind};
use al_linalg::Matrix;

#[test]
fn online_al_loop_runs_and_improves() {
    let grid = SweepGrid::small();
    let mut candidates = grid.all_configs();
    let scaler = FeatureScaler::fit(&candidates.iter().map(|c| c.features()).collect::<Vec<_>>());
    let machine = MachineModel::default();
    let profile = SolverProfile::smoke();

    // Bootstrap with two measurements.
    let mut xs: Vec<[f64; 5]> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    let mut measured: Vec<(al_amr_sim::SimulationConfig, f64)> = Vec::new();
    for _ in 0..2 {
        let config = candidates.remove(0);
        let outcome = run_simulation(&config, profile, &machine, 0).expect("simulation");
        xs.push(scaler.transform(&config.features()));
        ys.push(log10_response(outcome.cost_node_hours.value()));
        measured.push((config, outcome.cost_node_hours.value()));
    }

    let fit = FitOptions {
        n_restarts: 1,
        max_iters: 25,
        ..FitOptions::default()
    };
    let mut gp = GpModel::new(KernelKind::Rbf.build(0.3), 1e-3);

    // 6 online iterations of pure uncertainty sampling.
    for _ in 0..6 {
        let data: Vec<f64> = xs.iter().flatten().copied().collect();
        gp.fit_optimized(&Matrix::from_vec(xs.len(), 5, data), &ys, &fit)
            .expect("fit");

        let rows: Vec<f64> = candidates
            .iter()
            .flat_map(|c| scaler.transform(&c.features()))
            .collect();
        let pred = gp
            .predict(&Matrix::from_vec(candidates.len(), 5, rows))
            .expect("predict");
        let pick = al_linalg::ops::argmax(&pred.std).expect("candidates remain");
        let config = candidates.remove(pick);
        let outcome = run_simulation(&config, profile, &machine, 0).expect("simulation");
        xs.push(scaler.transform(&config.features()));
        ys.push(log10_response(outcome.cost_node_hours.value()));
        measured.push((config, outcome.cost_node_hours.value()));
    }

    assert_eq!(measured.len(), 8);
    assert_eq!(candidates.len(), 32 - 8);

    // Final model: in-sample predictions must be within a factor ~2 of the
    // measured costs (log-space fit on 8 noisy points).
    let data: Vec<f64> = xs.iter().flatten().copied().collect();
    gp.fit_optimized(&Matrix::from_vec(xs.len(), 5, data), &ys, &fit)
        .expect("final fit");
    for (config, cost) in &measured {
        let (mu, _) = gp
            .predict_one(&scaler.transform(&config.features()))
            .expect("predict");
        let ratio = 10f64.powf(mu) / cost;
        assert!(
            ratio > 0.3 && ratio < 3.0,
            "in-sample prediction off by {ratio} for {config:?}"
        );
    }
}
