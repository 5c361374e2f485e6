//! Golden bits of the warm-start hyperparameter optimizer.
//!
//! `fit_optimized(FitOptions::warm_start_only())` is Algorithm 1's
//! per-iteration retraining step: 25 Adam steps, each one LML gradient
//! built from the explicit `K_y⁻¹`. Any change to the inverse, the
//! gradient or the optimizer that moves a single bit of the optimum
//! shows up here, with the same contract the repository benchmark's
//! output digests enforce. The constants were recorded with the
//! column-by-column inverse; the multi-RHS inverse must reproduce them.

#![allow(clippy::unwrap_used)]

use al_gp::{FitOptions, GpModel, KernelKind};
use al_linalg::Matrix;

/// Fixed 5-D inputs on the unit cube and a smooth response with a small
/// deterministic perturbation, so the noise optimum is interior rather
/// than pinned at the lower bound.
fn training_data(n: usize) -> (Matrix, Vec<f64>) {
    let data: Vec<f64> = (0..n * 5)
        .map(|i| (((i * 2654435761) % 1009) as f64) / 1009.0)
        .collect();
    let x = Matrix::from_vec(n, 5, data);
    let y: Vec<f64> = (0..n)
        .map(|i| {
            let smooth: f64 = x.row(i).iter().map(|v| (3.0 * v).sin()).sum();
            smooth + 0.1 * (((i * 7919) % 101) as f64 / 101.0 - 0.5)
        })
        .collect();
    (x, y)
}

fn assert_golden(n: usize, hyperparams: [u64; 3], lml: u64) {
    let (x, y) = training_data(n);
    let mut gp = GpModel::new(KernelKind::Rbf.build(0.3), 1e-3);
    gp.fit_optimized(&x, &y, &FitOptions::warm_start_only())
        .unwrap();
    let got: Vec<u64> = gp.hyperparams().iter().map(|v| v.to_bits()).collect();
    assert_eq!(
        got,
        hyperparams,
        "n={n}: hyperparams {:?}",
        gp.hyperparams()
    );
    let got_lml = gp.lml().unwrap();
    assert_eq!(got_lml.to_bits(), lml, "n={n}: lml {got_lml}");
}

#[test]
fn warm_start_optimum_is_bit_stable_at_n50() {
    assert_golden(
        50,
        [0x4000b03cc0aa7b0a, 0x3fc54465873f77bf, 0xc01b2d3a35429414],
        0x404bfc73b1309e91,
    );
}

#[test]
fn warm_start_optimum_is_bit_stable_at_n250() {
    assert_golden(
        250,
        [0x4000c4dead87d655, 0x3fb8133bcbd1e748, 0xc01c2cfc119eb83e],
        0x407d54dc444a3c8e,
    );
}
