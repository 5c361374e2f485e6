//! Bitwise determinism of the parallel GP kernels (DESIGN §13).
//!
//! Every parallel path in `al-gp` — the noisy kernel matrix, the batch
//! `predict` cross-kernel tiles, and the `LocalGpModel` region fan-out —
//! writes into index-addressed slots with ordered reduction, so the thread
//! count must never change a single bit. This suite fits and predicts the
//! same problems at several thread counts and compares every output with
//! `f64::to_bits`.
//!
//! CI sweeps `AL_TEST_THREADS` to pin specific counts (the session-core
//! determinism jobs run the same sweep); locally the suite covers
//! {1, 2, 4} plus all-cores (0) regardless.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp,
    clippy::needless_range_loop
)]

use al_gp::{FitOptions, GpModel, KernelKind, LocalGpModel, Prediction};
use al_linalg::Matrix;

/// Thread counts to sweep: {1, 2, 4, all-cores}, plus `AL_TEST_THREADS`
/// when set (the CI determinism jobs pin it per matrix entry).
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 4, 0];
    if let Ok(v) = std::env::var("AL_TEST_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if !counts.contains(&n) {
                counts.push(n);
            }
        }
    }
    counts
}

/// Deterministic smooth training set: d-dimensional low-discrepancy-ish
/// points with a sinusoidal response.
fn training_data(n: usize, dim: usize) -> (Matrix, Vec<f64>) {
    let data: Vec<f64> = (0..n * dim)
        .map(|i| (((i * 2654435761) % 1000) as f64) / 1000.0 * 3.0)
        .collect();
    let x = Matrix::from_vec(n, dim, data);
    let y: Vec<f64> = (0..n)
        .map(|i| x.row(i).iter().map(|v| (1.7 * v).sin()).sum::<f64>())
        .collect();
    (x, y)
}

fn query_grid(m: usize, dim: usize) -> Matrix {
    let data: Vec<f64> = (0..m * dim)
        .map(|i| (((i * 40503) % 997) as f64) / 997.0 * 3.0)
        .collect();
    Matrix::from_vec(m, dim, data)
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str, threads: usize) {
    assert_eq!(a.len(), b.len(), "{what}: length at {threads} threads");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}[{i}] diverges at {threads} threads: {x} vs {y}"
        );
    }
}

fn assert_predictions_bits_eq(a: &Prediction, b: &Prediction, what: &str, threads: usize) {
    assert_bits_eq(&a.mean, &b.mean, &format!("{what}.mean"), threads);
    assert_bits_eq(&a.std, &b.std, &format!("{what}.std"), threads);
}

fn fitted_model(threads: usize, n: usize, dim: usize) -> GpModel {
    let (x, y) = training_data(n, dim);
    let mut m = GpModel::new(KernelKind::Rbf.build(0.8), 1e-4);
    let opts = FitOptions {
        n_restarts: 1,
        max_iters: 20,
        n_threads: threads,
        ..FitOptions::default()
    };
    m.fit_optimized(&x, &y, &opts).unwrap();
    m
}

#[test]
fn fit_is_bitwise_identical_across_thread_counts() {
    // The kernel matrix feeds the Cholesky factor, the LML, and the
    // optimizer trajectory; if any thread count changed a bit anywhere,
    // the optimized hyperparameters would diverge.
    let reference = fitted_model(1, 60, 3);
    for threads in thread_counts() {
        let m = fitted_model(threads, 60, 3);
        assert_bits_eq(
            &m.hyperparams(),
            &reference.hyperparams(),
            "hyperparams",
            threads,
        );
        assert_eq!(
            m.lml().unwrap().to_bits(),
            reference.lml().unwrap().to_bits(),
            "LML diverges at {threads} threads"
        );
    }
}

#[test]
fn predict_is_bitwise_identical_across_thread_counts() {
    let xq = query_grid(97, 3);
    let mut reference = fitted_model(1, 60, 3);
    let expected = reference.predict(&xq).unwrap();
    for threads in thread_counts() {
        reference.set_n_threads(threads);
        let p = reference.predict(&xq).unwrap();
        assert_predictions_bits_eq(&p, &expected, "predict", threads);
    }
}

#[test]
fn local_predict_is_bitwise_identical_across_thread_counts() {
    let (x, y) = training_data(80, 1);
    let xq = query_grid(203, 1);
    let fit_at = |threads: usize| {
        let mut m = LocalGpModel::new(GpModel::new(KernelKind::Rbf.build(0.5), 1e-4), 0, 4);
        let opts = FitOptions {
            n_threads: threads,
            ..FitOptions::warm_start_only()
        };
        m.fit_optimized(&x, &y, &opts).unwrap();
        m
    };
    let reference = fit_at(1).predict(&xq).unwrap();
    for threads in thread_counts() {
        let m = fit_at(threads);
        let p = m.predict(&xq).unwrap();
        assert_predictions_bits_eq(&p, &reference, "local predict", threads);
    }
}
