//! Property-based tests for the linear-algebra substrate.

// Integration tests run outside #[cfg(test)], so the in-tests carve-outs
// from clippy.toml don't reach them; tests may panic, compare exact copied
// floats, and index loops for readability.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp,
    clippy::needless_range_loop
)]

use al_linalg::{ops, stats, Cholesky, Matrix};
use proptest::prelude::*;

/// Strategy: a random SPD matrix `A = B Bᵀ + n·I` of size `n ∈ [1, 8]`.
fn spd_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..=8).prop_flat_map(|n| {
        proptest::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
            let b = Matrix::from_vec(n, n, data);
            let mut a = b.matmul(&b.transpose()).unwrap();
            a.add_diagonal(n as f64);
            a
        })
    })
}

fn vector(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-10.0f64..10.0, n)
}

proptest! {
    #[test]
    fn cholesky_reconstructs_spd_matrices(a in spd_matrix()) {
        let ch = Cholesky::new(&a).unwrap();
        let r = ch.reconstruct().unwrap();
        let diff: f64 = (0..a.rows())
            .flat_map(|i| (0..a.cols()).map(move |j| (i, j)))
            .map(|(i, j)| (r[(i, j)] - a[(i, j)]).abs())
            .fold(0.0, f64::max);
        prop_assert!(diff < 1e-9 * (1.0 + a.frobenius_norm()));
    }

    #[test]
    fn cholesky_solve_inverts_matvec(a in spd_matrix()) {
        let n = a.rows();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0) * 0.37 - 1.0).collect();
        let b = a.matvec(&x_true).unwrap();
        let ch = Cholesky::new(&a).unwrap();
        let x = ch.solve(&b).unwrap();
        for (got, want) in x.iter().zip(&x_true) {
            prop_assert!((got - want).abs() < 1e-7 * (1.0 + want.abs()));
        }
    }

    #[test]
    fn log_det_matches_diagonal_product(a in spd_matrix()) {
        let ch = Cholesky::new(&a).unwrap();
        // |A| = prod L_ii^2; compare in log space.
        let direct: f64 = (0..ch.dim())
            .map(|i| ch.l()[(i, i)].ln() * 2.0)
            .sum();
        prop_assert!((ch.log_det() - direct).abs() < 1e-12);
    }

    #[test]
    fn matmul_is_associative_on_small_matrices(
        d1 in proptest::collection::vec(-2.0f64..2.0, 9),
        d2 in proptest::collection::vec(-2.0f64..2.0, 9),
        d3 in proptest::collection::vec(-2.0f64..2.0, 9),
    ) {
        let a = Matrix::from_vec(3, 3, d1);
        let b = Matrix::from_vec(3, 3, d2);
        let c = Matrix::from_vec(3, 3, d3);
        let ab_c = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let a_bc = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                prop_assert!((ab_c[(i, j)] - a_bc[(i, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn transpose_is_involutive(rows in 1usize..6, cols in 1usize..6, seed in 0u64..100) {
        let data: Vec<f64> = (0..rows * cols).map(|i| ((i as f64) * 0.7 + seed as f64).sin()).collect();
        let m = Matrix::from_vec(rows, cols, data);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(v in vector(20)) {
        let q25 = stats::quantile(&v, 0.25);
        let q50 = stats::quantile(&v, 0.5);
        let q75 = stats::quantile(&v, 0.75);
        prop_assert!(q25 <= q50 && q50 <= q75);
        prop_assert!(stats::min(&v) <= q25);
        prop_assert!(q75 <= stats::max(&v));
    }

    #[test]
    fn mean_lies_between_min_and_max(v in vector(15)) {
        let m = stats::mean(&v);
        prop_assert!(stats::min(&v) - 1e-12 <= m && m <= stats::max(&v) + 1e-12);
    }

    #[test]
    fn rms_is_zero_iff_all_zero(v in vector(10)) {
        let r = stats::rms(&v);
        let all_zero = v.iter().all(|&x| x == 0.0);
        prop_assert_eq!(r == 0.0, all_zero);
    }

    #[test]
    fn argmax_is_maximal(v in vector(12)) {
        let i = ops::argmax(&v).unwrap();
        for &x in &v {
            prop_assert!(v[i] >= x);
        }
    }

    #[test]
    fn dot_is_symmetric_and_linear(a in vector(8), b in vector(8), alpha in -3.0f64..3.0) {
        prop_assert!((ops::dot(&a, &b) - ops::dot(&b, &a)).abs() < 1e-12);
        let scaled: Vec<f64> = a.iter().map(|x| alpha * x).collect();
        prop_assert!((ops::dot(&scaled, &b) - alpha * ops::dot(&a, &b)).abs() < 1e-9);
    }

    #[test]
    fn sq_dist_is_a_metric_squared(a in vector(5), b in vector(5)) {
        prop_assert!(ops::sq_dist(&a, &b) >= 0.0);
        prop_assert!((ops::sq_dist(&a, &b) - ops::sq_dist(&b, &a)).abs() < 1e-12);
        prop_assert_eq!(ops::sq_dist(&a, &a), 0.0);
    }

    #[test]
    fn histogram_counts_everything(v in vector(30), bins in 1usize..10) {
        let h = stats::histogram(&v, -10.0, 10.0, bins);
        prop_assert_eq!(h.iter().sum::<usize>(), v.len());
    }
}
