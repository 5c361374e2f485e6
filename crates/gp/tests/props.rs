//! Property-based tests for kernels and GP posteriors.

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

use al_gp::{GpModel, Kernel, KernelKind};
use al_linalg::Matrix;
use proptest::prelude::*;

/// `k(a, b)` through the block path, with `b` a one-point block.
fn value(k: &Kernel, a: &[f64], b: &[f64]) -> f64 {
    let mut out = [0.0];
    k.values_into(a, &Matrix::from_vec(b.len(), 1, b.to_vec()), 0, &mut out);
    out[0]
}

/// `∂k(a, b)/∂p_i` for every log-space parameter, through the block path.
fn gradient(k: &Kernel, a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; k.n_params()];
    let pts = Matrix::from_vec(b.len(), 1, b.to_vec());
    k.gradients_into(a, &pts, 0, &[value(k, a, b)], &mut out);
    out
}

fn kernel_kinds() -> impl Strategy<Value = KernelKind> {
    prop_oneof![
        Just(KernelKind::Rbf),
        Just(KernelKind::ArdRbf { dim: 3 }),
        Just(KernelKind::Matern32),
        Just(KernelKind::Matern52),
        Just(KernelKind::RationalQuadratic),
    ]
}

fn point3() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-2.0f64..2.0, 3)
}

proptest! {
    #[test]
    fn kernels_are_symmetric(kind in kernel_kinds(), a in point3(), b in point3()) {
        let k = kind.build(0.7);
        let kab = value(&k, &a, &b);
        let kba = value(&k, &b, &a);
        prop_assert!((kab - kba).abs() < 1e-12);
    }

    #[test]
    fn kernel_diagonal_dominates(kind in kernel_kinds(), a in point3(), b in point3()) {
        // For monotone stationary kernels, k(x, x) >= k(x, y) >= 0.
        let k = kind.build(0.7);
        let kab = value(&k, &a, &b);
        prop_assert!(kab >= 0.0);
        prop_assert!(k.diag_value() + 1e-12 >= kab);
    }

    #[test]
    fn kernel_gradients_match_finite_differences(
        kind in kernel_kinds(),
        a in point3(),
        b in point3(),
        log_amp in -1.0f64..1.0,
        log_len in -1.0f64..0.5,
    ) {
        let mut k = kind.build(0.7);
        let mut params = k.params().to_vec();
        params[0] = log_amp;
        for p in params.iter_mut().skip(1) {
            *p = log_len;
        }
        k.set_params(&params).unwrap();

        let analytic = gradient(&k, &a, &b);
        let h = 1e-6;
        for i in 0..params.len() {
            let mut pp = params.clone();
            pp[i] += h;
            k.set_params(&pp).unwrap();
            let up = value(&k, &a, &b);
            pp[i] -= 2.0 * h;
            k.set_params(&pp).unwrap();
            let dn = value(&k, &a, &b);
            k.set_params(&params).unwrap();
            let fd = (up - dn) / (2.0 * h);
            prop_assert!(
                (fd - analytic[i]).abs() < 1e-5 * (1.0 + fd.abs()),
                "kind {:?} param {}: fd {} vs analytic {}", kind, i, fd, analytic[i]
            );
        }
    }

    #[test]
    fn posterior_variance_never_exceeds_prior(
        kind in kernel_kinds(),
        xs in proptest::collection::vec(-2.0f64..2.0, 4..10),
        q in -3.0f64..3.0,
    ) {
        let n = xs.len();
        let y: Vec<f64> = xs.iter().map(|x| x.sin()).collect();
        let x = Matrix::from_vec(n, 1, xs);
        let kern = match kind {
            KernelKind::ArdRbf { .. } => KernelKind::ArdRbf { dim: 1 },
            other => other,
        };
        let mut gp = GpModel::new(kern.build(0.5), 1e-4);
        gp.fit(&x, &y).unwrap();
        let (_, sigma) = gp.predict_one(&[q]).unwrap();
        // Prior std is sqrt(diag) = 1 for unit amplitude.
        prop_assert!(sigma <= 1.0 + 1e-9, "posterior σ {} exceeds prior", sigma);
    }

    #[test]
    fn posterior_mean_interpolates_with_tiny_noise(
        xs in proptest::collection::vec(0.0f64..5.0, 3..8),
    ) {
        // Deduplicate: coincident points with different targets cannot be
        // interpolated.
        let mut xs = xs;
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.dedup_by(|a, b| (*a - *b).abs() < 0.2);
        prop_assume!(xs.len() >= 3);
        let n = xs.len();
        let y: Vec<f64> = xs.iter().map(|x| (0.8 * x).cos()).collect();
        let x = Matrix::from_vec(n, 1, xs.clone());
        let mut gp = GpModel::new(KernelKind::Rbf.build(1.0), 1e-6);
        gp.fit(&x, &y).unwrap();
        for (xi, yi) in xs.iter().zip(&y) {
            let (mu, _) = gp.predict_one(&[*xi]).unwrap();
            prop_assert!((mu - yi).abs() < 0.05, "at {}: {} vs {}", xi, mu, yi);
        }
    }

    #[test]
    fn lml_gradient_is_finite_for_random_hyperparams(
        log_amp in -2.0f64..2.0,
        log_len in -2.0f64..1.0,
        log_noise in -8.0f64..-1.0,
    ) {
        let xs: Vec<f64> = (0..8).map(|i| i as f64 * 0.4).collect();
        let y: Vec<f64> = xs.iter().map(|x| x.sin()).collect();
        let x = Matrix::from_vec(8, 1, xs);
        let mut gp = GpModel::new(KernelKind::Rbf.build(1.0), 1e-3);
        gp.set_hyperparams(&[log_amp, log_len, log_noise]).unwrap();
        gp.fit(&x, &y).unwrap();
        let grad = gp.lml_gradient().unwrap();
        prop_assert!(grad.iter().all(|g| g.is_finite()));
        prop_assert!(gp.lml().unwrap().is_finite());
    }

    #[test]
    fn predictions_are_deterministic(kind in kernel_kinds()) {
        let xs: Vec<f64> = (0..6).map(|i| i as f64 * 0.5).collect();
        let y: Vec<f64> = xs.iter().map(|x| x.cos()).collect();
        let x = Matrix::from_vec(6, 1, xs);
        let kern = match kind {
            KernelKind::ArdRbf { .. } => KernelKind::ArdRbf { dim: 1 },
            other => other,
        };
        let mut gp1 = GpModel::new(kern.build(0.6), 1e-4);
        gp1.fit(&x, &y).unwrap();
        let mut gp2 = GpModel::new(kern.build(0.6), 1e-4);
        gp2.fit(&x, &y).unwrap();
        prop_assert_eq!(gp1.predict_one(&[1.3]).unwrap(), gp2.predict_one(&[1.3]).unwrap());
    }
}
