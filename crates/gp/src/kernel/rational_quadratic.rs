//! Rational quadratic kernel — an infinite scale-mixture of RBF kernels,
//! useful when the response varies on several length scales at once (as
//! AMR cost does: smooth in the physical parameters, near-geometric in
//! `maxlevel`).

use super::Kernel;
use crate::error::GpError;
use al_linalg::ops::{sq_dist, sq_dists_into};
use al_linalg::Matrix;

/// `k(a,b) = σ_f² (1 + ‖a−b‖²/(2αl²))^(−α)` with log-space parameters
/// `[log σ_f², log l, log α]`. As `α → ∞` this converges to the RBF.
#[derive(Debug, Clone)]
pub struct RationalQuadraticKernel {
    log_sigma_f2: f64,
    log_length: f64,
    log_alpha: f64,
    /// `σ_f²`, `l²` and `α`, cached from the log parameters.
    sigma_f2: f64,
    l2: f64,
    alpha: f64,
}

impl RationalQuadraticKernel {
    /// Create from natural-space amplitude, length scale and mixture
    /// parameter `α` (all positive).
    pub fn new(sigma_f2: f64, length_scale: f64, alpha: f64) -> Self {
        assert!(sigma_f2 > 0.0 && length_scale > 0.0 && alpha > 0.0);
        RationalQuadraticKernel::from_log(sigma_f2.ln(), length_scale.ln(), alpha.ln())
    }

    /// Build from log-space parameters, caching `σ_f²`, `l²` and `α`.
    fn from_log(log_sigma_f2: f64, log_length: f64, log_alpha: f64) -> Self {
        RationalQuadraticKernel {
            log_sigma_f2,
            log_length,
            log_alpha,
            sigma_f2: log_sigma_f2.exp(),
            l2: (2.0 * log_length).exp(),
            alpha: log_alpha.exp(),
        }
    }
}

impl Kernel for RationalQuadraticKernel {
    fn name(&self) -> &'static str {
        "RationalQuadratic"
    }

    fn n_params(&self) -> usize {
        3
    }

    fn params(&self) -> Vec<f64> {
        vec![self.log_sigma_f2, self.log_length, self.log_alpha]
    }

    fn set_params(&mut self, p: &[f64]) -> Result<(), GpError> {
        if p.len() != 3 {
            return Err(GpError::BadParamLength {
                expected: 3,
                got: p.len(),
            });
        }
        *self = RationalQuadraticKernel::from_log(p[0], p[1], p[2]);
        Ok(())
    }

    #[inline]
    fn value(&self, a: &[f64], b: &[f64]) -> f64 {
        let (l2, alpha) = (self.l2, self.alpha);
        let base = 1.0 + sq_dist(a, b) / (2.0 * alpha * l2);
        self.sigma_f2 * base.powf(-alpha)
    }

    fn gradient(&self, a: &[f64], b: &[f64], k: f64, out: &mut [f64]) {
        let d2 = sq_dist(a, b);
        let (l2, alpha) = (self.l2, self.alpha);
        let u = d2 / (2.0 * alpha * l2);
        let base = 1.0 + u;
        // ∂k/∂log σ_f² = k.
        out[0] = k;
        // ∂k/∂log l = k · d²/(l² base)   (chain rule through u ∝ l⁻²).
        out[1] = k * d2 / (l2 * base);
        // ∂k/∂log α = k·α·(u/base − ln base)   (both α-dependencies).
        out[2] = k * alpha * (u / base - base.ln());
    }

    fn values_into(&self, a: &[f64], pts: &Matrix, j0: usize, out: &mut [f64]) {
        let (l2, alpha) = (self.l2, self.alpha);
        sq_dists_into(a, pts, j0, out);
        for v in out {
            let base = 1.0 + *v / (2.0 * alpha * l2);
            *v = self.sigma_f2 * base.powf(-alpha);
        }
    }

    fn gradients_into(&self, a: &[f64], pts: &Matrix, j0: usize, k: &[f64], out: &mut [f64]) {
        debug_assert_eq!(out.len(), 3 * k.len());
        let (l2, alpha) = (self.l2, self.alpha);
        let (amplitude, rest) = out.split_at_mut(k.len());
        let (length, mixture) = rest.split_at_mut(k.len());
        amplitude.copy_from_slice(k);
        sq_dists_into(a, pts, j0, length);
        for ((gl, ga), kj) in length.iter_mut().zip(mixture).zip(k) {
            let d2 = *gl;
            let u = d2 / (2.0 * alpha * l2);
            let base = 1.0 + u;
            *gl = kj * d2 / (l2 * base);
            *ga = kj * alpha * (u / base - base.ln());
        }
    }

    fn diag_value(&self) -> f64 {
        self.sigma_f2
    }

    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{check_gradient, RbfKernel};

    #[test]
    fn diag_is_amplitude_and_values_decay() {
        let k = RationalQuadraticKernel::new(2.0, 0.5, 1.0);
        let x = [0.3];
        assert!((k.value(&x, &x) - 2.0).abs() < 1e-12);
        assert!(k.value(&[0.0], &[0.5]) > k.value(&[0.0], &[1.5]));
        assert!(k.value(&[0.0], &[10.0]) > 0.0, "heavy polynomial tail");
    }

    #[test]
    fn large_alpha_approaches_rbf() {
        let rq = RationalQuadraticKernel::new(1.0, 0.7, 1e6);
        let rbf = RbfKernel::new(1.0, 0.7);
        for d in [0.1, 0.5, 1.0, 2.0] {
            let a = [0.0];
            let b = [d];
            assert!(
                (rq.value(&a, &b) - rbf.value(&a, &b)).abs() < 1e-4,
                "d = {d}"
            );
        }
    }

    #[test]
    fn small_alpha_has_heavier_tails_than_rbf() {
        let rq = RationalQuadraticKernel::new(1.0, 0.7, 0.5);
        let rbf = RbfKernel::new(1.0, 0.7);
        assert!(rq.value(&[0.0], &[3.0]) > 10.0 * rbf.value(&[0.0], &[3.0]));
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut k = RationalQuadraticKernel::new(1.6, 0.6, 1.3);
        check_gradient(&mut k, &[0.1, 0.9], &[0.7, 0.2]);
        check_gradient(&mut k, &[0.5, 0.5], &[0.5, 0.5]);
        let mut k = RationalQuadraticKernel::new(0.8, 1.4, 0.3);
        check_gradient(&mut k, &[0.0], &[2.0]);
    }

    #[test]
    fn cached_constants_match_the_per_call_formulas_bitwise() {
        let legacy = crate::kernel::Legacy {
            value: |p, a, b| {
                let d2 = sq_dist(a, b);
                let l2 = (2.0 * p[1]).exp();
                let alpha = p[2].exp();
                let base = 1.0 + d2 / (2.0 * alpha * l2);
                p[0].exp() * base.powf(-alpha)
            },
            gradient: |p, a, b, out| {
                let d2 = sq_dist(a, b);
                let l2 = (2.0 * p[1]).exp();
                let alpha = p[2].exp();
                let u = d2 / (2.0 * alpha * l2);
                let base = 1.0 + u;
                let k = p[0].exp() * base.powf(-alpha);
                out[0] = k;
                out[1] = k * d2 / (l2 * base);
                out[2] = k * alpha * (u / base - base.ln());
            },
            diag: |p| p[0].exp(),
        };
        let mut k = RationalQuadraticKernel::new(1.6, 0.6, 1.3);
        crate::kernel::check_legacy_parity(&mut k, 2, &legacy);
    }

    #[test]
    fn params_roundtrip() {
        let mut k = RationalQuadraticKernel::new(1.0, 1.0, 1.0);
        k.set_params(&[0.1, -0.2, 0.5]).unwrap();
        assert_eq!(k.params(), vec![0.1, -0.2, 0.5]);
        assert!(k.set_params(&[0.0, 0.0]).is_err());
        assert_eq!(k.name(), "RationalQuadratic");
    }
}
