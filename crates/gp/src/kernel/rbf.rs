//! Isotropic squared-exponential (RBF) kernel — the paper's Eq. 7.

use super::Kernel;
use crate::error::GpError;
use al_linalg::ops::sq_dist;

/// `k(a, b) = σ_f² · exp(−‖a−b‖² / (2 l²))` with log-space parameters
/// `[log σ_f², log l]`.
#[derive(Debug, Clone)]
pub struct RbfKernel {
    log_sigma_f2: f64,
    log_length: f64,
    /// `σ_f²`, cached from the log parameters.
    sigma_f2: f64,
    /// `l²`, cached from the log parameters.
    l2: f64,
}

impl RbfKernel {
    /// Create from natural-space amplitude `σ_f²` and length scale `l`
    /// (both must be positive).
    pub fn new(sigma_f2: f64, length_scale: f64) -> Self {
        assert!(sigma_f2 > 0.0 && length_scale > 0.0);
        RbfKernel::from_log(sigma_f2.ln(), length_scale.ln())
    }

    /// Build from log-space parameters, caching their natural-space
    /// constants with the expressions `value` used to evaluate per call.
    fn from_log(log_sigma_f2: f64, log_length: f64) -> Self {
        RbfKernel {
            log_sigma_f2,
            log_length,
            sigma_f2: log_sigma_f2.exp(),
            l2: (2.0 * log_length).exp(),
        }
    }

    /// Amplitude `σ_f²` in natural space.
    pub fn sigma_f2(&self) -> f64 {
        self.sigma_f2
    }

    /// Length scale `l` in natural space.
    pub fn length_scale(&self) -> f64 {
        self.log_length.exp()
    }
}

impl Kernel for RbfKernel {
    fn name(&self) -> &'static str {
        "RBF"
    }

    fn n_params(&self) -> usize {
        2
    }

    fn params(&self) -> Vec<f64> {
        vec![self.log_sigma_f2, self.log_length]
    }

    fn set_params(&mut self, p: &[f64]) -> Result<(), GpError> {
        if p.len() != 2 {
            return Err(GpError::BadParamLength {
                expected: 2,
                got: p.len(),
            });
        }
        *self = RbfKernel::from_log(p[0], p[1]);
        Ok(())
    }

    #[inline]
    fn value(&self, a: &[f64], b: &[f64]) -> f64 {
        self.sigma_f2 * (-0.5 * sq_dist(a, b) / self.l2).exp()
    }

    fn gradient(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        let d2 = sq_dist(a, b);
        let k = self.sigma_f2 * (-0.5 * d2 / self.l2).exp();
        // ∂k/∂log σ_f² = k; ∂k/∂log l = k · d²/l².
        out[0] = k;
        out[1] = k * d2 / self.l2;
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
    use crate::kernel::check_gradient;

    #[test]
    fn value_at_zero_distance_is_amplitude() {
        let k = RbfKernel::new(2.5, 0.7);
        let x = [0.3, 0.4];
        assert!((k.value(&x, &x) - 2.5).abs() < 1e-12);
        assert!((k.diag_value() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn value_decays_with_distance() {
        let k = RbfKernel::new(1.0, 1.0);
        let v1 = k.value(&[0.0], &[1.0]);
        let v2 = k.value(&[0.0], &[2.0]);
        assert!(v1 > v2);
        assert!((v1 - (-0.5f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn longer_length_scale_means_slower_decay() {
        let short = RbfKernel::new(1.0, 0.5);
        let long = RbfKernel::new(1.0, 5.0);
        assert!(long.value(&[0.0], &[1.0]) > short.value(&[0.0], &[1.0]));
    }

    #[test]
    fn params_roundtrip() {
        let mut k = RbfKernel::new(1.0, 1.0);
        k.set_params(&[0.5f64.ln(), 2.0f64.ln()]).unwrap();
        assert!((k.sigma_f2() - 0.5).abs() < 1e-12);
        assert!((k.length_scale() - 2.0).abs() < 1e-12);
        assert!(k.set_params(&[1.0]).is_err());
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut k = RbfKernel::new(1.7, 0.6);
        check_gradient(&mut k, &[0.1, 0.9, 0.4], &[0.7, 0.2, 0.3]);
        check_gradient(&mut k, &[0.5], &[0.5]);
    }

    #[test]
    fn cached_constants_match_the_per_call_formulas_bitwise() {
        let legacy = crate::kernel::Legacy {
            value: |p, a, b| {
                let l2 = (2.0 * p[1]).exp();
                p[0].exp() * (-0.5 * sq_dist(a, b) / l2).exp()
            },
            gradient: |p, a, b, out| {
                let d2 = sq_dist(a, b);
                let l2 = (2.0 * p[1]).exp();
                let k = p[0].exp() * (-0.5 * d2 / l2).exp();
                out[0] = k;
                out[1] = k * d2 / l2;
            },
            diag: |p| p[0].exp(),
        };
        crate::kernel::check_legacy_parity(&mut RbfKernel::new(1.7, 0.6), 3, &legacy);
    }

    #[test]
    fn symmetric() {
        let k = RbfKernel::new(1.3, 0.8);
        let a = [0.1, 0.2];
        let b = [0.9, 0.4];
        assert_eq!(k.value(&a, &b), k.value(&b, &a));
    }
}
