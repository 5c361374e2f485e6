//! Matérn kernels with ν = 3/2 and ν = 5/2 — the controllable-smoothness
//! family the paper cites from treed-GP work and lists as future work.

use super::Kernel;
use crate::error::GpError;
use al_linalg::ops::{sq_dist, sq_dists_into};
use al_linalg::Matrix;

/// Matérn ν = 3/2: `k = σ_f² (1 + s) e^{−s}` with `s = √3 ‖a−b‖ / l`.
/// Log-space parameters `[log σ_f², log l]`.
#[derive(Debug, Clone)]
pub struct Matern32Kernel {
    log_sigma_f2: f64,
    log_length: f64,
    /// `σ_f²` and `l`, cached from the log parameters.
    sigma_f2: f64,
    length: f64,
}

/// Matérn ν = 5/2: `k = σ_f² (1 + s + s²/3) e^{−s}` with `s = √5 ‖a−b‖ / l`.
/// Log-space parameters `[log σ_f², log l]`.
#[derive(Debug, Clone)]
pub struct Matern52Kernel {
    log_sigma_f2: f64,
    log_length: f64,
    /// `σ_f²` and `l`, cached from the log parameters.
    sigma_f2: f64,
    length: f64,
}

impl Matern32Kernel {
    /// Create from natural-space amplitude and length scale.
    pub fn new(sigma_f2: f64, length_scale: f64) -> Self {
        assert!(sigma_f2 > 0.0 && length_scale > 0.0);
        Matern32Kernel::from_log(sigma_f2.ln(), length_scale.ln())
    }

    /// Build from log-space parameters, caching `σ_f²` and `l`.
    fn from_log(log_sigma_f2: f64, log_length: f64) -> Self {
        Matern32Kernel {
            log_sigma_f2,
            log_length,
            sigma_f2: log_sigma_f2.exp(),
            length: log_length.exp(),
        }
    }
}

impl Matern52Kernel {
    /// Create from natural-space amplitude and length scale.
    pub fn new(sigma_f2: f64, length_scale: f64) -> Self {
        assert!(sigma_f2 > 0.0 && length_scale > 0.0);
        Matern52Kernel::from_log(sigma_f2.ln(), length_scale.ln())
    }

    /// Build from log-space parameters, caching `σ_f²` and `l`.
    fn from_log(log_sigma_f2: f64, log_length: f64) -> Self {
        Matern52Kernel {
            log_sigma_f2,
            log_length,
            sigma_f2: log_sigma_f2.exp(),
            length: log_length.exp(),
        }
    }
}

impl Kernel for Matern32Kernel {
    fn name(&self) -> &'static str {
        "Matern-3/2"
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
        *self = Matern32Kernel::from_log(p[0], p[1]);
        Ok(())
    }

    #[inline]
    fn value(&self, a: &[f64], b: &[f64]) -> f64 {
        let r = sq_dist(a, b).sqrt();
        let s = 3f64.sqrt() * r / self.length;
        self.sigma_f2 * (1.0 + s) * (-s).exp()
    }

    fn gradient(&self, a: &[f64], b: &[f64], k: f64, out: &mut [f64]) {
        let r = sq_dist(a, b).sqrt();
        let s = 3f64.sqrt() * r / self.length;
        let e = (-s).exp();
        let sf2 = self.sigma_f2;
        out[0] = k;
        // dk/ds = −σ_f² s e^{−s}; ds/d(log l) = −s ⇒ dk/d(log l) = σ_f² s² e^{−s}.
        out[1] = sf2 * s * s * e;
    }

    fn values_into(&self, a: &[f64], pts: &Matrix, j0: usize, out: &mut [f64]) {
        sq_dists_into(a, pts, j0, out);
        for v in out {
            let r = v.sqrt();
            let s = 3f64.sqrt() * r / self.length;
            *v = self.sigma_f2 * (1.0 + s) * (-s).exp();
        }
    }

    fn gradients_into(&self, a: &[f64], pts: &Matrix, j0: usize, k: &[f64], out: &mut [f64]) {
        debug_assert_eq!(out.len(), 2 * k.len());
        let (amplitude, length) = out.split_at_mut(k.len());
        amplitude.copy_from_slice(k);
        sq_dists_into(a, pts, j0, length);
        for g in length {
            let r = g.sqrt();
            let s = 3f64.sqrt() * r / self.length;
            let e = (-s).exp();
            *g = self.sigma_f2 * s * s * e;
        }
    }

    fn diag_value(&self) -> f64 {
        self.sigma_f2
    }

    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }
}

impl Kernel for Matern52Kernel {
    fn name(&self) -> &'static str {
        "Matern-5/2"
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
        *self = Matern52Kernel::from_log(p[0], p[1]);
        Ok(())
    }

    #[inline]
    fn value(&self, a: &[f64], b: &[f64]) -> f64 {
        let r = sq_dist(a, b).sqrt();
        let s = 5f64.sqrt() * r / self.length;
        self.sigma_f2 * (1.0 + s + s * s / 3.0) * (-s).exp()
    }

    fn gradient(&self, a: &[f64], b: &[f64], k: f64, out: &mut [f64]) {
        let r = sq_dist(a, b).sqrt();
        let s = 5f64.sqrt() * r / self.length;
        let e = (-s).exp();
        let sf2 = self.sigma_f2;
        out[0] = k;
        // dk/ds = −σ_f² (s/3)(1+s) e^{−s}; ds/d(log l) = −s
        // ⇒ dk/d(log l) = σ_f² (s²/3)(1+s) e^{−s}.
        out[1] = sf2 * (s * s / 3.0) * (1.0 + s) * e;
    }

    fn values_into(&self, a: &[f64], pts: &Matrix, j0: usize, out: &mut [f64]) {
        sq_dists_into(a, pts, j0, out);
        for v in out {
            let r = v.sqrt();
            let s = 5f64.sqrt() * r / self.length;
            *v = self.sigma_f2 * (1.0 + s + s * s / 3.0) * (-s).exp();
        }
    }

    fn gradients_into(&self, a: &[f64], pts: &Matrix, j0: usize, k: &[f64], out: &mut [f64]) {
        debug_assert_eq!(out.len(), 2 * k.len());
        let (amplitude, length) = out.split_at_mut(k.len());
        amplitude.copy_from_slice(k);
        sq_dists_into(a, pts, j0, length);
        for g in length {
            let r = g.sqrt();
            let s = 5f64.sqrt() * r / self.length;
            let e = (-s).exp();
            *g = self.sigma_f2 * (s * s / 3.0) * (1.0 + s) * e;
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
    use crate::kernel::check_gradient;
    use crate::kernel::RbfKernel;

    #[test]
    fn diag_is_amplitude() {
        let x = [0.2, 0.8];
        let k32 = Matern32Kernel::new(3.0, 1.1);
        assert!((k32.value(&x, &x) - 3.0).abs() < 1e-12);
        let k52 = Matern52Kernel::new(2.0, 1.1);
        assert!((k52.value(&x, &x) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn smoothness_ordering_at_moderate_distance() {
        // At the same length scale, higher ν decays like the RBF; 3/2 has
        // heavier tails than 5/2 which has heavier tails than RBF at
        // moderate-to-large distances.
        let a = [0.0];
        let b = [2.0];
        let v32 = Matern32Kernel::new(1.0, 1.0).value(&a, &b);
        let v52 = Matern52Kernel::new(1.0, 1.0).value(&a, &b);
        let vrbf = RbfKernel::new(1.0, 1.0).value(&a, &b);
        assert!(v32 > v52, "{v32} vs {v52}");
        assert!(v52 > vrbf, "{v52} vs {vrbf}");
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut k32 = Matern32Kernel::new(1.6, 0.8);
        check_gradient(&mut k32, &[0.1, 0.9], &[0.7, 0.2]);
        let mut k52 = Matern52Kernel::new(0.9, 1.4);
        check_gradient(&mut k52, &[0.1, 0.9], &[0.7, 0.2]);
    }

    #[test]
    fn gradient_vanishes_at_zero_distance_for_length_scale() {
        let k = Matern52Kernel::new(1.0, 1.0);
        let mut g = [0.0; 2];
        k.gradient(&[0.5], &[0.5], k.value(&[0.5], &[0.5]), &mut g);
        assert!((g[0] - 1.0).abs() < 1e-12); // ∂k/∂log σ_f² = k = σ_f²
        assert_eq!(g[1], 0.0);
    }

    #[test]
    fn params_roundtrip() {
        let mut k = Matern32Kernel::new(1.0, 1.0);
        k.set_params(&[0.3, -0.2]).unwrap();
        assert_eq!(k.params(), vec![0.3, -0.2]);
        assert!(k.set_params(&[0.0, 0.0, 0.0]).is_err());

        let mut k = Matern52Kernel::new(1.0, 1.0);
        k.set_params(&[0.1, 0.2]).unwrap();
        assert_eq!(k.params(), vec![0.1, 0.2]);
        assert!(k.set_params(&[]).is_err());
    }

    #[test]
    fn cached_constants_match_the_per_call_formulas_bitwise() {
        let legacy32 = crate::kernel::Legacy {
            value: |p, a, b| {
                let r = sq_dist(a, b).sqrt();
                let s = 3f64.sqrt() * r / p[1].exp();
                p[0].exp() * (1.0 + s) * (-s).exp()
            },
            gradient: |p, a, b, out| {
                let r = sq_dist(a, b).sqrt();
                let s = 3f64.sqrt() * r / p[1].exp();
                let e = (-s).exp();
                let sf2 = p[0].exp();
                out[0] = sf2 * (1.0 + s) * e;
                out[1] = sf2 * s * s * e;
            },
            diag: |p| p[0].exp(),
        };
        crate::kernel::check_legacy_parity(&mut Matern32Kernel::new(1.6, 0.8), 2, &legacy32);
        let legacy52 = crate::kernel::Legacy {
            value: |p, a, b| {
                let r = sq_dist(a, b).sqrt();
                let s = 5f64.sqrt() * r / p[1].exp();
                p[0].exp() * (1.0 + s + s * s / 3.0) * (-s).exp()
            },
            gradient: |p, a, b, out| {
                let r = sq_dist(a, b).sqrt();
                let s = 5f64.sqrt() * r / p[1].exp();
                let e = (-s).exp();
                let sf2 = p[0].exp();
                out[0] = sf2 * (1.0 + s + s * s / 3.0) * e;
                out[1] = sf2 * (s * s / 3.0) * (1.0 + s) * e;
            },
            diag: |p| p[0].exp(),
        };
        crate::kernel::check_legacy_parity(&mut Matern52Kernel::new(0.9, 1.4), 2, &legacy52);
    }

    #[test]
    fn monotone_decay() {
        let k = Matern32Kernel::new(1.0, 1.0);
        let mut prev = f64::INFINITY;
        for i in 0..10 {
            let v = k.value(&[0.0], &[i as f64 * 0.5]);
            assert!(v < prev || i == 0);
            prev = v;
        }
    }
}
