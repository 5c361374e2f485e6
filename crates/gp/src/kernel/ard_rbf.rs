//! Anisotropic (ARD) squared-exponential kernel — one length scale per input
//! dimension, listed in the paper's future work (Section VI).

use super::Kernel;
use crate::error::GpError;

/// `k(a, b) = σ_f² · exp(−½ Σ_k ((a_k−b_k)/l_k)²)` with log-space parameters
/// `[log σ_f², log l_1, ..., log l_d]`.
#[derive(Debug, Clone)]
pub struct ArdRbfKernel {
    log_sigma_f2: f64,
    log_lengths: Vec<f64>,
    /// `σ_f²` and each `l_k`, cached from the log parameters.
    sigma_f2: f64,
    lengths: Vec<f64>,
}

impl ArdRbfKernel {
    /// Create from natural-space amplitude and per-dimension length scales.
    pub fn new(sigma_f2: f64, length_scales: &[f64]) -> Self {
        assert!(sigma_f2 > 0.0);
        assert!(!length_scales.is_empty());
        assert!(length_scales.iter().all(|&l| l > 0.0));
        let log_sigma_f2 = sigma_f2.ln();
        let log_lengths: Vec<f64> = length_scales.iter().map(|l| l.ln()).collect();
        ArdRbfKernel {
            log_sigma_f2,
            sigma_f2: log_sigma_f2.exp(),
            lengths: log_lengths.iter().map(|ll| ll.exp()).collect(),
            log_lengths,
        }
    }

    /// Input dimensionality this kernel was built for.
    pub fn dim(&self) -> usize {
        self.log_lengths.len()
    }

    /// Natural-space length scales.
    pub fn length_scales(&self) -> Vec<f64> {
        self.lengths.clone()
    }

    /// Scaled squared distance `Σ ((a_k−b_k)/l_k)²`.
    fn scaled_sq_dist(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), self.lengths.len());
        a.iter()
            .zip(b)
            .zip(&self.lengths)
            .map(|((x, y), l)| {
                let d = (x - y) / l;
                d * d
            })
            .sum()
    }
}

impl Kernel for ArdRbfKernel {
    fn name(&self) -> &'static str {
        "ARD-RBF"
    }

    fn n_params(&self) -> usize {
        1 + self.log_lengths.len()
    }

    fn params(&self) -> Vec<f64> {
        let mut p = Vec::with_capacity(self.n_params());
        p.push(self.log_sigma_f2);
        p.extend_from_slice(&self.log_lengths);
        p
    }

    fn set_params(&mut self, p: &[f64]) -> Result<(), GpError> {
        if p.len() != self.n_params() {
            return Err(GpError::BadParamLength {
                expected: self.n_params(),
                got: p.len(),
            });
        }
        self.log_sigma_f2 = p[0];
        self.sigma_f2 = p[0].exp();
        self.log_lengths.copy_from_slice(&p[1..]);
        for (l, ll) in self.lengths.iter_mut().zip(&self.log_lengths) {
            *l = ll.exp();
        }
        Ok(())
    }

    #[inline]
    fn value(&self, a: &[f64], b: &[f64]) -> f64 {
        self.sigma_f2 * (-0.5 * self.scaled_sq_dist(a, b)).exp()
    }

    fn gradient(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        let k = self.value(a, b);
        out[0] = k;
        // ∂k/∂log l_j = k · ((a_j−b_j)/l_j)².
        for (j, l) in self.lengths.iter().enumerate() {
            let d = (a[j] - b[j]) / l;
            out[1 + j] = k * d * d;
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
    fn reduces_to_isotropic_with_equal_scales() {
        let ard = ArdRbfKernel::new(1.4, &[0.7, 0.7, 0.7]);
        let iso = RbfKernel::new(1.4, 0.7);
        let a = [0.1, 0.5, 0.9];
        let b = [0.3, 0.2, 0.8];
        assert!((ard.value(&a, &b) - iso.value(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn per_dimension_scales_mask_irrelevant_dims() {
        // A huge length scale on dim 1 makes differences there irrelevant.
        let ard = ArdRbfKernel::new(1.0, &[0.5, 1e6]);
        let near = ard.value(&[0.0, 0.0], &[0.0, 100.0]);
        assert!((near - 1.0).abs() < 1e-6);
        let far = ard.value(&[0.0, 0.0], &[1.0, 0.0]);
        assert!(far < 0.2);
    }

    #[test]
    fn cached_constants_match_the_per_call_formulas_bitwise() {
        fn scaled(p: &[f64], a: &[f64], b: &[f64]) -> f64 {
            a.iter()
                .zip(b)
                .zip(&p[1..])
                .map(|((x, y), ll)| {
                    let d = (x - y) / ll.exp();
                    d * d
                })
                .sum()
        }
        let legacy = crate::kernel::Legacy {
            value: |p, a, b| p[0].exp() * (-0.5 * scaled(p, a, b)).exp(),
            gradient: |p, a, b, out| {
                let k = p[0].exp() * (-0.5 * scaled(p, a, b)).exp();
                out[0] = k;
                for (j, ll) in p[1..].iter().enumerate() {
                    let d = (a[j] - b[j]) / ll.exp();
                    out[1 + j] = k * d * d;
                }
            },
            diag: |p| p[0].exp(),
        };
        let mut k = ArdRbfKernel::new(1.4, &[0.7, 2.0, 0.3]);
        crate::kernel::check_legacy_parity(&mut k, 3, &legacy);
    }

    #[test]
    fn params_roundtrip_and_validation() {
        let mut k = ArdRbfKernel::new(1.0, &[1.0, 2.0]);
        assert_eq!(k.n_params(), 3);
        let p = vec![0.2, -0.3, 0.4];
        k.set_params(&p).unwrap();
        assert_eq!(k.params(), p);
        assert!(k.set_params(&[0.0]).is_err());
        assert_eq!(k.dim(), 2);
        let ls = k.length_scales();
        assert!((ls[0] - (-0.3f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut k = ArdRbfKernel::new(2.0, &[0.4, 1.2, 0.9]);
        check_gradient(&mut k, &[0.1, 0.9, 0.4], &[0.7, 0.2, 0.3]);
        check_gradient(&mut k, &[0.5, 0.5, 0.5], &[0.5, 0.5, 0.5]);
    }
}
