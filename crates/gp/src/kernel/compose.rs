//! Kernel combinators: sums and products of kernels, and a white-noise
//! component — the "kernel engineering" surface scikit-learn 0.18's
//! revised GP module introduced (which the paper's implementation relied
//! on). Valid covariance functions are closed under `+` and `×`, and the
//! log-space chain rule makes the combined gradients trivial.

use super::Kernel;
use crate::error::GpError;
use al_linalg::ops::sq_dist;

/// Sum of two kernels: `k(a,b) = k₁(a,b) + k₂(a,b)`.
///
/// Parameters are the concatenation `[params(k₁), params(k₂)]`.
#[derive(Clone)]
pub struct SumKernel {
    left: Box<dyn Kernel>,
    right: Box<dyn Kernel>,
}

/// Product of two kernels: `k(a,b) = k₁(a,b) · k₂(a,b)`.
///
/// Parameters are the concatenation `[params(k₁), params(k₂)]`.
#[derive(Clone)]
pub struct ProductKernel {
    left: Box<dyn Kernel>,
    right: Box<dyn Kernel>,
}

/// White-noise kernel: `k(a,b) = σ_w² · 1[a = b]` (exact coincidence).
///
/// Useful as a summand when heteroscedastic jitter should be learned as
/// part of the kernel rather than via the model's `σ_n²`.
#[derive(Debug, Clone)]
pub struct WhiteKernel {
    log_sigma2: f64,
    /// `σ_w²`, cached from the log parameter.
    sigma2: f64,
}

impl SumKernel {
    /// Combine two kernels additively.
    pub fn new(left: Box<dyn Kernel>, right: Box<dyn Kernel>) -> Self {
        SumKernel { left, right }
    }
}

impl ProductKernel {
    /// Combine two kernels multiplicatively.
    pub fn new(left: Box<dyn Kernel>, right: Box<dyn Kernel>) -> Self {
        ProductKernel { left, right }
    }
}

impl WhiteKernel {
    /// Create with natural-space variance `σ_w²`.
    pub fn new(sigma2: f64) -> Self {
        assert!(sigma2 > 0.0);
        WhiteKernel::from_log(sigma2.ln())
    }

    /// Build from the log variance, caching `σ_w²`.
    fn from_log(log_sigma2: f64) -> Self {
        WhiteKernel {
            log_sigma2,
            sigma2: log_sigma2.exp(),
        }
    }
}

impl Kernel for SumKernel {
    fn name(&self) -> &'static str {
        "Sum"
    }

    fn n_params(&self) -> usize {
        self.left.n_params() + self.right.n_params()
    }

    fn params(&self) -> Vec<f64> {
        let mut p = self.left.params();
        p.extend(self.right.params());
        p
    }

    fn set_params(&mut self, p: &[f64]) -> Result<(), GpError> {
        if p.len() != self.n_params() {
            return Err(GpError::BadParamLength {
                expected: self.n_params(),
                got: p.len(),
            });
        }
        let nl = self.left.n_params();
        self.left.set_params(&p[..nl])?;
        self.right.set_params(&p[nl..])
    }

    fn value(&self, a: &[f64], b: &[f64]) -> f64 {
        self.left.value(a, b) + self.right.value(a, b)
    }

    fn gradient(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        let nl = self.left.n_params();
        self.left.gradient(a, b, &mut out[..nl]);
        self.right.gradient(a, b, &mut out[nl..]);
    }

    fn diag_value(&self) -> f64 {
        self.left.diag_value() + self.right.diag_value()
    }

    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }
}

impl Kernel for ProductKernel {
    fn name(&self) -> &'static str {
        "Product"
    }

    fn n_params(&self) -> usize {
        self.left.n_params() + self.right.n_params()
    }

    fn params(&self) -> Vec<f64> {
        let mut p = self.left.params();
        p.extend(self.right.params());
        p
    }

    fn set_params(&mut self, p: &[f64]) -> Result<(), GpError> {
        if p.len() != self.n_params() {
            return Err(GpError::BadParamLength {
                expected: self.n_params(),
                got: p.len(),
            });
        }
        let nl = self.left.n_params();
        self.left.set_params(&p[..nl])?;
        self.right.set_params(&p[nl..])
    }

    fn value(&self, a: &[f64], b: &[f64]) -> f64 {
        self.left.value(a, b) * self.right.value(a, b)
    }

    fn gradient(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        // Product rule: ∂(k₁k₂)/∂θ₁ = k₂ ∂k₁/∂θ₁, and symmetrically.
        let nl = self.left.n_params();
        let vl = self.left.value(a, b);
        let vr = self.right.value(a, b);
        self.left.gradient(a, b, &mut out[..nl]);
        for g in &mut out[..nl] {
            *g *= vr;
        }
        self.right.gradient(a, b, &mut out[nl..]);
        for g in &mut out[nl..] {
            *g *= vl;
        }
    }

    fn diag_value(&self) -> f64 {
        self.left.diag_value() * self.right.diag_value()
    }

    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }
}

impl Kernel for WhiteKernel {
    fn name(&self) -> &'static str {
        "White"
    }

    fn n_params(&self) -> usize {
        1
    }

    fn params(&self) -> Vec<f64> {
        vec![self.log_sigma2]
    }

    fn set_params(&mut self, p: &[f64]) -> Result<(), GpError> {
        if p.len() != 1 {
            return Err(GpError::BadParamLength {
                expected: 1,
                got: p.len(),
            });
        }
        *self = WhiteKernel::from_log(p[0]);
        Ok(())
    }

    fn value(&self, a: &[f64], b: &[f64]) -> f64 {
        // White noise fires only when the two points are bitwise equal —
        // the standard semantics for this kernel, so an exact comparison
        // of the distance against zero is the intended test.
        #[allow(clippy::float_cmp)] // alint: allow(L2)
        if sq_dist(a, b) == 0.0 {
            self.sigma2
        } else {
            0.0
        }
    }

    fn gradient(&self, a: &[f64], b: &[f64], out: &mut [f64]) {
        out[0] = self.value(a, b);
    }

    fn diag_value(&self) -> f64 {
        self.sigma2
    }

    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{check_gradient, Matern32Kernel, RbfKernel};

    fn sum() -> SumKernel {
        SumKernel::new(
            Box::new(RbfKernel::new(1.5, 0.7)),
            Box::new(Matern32Kernel::new(0.8, 1.2)),
        )
    }

    fn product() -> ProductKernel {
        ProductKernel::new(
            Box::new(RbfKernel::new(1.5, 0.7)),
            Box::new(Matern32Kernel::new(0.8, 1.2)),
        )
    }

    #[test]
    fn sum_adds_values_and_diags() {
        let k = sum();
        let a = [0.1, 0.9];
        let b = [0.4, 0.3];
        let expect =
            RbfKernel::new(1.5, 0.7).value(&a, &b) + Matern32Kernel::new(0.8, 1.2).value(&a, &b);
        assert!((k.value(&a, &b) - expect).abs() < 1e-12);
        assert!((k.diag_value() - 2.3).abs() < 1e-12);
        assert_eq!(k.n_params(), 4);
    }

    #[test]
    fn product_multiplies_values_and_diags() {
        let k = product();
        let a = [0.1, 0.9];
        let b = [0.4, 0.3];
        let expect =
            RbfKernel::new(1.5, 0.7).value(&a, &b) * Matern32Kernel::new(0.8, 1.2).value(&a, &b);
        assert!((k.value(&a, &b) - expect).abs() < 1e-12);
        assert!((k.diag_value() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn composite_gradients_match_finite_differences() {
        let mut k = sum();
        check_gradient(&mut k, &[0.1, 0.9], &[0.7, 0.2]);
        let mut k = product();
        check_gradient(&mut k, &[0.1, 0.9], &[0.7, 0.2]);
    }

    #[test]
    fn composite_params_concatenate_and_roundtrip() {
        let mut k = sum();
        let p = vec![0.1, -0.2, 0.3, -0.4];
        k.set_params(&p).unwrap();
        assert_eq!(k.params(), p);
        assert!(k.set_params(&[0.0]).is_err());
    }

    #[test]
    fn white_kernel_is_a_delta() {
        let w = WhiteKernel::new(0.25);
        let a = [0.3, 0.3];
        assert!((w.value(&a, &a) - 0.25).abs() < 1e-12);
        assert_eq!(w.value(&a, &[0.3, 0.3001]), 0.0);
        assert!((w.diag_value() - 0.25).abs() < 1e-12);
        let mut g = [0.0];
        w.gradient(&a, &a, &mut g);
        assert!((g[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn white_cached_variance_matches_the_per_call_formula_bitwise() {
        let legacy = crate::kernel::Legacy {
            value: |p, a, b| {
                if sq_dist(a, b) == 0.0 {
                    p[0].exp()
                } else {
                    0.0
                }
            },
            gradient: |p, a, b, out| {
                let hit = sq_dist(a, b) == 0.0;
                out[0] = if hit { p[0].exp() } else { 0.0 };
            },
            diag: |p| p[0].exp(),
        };
        crate::kernel::check_legacy_parity(&mut WhiteKernel::new(0.25), 2, &legacy);
    }

    #[test]
    fn rbf_plus_white_fits_noisy_data() {
        use crate::{FitOptions, GpModel};
        use al_linalg::Matrix;
        // Learn the noise level through the kernel instead of σ_n².
        let n = 20;
        let xs: Vec<f64> = (0..n).map(|i| i as f64 / (n - 1) as f64).collect();
        let y: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| (4.0 * x).sin() + if i % 2 == 0 { 0.05 } else { -0.05 })
            .collect();
        let x = Matrix::from_vec(n, 1, xs);
        let kernel = SumKernel::new(
            Box::new(RbfKernel::new(1.0, 0.3)),
            Box::new(WhiteKernel::new(0.01)),
        );
        let mut gp = GpModel::new(Box::new(kernel), 1e-6);
        gp.fit_optimized(&x, &y, &FitOptions::default()).unwrap();
        let (mu, _) = gp.predict_one(&[0.52]).unwrap();
        assert!((mu - (4.0f64 * 0.52).sin()).abs() < 0.15, "mu = {mu}");
    }

    #[test]
    fn nested_composition_works() {
        // (RBF + White) · Matern — params = 2 + 1 + 2.
        let k = ProductKernel::new(
            Box::new(SumKernel::new(
                Box::new(RbfKernel::new(1.0, 0.5)),
                Box::new(WhiteKernel::new(0.1)),
            )),
            Box::new(Matern32Kernel::new(1.0, 1.0)),
        );
        assert_eq!(k.n_params(), 5);
        let mut k = k;
        check_gradient(&mut k, &[0.2], &[0.8]);
    }
}
