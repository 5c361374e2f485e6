//! Covariance functions (kernels) and their log-space gradients.
//!
//! All hyperparameters live in **log space** — positivity is then free and
//! LML gradient ascent is unconstrained apart from box bounds. For every
//! kernel the first parameter is `log σ_f²` (the amplitude of paper Eq. 7);
//! the remaining parameters are log length scales.
//!
//! The observation noise `σ_n²` is *not* part of the kernel: [`crate::GpModel`]
//! owns it as an extra hyperparameter, matching the paper's
//! `(l, σ_f², σ_n²)` triple.

mod ard_rbf;
mod matern;
mod rational_quadratic;
mod rbf;

pub use ard_rbf::ArdRbfKernel;
pub use matern::{Matern32Kernel, Matern52Kernel};
pub use rational_quadratic::RationalQuadraticKernel;
pub use rbf::RbfKernel;

use crate::error::GpError;
use al_linalg::Matrix;

/// A stationary covariance function with analytic log-space gradients.
pub trait Kernel: Send + Sync {
    /// Human-readable kernel name (for reports and ablation tables).
    fn name(&self) -> &'static str;

    /// Number of log-space hyperparameters.
    fn n_params(&self) -> usize;

    /// Current hyperparameters in log space, `[log σ_f², log l, ...]`.
    fn params(&self) -> Vec<f64>;

    /// Replace the hyperparameters (log space). Length must match
    /// [`Kernel::n_params`].
    fn set_params(&mut self, p: &[f64]) -> Result<(), GpError>;

    /// Covariance `k(a, b)`.
    ///
    /// This is the per-pair bit contract of [`Kernel::values_into`]: every
    /// fit, predict and pool path evaluates kernels in blocks through
    /// `values_into`, and only the tests call `value`, as the oracle each
    /// block value must match bit for bit
    /// (`block_values_and_gradients_match_the_per_pair_oracle_bitwise`).
    fn value(&self, a: &[f64], b: &[f64]) -> f64;

    /// Gradient `∂k(a,b)/∂p_i` for every log-space parameter, written into
    /// `out` (length [`Kernel::n_params`]).
    ///
    /// Like [`Kernel::value`], this is a per-pair bit contract: the LML
    /// gradient evaluates blocks through [`Kernel::gradients_into`], and
    /// only the tests call `gradient`, as the oracle of each block term.
    /// `k` must be `self.value(a, b)`, bit for bit. A caller that has the
    /// pair's value already passes it in: the LML gradient reads it from
    /// the `K_y` it just factored, so one evaluation computes each kernel
    /// value once. Every kernel writes `out[0] = k`
    /// (`∂k/∂log σ_f² = k`); the RBF, ARD-RBF and rational-quadratic
    /// length-scale terms scale `k` and need no `exp` or `powf` of their
    /// own, while Matérn keeps its own `e^{−s}` for them. The output bits
    /// are those of the same formulas with `k` recomputed inside, so any
    /// other `k` yields the gradient of a different kernel value.
    fn gradient(&self, a: &[f64], b: &[f64], k: f64, out: &mut [f64]);

    /// [`Kernel::value`] of `a` against a block of points, written into
    /// `out`: `pts` is `d × N`, dimension-major with one column per point,
    /// and `out[j]` is `value(a, p)` for `p` = column `j0 + j`, bit for bit.
    /// Every kernel computes the block's distances in one pass
    /// (`ops::sq_dists_into`, or ARD-RBF's scaled fold in the same order)
    /// and then applies its own transform lane by lane, with the
    /// expression and operation order of `value`. The values are also
    /// `value(p, a)`'s bits: each distance term squares a difference whose
    /// sign alone depends on the argument order.
    fn values_into(&self, a: &[f64], pts: &Matrix, j0: usize, out: &mut [f64]);

    /// [`Kernel::gradient`] of `a` against the block of
    /// [`Kernel::values_into`], given the block's values `k` (bit for bit
    /// theirs): with `w = k.len()` points, `out[g * w + j]` is the
    /// gradient's term `g` for column `j0 + j`, and `out` holds
    /// `n_params() · w` terms.
    fn gradients_into(&self, a: &[f64], pts: &Matrix, j0: usize, k: &[f64], out: &mut [f64]);

    /// `k(x, x)` — for stationary kernels this is the amplitude `σ_f²`.
    /// For every kernel here it is also `value(x, x)`'s bits at any finite
    /// `x`: a zero distance makes each transform's factor exactly 1.
    fn diag_value(&self) -> f64;

    /// Clone into a boxed trait object (kernels are small value types).
    fn clone_box(&self) -> Box<dyn Kernel>;
}

impl Clone for Box<dyn Kernel> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Kernel families selectable at runtime (used by the kernel ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Isotropic squared exponential (paper Eq. 7, the default).
    Rbf,
    /// Squared exponential with one length scale per input dimension.
    ArdRbf {
        /// Input dimensionality.
        dim: usize,
    },
    /// Matérn ν = 3/2.
    Matern32,
    /// Matérn ν = 5/2.
    Matern52,
    /// Rational quadratic (scale mixture of RBFs), initial `α = 1`.
    RationalQuadratic,
}

impl KernelKind {
    /// Construct the kernel with unit amplitude and the given initial
    /// length scale.
    pub fn build(self, length_scale: f64) -> Box<dyn Kernel> {
        match self {
            KernelKind::Rbf => Box::new(RbfKernel::new(1.0, length_scale)),
            KernelKind::ArdRbf { dim } => {
                Box::new(ArdRbfKernel::new(1.0, &vec![length_scale; dim]))
            }
            KernelKind::Matern32 => Box::new(Matern32Kernel::new(1.0, length_scale)),
            KernelKind::Matern52 => Box::new(Matern52Kernel::new(1.0, length_scale)),
            KernelKind::RationalQuadratic => {
                Box::new(RationalQuadraticKernel::new(1.0, length_scale, 1.0))
            }
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            KernelKind::Rbf => "RBF",
            KernelKind::ArdRbf { .. } => "ARD-RBF",
            KernelKind::Matern32 => "Matern-3/2",
            KernelKind::Matern52 => "Matern-5/2",
            KernelKind::RationalQuadratic => "RationalQuadratic",
        }
    }
}

/// Finite-difference check helper shared by the kernel unit tests.
#[cfg(test)]
pub(crate) fn check_gradient(kernel: &mut dyn Kernel, a: &[f64], b: &[f64]) {
    let p0 = kernel.params();
    let mut analytic = vec![0.0; kernel.n_params()];
    kernel.gradient(a, b, kernel.value(a, b), &mut analytic);
    let h = 1e-6;
    for i in 0..p0.len() {
        let mut pp = p0.clone();
        pp[i] += h;
        kernel.set_params(&pp).unwrap();
        let up = kernel.value(a, b);
        pp[i] -= 2.0 * h;
        kernel.set_params(&pp).unwrap();
        let dn = kernel.value(a, b);
        kernel.set_params(&p0).unwrap();
        let fd = (up - dn) / (2.0 * h);
        assert!(
            (fd - analytic[i]).abs() < 1e-6 * (1.0 + fd.abs()),
            "param {i}: fd={fd} analytic={}",
            analytic[i]
        );
    }
}

/// `(p, a, b, out)`: a kernel gradient evaluated from log parameters `p`.
#[cfg(test)]
pub(crate) type LegacyGradient = fn(&[f64], &[f64], &[f64], &mut [f64]);

/// A kernel's formulas as they were before its natural-space constants
/// were cached, each evaluated from the log parameters `p`.
#[cfg(test)]
pub(crate) struct Legacy {
    pub value: fn(p: &[f64], a: &[f64], b: &[f64]) -> f64,
    pub gradient: LegacyGradient,
    pub diag: fn(p: &[f64]) -> f64,
}

/// Assert that `value`, `gradient` and `diag_value` return the bits of the
/// [`Legacy`] formulas at several parameter vectors, each reached through
/// a `set_params` round trip, over coincident, near and far point pairs
/// of dimension `dim`.
#[cfg(test)]
pub(crate) fn check_legacy_parity(kernel: &mut dyn Kernel, dim: usize, legacy: &Legacy) {
    let p0 = kernel.params();
    let points: Vec<Vec<f64>> = (0..7)
        .map(|r| {
            (0..dim)
                .map(|c| ((r * dim + c) as f64 * 0.77).sin() + if r == 6 { 40.0 } else { 0.0 })
                .collect()
        })
        .collect();
    let mut got = vec![0.0; p0.len()];
    let mut want = vec![0.0; p0.len()];
    for shift in [0.0, -2.3, -0.4, 0.9, 3.1] {
        let p: Vec<f64> = p0
            .iter()
            .enumerate()
            .map(|(i, v)| v + shift + 0.37 * i as f64)
            .collect();
        kernel.set_params(&p).unwrap();
        kernel.set_params(&p0).unwrap();
        kernel.set_params(&p).unwrap();
        assert_eq!(kernel.params(), p);
        assert_eq!(kernel.diag_value().to_bits(), (legacy.diag)(&p).to_bits());
        for a in &points {
            for b in &points {
                let (v, lv) = (kernel.value(a, b), (legacy.value)(&p, a, b));
                assert_eq!(v.to_bits(), lv.to_bits(), "value at {p:?}: {v} vs {lv}");
                kernel.gradient(a, b, v, &mut got);
                (legacy.gradient)(&p, a, b, &mut want);
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.to_bits(), w.to_bits(), "gradient at {p:?}: {g} vs {w}");
                }
            }
        }
    }
    kernel.set_params(&p0).unwrap();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_builds_matching_kernel() {
        assert_eq!(KernelKind::Rbf.build(1.0).name(), "RBF");
        assert_eq!(KernelKind::ArdRbf { dim: 3 }.build(1.0).name(), "ARD-RBF");
        assert_eq!(KernelKind::Matern32.build(1.0).name(), "Matern-3/2");
        assert_eq!(KernelKind::Matern52.build(1.0).name(), "Matern-5/2");
        assert_eq!(KernelKind::ArdRbf { dim: 3 }.build(1.0).n_params(), 4);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(KernelKind::Rbf.label(), "RBF");
        assert_eq!(KernelKind::Matern52.label(), "Matern-5/2");
    }

    /// A `dim × 70` block of points around `a`, dimension-major: columns
    /// at distances from 0 to ~50 (so `exp` underflows to subnormals and
    /// to +0 at the small length scales below), coincident with `a`, and
    /// with −0.0 coordinates.
    fn block_around(a: &[f64]) -> Matrix {
        let dim = a.len();
        let n = 70;
        let mut pts = Matrix::zeros(dim, n);
        for j in 0..n {
            let r = match j % 5 {
                0 => 0.0,
                1 => 0.05 * j as f64,
                _ => 0.7 * j as f64,
            };
            for (k, &ak) in a.iter().enumerate() {
                let dir = ((j * 7 + k * 3) as f64 * 0.9).cos();
                pts[(k, j)] = if j % 9 == 4 { -0.0 } else { ak + r * dir };
            }
        }
        pts
    }

    #[test]
    fn block_values_and_gradients_match_the_per_pair_oracle_bitwise() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (mut subnormal, mut zero) = (0usize, 0usize);
        for dim in 1..=5 {
            let kinds = [
                KernelKind::Rbf,
                KernelKind::ArdRbf { dim },
                KernelKind::Matern32,
                KernelKind::Matern52,
                KernelKind::RationalQuadratic,
            ];
            for kind in kinds {
                for length in [0.8, 0.05] {
                    let mut kernel = kind.build(length);
                    let p: Vec<f64> = kernel
                        .params()
                        .iter()
                        .enumerate()
                        .map(|(i, v)| v + 0.1 * i as f64)
                        .collect();
                    kernel.set_params(&p).unwrap();
                    let nk = kernel.n_params();
                    let fixed = [
                        (0..dim).map(|k| 0.3 * k as f64 - 0.1).collect(),
                        vec![-0.0; dim],
                    ];
                    for a in &fixed {
                        let pts = block_around(a);
                        for w in [1usize, 3, 4, 5, 63, 64, 65] {
                            for j0 in [0, pts.cols() - w] {
                                let label =
                                    format!("{} dim={dim} l={length} w={w} j0={j0}", kind.label());
                                let cols: Vec<Vec<f64>> =
                                    (j0..j0 + w).map(|j| pts.col(j)).collect();
                                let mut values = vec![f64::NAN; w];
                                kernel.values_into(a, &pts, j0, &mut values);
                                let want: Vec<f64> =
                                    cols.iter().map(|b| kernel.value(a, b)).collect();
                                let swapped: Vec<f64> =
                                    cols.iter().map(|b| kernel.value(b, a)).collect();
                                assert_eq!(bits(&values), bits(&want), "values, {label}");
                                assert_eq!(bits(&values), bits(&swapped), "swapped, {label}");
                                subnormal += values.iter().filter(|v| v.is_subnormal()).count();
                                zero += values.iter().filter(|&&v| v == 0.0).count();

                                let mut terms = vec![f64::NAN; nk * w];
                                kernel.gradients_into(a, &pts, j0, &values, &mut terms);
                                let mut pair = vec![0.0; nk];
                                for (j, b) in cols.iter().enumerate() {
                                    kernel.gradient(a, b, values[j], &mut pair);
                                    let got: Vec<f64> = (0..nk).map(|g| terms[g * w + j]).collect();
                                    assert_eq!(bits(&got), bits(&pair), "gradient {j}, {label}");
                                }
                            }
                        }
                        // `diag_value` stands in for `value(x, x)`.
                        assert_eq!(kernel.value(a, a).to_bits(), kernel.diag_value().to_bits());
                    }
                }
            }
        }
        assert!(
            subnormal > 0 && zero > 0,
            "{subnormal} subnormal, {zero} zero values"
        );
    }

    #[test]
    fn boxed_kernel_clones() {
        let k = KernelKind::Rbf.build(2.0);
        let c = k.clone();
        assert_eq!(k.params(), c.params());
    }
}
