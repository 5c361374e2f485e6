//! Covariance functions (kernels) and their log-space gradients.
//!
//! All hyperparameters live in **log space** — positivity is then free and
//! LML gradient ascent is unconstrained apart from box bounds. For every
//! kernel the first parameter is `log σ_f²` (the amplitude of paper Eq. 7);
//! the remaining parameters are log length scales (and the rational
//! quadratic's `log α`).
//!
//! The observation noise `σ_n²` is *not* part of the kernel: [`crate::GpModel`]
//! owns it as an extra hyperparameter, matching the paper's
//! `(l, σ_f², σ_n²)` triple.

use crate::error::GpError;
use al_linalg::ops::sq_dists_into;
use al_linalg::Matrix;

/// Kernel families selectable at runtime (used by the kernel ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Isotropic squared exponential (paper Eq. 7, the default):
    /// `k(a, b) = σ_f² · exp(−‖a−b‖² / (2 l²))`, parameters
    /// `[log σ_f², log l]`.
    Rbf,
    /// Squared exponential with one length scale per input dimension
    /// (paper Section VI's future work):
    /// `k(a, b) = σ_f² · exp(−½ Σ_k ((a_k−b_k)/l_k)²)`, parameters
    /// `[log σ_f², log l_1, ..., log l_d]`.
    ArdRbf {
        /// Input dimensionality: a fit on data with any other number of
        /// columns fails.
        dim: usize,
    },
    /// Matérn ν = 3/2: `k = σ_f² (1 + s) e^{−s}` with `s = √3 ‖a−b‖ / l`,
    /// parameters `[log σ_f², log l]`.
    Matern32,
    /// Matérn ν = 5/2: `k = σ_f² (1 + s + s²/3) e^{−s}` with
    /// `s = √5 ‖a−b‖ / l`, parameters `[log σ_f², log l]`.
    Matern52,
    /// Rational quadratic, a scale mixture of RBFs:
    /// `k = σ_f² (1 + ‖a−b‖²/(2αl²))^(−α)`, parameters
    /// `[log σ_f², log l, log α]`, initial `α = 1`. It converges to the
    /// RBF as `α → ∞`.
    RationalQuadratic,
}

impl KernelKind {
    /// Construct the kernel with unit amplitude and the given initial
    /// length scale (every ARD dimension starts at it). A length scale
    /// that is not positive and finite leaves a non-finite log parameter,
    /// which [`crate::GpModel::fit`] rejects.
    pub fn build(self, length_scale: f64) -> Kernel {
        let ll = length_scale.ln();
        let log = match self {
            KernelKind::Rbf | KernelKind::Matern32 | KernelKind::Matern52 => vec![0.0, ll],
            KernelKind::ArdRbf { dim } => std::iter::once(0.0)
                .chain(std::iter::repeat_n(ll, dim))
                .collect(),
            KernelKind::RationalQuadratic => vec![0.0, ll, 0.0],
        };
        let mut kernel = Kernel {
            kind: self,
            nat: log.clone(),
            log,
        };
        kernel.cache();
        kernel
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

/// A stationary covariance function of one [`KernelKind`] at its current
/// log-space hyperparameters, with analytic log-space gradients.
///
/// Every fit, predict and pool path evaluates the kernel in blocks
/// through [`Kernel::values_into`] and [`Kernel::gradients_into`]. Each
/// matches on the kind once per block, then runs that kind's lane loop.
#[derive(Debug, Clone)]
pub struct Kernel {
    kind: KernelKind,
    /// `[log σ_f², ...]`, as documented on the kind.
    log: Vec<f64>,
    /// The natural-space constants cached from `log`, one per parameter:
    /// `σ_f²`, then RBF `l²`; Matérn `l`; RQ `l²`, `α`; ARD each `l_k`.
    nat: Vec<f64>,
}

impl Kernel {
    /// Recompute the natural-space constants from `log`, with the
    /// expressions the per-pair formulas used to evaluate per call:
    /// `(2 log l).exp()` for an `l²`, `.exp()` for every other constant.
    fn cache(&mut self) {
        let squared = matches!(self.kind, KernelKind::Rbf | KernelKind::RationalQuadratic);
        for (i, (c, v)) in self.nat.iter_mut().zip(&self.log).enumerate() {
            *c = if squared && i == 1 {
                (2.0 * v).exp()
            } else {
                v.exp()
            };
        }
    }

    /// The kernel family.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// Number of log-space hyperparameters.
    pub fn n_params(&self) -> usize {
        self.log.len()
    }

    /// Current hyperparameters in log space, `[log σ_f², log l, ...]`.
    pub fn params(&self) -> &[f64] {
        &self.log
    }

    /// Replace the hyperparameters (log space). Length must match
    /// [`Kernel::n_params`].
    pub fn set_params(&mut self, p: &[f64]) -> Result<(), GpError> {
        if p.len() != self.log.len() {
            return Err(GpError::BadParamLength {
                expected: self.log.len(),
                got: p.len(),
            });
        }
        self.log.copy_from_slice(p);
        self.cache();
        Ok(())
    }

    /// `k(x, x)`, the amplitude `σ_f²` of every stationary kernel here. It
    /// is also the bits of the pair `(x, x)` at any finite `x`: a zero
    /// distance makes each transform's factor exactly 1.
    pub fn diag_value(&self) -> f64 {
        self.nat[0]
    }

    /// The covariance of `a` against a block of points, written into
    /// `out`: `pts` is `d × N`, dimension-major with one column per point,
    /// and `out[j]` is `k(a, p)` for `p` = column `j0 + j`.
    ///
    /// Every kind computes the block's distances in one pass
    /// (`ops::sq_dists_into`, or ARD-RBF's scaled fold in the same order)
    /// and then applies its own transform lane by lane. Each lane has the
    /// bits of the per-pair formula the tests keep as its oracle
    /// (`block_values_and_gradients_match_the_per_pair_oracle_bitwise`).
    /// The values are also `k(p, a)`'s bits: each distance term squares a
    /// difference whose sign alone depends on the argument order.
    pub fn values_into(&self, a: &[f64], pts: &Matrix, j0: usize, out: &mut [f64]) {
        #[cfg(test)]
        LANES.with(|lanes| lanes.set(lanes.get() + out.len()));
        let sf2 = self.nat[0];
        match self.kind {
            KernelKind::Rbf => {
                let l2 = self.nat[1];
                sq_dists_into(a, pts, j0, out);
                for v in out {
                    *v = sf2 * (-0.5 * *v / l2).exp();
                }
            }
            KernelKind::ArdRbf { .. } => {
                scaled_sq_dists_into(a, &self.nat[1..], pts, j0, out);
                for v in out {
                    *v = sf2 * (-0.5 * *v).exp();
                }
            }
            KernelKind::Matern32 => {
                let length = self.nat[1];
                sq_dists_into(a, pts, j0, out);
                for v in out {
                    let r = v.sqrt();
                    let s = 3f64.sqrt() * r / length;
                    *v = sf2 * (1.0 + s) * (-s).exp();
                }
            }
            KernelKind::Matern52 => {
                let length = self.nat[1];
                sq_dists_into(a, pts, j0, out);
                for v in out {
                    let r = v.sqrt();
                    let s = 5f64.sqrt() * r / length;
                    *v = sf2 * (1.0 + s + s * s / 3.0) * (-s).exp();
                }
            }
            KernelKind::RationalQuadratic => {
                let (l2, alpha) = (self.nat[1], self.nat[2]);
                sq_dists_into(a, pts, j0, out);
                for v in out {
                    let base = 1.0 + *v / (2.0 * alpha * l2);
                    *v = sf2 * base.powf(-alpha);
                }
            }
        }
    }

    /// The gradient `∂k/∂p_g` of `a` against the block of
    /// [`Kernel::values_into`], for every log-space parameter, given the
    /// block's values `k` (bit for bit theirs): with `w = k.len()` points,
    /// `out[g * w + j]` is term `g` for column `j0 + j`, and `out` holds
    /// `n_params() · w` terms.
    ///
    /// The LML gradient reads each `k` from the `K_y` it just factored, so
    /// one evaluation computes each kernel value once. Every kind writes
    /// term 0 as `k` (`∂k/∂log σ_f² = k`); the RBF, ARD-RBF and rational
    /// quadratic length-scale terms scale `k` and need no `exp` or `powf`
    /// of their own, while Matérn keeps its own `e^{−s}` for them. The
    /// output bits are those of the same formulas with `k` recomputed
    /// inside, so any other `k` yields the gradient of a different kernel
    /// value.
    pub fn gradients_into(&self, a: &[f64], pts: &Matrix, j0: usize, k: &[f64], out: &mut [f64]) {
        let w = k.len();
        debug_assert_eq!(out.len(), self.n_params() * w);
        let (amplitude, rest) = out.split_at_mut(w);
        amplitude.copy_from_slice(k);
        let sf2 = self.nat[0];
        match self.kind {
            KernelKind::Rbf => {
                // ∂k/∂log l = k · d²/l².
                let l2 = self.nat[1];
                sq_dists_into(a, pts, j0, rest);
                for (g, kj) in rest.iter_mut().zip(k) {
                    *g = kj * *g / l2;
                }
            }
            KernelKind::ArdRbf { .. } => {
                // ∂k/∂log l_m = k · ((a_m−b_m)/l_m)², one block row per m.
                let stride = pts.cols();
                for (m, (g, (x, l))) in rest
                    .chunks_exact_mut(w.max(1))
                    .zip(a.iter().zip(&self.nat[1..]))
                    .enumerate()
                {
                    let coords = &pts.as_slice()[m * stride + j0..][..w];
                    for ((g, kj), y) in g.iter_mut().zip(k).zip(coords) {
                        let d = (x - y) / l;
                        *g = kj * d * d;
                    }
                }
            }
            KernelKind::Matern32 => {
                // dk/ds = −σ_f² s e^{−s}; ds/d(log l) = −s
                // ⇒ dk/d(log l) = σ_f² s² e^{−s}.
                let length = self.nat[1];
                sq_dists_into(a, pts, j0, rest);
                for g in rest {
                    let r = g.sqrt();
                    let s = 3f64.sqrt() * r / length;
                    let e = (-s).exp();
                    *g = sf2 * s * s * e;
                }
            }
            KernelKind::Matern52 => {
                // dk/ds = −σ_f² (s/3)(1+s) e^{−s}; ds/d(log l) = −s
                // ⇒ dk/d(log l) = σ_f² (s²/3)(1+s) e^{−s}.
                let length = self.nat[1];
                sq_dists_into(a, pts, j0, rest);
                for g in rest {
                    let r = g.sqrt();
                    let s = 5f64.sqrt() * r / length;
                    let e = (-s).exp();
                    *g = sf2 * (s * s / 3.0) * (1.0 + s) * e;
                }
            }
            KernelKind::RationalQuadratic => {
                // ∂k/∂log l = k · d²/(l² base) (chain rule through
                // u ∝ l⁻²); ∂k/∂log α = k·α·(u/base − ln base) (both
                // α-dependencies).
                let (l2, alpha) = (self.nat[1], self.nat[2]);
                let (length, mixture) = rest.split_at_mut(w);
                sq_dists_into(a, pts, j0, length);
                for ((gl, ga), kj) in length.iter_mut().zip(mixture).zip(k) {
                    let d2 = *gl;
                    let u = d2 / (2.0 * alpha * l2);
                    let base = 1.0 + u;
                    *gl = kj * d2 / (l2 * base);
                    *ga = kj * alpha * (u / base - base.ln());
                }
            }
        }
    }
}

/// ARD-RBF's scaled squared distance `Σ_k ((a_k−p_k)/l_k)²` of `a` against
/// each point `p` of a block (see [`Kernel::values_into`]): each lane
/// folds `d_k²` from −0.0 in ascending `k`, as the per-pair `sum` does.
fn scaled_sq_dists_into(a: &[f64], lengths: &[f64], pts: &Matrix, j0: usize, out: &mut [f64]) {
    debug_assert_eq!((a.len(), pts.rows()), (lengths.len(), a.len()));
    let stride = pts.cols();
    for o in out.iter_mut() {
        *o = -0.0;
    }
    for (k, (x, l)) in a.iter().zip(lengths).enumerate() {
        let coords = &pts.as_slice()[k * stride + j0..][..out.len()];
        for (o, y) in out.iter_mut().zip(coords) {
            let d = (x - y) / l;
            *o += d * d;
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Lanes [`Kernel::values_into`] has evaluated on this thread, so a
    /// test can count the kernel values a path computes.
    pub(crate) static LANES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The per-pair formulas: the bit oracle of every block lane.
#[cfg(test)]
impl Kernel {
    /// Covariance `k(a, b)`.
    pub(crate) fn value(&self, a: &[f64], b: &[f64]) -> f64 {
        use al_linalg::ops::sq_dist;
        let sf2 = self.nat[0];
        match self.kind {
            KernelKind::Rbf => sf2 * (-0.5 * sq_dist(a, b) / self.nat[1]).exp(),
            KernelKind::ArdRbf { .. } => {
                debug_assert_eq!(a.len(), self.nat.len() - 1);
                let d2: f64 = a
                    .iter()
                    .zip(b)
                    .zip(&self.nat[1..])
                    .map(|((x, y), l)| {
                        let d = (x - y) / l;
                        d * d
                    })
                    .sum();
                sf2 * (-0.5 * d2).exp()
            }
            KernelKind::Matern32 => {
                let r = sq_dist(a, b).sqrt();
                let s = 3f64.sqrt() * r / self.nat[1];
                sf2 * (1.0 + s) * (-s).exp()
            }
            KernelKind::Matern52 => {
                let r = sq_dist(a, b).sqrt();
                let s = 5f64.sqrt() * r / self.nat[1];
                sf2 * (1.0 + s + s * s / 3.0) * (-s).exp()
            }
            KernelKind::RationalQuadratic => {
                let (l2, alpha) = (self.nat[1], self.nat[2]);
                let base = 1.0 + sq_dist(a, b) / (2.0 * alpha * l2);
                sf2 * base.powf(-alpha)
            }
        }
    }

    /// Gradient `∂k(a,b)/∂p_i` for every log-space parameter, written into
    /// `out` (length [`Kernel::n_params`]); `k` must be `value(a, b)`.
    pub(crate) fn gradient(&self, a: &[f64], b: &[f64], k: f64, out: &mut [f64]) {
        use al_linalg::ops::sq_dist;
        let sf2 = self.nat[0];
        out[0] = k;
        match self.kind {
            KernelKind::Rbf => out[1] = k * sq_dist(a, b) / self.nat[1],
            KernelKind::ArdRbf { .. } => {
                for (j, l) in self.nat[1..].iter().enumerate() {
                    let d = (a[j] - b[j]) / l;
                    out[1 + j] = k * d * d;
                }
            }
            KernelKind::Matern32 => {
                let r = sq_dist(a, b).sqrt();
                let s = 3f64.sqrt() * r / self.nat[1];
                let e = (-s).exp();
                out[1] = sf2 * s * s * e;
            }
            KernelKind::Matern52 => {
                let r = sq_dist(a, b).sqrt();
                let s = 5f64.sqrt() * r / self.nat[1];
                let e = (-s).exp();
                out[1] = sf2 * (s * s / 3.0) * (1.0 + s) * e;
            }
            KernelKind::RationalQuadratic => {
                let d2 = sq_dist(a, b);
                let (l2, alpha) = (self.nat[1], self.nat[2]);
                let u = d2 / (2.0 * alpha * l2);
                let base = 1.0 + u;
                out[1] = k * d2 / (l2 * base);
                out[2] = k * alpha * (u / base - base.ln());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use al_linalg::ops::sq_dist;

    /// The kernel of `kind` at natural-space parameters
    /// `[σ_f², l.., (α)]`, reached through their logs.
    fn natural(kind: KernelKind, p: &[f64]) -> Kernel {
        let mut kernel = kind.build(1.0);
        let log: Vec<f64> = p.iter().map(|v| v.ln()).collect();
        kernel.set_params(&log).unwrap();
        kernel
    }

    /// One kernel of every kind, ARD over 3 dimensions, and a second
    /// rational quadratic with a small `α`.
    fn every_kind() -> Vec<Kernel> {
        vec![
            natural(KernelKind::Rbf, &[1.7, 0.6]),
            natural(KernelKind::ArdRbf { dim: 3 }, &[1.4, 0.7, 2.0, 0.3]),
            natural(KernelKind::Matern32, &[1.6, 0.8]),
            natural(KernelKind::Matern52, &[0.9, 1.4]),
            natural(KernelKind::RationalQuadratic, &[1.6, 0.6, 1.3]),
            natural(KernelKind::RationalQuadratic, &[0.8, 1.4, 0.3]),
        ]
    }

    #[test]
    fn kinds_build_their_kernel_with_their_parameter_count() {
        for (kind, n) in [
            (KernelKind::Rbf, 2),
            (KernelKind::ArdRbf { dim: 3 }, 4),
            (KernelKind::ArdRbf { dim: 1 }, 2),
            (KernelKind::Matern32, 2),
            (KernelKind::Matern52, 2),
            (KernelKind::RationalQuadratic, 3),
        ] {
            let kernel = kind.build(0.7);
            assert_eq!(kernel.kind(), kind);
            assert_eq!(kernel.n_params(), n, "{}", kind.label());
            let mut want = vec![0.7f64.ln(); n];
            want[0] = 0.0;
            if kind == KernelKind::RationalQuadratic {
                want[2] = 0.0;
            }
            assert_eq!(kernel.params(), want, "{}", kind.label());
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(KernelKind::Rbf.label(), "RBF");
        assert_eq!(KernelKind::ArdRbf { dim: 3 }.label(), "ARD-RBF");
        assert_eq!(KernelKind::Matern32.label(), "Matern-3/2");
        assert_eq!(KernelKind::Matern52.label(), "Matern-5/2");
        assert_eq!(KernelKind::RationalQuadratic.label(), "RationalQuadratic");
    }

    #[test]
    fn params_roundtrip_and_reject_a_wrong_length() {
        for mut kernel in every_kind() {
            let n = kernel.n_params();
            let p: Vec<f64> = (0..n).map(|i| 0.3 - 0.2 * i as f64).collect();
            kernel.set_params(&p).unwrap();
            assert_eq!(kernel.params(), p);
            assert_eq!(kernel.diag_value(), p[0].exp());
            for got in [0, n - 1, n + 1] {
                assert_eq!(
                    kernel.set_params(&vec![0.0; got]),
                    Err(GpError::BadParamLength { expected: n, got })
                );
                assert_eq!(kernel.params(), p, "a rejected vector changes nothing");
            }
        }
    }

    #[test]
    fn diag_is_the_amplitude() {
        for kernel in every_kind() {
            let amplitude = kernel.params()[0].exp();
            assert!((kernel.diag_value() - amplitude).abs() < 1e-12);
            let x = [0.2, 0.8, 0.3];
            assert!((kernel.value(&x, &x) - amplitude).abs() < 1e-12);
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let pairs = [
            ([0.1, 0.9, 0.4], [0.7, 0.2, 0.3]),
            ([0.5, 0.5, 0.5], [0.5, 0.5, 0.5]),
            ([0.0, 0.0, 0.0], [2.0, 0.0, 0.0]),
        ];
        for mut kernel in every_kind() {
            for (a, b) in &pairs {
                let p0 = kernel.params().to_vec();
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
                        "{} param {i}: fd={fd} analytic={}",
                        kernel.kind().label(),
                        analytic[i]
                    );
                }
            }
        }
    }

    /// `(p, a, b)`: a kernel value evaluated from log parameters `p`.
    type LegacyValue = fn(&[f64], &[f64], &[f64]) -> f64;
    /// `(p, a, b, out)`: a kernel gradient evaluated from log parameters `p`.
    type LegacyGradient = fn(&[f64], &[f64], &[f64], &mut [f64]);

    /// `kind`'s formulas as they were before its natural-space constants
    /// were cached, each evaluated from the log parameters `p`.
    fn legacy(kind: KernelKind) -> (LegacyValue, LegacyGradient) {
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
        match kind {
            KernelKind::Rbf => (
                |p, a, b| {
                    let l2 = (2.0 * p[1]).exp();
                    p[0].exp() * (-0.5 * sq_dist(a, b) / l2).exp()
                },
                |p, a, b, out| {
                    let d2 = sq_dist(a, b);
                    let l2 = (2.0 * p[1]).exp();
                    let k = p[0].exp() * (-0.5 * d2 / l2).exp();
                    out[0] = k;
                    out[1] = k * d2 / l2;
                },
            ),
            KernelKind::ArdRbf { .. } => (
                |p, a, b| p[0].exp() * (-0.5 * scaled(p, a, b)).exp(),
                |p, a, b, out| {
                    let k = p[0].exp() * (-0.5 * scaled(p, a, b)).exp();
                    out[0] = k;
                    for (j, ll) in p[1..].iter().enumerate() {
                        let d = (a[j] - b[j]) / ll.exp();
                        out[1 + j] = k * d * d;
                    }
                },
            ),
            KernelKind::Matern32 => (
                |p, a, b| {
                    let r = sq_dist(a, b).sqrt();
                    let s = 3f64.sqrt() * r / p[1].exp();
                    p[0].exp() * (1.0 + s) * (-s).exp()
                },
                |p, a, b, out| {
                    let r = sq_dist(a, b).sqrt();
                    let s = 3f64.sqrt() * r / p[1].exp();
                    let e = (-s).exp();
                    let sf2 = p[0].exp();
                    out[0] = sf2 * (1.0 + s) * e;
                    out[1] = sf2 * s * s * e;
                },
            ),
            KernelKind::Matern52 => (
                |p, a, b| {
                    let r = sq_dist(a, b).sqrt();
                    let s = 5f64.sqrt() * r / p[1].exp();
                    p[0].exp() * (1.0 + s + s * s / 3.0) * (-s).exp()
                },
                |p, a, b, out| {
                    let r = sq_dist(a, b).sqrt();
                    let s = 5f64.sqrt() * r / p[1].exp();
                    let e = (-s).exp();
                    let sf2 = p[0].exp();
                    out[0] = sf2 * (1.0 + s + s * s / 3.0) * e;
                    out[1] = sf2 * (s * s / 3.0) * (1.0 + s) * e;
                },
            ),
            KernelKind::RationalQuadratic => (
                |p, a, b| {
                    let d2 = sq_dist(a, b);
                    let l2 = (2.0 * p[1]).exp();
                    let alpha = p[2].exp();
                    let base = 1.0 + d2 / (2.0 * alpha * l2);
                    p[0].exp() * base.powf(-alpha)
                },
                |p, a, b, out| {
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
            ),
        }
    }

    /// `value`, `gradient` and `diag_value` return the bits of the legacy
    /// formulas at several parameter vectors, each reached through a
    /// `set_params` round trip, over coincident, near and far point pairs.
    #[test]
    fn cached_constants_match_the_per_call_formulas_bitwise() {
        let dim = 3;
        let points: Vec<Vec<f64>> = (0..7)
            .map(|r| {
                (0..dim)
                    .map(|c| ((r * dim + c) as f64 * 0.77).sin() + if r == 6 { 40.0 } else { 0.0 })
                    .collect()
            })
            .collect();
        for mut kernel in every_kind() {
            let (value, gradient) = legacy(kernel.kind());
            let p0 = kernel.params().to_vec();
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
                assert_eq!(kernel.diag_value().to_bits(), p[0].exp().to_bits());
                for a in &points {
                    for b in &points {
                        let (v, lv) = (kernel.value(a, b), value(&p, a, b));
                        assert_eq!(v.to_bits(), lv.to_bits(), "value at {p:?}: {v} vs {lv}");
                        kernel.gradient(a, b, v, &mut got);
                        gradient(&p, a, b, &mut want);
                        for (g, w) in got.iter().zip(&want) {
                            assert_eq!(g.to_bits(), w.to_bits(), "gradient at {p:?}: {g} vs {w}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rbf_value_decays_with_distance() {
        let k = natural(KernelKind::Rbf, &[1.0, 1.0]);
        let v1 = k.value(&[0.0], &[1.0]);
        let v2 = k.value(&[0.0], &[2.0]);
        assert!(v1 > v2);
        assert!((v1 - (-0.5f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn rbf_longer_length_scale_means_slower_decay() {
        let short = natural(KernelKind::Rbf, &[1.0, 0.5]);
        let long = natural(KernelKind::Rbf, &[1.0, 5.0]);
        assert!(long.value(&[0.0], &[1.0]) > short.value(&[0.0], &[1.0]));
    }

    #[test]
    fn rbf_symmetric() {
        let k = natural(KernelKind::Rbf, &[1.3, 0.8]);
        let a = [0.1, 0.2];
        let b = [0.9, 0.4];
        assert_eq!(k.value(&a, &b), k.value(&b, &a));
    }

    #[test]
    fn ard_reduces_to_isotropic_with_equal_scales() {
        let ard = natural(KernelKind::ArdRbf { dim: 3 }, &[1.4, 0.7, 0.7, 0.7]);
        let iso = natural(KernelKind::Rbf, &[1.4, 0.7]);
        let a = [0.1, 0.5, 0.9];
        let b = [0.3, 0.2, 0.8];
        assert!((ard.value(&a, &b) - iso.value(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn ard_per_dimension_scales_mask_irrelevant_dims() {
        // A huge length scale on dim 1 makes differences there irrelevant.
        let ard = natural(KernelKind::ArdRbf { dim: 2 }, &[1.0, 0.5, 1e6]);
        let near = ard.value(&[0.0, 0.0], &[0.0, 100.0]);
        assert!((near - 1.0).abs() < 1e-6);
        let far = ard.value(&[0.0, 0.0], &[1.0, 0.0]);
        assert!(far < 0.2);
    }

    #[test]
    fn matern_smoothness_ordering_at_moderate_distance() {
        // At the same length scale, higher ν decays like the RBF; 3/2 has
        // heavier tails than 5/2 which has heavier tails than RBF at
        // moderate-to-large distances.
        let a = [0.0];
        let b = [2.0];
        let v32 = natural(KernelKind::Matern32, &[1.0, 1.0]).value(&a, &b);
        let v52 = natural(KernelKind::Matern52, &[1.0, 1.0]).value(&a, &b);
        let vrbf = natural(KernelKind::Rbf, &[1.0, 1.0]).value(&a, &b);
        assert!(v32 > v52, "{v32} vs {v52}");
        assert!(v52 > vrbf, "{v52} vs {vrbf}");
    }

    #[test]
    fn matern_gradient_vanishes_at_zero_distance_for_length_scale() {
        let k = natural(KernelKind::Matern52, &[1.0, 1.0]);
        let mut g = [0.0; 2];
        k.gradient(&[0.5], &[0.5], k.value(&[0.5], &[0.5]), &mut g);
        assert!((g[0] - 1.0).abs() < 1e-12); // ∂k/∂log σ_f² = k = σ_f²
        assert_eq!(g[1], 0.0);
    }

    #[test]
    fn matern_monotone_decay() {
        let k = natural(KernelKind::Matern32, &[1.0, 1.0]);
        let mut prev = f64::INFINITY;
        for i in 0..10 {
            let v = k.value(&[0.0], &[i as f64 * 0.5]);
            assert!(v < prev || i == 0);
            prev = v;
        }
    }

    #[test]
    fn rq_values_decay_with_a_heavy_tail() {
        let k = natural(KernelKind::RationalQuadratic, &[2.0, 0.5, 1.0]);
        assert!(k.value(&[0.0], &[0.5]) > k.value(&[0.0], &[1.5]));
        assert!(k.value(&[0.0], &[10.0]) > 0.0, "heavy polynomial tail");
    }

    #[test]
    fn rq_large_alpha_approaches_rbf() {
        let rq = natural(KernelKind::RationalQuadratic, &[1.0, 0.7, 1e6]);
        let rbf = natural(KernelKind::Rbf, &[1.0, 0.7]);
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
    fn rq_small_alpha_has_heavier_tails_than_rbf() {
        let rq = natural(KernelKind::RationalQuadratic, &[1.0, 0.7, 0.5]);
        let rbf = natural(KernelKind::Rbf, &[1.0, 0.7]);
        assert!(rq.value(&[0.0], &[3.0]) > 10.0 * rbf.value(&[0.0], &[3.0]));
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
}
