//! Gaussian process regression model (paper Section III).
//!
//! A [`GpModel`] owns a kernel (amplitude + length scales) plus the
//! observation-noise variance `σ_n²`, together forming the hyperparameter
//! triple `(l, σ_f², σ_n²)` of paper Eq. 9. Fitting factors the noisy kernel
//! matrix `K_y = K + σ_n² I` (Eq. 3); prediction returns the posterior mean
//! and standard deviation at arbitrary points (Eq. 2); the log marginal
//! likelihood (Eq. 8) and its analytic gradient drive hyperparameter
//! optimization.

// Hot path: every truncating `as` cast carries a checked reason.
#![warn(clippy::cast_possible_truncation)]

use crate::error::GpError;
use crate::kernel::Kernel;
use crate::optimize::{self, FitOptions};
use al_linalg::{ops, Cholesky, Matrix};
use al_parallel::{chunk_ranges, chunk_ranges_weighted, WorkerPool};

/// Fewest rows a parallel chunk may hold; smaller problems run inline.
const MIN_ROWS_PER_CHUNK: usize = 8;

/// Query points per tile of [`GpModel::predict`]; a chunk reuses one
/// `n × QB` cross-kernel buffer across its tiles. Schedule-only: any
/// value gives the same bits.
const QB: usize = 64;

/// Posterior predictive summary at a batch of query points.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Posterior means `μ_*`.
    pub mean: Vec<f64>,
    /// Posterior standard deviations `σ_*` (of the latent function, i.e.
    /// without observation noise — matching scikit-learn's `return_std`).
    pub std: Vec<f64>,
}

#[derive(Debug, Clone)]
struct Fitted {
    x: Matrix,
    y_centered: Vec<f64>,
    y_mean: f64,
    chol: Cholesky,
    /// `α = K_y⁻¹ (y − ȳ)`.
    alpha: Vec<f64>,
    lml: f64,
}

/// Gaussian process regressor with a pluggable stationary kernel.
///
/// # Examples
///
/// ```
/// use al_gp::{FitOptions, GpModel, KernelKind};
/// use al_linalg::Matrix;
///
/// // Five observations of a smooth 1-D function.
/// let x = Matrix::from_vec(5, 1, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
/// let y: Vec<f64> = x.as_slice().iter().map(|v| (3.0 * v).sin()).collect();
///
/// let mut gp = GpModel::new(KernelKind::Rbf.build(0.3), 1e-5);
/// gp.fit_optimized(&x, &y, &FitOptions::default()).unwrap();
///
/// let (mean, std) = gp.predict_one(&[0.4]).unwrap();
/// assert!((mean - (1.2f64).sin()).abs() < 0.05);
/// assert!(std < 0.2, "interpolation region is confident");
/// ```
#[derive(Clone)]
pub struct GpModel {
    kernel: Box<dyn Kernel>,
    /// `log σ_n²`.
    log_noise: f64,
    /// When true (default), the training targets are centered before
    /// fitting and the mean is added back at prediction time.
    normalize_y: bool,
    /// Worker pool for the kernel-matrix and batch-prediction hot paths.
    /// Schedule-only: every path is bitwise identical for any count.
    pool: WorkerPool,
    fitted: Option<Fitted>,
}

impl std::fmt::Debug for GpModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpModel")
            .field("kernel", &self.kernel.name())
            .field("params", &self.kernel.params())
            .field("log_noise", &self.log_noise)
            .field("n_threads", &self.pool.n_workers())
            .field("fitted", &self.fitted.is_some())
            .finish()
    }
}

impl GpModel {
    /// Create an unfitted model from a kernel and a natural-space noise
    /// variance `σ_n²`.
    pub fn new(kernel: Box<dyn Kernel>, noise_variance: f64) -> Self {
        assert!(noise_variance > 0.0);
        GpModel {
            kernel,
            log_noise: noise_variance.ln(),
            normalize_y: true,
            pool: WorkerPool::new(1),
            fitted: None,
        }
    }

    /// Disable target centering (fit the raw responses).
    pub fn without_normalization(mut self) -> Self {
        self.normalize_y = false;
        self
    }

    /// Set the worker-thread count for the parallel kernel-matrix and
    /// batch-prediction paths (`0` = all cores, `1` = serial — the
    /// `SolverProfile::n_threads` convention). A schedule knob only:
    /// results are bitwise identical for any value.
    /// [`GpModel::fit_optimized`] applies [`FitOptions::n_threads`]
    /// automatically.
    pub fn set_n_threads(&mut self, n_threads: usize) {
        self.pool = WorkerPool::new(n_threads);
    }

    /// Resolved worker count used by the parallel paths.
    pub fn n_threads(&self) -> usize {
        self.pool.n_workers()
    }

    /// Natural-space noise variance `σ_n²`.
    pub fn noise_variance(&self) -> f64 {
        self.log_noise.exp()
    }

    /// Kernel in use.
    pub fn kernel(&self) -> &dyn Kernel {
        self.kernel.as_ref()
    }

    /// Full hyperparameter vector in log space:
    /// `[kernel params..., log σ_n²]`.
    pub fn hyperparams(&self) -> Vec<f64> {
        let mut p = self.kernel.params();
        p.push(self.log_noise);
        p
    }

    /// Replace the full hyperparameter vector (log space). Invalidates any
    /// previous fit; call [`GpModel::fit`] again afterwards.
    pub fn set_hyperparams(&mut self, p: &[f64]) -> Result<(), GpError> {
        let nk = self.kernel.n_params();
        if p.len() != nk + 1 {
            return Err(GpError::BadParamLength {
                expected: nk + 1,
                got: p.len(),
            });
        }
        self.kernel.set_params(&p[..nk])?;
        self.log_noise = p[nk];
        self.fitted = None;
        Ok(())
    }

    /// Number of log-space hyperparameters (kernel params + noise).
    pub fn n_hyperparams(&self) -> usize {
        self.kernel.n_params() + 1
    }

    /// Number of training points in the current fit (0 when unfitted).
    pub fn n_train(&self) -> usize {
        self.fitted.as_ref().map_or(0, |f| f.x.rows())
    }

    /// Fit the model to `(x, y)` with the *current* hyperparameters.
    ///
    /// This is the inner operation of the AL loop's retraining step; use
    /// [`GpModel::fit_optimized`] to also maximize the marginal likelihood.
    /// A NaN or infinite input or response fails with
    /// [`GpError::NonFiniteTrainingData`] and leaves the model untouched.
    pub fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), GpError> {
        if x.rows() != y.len() {
            return Err(GpError::InvalidTrainingData {
                n_x: x.rows(),
                n_y: y.len(),
            });
        }
        if x.rows() == 0 {
            return Err(GpError::Linalg(al_linalg::LinalgError::Empty(
                "training set",
            )));
        }
        check_finite(x, y)?;
        let y_mean = if self.normalize_y {
            al_linalg::stats::mean(y)
        } else {
            0.0
        };
        let y_centered: Vec<f64> = y.iter().map(|v| v - y_mean).collect();

        let ky = self.noisy_kernel_matrix(x);
        let chol = Cholesky::with_jitter(&ky, 1e-10, 1e-2)?;
        let alpha = chol.solve(&y_centered)?;

        let n = x.rows() as f64;
        let lml = -0.5 * (ops::dot(&y_centered, &alpha) + chol.log_det())
            - 0.5 * n * (2.0 * std::f64::consts::PI).ln();

        self.fitted = Some(Fitted {
            x: x.clone(),
            y_centered,
            y_mean,
            chol,
            alpha,
            lml,
        });
        Ok(())
    }

    /// Incrementally absorb one new observation into the current fit in
    /// `O(n²)` (bordered-Cholesky update) instead of refitting from
    /// scratch (`O(n³)`) — the natural operation for an AL loop acquiring
    /// one sample per iteration.
    ///
    /// The centering offset `ȳ` is kept frozen from the last full
    /// [`GpModel::fit`]; call `fit`/[`GpModel::fit_optimized`]
    /// periodically to refresh it (the AL procedure does this on its
    /// hyperparameter-optimization cadence). Falls back to a full refit
    /// internally when the bordered matrix is numerically not SPD. A NaN
    /// or infinite observation fails with
    /// [`GpError::NonFiniteTrainingData`] before the fit is touched.
    pub fn augment(&mut self, x_new: &[f64], y_new: f64) -> Result<(), GpError> {
        let fitted = self.fitted.as_mut().ok_or(GpError::NotFitted)?;
        if x_new.len() != fitted.x.cols() {
            return Err(GpError::Linalg(al_linalg::LinalgError::ShapeMismatch {
                op: "augment",
                lhs: fitted.x.shape(),
                rhs: (1, x_new.len()),
            }));
        }
        let n = fitted.x.rows();
        if !y_new.is_finite() || x_new.iter().any(|v| !v.is_finite()) {
            return Err(GpError::NonFiniteTrainingData { row: n });
        }
        let mut k_vec = vec![0.0; n];
        for (i, k) in k_vec.iter_mut().enumerate() {
            *k = self.kernel.value(x_new, fitted.x.row(i));
        }
        let diag = self.kernel.diag_value() + self.log_noise.exp();

        // Rebuild the training set regardless of which path we take.
        let x_row = Matrix::from_vec(1, x_new.len(), x_new.to_vec());
        let x_next = fitted.x.vstack(&x_row)?;
        let mut y_centered = fitted.y_centered.clone();
        y_centered.push(y_new - fitted.y_mean);

        let mut chol = fitted.chol.clone();
        if chol.extend(&k_vec, diag).is_err() {
            // Numerically degenerate border (e.g. duplicate point): fall
            // back to a full jittered refit of the whole set. `fit` also
            // refreshes the centering mean, which is fine — both centerings
            // describe the same posterior.
            let y_raw: Vec<f64> = y_centered.iter().map(|v| v + fitted.y_mean).collect();
            return self.fit(&x_next, &y_raw);
        }
        let alpha = chol.solve(&y_centered)?;
        let n_new = (n + 1) as f64;
        let lml = -0.5 * (ops::dot(&y_centered, &alpha) + chol.log_det())
            - 0.5 * n_new * (2.0 * std::f64::consts::PI).ln();

        *fitted = Fitted {
            x: x_next,
            y_centered,
            y_mean: fitted.y_mean,
            chol,
            alpha,
            lml,
        };
        Ok(())
    }

    /// Fit with hyperparameter optimization: maximize the LML (Eq. 9) by
    /// multi-start Adam in log space, warm-starting from the current
    /// hyperparameters, then refit at the optimum. The refit is skipped
    /// when the optimizer's last evaluation already fit `(x, y)` at the
    /// optimum's exact bits, since it would rebuild that fit bit for bit.
    pub fn fit_optimized(
        &mut self,
        x: &Matrix,
        y: &[f64],
        opts: &FitOptions,
    ) -> Result<(), GpError> {
        if x.rows() != y.len() {
            return Err(GpError::InvalidTrainingData {
                n_x: x.rows(),
                n_y: y.len(),
            });
        }
        check_finite(x, y)?;
        self.set_n_threads(opts.n_threads);
        // With a single observation the LML surface is degenerate; just fit.
        if x.rows() < 2 {
            return self.fit(x, y);
        }
        let best = optimize::maximize_lml(self, x, y, opts);
        if let Some(params) = best {
            // Any fit held now is the last `lml_at`'s fit of (x, y): each
            // evaluation drops the previous fit first.
            let at_optimum = self
                .hyperparams()
                .iter()
                .map(|v| v.to_bits())
                .eq(params.iter().map(|v| v.to_bits()));
            if at_optimum && self.fitted.is_some() {
                return Ok(());
            }
            self.set_hyperparams(&params)?;
        }
        self.fit(x, y)
    }

    /// The log marginal likelihood of the current fit (Eq. 8, including the
    /// `−n/2 log 2π` constant).
    pub fn lml(&self) -> Result<f64, GpError> {
        Ok(self.fitted.as_ref().ok_or(GpError::NotFitted)?.lml)
    }

    /// Analytic gradient of the LML with respect to every log-space
    /// hyperparameter `[kernel params..., log σ_n²]`.
    ///
    /// Uses the standard identity
    /// `∂LML/∂θ = ½ tr((ααᵀ − K_y⁻¹) ∂K_y/∂θ)`.
    pub fn lml_gradient(&self) -> Result<Vec<f64>, GpError> {
        let fitted = self.fitted.as_ref().ok_or(GpError::NotFitted)?;
        let n = fitted.x.rows();
        let nk = self.kernel.n_params();
        let k_inv = fitted.chol.inverse()?;
        let alpha = &fitted.alpha;

        let mut grad = vec![0.0; nk + 1];
        let mut kgrad = vec![0.0; nk];
        for i in 0..n {
            let xi = fitted.x.row(i);
            // Diagonal term (weight 1).
            let cii = alpha[i] * alpha[i] - k_inv[(i, i)];
            self.kernel.gradient(xi, xi, &mut kgrad);
            for (g, kg) in grad[..nk].iter_mut().zip(&kgrad) {
                *g += 0.5 * cii * kg;
            }
            // Off-diagonal terms (weight 2, symmetry).
            for j in (i + 1)..n {
                let cij = alpha[i] * alpha[j] - k_inv[(i, j)];
                self.kernel.gradient(xi, fitted.x.row(j), &mut kgrad);
                for (g, kg) in grad[..nk].iter_mut().zip(&kgrad) {
                    *g += cij * kg;
                }
            }
        }
        // Noise: ∂K_y/∂log σ_n² = σ_n² I.
        let sn2 = self.noise_variance();
        let trace_term: f64 = (0..n).map(|i| alpha[i] * alpha[i] - k_inv[(i, i)]).sum();
        grad[nk] = 0.5 * sn2 * trace_term;
        Ok(grad)
    }

    /// Posterior mean and standard deviation at each row of `xs` (Eq. 2–3).
    ///
    /// A NaN or infinite query coordinate fails with
    /// [`GpError::NonFiniteQuery`] before any work is done.
    pub fn predict(&self, xs: &Matrix) -> Result<Prediction, GpError> {
        let fitted = self.fitted.as_ref().ok_or(GpError::NotFitted)?;
        if xs.cols() != fitted.x.cols() {
            return Err(GpError::Linalg(al_linalg::LinalgError::ShapeMismatch {
                op: "predict",
                lhs: fitted.x.shape(),
                rhs: xs.shape(),
            }));
        }
        if let Some(row) = (0..xs.rows()).find(|&q| xs.row(q).iter().any(|v| !v.is_finite())) {
            return Err(GpError::NonFiniteQuery { row });
        }
        let n = fitted.x.rows();
        let m = xs.rows();
        let prior = self.kernel.diag_value();
        // Queries run in tiles of QB through one n × QB buffer per chunk
        // whose row i holds k(x_q, x_i) for every query q of the tile.
        // Each (μ, σ) keeps the bits of the per-query loop this replaced
        // (DESIGN §13): μ − ȳ = Σ_i k_i·α_i and ‖L⁻¹k*‖² = Σ_i v_i² fold
        // from −0.0 in ascending i, as `ops::dot` does, and
        // `solve_lower_multi` matches `solve_lower` column by column.
        // Every query owns its (μ, σ) slot, so chunking the rows across
        // workers cannot change a bit; errors surface in chunk order.
        let mut slots: Vec<(f64, f64)> = vec![(0.0, 0.0); m];
        let ranges = chunk_ranges(m, self.pool.n_workers(), MIN_ROWS_PER_CHUNK);
        let statuses = self.pool.chunked_map(
            &mut slots,
            &ranges,
            1,
            |range, chunk| -> Result<(), GpError> {
                let mut buf = vec![0.0; n * QB.min(range.len())];
                for (tile_idx, tile) in chunk.chunks_mut(QB).enumerate() {
                    let q0 = range.start + tile_idx * QB;
                    let w = tile.len();
                    let kt = &mut buf[..n * w];
                    for (i, row) in kt.chunks_exact_mut(w).enumerate() {
                        let xi = fitted.x.row(i);
                        for (t, k) in row.iter_mut().enumerate() {
                            *k = self.kernel.value(xs.row(q0 + t), xi);
                        }
                    }
                    let (mut mu, mut ss) = ([-0.0f64; QB], [-0.0f64; QB]);
                    let (mu, ss) = (&mut mu[..w], &mut ss[..w]);
                    for (row, a) in kt.chunks_exact(w).zip(&fitted.alpha) {
                        for (acc, k) in mu.iter_mut().zip(row) {
                            *acc += k * a;
                        }
                    }
                    fitted.chol.solve_lower_multi(kt, w)?;
                    for row in kt.chunks_exact(w) {
                        for (acc, v) in ss.iter_mut().zip(row) {
                            *acc += v * v;
                        }
                    }
                    for (slot, (acc_mu, acc_ss)) in tile.iter_mut().zip(mu.iter().zip(ss.iter())) {
                        // σ² = k** − ‖L⁻¹ k*‖², clamped at 0 against rounding.
                        *slot = (fitted.y_mean + acc_mu, (prior - acc_ss).max(0.0).sqrt());
                    }
                }
                Ok(())
            },
        );
        for status in statuses {
            status?;
        }
        let (mean, std) = slots.into_iter().unzip();
        Ok(Prediction { mean, std })
    }

    /// Posterior mean/std at a single point.
    pub fn predict_one(&self, x: &[f64]) -> Result<(f64, f64), GpError> {
        let m = Matrix::from_vec(1, x.len(), x.to_vec());
        let p = self.predict(&m)?;
        Ok((p.mean[0], p.std[0]))
    }

    /// Evaluate the LML (and optionally keep the fit) at given
    /// hyperparameters for the provided data — the optimizer's objective.
    /// Returns `None` when the kernel matrix cannot be factored.
    pub(crate) fn lml_at(
        &mut self,
        params: &[f64],
        x: &Matrix,
        y: &[f64],
    ) -> Option<(f64, Vec<f64>)> {
        // A failed evaluation must leave no fit behind: `fit_optimized`
        // keeps a held fit as the optimum's.
        self.fitted = None;
        if self.set_hyperparams(params).is_err() {
            return None;
        }
        if self.fit(x, y).is_err() {
            return None;
        }
        let lml = self.lml().ok()?;
        let grad = self.lml_gradient().ok()?;
        if !lml.is_finite() || grad.iter().any(|g| !g.is_finite()) {
            return None;
        }
        Some((lml, grad))
    }

    /// The noisy training covariance `K_y = K + σ_n² I` over the rows of
    /// `x` (Eq. 3) — the matrix [`GpModel::fit`] factors. Public so the
    /// perf harness can measure its thread scaling in isolation.
    pub fn noisy_kernel_matrix(&self, x: &Matrix) -> Matrix {
        let n = x.rows();
        let mut k = Matrix::zeros(n, n);
        let diag = self.kernel.diag_value() + self.noise_variance();
        // Each worker owns a disjoint band of rows and fills that band's
        // diagonal + upper triangle; row i costs n − i kernel evaluations,
        // so the bands are weighted triangularly. Every entry is a single
        // independent kernel evaluation, so the schedule cannot change any
        // bit. The coordinator mirrors the lower triangle afterwards.
        let ranges = chunk_ranges_weighted(n, self.pool.n_workers(), MIN_ROWS_PER_CHUNK, |i| {
            (n - i) as u64
        });
        self.pool
            .chunked_map(k.as_mut_slice(), &ranges, n.max(1), |range, band| {
                for (local, i) in range.enumerate() {
                    let row = &mut band[local * n..(local + 1) * n];
                    let xi = x.row(i);
                    row[i] = diag;
                    for (j, slot) in row.iter_mut().enumerate().skip(i + 1) {
                        *slot = self.kernel.value(xi, x.row(j));
                    }
                }
            });
        for i in 0..n {
            for j in (i + 1)..n {
                k[(j, i)] = k[(i, j)];
            }
        }
        k
    }
}

/// Reject a training set holding NaN or ±∞, naming the first bad row
/// (`x` and `y` must already agree in length).
fn check_finite(x: &Matrix, y: &[f64]) -> Result<(), GpError> {
    match (0..y.len()).find(|&i| !y[i].is_finite() || x.row(i).iter().any(|v| !v.is_finite())) {
        Some(row) => Err(GpError::NonFiniteTrainingData { row }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::RbfKernel;

    fn toy_model() -> GpModel {
        GpModel::new(Box::new(RbfKernel::new(1.0, 1.0)), 1e-4)
    }

    /// 1-D training set y = sin(2x) on [0, 3].
    fn sine_data(n: usize) -> (Matrix, Vec<f64>) {
        let xs: Vec<f64> = (0..n).map(|i| 3.0 * i as f64 / (n - 1) as f64).collect();
        let y: Vec<f64> = xs.iter().map(|x| (2.0 * x).sin()).collect();
        (Matrix::from_vec(n, 1, xs), y)
    }

    #[test]
    fn unfitted_model_refuses_posterior_queries() {
        let m = toy_model();
        assert!(matches!(m.lml(), Err(GpError::NotFitted)));
        assert!(matches!(m.predict_one(&[0.0]), Err(GpError::NotFitted)));
        assert!(matches!(m.lml_gradient(), Err(GpError::NotFitted)));
    }

    #[test]
    fn fit_validates_shapes() {
        let mut m = toy_model();
        let x = Matrix::zeros(3, 1);
        assert!(matches!(
            m.fit(&x, &[1.0, 2.0]),
            Err(GpError::InvalidTrainingData { .. })
        ));
        assert!(m.fit(&Matrix::zeros(0, 1), &[]).is_err());
    }

    #[test]
    fn interpolates_training_points_with_small_noise() {
        let (x, y) = sine_data(12);
        let mut m = toy_model();
        m.fit(&x, &y).unwrap();
        for (i, &yi) in y.iter().enumerate() {
            let (mu, sigma) = m.predict_one(x.row(i)).unwrap();
            assert!((mu - yi).abs() < 1e-2, "point {i}: {mu} vs {yi}");
            assert!(sigma < 0.05, "σ at training point {i} = {sigma}");
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let (x, y) = sine_data(8);
        let mut m = toy_model();
        m.fit(&x, &y).unwrap();
        let (_, sigma_in) = m.predict_one(&[1.5]).unwrap();
        let (_, sigma_out) = m.predict_one(&[10.0]).unwrap();
        assert!(sigma_out > sigma_in);
        // Far from all data the posterior reverts to the prior std.
        assert!((sigma_out - 1.0).abs() < 1e-3);
    }

    #[test]
    fn prediction_mean_reverts_to_training_mean_far_away() {
        let (x, mut y) = sine_data(8);
        for v in &mut y {
            *v += 5.0;
        }
        let mut m = toy_model();
        m.fit(&x, &y).unwrap();
        let (mu, _) = m.predict_one(&[100.0]).unwrap();
        let ybar = al_linalg::stats::mean(&y);
        assert!((mu - ybar).abs() < 1e-6);
    }

    #[test]
    fn lml_gradient_matches_finite_differences() {
        let (x, y) = sine_data(7);
        let mut m = toy_model();
        m.fit(&x, &y).unwrap();
        let p0 = m.hyperparams();
        let grad = m.lml_gradient().unwrap();
        let h = 1e-6;
        for i in 0..p0.len() {
            let mut pp = p0.clone();
            pp[i] += h;
            m.set_hyperparams(&pp).unwrap();
            m.fit(&x, &y).unwrap();
            let up = m.lml().unwrap();
            pp[i] -= 2.0 * h;
            m.set_hyperparams(&pp).unwrap();
            m.fit(&x, &y).unwrap();
            let dn = m.lml().unwrap();
            let fd = (up - dn) / (2.0 * h);
            assert!(
                (fd - grad[i]).abs() < 1e-4 * (1.0 + fd.abs()),
                "param {i}: fd={fd} analytic={}",
                grad[i]
            );
            m.set_hyperparams(&p0).unwrap();
            m.fit(&x, &y).unwrap();
        }
    }

    #[test]
    fn hyperparams_roundtrip() {
        let mut m = toy_model();
        assert_eq!(m.n_hyperparams(), 3);
        let p = vec![0.1, -0.4, (1e-3f64).ln()];
        m.set_hyperparams(&p).unwrap();
        assert_eq!(m.hyperparams(), p);
        assert!((m.noise_variance() - 1e-3).abs() < 1e-12);
        assert!(m.set_hyperparams(&[0.0]).is_err());
    }

    #[test]
    fn set_hyperparams_invalidates_fit() {
        let (x, y) = sine_data(5);
        let mut m = toy_model();
        m.fit(&x, &y).unwrap();
        assert_eq!(m.n_train(), 5);
        m.set_hyperparams(&[0.0, 0.0, -9.0]).unwrap();
        assert!(matches!(m.predict_one(&[0.0]), Err(GpError::NotFitted)));
        assert_eq!(m.n_train(), 0);
    }

    #[test]
    fn predict_rejects_dimension_mismatch() {
        let (x, y) = sine_data(5);
        let mut m = toy_model();
        m.fit(&x, &y).unwrap();
        let bad = Matrix::zeros(1, 2);
        assert!(m.predict(&bad).is_err());
    }

    #[test]
    fn without_normalization_fits_raw_targets() {
        let (x, mut y) = sine_data(8);
        for v in &mut y {
            *v += 100.0;
        }
        let mut m = toy_model().without_normalization();
        m.fit(&x, &y).unwrap();
        // Far from data the un-normalized GP reverts to zero, not the mean.
        let (mu, _) = m.predict_one(&[100.0]).unwrap();
        assert!(mu.abs() < 1e-6);
    }

    #[test]
    fn duplicate_training_points_survive_via_jitter() {
        // Two identical inputs with slightly different noisy observations.
        let x = Matrix::from_vec(3, 1, vec![0.5, 0.5, 1.0]);
        let y = vec![1.0, 1.02, 2.0];
        let mut m = GpModel::new(Box::new(RbfKernel::new(1.0, 1.0)), 1e-6);
        m.fit(&x, &y).unwrap();
        let (mu, _) = m.predict_one(&[0.5]).unwrap();
        assert!((mu - 1.01).abs() < 0.05);
    }

    #[test]
    fn more_data_never_hurts_training_fit() {
        // LML per point improves (or at least the model remains fittable)
        // as the training set grows on a smooth function.
        let mut m = toy_model();
        for n in [4usize, 8, 16] {
            let (x, y) = sine_data(n);
            m.fit(&x, &y).unwrap();
            assert!(m.lml().unwrap().is_finite());
        }
    }

    #[test]
    fn augment_matches_full_refit() {
        let (x, y) = sine_data(9);
        // Fit on the first 8 points, augment with the 9th.
        let x8 = x.select_rows(&(0..8).collect::<Vec<_>>());
        let mut incremental = toy_model().without_normalization();
        incremental.fit(&x8, &y[..8]).unwrap();
        incremental.augment(x.row(8), y[8]).unwrap();

        let mut fresh = toy_model().without_normalization();
        fresh.fit(&x, &y).unwrap();

        assert_eq!(incremental.n_train(), 9);
        assert!(
            (incremental.lml().unwrap() - fresh.lml().unwrap()).abs() < 1e-9,
            "LML: {} vs {}",
            incremental.lml().unwrap(),
            fresh.lml().unwrap()
        );
        for q in [0.1, 1.4, 2.9] {
            let (mi, si) = incremental.predict_one(&[q]).unwrap();
            let (mf, sf) = fresh.predict_one(&[q]).unwrap();
            assert!((mi - mf).abs() < 1e-9, "mean at {q}");
            assert!((si - sf).abs() < 1e-9, "std at {q}");
        }
    }

    #[test]
    fn augment_chain_stays_consistent() {
        let (x, y) = sine_data(12);
        let x4 = x.select_rows(&(0..4).collect::<Vec<_>>());
        let mut m = toy_model().without_normalization();
        m.fit(&x4, &y[..4]).unwrap();
        for (i, &yi) in y.iter().enumerate().skip(4) {
            m.augment(x.row(i), yi).unwrap();
        }
        let mut fresh = toy_model().without_normalization();
        fresh.fit(&x, &y).unwrap();
        let (mi, si) = m.predict_one(&[1.7]).unwrap();
        let (mf, sf) = fresh.predict_one(&[1.7]).unwrap();
        assert!((mi - mf).abs() < 1e-8);
        assert!((si - sf).abs() < 1e-8);
    }

    #[test]
    fn augment_matches_full_refit_randomized_sweep() {
        // The session core's incremental path leans on `augment` for every
        // between-refit update, so pin the O(n²) bordered update to the
        // O(n³) refit across the shapes sessions actually produce: input
        // dims {1, 2, 5} × kernel families × augment chains up to 8.
        use crate::kernel::KernelKind;
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let n0 = 6usize;
        for dim in [1usize, 2, 5] {
            for kind in [KernelKind::Rbf, KernelKind::Matern52] {
                for chain in 1..=8usize {
                    let n = n0 + chain;
                    let data: Vec<f64> = (0..n * dim).map(|_| rng.random_range(0.0..3.0)).collect();
                    let x = Matrix::from_vec(n, dim, data);
                    let y: Vec<f64> = (0..n)
                        .map(|i| {
                            x.row(i).iter().map(|v| (1.3 * v).sin()).sum::<f64>()
                                + 0.05 * rng.random_range(-1.0..1.0)
                        })
                        .collect();

                    let x0 = x.select_rows(&(0..n0).collect::<Vec<_>>());
                    let mut inc = GpModel::new(kind.build(0.8), 1e-4).without_normalization();
                    inc.fit(&x0, &y[..n0]).unwrap();
                    for (i, &yi) in y.iter().enumerate().skip(n0) {
                        inc.augment(x.row(i), yi).unwrap();
                    }
                    let mut fresh = GpModel::new(kind.build(0.8), 1e-4).without_normalization();
                    fresh.fit(&x, &y).unwrap();

                    assert_eq!(inc.n_train(), n);
                    let (li, lf) = (inc.lml().unwrap(), fresh.lml().unwrap());
                    assert!(
                        (li - lf).abs() < 1e-8 * (1.0 + lf.abs()),
                        "LML dim={dim} kernel={} chain={chain}: {li} vs {lf}",
                        kind.label()
                    );
                    for probe in 0..3 {
                        let q: Vec<f64> = (0..dim).map(|_| rng.random_range(0.0..3.0)).collect();
                        let (mi, si) = inc.predict_one(&q).unwrap();
                        let (mf, sf) = fresh.predict_one(&q).unwrap();
                        assert!(
                            (mi - mf).abs() < 1e-8,
                            "mean dim={dim} kernel={} chain={chain} probe={probe}",
                            kind.label()
                        );
                        assert!(
                            (si - sf).abs() < 1e-8,
                            "std dim={dim} kernel={} chain={chain} probe={probe}",
                            kind.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn augment_duplicate_point_falls_back_gracefully() {
        // Augmenting with an exact duplicate makes the bordered matrix
        // nearly singular; the fallback refit must keep the model usable.
        let (x, y) = sine_data(6);
        let mut m = GpModel::new(Box::new(RbfKernel::new(1.0, 1.0)), 1e-9);
        m.fit(&x, &y).unwrap();
        m.augment(x.row(2), y[2] + 1e-6).unwrap();
        assert_eq!(m.n_train(), 7);
        let (mu, _) = m.predict_one(x.row(2)).unwrap();
        assert!((mu - y[2]).abs() < 1e-2);
    }

    #[test]
    fn augment_requires_fit_and_matching_dims() {
        let mut m = toy_model();
        assert!(matches!(m.augment(&[0.0], 1.0), Err(GpError::NotFitted)));
        let (x, y) = sine_data(5);
        m.fit(&x, &y).unwrap();
        assert!(m.augment(&[0.0, 1.0], 1.0).is_err());
    }

    #[test]
    fn fit_rejects_non_finite_data_without_touching_the_fit() {
        let (x, y) = sine_data(6);
        let mut m = toy_model();
        m.fit(&x, &y).unwrap();
        let lml = m.lml().unwrap();
        let mut bad_y = y.clone();
        bad_y[4] = f64::NAN;
        assert_eq!(
            m.fit(&x, &bad_y),
            Err(GpError::NonFiniteTrainingData { row: 4 })
        );
        let mut bad_x = x.clone();
        bad_x[(2, 0)] = f64::INFINITY;
        assert_eq!(
            m.fit(&bad_x, &y),
            Err(GpError::NonFiniteTrainingData { row: 2 })
        );
        let params = m.hyperparams();
        assert_eq!(
            m.fit_optimized(&bad_x, &y, &FitOptions::warm_start_only()),
            Err(GpError::NonFiniteTrainingData { row: 2 })
        );
        // The previous fit and hyperparameters survive every rejection.
        assert_eq!(m.hyperparams(), params);
        assert_eq!(m.n_train(), 6);
        assert_eq!(m.lml().unwrap().to_bits(), lml.to_bits());
    }

    #[test]
    fn augment_rejects_non_finite_observation_without_touching_the_fit() {
        let (x, y) = sine_data(5);
        let mut m = toy_model();
        m.fit(&x, &y).unwrap();
        let lml = m.lml().unwrap();
        for (x_new, y_new) in [([0.5], f64::NAN), ([f64::NEG_INFINITY], 0.5)] {
            assert_eq!(
                m.augment(&x_new, y_new),
                Err(GpError::NonFiniteTrainingData { row: 5 })
            );
        }
        assert_eq!(m.n_train(), 5);
        assert_eq!(m.lml().unwrap().to_bits(), lml.to_bits());
    }

    /// The per-query prediction loop `predict` replaced, verbatim: one
    /// `solve_lower` and two `ops::dot` folds per query.
    fn predict_reference(model: &GpModel, xs: &Matrix) -> Prediction {
        let fitted = model.fitted.as_ref().unwrap();
        let n = fitted.x.rows();
        let mut mean = Vec::new();
        let mut std = Vec::new();
        let mut kstar = vec![0.0; n];
        for q in 0..xs.rows() {
            let xq = xs.row(q);
            for (i, k) in kstar.iter_mut().enumerate() {
                *k = model.kernel.value(xq, fitted.x.row(i));
            }
            let mu = fitted.y_mean + ops::dot(&kstar, &fitted.alpha);
            let v = fitted.chol.solve_lower(&kstar).unwrap();
            let var = (model.kernel.diag_value() - ops::dot(&v, &v)).max(0.0);
            mean.push(mu);
            std.push(var.sqrt());
        }
        Prediction { mean, std }
    }

    #[test]
    fn tiled_predict_matches_per_query_loop_bitwise() {
        use crate::kernel::KernelKind;
        let dim = 3;
        let kinds = [
            KernelKind::Rbf,
            KernelKind::ArdRbf { dim },
            KernelKind::Matern32,
            KernelKind::Matern52,
            KernelKind::RationalQuadratic,
        ];
        let coord = |i: usize, salt: f64| ((i as f64) * 0.618 + salt).sin().abs() * 3.0;
        let mut clamped = 0;
        for &n in &[1usize, 7, 63, 64, 65, 150, 250] {
            let x = Matrix::from_vec(n, dim, (0..n * dim).map(|i| coord(i, 0.1)).collect());
            let y: Vec<f64> = (0..n)
                .map(|i| x.row(i).iter().map(|v| v.cos()).sum())
                .collect();
            for kind in kinds {
                // A noise variance below the resolution of k** = 1 leaves
                // σ² at a training point to rounding, so some clamp at 0;
                // the larger sets also need jitter to factor.
                let mut model = GpModel::new(kind.build(0.8), 1e-17);
                model.fit(&x, &y).unwrap();
                for &m in &[1usize, 63, 64, 65, 257, 400] {
                    // Every fifth query sits on a training point (σ clamps
                    // to 0 there) and every seventh far from the data,
                    // where k* underflows to +0 for the fast-decaying kernels.
                    let data: Vec<f64> = (0..m * dim)
                        .map(|e| {
                            let (q, c) = (e / dim, e % dim);
                            if q % 5 == 0 {
                                x[((q / 5) % n, c)]
                            } else if q % 7 == 0 {
                                1e6 + coord(e, 0.4)
                            } else {
                                coord(e, 0.9)
                            }
                        })
                        .collect();
                    let xs = Matrix::from_vec(m, dim, data);
                    let got = model.predict(&xs).unwrap();
                    let want = predict_reference(&model, &xs);
                    for q in 0..m {
                        assert_eq!(
                            (got.mean[q].to_bits(), got.std[q].to_bits()),
                            (want.mean[q].to_bits(), want.std[q].to_bits()),
                            "{} n={n} m={m} q={q}: ({}, {}) vs ({}, {})",
                            kind.label(),
                            got.mean[q],
                            got.std[q],
                            want.mean[q],
                            want.std[q],
                        );
                    }
                    clamped += got.std.iter().filter(|s| **s == 0.0).count();
                }
            }
        }
        assert!(clamped > 0, "no query exercised the σ clamp");
    }

    #[test]
    fn predict_rejects_non_finite_queries_before_any_work() {
        let (x, y) = sine_data(6);
        let mut m = toy_model();
        m.fit(&x, &y).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let xs = Matrix::from_vec(4, 1, vec![0.5, 1.0, bad, bad]);
            assert_eq!(m.predict(&xs), Err(GpError::NonFiniteQuery { row: 2 }));
            assert_eq!(
                m.predict_one(&[bad]),
                Err(GpError::NonFiniteQuery { row: 0 })
            );
        }
        // A shape error still wins over the finiteness check.
        let xs = Matrix::from_vec(1, 2, vec![f64::NAN, 0.0]);
        assert!(matches!(m.predict(&xs), Err(GpError::Linalg(_))));
    }

    /// `n` points in 3-D with a smooth response plus a ripple.
    fn cube_data(n: usize) -> (Matrix, Vec<f64>) {
        let xs: Vec<f64> = (0..n * 3).map(|e| ((e as f64) * 0.618).fract()).collect();
        let x = Matrix::from_vec(n, 3, xs);
        let y = (0..n)
            .map(|i| {
                let r = x.row(i);
                (3.0 * r[0]).sin() + r[1] * r[2] + 0.1 * (17.0 * r[1]).cos()
            })
            .collect();
        (x, y)
    }

    #[test]
    fn fit_optimized_matches_an_explicit_refit_at_the_optimum_bitwise() {
        let warm = FitOptions::warm_start_only();
        let multi = FitOptions::default();
        let cases = [
            ("sine, warm start", sine_data(30), &warm),
            ("sine, multi-start", sine_data(30), &multi),
            ("cube, warm start", cube_data(40), &warm),
            ("cube, multi-start", cube_data(40), &multi),
        ];
        let (mut skipped, mut refitted) = (0, 0);
        for (label, (x, y), opts) in cases {
            let base = GpModel::new(Box::new(RbfKernel::new(0.7, 0.4)), 1e-3);
            // Which path does fit_optimized take? The same optimizer run
            // on a clone says whether its last evaluation sits at the
            // optimum.
            let mut probe = base.clone();
            let best = optimize::maximize_lml(&mut probe, &x, &y, opts).unwrap();
            let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            if probe.fitted.is_some() && bits(&probe.hyperparams()) == bits(&best) {
                skipped += 1;
            } else {
                refitted += 1;
            }

            let mut fast = base.clone();
            fast.fit_optimized(&x, &y, opts).unwrap();
            let mut explicit = base.clone();
            explicit.set_hyperparams(&best).unwrap();
            explicit.fit(&x, &y).unwrap();
            assert_eq!(bits(&fast.hyperparams()), bits(&best), "{label}");
            assert_eq!(
                fast.lml().unwrap().to_bits(),
                explicit.lml().unwrap().to_bits(),
                "{label}"
            );
            // Queries between and beyond the training points.
            let q = Matrix::from_vec(
                x.rows(),
                x.cols(),
                x.as_slice().iter().map(|v| v * 1.1 - 0.05).collect(),
            );
            let (pf, pe) = (fast.predict(&q).unwrap(), explicit.predict(&q).unwrap());
            let pbits = |p: &Prediction| (bits(&p.mean), bits(&p.std));
            assert_eq!(pbits(&pf), pbits(&pe), "{label}");
        }
        assert!(skipped > 0, "no case skipped the closing refit");
        assert!(refitted > 0, "every case skipped the closing refit");
    }

    #[test]
    fn debug_format_mentions_kernel() {
        let m = toy_model();
        let s = format!("{m:?}");
        assert!(s.contains("RBF"));
    }
}
