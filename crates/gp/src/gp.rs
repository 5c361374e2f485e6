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
use crate::kernel::{Kernel, KernelKind};
use crate::optimize::{self, FitOptions};
use crate::pool_cache::PoolCache;
use al_linalg::{ops, Cholesky, Matrix};

/// Query points per tile of [`GpModel::predict`]; every tile reuses one
/// `n × QB` cross-kernel buffer. Schedule-only: any value gives the same
/// bits.
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
    /// `chol` has zero jitter and is bit for bit the factor a fresh
    /// [`GpModel::fit`] of `x` computes, so [`GpModel::fit`] may border
    /// it. False after [`GpModel::augment`], whose pivot is not exact.
    exact: bool,
}

/// Gaussian process regressor with a stationary kernel of any
/// [`KernelKind`].
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
    kernel: Kernel,
    /// `log σ_n²`.
    log_noise: f64,
    /// When true (default), the training targets are centered before
    /// fitting and the mean is added back at prediction time.
    normalize_y: bool,
    fitted: Option<Fitted>,
}

impl std::fmt::Debug for GpModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpModel")
            .field("kernel", &self.kernel.kind().label())
            .field("params", &self.kernel.params())
            .field("log_noise", &self.log_noise)
            .field("fitted", &self.fitted.is_some())
            .finish()
    }
}

impl GpModel {
    /// Create an unfitted model from a kernel and a natural-space noise
    /// variance `σ_n²`. A variance that is not positive and finite leaves a
    /// non-finite `log σ_n²`, which [`GpModel::fit`] rejects.
    pub fn new(kernel: Kernel, noise_variance: f64) -> Self {
        GpModel {
            kernel,
            log_noise: noise_variance.ln(),
            normalize_y: true,
            fitted: None,
        }
    }

    /// Disable target centering (fit the raw responses).
    #[cfg(test)]
    fn without_normalization(mut self) -> Self {
        self.normalize_y = false;
        self
    }

    /// Natural-space noise variance `σ_n²`.
    pub fn noise_variance(&self) -> f64 {
        self.log_noise.exp()
    }

    /// Full hyperparameter vector in log space:
    /// `[kernel params..., log σ_n²]`.
    pub fn hyperparams(&self) -> Vec<f64> {
        [self.kernel.params(), &[self.log_noise]].concat()
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
    /// When `x` only appends rows to a held fit's, the held factor grows in
    /// place by one `O(n²)` border step per new row instead of an `O(n³)`
    /// factorization, with the same bits. A NaN or infinite input or
    /// response fails with [`GpError::NonFiniteTrainingData`], an ARD
    /// kernel built for another number of columns than `x` has with a
    /// `"fit"` shape mismatch, and a NaN or infinite log hyperparameter
    /// with [`GpError::NonFiniteHyperparameter`], each leaving the model
    /// untouched. A border pivot that fails drops the held fit
    /// and factors from scratch; should that fail too, the model is left
    /// unfitted.
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
        self.check_training(x, y)?;
        let chol = match self.border_held_fit(x) {
            Some(chol) => chol,
            None => {
                let mut k = Matrix::zeros(x.rows(), x.rows());
                self.fill_noisy_kernel_matrix(x, &x.transpose(), &mut k);
                factor_from_scratch(&k)?
            }
        };
        self.hold_fit(x, y, chol)
    }

    /// What [`GpModel::fit`] and [`GpModel::fit_optimized`] reject before
    /// touching the model: a NaN or infinite value in `(x, y)` (which must
    /// already agree in length), an ARD kernel built for another number
    /// of columns than `x` has, and a NaN or infinite hyperparameter.
    fn check_training(&self, x: &Matrix, y: &[f64]) -> Result<(), GpError> {
        check_finite(x, y)?;
        if let KernelKind::ArdRbf { dim } = self.kernel.kind() {
            if dim != x.cols() {
                return Err(GpError::Linalg(al_linalg::LinalgError::ShapeMismatch {
                    op: "fit",
                    lhs: (x.rows(), dim),
                    rhs: x.shape(),
                }));
            }
        }
        self.check_hyperparams()
    }

    /// Reject a NaN or infinite log hyperparameter, naming its index in
    /// [`GpModel::hyperparams`].
    fn check_hyperparams(&self) -> Result<(), GpError> {
        let mut p = self.kernel.params().iter().chain([&self.log_noise]);
        match p.position(|v| !v.is_finite()) {
            Some(index) => Err(GpError::NonFiniteHyperparameter { index }),
            None => Ok(()),
        }
    }

    /// Hold the fit of `(x, y)` whose `K_y` factor is `chol`: center `y`,
    /// solve for `α` and evaluate the LML.
    fn hold_fit(&mut self, x: &Matrix, y: &[f64], chol: Cholesky) -> Result<(), GpError> {
        let y_mean = if self.normalize_y {
            al_linalg::stats::mean(y)
        } else {
            0.0
        };
        let y_centered: Vec<f64> = y.iter().map(|v| v - y_mean).collect();
        let alpha = chol.solve(&y_centered)?;

        let n = x.rows() as f64;
        let lml = -0.5 * (ops::dot(&y_centered, &alpha) + chol.log_det())
            - 0.5 * n * (2.0 * std::f64::consts::PI).ln();

        self.fitted = Some(Fitted {
            x: x.clone(),
            y_centered,
            y_mean,
            exact: chol.jitter() <= 0.0,
            chol,
            alpha,
            lml,
        });
        Ok(())
    }

    /// The held factor, taken from the held fit and grown in place by one
    /// exact [`Cholesky::border`] step per row `x` appends to the held
    /// fit's rows: bit for bit the factor [`GpModel::fit`] would compute
    /// from scratch (DESIGN §13). `None`, with the held fit kept, unless a
    /// fit is held (so the hyperparameters are the ones it was fitted at),
    /// its factor is exact, and `x` adds at least one row and keeps every
    /// held row bitwise; `None`, with the held fit dropped, when a border
    /// pivot fails.
    fn border_held_fit(&mut self, x: &Matrix) -> Option<Cholesky> {
        let held = self.fitted.as_ref().filter(|f| f.exact)?;
        let n = held.x.rows();
        let same_rows = x
            .as_slice()
            .get(..held.x.as_slice().len())
            .is_some_and(|lead| {
                lead.iter()
                    .zip(held.x.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits())
            });
        if x.cols() != held.x.cols() || x.rows() <= n || !same_rows {
            return None;
        }
        let diag = self.kernel.diag_value() + self.noise_variance();
        // The new entries `k(x_i, x_r)`, `i < r`, of `K_y`'s column `r`.
        let xt = x.transpose();
        let mut column = vec![0.0; x.rows()];
        let mut chol = self.fitted.take()?.chol;
        for r in n..x.rows() {
            self.kernel.values_into(x.row(r), &xt, 0, &mut column[..r]);
            chol.border(&column[..r], diag).ok()?;
        }
        Some(chol)
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
    /// [`GpError::NonFiniteTrainingData`], and a NaN or infinite log
    /// hyperparameter with [`GpError::NonFiniteHyperparameter`], before
    /// the fit is touched.
    pub fn augment(&mut self, x_new: &[f64], y_new: f64) -> Result<(), GpError> {
        self.check_hyperparams()?;
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
        self.kernel
            .values_into(x_new, &fitted.x.transpose(), 0, &mut k_vec);
        let diag = self.kernel.diag_value() + self.log_noise.exp();

        // Rebuild the training set regardless of which path we take.
        let x_row = Matrix::from_vec(1, x_new.len(), x_new.to_vec());
        let x_next = fitted.x.vstack(&x_row)?;
        let mut y_centered = fitted.y_centered.clone();
        y_centered.push(y_new - fitted.y_mean);

        // `extend` grows the held factor in place and leaves it untouched
        // when its pivot fails, so the fallback sees the held fit as it was.
        if fitted.chol.extend(&k_vec, diag).is_err() {
            // Numerically degenerate border (e.g. duplicate point): fall
            // back to a full jittered refit of the whole set. `fit` also
            // refreshes the centering mean, which is fine — both centerings
            // describe the same posterior.
            let y_raw: Vec<f64> = y_centered.iter().map(|v| v + fitted.y_mean).collect();
            return self.fit(&x_next, &y_raw);
        }
        // The factor and `y_centered` both have n + 1 rows: cannot fail.
        let alpha = fitted.chol.solve(&y_centered)?;
        let n_new = (n + 1) as f64;
        let lml = -0.5 * (ops::dot(&y_centered, &alpha) + fitted.chol.log_det())
            - 0.5 * n_new * (2.0 * std::f64::consts::PI).ln();

        fitted.x = x_next;
        fitted.y_centered = y_centered;
        fitted.alpha = alpha;
        fitted.lml = lml;
        fitted.exact = false;
        Ok(())
    }

    /// Fit with hyperparameter optimization: maximize the LML (Eq. 9) by
    /// multi-start Adam in log space, warm-starting from the current
    /// hyperparameters, then refit at the optimum. The refit is skipped
    /// when the optimizer's last evaluation already fit `(x, y)` at the
    /// optimum's exact bits, since it would rebuild that fit bit for bit.
    /// Fails before the model is touched where [`GpModel::fit`] would.
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
        self.check_training(x, y)?;
        // With a single observation the LML surface is degenerate; just fit.
        if x.rows() < 2 {
            return self.fit(x, y);
        }
        // The optimizer's first evaluation drops the held fit anyway; drop
        // it before the optimizer allocates its n × n buffer.
        self.fitted = None;
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
        let xt = fitted.x.transpose();
        let mut k = Matrix::zeros(fitted.x.rows(), fitted.x.rows());
        self.fill_noisy_kernel_matrix(&fitted.x, &xt, &mut k);
        self.gradient_in(fitted, &xt, &mut k)
    }

    /// [`GpModel::lml_gradient`] of `fitted`, from `k` holding `K_y` over
    /// `fitted.x` (transposed: `xt`) above its diagonal: `K_y⁻¹`'s upper
    /// triangle overwrites `k`'s lower one, and the gradient reads its
    /// kernel values above the diagonal and `K_y⁻¹(i, j)`, `i ≤ j`, at
    /// `k(j, i)`. The diagonal now holds `K_y⁻¹`'s, and `K_y`'s carried
    /// σ_n² anyway, so the diagonal terms take `diag_value()`, which is
    /// `value(x_i, x_i)` bit for bit (see [`Kernel::diag_value`]).
    ///
    /// Row `i` takes one [`Kernel::gradients_into`] over columns `i..n`,
    /// and each `∂LML/∂θ_g` adds its terms pair by pair in ascending
    /// `(i, j)`, the diagonal's first in each row.
    fn gradient_in(
        &self,
        fitted: &Fitted,
        xt: &Matrix,
        k: &mut Matrix,
    ) -> Result<Vec<f64>, GpError> {
        fitted.chol.inverse_upper_into(k)?;
        let n = fitted.x.rows();
        let nk = self.kernel.n_params();
        let alpha = &fitted.alpha;

        let mut grad = vec![0.0; nk + 1];
        let (mut kv, mut c) = (vec![0.0; n], vec![0.0; n]);
        let mut terms = vec![0.0; nk * n];
        for i in 0..n {
            let w = n - i;
            kv[0] = self.kernel.diag_value();
            kv[1..w].copy_from_slice(&k.row(i)[i + 1..]);
            for (j, cij) in (i..n).zip(&mut c) {
                *cij = alpha[i] * alpha[j] - k[(j, i)];
            }
            let terms = &mut terms[..nk * w];
            self.kernel
                .gradients_into(fitted.x.row(i), xt, i, &kv[..w], terms);
            for (g, t) in grad[..nk].iter_mut().zip(terms.chunks_exact(w)) {
                // Diagonal term (weight 1), then off-diagonal (weight 2).
                *g += 0.5 * c[0] * t[0];
                for (cij, tj) in c[1..w].iter().zip(&t[1..]) {
                    *g += cij * tj;
                }
            }
        }
        // Noise: ∂K_y/∂log σ_n² = σ_n² I.
        let sn2 = self.noise_variance();
        let trace_term: f64 = (0..n).map(|i| alpha[i] * alpha[i] - k[(i, i)]).sum();
        grad[nk] = 0.5 * sn2 * trace_term;
        Ok(grad)
    }

    /// Posterior mean and standard deviation at each row of `xs` (Eq. 2–3).
    ///
    /// A NaN or infinite query coordinate fails with
    /// [`GpError::NonFiniteQuery`] before any work is done.
    pub fn predict(&self, xs: &Matrix) -> Result<Prediction, GpError> {
        let fitted = self.query_fit(xs)?;
        let prior = self.kernel.diag_value();
        let mut std = Vec::with_capacity(xs.rows());
        let mean = self.predict_tiles(fitted, xs, |w, kt| {
            // ‖L⁻¹k*‖² = Σ_i v_i² folds from −0.0 in ascending i, as
            // `ops::dot` does; `solve_lower_multi` matches `solve_lower`
            // column by column.
            fitted.chol.solve_lower_multi(kt, w, 0)?;
            let mut ss = [-0.0f64; QB];
            let ss = &mut ss[..w];
            for row in kt.chunks_exact(w) {
                for (acc, v) in ss.iter_mut().zip(row) {
                    *acc += v * v;
                }
            }
            std.extend(ss.iter().map(|&ss| posterior_std(prior, ss)));
            Ok(())
        })?;
        Ok(Prediction { mean, std })
    }

    /// Posterior means at each row of `xs`, bit for bit
    /// [`GpModel::predict`]'s, without the σ half: no triangular solve.
    /// This is all an RMSE needs. Fails as [`GpModel::predict`] does.
    pub fn predict_mean(&self, xs: &Matrix) -> Result<Vec<f64>, GpError> {
        let fitted = self.query_fit(xs)?;
        self.predict_tiles(fitted, xs, |_, _| Ok(()))
    }

    /// [`GpModel::predict`] for a candidate pool predicted round after
    /// round, bit for bit the same, reusing the kernel values and solves
    /// `cache` holds from the previous round.
    ///
    /// While the model's factor keeps its leading rows (border refits and
    /// augments between optimizations) and the pool only loses
    /// candidates, each cached column's `k*` grows by one kernel value per
    /// new training row, its `v = L⁻¹k*` by one element per new factor
    /// row, computed in [`Cholesky::solve_lower`]'s order, and its `Σv²` by
    /// the new terms in order. That is `m_c` kernel values and `O(m_c·n)`
    /// flops per new row instead of `n·m` values and `O(m·n²)` flops, for
    /// the `m_c ≥ m` columns the cache was built with: a dropped candidate
    /// keeps its column (see [`PoolCache`]). μ is refolded from the cached
    /// `k*` since `α` changes with every fit: `μ − ȳ = Σ_i k_i·α_i` from
    /// −0.0 in ascending `i`, as [`GpModel::predict`] folds it. The query's
    /// μ and σ are then read from its columns. Whenever `cache` does not
    /// match this model or `xs` it is rebuilt, at the cost of a
    /// [`GpModel::predict`].
    pub fn predict_cached(
        &self,
        xs: &Matrix,
        cache: &mut PoolCache,
    ) -> Result<Prediction, GpError> {
        let fitted = self.query_fit(xs)?;
        let n = fitted.x.rows();
        let solved = cache.prepare(&fitted.chol, xs);
        let mc = cache.ss.len();
        if solved < n {
            // The new rows' kernel values, each one block over every
            // cached column, are also the right-hand sides of the rows to
            // solve.
            let new_k = &mut cache.k[solved * mc..];
            for (i, row) in (solved..n).zip(new_k.chunks_exact_mut(mc.max(1))) {
                self.kernel.values_into(fitted.x.row(i), &cache.xt, 0, row);
            }
            cache.v[solved * mc..].copy_from_slice(new_k);
        }
        let v = &mut cache.v;
        fitted.chol.solve_lower_multi(v, mc, solved)?;
        for row in v.chunks_exact(mc.max(1)).skip(solved) {
            for (acc, v) in cache.ss.iter_mut().zip(row) {
                *acc += v * v;
            }
        }
        cache.seal(&fitted.chol);
        let mut mu = vec![-0.0f64; mc];
        for (row, a) in cache.k.chunks_exact(mc.max(1)).zip(&fitted.alpha) {
            for (acc, k) in mu.iter_mut().zip(row) {
                *acc += k * a;
            }
        }
        let prior = self.kernel.diag_value();
        Ok(Prediction {
            mean: cache.live.iter().map(|&c| fitted.y_mean + mu[c]).collect(),
            std: cache
                .live
                .iter()
                .map(|&c| posterior_std(prior, cache.ss[c]))
                .collect(),
        })
    }

    /// The held fit, once `xs` is known to be queryable against it: a
    /// shape mismatch fails first, then the first non-finite query row.
    fn query_fit(&self, xs: &Matrix) -> Result<&Fitted, GpError> {
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
        Ok(fitted)
    }

    /// The loop behind [`GpModel::predict`] and
    /// [`GpModel::predict_mean`]; returns the posterior means. Queries run
    /// in tiles of up to QB through one `n × w` buffer whose row `i` holds
    /// `k(x_q, x_i)` for every query `q` of the tile, one
    /// [`Kernel::values_into`] of `x_i` against the tile's columns of the
    /// transposed queries. Each μ keeps the bits of the per-query loop
    /// this replaced (DESIGN §13): `μ − ȳ = Σ_i k_i·α_i` folds from −0.0
    /// in ascending `i`, as `ops::dot` does. Then `tile_done(w, block)`
    /// sees the tile's block (its `w` queries) and may overwrite it: the σ
    /// half, if any, lives there.
    fn predict_tiles(
        &self,
        fitted: &Fitted,
        xs: &Matrix,
        mut tile_done: impl FnMut(usize, &mut [f64]) -> Result<(), GpError>,
    ) -> Result<Vec<f64>, GpError> {
        let n = fitted.x.rows();
        let m = xs.rows();
        let mut mean = Vec::with_capacity(m);
        let mut buf = vec![0.0; n * QB.min(m)];
        let xst = xs.transpose();
        for q0 in (0..m).step_by(QB) {
            let w = QB.min(m - q0);
            let kt = &mut buf[..n * w];
            for (i, row) in kt.chunks_exact_mut(w).enumerate() {
                self.kernel.values_into(fitted.x.row(i), &xst, q0, row);
            }
            let mut mu = [-0.0f64; QB];
            let mu = &mut mu[..w];
            for (row, a) in kt.chunks_exact(w).zip(&fitted.alpha) {
                for (acc, k) in mu.iter_mut().zip(row) {
                    *acc += k * a;
                }
            }
            mean.extend(mu.iter().map(|acc| fitted.y_mean + acc));
            tile_done(w, kt)?;
        }
        Ok(mean)
    }

    /// Posterior mean/std at a single point.
    pub fn predict_one(&self, x: &[f64]) -> Result<(f64, f64), GpError> {
        let m = Matrix::from_vec(1, x.len(), x.to_vec());
        let p = self.predict(&m)?;
        Ok((p.mean[0], p.std[0]))
    }

    /// Evaluate the LML and its gradient at given hyperparameters for the
    /// provided data, keeping the fit — the optimizer's objective. `xt` is
    /// `x` transposed, and `k` is
    /// the caller's `n × n` buffer: it is refilled with `K_y` in place and
    /// factored; then `K_y⁻¹`'s upper triangle overwrites its lower one,
    /// and the gradient reads its kernel values above the diagonal and
    /// `K_y⁻¹` on and below it. Returns `None` when the kernel matrix
    /// cannot be factored.
    pub(crate) fn lml_at(
        &mut self,
        params: &[f64],
        x: &Matrix,
        xt: &Matrix,
        y: &[f64],
        k: &mut Matrix,
    ) -> Option<(f64, Vec<f64>)> {
        // A failed evaluation must leave no fit behind: `fit_optimized`
        // keeps a held fit as the optimum's.
        self.fitted = None;
        if self.set_hyperparams(params).is_err() {
            return None;
        }
        self.fill_noisy_kernel_matrix(x, xt, k);
        let chol = factor_from_scratch(k).ok()?;
        self.hold_fit(x, y, chol).ok()?;
        let fitted = self.fitted.as_ref()?;
        let grad = self.gradient_in(fitted, xt, k).ok()?;
        let lml = fitted.lml;
        if !lml.is_finite() || grad.iter().any(|g| !g.is_finite()) {
            return None;
        }
        Some((lml, grad))
    }

    /// Overwrite the `n × n` matrix `k` with the noisy training covariance
    /// `K_y = K + σ_n² I` over the rows of `x` (Eq. 3), given `xt`, `x`
    /// transposed: the diagonal and upper triangle row by row, entries
    /// `(i, i + 1..n)` one [`Kernel::values_into`] of `x_i`, then the
    /// lower triangle mirrored.
    fn fill_noisy_kernel_matrix(&self, x: &Matrix, xt: &Matrix, k: &mut Matrix) {
        let n = x.rows();
        debug_assert_eq!(k.shape(), (n, n));
        let diag = self.kernel.diag_value() + self.noise_variance();
        for (i, row) in k.as_mut_slice().chunks_exact_mut(n.max(1)).enumerate() {
            row[i] = diag;
            self.kernel
                .values_into(x.row(i), xt, i + 1, &mut row[i + 1..]);
        }
        for i in 0..n {
            for j in (i + 1)..n {
                k[(j, i)] = k[(i, j)];
            }
        }
    }
}

/// Factor `K_y` from scratch, escalating jitter from 1e-10 up to 1e-2
/// when it is numerically only semi-definite.
fn factor_from_scratch(k: &Matrix) -> Result<Cholesky, al_linalg::LinalgError> {
    Cholesky::with_jitter(k, 1e-10, 1e-2)
}

/// `σ = √(k** − ‖L⁻¹k*‖²)`, clamped at 0 against rounding.
fn posterior_std(prior: f64, ss: f64) -> f64 {
    (prior - ss).max(0.0).sqrt()
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

    fn toy_model() -> GpModel {
        GpModel::new(KernelKind::Rbf.build(1.0), 1e-4)
    }

    /// An RBF model at amplitude `σ_f²`, length scale `l` and noise
    /// `σ_n²`, each held as its log.
    fn rbf_model(sigma_f2: f64, length: f64, noise: f64) -> GpModel {
        let mut model = GpModel::new(KernelKind::Rbf.build(length), noise);
        model
            .set_hyperparams(&[sigma_f2.ln(), length.ln(), noise.ln()])
            .unwrap();
        model
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
        let mut m = GpModel::new(KernelKind::Rbf.build(1.0), 1e-6);
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
        let mut m = GpModel::new(KernelKind::Rbf.build(1.0), 1e-9);
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

    #[test]
    fn ard_fit_on_another_number_of_columns_is_rejected_untouched() {
        // Five feature columns: an ARD kernel built for three would drop
        // the last two, and one built for seven would read gradient terms
        // for l_6 and l_7 from a stale buffer.
        let n = 12;
        let wide = Matrix::from_vec(n, 5, (0..n * 5).map(|e| (e as f64 * 0.37).sin()).collect());
        let y: Vec<f64> = (0..n).map(|i| wide.row(i).iter().sum()).collect();
        let opts = FitOptions::warm_start_only();
        for dim in [3, 7] {
            let mut m = GpModel::new(KernelKind::ArdRbf { dim }.build(0.5), 1e-3);
            let want = Err(GpError::Linalg(al_linalg::LinalgError::ShapeMismatch {
                op: "fit",
                lhs: (n, dim),
                rhs: (n, 5),
            }));
            assert_eq!(m.fit(&wide, &y), want, "fit, dim {dim}");
            assert_eq!(
                m.fit_optimized(&wide, &y, &opts),
                want,
                "optimized, dim {dim}"
            );
            assert_eq!(m.n_train(), 0);
        }
        // A held fit and its hyperparameters survive both rejections.
        let (x, y3) = cube_data(n);
        let mut m = GpModel::new(KernelKind::ArdRbf { dim: 3 }.build(0.5), 1e-3);
        m.fit(&x, &y3).unwrap();
        let held = m.clone();
        assert!(m.fit(&wide, &y).is_err());
        assert!(m.fit_optimized(&wide, &y, &opts).is_err());
        assert_eq!(m.hyperparams(), held.hyperparams());
        assert_fits_bitwise_equal(&m, &held, "after the rejected fits");
    }

    #[test]
    fn non_finite_hyperparameters_are_rejected_before_the_fit_is_touched() {
        let (x, y) = sine_data(6);
        let opts = FitOptions::warm_start_only();
        // A length scale or noise variance that is not positive and finite
        // leaves a non-finite log: index 1 or 2 of `[log σ_f², log l, log σ_n²]`.
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            for (mut m, index) in [
                (GpModel::new(KernelKind::Rbf.build(bad), 1e-4), 1),
                (GpModel::new(KernelKind::Rbf.build(1.0), bad), 2),
            ] {
                let want = Err(GpError::NonFiniteHyperparameter { index });
                assert_eq!(m.fit(&x, &y), want, "fit at {bad}");
                assert_eq!(m.fit_optimized(&x, &y, &opts), want, "optimized at {bad}");
                assert_eq!(m.n_train(), 0);
            }
        }
        // `set_hyperparams` drops the fit, so only a fit whose noise went
        // bad in place can reach `augment`'s check.
        let mut m = toy_model();
        m.fit(&x, &y).unwrap();
        let lml = m.lml().unwrap();
        m.log_noise = f64::NAN;
        assert_eq!(
            m.augment(&[0.5], 0.5),
            Err(GpError::NonFiniteHyperparameter { index: 2 })
        );
        assert_eq!(m.n_train(), 6);
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

    /// Calls `check(label, model, xs)` for every kernel over fits of
    /// n ∈ {1, 7, 63, 64, 65, 150, 250} 3-D points and query sets of
    /// m ∈ {1, 63, 64, 65, 257, 400} rows, around the QB = 64 tile.
    fn each_predict_shape(mut check: impl FnMut(&str, &GpModel, &Matrix)) {
        let dim = 3;
        let kinds = [
            KernelKind::Rbf,
            KernelKind::ArdRbf { dim },
            KernelKind::Matern32,
            KernelKind::Matern52,
            KernelKind::RationalQuadratic,
        ];
        let coord = |i: usize, salt: f64| ((i as f64) * 0.618 + salt).sin().abs() * 3.0;
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
                    check(&format!("{} n={n} m={m}", kind.label()), &model, &xs);
                }
            }
        }
    }

    #[test]
    fn tiled_predict_matches_per_query_loop_bitwise() {
        let mut clamped = 0;
        each_predict_shape(|label, model, xs| {
            let got = model.predict(xs).unwrap();
            let want = predict_reference(model, xs);
            for q in 0..xs.rows() {
                assert_eq!(
                    (got.mean[q].to_bits(), got.std[q].to_bits()),
                    (want.mean[q].to_bits(), want.std[q].to_bits()),
                    "{label} q={q}: ({}, {}) vs ({}, {})",
                    got.mean[q],
                    got.std[q],
                    want.mean[q],
                    want.std[q],
                );
            }
            clamped += got.std.iter().filter(|s| **s == 0.0).count();
        });
        assert!(clamped > 0, "no query exercised the σ clamp");
    }

    #[test]
    fn mean_only_and_cold_cached_predict_match_predict_bitwise() {
        each_predict_shape(|label, model, xs| {
            let want = model.predict(xs).unwrap();
            let mean = model.predict_mean(xs).unwrap();
            assert_eq!(bits(&mean), bits(&want.mean), "{label}: mean only");
            let mut cache = PoolCache::new();
            let got = model.predict_cached(xs, &mut cache).unwrap();
            assert_predictions_bitwise_equal(&got, &want, &format!("{label}: cold cache"));
            // A second prediction reuses every solve and computes none.
            assert_eq!(reused_rows(model, xs, &cache), model.n_train(), "{label}");
            let again = model.predict_cached(xs, &mut cache).unwrap();
            assert_predictions_bitwise_equal(&again, &want, &format!("{label}: warm cache"));
        });
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_predictions_bitwise_equal(got: &Prediction, want: &Prediction, label: &str) {
        assert_eq!(bits(&got.mean), bits(&want.mean), "{label}: mean");
        assert_eq!(bits(&got.std), bits(&want.std), "{label}: std");
    }

    /// How many factor rows of solves `cache` would keep for `xs` against
    /// `model`'s factor (0: it rebuilds).
    fn reused_rows(model: &GpModel, xs: &Matrix, cache: &PoolCache) -> usize {
        let chol = &model.fitted.as_ref().unwrap().chol;
        cache.clone().prepare(chol, xs)
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
            let base = rbf_model(0.7, 0.4, 1e-3);
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

    /// Two fits hold the same factor, α, LML and centering, bit for bit.
    fn assert_fits_bitwise_equal(got: &GpModel, want: &GpModel, label: &str) {
        let (g, w) = (got.fitted.as_ref().unwrap(), want.fitted.as_ref().unwrap());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(g.x.shape(), w.x.shape(), "{label}");
        assert_eq!(
            g.chol.jitter().to_bits(),
            w.chol.jitter().to_bits(),
            "{label}"
        );
        assert!(
            bits(g.chol.l().as_slice()) == bits(w.chol.l().as_slice()),
            "{label}: factor"
        );
        assert_eq!(bits(&g.alpha), bits(&w.alpha), "{label}: alpha");
        assert_eq!(g.lml.to_bits(), w.lml.to_bits(), "{label}: lml");
        assert_eq!(g.y_mean.to_bits(), w.y_mean.to_bits(), "{label}: y_mean");
        assert_eq!(g.exact, w.exact, "{label}: exact");
    }

    /// A model fitted from scratch on the first `n` rows.
    fn fresh_fit(base: &GpModel, x: &Matrix, y: &[f64], n: usize) -> GpModel {
        let mut m = base.clone();
        m.fit(&x.select_rows(&(0..n).collect::<Vec<_>>()), &y[..n])
            .unwrap();
        m
    }

    #[test]
    fn fit_borders_a_held_fit_bitwise() {
        // Held fits on both sides of the factor's reference/tiled
        // crossover, grown by 1 and 3 rows, then by 2 more from a bordered
        // fit; each against a fresh model's fit of the same rows.
        let sizes: Vec<usize> = (1..=200).chain([250, 257]).collect();
        let (x, y) = cube_data(260);
        let base = rbf_model(0.4, 0.3, 1e-3);
        for n in sizes {
            let held = fresh_fit(&base, &x, &y, n);
            let mut grown = Vec::new();
            for k in [1usize, 3] {
                let rows = x.select_rows(&(0..n + k).collect::<Vec<_>>());
                let mut m = held.clone();
                assert!(m.clone().border_held_fit(&rows).is_some(), "n={n} k={k}");
                m.fit(&rows, &y[..n + k]).unwrap();
                assert_fits_bitwise_equal(
                    &m,
                    &fresh_fit(&base, &x, &y, n + k),
                    &format!("n={n} k={k}"),
                );
                grown.push((m, rows));
            }
            let (mut m, _) = grown.swap_remove(0);
            let rows = &grown[0].1;
            assert!(m.clone().border_held_fit(rows).is_some(), "n={n} chained");
            m.fit(rows, &y[..n + 3]).unwrap();
            assert_fits_bitwise_equal(&m, &grown[0].0, &format!("n={n} chained"));
        }
    }

    #[test]
    fn fit_refactors_when_bordering_would_not_be_exact() {
        let (x, y) = cube_data(40);
        let base = rbf_model(0.4, 0.3, 1e-3);
        let rows = |n: usize| x.select_rows(&(0..n).collect::<Vec<_>>());
        // `held` takes the full path and lands on a fresh fit's bits.
        let check = |mut held: GpModel, xs: &Matrix, ys: &[f64], label: &str| {
            assert!(held.clone().border_held_fit(xs).is_none(), "{label}");
            let mut fresh = held.clone();
            fresh.fitted = None;
            fresh.fit(xs, ys).unwrap();
            held.fit(xs, ys).unwrap();
            assert_fits_bitwise_equal(&held, &fresh, label);
        };

        // After `augment`: its pivot is not exact, so its factor differs
        // from a fresh one, and bordering it would carry that on.
        let mut augmented = fresh_fit(&base, &x, &y, 30);
        augmented.augment(x.row(30), y[30]).unwrap();
        let fresh31 = fresh_fit(&base, &x, &y, 31);
        let l_bits = |m: &GpModel| {
            let l = m.fitted.as_ref().unwrap().chol.l().as_slice().to_vec();
            l.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_ne!(
            l_bits(&augmented),
            l_bits(&fresh31),
            "augment is exact here"
        );
        check(augmented, &rows(32), &y[..32], "after augment");

        // A changed leading row.
        let mut moved = rows(33);
        moved[(4, 1)] = f64::from_bits(moved[(4, 1)].to_bits() + 1);
        check(
            fresh_fit(&base, &x, &y, 32),
            &moved,
            &y[..33],
            "changed row",
        );

        // No new row.
        check(
            fresh_fit(&base, &x, &y, 32),
            &rows(32),
            &y[..32],
            "same rows",
        );

        // A jittered held factor: a duplicated point at a noise below the
        // resolution of k(x, x) = 1 cannot factor without jitter.
        let tiny = rbf_model(0.4, 0.3, 1e-17);
        let mut dup = rows(6).vstack(&rows(1)).unwrap();
        let y_dup: Vec<f64> = y[..6].iter().chain(&y[..1]).copied().collect();
        let mut jittered = tiny.clone();
        jittered.fit(&dup, &y_dup).unwrap();
        assert!(jittered.fitted.as_ref().unwrap().chol.jitter() > 0.0);
        dup = dup.vstack(&x.select_rows(&[6])).unwrap();
        let mut y_next = y_dup.clone();
        y_next.push(y[6]);
        check(jittered, &dup, &y_next, "jittered held factor");

        // A failed border pivot: the held fit is exact, but the new row
        // duplicates one, so the fresh factor needs jitter too.
        let far = Matrix::from_vec(3, 1, vec![0.0, 5.0, 10.0]);
        let mut held = tiny.clone();
        held.fit(&far, &[1.0, 2.0, 3.0]).unwrap();
        assert!(held.fitted.as_ref().unwrap().exact);
        let far_dup = far.vstack(&Matrix::from_vec(1, 1, vec![0.0])).unwrap();
        let ys = [1.0, 2.0, 3.0, 1.1];
        let mut fresh = tiny.clone();
        fresh.fit(&far_dup, &ys).unwrap();
        assert!(fresh.fitted.as_ref().unwrap().chol.jitter() > 0.0);
        check(held, &far_dup, &ys, "failed border pivot");
    }

    /// `model.predict_cached(xs, cache)` keeps `want_reused` factor rows
    /// of solves and returns a fresh `predict`'s bits.
    fn check_cached(
        model: &GpModel,
        xs: &Matrix,
        cache: &mut PoolCache,
        want_reused: usize,
        label: &str,
    ) {
        assert_eq!(reused_rows(model, xs, cache), want_reused, "{label}: reuse");
        let got = model.predict_cached(xs, cache).unwrap();
        assert_predictions_bitwise_equal(&got, &model.predict(xs).unwrap(), label);
        assert_eq!(cache.factor_rows(), model.n_train(), "{label}: sealed");
    }

    #[test]
    fn cached_pool_predict_matches_predict_across_rounds_bitwise() {
        // AL-style rounds for every kernel: predict the pool, move `batch`
        // picks from the pool into the training set, grow the model by
        // border refits or augments, and cross an optimize boundary every
        // fourth round. Every third round also drops a candidate nobody
        // trains on, so the cache drops more than the picks; and a
        // clone of the cache must serve the round as the cache does.
        let (x, y) = cube_data(140);
        let kinds = [
            KernelKind::Rbf,
            KernelKind::ArdRbf { dim: 3 },
            KernelKind::Matern32,
            KernelKind::Matern52,
            KernelKind::RationalQuadratic,
        ];
        for kind in kinds {
            let base = GpModel::new(kind.build(0.3), 1e-3);
            for incremental in [false, true] {
                for batch in [1usize, 3] {
                    let label = format!("{} incremental={incremental} batch={batch}", kind.label());
                    let mut train: Vec<usize> = (0..20).collect();
                    let mut pool: Vec<usize> = (60..140).collect();
                    let ys = |rows: &[usize]| rows.iter().map(|&i| y[i]).collect::<Vec<_>>();
                    let mut model = base.clone();
                    model.fit(&x.select_rows(&train), &ys(&train)).unwrap();
                    let mut cache = PoolCache::new();
                    let mut want_reused = 0;
                    for round in 0..12 {
                        if round % 3 == 2 {
                            pool.remove((round * 5) % pool.len());
                        }
                        let xs = x.select_rows(&pool);
                        let label = format!("{label} round={round}");
                        let mut twin = cache.clone();
                        check_cached(
                            &model,
                            &xs,
                            &mut twin,
                            want_reused,
                            &format!("{label} clone"),
                        );
                        check_cached(&model, &xs, &mut cache, want_reused, &label);
                        want_reused = model.n_train();
                        // Picks from the front, middle and back of the pool.
                        let picks: Vec<usize> = (0..batch)
                            .map(|b| pool.remove((round * 7 + b * 13) % pool.len()))
                            .collect();
                        train.extend(&picks);
                        let rows = x.select_rows(&train);
                        if round % 4 == 3 {
                            let opts = FitOptions::warm_start_only();
                            model.fit_optimized(&rows, &ys(&train), &opts).unwrap();
                            want_reused = 0;
                        } else if incremental {
                            for &p in &picks {
                                model.augment(x.row(p), y[p]).unwrap();
                            }
                        } else {
                            model.fit(&rows, &ys(&train)).unwrap();
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cached_pool_predict_evaluates_the_kernel_only_for_new_rows() {
        let counting = |noise: f64| rbf_model(0.4, 0.3, noise);
        // Kernel values `predict_cached` evaluates for `xs`, counted by
        // this thread's `values_into` lanes, after checking its bits
        // against a fresh `predict`.
        let lanes = || crate::kernel::LANES.with(|lanes| lanes.get());
        let evaluated = |model: &GpModel, xs: &Matrix, cache: &mut PoolCache, label: &str| {
            let before = lanes();
            let got = model.predict_cached(xs, cache).unwrap();
            let after = lanes();
            assert_predictions_bitwise_equal(&got, &model.predict(xs).unwrap(), label);
            after - before
        };
        let (x, y) = cube_data(80);
        let ys = |rows: &[usize]| rows.iter().map(|&i| y[i]).collect::<Vec<_>>();
        let mut train: Vec<usize> = (0..20).collect();
        let mut pool: Vec<usize> = (40..80).collect();
        // `columns[q]` is the cached column of `pool[q]`: a dropped
        // candidate keeps its column, and the others keep their indices.
        let mut columns: Vec<usize> = (0..40).collect();
        let mut model = counting(1e-3);
        model.fit(&x.select_rows(&train), &ys(&train)).unwrap();
        let mut cache = PoolCache::new();
        assert_eq!(
            evaluated(&model, &x.select_rows(&pool), &mut cache, "cold"),
            20 * 40
        );

        // Border refits by one and by three rows, then augments: one value
        // per cached column (all 40, the picked ones too) per new factor
        // row, from the cache or from a clone of it. The blocks' rows
        // already solved keep their bits, in place.
        let block_bits = |cache: &PoolCache| (bits(&cache.k), bits(&cache.v));
        for (grow, augment) in [(1usize, false), (3, false), (1, true), (2, true)] {
            let label = format!("grow={grow} augment={augment}");
            let picks: Vec<usize> = (0..grow)
                .map(|b| {
                    let q = b * 11 % pool.len();
                    columns.remove(q);
                    pool.remove(q)
                })
                .collect();
            train.extend(&picks);
            if augment {
                for &p in &picks {
                    model.augment(x.row(p), y[p]).unwrap();
                }
            } else {
                model.fit(&x.select_rows(&train), &ys(&train)).unwrap();
            }
            let xs = x.select_rows(&pool);
            let (old_k, old_v) = block_bits(&cache);
            let mut twin = cache.clone();
            assert_eq!(
                evaluated(&model, &xs, &mut twin, &label),
                grow * 40,
                "{label} clone"
            );
            assert_eq!(
                evaluated(&model, &xs, &mut cache, &label),
                grow * 40,
                "{label}"
            );
            let (k, v) = block_bits(&cache);
            assert_eq!(k.len(), model.n_train() * 40, "{label}: K* rows");
            assert_eq!(k[..old_k.len()], old_k[..], "{label}: K* moved");
            assert_eq!(v[..old_v.len()], old_v[..], "{label}: V moved");
            assert_eq!(cache.live, columns, "{label}: live");
            // The same round again evaluates nothing.
            assert_eq!(
                evaluated(&model, &xs, &mut cache, &label),
                0,
                "{label} again"
            );
        }

        // A round that only drops candidates evaluates and solves nothing,
        // and leaves both blocks as they were.
        let n = model.n_train();
        let (old_k, old_v) = block_bits(&cache);
        for q in [0, pool.len() / 2, pool.len() - 3] {
            columns.remove(q);
            pool.remove(q);
        }
        let xs = x.select_rows(&pool);
        assert_eq!(reused_rows(&model, &xs, &cache), n, "drop only: solves");
        assert_eq!(evaluated(&model, &xs, &mut cache, "drop only"), 0);
        assert_eq!(block_bits(&cache), (old_k, old_v), "drop only: blocks");
        assert_eq!(cache.live, columns, "drop only: live");

        // Everything else rebuilds: n·m values, for the query's m rows.
        let m = pool.len();
        let mut reversed = pool.clone();
        reversed.reverse();
        let mut twin = cache.clone();
        let label = "reordered rows";
        assert_eq!(
            evaluated(&model, &x.select_rows(&reversed), &mut twin, label),
            n * m
        );
        let mut other = counting(1e-3);
        other.fit(&x.select_rows(&train), &ys(&train)).unwrap();
        let mut twin = cache.clone();
        assert_eq!(evaluated(&other, &xs, &mut twin, "another model"), n * m);
        let mut optimized = model.clone();
        let opts = FitOptions::warm_start_only();
        optimized
            .fit_optimized(&x.select_rows(&train), &ys(&train), &opts)
            .unwrap();
        let mut twin = cache.clone();
        assert_eq!(
            evaluated(&optimized, &xs, &mut twin, "optimize boundary"),
            n * m
        );

        // An augment that falls back to a (jittered) refit: a duplicate
        // point at a noise below the resolution of k(x, x) = 1.
        let far = Matrix::from_vec(3, 1, vec![0.0, 5.0, 10.0]);
        let pool = Matrix::from_vec(4, 1, vec![0.3, 2.5, 7.0, 9.9]);
        let mut model = counting(1e-17);
        model.fit(&far, &[1.0, 2.0, 3.0]).unwrap();
        let mut cache = PoolCache::new();
        assert_eq!(evaluated(&model, &pool, &mut cache, "far"), 3 * 4);
        model.augment(&[5.0], 2.1).unwrap();
        assert!(
            model.fitted.as_ref().unwrap().chol.jitter() > 0.0,
            "no fallback"
        );
        assert_eq!(evaluated(&model, &pool, &mut cache, "fallback"), 4 * 4);
        model.augment(&[3.3], 1.5).unwrap();
        assert_eq!(
            evaluated(&model, &pool, &mut cache, "after the fallback"),
            4
        );
    }

    #[test]
    fn cached_pool_predict_rebuilds_after_an_augment_falls_back_to_a_refit() {
        // Well-separated points factor exactly at a noise below the
        // resolution of k(x, x) = 1; a duplicate cannot, so its augment
        // falls back to a jittered refit, a new factor.
        let far = Matrix::from_vec(3, 1, vec![0.0, 5.0, 10.0]);
        let mut model = rbf_model(0.4, 0.3, 1e-17);
        model.fit(&far, &[1.0, 2.0, 3.0]).unwrap();
        let pool = Matrix::from_vec(4, 1, vec![0.3, 2.5, 7.0, 9.9]);
        let mut cache = PoolCache::new();
        check_cached(&model, &pool, &mut cache, 0, "fit");
        model.augment(&[5.0], 2.1).unwrap();
        assert!(
            model.fitted.as_ref().unwrap().chol.jitter() > 0.0,
            "no fallback"
        );
        check_cached(&model, &pool, &mut cache, 0, "after the fallback");
        model.augment(&[3.3], 1.5).unwrap();
        check_cached(&model, &pool, &mut cache, 4, "augment after the fallback");
    }

    #[test]
    fn cached_pool_predict_rebuilds_for_another_factor_or_other_rows() {
        let (x, y) = cube_data(60);
        let base = rbf_model(0.4, 0.3, 1e-3);
        let rows = |r: std::ops::Range<usize>| x.select_rows(&r.collect::<Vec<_>>());
        let held = fresh_fit(&base, &x, &y, 20);
        let pool = rows(30..60);
        let warm = |model: &GpModel, xs: &Matrix| {
            let mut cache = PoolCache::new();
            model.predict_cached(xs, &mut cache).unwrap();
            cache
        };

        // A different model: other hyperparameters, or other rows.
        let mut other = base.clone();
        other.set_hyperparams(&[0.1, -0.9, -6.0]).unwrap();
        other.fit(&rows(0..20), &y[..20]).unwrap();
        check_cached(
            &other,
            &pool,
            &mut warm(&held, &pool),
            0,
            "other hyperparameters",
        );
        let shifted = fresh_fit(&base, &x, &y, 21);
        check_cached(&shifted, &pool, &mut warm(&held, &pool), 0, "other model");

        // The same rows refactored: equal bits, but a new factor.
        let mut refit = held.clone();
        refit.fit(&rows(0..20), &y[..20]).unwrap();
        check_cached(&refit, &pool, &mut warm(&held, &pool), 0, "refactored");

        // Clones grown by different rows share only their common rows.
        let (mut a, mut b) = (held.clone(), held.clone());
        let grow = |m: &mut GpModel, extra: usize| {
            let mut r: Vec<usize> = (0..20).collect();
            r.push(extra);
            let ys: Vec<f64> = r.iter().map(|&i| y[i]).collect();
            m.fit(&x.select_rows(&r), &ys).unwrap();
        };
        grow(&mut a, 20);
        grow(&mut b, 21);
        check_cached(&b, &pool, &mut warm(&a, &pool), 0, "diverged clone");
        check_cached(&b, &pool, &mut warm(&held, &pool), 20, "common ancestor");

        // Other candidate rows: one bit moved, an order swapped, a row
        // added; a removal keeps the cache.
        let mut nudged = pool.clone();
        nudged[(7, 2)] = f64::from_bits(nudged[(7, 2)].to_bits() + 1);
        check_cached(&held, &nudged, &mut warm(&held, &pool), 0, "nudged row");
        let swapped = x.select_rows(&[31, 30, 32]);
        check_cached(
            &held,
            &swapped,
            &mut warm(&held, &rows(30..33)),
            0,
            "swapped",
        );
        check_cached(
            &held,
            &rows(30..34),
            &mut warm(&held, &rows(30..33)),
            0,
            "added",
        );
        let thinned = x.select_rows(&[30, 33, 34, 45, 59]);
        check_cached(&held, &thinned, &mut warm(&held, &pool), 20, "removed");
        let empty = Matrix::zeros(0, 3);
        check_cached(&held, &empty, &mut warm(&held, &pool), 20, "all removed");
        check_cached(&held, &pool, &mut warm(&held, &empty), 0, "all new");

        // A rejected query leaves the cache as it was.
        let mut cache = warm(&held, &pool);
        let mut bad = pool.clone();
        bad[(3, 0)] = f64::NAN;
        assert_eq!(
            held.predict_cached(&bad, &mut cache),
            Err(GpError::NonFiniteQuery { row: 3 })
        );
        assert!(held
            .predict_cached(&rows(0..2).transpose(), &mut cache)
            .is_err());
        check_cached(&held, &pool, &mut cache, 20, "after rejections");
        cache.clear();
        check_cached(&held, &pool, &mut cache, 0, "cleared");
    }

    #[test]
    fn objective_gradient_matches_lml_gradient_bitwise() {
        // The objective reads each kernel value from the K_y it factored;
        // `lml_gradient` evaluates it afresh. Same bits, every kernel, at
        // several points, through one buffer refilled in place.
        let (x, y) = cube_data(70);
        let kinds = [
            KernelKind::Rbf,
            KernelKind::ArdRbf { dim: 3 },
            KernelKind::Matern32,
            KernelKind::Matern52,
            KernelKind::RationalQuadratic,
        ];
        let mut k = Matrix::zeros(70, 70);
        for kind in kinds {
            let mut model = GpModel::new(kind.build(0.5), 1e-3);
            let p0 = model.hyperparams();
            for shift in [0.0, -1.3, 0.7] {
                let p: Vec<f64> = p0
                    .iter()
                    .enumerate()
                    .map(|(i, v)| v + shift * (1.0 + 0.3 * i as f64))
                    .collect();
                let label = format!("{} shift={shift}", kind.label());
                let (lml, grad) = model.lml_at(&p, &x, &x.transpose(), &y, &mut k).unwrap();
                assert_eq!(bits(&model.hyperparams()), bits(&p), "{label}");
                assert_eq!(lml.to_bits(), model.lml().unwrap().to_bits(), "{label}");
                assert_eq!(bits(&grad), bits(&model.lml_gradient().unwrap()), "{label}");
                let mut fresh = model.clone();
                fresh.fitted = None;
                fresh.fit(&x, &y).unwrap();
                assert_fits_bitwise_equal(&model, &fresh, &label);
            }
        }
    }

    #[test]
    fn debug_format_mentions_kernel() {
        let m = toy_model();
        let s = format!("{m:?}");
        assert!(s.contains("RBF"));
    }
}
