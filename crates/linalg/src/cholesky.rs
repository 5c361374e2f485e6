//! Cholesky factorization of symmetric positive definite matrices.
//!
//! GPR spends essentially all of its time here: fitting factors the noisy
//! kernel matrix `K_y = K + σ_n² I`, prediction and the log marginal
//! likelihood (paper Eqs. 3 and 8) are triangular solves plus a
//! log-determinant read off the factor's diagonal.

// Hot path: every truncating `as` cast carries a checked reason.
#![warn(clippy::cast_possible_truncation)]

use crate::error::LinalgError;
use crate::matrix::Matrix;
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of [`Cholesky`] row ids: one process-wide counter, so no id is
/// ever handed out twice.
static NEXT_ROW_ID: AtomicU64 = AtomicU64::new(0);

fn fresh_row_id() -> u64 {
    NEXT_ROW_ID.fetch_add(1, Ordering::Relaxed)
}

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
///
/// # Examples
///
/// ```
/// use al_linalg::{Cholesky, Matrix};
///
/// let a = Matrix::from_vec(2, 2, vec![4.0, 1.0, 1.0, 3.0]);
/// let chol = Cholesky::new(&a).unwrap();
/// let x = chol.solve(&[1.0, 2.0]).unwrap();
/// // A·x reproduces the right-hand side.
/// let b = a.matvec(&x).unwrap();
/// assert!((b[0] - 1.0).abs() < 1e-12 && (b[1] - 2.0).abs() < 1e-12);
/// assert!((chol.log_det() - 11f64.ln()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
    /// Jitter that had to be added to the diagonal for the factorization to
    /// succeed (0.0 when the matrix was well conditioned as given).
    jitter: f64,
    /// `row_ids[i]` names the operation that wrote row `i` of `L`: a
    /// factorization gives all its rows one fresh id, each
    /// [`Cholesky::border`] or [`Cholesky::extend`] step its new row
    /// another. Clones share ids, and share the rows they name.
    row_ids: Vec<u64>,
}

impl Cholesky {
    /// Factor a symmetric positive definite matrix.
    ///
    /// Fails with [`LinalgError::NotPositiveDefinite`] when a pivot is not
    /// strictly positive. Use [`Cholesky::with_jitter`] for kernel matrices
    /// that may be numerically semi-definite.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        Self::factor(a, 0.0)
    }

    /// Factor `A + jitter·I`, escalating `jitter` by factors of 10 from
    /// `initial_jitter` up to `max_jitter` until the factorization succeeds.
    ///
    /// This mirrors what GP libraries do when the RBF kernel makes nearby
    /// points numerically identical. The jitter actually used is recorded in
    /// [`Cholesky::jitter`].
    pub fn with_jitter(
        a: &Matrix,
        initial_jitter: f64,
        max_jitter: f64,
    ) -> Result<Self, LinalgError> {
        if let Ok(c) = Self::factor(a, 0.0) {
            return Ok(c);
        }
        let mut jitter = initial_jitter.max(f64::MIN_POSITIVE);
        let mut last_err = LinalgError::NotPositiveDefinite {
            pivot: 0,
            value: 0.0,
        };
        while jitter <= max_jitter {
            match Self::factor(a, jitter) {
                Ok(c) => return Ok(c),
                Err(e) => last_err = e,
            }
            jitter *= 10.0;
        }
        Err(last_err)
    }

    /// Factor with the unblocked reference loop: the textbook left-looking
    /// loop, kept as the oracle of the bitwise-parity tests and as the
    /// body of the `cholesky_factor_naive` perf scenarios.
    pub fn new_reference(a: &Matrix) -> Result<Self, LinalgError> {
        Self::factor_reference(a, 0.0)
    }

    fn factor_reference(a: &Matrix, jitter: f64) -> Result<Self, LinalgError> {
        Self::check_input(a, jitter)?;
        let n = a.rows();
        let mut l = Matrix::square_with_room(n);
        for j in 0..n {
            // Diagonal pivot.
            let mut d = a[(j, j)] + jitter;
            for k in 0..j {
                let ljk = l[(j, k)];
                d -= ljk * ljk;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j, value: d });
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            // Column below the pivot.
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                // Rows i and j of L are contiguous; this inner product is
                // the hot loop of the whole factorization.
                let (ri, rj) = (i * n, j * n);
                let li = &l.as_slice()[ri..ri + j];
                let lj = &l.as_slice()[rj..rj + j];
                s -= crate::ops::dot(li, lj);
                l[(i, j)] = s / dj;
            }
        }
        Ok(Cholesky {
            row_ids: vec![fresh_row_id(); l.rows()],
            l,
            jitter,
        })
    }

    fn check_input(a: &Matrix, jitter: f64) -> Result<(), LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        // Non-finite entries would factor into NaN pivots and surface as a
        // misleading NotPositiveDefinite; catch the real cause in debug.
        debug_assert!(
            a.as_slice().iter().all(|v| v.is_finite()),
            "Cholesky input contains non-finite entries"
        );
        debug_assert!(
            jitter.is_finite() && jitter >= 0.0,
            "jitter must be finite and non-negative, got {jitter}"
        );
        Ok(())
    }

    /// Factor `A + jitter·I`: below [`TILED_MIN_N`] with the reference loop
    /// on the portable copy (one sequential dot per element, which AVX2
    /// cannot widen), else with [`Cholesky::factor_tiled`] through
    /// [`dispatch`]. Both give the same bits.
    fn factor(a: &Matrix, jitter: f64) -> Result<Self, LinalgError> {
        if a.rows() < TILED_MIN_N {
            return Self::factor_reference(a, jitter);
        }
        dispatch(Factor { a, jitter })
    }

    /// Register-tiled left-looking factorization, **bitwise identical** to
    /// [`Cholesky::new_reference`] (DESIGN §13). Each element keeps the
    /// reference loop's one accumulation sequence: a diagonal subtracts
    /// `L(j,k)²` term by term from `a(j,j) + jitter`; an off-diagonal folds
    /// `L(i,k)·L(j,k)` in ascending `k` from +0.0 (the reference dot folds
    /// from −0.0, the same bits unless `a(i,j)` is −0.0) and then computes
    /// `(a(i,j) − acc) / L(j,j)`. Columns go in blocks of `CB`; the rows
    /// below fold the block's packed history in `RT × CB` register tiles,
    /// then its columns run left to right over the in-block history.
    #[inline(always)]
    fn factor_tiled(a: &Matrix, jitter: f64) -> Result<Self, LinalgError> {
        Self::check_input(a, jitter)?;
        let n = a.rows();
        let ad = a.as_slice();
        let mut l = Matrix::square_with_room(n);
        let mut pack = vec![0.0f64; n * CB];
        // acc[i][jj] folds Σ_k L(i,k)·L(c0 + jj, k) for the current block.
        let mut acc = vec![[0.0f64; CB]; n];
        let mut c0 = 0;
        while c0 < n {
            let w = CB.min(n - c0);
            let ld = l.as_slice();
            // hist[k·CB + jj] = L(c0 + jj, k) for k < c0. In the last block,
            // lanes jj ≥ w keep stale values whose sums are never read.
            let hist = &mut pack[..c0 * CB];
            for jj in 0..w {
                for (p, &v) in hist.chunks_exact_mut(CB).zip(&ld[(c0 + jj) * n..][..c0]) {
                    p[jj] = v;
                }
            }
            let hist = &pack[..c0 * CB];
            // Diagonals subtract their history squares term by term.
            let mut dacc = [0.0f64; CB];
            for (jj, d) in dacc[..w].iter_mut().enumerate() {
                *d = ad[(c0 + jj) * (n + 1)] + jitter;
            }
            for p in hist.chunks_exact(CB) {
                for (d, v) in dacc.iter_mut().zip(p) {
                    *d -= v * v;
                }
            }
            let mut i = c0 + 1;
            while i + RT <= n {
                let rows = std::array::from_fn(|r| &ld[(i + r) * n..][..c0]);
                acc[i..i + RT].copy_from_slice(&fold_tile::<RT>(rows, hist));
                i += RT;
            }
            for (i, t) in acc.iter_mut().enumerate().skip(i) {
                *t = fold_tile::<1>([&ld[i * n..][..c0]], hist)[0];
            }

            let ld = l.as_mut_slice();
            for jj in 0..w {
                let j = c0 + jj;
                let lj: [f64; CB] =
                    std::array::from_fn(|k| if k < jj { ld[j * n + c0 + k] } else { 0.0 });
                let mut d = dacc[jj];
                for v in &lj[..jj] {
                    d -= v * v;
                }
                if d <= 0.0 || !d.is_finite() {
                    return Err(LinalgError::NotPositiveDefinite { pivot: j, value: d });
                }
                let dj = d.sqrt();
                ld[j * n + j] = dj;
                for i in (j + 1)..n {
                    let row = &mut ld[i * n + c0..][..=jj];
                    let mut s = acc[i][jj];
                    for (x, y) in row.iter().zip(&lj[..jj]) {
                        s += x * y;
                    }
                    row[jj] = (ad[i * n + j] - s) / dj;
                }
            }
            c0 += w;
        }
        Ok(Cholesky {
            row_ids: vec![fresh_row_id(); l.rows()],
            l,
            jitter,
        })
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Jitter added to the diagonal during factorization.
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// An identity of this factor's first `rows` rows, for caches of
    /// solves against them: two factors that return the same id for
    /// `rows` hold those rows bit for bit equal, whatever either did since.
    /// It is the id of row `rows − 1` (see `row_ids`); a row's id is
    /// fresh when the row is written, and rows are only ever appended
    /// after it. `None` when `rows` is 0 or exceeds [`Cholesky::dim`].
    pub fn prefix_id(&self, rows: usize) -> Option<u64> {
        self.row_ids.get(rows.checked_sub(1)?).copied()
    }

    /// Solve `L z = b` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "solve_lower",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let mut z = b.to_vec();
        for i in 0..n {
            let row = self.l.row(i);
            let s = crate::ops::dot(&row[..i], &z[..i]);
            z[i] = (z[i] - s) / row[i];
        }
        Ok(z)
    }

    /// Solve `L Z = B` in place for `w` right-hand sides stored row-major:
    /// `b[i·w + t]` holds element `i` of right-hand side `t`. Rows
    /// `..solved` of `b` must already hold `Z`'s rows, as an earlier call
    /// against a factor with the same leading rows left them; only rows
    /// `solved..` are computed, in `O(n·w)` per row. Pass 0 to solve all.
    ///
    /// **Bitwise identical** to [`Cholesky::solve_lower`] on each column
    /// (DESIGN §13): element `(i, t)` computes
    /// `z[i] = (b[i] − Σ_k L(i,k)·z[k]) / L(i,i)` with the sum folded in
    /// ascending `k` from −0.0, the start value of the `Iterator::sum`
    /// behind `ops::dot`. Each row of `B` is contiguous across `t`, so the
    /// fold vectorizes across the right-hand sides; they run in
    /// schedule-only tiles of `TB` so the accumulators live on the stack.
    /// Like [`Cholesky::inverse_upper_into`], it runs in an AVX2-compiled
    /// copy when the CPU has AVX2, with the same bits.
    pub fn solve_lower_multi(
        &self,
        b: &mut [f64],
        w: usize,
        solved: usize,
    ) -> Result<(), LinalgError> {
        let n = self.dim();
        if b.len() != n * w || solved > n {
            return Err(LinalgError::ShapeMismatch {
                op: "solve_lower_multi",
                lhs: (n, n),
                rhs: (b.len() / w.max(1), w),
            });
        }
        dispatch(SolveLowerMulti {
            ch: self,
            b,
            w,
            solved,
        });
        Ok(())
    }

    /// The body of [`Cholesky::solve_lower_multi`], shape already checked.
    #[inline(always)]
    fn solve_lower_multi_body(&self, b: &mut [f64], w: usize, solved: usize) {
        const TB: usize = 64;
        let n = self.dim();
        let ld = self.l.as_slice();
        let mut acc = [0.0f64; TB];
        let mut t0 = 0;
        while t0 < w {
            let t1 = (t0 + TB).min(w);
            let acc = &mut acc[..t1 - t0];
            for i in solved..n {
                acc.fill(-0.0);
                let (done, rest) = b.split_at_mut(i * w);
                fold_rows(acc, done, w, t0, 0..i, |k| ld[i * n + k]);
                let d = ld[i * n + i];
                for (z, s) in rest[t0..t1].iter_mut().zip(acc.iter()) {
                    *z = (*z - s) / d;
                }
            }
            t0 = t1;
        }
    }

    /// Solve `Lᵀ x = b` (backward substitution).
    ///
    /// `Lᵀ`'s rows are `L`'s columns, so the textbook loop walks `L` with
    /// stride `n` and misses cache on every term. This version processes
    /// rows in descending blocks and packs the below-block panel of `L`
    /// transposed via row-contiguous reads, so the long inner products run
    /// over contiguous memory. Each subtraction `s -= L(k,i)·x[k]` still
    /// happens in ascending `k` per row `i`, so the result is bitwise
    /// identical to the reference loop (pinned by a parity test).
    fn solve_upper(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "solve_upper",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        const SB: usize = 64;
        let ld = self.l.as_slice();
        let mut x = b.to_vec();
        let mut panel = vec![0.0f64; SB * n.saturating_sub(SB)];
        let nblocks = n.div_ceil(SB);
        for blk in (0..nblocks).rev() {
            let ib = blk * SB;
            let ie = (ib + SB).min(n);
            let tail = n - ie;
            // panel[(i − ib)·tail + (k − ie)] = L(k, i), filled by streaming
            // the below-block rows of L once, contiguously.
            for k in ie..n {
                let lrow = &ld[k * n + ib..k * n + ie];
                for (ii, &v) in lrow.iter().enumerate() {
                    panel[ii * tail + (k - ie)] = v;
                }
            }
            for i in (ib..ie).rev() {
                let mut s = x[i];
                // Within-block terms: a short column walk that stays in
                // cache (at most SB rows tall).
                for k in (i + 1)..ie {
                    s -= ld[k * n + i] * x[k];
                }
                // Below-block terms from the packed contiguous panel row.
                let prow = &panel[(i - ib) * tail..(i - ib) * tail + tail];
                for (pv, xv) in prow.iter().zip(&x[ie..]) {
                    s -= pv * xv;
                }
                x[i] = s / ld[i * n + i];
            }
        }
        Ok(x)
    }

    /// Solve the full system `A x = b` via the factor (`L Lᵀ x = b`).
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let z = self.solve_lower(b)?;
        self.solve_upper(&z)
    }

    /// `log |A| = 2 Σ log L_ii` — the model-complexity term of the paper's
    /// Eq. 8.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// The upper triangle of the explicit inverse `A⁻¹` (what the LML
    /// gradient reads of `K_y⁻¹` once per evaluation), written transposed
    /// into the lower triangle of the `n × n` matrix `out`:
    /// `out(j, i) = A⁻¹(i, j)` for every `j ≥ i`. Entries above the
    /// diagonal of `out` are left as they are, so one buffer can hold a
    /// symmetric `A` above its diagonal and what an LML gradient reads of
    /// `A⁻¹` on and below it, with no second `n × n` allocation.
    ///
    /// A multi-RHS solve `L Lᵀ X = I`, **bitwise identical** to solving
    /// `A x = e_j` column by column with [`Cholesky::solve`] (DESIGN §13):
    /// each element performs the per-column operations in their order —
    /// forward `z_j[i] = (e_j[i] − Σ_k L(i,k)·z_j[k]) / L(i,i)`, the sum
    /// folded from zero in ascending `k`; backward, in place,
    /// `x_j[i] = (z_j[i] − L(i+1,i)·x_j[i+1] − …) / L(i,i)`, term by term.
    /// The forward terms with `k < j` multiply structural zeros
    /// `z_j[k] = +0.0`, so a fold may skip them: with `L` finite they only
    /// flip the sign of an all-zero partial sum, which `e − (±0.0)` erases.
    ///
    /// Columns run in tiles of `IB = 16`, each solved in one packed
    /// `n × 16` buffer whose row `i` holds element `i` of the tile's
    /// columns. A row's 16 accumulators stay in registers across its whole
    /// `k` fold; the backward pass reads its coefficients `−L(k,i)` from
    /// `L` in place, with stride `n`. The finished tile's entries on and
    /// above the diagonal are copied into the output. When the CPU has
    /// AVX2 the folds run in a copy compiled for it; only `avx2` is
    /// enabled, never `fma`, so each lane performs the same IEEE
    /// operations and the bits do not move.
    pub fn inverse_upper_into(&self, out: &mut Matrix) -> Result<(), LinalgError> {
        let n = self.dim();
        if out.shape() != (n, n) {
            return Err(LinalgError::ShapeMismatch {
                op: "inverse_upper_into",
                lhs: (n, n),
                rhs: out.shape(),
            });
        }
        dispatch(InverseUpperInto {
            ch: self,
            out: out.as_mut_slice(),
        });
        Ok(())
    }

    /// The body of [`Cholesky::inverse_upper_into`]: entry `(i, j ≥ i)` of
    /// `A⁻¹` to `out[j·n + i]`.
    #[inline(always)]
    fn inverse_body(&self, out: &mut [f64]) {
        const IB: usize = 16;
        let n = self.dim();
        let ld = self.l.as_slice();
        let mut tile = vec![[0.0f64; IB]; n];
        let mut j0 = 0;
        while j0 < n {
            let w = IB.min(n - j0);
            // Rows above the tile are zero in its columns.
            tile[..j0].fill([0.0; IB]);
            // Forward pass, from row j0 down; lanes past the last column
            // solve for an all-zero right-hand side and are never copied.
            for i in j0..n {
                let (done, rest) = tile.split_at_mut(i);
                let mut acc = [0.0f64; IB];
                for (&c, z) in ld[i * n + j0..i * n + i].iter().zip(&done[j0..]) {
                    for t in 0..IB {
                        acc[t] += c * z[t];
                    }
                }
                let mut e = [0.0f64; IB];
                if let Some(diag) = e.get_mut(i - j0) {
                    *diag = 1.0;
                }
                let d = ld[i * n + i];
                let z = &mut rest[0];
                for t in 0..IB {
                    z[t] = (e[t] - acc[t]) / d;
                }
                // Columns j > i keep their +0.0 = (0 − +0.0) / L(i,i).
                if let Some(upper) = z.get_mut(i - j0 + 1..) {
                    upper.fill(0.0);
                }
            }
            // Backward pass, bottom row first. `s − l·x` is the IEEE
            // operation `s + (−l)·x`, so the fold subtracts term by term.
            for i in (0..n).rev() {
                let (head, below) = tile.split_at_mut(i + 1);
                let mut s = head[i];
                for (k, x) in (i + 1..n).zip(below.iter()) {
                    let c = -ld[k * n + i];
                    for t in 0..IB {
                        s[t] += c * x[t];
                    }
                }
                let d = ld[i * n + i];
                for t in 0..IB {
                    head[i][t] = s[t] / d;
                }
            }
            // Rows past the tile's last column hold no entry j ≥ i.
            for (i, src) in tile.iter().enumerate().take(j0 + w) {
                for (t, &x) in src[..w].iter().enumerate().skip(i.saturating_sub(j0)) {
                    out[(j0 + t) * n + i] = x;
                }
            }
            j0 += w;
        }
    }

    /// Reconstruct `L Lᵀ` (test helper; includes the jitter on the diagonal).
    pub fn reconstruct(&self) -> Result<Matrix, LinalgError> {
        let lt = self.l.transpose();
        self.l.matmul(&lt)
    }

    /// Extend the factorization of `A` to that of the bordered matrix
    /// `[[A, b], [bᵀ, c]]` in `O(n²)` — the incremental update that lets
    /// active learning grow its kernel matrix one acquired sample at a
    /// time instead of refactoring from scratch (`O(n³)`).
    ///
    /// The pivot is `c − dot(w, w)`, one folded sum subtracted once, so it
    /// is *not* bit-equal to a fresh factor of the bordered matrix, which
    /// subtracts `w_k²` term by term; [`Cholesky::border`] is.
    ///
    /// Fails with [`LinalgError::NotPositiveDefinite`] when the bordered
    /// matrix is not SPD (callers should fall back to a fresh
    /// [`Cholesky::with_jitter`] factorization).
    pub fn extend(&mut self, b: &[f64], c: f64) -> Result<(), LinalgError> {
        let w = self.border_row(b, "extend")?;
        let d2 = c - crate::ops::dot(&w, &w);
        self.push_row(&w, d2)
    }

    /// Grow this factor in place into that of the bordered matrix
    /// `[[A, b], [bᵀ, c]]` (plus this factor's jitter on the new
    /// diagonal) in `O(n²)`, **bit for bit** what a fresh factorization of
    /// it computes (DESIGN §13). The new row is `w = L⁻¹b` in
    /// [`Cholesky::solve_lower`]'s order, which is the reference loop's;
    /// the pivot is `c + jitter − w₀² − w₁² − …`, subtracted term by term
    /// as that loop does. When it fails, the factor is untouched, and a
    /// fresh factorization fails at the same pivot with the same value.
    pub fn border(&mut self, b: &[f64], c: f64) -> Result<(), LinalgError> {
        let w = self.border_row(b, "border")?;
        let mut d = c + self.jitter;
        for v in &w {
            d -= v * v;
        }
        self.push_row(&w, d)
    }

    /// `L⁻¹b` for a border column `b` of this factor's length.
    fn border_row(&self, b: &[f64], op: &'static str) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op,
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        self.solve_lower(b)
    }

    /// Grow `L` in place by the bottom row `[w, √d]`, when the pivot `d`
    /// is positive and finite; otherwise leave it as it is.
    fn push_row(&mut self, w: &[f64], d: f64) -> Result<(), LinalgError> {
        let n = self.dim();
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { pivot: n, value: d });
        }
        self.l.grow_square();
        let last = self.l.row_mut(n);
        last[..n].copy_from_slice(w);
        last[n] = d.sqrt();
        self.row_ids.push(fresh_row_id());
        Ok(())
    }
}

/// `acc[j] += coef(k) · rows[k·n + col + j]` for each `k` in `ks`, in
/// order: every element folds its terms one at a time in ascending `k`,
/// exactly as a sequential loop would. Four rows per sweep keep `acc` in
/// registers across their terms.
#[inline(always)]
fn fold_rows(
    acc: &mut [f64],
    rows: &[f64],
    n: usize,
    col: usize,
    ks: std::ops::Range<usize>,
    coef: impl Fn(usize) -> f64,
) {
    let w = acc.len();
    let row = |k: usize| &rows[k * n + col..k * n + col + w];
    let mut k = ks.start;
    while k + 4 <= ks.end {
        let (c0, c1, c2, c3) = (coef(k), coef(k + 1), coef(k + 2), coef(k + 3));
        let (r0, r1, r2, r3) = (row(k), row(k + 1), row(k + 2), row(k + 3));
        for j in 0..w {
            acc[j] = acc[j] + c0 * r0[j] + c1 * r1[j] + c2 * r2[j] + c3 * r3[j];
        }
        k += 4;
    }
    for k in k..ks.end {
        let c = coef(k);
        for (a, v) in acc.iter_mut().zip(row(k)) {
            *a += c * v;
        }
    }
}

/// Column-block width of [`Cholesky::factor_tiled`] and the row height
/// of its register tiles: schedule-only, any values give identical bits.
/// `RT × CB` accumulators fill eight AVX2 registers.
const CB: usize = 8;
const RT: usize = 4;

/// [`Cholesky::factor`] hands matrices smaller than this to the reference
/// loop, where the tiled one measured no faster (DESIGN §13).
const TILED_MIN_N: usize = 32;

/// `t[r][jj] = Σ_k rows[r][k] · hist[k·CB + jj]`, every sum folded from
/// +0.0 in ascending `k`.
#[inline(always)]
fn fold_tile<const R: usize>(rows: [&[f64]; R], hist: &[f64]) -> [[f64; CB]; R] {
    let mut t = [[0.0f64; CB]; R];
    for (k, p) in hist.chunks_exact(CB).enumerate() {
        for (tr, row) in t.iter_mut().zip(&rows) {
            let v = row[k];
            for (a, pv) in tr.iter_mut().zip(p) {
                *a += v * pv;
            }
        }
    }
    t
}

/// A loop body that [`dispatch`] compiles twice, once per copy.
///
/// The contract that keeps both copies bitwise identical and lets the AVX2
/// copy hold the whole loop:
///
/// - `run` is `#[inline(always)]`, and so is every helper its body calls,
///   so each copy inlines the full loop instead of calling one shared,
///   portably compiled function.
/// - The body never calls `f64::mul_add` (nor anything else that fuses a
///   multiply and an add): [`dispatch`] enables only `avx2`, never `fma`,
///   and the bits rely on every multiply and add rounding separately.
/// - The body takes no closure and reads no thread-local. A closure passed
///   to a non-inlined function (`LocalKey::with` is one) is compiled once,
///   portably, outside the AVX2 copy. Buffers a fold needs are fields of
///   the fold, borrowed from the caller.
pub trait DenseFold {
    /// What the fold returns.
    type Output;

    /// The loop itself. Implementations mark it `#[inline(always)]`.
    fn run(self) -> Self::Output;
}

/// [`Cholesky::factor_tiled`].
#[derive(Clone, Copy)]
struct Factor<'a> {
    a: &'a Matrix,
    jitter: f64,
}

impl DenseFold for Factor<'_> {
    type Output = Result<Cholesky, LinalgError>;
    #[inline(always)]
    fn run(self) -> Self::Output {
        Cholesky::factor_tiled(self.a, self.jitter)
    }
}

/// [`Cholesky::inverse_upper_into`].
struct InverseUpperInto<'a> {
    ch: &'a Cholesky,
    out: &'a mut [f64],
}

impl DenseFold for InverseUpperInto<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        self.ch.inverse_body(self.out);
    }
}

/// [`Cholesky::solve_lower_multi_body`].
struct SolveLowerMulti<'a> {
    ch: &'a Cholesky,
    b: &'a mut [f64],
    w: usize,
    solved: usize,
}

impl DenseFold for SolveLowerMulti<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        self.ch.solve_lower_multi_body(self.b, self.w, self.solved);
    }
}

/// Run `fold` in a copy compiled with AVX2 enabled when the CPU has AVX2,
/// else in the portable copy; other targets and Miri always run the
/// portable one. Both copies come from the same `#[inline(always)]` body.
///
/// Users: the tiled factor behind [`Cholesky::new`],
/// [`Cholesky::inverse_upper_into`], [`Cholesky::solve_lower_multi`],
/// [`crate::ops::sq_dists_into`], and the AMR solver's MUSCL–HLLC line
/// sweep (`al-amr-sim`'s `Patch::sweep_x` and `sweep_y`).
///
/// Why the bits cannot move: only `avx2` is enabled, never `fma`, and the
/// bodies never call `mul_add`. Rust never contracts `a + b·c` into a fused
/// multiply-add, so each lane of a wide AVX2 op performs the same IEEE
/// multiply, add, subtract, divide or square root, in the same order, as
/// the portable copy's narrower SSE2 op or scalar op does. Comparisons,
/// selects and `f64::max`/`min` are exact in every width.
#[allow(unsafe_code)]
#[inline]
pub fn dispatch<F: DenseFold>(fold: F) -> F::Output {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        #[target_feature(enable = "avx2")]
        fn avx2<F: DenseFold>(fold: F) -> F::Output {
            fold.run()
        }
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: `avx2` only requires the AVX2 target feature, and
            // `is_x86_feature_detected!` just confirmed this CPU has it.
            return unsafe { avx2(fold) };
        }
    }
    fold.run()
}

/// Whether [`dispatch`] runs the AVX2 copy here. Where it does not (no
/// AVX2 on this CPU, another target, or Miri, which always runs the
/// portable copy), tests that compare both copies check the portable
/// copy only.
pub fn avx2_copy_runs() -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    return std::is_x86_feature_detected!("avx2");
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = B Bᵀ + I for a fixed B is SPD by construction.
        Matrix::from_vec(3, 3, vec![5.0, 2.0, 1.0, 2.0, 6.0, 2.0, 1.0, 2.0, 4.0])
    }

    #[test]
    fn factor_reconstructs_input() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let r = ch.reconstruct().unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((r[(i, j)] - a[(i, j)]).abs() < 1e-12, "entry ({i},{j})");
            }
        }
        assert_eq!(ch.jitter(), 0.0);
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd3();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let ch = Cholesky::new(&a).unwrap();
        let x = ch.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn inverse_times_input_is_identity() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        // The lower triangle holds A⁻¹'s upper one; mirror it up.
        let mut inv = Matrix::zeros(3, 3);
        ch.inverse_upper_into(&mut inv).unwrap();
        for i in 0..3 {
            for j in i + 1..3 {
                inv[(i, j)] = inv[(j, i)];
            }
        }
        let prod = a.matmul(&inv).unwrap();
        let eye = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert!((prod[(i, j)] - eye[(i, j)]).abs() < 1e-10);
            }
        }
        let mut empty = Matrix::zeros(0, 0);
        Cholesky::new(&empty.clone())
            .unwrap()
            .inverse_upper_into(&mut empty)
            .unwrap();
    }

    #[test]
    fn log_det_matches_2x2_formula() {
        let a = Matrix::from_vec(2, 2, vec![4.0, 1.0, 1.0, 3.0]);
        let ch = Cholesky::new(&a).unwrap();
        let det = 4.0 * 3.0 - 1.0;
        assert!((ch.log_det() - f64::ln(det)).abs() < 1e-12);
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn jitter_rescues_semidefinite_matrix() {
        // Rank-1: ones * onesᵀ, singular, needs jitter.
        let a = Matrix::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        let ch = Cholesky::with_jitter(&a, 1e-10, 1e-2).unwrap();
        assert!(ch.jitter() > 0.0);
        // Reconstruction equals A + jitter·I.
        let r = ch.reconstruct().unwrap();
        assert!((r[(0, 0)] - (1.0 + ch.jitter())).abs() < 1e-9);
        assert!((r[(0, 1)] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn jitter_gives_up_past_max() {
        let a = Matrix::from_vec(2, 2, vec![-1.0, 0.0, 0.0, -1.0]);
        assert!(Cholesky::with_jitter(&a, 1e-10, 1e-6).is_err());
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let ch = Cholesky::new(&spd3()).unwrap();
        assert!(ch.solve(&[1.0]).is_err());
        assert!(ch.solve_lower(&[1.0]).is_err());
        assert!(ch.solve_upper(&[1.0]).is_err());
    }

    #[test]
    fn extend_matches_fresh_factorization() {
        let a = spd3();
        // Bordered matrix: append column b and diagonal c keeping SPD.
        let b = vec![0.5, -0.3, 0.8];
        let c = 7.0;
        let mut bordered = Matrix::zeros(4, 4);
        for i in 0..3 {
            for j in 0..3 {
                bordered[(i, j)] = a[(i, j)];
            }
            bordered[(i, 3)] = b[i];
            bordered[(3, i)] = b[i];
        }
        bordered[(3, 3)] = c;

        let mut incremental = Cholesky::new(&a).unwrap();
        incremental.extend(&b, c).unwrap();
        let fresh = Cholesky::new(&bordered).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                assert!(
                    (incremental.l()[(i, j)] - fresh.l()[(i, j)]).abs() < 1e-12,
                    "L({i},{j})"
                );
            }
        }
        assert!((incremental.log_det() - fresh.log_det()).abs() < 1e-12);
        // Solves agree too.
        let rhs = vec![1.0, 2.0, 3.0, 4.0];
        let xi = incremental.solve(&rhs).unwrap();
        let xf = fresh.solve(&rhs).unwrap();
        for (a, b) in xi.iter().zip(&xf) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn extend_rejects_non_spd_border() {
        let a = spd3();
        let mut ch = Cholesky::new(&a).unwrap();
        // c too small: bordered matrix loses positive definiteness.
        assert!(matches!(
            ch.extend(&[10.0, 10.0, 10.0], 1.0),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        // Wrong border length.
        let mut ch = Cholesky::new(&a).unwrap();
        assert!(matches!(
            ch.extend(&[1.0], 5.0),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn repeated_extension_grows_from_scalar() {
        // Build a 3x3 SPD factor one row at a time from a 1x1 seed.
        let a = spd3();
        let mut ch = Cholesky::new(&Matrix::from_vec(1, 1, vec![a[(0, 0)]])).unwrap();
        ch.extend(&[a[(0, 1)]], a[(1, 1)]).unwrap();
        ch.extend(&[a[(0, 2)], a[(1, 2)]], a[(2, 2)]).unwrap();
        let fresh = Cholesky::new(&a).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((ch.l()[(i, j)] - fresh.l()[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn lower_and_upper_solves_are_consistent() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let b = vec![0.5, 1.5, -1.0];
        let z = ch.solve_lower(&b).unwrap();
        // L z should reproduce b.
        let lz = ch.l().matvec(&z).unwrap();
        for (got, want) in lz.iter().zip(&b) {
            assert!((got - want).abs() < 1e-12);
        }
        let x = ch.solve_upper(&b).unwrap();
        let ltx = ch.l().transpose().matvec(&x).unwrap();
        for (got, want) in ltx.iter().zip(&b) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    /// Deterministic dense SPD matrix: `B Bᵀ + n·I` for a sin-sequence `B`.
    fn spd_random(n: usize, seed: u64) -> Matrix {
        let data: Vec<f64> = (0..n * n)
            .map(|i| ((i as f64) * 0.37 + seed as f64 * 1.7).sin())
            .collect();
        let b = Matrix::from_vec(n, n, data);
        let mut a = b.matmul(&b.transpose()).unwrap();
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn solve_upper_matches_reference_bitwise() {
        // The pre-blocking backward substitution, verbatim.
        fn solve_upper_reference(ch: &Cholesky, b: &[f64]) -> Vec<f64> {
            let n = ch.dim();
            let mut x = b.to_vec();
            for i in (0..n).rev() {
                let mut s = x[i];
                for (k, &xk) in x.iter().enumerate().skip(i + 1) {
                    s -= ch.l()[(k, i)] * xk;
                }
                x[i] = s / ch.l()[(i, i)];
            }
            x
        }
        for &n in &[1usize, 5, 63, 64, 65, 130, 200] {
            let a = spd_random(n, 11 + n as u64);
            let ch = Cholesky::new(&a).unwrap();
            let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.9 - 1.0).cos()).collect();
            let fast = ch.solve_upper(&b).unwrap();
            let slow = solve_upper_reference(&ch, &b);
            for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
                assert_eq!(f.to_bits(), s.to_bits(), "x[{i}] diverges at n={n}");
            }
        }
    }

    /// The pre-tiling inverse, verbatim: solve `A x = e_j` column by column.
    fn inverse_reference(ch: &Cholesky) -> Matrix {
        let n = ch.dim();
        let eye = Matrix::identity(n);
        let mut out = Matrix::zeros(n, n);
        for j in 0..n {
            let x = ch.solve(&eye.col(j)).unwrap();
            for i in 0..n {
                out[(i, j)] = x[i];
            }
        }
        out
    }

    /// The portable copy of `fold` and, when it runs here, the AVX2 copy
    /// (see [`avx2_copy_runs`]), with a label for each.
    fn both_copies<F: DenseFold + Copy>(fold: F) -> Vec<(&'static str, F::Output)> {
        let mut out = vec![("portable", fold.run())];
        if avx2_copy_runs() {
            out.push(("avx2", dispatch(fold)));
        }
        out
    }

    fn assert_bits_equal(got: &[f64], want: &[f64], cols: usize, label: &str) {
        assert_eq!(got.len(), want.len(), "{label}");
        for (e, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{label}: ({}, {}) diverges: {g} vs {w}",
                e / cols.max(1),
                e % cols.max(1),
            );
        }
    }

    /// `inverse_upper_into` through the public entry (the AVX2 copy where
    /// it runs) and the portable copy, into a buffer whose strict upper
    /// triangle (a marker here) must survive, bit for bit the oracle's
    /// upper triangle transposed.
    fn assert_inverse_matches_reference(ch: &Cholesky, label: &str) {
        let slow = inverse_reference(ch);
        let n = ch.dim();
        let marker = |i: usize, j: usize| -((i * n + j) as f64) - 0.5;
        let mut want = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                want[(i, j)] = if j > i { marker(i, j) } else { slow[(j, i)] };
            }
        }
        let fresh = || {
            let mut m = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    m[(i, j)] = marker(i, j);
                }
            }
            m
        };
        let mut public = fresh();
        ch.inverse_upper_into(&mut public).unwrap();
        assert_bits_equal(public.as_slice(), want.as_slice(), n, label);
        let mut portable = fresh();
        InverseUpperInto {
            ch,
            out: portable.as_mut_slice(),
        }
        .run();
        let label = format!("{label} portable");
        assert_bits_equal(portable.as_slice(), want.as_slice(), n, &label);
    }

    /// Symmetric, strictly diagonally dominant (hence SPD) matrix with
    /// mixed-sign off-diagonals, built in O(n²) so the size sweep stays
    /// cheap in debug builds.
    fn spd_dominant(n: usize) -> Matrix {
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = n as f64 + 1.0;
            for j in 0..i {
                let v = ((i * 31 + j * 17) as f64 * 0.37).sin();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        a
    }

    /// RBF gram `exp(−(x_i − x_j)² / 2ℓ²)` over `pts` plus `nugget` on
    /// the diagonal.
    fn rbf_gram(pts: &[f64], length: f64, nugget: f64) -> Matrix {
        let n = pts.len();
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let d = (pts[i] - pts[j]) / length;
                a[(i, j)] = (-0.5 * d * d).exp();
            }
            a[(i, i)] += nugget;
        }
        a
    }

    #[test]
    fn inverse_matches_reference_bitwise_across_sizes() {
        // Every size up to 200, plus sizes past any tile boundary; Miri
        // interprets every op, so it sweeps only the small sizes.
        let sizes: Vec<usize> = if cfg!(miri) {
            (1..=24).collect()
        } else {
            (1..=200).chain([250, 257]).collect()
        };
        for n in sizes {
            let ch = Cholesky::new(&spd_dominant(n)).unwrap();
            assert_inverse_matches_reference(&ch, &format!("n={n}"));
        }
    }

    #[test]
    fn inverse_matches_reference_bitwise_with_subnormal_entries() {
        // Subnormal off-diagonals put subnormal entries in L, and their
        // products with the tile's values underflow to ±0 or lose bits.
        let n = if cfg!(miri) { 20 } else { 130 };
        let mut a = spd_dominant(n);
        for i in 0..n {
            for j in 0..i {
                if (i + 2 * j) % 5 == 0 {
                    let v = if (i + j) % 2 == 0 { 3e-310 } else { -1e-320 };
                    a[(i, j)] = v;
                    a[(j, i)] = v;
                }
            }
        }
        let ch = Cholesky::new(&a).unwrap();
        let subnormal = ch
            .l()
            .as_slice()
            .iter()
            .filter(|v| v.is_subnormal())
            .count();
        assert!(subnormal > 0, "L holds subnormal entries");
        assert_inverse_matches_reference(&ch, "subnormal");
    }

    /// The factor of `a` through `Cholesky::factor` and, at every size,
    /// through the tiled loop's portable and (when it runs here) AVX2
    /// copies, each checked `to_bits` against the reference loop: the same
    /// factor, or the same failing pivot with the same value.
    fn assert_factor_paths_match_reference(a: &Matrix, jitter: f64, label: &str) {
        let reference = Cholesky::factor_reference(a, jitter);
        let mut got = vec![("new", Cholesky::factor(a, jitter))];
        got.extend(both_copies(Factor { a, jitter }));
        for (copy, result) in got {
            match (&result, &reference) {
                (Ok(c), Ok(r)) => {
                    assert_eq!(c.jitter().to_bits(), r.jitter().to_bits());
                    assert_bits_equal(c.l().as_slice(), r.l().as_slice(), r.dim(), label);
                }
                (
                    Err(LinalgError::NotPositiveDefinite { pivot, value }),
                    Err(LinalgError::NotPositiveDefinite {
                        pivot: pr,
                        value: vr,
                    }),
                ) => assert_eq!(
                    (pivot, value.to_bits()),
                    (pr, vr.to_bits()),
                    "{label} {copy}"
                ),
                other => panic!("{label} {copy}: {other:?}"),
            }
        }
    }

    #[test]
    fn tiled_factor_matches_reference_bitwise_across_sizes() {
        // Every size up to 200 plus sizes past several column blocks; the
        // tiled loop runs at each one, below the reference crossover too.
        // Miri's sizes cross the CB = 8 block and RT = 4 row-tile edges.
        let sizes: Vec<usize> = if cfg!(miri) {
            vec![1, 7, 8, 9, 12, 13, 17, 24]
        } else {
            (1..=200).chain([250, 257, 400]).collect()
        };
        for n in sizes {
            assert_factor_paths_match_reference(&spd_dominant(n), 0.0, &format!("n={n}"));
        }
        // Kernel-like inputs: an RBF gram and a dense sin-sequence Gram.
        let sizes: &[usize] = if cfg!(miri) {
            &[13]
        } else {
            &[33, 64, 129, 257]
        };
        for &n in sizes {
            let pts: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.618).fract() * 4.0).collect();
            assert_factor_paths_match_reference(
                &rbf_gram(&pts, 0.7, 1e-6),
                0.0,
                &format!("rbf n={n}"),
            );
            assert_factor_paths_match_reference(
                &spd_random(n, 7 + n as u64),
                0.0,
                &format!("gram n={n}"),
            );
        }
    }

    #[test]
    fn tiled_factor_with_jitter_matches_reference_bitwise() {
        // Rank-5 Gram matrix: singular, so with_jitter must escalate.
        let n = if cfg!(miri) { 12 } else { 90 };
        let data: Vec<f64> = (0..n * 5)
            .map(|i| ((i as f64) * 0.43 + 0.2).sin())
            .collect();
        let b = Matrix::from_vec(n, 5, data);
        let a = b.matmul(&b.transpose()).unwrap();
        let jittered = Cholesky::with_jitter(&a, 1e-10, 1e-2).unwrap();
        assert!(jittered.jitter() > 0.0);
        assert_factor_paths_match_reference(&a, jittered.jitter(), "jittered");
        // Without jitter the same input fails: same pivot, same value.
        assert_factor_paths_match_reference(&a, 0.0, "singular");
    }

    #[test]
    fn tiled_factor_error_matches_reference_bitwise() {
        // Break definiteness at the first pivot, on both sides of a block
        // edge, and past several blocks of history.
        let (n, pivots): (usize, &[usize]) = if cfg!(miri) {
            (17, &[0, 7, 8, 13])
        } else {
            (130, &[0, 7, 8, 97])
        };
        for &p in pivots {
            let mut a = spd_random(n, 3);
            a[(p, p)] = -500.0;
            assert_factor_paths_match_reference(&a, 0.0, &format!("pivot {p}"));
        }
    }

    /// The leading `n × n` block of `a`.
    fn leading(a: &Matrix, n: usize) -> Matrix {
        let mut block = Matrix::zeros(n, n);
        for i in 0..n {
            block.row_mut(i).copy_from_slice(&a.row(i)[..n]);
        }
        block
    }

    #[test]
    fn border_matches_fresh_factor_bitwise() {
        // Held factors on both sides of the reference/tiled crossover,
        // each bordered once and compared with a fresh factor of the
        // bordered matrix, whichever loop that takes.
        let sizes: Vec<usize> = if cfg!(miri) {
            (1..=12).collect()
        } else {
            (1..=200).chain([250, 257]).collect()
        };
        for n in sizes {
            let pts: Vec<f64> = (0..=n)
                .map(|i| ((i as f64) * 0.618).fract() * 4.0)
                .collect();
            let a = rbf_gram(&pts, 0.7, 1e-6);
            let b: Vec<f64> = (0..n).map(|i| a[(n, i)]).collect();
            let mut bordered = Cholesky::new(&leading(&a, n)).unwrap();
            bordered.border(&b, a[(n, n)]).unwrap();
            let fresh = Cholesky::new(&a).unwrap();
            assert_bits_equal(
                bordered.l().as_slice(),
                fresh.l().as_slice(),
                n + 1,
                &format!("n={n}"),
            );
        }
    }

    #[test]
    fn border_keeps_jitter_and_fails_like_a_fresh_factor() {
        let n = if cfg!(miri) { 9 } else { 70 };
        let a = spd_random(n + 1, 5);
        let b: Vec<f64> = (0..n).map(|i| a[(n, i)]).collect();
        // A jittered factor borders into the jittered fresh factor.
        let mut bordered = Cholesky::factor_reference(&leading(&a, n), 1e-3).unwrap();
        bordered.border(&b, a[(n, n)]).unwrap();
        let fresh = Cholesky::factor_reference(&a, 1e-3).unwrap();
        assert_eq!(bordered.jitter(), 1e-3);
        assert_bits_equal(
            bordered.l().as_slice(),
            fresh.l().as_slice(),
            n + 1,
            "jittered",
        );
        // A corner too small for definiteness: the fresh factor's pivot
        // and value, and the held factor untouched.
        let mut bad = a.clone();
        bad[(n, n)] = -1.0;
        let mut held = Cholesky::new(&leading(&a, n)).unwrap();
        let before = held.l().as_slice().to_vec();
        match (held.border(&b, -1.0), Cholesky::new(&bad)) {
            (
                Err(LinalgError::NotPositiveDefinite { pivot, value }),
                Err(LinalgError::NotPositiveDefinite {
                    pivot: pr,
                    value: vr,
                }),
            ) => assert_eq!((pivot, value.to_bits()), (pr, vr.to_bits())),
            other => panic!("expected matching NotPositiveDefinite errors, got {other:?}"),
        }
        assert!(matches!(
            held.border(&[1.0], 5.0),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        assert_bits_equal(held.l().as_slice(), &before, n, "failed border");
        assert_eq!(held.dim(), n);
    }

    #[test]
    fn inverse_matches_reference_bitwise_after_jitter() {
        // Near-duplicate points make the gram numerically singular.
        let n = if cfg!(miri) { 12 } else { 90 };
        let pts: Vec<f64> = (0..n)
            .map(|i| (i / 2) as f64 * 0.05 + (i % 2) as f64 * 1e-13)
            .collect();
        let ch = Cholesky::with_jitter(&rbf_gram(&pts, 1.0, 0.0), 1e-10, 1e-2).unwrap();
        assert!(ch.jitter() > 0.0, "the factor needed jitter");
        assert_inverse_matches_reference(&ch, "jittered");
    }

    #[test]
    fn inverse_matches_reference_bitwise_when_ill_conditioned() {
        // Long length scale over a dense grid with a tiny nugget: the
        // condition number is near 1/nugget.
        let n = if cfg!(miri) { 16 } else { 120 };
        let pts: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let ch = Cholesky::with_jitter(&rbf_gram(&pts, 0.5, 1e-9), 1e-10, 1e-2).unwrap();
        let mut inv = Matrix::zeros(n, n);
        ch.inverse_upper_into(&mut inv).unwrap();
        let max = inv.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(max > 1e6, "inverse entries reach {max}");
        assert_inverse_matches_reference(&ch, "ill-conditioned");
    }

    /// `w` right-hand sides, row-major, mixing ordinary values with +0.0,
    /// −0.0 and subnormals (whose products underflow to zero); column 1
    /// is all −0.0 and column 2 all +0.0 when present.
    fn mixed_rhs(n: usize, w: usize) -> Vec<f64> {
        (0..n * w)
            .map(|e| {
                let (i, t) = (e / w, e % w);
                match (t, (i * 7 + t * 3) % 9) {
                    (1, _) => -0.0,
                    (2, _) => 0.0,
                    (_, 0) => 0.0,
                    (_, 1) => -0.0,
                    (_, 2) => 3e-310,
                    (_, 3) => -1e-320,
                    _ => ((e as f64) * 0.61 + 0.3).sin(),
                }
            })
            .collect()
    }

    /// `solve_lower_multi` through its public entry, its portable copy and
    /// (when it runs here) its AVX2 copy, each against `solve_lower` column
    /// by column: from scratch, and resumed after rows already solved.
    fn assert_multi_matches_columns(ch: &Cholesky, b: &[f64], w: usize, label: &str) {
        let n = ch.dim();
        let mut want = vec![0.0; n * w];
        for t in 0..w {
            let col: Vec<f64> = (0..n).map(|i| b[i * w + t]).collect();
            for (i, v) in ch.solve_lower(&col).unwrap().into_iter().enumerate() {
                want[i * w + t] = v;
            }
        }
        // `b` with its first `solved` rows replaced by the solution's.
        let resumed = |solved: usize| {
            let mut r = b.to_vec();
            r[..solved * w].copy_from_slice(&want[..solved * w]);
            r
        };
        for solved in [0, n / 3, n - 1, n] {
            let mut public = resumed(solved);
            ch.solve_lower_multi(&mut public, w, solved).unwrap();
            assert_bits_equal(&public, &want, w, &format!("{label}, w={w} from {solved}"));
        }
        for solved in [0, n / 2] {
            let at = format!("{label}, w={w} from {solved}");
            let mut portable = resumed(solved);
            SolveLowerMulti {
                ch,
                b: &mut portable,
                w,
                solved,
            }
            .run();
            assert_bits_equal(&portable, &want, w, &format!("{at} portable"));
            if avx2_copy_runs() {
                let mut wide = resumed(solved);
                dispatch(SolveLowerMulti {
                    ch,
                    b: &mut wide,
                    w,
                    solved,
                });
                assert_bits_equal(&wide, &want, w, &format!("{at} avx2"));
            }
        }
    }

    #[test]
    fn solve_lower_multi_matches_per_column_solve_bitwise() {
        // Every size up to 130 plus sizes past the 64-wide tile and the
        // four-row sweep; Miri interprets every op, so it stops at 24.
        let sizes: Vec<usize> = if cfg!(miri) {
            (1..=24).collect()
        } else {
            (1..=130).chain([250, 257]).collect()
        };
        for n in sizes {
            let ch = Cholesky::new(&spd_dominant(n)).unwrap();
            for w in [1usize, 3, 64] {
                assert_multi_matches_columns(&ch, &mixed_rhs(n, w), w, &format!("n={n}"));
            }
        }
    }

    #[test]
    fn solve_lower_multi_matches_per_column_solve_across_tile_widths() {
        // Right-hand-side counts on both sides of the TB = 64 tile and of
        // its second multiple.
        let n = if cfg!(miri) { 9 } else { 70 };
        let ch = Cholesky::new(&spd_dominant(n)).unwrap();
        let widths: &[usize] = if cfg!(miri) {
            &[1, 2, 5]
        } else {
            &[1, 2, 5, 63, 64, 65, 127, 128, 129, 200]
        };
        for &w in widths {
            assert_multi_matches_columns(&ch, &mixed_rhs(n, w), w, &format!("n={n}"));
        }
    }

    #[test]
    fn solve_lower_multi_matches_per_column_solve_after_jitter() {
        let n = if cfg!(miri) { 12 } else { 90 };
        let pts: Vec<f64> = (0..n)
            .map(|i| (i / 2) as f64 * 0.05 + (i % 2) as f64 * 1e-13)
            .collect();
        let ch = Cholesky::with_jitter(&rbf_gram(&pts, 1.0, 0.0), 1e-10, 1e-2).unwrap();
        assert!(ch.jitter() > 0.0, "the factor needed jitter");
        for w in [1usize, 3, 64, 65] {
            assert_multi_matches_columns(&ch, &mixed_rhs(n, w), w, "jittered");
        }
    }

    #[test]
    fn solve_lower_multi_rejects_wrong_length_and_accepts_no_columns() {
        let ch = Cholesky::new(&spd3()).unwrap();
        assert!(matches!(
            ch.solve_lower_multi(&mut [1.0; 5], 2, 0),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        ch.solve_lower_multi(&mut [], 0, 0).unwrap();
        assert!(matches!(
            ch.solve_lower_multi(&mut [1.0; 6], 2, 4),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn inverse_upper_into_rejects_a_wrong_shape() {
        let ch = Cholesky::new(&spd3()).unwrap();
        for (r, c) in [(2, 2), (3, 2), (4, 4)] {
            assert!(matches!(
                ch.inverse_upper_into(&mut Matrix::zeros(r, c)),
                Err(LinalgError::ShapeMismatch { .. })
            ));
        }
    }

    #[test]
    fn prefix_ids_name_bitwise_equal_leading_rows() {
        let a = spd_dominant(6);
        let held = Cholesky::new(&leading(&a, 4)).unwrap();
        let col = |r: usize| (0..r).map(|i| a[(i, r)]).collect::<Vec<f64>>();
        assert_eq!(held.prefix_id(0), None);
        assert_eq!(held.prefix_id(5), None);
        // One factorization names all its rows alike.
        let id = held.prefix_id(4).unwrap();
        assert!((1..=4).all(|r| held.prefix_id(r) == Some(id)));
        // A refactorization of the same matrix is a different factor.
        let again = Cholesky::new(&leading(&a, 4)).unwrap();
        assert_ne!(again.prefix_id(4), Some(id));
        // Growth keeps the leading rows' ids and names the new row afresh.
        let mut grown = held.clone();
        grown.border(&col(4), a[(4, 4)]).unwrap();
        assert_eq!(grown.prefix_id(4), Some(id));
        let row4 = grown.prefix_id(5).unwrap();
        assert_ne!(row4, id);
        let mut extended = held.clone();
        extended.extend(&col(4), a[(4, 4)]).unwrap();
        assert_eq!(extended.prefix_id(4), Some(id));
        // Two clones grown by the same row still differ in that row's id:
        // the id names the operation, not the values.
        assert_ne!(extended.prefix_id(5), Some(row4));
        let mut twice = grown.clone();
        twice.border(&col(5), a[(5, 5)]).unwrap();
        assert_eq!(twice.prefix_id(5), Some(row4));
        assert_eq!(twice.prefix_id(4), Some(id));
    }
}
