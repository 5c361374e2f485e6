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

    /// Factor with the unblocked reference loop.
    ///
    /// This is the original textbook left-looking implementation. It is
    /// kept (a) as the oracle for the bitwise-parity tests pinning the
    /// blocked [`Cholesky::new`] path and (b) as the baseline body of the
    /// `cholesky_factor_naive` perf scenarios, so the committed BENCH
    /// trajectory can show the blocked/naive ratio on every machine.
    pub fn new_reference(a: &Matrix) -> Result<Self, LinalgError> {
        Self::factor_reference(a, 0.0)
    }

    fn factor_reference(a: &Matrix, jitter: f64) -> Result<Self, LinalgError> {
        Self::check_input(a, jitter)?;
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
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
        Ok(Cholesky { l, jitter })
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

    /// Factor `A + jitter·I`. Small matrices fit in cache whole and the
    /// session hot path factors them by the hundreds; the panel buffers
    /// would cost more than the O(n³) work, so `n ≤ NB` takes the
    /// reference loop (same bits either way: the parity tests cover both
    /// loops at those sizes). That loop stays on the portable copy: each
    /// element is one sequential dot product, which AVX2 cannot widen, and
    /// its AVX2 copy measured 10–20% slower at n = 20…60. Larger matrices
    /// run [`Cholesky::factor_blocked`] through [`dispatch`].
    fn factor(a: &Matrix, jitter: f64) -> Result<Self, LinalgError> {
        if a.rows() <= NB {
            return Self::factor_reference(a, jitter);
        }
        dispatch(Factor { a, jitter })
    }

    /// Cache-tiled, panel-packed left-looking factorization, **bitwise
    /// identical** to [`Cholesky::new_reference`] (DESIGN §13).
    ///
    /// Why tiling is legal here: in the reference loop every element owns
    /// exactly one accumulator — the diagonal starts at `a(j,j) + jitter`
    /// and subtracts `L(j,k)²` term by term in ascending `k`; an
    /// off-diagonal subtracts one sequential ascending-`k` dot product
    /// (itself a fold from −0.0) from `a(i,j)` in a single operation. The
    /// blocked code keeps those exact accumulation sequences — panel `acc`
    /// slots receive products in ascending `k` across panel boundaries,
    /// diagonals subtract term by term — and only regroups *which loop
    /// iteration* performs each add, never the adds themselves. The slots
    /// start at +0.0 rather than −0.0, which changes a sum only when every
    /// term is zero; subtracting it from `a(i,j)` then gives the same bits
    /// unless `a(i,j)` is −0.0. What it buys: the panel of already-final
    /// columns is packed transposed so the inner kernel is a contiguous
    /// vectorizable multi-accumulator AXPY instead of a strided
    /// latency-bound chain, and each `L` row is streamed once per
    /// (column-panel, k-panel) pair instead of once per column.
    #[inline(always)]
    fn factor_blocked(a: &Matrix, jitter: f64) -> Result<Self, LinalgError> {
        Self::check_input(a, jitter)?;
        let n = a.rows();
        // k-panel depth (how much history is packed per pass). Like NB, a
        // schedule-only knob: any values produce identical bits; these
        // keep the pack (NB·KB doubles) and one history row segment inside
        // L1/L2.
        const KB: usize = 128;
        let mut l = Matrix::zeros(n, n);
        let nb_cap = NB.min(n.max(1));
        // acc[(i − jb)·nb + jj] accumulates Σ_k L(i,k)·L(j,k) for column
        // j = jb + jj, ascending k, starting from +0.0 — the reference
        // dot's fold up to its start value (see the doc comment).
        let mut acc = vec![0.0f64; n * nb_cap];
        // dacc[jj] is the diagonal accumulator: a(j,j) + jitter minus
        // L(j,k)² term by term, ascending k.
        let mut dacc = vec![0.0f64; nb_cap];
        // Transposed pack of the panel rows over one k-panel:
        // pack[kk·nb + jj] = L(jb + jj, kb + kk).
        let mut pack = vec![0.0f64; nb_cap * KB];
        // Fresh in-panel column cache for the right-looking update.
        let mut colv = vec![0.0f64; nb_cap];

        let mut jb = 0;
        while jb < n {
            let je = (jb + NB).min(n);
            let nb = je - jb;
            let span = n - jb;
            acc[..span * nb].fill(0.0);
            for (jj, d) in dacc[..nb].iter_mut().enumerate() {
                *d = a[(jb + jj, jb + jj)] + jitter;
            }

            // Phase A: fold the already-final history columns k < jb into
            // the panel accumulators, one k-panel at a time.
            let mut kb = 0;
            while kb < jb {
                let ke = (kb + KB).min(jb);
                let klen = ke - kb;
                for jj in 0..nb {
                    let row = &l.as_slice()[(jb + jj) * n + kb..(jb + jj) * n + ke];
                    for (kk, &v) in row.iter().enumerate() {
                        pack[kk * nb + jj] = v;
                    }
                }
                for (jj, d) in dacc[..nb].iter_mut().enumerate() {
                    for kk in 0..klen {
                        let v = pack[kk * nb + jj];
                        *d -= v * v;
                    }
                }
                for i in (jb + 1)..n {
                    // Rows inside the panel only feed columns j < i; the
                    // unused high slots are never read.
                    let jjmax = nb.min(i - jb);
                    let li = &l.as_slice()[i * n + kb..i * n + ke];
                    let arow = &mut acc[(i - jb) * nb..(i - jb) * nb + jjmax];
                    for (kk, &lik) in li.iter().enumerate() {
                        let prow = &pack[kk * nb..kk * nb + jjmax];
                        for (av, pv) in arow.iter_mut().zip(prow) {
                            *av += lik * *pv;
                        }
                    }
                }
                kb = ke;
            }

            // Phase B: factor the panel columns left to right, folding each
            // fresh column into the remaining panel accumulators (k = j,
            // still ascending) before moving on.
            for jj in 0..nb {
                let j = jb + jj;
                let d = dacc[jj];
                if d <= 0.0 || !d.is_finite() {
                    return Err(LinalgError::NotPositiveDefinite { pivot: j, value: d });
                }
                let dj = d.sqrt();
                l[(j, j)] = dj;
                for i in (j + 1)..n {
                    let s = a[(i, j)] - acc[(i - jb) * nb + jj];
                    l[(i, j)] = s / dj;
                }
                for jj2 in (jj + 1)..nb {
                    colv[jj2] = l[(jb + jj2, j)];
                }
                for (jj2, d) in dacc.iter_mut().enumerate().take(nb).skip(jj + 1) {
                    let v = colv[jj2];
                    *d -= v * v;
                }
                for i in (j + 1)..n {
                    let jjmax = nb.min(i - jb);
                    if jjmax <= jj + 1 {
                        continue;
                    }
                    let lij = l[(i, j)];
                    let arow = &mut acc[(i - jb) * nb + jj + 1..(i - jb) * nb + jjmax];
                    for (av, cv) in arow.iter_mut().zip(&colv[jj + 1..jjmax]) {
                        *av += lij * *cv;
                    }
                }
            }
            jb = je;
        }
        Ok(Cholesky { l, jitter })
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
    /// `b[i·w + t]` holds element `i` of right-hand side `t`.
    ///
    /// **Bitwise identical** to [`Cholesky::solve_lower`] on each column
    /// (DESIGN §13): element `(i, t)` computes
    /// `z[i] = (b[i] − Σ_k L(i,k)·z[k]) / L(i,i)` with the sum folded in
    /// ascending `k` from −0.0, the start value of the `Iterator::sum`
    /// behind `ops::dot`. Each row of `B` is contiguous across `t`, so the
    /// fold vectorizes across the right-hand sides; they run in
    /// schedule-only tiles of `TB` so the accumulators live on the stack.
    /// Like [`Cholesky::inverse`], it runs in an AVX2-compiled copy when
    /// the CPU has AVX2, with the same bits.
    pub fn solve_lower_multi(&self, b: &mut [f64], w: usize) -> Result<(), LinalgError> {
        let n = self.dim();
        if b.len() != n * w {
            return Err(LinalgError::ShapeMismatch {
                op: "solve_lower_multi",
                lhs: (n, n),
                rhs: (b.len() / w.max(1), w),
            });
        }
        dispatch(SolveLowerMulti { ch: self, b, w });
        Ok(())
    }

    /// The body of [`Cholesky::solve_lower_multi`], shape already checked.
    #[inline(always)]
    fn solve_lower_multi_body(&self, b: &mut [f64], w: usize) {
        const TB: usize = 64;
        let n = self.dim();
        let ld = self.l.as_slice();
        let mut acc = [0.0f64; TB];
        let mut t0 = 0;
        while t0 < w {
            let t1 = (t0 + TB).min(w);
            let acc = &mut acc[..t1 - t0];
            for i in 0..n {
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
    pub fn solve_upper(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
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

    /// Explicit inverse `A⁻¹` (used by the LML gradient, which needs the
    /// full matrix `K⁻¹` once per gradient evaluation).
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
    /// `L` in place, with stride `n`. The finished tile is copied into the
    /// output. When the CPU has AVX2 the folds run in a copy compiled
    /// for it; only `avx2` is enabled, never `fma`, so each lane performs
    /// the same IEEE operations and the bits do not move.
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        Ok(dispatch(Inverse(self)))
    }

    /// The body of [`Cholesky::inverse`].
    #[inline(always)]
    fn inverse_body(&self) -> Matrix {
        const IB: usize = 16;
        let n = self.dim();
        let ld = self.l.as_slice();
        let mut inv = Matrix::zeros(n, n);
        let out = inv.as_mut_slice();
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
            for (dst, src) in out.chunks_exact_mut(n).zip(&tile) {
                dst[j0..j0 + w].copy_from_slice(&src[..w]);
            }
            j0 += w;
        }
        inv
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
    /// Fails with [`LinalgError::NotPositiveDefinite`] when the bordered
    /// matrix is not SPD (callers should fall back to a fresh
    /// [`Cholesky::with_jitter`] factorization).
    pub fn extend(&mut self, b: &[f64], c: f64) -> Result<(), LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "extend",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // New bottom row: L w = b, pivot d = sqrt(c − ‖w‖²).
        let w = self.solve_lower(b)?;
        let d2 = c - crate::ops::dot(&w, &w);
        if d2 <= 0.0 || !d2.is_finite() {
            return Err(LinalgError::NotPositiveDefinite {
                pivot: n,
                value: d2,
            });
        }
        let mut l = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            let (src, dst) = (self.l.row(i), l.row_mut(i));
            dst[..n].copy_from_slice(src);
        }
        let last = l.row_mut(n);
        last[..n].copy_from_slice(&w);
        last[n] = d2.sqrt();
        self.l = l;
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

/// Panel width of the blocked factorization (columns factored together),
/// a schedule-only knob: any value gives identical bits.
/// [`Cholesky::factor`] hands matrices up to this size to the reference
/// loop.
const NB: usize = 64;

/// A dense fold that [`dispatch`] compiles twice. `run` is
/// `#[inline(always)]`, and so is every helper its body calls, so each
/// copy holds the whole fold.
trait DenseFold {
    type Output;
    fn run(self) -> Self::Output;
}

/// [`Cholesky::factor_blocked`].
#[derive(Clone, Copy)]
struct Factor<'a> {
    a: &'a Matrix,
    jitter: f64,
}

impl DenseFold for Factor<'_> {
    type Output = Result<Cholesky, LinalgError>;
    #[inline(always)]
    fn run(self) -> Self::Output {
        Cholesky::factor_blocked(self.a, self.jitter)
    }
}

/// [`Cholesky::inverse_body`].
#[derive(Clone, Copy)]
struct Inverse<'a>(&'a Cholesky);

impl DenseFold for Inverse<'_> {
    type Output = Matrix;
    #[inline(always)]
    fn run(self) -> Matrix {
        self.0.inverse_body()
    }
}

/// [`Cholesky::solve_lower_multi_body`].
struct SolveLowerMulti<'a> {
    ch: &'a Cholesky,
    b: &'a mut [f64],
    w: usize,
}

impl DenseFold for SolveLowerMulti<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        self.ch.solve_lower_multi_body(self.b, self.w);
    }
}

/// Run `fold` in a copy compiled with AVX2 enabled when the CPU has AVX2,
/// else in the portable copy; other targets and Miri always run the
/// portable one. Both copies come from the same `#[inline(always)]` body.
///
/// Why the bits cannot move: only `avx2` is enabled, never `fma`, and the
/// bodies never call `mul_add`. Rust never contracts `a + b·c` into a fused
/// multiply-add, so each lane of a wide AVX2 op performs the same IEEE
/// multiply, add, subtract, divide or square root, in the same order, as
/// the portable copy's narrower SSE2 op or scalar op does.
#[allow(unsafe_code)]
#[inline]
fn dispatch<F: DenseFold>(fold: F) -> F::Output {
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
        let inv = ch.inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        let eye = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert!((prod[(i, j)] - eye[(i, j)]).abs() < 1e-10);
            }
        }
        assert_eq!(
            Cholesky::new(&Matrix::zeros(0, 0))
                .unwrap()
                .inverse()
                .unwrap()
                .shape(),
            (0, 0)
        );
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

    fn assert_factors_bitwise_equal(blocked: &Cholesky, reference: &Cholesky) {
        assert_eq!(blocked.dim(), reference.dim());
        for i in 0..blocked.dim() {
            for j in 0..blocked.dim() {
                assert_eq!(
                    blocked.l()[(i, j)].to_bits(),
                    reference.l()[(i, j)].to_bits(),
                    "L({i},{j}) diverges: blocked {} vs reference {}",
                    blocked.l()[(i, j)],
                    reference.l()[(i, j)],
                );
            }
        }
    }

    #[test]
    fn blocked_factor_matches_reference_bitwise() {
        // Sizes straddle every tiling boundary: sub-panel, exactly one
        // panel (64), one panel plus a remainder, more than one k-panel
        // of history (> 128 + 64).
        for &n in &[1usize, 2, 3, 5, 17, 63, 64, 65, 130, 200] {
            let a = spd_random(n, n as u64);
            let blocked = Cholesky::new(&a).unwrap();
            let reference = Cholesky::new_reference(&a).unwrap();
            assert_factors_bitwise_equal(&blocked, &reference);
        }
    }

    #[test]
    fn blocked_factor_with_jitter_matches_reference_bitwise() {
        // Rank-5 Gram matrix: singular, so with_jitter must escalate.
        let n = 90;
        let data: Vec<f64> = (0..n * 5)
            .map(|i| ((i as f64) * 0.43 + 0.2).sin())
            .collect();
        let b = Matrix::from_vec(n, 5, data);
        let a = b.matmul(&b.transpose()).unwrap();
        let blocked = Cholesky::with_jitter(&a, 1e-10, 1e-2).unwrap();
        let reference = Cholesky::factor_reference(&a, blocked.jitter()).unwrap();
        assert!(blocked.jitter() > 0.0);
        assert_factors_bitwise_equal(&blocked, &reference);
    }

    #[test]
    fn blocked_factor_error_matches_reference_bitwise() {
        // Break definiteness past the first panel so the failure exercises
        // the phase-A history path before pivoting.
        let n = 130;
        let mut a = spd_random(n, 3);
        a[(97, 97)] = -500.0;
        let blocked = Cholesky::new(&a);
        let reference = Cholesky::new_reference(&a);
        match (blocked, reference) {
            (
                Err(LinalgError::NotPositiveDefinite {
                    pivot: pb,
                    value: vb,
                }),
                Err(LinalgError::NotPositiveDefinite {
                    pivot: pr,
                    value: vr,
                }),
            ) => {
                assert_eq!(pb, pr);
                assert_eq!(vb.to_bits(), vr.to_bits());
            }
            other => panic!("expected matching NotPositiveDefinite errors, got {other:?}"),
        }
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

    /// Whether [`dispatch`] runs the AVX2 copy here. Where it does not (no
    /// AVX2 on this CPU, another target, or Miri, which always runs the
    /// portable copy), the both-copies tests skip the dispatched side.
    fn avx2_copy_runs() -> bool {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        return std::is_x86_feature_detected!("avx2");
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        false
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

    fn assert_inverse_matches_reference(ch: &Cholesky, label: &str) {
        let slow = inverse_reference(ch);
        let n = ch.dim();
        let public = ch.inverse().unwrap();
        assert_bits_equal(public.as_slice(), slow.as_slice(), n, label);
        for (copy, fast) in both_copies(Inverse(ch)) {
            assert_bits_equal(
                fast.as_slice(),
                slow.as_slice(),
                n,
                &format!("{label} {copy}"),
            );
        }
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

    #[test]
    fn blocked_factor_copies_match_reference_bitwise() {
        // Sizes straddle the NB = 64 panel and the KB = 128 k-panel
        // boundaries (n > 192 folds more than one k-panel of history).
        // The blocked loop runs at every size here, n ≤ 64 included,
        // though `Cholesky::new` sends those to the reference loop.
        let sizes: &[usize] = if cfg!(miri) {
            &[1, 5, 24]
        } else {
            &[
                1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 256, 257, 320, 400,
            ]
        };
        for &n in sizes {
            let a = spd_random(n, 7 + n as u64);
            let reference = Cholesky::new_reference(&a).unwrap();
            assert_factors_bitwise_equal(&Cholesky::new(&a).unwrap(), &reference);
            for (copy, blocked) in both_copies(Factor { a: &a, jitter: 0.0 }) {
                let blocked = blocked.unwrap_or_else(|e| panic!("{copy}, n={n}: {e}"));
                assert_factors_bitwise_equal(&blocked, &reference);
            }
        }
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
        let inv = ch.inverse().unwrap();
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
    /// by column.
    fn assert_multi_matches_columns(ch: &Cholesky, b: &[f64], w: usize, label: &str) {
        let n = ch.dim();
        let mut want = vec![0.0; n * w];
        for t in 0..w {
            let col: Vec<f64> = (0..n).map(|i| b[i * w + t]).collect();
            for (i, v) in ch.solve_lower(&col).unwrap().into_iter().enumerate() {
                want[i * w + t] = v;
            }
        }
        let mut public = b.to_vec();
        ch.solve_lower_multi(&mut public, w).unwrap();
        assert_bits_equal(&public, &want, w, &format!("{label}, w={w}"));
        let mut portable = b.to_vec();
        SolveLowerMulti {
            ch,
            b: &mut portable,
            w,
        }
        .run();
        assert_bits_equal(&portable, &want, w, &format!("{label}, w={w} portable"));
        if avx2_copy_runs() {
            let mut wide = b.to_vec();
            dispatch(SolveLowerMulti {
                ch,
                b: &mut wide,
                w,
            });
            assert_bits_equal(&wide, &want, w, &format!("{label}, w={w} avx2"));
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
            ch.solve_lower_multi(&mut [1.0; 5], 2),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        ch.solve_lower_multi(&mut [], 0).unwrap();
    }
}
