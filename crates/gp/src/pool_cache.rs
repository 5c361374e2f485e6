//! Posterior solves carried from one prediction of a candidate pool to
//! the next (DESIGN §13).
//!
//! Between hyperparameter optimizations a model's factor `L` only grows:
//! border refits and augments append rows and keep the leading ones bit
//! for bit. A candidate's kernel column `k*` then only grows too, one
//! value per new training row, and so do its `v = L⁻¹k*`, one element per
//! new factor row, and its `Σv²`, one term. [`PoolCache`] keeps all three,
//! so [`GpModel::predict_cached`](crate::GpModel::predict_cached)
//! evaluates the kernel and solves only for the new rows.

use al_linalg::{Cholesky, Matrix};

/// Factor rows of growth [`PoolCache`] reserves room for when it must
/// grow: ten, the AL loop's default optimize cadence, so a cache rebuilt
/// after an optimize boundary lasts the whole cycle without a realloc.
/// Schedule-only: any value gives the same bits.
const GROWTH_ROWS: usize = 10;

/// Cached kernel block `K*`, solves `V = L⁻¹K*` and per-candidate partial
/// sums `Σv²` for one model's candidate pool.
///
/// The cache proves its own validity on every use and never trusts the
/// caller's bookkeeping. It records the [`Cholesky::prefix_id`] of the
/// factor rows it solved against, how many rows those were, and the
/// exact bits of the candidate rows. A prediction reuses it only when the
/// model's factor still starts with those rows and every query row
/// matches a cached candidate, in order; candidates no longer queried are
/// dropped. Anything else recomputes from scratch. Hand it any model, any
/// rows, in any order: the result is always bit for bit
/// [`GpModel::predict`](crate::GpModel::predict)'s.
///
/// The prefix id also vouches for `K*`. A factor row's id is fresh with
/// every factorization, border or extend that writes it, and a model
/// drops its fit whenever its hyperparameters change
/// ([`GpModel::set_hyperparams`](crate::GpModel::set_hyperparams)). So
/// a factor that still carries the cached prefix id was written from the
/// same training rows under the same kernel hyperparameters, and every
/// cached `k(x_i, x*_q)` is the value a fresh prediction computes:
/// [`Kernel::values_into`](crate::Kernel::values_into) gives each lane
/// the bits of the per-pair formula, whatever the block's offset and
/// width.
///
/// For `n` training rows and `m` candidates it holds two `n × m` blocks,
/// `K*` and `V`, each in one buffer with room for a few more rounds
/// (`GROWTH_ROWS`); [`PoolCache::clear`] releases them.
#[derive(Clone, Default)]
pub struct PoolCache {
    /// `(prefix id, rows)` of the factor rows `v` solves against; `None`
    /// while the cache is empty or being updated.
    factor: Option<(u64, usize)>,
    /// Feature dimension of `rows`.
    dim: usize,
    /// The candidates, row-major `m × dim`, in query order.
    rows: Vec<f64>,
    /// `k[i·m + q]` is `k(x_i, x*_q)` for training row `i` and candidate
    /// `q`: laid out as `v`, of which it is the right-hand side.
    pub(crate) k: Vec<f64>,
    /// `v[i·m + q]` is element `i` of candidate `q`'s `L⁻¹k*`: row `i`
    /// holds that element for every candidate, as `solve_lower_multi`
    /// lays it out.
    pub(crate) v: Vec<f64>,
    /// `ss[q] = Σ_i v[i·m + q]²` over the rows solved so far, folded from
    /// −0.0 in ascending `i`, as a fresh prediction folds it.
    pub(crate) ss: Vec<f64>,
}

impl std::fmt::Debug for PoolCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolCache")
            .field("factor_rows", &self.factor_rows())
            .field("candidates", &self.ss.len())
            .finish()
    }
}

impl PoolCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop every cached solve and release its memory.
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// Factor rows the cached solves cover (0 when empty).
    pub(crate) fn factor_rows(&self) -> usize {
        self.factor.map_or(0, |(_, rows)| rows)
    }

    /// Make the cache describe the candidates `xs` against `chol` and
    /// return how many leading rows of `k` and `v` already hold their
    /// kernel values and solves. Those rows are kept (compacted to the
    /// candidates still present) when `chol` starts with the cached factor
    /// rows and `xs` is the cached candidates with some removed; otherwise
    /// the cache restarts empty and this returns 0. Either way `k` and `v`
    /// leave sized `n × m` and the cache stays invalid until
    /// [`PoolCache::seal`].
    pub(crate) fn prepare(&mut self, chol: &Cholesky, xs: &Matrix) -> usize {
        let solved = self
            .factor
            .take()
            .filter(|&(id, rows)| xs.cols() == self.dim && chol.prefix_id(rows) == Some(id))
            .and_then(|(_, rows)| Some((rows, self.kept_candidates(xs)?)));
        let rows = match solved {
            Some((rows, keep)) => {
                self.compact(rows, &keep);
                rows
            }
            None => {
                self.k.clear();
                self.v.clear();
                self.ss.clear();
                self.ss.resize(xs.rows(), -0.0);
                0
            }
        };
        self.dim = xs.cols();
        self.rows.clear();
        self.rows.extend_from_slice(xs.as_slice());
        let (n, m) = (chol.dim(), xs.rows());
        for block in [&mut self.k, &mut self.v] {
            if block.capacity() < n * m {
                // Room for the block as it stands after up to GROWTH_ROWS
                // more rounds that each move one candidate into the
                // training set, so a pool shrinking as its model grows
                // reallocates it at most once per GROWTH_ROWS rows, not
                // every round (a realloc per round scatters it across the
                // heap). Doubling would hold up to twice the block.
                let g = GROWTH_ROWS.min(m.saturating_sub(n) / 2);
                block.reserve_exact((n + g) * (m - g) - block.len());
            }
            block.resize(n * m, 0.0);
        }
        rows
    }

    /// Mark `v` and `ss` as covering every row of `chol`.
    pub(crate) fn seal(&mut self, chol: &Cholesky) {
        let rows = chol.dim();
        self.factor = chol.prefix_id(rows).map(|id| (id, rows));
    }

    /// For each row of `xs`, in order, the index of the cached candidate
    /// with the same bits, matching in order; `None` when some row has no
    /// match.
    fn kept_candidates(&self, xs: &Matrix) -> Option<Vec<usize>> {
        let same = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        let mut cached = (0..self.ss.len()).map(|c| (c, &self.rows[c * self.dim..][..self.dim]));
        (0..xs.rows())
            .map(|q| cached.find(|(_, row)| same(row, xs.row(q))).map(|(c, _)| c))
            .collect()
    }

    /// Keep the first `rows` rows of `k` and `v`, and of each row and of
    /// `ss` only the candidates `keep` (ascending), moved down in place.
    fn compact(&mut self, rows: usize, keep: &[usize]) {
        let m_old = self.ss.len();
        compact_rows(&mut self.k, rows, m_old, keep);
        compact_rows(&mut self.v, rows, m_old, keep);
        compact_rows(&mut self.ss, 1, m_old, keep);
    }
}

/// Keep the first `rows` rows of the row-major `rows × m_old` block
/// `buf`, and of each only the columns `keep` (ascending), moved down in
/// place.
fn compact_rows(buf: &mut Vec<f64>, rows: usize, m_old: usize, keep: &[usize]) {
    let m = keep.len();
    if m < m_old {
        // Each destination index is at most its source index, and the
        // sources still to be read lie beyond it.
        for i in 0..rows {
            for (t, &c) in keep.iter().enumerate() {
                buf[i * m + t] = buf[i * m_old + c];
            }
        }
    }
    buf.truncate(rows * m);
}
