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
/// grow: nine. A session clears its caches at every optimize boundary,
/// ten picks apart by default, so a cache rebuilt after one gains at most
/// nine rows before the next and never reallocates in between.
/// Schedule-only: any value gives the same bits.
const GROWTH_ROWS: usize = 9;

/// Cached kernel block `K*`, solves `V = L⁻¹K*` and per-candidate partial
/// sums `Σv²` for one model's candidate pool.
///
/// The cache proves its own validity on every use and never trusts the
/// caller's bookkeeping. It records the [`Cholesky::prefix_id`] of the
/// factor rows it solved against, how many rows those were, and the
/// exact bits of the candidates it was built with. A prediction reuses it
/// only when the model's factor still starts with those rows and every
/// query row matches a cached candidate, in order; anything else rebuilds
/// it from the query. Hand it any model, any rows, in any order: the
/// result is always bit for bit [`GpModel::predict`](crate::GpModel::predict)'s.
///
/// The prefix id also vouches for `K*`. A factor row's id is fresh with
/// every factorization, border or extend that writes it, and a model
/// drops its fit whenever its hyperparameters change
/// ([`GpModel::set_hyperparams`](crate::GpModel::set_hyperparams)). So
/// a factor that still carries the cached prefix id was written from the
/// same training rows under the same kernel hyperparameters, and every
/// cached `k(x_i, x*_c)` is the value a fresh prediction computes:
/// [`Kernel::values_into`](crate::Kernel::values_into) gives each lane
/// the bits of the per-pair formula, whatever the block's offset and
/// width.
///
/// Nothing is ever moved. The cache keeps a column for every candidate it
/// was built with, and a candidate the query no longer holds (a pick, say)
/// stays as a dead column that the new rows still extend; a map `live`
/// takes each query row to its column. Every column's arithmetic is
/// independent of the others', so the dead ones cost work but no bits.
/// They number at most the candidates dropped since the last rebuild, so
/// the cache never holds more columns than its last rebuild's query.
///
/// For `n` training rows and `m_c` cached columns it holds two `n × m_c`
/// blocks, `K*` and `V`, each in one buffer with room for a few more rows
/// (`GROWTH_ROWS`); [`PoolCache::clear`] releases them.
#[derive(Clone, Default)]
pub struct PoolCache {
    /// `(prefix id, rows)` of the factor rows `v` solves against; `None`
    /// while the cache is empty or being updated.
    factor: Option<(u64, usize)>,
    /// The cached candidates, transposed once: `dim × m_c`, one column per
    /// candidate, as [`Kernel::values_into`](crate::Kernel::values_into)
    /// takes them.
    pub(crate) xt: Matrix,
    /// `live[q]` is the column of query row `q`: ascending.
    pub(crate) live: Vec<usize>,
    /// `k[i·m_c + c]` is `k(x_i, x*_c)` for training row `i` and cached
    /// column `c`: laid out as `v`, of which it is the right-hand side.
    pub(crate) k: Vec<f64>,
    /// `v[i·m_c + c]` is element `i` of column `c`'s `L⁻¹k*`: row `i`
    /// holds that element for every column, as `solve_lower_multi` lays
    /// it out.
    pub(crate) v: Vec<f64>,
    /// `ss[c] = Σ_i v[i·m_c + c]²` over the rows solved so far, folded
    /// from −0.0 in ascending `i`, as a fresh prediction folds it.
    pub(crate) ss: Vec<f64>,
}

impl std::fmt::Debug for PoolCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolCache")
            .field("factor_rows", &self.factor_rows())
            .field("columns", &self.ss.len())
            .field("live", &self.live.len())
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
    /// kernel values and solves. Those rows are kept, and `live` maps the
    /// query into the cached columns, when `chol` starts with the cached
    /// factor rows and `xs` is the cached candidates with some removed;
    /// otherwise the cache restarts from `xs` and this returns 0. Either
    /// way `k` and `v` leave sized `n × m_c` and the cache stays invalid
    /// until [`PoolCache::seal`].
    pub(crate) fn prepare(&mut self, chol: &Cholesky, xs: &Matrix) -> usize {
        let kept = self
            .factor
            .take()
            .filter(|&(id, rows)| xs.cols() == self.xt.rows() && chol.prefix_id(rows) == Some(id))
            .and_then(|(_, rows)| Some((rows, self.kept_candidates(xs)?)));
        let rows = match kept {
            Some((rows, live)) => {
                self.live = live;
                rows
            }
            None => {
                self.xt = xs.transpose();
                self.live = (0..xs.rows()).collect();
                self.k.clear();
                self.v.clear();
                self.ss.clear();
                self.ss.resize(xs.rows(), -0.0);
                0
            }
        };
        let (n, m) = (chol.dim(), self.ss.len());
        for block in [&mut self.k, &mut self.v] {
            if block.capacity() < n * m {
                // One reservation per GROWTH_ROWS rows: a realloc per
                // round would scatter the block across the heap, and
                // doubling would hold up to twice it.
                block.reserve_exact((n + GROWTH_ROWS) * m - block.len());
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

    /// For each row of `xs`, in order, the cached column with the same
    /// bits, matching in order; `None` when some row has no match.
    fn kept_candidates(&self, xs: &Matrix) -> Option<Vec<usize>> {
        let xt = &self.xt;
        let same = |c: usize, row: &[f64]| {
            row.iter()
                .enumerate()
                .all(|(d, x)| x.to_bits() == xt[(d, c)].to_bits())
        };
        let mut cached = 0..xt.cols();
        (0..xs.rows())
            .map(|q| cached.find(|&c| same(c, xs.row(q))))
            .collect()
    }
}
