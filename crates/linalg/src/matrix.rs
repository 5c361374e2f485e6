//! Dense row-major `f64` matrix.

use crate::error::LinalgError;

/// Dense matrix with row-major contiguous storage.
///
/// Indexing is `(row, col)` via the `Index`/`IndexMut` operators. Rows can be
/// borrowed as slices with [`Matrix::row`], which is the access pattern the
/// GP kernels rely on (each training point is a row).
///
/// # Examples
///
/// ```
/// use al_linalg::Matrix;
///
/// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(a[(1, 0)], 3.0);
/// assert_eq!(a.row(0), &[1.0, 2.0]);
/// let b = a.matmul(&Matrix::identity(2)).unwrap();
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a matrix of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create an `n×n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from row-major data. Panics if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Borrow row `i` mutably.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Borrow the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major storage (e.g. to split it
    /// into disjoint row bands for parallel fills).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix-matrix product `self · rhs`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order keeps the inner loop streaming over contiguous
        // rows of both `rhs` and `out`.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                // Exact-zero sparsity skip: only a true +0.0/-0.0 may skip
                // the row product, so an epsilon compare would be wrong.
                #[allow(clippy::float_cmp)] // alint: allow(L2)
                if a == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = out.row_mut(i);
                for j in 0..rrow.len() {
                    orow[j] += a * rrow[j];
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self · v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if self.cols != v.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|i| crate::ops::dot(self.row(i), v))
            .collect())
    }

    /// Append the rows of `other` below `self`. Column counts must match.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut data = Vec::with_capacity((self.rows + other.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Select a subset of rows (in the given order) into a new matrix.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Select a subset of rows into `out`, reusing its allocation.
    ///
    /// `out` is resized/reshaped to `indices.len() × self.cols`; existing
    /// contents are overwritten. Lets batch-prediction loops reuse one
    /// scratch matrix across calls instead of allocating per bucket.
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.rows = indices.len();
        out.cols = self.cols;
        out.data.clear();
        out.data.reserve(indices.len() * self.cols);
        for &i in indices {
            out.data.extend_from_slice(self.row(i));
        }
    }

    /// Remove row `i`, shifting later rows up.
    pub fn remove_row(&mut self, i: usize) {
        assert!(
            i < self.rows,
            "row {} out of bounds ({} rows)",
            i,
            self.rows
        );
        let start = i * self.cols;
        self.data.drain(start..start + self.cols);
        self.rows -= 1;
    }

    /// An `n × n` zero matrix whose buffer already holds the room
    /// [`Matrix::grow_square`] would reserve, so a factor grown row by row
    /// right after it is made does not reallocate for `n/8 + 2` rows.
    pub(crate) fn square_with_room(n: usize) -> Self {
        let mut data = Vec::with_capacity(with_room(n).pow(2));
        data.resize(n * n, 0.0);
        Matrix {
            rows: n,
            cols: n,
            data,
        }
    }

    /// Grow a square `n × n` matrix in place to `(n + 1) × (n + 1)`: the
    /// old entries keep their `(i, j)`, the new row and column are zero.
    /// When the buffer is full it reserves room for `(n + 1)/8 + 2` more
    /// rows and columns beyond the new ones, so a matrix grown row by row
    /// reallocates once every few rows, not on every call.
    pub(crate) fn grow_square(&mut self) {
        let n = self.rows;
        debug_assert_eq!(n, self.cols, "grow_square requires a square matrix");
        if self.data.capacity() < (n + 1) * (n + 1) {
            let ahead = with_room(n + 1);
            self.data.reserve_exact(ahead * ahead - self.data.len());
        }
        self.data.resize((n + 1) * (n + 1), 0.0);
        // Last row first: each row moves to a higher offset, past the
        // rows still to move.
        for i in (1..n).rev() {
            self.data.copy_within(i * n..(i + 1) * n, i * (n + 1));
        }
        for i in 0..n {
            self.data[i * (n + 1) + n] = 0.0;
        }
        self.rows = n + 1;
        self.cols = n + 1;
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Add `value` to every diagonal entry (in place). Requires square.
    pub fn add_diagonal(&mut self, value: f64) {
        assert_eq!(
            self.rows, self.cols,
            "add_diagonal requires a square matrix"
        );
        for i in 0..self.rows {
            self[(i, i)] += value;
        }
    }
}

/// The order a growing square matrix of order `n` reserves room for:
/// `n/8 + 2` rows and columns ahead. Schedule-only: no entry depends on it.
fn with_room(n: usize) -> usize {
    n + n / 8 + 2
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(0, 1)], 4.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c[(0, 0)], 58.0);
        assert_eq!(c[(0, 1)], 64.0);
        assert_eq!(c[(1, 0)], 139.0);
        assert_eq!(c[(1, 1)], 154.0);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let v = vec![5.0, 6.0];
        let got = a.matvec(&v).unwrap();
        assert_eq!(got, vec![17.0, 39.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn vstack_concatenates_rows() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let c = a.vstack(&b).unwrap();
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.row(2), &[5.0, 6.0]);
        assert!(a.vstack(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn select_and_remove_rows() {
        let m = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[5.0, 6.0]);
        assert_eq!(s.row(1), &[1.0, 2.0]);

        let mut m = m;
        m.remove_row(1);
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.row(1), &[5.0, 6.0]);
    }

    #[test]
    fn grow_square_keeps_entries_and_zeroes_the_border() {
        for n in 0..6 {
            let entry = |i: usize, j: usize| (i * 10 + j + 1) as f64;
            let data = (0..n * n).map(|e| entry(e / n, e % n)).collect();
            let mut m = Matrix::from_vec(n, n, data);
            m.grow_square();
            assert_eq!(m.shape(), (n + 1, n + 1));
            for i in 0..=n {
                for j in 0..=n {
                    let want = if i < n && j < n { entry(i, j) } else { 0.0 };
                    assert_eq!(m[(i, j)], want, "n={n} ({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn a_square_with_room_grows_in_place_for_its_room() {
        for n in [0usize, 1, 7, 64, 250] {
            let mut m = Matrix::square_with_room(n);
            assert_eq!(m.shape(), (n, n));
            assert!(m.as_slice().iter().all(|&x| x == 0.0), "n={n}");
            let buffer = m.as_slice().as_ptr();
            for _ in 0..n / 8 + 2 {
                m.grow_square();
            }
            assert_eq!(m.as_slice().as_ptr(), buffer, "n={n} reallocated");
        }
    }

    #[test]
    fn add_diagonal_only_touches_diagonal() {
        let mut m = Matrix::zeros(2, 2);
        m.add_diagonal(0.5);
        assert_eq!(m[(0, 0)], 0.5);
        assert_eq!(m[(1, 1)], 0.5);
        assert_eq!(m[(0, 1)], 0.0);
    }

    #[test]
    fn frobenius_norm_matches() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn col_extracts_column() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.col(1), vec![2.0, 4.0]);
    }
}
