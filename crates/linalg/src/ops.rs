//! Small vector kernels used across the stack.

use crate::cholesky::{dispatch, DenseFold};
use crate::matrix::Matrix;

/// Dot product of two equally long slices.
///
/// Panics in debug builds when lengths differ; in release the shorter length
/// wins, so callers must uphold the invariant (all call sites pass rows of
/// the same matrix or vectors validated upstream).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean distance between two points.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Squared Euclidean distances from `a` to a block of points stored
/// dimension-major: `pts` is `d × N` with one column per point, and
/// `out[j]` is `sq_dist(a, column j0 + j)` bit for bit. Each lane folds
/// `(a_k − p_k)²` from −0.0 in ascending `k`, as [`sq_dist`] does, so the
/// lanes vectorize across points; like the dense Cholesky folds, it runs
/// in an AVX2-compiled copy when the CPU has AVX2, with the same bits.
///
/// Panics when the block `j0..j0 + out.len()` does not fit in `pts` or
/// `a.len()` is not `pts.rows()`.
pub fn sq_dists_into(a: &[f64], pts: &Matrix, j0: usize, out: &mut [f64]) {
    assert!(
        a.len() == pts.rows() && j0 + out.len() <= pts.cols(),
        "sq_dists_into: point of length {} against a {:?} block at {j0}+{}",
        a.len(),
        pts.shape(),
        out.len()
    );
    dispatch(SqDists {
        a,
        pts: pts.as_slice().get(j0..).unwrap_or_default(),
        stride: pts.cols(),
        out,
    });
}

/// [`sq_dists_into`], bounds already checked: coordinate `k` of point `j`
/// is `pts[k * stride + j]`.
struct SqDists<'a> {
    a: &'a [f64],
    pts: &'a [f64],
    stride: usize,
    out: &'a mut [f64],
}

impl DenseFold for SqDists<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        let w = self.out.len();
        for o in self.out.iter_mut() {
            *o = -0.0;
        }
        for (k, &ak) in self.a.iter().enumerate() {
            let coords = &self.pts[k * self.stride..][..w];
            for (o, &b) in self.out.iter_mut().zip(coords) {
                let d = ak - b;
                *o += d * d;
            }
        }
    }
}

/// Index of the maximum element; ties resolve to the lowest index.
/// Returns `None` for empty input or when all elements are NaN.
pub fn argmax(v: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &x) in v.iter().enumerate() {
        if x.is_nan() {
            continue;
        }
        match best {
            Some((_, bx)) if x <= bx => {}
            _ => best = Some((i, x)),
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn sq_dist_basics() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(sq_dist(&[1.0], &[1.0]), 0.0);
    }

    /// The portable fold behind [`sq_dists_into`] for columns `j0..` of
    /// `pts`, as `dispatch` receives it.
    fn fold<'a>(a: &'a [f64], pts: &'a Matrix, j0: usize, out: &'a mut [f64]) -> SqDists<'a> {
        SqDists {
            a,
            pts: &pts.as_slice()[j0..],
            stride: pts.cols(),
            out,
        }
    }

    /// `sq_dists_into`'s portable copy and, where it runs, its AVX2 copy,
    /// `to_bits` against `sq_dist` per point, at block widths across the
    /// 2- and 4-lane edges (small enough for Miri) and dimensions 1–5, with
    /// coincident points, −0.0 coordinates and distances that overflow or
    /// underflow.
    #[test]
    fn block_sq_dists_match_sq_dist_bitwise() {
        let coord = |i: usize| -> f64 {
            match i % 7 {
                0 => -0.0,
                1 => 0.0,
                2 => 1e-160 * i as f64,
                3 => 1e160,
                _ => ((i * 37) as f64 * 0.61).sin() * 3.0,
            }
        };
        for d in 1..=5 {
            for n in [1usize, 2, 3, 4, 5, 8, 9, 17] {
                let pts = Matrix::from_vec(d, n, (0..d * n).map(coord).collect());
                let fixed: Vec<Vec<f64>> = (0..3)
                    .map(|r| (0..d).map(|k| coord(r * 5 + k + 1)).collect())
                    .chain([pts.col(n / 2)])
                    .collect();
                for a in &fixed {
                    for j0 in [0, n / 2, n - 1] {
                        let w = n - j0;
                        let want: Vec<u64> =
                            (j0..n).map(|j| sq_dist(a, &pts.col(j)).to_bits()).collect();
                        let mut portable = vec![f64::NAN; w];
                        fold(a, &pts, j0, &mut portable).run();
                        let mut public = vec![f64::NAN; w];
                        sq_dists_into(a, &pts, j0, &mut public);
                        let mut copies = vec![("portable", portable), ("public", public)];
                        if crate::cholesky::avx2_copy_runs() {
                            let mut wide = vec![f64::NAN; w];
                            dispatch(fold(a, &pts, j0, &mut wide));
                            copies.push(("avx2", wide));
                        }
                        for (copy, got) in copies {
                            let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                            assert_eq!(got, want, "{copy}: d={d} n={n} j0={j0} a={a:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "sq_dists_into")]
    fn block_past_the_last_point_panics() {
        let pts = Matrix::zeros(2, 3);
        sq_dists_into(&[0.0, 0.0], &pts, 2, &mut [0.0; 2]);
    }

    #[test]
    fn argmax_handles_ties_and_nans() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[f64::NAN, 2.0, f64::NAN]), Some(1));
        assert_eq!(argmax(&[f64::NAN]), None);
    }
}
