//! Small vector kernels used across the stack.

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

/// Weighted squared distance `sum_k w[k] * (a[k]-b[k])^2` (for ARD kernels,
/// `w[k] = 1/l_k^2`).
#[inline]
pub fn weighted_sq_dist(a: &[f64], b: &[f64], w: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), w.len());
    a.iter()
        .zip(b)
        .zip(w)
        .map(|((x, y), wk)| {
            let d = x - y;
            wk * d * d
        })
        .sum()
}

/// Euclidean norm.
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Element-wise difference `a - b` into a new vector.
#[inline]
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x - y).collect()
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

/// Index of the minimum element; ties resolve to the lowest index.
/// Returns `None` for empty input or when all elements are NaN.
pub fn argmin(v: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &x) in v.iter().enumerate() {
        if x.is_nan() {
            continue;
        }
        match best {
            Some((_, bx)) if x >= bx => {}
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
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn sq_dist_basics() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(sq_dist(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn weighted_sq_dist_reduces_to_plain_with_unit_weights() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 6.0, 3.5];
        let w = [1.0, 1.0, 1.0];
        assert!((weighted_sq_dist(&a, &b, &w) - sq_dist(&a, &b)).abs() < 1e-12);
        // Zero weight masks a coordinate entirely.
        assert_eq!(weighted_sq_dist(&[0.0], &[9.0], &[0.0]), 0.0);
    }

    #[test]
    fn sub_elementwise() {
        assert_eq!(sub(&[3.0, 5.0], &[1.0, 2.0]), vec![2.0, 3.0]);
    }

    #[test]
    fn argmax_argmin_handle_ties_and_nans() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmin(&[1.0, -3.0, -3.0]), Some(1));
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[f64::NAN, 2.0, f64::NAN]), Some(1));
        assert_eq!(argmax(&[f64::NAN]), None);
        assert_eq!(argmin(&[f64::NAN, 5.0]), Some(1));
    }
}
