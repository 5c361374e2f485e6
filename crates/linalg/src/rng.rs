//! Random sampling helpers.
//!
//! The `rand` crate supplies uniform generation; the distributions the stack
//! needs on top of it (Gaussian noise for the machine model, log-normal
//! run-to-run variability, weighted discrete draws for the RandGoodness
//! strategy) are implemented here so no extra dependency is required.

use rand::{Rng, RngExt};

/// Draw one standard normal variate via the Box–Muller transform.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // u1 in (0, 1] so the log is finite.
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draw `N(mean, std²)`.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    mean + std * standard_normal(rng)
}

/// Multiplicative noise factor with a given coefficient of variation-ish
/// spread: `exp(N(0, sigma²))`, a log-normal variate. With small `sigma`
/// this is `≈ 1 ± sigma`.
pub fn noise_factor<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    normal(rng, 0.0, sigma).exp()
}

/// Draw an index from the discrete distribution defined by non-negative
/// `weights` (need not be normalized). Returns `None` when the weights are
/// empty or sum to zero / non-finite.
///
/// This is the randomized draw at the heart of the RandGoodness and RGMA
/// strategies (paper Algorithm 2, line 5).
pub fn weighted_index<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> Option<usize> {
    let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
    if weights.is_empty() || total <= 0.0 || !total.is_finite() {
        return None;
    }
    let mut target = rng.random::<f64>() * total;
    let mut last_positive = None;
    for (i, &w) in weights.iter().enumerate() {
        // Skip exactly what `total` left out, NaN included.
        if w.is_nan() || w <= 0.0 {
            continue;
        }
        last_positive = Some(i);
        if target < w {
            return Some(i);
        }
        target -= w;
    }
    // Floating-point slack: fall back to the last positive-weight index.
    last_positive
}

/// Fisher–Yates shuffle of `0..n`, returning the permutation.
pub fn permutation<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        p.swap(i, j);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let m = crate::stats::mean(&samples);
        let s = crate::stats::std_dev(&samples);
        assert!(m.abs() < 0.03, "mean {m}");
        assert!((s - 1.0).abs() < 0.03, "std {s}");
    }

    #[test]
    fn normal_is_affine_in_parameters() {
        let mut rng = StdRng::seed_from_u64(8);
        let samples: Vec<f64> = (0..20_000).map(|_| normal(&mut rng, 5.0, 2.0)).collect();
        assert!((crate::stats::mean(&samples) - 5.0).abs() < 0.06);
        assert!((crate::stats::std_dev(&samples) - 2.0).abs() < 0.06);
    }

    #[test]
    fn noise_factor_is_positive_and_centered() {
        let mut rng = StdRng::seed_from_u64(9);
        let samples: Vec<f64> = (0..10_000).map(|_| noise_factor(&mut rng, 0.1)).collect();
        assert!(samples.iter().all(|&x| x > 0.0));
        let logs: Vec<f64> = samples.iter().map(|x| x.ln()).collect();
        assert!(crate::stats::mean(&logs).abs() < 0.01);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = StdRng::seed_from_u64(10);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[weighted_index(&mut rng, &weights).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn weighted_index_degenerate_inputs() {
        let mut rng = StdRng::seed_from_u64(11);
        assert_eq!(weighted_index(&mut rng, &[]), None);
        assert_eq!(weighted_index(&mut rng, &[0.0, 0.0]), None);
        assert_eq!(weighted_index(&mut rng, &[f64::INFINITY]), None);
        assert_eq!(weighted_index(&mut rng, &[0.0, 2.5]), Some(1));
    }

    #[test]
    fn weighted_index_never_draws_a_nan_weight() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut counts = [0usize; 3];
        for _ in 0..2000 {
            counts[weighted_index(&mut rng, &[f64::NAN, 1.0, 1.0]).unwrap()] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[1] > 800 && counts[2] > 800, "counts {counts:?}");
        for _ in 0..200 {
            assert_eq!(
                weighted_index(&mut rng, &[f64::NAN, 1.0, f64::NAN]),
                Some(1)
            );
        }
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut rng = StdRng::seed_from_u64(12);
        let p = permutation(&mut rng, 100);
        let mut seen = [false; 100];
        for &i in &p {
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn permutation_trivial_sizes() {
        let mut rng = StdRng::seed_from_u64(13);
        assert!(permutation(&mut rng, 0).is_empty());
        assert_eq!(permutation(&mut rng, 1), vec![0]);
    }
}
