//! Hyperparameter selection by log-marginal-likelihood maximization
//! (paper Eq. 9).
//!
//! The primary optimizer is Adam on the analytic LML gradient in log space,
//! with box bounds and multi-start: one start is always the model's current
//! hyperparameters (the paper's "use old model's parameters as a starting
//! point" warm start), the rest are drawn uniformly from the bounds.

use crate::gp::GpModel;
use al_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Adam learning rate (log-space units).
const LEARNING_RATE: f64 = 0.08;

/// Box applied to every log-space hyperparameter. exp(±8) spans
/// amplitudes/length scales from ~3e-4 to ~3e3, ample for unit-cube
/// features and log10 responses.
const BOUNDS: (f64, f64) = (-8.0, 8.0);

/// Options controlling [`GpModel::fit_optimized`](crate::GpModel::fit_optimized).
#[derive(Debug, Clone)]
pub struct FitOptions {
    /// Number of random restarts *in addition to* the warm start from the
    /// current hyperparameters.
    pub n_restarts: usize,
    /// Adam iterations per start.
    pub max_iters: usize,
    /// Seed for restart sampling, so trajectories are reproducible.
    pub seed: u64,
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            n_restarts: 2,
            max_iters: 60,
            seed: 0,
        }
    }
}

impl FitOptions {
    /// A cheap profile for the inner AL loop: warm start only, few steps.
    /// This is what Algorithm 1's per-iteration retraining uses.
    pub fn warm_start_only() -> Self {
        FitOptions {
            n_restarts: 0,
            max_iters: 25,
            ..FitOptions::default()
        }
    }
}

/// Maximize the LML of `model` on `(x, y)`; returns the best hyperparameter
/// vector found, or `None` when no start produced a usable fit.
pub(crate) fn maximize_lml(
    model: &mut GpModel,
    x: &Matrix,
    y: &[f64],
    opts: &FitOptions,
) -> Option<Vec<f64>> {
    let dim = model.n_hyperparams();
    // One K_y buffer and one transposed copy of `x` for every evaluation
    // of this call; the buffer is refilled in place.
    let mut k = Matrix::zeros(x.rows(), x.rows());
    let xt = x.transpose();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut starts: Vec<Vec<f64>> = Vec::with_capacity(opts.n_restarts + 1);
    starts.push(model.hyperparams());
    for _ in 0..opts.n_restarts {
        starts.push(
            (0..dim)
                .map(|_| rng.random_range(BOUNDS.0..BOUNDS.1))
                .collect(),
        );
    }

    let mut best: Option<(f64, Vec<f64>)> = None;
    for start in starts {
        let mut objective = |p: &[f64]| model.lml_at(p, x, &xt, y, &mut k);
        if let Some((val, params)) = adam_maximize(
            &mut objective,
            &start,
            BOUNDS,
            opts.max_iters,
            LEARNING_RATE,
        ) {
            if best.as_ref().is_none_or(|(bv, _)| val > *bv) {
                best = Some((val, params));
            }
        }
    }
    best.map(|(_, p)| p)
}

/// Objective for the maximizers: returns `(value, gradient)` or `None` at
/// infeasible points.
type Objective<'a> = dyn FnMut(&[f64]) -> Option<(f64, Vec<f64>)> + 'a;

/// Adam gradient ascent with box bounds.
///
/// `objective` returns `(value, gradient)` or `None` at infeasible points
/// (e.g. when the kernel matrix fails to factor); infeasible steps are
/// rolled back by halving the learning rate. Returns the best feasible
/// `(value, point)` seen, or `None` if even the start is infeasible.
fn adam_maximize(
    objective: &mut Objective<'_>,
    start: &[f64],
    bounds: (f64, f64),
    max_iters: usize,
    learning_rate: f64,
) -> Option<(f64, Vec<f64>)> {
    let clamp = |p: &mut Vec<f64>| {
        for v in p.iter_mut() {
            *v = v.clamp(bounds.0, bounds.1);
        }
    };
    let mut p: Vec<f64> = start.to_vec();
    clamp(&mut p);
    let (mut value, mut grad) = objective(&p)?;
    let mut best = (value, p.clone());

    let dim = p.len();
    let mut m = vec![0.0; dim];
    let mut v = vec![0.0; dim];
    let (b1, b2, eps) = (0.9, 0.999, 1e-8);
    let mut lr = learning_rate;

    for t in 1..=max_iters {
        for i in 0..dim {
            m[i] = b1 * m[i] + (1.0 - b1) * grad[i];
            v[i] = b2 * v[i] + (1.0 - b2) * grad[i] * grad[i];
        }
        let mh = 1.0 - b1.powi(t as i32);
        let vh = 1.0 - b2.powi(t as i32);
        let mut candidate = p.clone();
        for i in 0..dim {
            // Ascent: step along +gradient.
            candidate[i] += lr * (m[i] / mh) / ((v[i] / vh).sqrt() + eps);
        }
        clamp(&mut candidate);
        match objective(&candidate) {
            Some((val, g)) => {
                p = candidate;
                value = val;
                grad = g;
                if value > best.0 {
                    best = (value, p.clone());
                }
            }
            None => {
                // Infeasible: shrink the step and keep the old iterate.
                lr *= 0.5;
                if lr < 1e-6 {
                    break;
                }
            }
        }
        // Converged when the gradient is tiny.
        if grad.iter().map(|g| g * g).sum::<f64>().sqrt() < 1e-7 {
            break;
        }
    }
    let _ = value;
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelKind;
    use crate::GpModel;

    /// Concave quadratic with maximum at (1, -2).
    fn quad(p: &[f64]) -> (f64, Vec<f64>) {
        let (x, y) = (p[0], p[1]);
        let f = -((x - 1.0).powi(2)) - 2.0 * (y + 2.0).powi(2);
        let g = vec![-2.0 * (x - 1.0), -4.0 * (y + 2.0)];
        (f, g)
    }

    #[test]
    fn adam_finds_quadratic_maximum() {
        let mut obj = |p: &[f64]| Some(quad(p));
        let (f, p) = adam_maximize(&mut obj, &[0.0, 0.0], (-10.0, 10.0), 800, 0.1).unwrap();
        assert!((p[0] - 1.0).abs() < 1e-2, "{p:?}");
        assert!((p[1] + 2.0).abs() < 1e-2, "{p:?}");
        assert!(f > -1e-3);
    }

    #[test]
    fn adam_respects_bounds() {
        let mut obj = |p: &[f64]| Some(quad(p));
        let (_, p) = adam_maximize(&mut obj, &[0.0, 0.0], (-0.5, 0.5), 300, 0.1).unwrap();
        assert!(p.iter().all(|v| (-0.5..=0.5).contains(v)));
        assert!((p[0] - 0.5).abs() < 1e-6); // pinned at the bound nearest 1.0
    }

    #[test]
    fn adam_handles_infeasible_start() {
        let mut obj = |_: &[f64]| -> Option<(f64, Vec<f64>)> { None };
        assert!(adam_maximize(&mut obj, &[0.0], (-1.0, 1.0), 10, 0.1).is_none());
    }

    #[test]
    fn adam_survives_infeasible_regions() {
        // Objective infeasible for x > 0.5; optimum inside feasible region
        // at x = 0.4 after clamping.
        let mut obj = |p: &[f64]| {
            if p[0] > 0.5 {
                None
            } else {
                Some((-(p[0] - 0.4).powi(2), vec![-2.0 * (p[0] - 0.4)]))
            }
        };
        let (_, p) = adam_maximize(&mut obj, &[0.0], (-1.0, 1.0), 500, 0.05).unwrap();
        assert!((p[0] - 0.4).abs() < 0.05, "{p:?}");
    }

    #[test]
    fn fit_optimized_improves_lml_over_default_params() {
        // Data generated with a short length scale; the default l=1 start is
        // wrong and optimization must improve the LML.
        let n = 20;
        let xs: Vec<f64> = (0..n).map(|i| i as f64 / (n - 1) as f64).collect();
        let y: Vec<f64> = xs.iter().map(|x| (20.0 * x).sin()).collect();
        let x = Matrix::from_vec(n, 1, xs);

        let mut base = GpModel::new(KernelKind::Rbf.build(1.0), 1e-4);
        base.fit(&x, &y).unwrap();
        let lml_default = base.lml().unwrap();

        let mut opt = GpModel::new(KernelKind::Rbf.build(1.0), 1e-4);
        opt.fit_optimized(&x, &y, &FitOptions::default()).unwrap();
        let lml_opt = opt.lml().unwrap();
        assert!(
            lml_opt > lml_default + 1.0,
            "optimized {lml_opt} vs default {lml_default}"
        );
        // The learned length scale should be much shorter than 1.
        let l = opt.hyperparams()[1].exp();
        assert!(l < 0.5, "length scale {l}");
    }

    #[test]
    fn warm_start_profile_is_cheaper_but_valid() {
        let opts = FitOptions::warm_start_only();
        assert_eq!(opts.n_restarts, 0);
        let n = 10;
        let xs: Vec<f64> = (0..n).map(|i| i as f64 / (n - 1) as f64).collect();
        let y: Vec<f64> = xs.iter().map(|x| x * 2.0).collect();
        let x = Matrix::from_vec(n, 1, xs);
        let mut m = GpModel::new(KernelKind::Rbf.build(1.0), 1e-4);
        m.fit_optimized(&x, &y, &opts).unwrap();
        let (mu, _) = m.predict_one(&[0.5]).unwrap();
        assert!((mu - 1.0).abs() < 0.1);
    }

    #[test]
    fn single_point_fit_skips_optimization() {
        let x = Matrix::from_vec(1, 1, vec![0.5]);
        let y = vec![2.0];
        let mut m = GpModel::new(KernelKind::Rbf.build(1.0), 1e-4);
        m.fit_optimized(&x, &y, &FitOptions::default()).unwrap();
        let (mu, _) = m.predict_one(&[0.5]).unwrap();
        assert!((mu - 2.0).abs() < 1e-3);
    }

    #[test]
    fn warm_start_outside_the_box_is_pulled_into_it() {
        // Noise-free data favours an ever smaller σ_n², so a warm start at
        // log σ_n² = −20 would stay far below the box without the clamp.
        let n = 10;
        let xs: Vec<f64> = (0..n).map(|i| i as f64 / (n - 1) as f64).collect();
        let y: Vec<f64> = xs.iter().map(|x| (3.0 * x).sin()).collect();
        let x = Matrix::from_vec(n, 1, xs);
        for opts in [FitOptions::warm_start_only(), FitOptions::default()] {
            let mut m = GpModel::new(KernelKind::Rbf.build(1.0), 1e-4);
            m.set_hyperparams(&[0.0, 0.0, -20.0]).unwrap();
            m.fit_optimized(&x, &y, &opts).unwrap();
            let p = m.hyperparams();
            assert!(
                p.iter().all(|v| (BOUNDS.0..=BOUNDS.1).contains(v)),
                "{opts:?}: {p:?}"
            );
            assert_eq!(m.n_train(), n);
        }
    }
}
