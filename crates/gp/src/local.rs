//! Local (partitioned) GP models — the paper's final future-work item
//! ("train multiple local performance models simultaneously") and the
//! treed/local-GP line of work it cites: split the input space along one
//! axis into regions, fit an independent GP per region, route queries.
//!
//! Independent local models sidestep GPR's stationarity assumption (one
//! covariance structure for the whole space) and cut the cubic fitting
//! cost, at the price of discontinuities at region boundaries.

use crate::error::GpError;
use crate::gp::{GpModel, Prediction};
use crate::optimize::FitOptions;
use al_linalg::Matrix;

/// A one-axis partition of GP models.
#[derive(Debug, Clone)]
pub struct LocalGpModel {
    template: GpModel,
    axis: usize,
    requested_regions: usize,
    /// Internal boundaries (length = regions − 1), ascending.
    boundaries: Vec<f64>,
    models: Vec<GpModel>,
}

/// Fewest training points a region may hold; sparser partitions collapse
/// into fewer regions.
const MIN_POINTS_PER_REGION: usize = 4;

impl LocalGpModel {
    /// Create an unfitted partitioned model: `template` supplies the
    /// kernel/noise configuration for every region, `axis` the feature to
    /// split on, `n_regions` the requested region count.
    pub fn new(template: GpModel, axis: usize, n_regions: usize) -> Self {
        assert!(n_regions >= 1, "need at least one region");
        LocalGpModel {
            template,
            axis,
            requested_regions: n_regions,
            boundaries: Vec::new(),
            models: Vec::new(),
        }
    }

    /// Number of regions actually in use (0 before fitting; may be fewer
    /// than requested when data is scarce).
    pub fn n_regions(&self) -> usize {
        self.models.len()
    }

    /// Region boundaries along the split axis.
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }

    /// Index of the region a point belongs to.
    fn region_of(&self, x: &[f64]) -> usize {
        let v = x[self.axis];
        self.boundaries.iter().take_while(|&&b| v >= b).count()
    }

    /// Fit: split the training rows into equal-count slabs along the axis
    /// (at most `n_regions`, fewer if any slab would drop below the
    /// minimum size), then fit one GP per slab with LML optimization.
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
        self.check_axis("local fit", x.shape())?;
        let n = x.rows();
        if n == 0 {
            return Err(GpError::Linalg(al_linalg::LinalgError::Empty(
                "training set",
            )));
        }
        let regions = self
            .requested_regions
            .min((n / MIN_POINTS_PER_REGION).max(1));

        // Equal-count boundaries from the sorted axis values. Duplicate
        // boundary values would create empty slabs, so deduplicate.
        let mut axis_vals: Vec<f64> = (0..n).map(|i| x.row(i)[self.axis]).collect();
        if axis_vals.iter().any(|v| v.is_nan()) {
            // A NaN split feature cannot be ordered into slabs; report it
            // as bad training data instead of panicking mid-sort.
            return Err(GpError::InvalidTrainingData {
                n_x: x.rows(),
                n_y: y.len(),
            });
        }
        axis_vals.sort_by(|a, b| a.total_cmp(b));
        let mut boundaries = Vec::new();
        for r in 1..regions {
            let b = axis_vals[r * n / regions];
            if boundaries.last().is_none_or(|&last| b > last) && b > axis_vals[0] {
                boundaries.push(b);
            }
        }
        self.boundaries = boundaries;

        // Scatter rows into regions.
        let k = self.boundaries.len() + 1;
        let mut rows: Vec<Vec<f64>> = vec![Vec::new(); k];
        let mut ys: Vec<Vec<f64>> = vec![Vec::new(); k];
        for (i, &yi) in y.iter().enumerate().take(n) {
            let r = self.region_of(x.row(i));
            rows[r].extend_from_slice(x.row(i));
            ys[r].push(yi);
        }

        self.models.clear();
        for (data, yr) in rows.into_iter().zip(ys) {
            let m = data.len() / x.cols();
            debug_assert!(m > 0, "equal-count split leaves no empty region");
            let xr = Matrix::from_vec(m, x.cols(), data);
            let mut model = self.template.clone();
            model.fit_optimized(&xr, &yr, opts)?;
            self.models.push(model);
        }
        Ok(())
    }

    /// Predict by routing each query row to its region's model.
    ///
    /// Rows are bucketed by region and each region's model predicts its
    /// bucket in one batched call, so per-query overhead (a 1×d matrix
    /// allocation and a fresh kernel-vector buffer per row in the
    /// pointwise path) is paid once per region instead of once per
    /// candidate — the difference between routing 10⁵ grid points and
    /// crawling them. Each row's numbers are bitwise identical to
    /// [`LocalGpModel::predict_one`]: batching only regroups the loop,
    /// the per-row arithmetic is unchanged. One scratch matrix is reused
    /// across the region buckets.
    pub fn predict(&self, xs: &Matrix) -> Result<Prediction, GpError> {
        if self.models.is_empty() {
            return Err(GpError::NotFitted);
        }
        self.check_axis("local predict", xs.shape())?;
        let m = xs.rows();
        let k = self.models.len();
        let mut region_rows: Vec<Vec<usize>> = vec![Vec::new(); k];
        for q in 0..m {
            region_rows[self.region_of(xs.row(q))].push(q);
        }
        let mut mean = vec![0.0; m];
        let mut std = vec![0.0; m];
        let mut scratch = Matrix::zeros(0, xs.cols());
        for (rows, model) in region_rows.iter().zip(&self.models) {
            if rows.is_empty() {
                continue;
            }
            xs.select_rows_into(rows, &mut scratch);
            let p = model.predict(&scratch)?;
            for (slot, (mu, sigma)) in rows.iter().zip(p.mean.iter().zip(&p.std)) {
                mean[*slot] = *mu;
                std[*slot] = *sigma;
            }
        }
        Ok(Prediction { mean, std })
    }

    /// Posterior mean/std at one point.
    pub fn predict_one(&self, x: &[f64]) -> Result<(f64, f64), GpError> {
        if self.models.is_empty() {
            return Err(GpError::NotFitted);
        }
        self.check_axis("local predict", (1, x.len()))?;
        self.models[self.region_of(x)].predict_one(x)
    }

    /// Reject points of `shape` too narrow to hold the split axis, which
    /// [`LocalGpModel::region_of`] indexes. `lhs` of the error is the
    /// narrowest accepted shape.
    fn check_axis(&self, op: &'static str, shape: (usize, usize)) -> Result<(), GpError> {
        if shape.1 > self.axis {
            return Ok(());
        }
        Err(GpError::Linalg(al_linalg::LinalgError::ShapeMismatch {
            op,
            lhs: (shape.0, self.axis + 1),
            rhs: shape,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelKind;

    fn template() -> GpModel {
        GpModel::new(KernelKind::Rbf.build(0.5), 1e-4)
    }

    /// Piecewise response with a hard break at x = 0.5 — hostile to a
    /// stationary global GP, easy for a two-region local model.
    fn piecewise_data(n: usize) -> (Matrix, Vec<f64>) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64 / (n - 1) as f64).collect();
        let y: Vec<f64> = xs
            .iter()
            .map(|&x| if x < 0.5 { x } else { 10.0 + (8.0 * x).sin() })
            .collect();
        (Matrix::from_vec(n, 1, xs), y)
    }

    #[test]
    fn unfitted_model_refuses_queries() {
        let m = LocalGpModel::new(template(), 0, 2);
        assert!(matches!(m.predict_one(&[0.5]), Err(GpError::NotFitted)));
        assert_eq!(m.n_regions(), 0);
    }

    #[test]
    fn regions_split_by_equal_counts() {
        let (x, y) = piecewise_data(24);
        let mut m = LocalGpModel::new(template(), 0, 3);
        m.fit_optimized(&x, &y, &FitOptions::warm_start_only())
            .unwrap();
        assert_eq!(m.n_regions(), 3);
        assert_eq!(m.boundaries().len(), 2);
        assert_eq!(m.region_of(&[0.0]), 0);
        assert_eq!(m.region_of(&[0.99]), 2);
    }

    #[test]
    fn local_model_beats_global_on_discontinuity() {
        let (x, y) = piecewise_data(40);
        let opts = FitOptions {
            n_restarts: 1,
            ..FitOptions::default()
        };
        let mut global = template();
        global.fit_optimized(&x, &y, &opts).unwrap();
        let mut local = LocalGpModel::new(template(), 0, 2);
        local.fit_optimized(&x, &y, &opts).unwrap();

        // Evaluate on off-grid points away from the break.
        let probes: Vec<f64> = (0..20)
            .map(|i| 0.025 + 0.95 * i as f64 / 19.0)
            .filter(|&x| (x - 0.5).abs() > 0.06)
            .collect();
        let truth = |x: f64| if x < 0.5 { x } else { 10.0 + (8.0 * x).sin() };
        let err = |pred: &dyn Fn(&[f64]) -> f64| -> f64 {
            probes
                .iter()
                .map(|&p| (pred(&[p]) - truth(p)).abs())
                .sum::<f64>()
                / probes.len() as f64
        };
        let global_err = err(&|p| global.predict_one(p).unwrap().0);
        let local_err = err(&|p| local.predict_one(p).unwrap().0);
        assert!(
            local_err < 0.5 * global_err,
            "local {local_err} vs global {global_err}"
        );
    }

    #[test]
    fn sparse_data_collapses_regions() {
        let (x, y) = piecewise_data(6);
        let mut m = LocalGpModel::new(template(), 0, 4);
        m.fit_optimized(&x, &y, &FitOptions::warm_start_only())
            .unwrap();
        assert_eq!(m.n_regions(), 1, "6 points cannot sustain 4 regions");
    }

    #[test]
    fn duplicate_axis_values_do_not_create_empty_regions() {
        // All x equal: only one region can exist.
        let x = Matrix::from_vec(8, 1, vec![0.5; 8]);
        let y: Vec<f64> = (0..8).map(|i| i as f64 * 0.01).collect();
        let mut m = LocalGpModel::new(template(), 0, 2);
        m.fit_optimized(&x, &y, &FitOptions::warm_start_only())
            .unwrap();
        assert_eq!(m.n_regions(), 1);
        assert!(m.predict_one(&[0.5]).is_ok());
    }

    #[test]
    fn batch_predict_matches_pointwise() {
        let (x, y) = piecewise_data(20);
        let mut m = LocalGpModel::new(template(), 0, 2);
        m.fit_optimized(&x, &y, &FitOptions::warm_start_only())
            .unwrap();
        let q = Matrix::from_vec(3, 1, vec![0.1, 0.5, 0.9]);
        let batch = m.predict(&q).unwrap();
        for i in 0..3 {
            let (mu, sigma) = m.predict_one(q.row(i)).unwrap();
            assert_eq!(batch.mean[i], mu);
            assert_eq!(batch.std[i], sigma);
        }
    }

    #[test]
    fn batch_predict_handles_empty_region_buckets() {
        // Every query lands in the upper region; the lower region's batch
        // is empty and must be skipped without disturbing output order.
        let (x, y) = piecewise_data(20);
        let mut m = LocalGpModel::new(template(), 0, 2);
        m.fit_optimized(&x, &y, &FitOptions::warm_start_only())
            .unwrap();
        let q = Matrix::from_vec(3, 1, vec![0.95, 0.7, 0.8]);
        assert!(q.row(0)[0] > m.boundaries()[0]);
        let batch = m.predict(&q).unwrap();
        for i in 0..3 {
            let (mu, sigma) = m.predict_one(q.row(i)).unwrap();
            assert_eq!(batch.mean[i], mu);
            assert_eq!(batch.std[i], sigma);
        }
    }

    #[test]
    fn points_narrower_than_the_split_axis_are_rejected() {
        fn is_shape_err<T>(r: Result<T, GpError>) -> bool {
            matches!(
                r,
                Err(GpError::Linalg(
                    al_linalg::LinalgError::ShapeMismatch { .. }
                ))
            )
        }
        let (x, y) = piecewise_data(20);
        let mut m = LocalGpModel::new(template(), 1, 2);
        assert!(is_shape_err(m.fit_optimized(
            &x,
            &y,
            &FitOptions::warm_start_only()
        )));
        // Fitted on two columns, split on the second, queried with one.
        let wide: Vec<f64> = x.as_slice().iter().flat_map(|&v| [v, v]).collect();
        let x2 = Matrix::from_vec(20, 2, wide);
        m.fit_optimized(&x2, &y, &FitOptions::warm_start_only())
            .unwrap();
        let narrow = Matrix::from_vec(3, 1, vec![0.1, 0.5, 0.9]);
        assert!(is_shape_err(m.predict(&narrow)));
        assert!(is_shape_err(m.predict_one(&[0.5])));
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut m = LocalGpModel::new(template(), 0, 2);
        let x = Matrix::zeros(3, 1);
        assert!(matches!(
            m.fit_optimized(&x, &[1.0], &FitOptions::warm_start_only()),
            Err(GpError::InvalidTrainingData { .. })
        ));
    }
}
