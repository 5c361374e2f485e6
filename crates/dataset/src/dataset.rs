//! The in-memory dataset: samples plus the fitted feature scaler, with
//! views shaped for GP training (scaled features, log responses) and for
//! metric computation (raw responses).

use crate::sample::Sample;
use crate::transform::{log10_response, FeatureScaler};
use al_linalg::Matrix;
use al_units::LogMegabytes;

/// Optional per-feature pre-transform applied *before* min–max scaling.
///
/// The paper (Section V-D) suggests modeling the node count through its
/// exponent so that `2^3` processors sit equidistant from `2^2` and `2^4`:
/// enabling `log2_p` replaces feature 0 (`p`) with `log2(p)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FeatureMap {
    /// Replace `p` with `log2(p)` before scaling.
    pub log2_p: bool,
}

impl FeatureMap {
    /// Apply the mapping to a raw feature vector.
    pub fn apply(&self, raw: &[f64; 5]) -> [f64; 5] {
        let mut out = *raw;
        if self.log2_p {
            debug_assert!(out[0] > 0.0, "node count must be positive");
            out[0] = out[0].log2();
        }
        out
    }
}

/// An immutable collection of measurements with a feature scaler fitted on
/// the whole collection (the paper scales features over the full dataset
/// before partitioning).
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    samples: Vec<Sample>,
    map: FeatureMap,
    scaler: FeatureScaler,
}

impl Dataset {
    /// Wrap samples, fitting the min–max feature scaler.
    ///
    /// Panics on an empty sample list or non-positive responses (the log
    /// transform requires positivity).
    pub fn new(samples: Vec<Sample>) -> Self {
        Self::with_map(samples, FeatureMap::default())
    }

    /// Like [`Dataset::new`] but with a per-feature pre-transform (e.g.
    /// `log2(p)` spacing of the node-count axis).
    pub fn with_map(samples: Vec<Sample>, map: FeatureMap) -> Self {
        assert!(!samples.is_empty(), "dataset cannot be empty");
        for s in &samples {
            assert!(
                s.cost_node_hours.value() > 0.0
                    && s.memory_mb.value() > 0.0
                    && s.wall_seconds.value() > 0.0,
                "responses must be positive"
            );
        }
        let rows: Vec<[f64; 5]> = samples.iter().map(|s| map.apply(&s.features())).collect();
        let scaler = FeatureScaler::fit(&rows);
        Dataset {
            samples,
            map,
            scaler,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Always false (constructor rejects empty datasets).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Borrow a sample.
    pub fn sample(&self, i: usize) -> &Sample {
        &self.samples[i]
    }

    /// Borrow all samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The fitted feature scaler.
    pub fn scaler(&self) -> &FeatureScaler {
        &self.scaler
    }

    /// Design matrix of unit-cube-scaled (and pre-transformed) features
    /// for the given sample indices (one row per index, in order).
    pub fn features_scaled(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * 5);
        for &i in indices {
            data.extend_from_slice(&self.scaled_row(i));
        }
        Matrix::from_vec(indices.len(), 5, data)
    }

    /// The scaled feature row of one sample.
    pub fn scaled_row(&self, index: usize) -> [f64; 5] {
        self.scaler
            .transform(&self.map.apply(&self.samples[index].features()))
    }

    /// Raw cost responses as bare node-hour magnitudes for the given
    /// indices — the numeric-kernel view the GP and metrics consume.
    pub fn raw_cost(&self, indices: &[usize]) -> Vec<f64> {
        indices
            .iter()
            .map(|&i| self.samples[i].cost_node_hours.value())
            .collect()
    }

    /// Raw memory responses as bare MB magnitudes for the given indices.
    pub fn raw_memory(&self, indices: &[usize]) -> Vec<f64> {
        indices
            .iter()
            .map(|&i| self.samples[i].memory_mb.value())
            .collect()
    }

    /// `log10` cost responses — what the cost GP trains on.
    pub fn log_cost(&self, indices: &[usize]) -> Vec<f64> {
        indices
            .iter()
            .map(|&i| log10_response(self.samples[i].cost_node_hours.value()))
            .collect()
    }

    /// `log10` memory responses — what the memory GP trains on.
    pub fn log_memory(&self, indices: &[usize]) -> Vec<f64> {
        indices
            .iter()
            .map(|&i| log10_response(self.samples[i].memory_mb.value()))
            .collect()
    }

    /// The paper's memory limit: the `quantile`-fraction of the largest
    /// log-transformed memory response, returned in log10 MB. The paper
    /// uses 0.95 ("95% of the largest log-transformed memory usage").
    pub fn memory_limit_log(&self, quantile: f64) -> LogMegabytes {
        let max_log = self
            .samples
            .iter()
            .map(|s| log10_response(s.memory_mb.value()))
            .fold(f64::NEG_INFINITY, f64::max);
        LogMegabytes::new(max_log * quantile)
    }

    /// Alternative limit definition: the `q`-quantile of the memory
    /// *distribution* (log10 MB), so exactly `1−q` of the jobs violate it.
    ///
    /// Our machine model's memory tail is shorter than Edison's (the
    /// paper's limit left a sizeable violating fraction); this definition
    /// pins that fraction directly, which the regret experiments need.
    pub fn memory_limit_log_percentile(&self, q: f64) -> LogMegabytes {
        let mems: Vec<f64> = self.samples.iter().map(|s| s.memory_mb.value()).collect();
        LogMegabytes::new(log10_response(al_linalg::stats::quantile(&mems, q)))
    }

    /// Fraction of samples whose memory meets or exceeds a log-space limit.
    pub fn violating_fraction(&self, limit_log: LogMegabytes) -> f64 {
        let limit = limit_log.to_megabytes();
        self.samples.iter().filter(|s| s.memory_mb >= limit).count() as f64
            / self.samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use al_amr_sim::SimulationConfig;
    use al_units::{Megabytes, NodeHours, Seconds};

    pub(crate) fn synthetic(n: usize) -> Dataset {
        let samples: Vec<Sample> = (0..n)
            .map(|i| {
                let t = i as f64 / n.max(2) as f64;
                Sample {
                    config: SimulationConfig {
                        p: 4 + (i % 4) as u32 * 4,
                        mx: 8 + (i % 3) * 8,
                        maxlevel: 3 + (i % 4) as u8,
                        r0: 0.2 + 0.3 * t,
                        rhoin: 0.02 + 0.4 * t,
                    },
                    wall_seconds: Seconds::new(2.0 + 100.0 * t),
                    cost_node_hours: NodeHours::new(0.01 + 5.0 * t * t),
                    memory_mb: Megabytes::new(0.05 + 20.0 * t),
                }
            })
            .collect();
        Dataset::new(samples)
    }

    #[test]
    fn features_scaled_lie_in_unit_cube() {
        let d = synthetic(20);
        let idx: Vec<usize> = (0..d.len()).collect();
        let x = d.features_scaled(&idx);
        assert_eq!(x.shape(), (20, 5));
        for i in 0..x.rows() {
            for v in x.row(i) {
                assert!((0.0..=1.0).contains(v), "{v}");
            }
        }
    }

    #[test]
    fn log_views_match_raw_views() {
        let d = synthetic(10);
        let idx = vec![0, 3, 7];
        let raw = d.raw_cost(&idx);
        let logv = d.log_cost(&idx);
        for (r, l) in raw.iter().zip(&logv) {
            assert!((l - r.log10()).abs() < 1e-12);
        }
        let rawm = d.raw_memory(&idx);
        let logm = d.log_memory(&idx);
        for (r, l) in rawm.iter().zip(&logm) {
            assert!((l - r.log10()).abs() < 1e-12);
        }
    }

    #[test]
    fn index_order_is_respected() {
        let d = synthetic(10);
        let a = d.raw_cost(&[2, 5]);
        let b = d.raw_cost(&[5, 2]);
        assert_eq!(a[0], b[1]);
        assert_eq!(a[1], b[0]);
    }

    #[test]
    fn memory_limit_is_fraction_of_max_log() {
        let d = synthetic(10);
        let max_log = d
            .samples()
            .iter()
            .map(|s| s.memory_mb.value().log10())
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((d.memory_limit_log(0.95).value() - 0.95 * max_log).abs() < 1e-12);
        assert_eq!(d.memory_limit_log(1.0).value(), max_log);
    }

    #[test]
    fn percentile_limit_pins_the_violating_fraction() {
        let d = synthetic(20);
        let limit = d.memory_limit_log_percentile(0.9);
        let frac = d.violating_fraction(limit);
        // quantile interpolation: ~10% at or above the 90th percentile.
        assert!((0.05..=0.2).contains(&frac), "fraction {frac}");
        // A limit above the maximum leaves zero violators.
        assert_eq!(d.violating_fraction(d.memory_limit_log(1.0) + 0.1), 0.0);
        // A limit below the minimum catches everything.
        assert_eq!(
            d.violating_fraction(al_units::LogMegabytes::new(-10.0)),
            1.0
        );
    }

    #[test]
    fn log2_p_map_respaces_the_node_axis() {
        let base = synthetic(16);
        let mapped = Dataset::with_map(base.samples().to_vec(), FeatureMap { log2_p: true });
        assert!(mapped.map.log2_p);
        assert!(!base.map.log2_p);
        // The synthetic p values are 4, 8, 12, 16: min–max scaling after
        // the log2 map places each p at (log2 p − 2) / (log2 16 − 2).
        for i in 0..mapped.len() {
            let p = mapped.sample(i).config.p as f64;
            let scaled = mapped.scaled_row(i)[0];
            let expected = (p.log2() - 2.0) / 2.0;
            assert!(
                (scaled - expected).abs() < 1e-12,
                "p={p}: scaled {scaled} vs {expected}"
            );
        }
        // In the linear mapping, p=8 sits at (8-4)/(16-4) = 1/3, while the
        // log2 axis places it at 0.5 — the respacing the paper proposes.
        let i8 = (0..base.len())
            .find(|&i| base.sample(i).config.p == 8)
            .unwrap();
        assert!((base.scaled_row(i8)[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((mapped.scaled_row(i8)[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn feature_map_only_touches_p() {
        let map = FeatureMap { log2_p: true };
        let mapped = map.apply(&[16.0, 24.0, 5.0, 0.3, 0.1]);
        assert_eq!(mapped, [4.0, 24.0, 5.0, 0.3, 0.1]);
        let identity = FeatureMap::default();
        assert_eq!(
            identity.apply(&[16.0, 24.0, 5.0, 0.3, 0.1]),
            [16.0, 24.0, 5.0, 0.3, 0.1]
        );
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_dataset_rejected() {
        Dataset::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_response_rejected() {
        let mut s = *synthetic(2).sample(0);
        s.cost_node_hours = NodeHours::new(0.0);
        Dataset::new(vec![s]);
    }
}
