//! Per-iteration records of one AL trajectory — the raw material every
//! figure of the paper is computed from.

use crate::stopping::StopReason;
use al_units::{Megabytes, NodeHours};

/// What happened at one AL iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// Iteration number (0-based).
    pub iteration: usize,
    /// Dataset row index of the selected experiment.
    pub dataset_index: usize,
    /// Actual cost of the selected experiment.
    pub cost: NodeHours,
    /// Actual memory of the selected experiment.
    pub memory: Megabytes,
    /// Individual regret `IR_i` of this selection (Eq. 11).
    pub regret: NodeHours,
    /// Cumulative cost `CC` up to and including this iteration.
    pub cumulative_cost: NodeHours,
    /// Cumulative regret `CR` up to and including this iteration.
    pub cumulative_regret: NodeHours,
    /// Non-log RMSE of the cost model on the Test partition after
    /// retraining with this sample.
    pub rmse_cost: f64,
    /// Non-log RMSE of the memory model on the Test partition after
    /// retraining with this sample.
    pub rmse_mem: f64,
}

/// A complete AL run: strategy, per-iteration records, and how it ended.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Strategy label (e.g. `"RGMA"`).
    pub strategy: String,
    /// Size of the Initial partition used.
    pub n_init: usize,
    /// Cost-model RMSE before any AL selection (after the initial fit).
    pub initial_rmse_cost: f64,
    /// Memory-model RMSE before any AL selection.
    pub initial_rmse_mem: f64,
    /// One record per executed iteration, in order.
    pub records: Vec<IterationRecord>,
    /// Why the trajectory stopped.
    pub stop_reason: StopReason,
}

impl Trajectory {
    /// Number of AL iterations executed.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no iterations ran.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Actual costs of the first `n` selections (Fig. 2's violin input),
    /// as bare node-hour magnitudes ready for violin statistics.
    pub fn selected_costs(&self, n: usize) -> Vec<f64> {
        self.records
            .iter()
            .take(n)
            .map(|r| r.cost.value())
            .collect()
    }

    /// Final cumulative cost.
    pub fn total_cost(&self) -> NodeHours {
        self.records
            .last()
            .map_or(NodeHours::default(), |r| r.cumulative_cost)
    }

    /// Final cumulative regret.
    pub fn total_regret(&self) -> NodeHours {
        self.records
            .last()
            .map_or(NodeHours::default(), |r| r.cumulative_regret)
    }

    /// Number of memory-violating selections.
    pub fn violations(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.regret.value() > 0.0)
            .count()
    }
}

/// Average a per-iteration quantity across trajectories of possibly
/// different lengths (RGMA stops early): entry `i` of the result averages
/// `f(records[i])` over every trajectory that reached iteration `i`.
pub fn mean_curve(trajectories: &[Trajectory], f: impl Fn(&IterationRecord) -> f64) -> Vec<f64> {
    let max_len = trajectories.iter().map(|t| t.len()).max().unwrap_or(0);
    let mut out = Vec::with_capacity(max_len);
    for i in 0..max_len {
        let values: Vec<f64> = trajectories
            .iter()
            .filter_map(|t| t.records.get(i))
            .map(&f)
            .collect();
        out.push(al_linalg::stats::mean(&values));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(i: usize, cost: f64, regret: f64) -> IterationRecord {
        IterationRecord {
            iteration: i,
            dataset_index: i,
            cost: NodeHours::new(cost),
            memory: Megabytes::new(1.0),
            regret: NodeHours::new(regret),
            cumulative_cost: NodeHours::default(),
            cumulative_regret: NodeHours::default(),
            rmse_cost: 1.0 / (i + 1) as f64,
            rmse_mem: 2.0 / (i + 1) as f64,
        }
    }

    fn trajectory(n: usize) -> Trajectory {
        let mut records: Vec<IterationRecord> =
            (0..n).map(|i| record(i, (i + 1) as f64, 0.0)).collect();
        let mut cc = NodeHours::default();
        for r in &mut records {
            cc += r.cost;
            r.cumulative_cost = cc;
        }
        Trajectory {
            strategy: "test".into(),
            n_init: 1,
            initial_rmse_cost: 5.0,
            initial_rmse_mem: 6.0,
            records,
            stop_reason: StopReason::ActiveExhausted,
        }
    }

    #[test]
    fn accessors() {
        let t = trajectory(3);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.selected_costs(2), vec![1.0, 2.0]);
        assert_eq!(t.selected_costs(10).len(), 3);
        assert!((t.total_cost().value() - 6.0).abs() < 1e-12);
        assert_eq!(t.total_regret().value(), 0.0);
        assert_eq!(t.violations(), 0);
    }

    #[test]
    fn violations_count_positive_regrets() {
        let mut t = trajectory(3);
        t.records[1].regret = NodeHours::new(2.0);
        assert_eq!(t.violations(), 1);
    }

    #[test]
    fn mean_curve_handles_ragged_lengths() {
        let a = trajectory(3);
        let b = trajectory(1);
        let curve = mean_curve(&[a, b], |r| r.cost.value());
        assert_eq!(curve.len(), 3);
        assert!((curve[0] - 1.0).abs() < 1e-12); // both contribute 1.0
        assert!((curve[1] - 2.0).abs() < 1e-12); // only the longer one
        assert!((curve[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn mean_curve_of_nothing_is_empty() {
        assert!(mean_curve(&[], |r| r.cost.value()).is_empty());
    }
}
