//! What a selection algorithm is allowed to see: the GP predictions for
//! every remaining candidate (paper Algorithm 1, lines 3–5).

use al_units::LogMegabytes;

/// Model predictions over the remaining Active candidates, all in the
/// transformed spaces the models work in (log10 responses, unit-cube
/// features). Index `i` refers to the `i`-th remaining candidate; the
/// procedure maps selected indices back to dataset rows.
#[derive(Debug, Clone, Copy)]
pub struct SelectionContext<'a> {
    /// Cost-model posterior means `μ_cost` (log10 node-hours).
    pub mu_cost: &'a [f64],
    /// Cost-model posterior standard deviations `σ_cost`.
    pub sigma_cost: &'a [f64],
    /// Memory-model posterior means `μ_mem` (log10 MB).
    pub mu_mem: &'a [f64],
    /// Memory-model posterior standard deviations `σ_mem`.
    pub sigma_mem: &'a [f64],
    /// Memory limit `L_mem` in log10 MB, when the workflow imposes one.
    pub mem_limit_log: Option<LogMegabytes>,
}

impl<'a> SelectionContext<'a> {
    /// Number of remaining candidates.
    pub fn len(&self) -> usize {
        self.mu_cost.len()
    }

    /// True when no candidates remain.
    pub fn is_empty(&self) -> bool {
        self.mu_cost.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_and_is_empty() {
        let mu = [0.1, 0.2];
        let ctx = SelectionContext {
            mu_cost: &mu,
            sigma_cost: &mu,
            mu_mem: &mu,
            sigma_mem: &mu,
            mem_limit_log: None,
        };
        assert_eq!(ctx.len(), 2);
        assert!(!ctx.is_empty());
    }
}
