//! The candidate-selection algorithms: the paper's five (Section IV-B) and
//! the two extensions of the strategy ablation, one [`StrategyKind`] arm
//! each.

use crate::context::SelectionContext;
use al_linalg::ops::argmax;
use al_linalg::rng::weighted_index;
use rand::{Rng, RngExt};

/// Runtime-selectable strategy family — the unit of comparison in every
/// figure of the paper. [`StrategyKind::select`] runs the algorithm.
///
/// # Examples
///
/// ```
/// use al_core::{SelectionContext, StrategyKind};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// // Three candidates; the middle one is the most uncertain.
/// let mu = [0.0, 0.5, 1.0];
/// let sigma = [0.1, 0.9, 0.2];
/// let ctx = SelectionContext {
///     mu_cost: &mu,
///     sigma_cost: &sigma,
///     mu_mem: &mu,
///     sigma_mem: &sigma,
///     mem_limit_log: None,
/// };
/// let mut rng = StdRng::seed_from_u64(0);
/// let pick = StrategyKind::MaxSigma.select(&ctx, &mut rng);
/// assert_eq!(pick, Some(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StrategyKind {
    /// Uniform random sampling among the remaining candidates, ignoring the
    /// models entirely — the paper's non-adaptive reference point. In
    /// sequential AL it pays the full retraining cost without using any of
    /// the information.
    RandUniform,
    /// Uncertainty sampling on the cost model, `argmax σ_cost` (called
    /// Variance Reduction in the authors' earlier work). Pure exploration:
    /// it chases the least-known region of the input space regardless of
    /// how expensive the experiment will be.
    MaxSigma,
    /// The greedy "cost-efficient" algorithm `argmax(σ_cost − μ_cost)` — in
    /// the log10 space the maximal uncertainty-to-cost ratio in natural
    /// units.
    ///
    /// As the paper observes, the variations of `μ_cost` dwarf those of
    /// `σ_cost` (the responses span orders of magnitude while posterior
    /// standard deviations stay comparable), so in practice this degrades
    /// to greedily selecting the **cheapest predicted** candidate — hence
    /// the name. Pure exploitation.
    MinPred,
    /// Randomized goodness sampling, MinPred's exploration-capable sibling:
    /// draw from `g_i ∝ base^(σ_cost,i − μ_cost,i)` (normalized to 1).
    ///
    /// Base 10 matches the log10 response transform: a candidate predicted
    /// 10× cheaper is 10× more likely to be drawn. Most draws land near
    /// MinPred's choice, but occasionally an expensive, informative
    /// candidate is selected — the exploration the paper adds to avoid
    /// exploiting only the cheap corner of the input space.
    RandGoodness {
        /// Exponent base, > 1 (the paper argues for 10, matching the log10
        /// response transform).
        base: f64,
    },
    /// RGMA — RandGoodness with Memory Awareness (the paper's Algorithm 2
    /// and primary contribution): candidates whose **predicted** memory
    /// `μ_mem` meets or exceeds the limit `L_mem` are marked undesirable and
    /// removed, and the goodness draw happens over the satisfying remainder
    /// only.
    ///
    /// When every remaining candidate is predicted to violate the limit,
    /// `select` returns `None`, which the AL procedure treats as early
    /// termination — the paper's stopping rule "triggered only when all
    /// remaining samples are likely to exceed the memory limit".
    Rgma {
        /// Exponent base for the goodness distribution, > 1.
        base: f64,
    },
    /// *Extension:* MaxSigma restricted to candidates whose predicted memory
    /// satisfies `L_mem`. Separates the paper's two mechanisms — memory
    /// filtering and goodness-weighted cost awareness — so the ablation can
    /// attribute regret reduction to the filter alone.
    MaxSigmaMa,
    /// *Extension:* deterministic `argmax(σ_cost − λ·μ_cost)`. `λ = 0`
    /// recovers MaxSigma (pure exploration); `λ = 1` recovers MinPred
    /// (which in practice exploits the cheapest prediction). Intermediate
    /// values trade exploration against cost.
    CostWeightedSigma {
        /// Exploration/exploitation trade-off weight in `[0, 1]`.
        lambda: f64,
    },
}

impl StrategyKind {
    /// The paper's five algorithms with default parameters.
    pub fn paper_five() -> [StrategyKind; 5] {
        [
            StrategyKind::RandUniform,
            StrategyKind::MaxSigma,
            StrategyKind::MinPred,
            StrategyKind::RandGoodness { base: 10.0 },
            StrategyKind::Rgma { base: 10.0 },
        ]
    }

    /// The four memory-oblivious algorithms (Fig. 2's comparison).
    pub fn cost_only_four() -> [StrategyKind; 4] {
        [
            StrategyKind::RandUniform,
            StrategyKind::MaxSigma,
            StrategyKind::MinPred,
            StrategyKind::RandGoodness { base: 10.0 },
        ]
    }

    /// The kind itself. Kept so `kind.build().select(..)` still compiles:
    /// perfbench's traced session replica and the legacy-loop oracle in
    /// `tests/session_parity.rs` are written that way, and both are frozen
    /// copies. It goes when the replica does.
    pub fn build(&self) -> StrategyKind {
        *self
    }

    /// Select the index of the next candidate to run from the models'
    /// predictions over the remaining pool, or `None` to stop.
    ///
    /// `None` means the algorithm refuses every remaining candidate: the
    /// pool is empty; RGMA or MaxSigmaMA finds every candidate over the
    /// memory limit, or has no limit to check against; or the kind's
    /// parameter is out of range, which [`SessionState::start_warm`]
    /// rejects before any fit.
    ///
    /// Ties: MaxSigma, MinPred and CostWeightedSigma return the lowest
    /// tied index, MaxSigmaMA the highest.
    ///
    /// [`SessionState::start_warm`]: crate::SessionState::start_warm
    pub fn select(&self, ctx: &SelectionContext<'_>, rng: &mut dyn Rng) -> Option<usize> {
        if self.parameter_error().is_some() {
            return None;
        }
        match *self {
            StrategyKind::RandUniform => {
                if ctx.is_empty() {
                    return None;
                }
                Some(rng.random_range(0..ctx.len()))
            }
            StrategyKind::MaxSigma => argmax(ctx.sigma_cost),
            StrategyKind::MinPred => {
                let score: Vec<f64> = ctx
                    .sigma_cost
                    .iter()
                    .zip(ctx.mu_cost)
                    .map(|(s, m)| s - m)
                    .collect();
                argmax(&score)
            }
            StrategyKind::RandGoodness { base } => {
                let all: Vec<usize> = (0..ctx.len()).collect();
                let weights = goodness_weights(base, ctx.mu_cost, ctx.sigma_cost, &all)?;
                weighted_index(rng, &weights)
            }
            StrategyKind::Rgma { base } => {
                // `run_trajectory` validates that memory-aware strategies
                // get a limit; for direct callers without one, refusing
                // every candidate (None) is the safe degradation.
                let limit = ctx.mem_limit_log?;
                // Algorithm 2, lines 1–2: classify candidates as
                // satisfying (μ_mem < L_mem) or exceeding.
                let satisfying: Vec<usize> = (0..ctx.len())
                    .filter(|&i| limit.admits(ctx.mu_mem[i]))
                    .collect();
                // Lines 3–5: goodness-weighted draw over the satisfying set.
                let weights = goodness_weights(base, ctx.mu_cost, ctx.sigma_cost, &satisfying)?;
                weighted_index(rng, &weights).map(|k| satisfying[k])
            }
            StrategyKind::MaxSigmaMa => {
                // Same refusal without a limit as RGMA. `max_by` keeps the
                // last of equal σ (unlike `argmax`, the first); the
                // dataset's repeated configurations make such ties real.
                let limit = ctx.mem_limit_log?;
                (0..ctx.len())
                    .filter(|&i| limit.admits(ctx.mu_mem[i]))
                    .max_by(|&a, &b| {
                        ctx.sigma_cost[a]
                            .partial_cmp(&ctx.sigma_cost[b])
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
            }
            StrategyKind::CostWeightedSigma { lambda } => {
                let score: Vec<f64> = ctx
                    .sigma_cost
                    .iter()
                    .zip(ctx.mu_cost)
                    .map(|(s, m)| s - lambda * m)
                    .collect();
                argmax(&score)
            }
        }
    }

    /// Why the kind's parameter is out of range, if it is: a goodness
    /// `base` must exceed 1 (NaN fails) and a `lambda` must lie in
    /// `[0, 1]`.
    pub(crate) fn parameter_error(&self) -> Option<&'static str> {
        match *self {
            StrategyKind::RandGoodness { base } | StrategyKind::Rgma { base }
                if base.is_nan() || base <= 1.0 =>
            {
                Some("goodness base must exceed 1")
            }
            StrategyKind::CostWeightedSigma { lambda } if !(0.0..=1.0).contains(&lambda) => {
                Some("lambda must be in [0, 1]")
            }
            _ => None,
        }
    }

    /// Display label (matches the paper's algorithm names).
    pub fn label(&self) -> &'static str {
        match self {
            StrategyKind::RandUniform => "RandUniform",
            StrategyKind::MaxSigma => "MaxSigma",
            StrategyKind::MinPred => "MinPred",
            StrategyKind::RandGoodness { .. } => "RandGoodness",
            StrategyKind::Rgma { .. } => "RGMA",
            StrategyKind::MaxSigmaMa => "MaxSigmaMA",
            StrategyKind::CostWeightedSigma { .. } => "CostWeightedSigma",
        }
    }

    /// Whether the strategy consults the memory model.
    pub fn is_memory_aware(&self) -> bool {
        matches!(self, StrategyKind::Rgma { .. } | StrategyKind::MaxSigmaMa)
    }
}

/// Compute the normalized goodness distribution `g_i ∝ base^(σ_i − μ_i)`
/// over the given candidate indices (shared by RandGoodness and RGMA).
///
/// Returns `None` when the weights cannot form a distribution (no
/// candidates, or degenerate values).
fn goodness_weights(base: f64, mu: &[f64], sigma: &[f64], indices: &[usize]) -> Option<Vec<f64>> {
    if indices.is_empty() {
        return None;
    }
    // Subtract the max exponent before exponentiating for numerical
    // stability; normalization cancels the shift.
    let exps: Vec<f64> = indices.iter().map(|&i| sigma[i] - mu[i]).collect();
    let max_e = exps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !max_e.is_finite() {
        return None;
    }
    let weights: Vec<f64> = exps.iter().map(|e| base.powf(e - max_e)).collect();
    let total: f64 = weights.iter().sum();
    if total <= 0.0 || !total.is_finite() {
        return None;
    }
    Some(weights.iter().map(|w| w / total).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A context whose four vectors are owned, for strategy unit tests.
    struct OwnedContext {
        mu_cost: Vec<f64>,
        sigma_cost: Vec<f64>,
        mu_mem: Vec<f64>,
        sigma_mem: Vec<f64>,
        mem_limit_log: Option<al_units::LogMegabytes>,
    }

    impl OwnedContext {
        fn uniform(n: usize) -> Self {
            OwnedContext {
                mu_cost: vec![0.0; n],
                sigma_cost: vec![1.0; n],
                mu_mem: vec![0.0; n],
                sigma_mem: vec![1.0; n],
                mem_limit_log: None,
            }
        }

        fn with_limit(n: usize, limit: f64) -> Self {
            let mut owned = OwnedContext::uniform(n);
            owned.mem_limit_log = Some(al_units::LogMegabytes::new(limit));
            owned
        }

        fn ctx(&self) -> SelectionContext<'_> {
            SelectionContext {
                mu_cost: &self.mu_cost,
                sigma_cost: &self.sigma_cost,
                mu_mem: &self.mu_mem,
                sigma_mem: &self.sigma_mem,
                mem_limit_log: self.mem_limit_log,
            }
        }
    }

    const ALL_SEVEN: [StrategyKind; 7] = [
        StrategyKind::RandUniform,
        StrategyKind::MaxSigma,
        StrategyKind::MinPred,
        StrategyKind::RandGoodness { base: 10.0 },
        StrategyKind::Rgma { base: 10.0 },
        StrategyKind::MaxSigmaMa,
        StrategyKind::CostWeightedSigma { lambda: 0.5 },
    ];

    #[test]
    fn only_rgma_is_memory_aware() {
        for kind in StrategyKind::paper_five() {
            assert_eq!(
                kind.is_memory_aware(),
                matches!(kind, StrategyKind::Rgma { .. })
            );
        }
        assert_eq!(StrategyKind::cost_only_four().len(), 4);
        assert!(StrategyKind::cost_only_four()
            .iter()
            .all(|k| !k.is_memory_aware()));
    }

    #[test]
    fn extension_kinds_label_and_memory_awareness() {
        assert_eq!(StrategyKind::MaxSigmaMa.label(), "MaxSigmaMA");
        assert_eq!(
            StrategyKind::CostWeightedSigma { lambda: 0.5 }.label(),
            "CostWeightedSigma"
        );
        assert!(StrategyKind::MaxSigmaMa.is_memory_aware());
        assert!(!StrategyKind::CostWeightedSigma { lambda: 0.5 }.is_memory_aware());
        // The paper's five remain exactly five.
        assert_eq!(StrategyKind::paper_five().len(), 5);
    }

    #[test]
    fn out_of_range_parameters_refuse_every_candidate() {
        let owned = OwnedContext::with_limit(3, 10.0);
        let mut rng = StdRng::seed_from_u64(12);
        for base in [1.0, 0.5, 0.0, -2.0, f64::NAN] {
            for kind in [
                StrategyKind::RandGoodness { base },
                StrategyKind::Rgma { base },
            ] {
                assert_eq!(kind.parameter_error(), Some("goodness base must exceed 1"));
                assert_eq!(kind.select(&owned.ctx(), &mut rng), None, "{kind:?}");
            }
        }
        for lambda in [-0.1, 1.5, f64::NAN] {
            let kind = StrategyKind::CostWeightedSigma { lambda };
            assert_eq!(kind.parameter_error(), Some("lambda must be in [0, 1]"));
            assert_eq!(kind.select(&owned.ctx(), &mut rng), None, "{kind:?}");
        }
        for kind in ALL_SEVEN {
            assert_eq!(kind.parameter_error(), None, "{kind:?}");
        }
    }

    #[test]
    fn empty_pool_returns_none() {
        let owned = OwnedContext::with_limit(0, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for kind in ALL_SEVEN {
            assert_eq!(kind.select(&owned.ctx(), &mut rng), None, "{kind:?}");
        }
    }

    /// Exact ties (the dataset's repeated configurations give equal μ and
    /// σ): the deterministic kinds' tie rules, and the goodness kinds'
    /// draw over a flat distribution.
    #[test]
    fn exact_ties_resolve_by_index() {
        let mut owned = OwnedContext::with_limit(5, 1.0);
        owned.mu_cost = vec![0.5, -1.0, -1.0, 0.5, -1.0];
        owned.sigma_cost = vec![0.1, 0.4, 0.4, 0.1, 0.4];
        // Candidate 4 ties 1 and 2 but is predicted over the limit.
        owned.mu_mem = vec![0.0, 0.0, 0.0, 0.0, 2.0];
        let mut rng = StdRng::seed_from_u64(13);
        let pick = |kind: StrategyKind, rng: &mut StdRng| kind.select(&owned.ctx(), rng);
        assert_eq!(pick(StrategyKind::MaxSigma, &mut rng), Some(1));
        assert_eq!(pick(StrategyKind::MinPred, &mut rng), Some(1));
        for lambda in [0.0, 0.5, 1.0] {
            let kind = StrategyKind::CostWeightedSigma { lambda };
            assert_eq!(pick(kind, &mut rng), Some(1), "λ = {lambda}");
        }
        assert_eq!(pick(StrategyKind::MaxSigmaMa, &mut rng), Some(2));

        // All σ − μ equal and nothing over the limit: RGMA's filter keeps
        // every index, so both goodness kinds draw the same pick from the
        // same seed.
        let mut flat = OwnedContext::with_limit(6, 10.0);
        flat.mu_cost = vec![-0.5; 6];
        flat.sigma_cost = vec![0.25; 6];
        for seed in 0..20 {
            let goodness = StrategyKind::RandGoodness { base: 10.0 }
                .select(&flat.ctx(), &mut StdRng::seed_from_u64(seed));
            let rgma = StrategyKind::Rgma { base: 10.0 }
                .select(&flat.ctx(), &mut StdRng::seed_from_u64(seed));
            assert!(goodness.is_some());
            assert_eq!(goodness, rgma, "seed {seed}");
        }
    }

    mod rand_uniform {
        use super::*;

        #[test]
        fn covers_all_candidates_roughly_uniformly() {
            let owned = OwnedContext::uniform(4);
            let mut rng = StdRng::seed_from_u64(1);
            let mut counts = [0usize; 4];
            for _ in 0..4000 {
                let pick = StrategyKind::RandUniform.select(&owned.ctx(), &mut rng);
                counts[pick.unwrap()] += 1;
            }
            for &c in &counts {
                assert!((800..1200).contains(&c), "counts {counts:?}");
            }
        }
    }

    mod max_sigma {
        use super::*;

        #[test]
        fn picks_largest_sigma() {
            let mut owned = OwnedContext::uniform(4);
            owned.sigma_cost = vec![0.1, 0.9, 0.5, 0.2];
            let mut rng = StdRng::seed_from_u64(1);
            let pick = StrategyKind::MaxSigma.select(&owned.ctx(), &mut rng);
            assert_eq!(pick, Some(1));
        }

        #[test]
        fn ignores_cost_mean_entirely() {
            let mut owned = OwnedContext::uniform(3);
            owned.sigma_cost = vec![0.5, 0.6, 0.4];
            owned.mu_cost = vec![-100.0, 100.0, 0.0]; // wildly different costs
            let mut rng = StdRng::seed_from_u64(1);
            let pick = StrategyKind::MaxSigma.select(&owned.ctx(), &mut rng);
            assert_eq!(pick, Some(1));
        }
    }

    mod min_pred {
        use super::*;

        #[test]
        fn degenerates_to_cheapest_when_sigmas_are_comparable() {
            let mut owned = OwnedContext::uniform(4);
            owned.mu_cost = vec![2.0, -1.0, 0.5, 1.0]; // candidate 1 is cheapest
            owned.sigma_cost = vec![0.1, 0.12, 0.09, 0.11];
            let mut rng = StdRng::seed_from_u64(1);
            let pick = StrategyKind::MinPred.select(&owned.ctx(), &mut rng);
            assert_eq!(pick, Some(1));
        }

        #[test]
        fn large_uncertainty_can_still_win_in_principle() {
            let mut owned = OwnedContext::uniform(2);
            owned.mu_cost = vec![0.0, 0.5];
            owned.sigma_cost = vec![0.0, 1.0]; // σ−μ: 0.0 vs 0.5
            let mut rng = StdRng::seed_from_u64(1);
            let pick = StrategyKind::MinPred.select(&owned.ctx(), &mut rng);
            assert_eq!(pick, Some(1));
        }
    }

    mod rand_goodness {
        use super::*;

        const KIND: StrategyKind = StrategyKind::RandGoodness { base: 10.0 };

        #[test]
        fn favors_cheap_candidates_ten_to_one_per_decade() {
            let mut owned = OwnedContext::uniform(2);
            owned.mu_cost = vec![0.0, 1.0]; // one decade apart
            owned.sigma_cost = vec![0.2, 0.2];
            let mut rng = StdRng::seed_from_u64(2);
            let mut counts = [0usize; 2];
            for _ in 0..22_000 {
                counts[KIND.select(&owned.ctx(), &mut rng).unwrap()] += 1;
            }
            let ratio = counts[0] as f64 / counts[1] as f64;
            assert!((ratio - 10.0).abs() < 1.5, "ratio {ratio}");
        }

        #[test]
        fn still_explores_expensive_candidates() {
            let mut owned = OwnedContext::uniform(2);
            owned.mu_cost = vec![0.0, 2.0]; // 100× more expensive
            owned.sigma_cost = vec![0.1, 0.1];
            let mut rng = StdRng::seed_from_u64(3);
            let picked_expensive = (0..20_000)
                .filter(|_| KIND.select(&owned.ctx(), &mut rng) == Some(1))
                .count();
            assert!(
                picked_expensive > 50,
                "exploration happens: {picked_expensive}"
            );
            assert!(picked_expensive < 1000, "but rarely: {picked_expensive}");
        }

        #[test]
        fn uncertainty_raises_selection_probability() {
            let mut owned = OwnedContext::uniform(2);
            owned.mu_cost = vec![0.0, 0.0];
            owned.sigma_cost = vec![0.05, 1.05]; // candidate 1 far less known
            let mut rng = StdRng::seed_from_u64(4);
            let picked_uncertain = (0..10_000)
                .filter(|_| KIND.select(&owned.ctx(), &mut rng) == Some(1))
                .count();
            assert!(picked_uncertain > 8500, "{picked_uncertain}");
        }
    }

    mod rgma {
        use super::*;

        const KIND: StrategyKind = StrategyKind::Rgma { base: 10.0 };

        #[test]
        fn never_selects_predicted_violators() {
            let mut owned = OwnedContext::with_limit(4, 1.0);
            owned.mu_mem = vec![0.5, 1.5, 0.8, 2.0]; // 1 and 3 exceed
            owned.mu_cost = vec![0.0; 4];
            owned.sigma_cost = vec![0.1; 4];
            let mut rng = StdRng::seed_from_u64(6);
            for _ in 0..2000 {
                let pick = KIND.select(&owned.ctx(), &mut rng).unwrap();
                assert!(pick == 0 || pick == 2, "picked violator {pick}");
            }
        }

        #[test]
        fn limit_is_exclusive_at_the_boundary() {
            // μ_mem exactly equal to L_mem counts as exceeding (μ < L required).
            let mut owned = OwnedContext::with_limit(2, 1.0);
            owned.mu_mem = vec![1.0, 0.9];
            let mut rng = StdRng::seed_from_u64(7);
            for _ in 0..100 {
                assert_eq!(KIND.select(&owned.ctx(), &mut rng), Some(1));
            }
        }

        #[test]
        fn all_violating_terminates() {
            let mut owned = OwnedContext::with_limit(3, 0.0);
            owned.mu_mem = vec![0.5, 1.0, 2.0];
            let mut rng = StdRng::seed_from_u64(8);
            assert_eq!(KIND.select(&owned.ctx(), &mut rng), None);
        }

        #[test]
        fn goodness_ordering_applies_within_satisfying_set() {
            let mut owned = OwnedContext::with_limit(3, 10.0); // nothing filtered
            owned.mu_cost = vec![0.0, 2.0, 0.0];
            owned.sigma_cost = vec![0.1, 0.1, 0.1];
            let mut rng = StdRng::seed_from_u64(9);
            let mut counts = [0usize; 3];
            for _ in 0..10_000 {
                counts[KIND.select(&owned.ctx(), &mut rng).unwrap()] += 1;
            }
            assert!(counts[1] < counts[0] / 10, "{counts:?}");
            assert!(counts[1] < counts[2] / 10, "{counts:?}");
        }

        #[test]
        fn missing_limit_refuses_every_candidate() {
            // `run_trajectory` asserts the limit is present; a direct caller
            // without one gets the safe degradation (no selection) instead
            // of a panic.
            let owned = OwnedContext::uniform(2);
            let mut rng = StdRng::seed_from_u64(10);
            assert_eq!(KIND.select(&owned.ctx(), &mut rng), None);
        }
    }

    mod max_sigma_ma {
        use super::*;

        #[test]
        fn filters_then_maximizes_uncertainty() {
            let mut owned = OwnedContext::with_limit(4, 1.0);
            owned.mu_mem = vec![0.5, 0.5, 2.0, 0.5]; // candidate 2 violates
            owned.sigma_cost = vec![0.1, 0.3, 0.9, 0.2]; // ...but is most uncertain
            let mut rng = StdRng::seed_from_u64(1);
            let pick = StrategyKind::MaxSigmaMa.select(&owned.ctx(), &mut rng);
            assert_eq!(pick, Some(1));
        }

        #[test]
        fn refuses_when_everything_violates() {
            let owned = OwnedContext::with_limit(2, -1.0);
            let mut rng = StdRng::seed_from_u64(2);
            assert_eq!(
                StrategyKind::MaxSigmaMa.select(&owned.ctx(), &mut rng),
                None
            );
        }

        #[test]
        fn refuses_without_a_limit() {
            // `run_trajectory` asserts the limit is present; a direct caller
            // without one gets the safe degradation (no selection) instead
            // of a panic.
            let owned = OwnedContext::uniform(2);
            let mut rng = StdRng::seed_from_u64(3);
            assert_eq!(
                StrategyKind::MaxSigmaMa.select(&owned.ctx(), &mut rng),
                None
            );
        }
    }

    mod cost_weighted_sigma {
        use super::*;

        fn kind(lambda: f64) -> StrategyKind {
            StrategyKind::CostWeightedSigma { lambda }
        }

        #[test]
        fn lambda_zero_matches_max_sigma() {
            let mut owned = OwnedContext::uniform(3);
            owned.sigma_cost = vec![0.2, 0.9, 0.5];
            owned.mu_cost = vec![-5.0, 5.0, 0.0];
            let mut rng = StdRng::seed_from_u64(4);
            assert_eq!(
                kind(0.0).select(&owned.ctx(), &mut rng),
                Some(1),
                "λ=0 ignores cost entirely"
            );
        }

        #[test]
        fn lambda_one_matches_min_pred() {
            let mut owned = OwnedContext::uniform(3);
            owned.sigma_cost = vec![0.1, 0.12, 0.11];
            owned.mu_cost = vec![2.0, -1.0, 0.5];
            let mut rng = StdRng::seed_from_u64(5);
            assert_eq!(
                kind(1.0).select(&owned.ctx(), &mut rng),
                Some(1),
                "λ=1 greedily picks the cheapest"
            );
        }

        #[test]
        fn intermediate_lambda_trades_off() {
            // Candidate 0: very uncertain but expensive; candidate 1:
            // certain and cheap. Small λ picks 0, large λ picks 1.
            let mut owned = OwnedContext::uniform(2);
            owned.sigma_cost = vec![1.0, 0.1];
            owned.mu_cost = vec![2.0, -1.0];
            let mut rng = StdRng::seed_from_u64(6);
            assert_eq!(kind(0.1).select(&owned.ctx(), &mut rng), Some(0));
            assert_eq!(kind(0.9).select(&owned.ctx(), &mut rng), Some(1));
        }
    }

    #[test]
    fn goodness_weights_normalize_and_order() {
        // Candidate 1 is cheaper (lower μ) ⇒ higher weight.
        let mu = [1.0, -1.0, 0.0];
        let sigma = [0.1, 0.1, 0.1];
        let w = goodness_weights(10.0, &mu, &sigma, &[0, 1, 2]).unwrap();
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w[1] > w[2] && w[2] > w[0]);
        // Base 10: Δ(σ−μ) = 1 decade between candidates 1 and 2 ⇒ 10×,
        // and 2 decades between 1 and 0 ⇒ 100×.
        assert!((w[1] / w[2] - 10.0).abs() < 1e-9);
        assert!((w[1] / w[0] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn goodness_weights_subset_of_indices() {
        let mu = [0.0, 5.0, 0.0];
        let sigma = [0.0; 3];
        let w = goodness_weights(10.0, &mu, &sigma, &[0, 2]).unwrap();
        assert_eq!(w.len(), 2);
        assert!((w[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn goodness_weights_degenerate_inputs() {
        assert!(goodness_weights(10.0, &[], &[], &[]).is_none());
        let mu = [f64::NAN];
        let sigma = [0.0];
        assert!(goodness_weights(10.0, &mu, &sigma, &[0]).is_none());
    }

    #[test]
    fn higher_base_skews_distribution_more() {
        let mu = [0.0, 1.0];
        let sigma = [0.0, 0.0];
        let w10 = goodness_weights(10.0, &mu, &sigma, &[0, 1]).unwrap();
        let w100 = goodness_weights(100.0, &mu, &sigma, &[0, 1]).unwrap();
        assert!(
            w100[0] > w10[0],
            "base 100 concentrates more on the cheap candidate"
        );
    }
}
