//! Property-based tests for the AL layer: strategy semantics and metric
//! invariants over arbitrary prediction vectors.

// Integration tests run outside #[cfg(test)], so the in-tests carve-outs
// from clippy.toml don't reach them; tests may panic, compare exact copied
// floats, and index loops for readability.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp,
    clippy::needless_range_loop
)]

use al_core::metrics::{rmse_nonlog, CumulativeTracker};
use al_core::{SelectionContext, StrategyKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: aligned prediction vectors of common length 1..40.
fn predictions() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>)> {
    (1usize..40).prop_flat_map(|n| {
        (
            proptest::collection::vec(-4.0f64..2.0, n),
            proptest::collection::vec(0.001f64..1.0, n),
            proptest::collection::vec(-3.0f64..2.0, n),
            proptest::collection::vec(0.001f64..1.0, n),
        )
    })
}

proptest! {
    #[test]
    fn every_strategy_returns_a_valid_index(
        (mu_c, sg_c, mu_m, sg_m) in predictions(),
        seed in 0u64..1000,
    ) {
        let ctx = SelectionContext {
            mu_cost: &mu_c,
            sigma_cost: &sg_c,
            mu_mem: &mu_m,
            sigma_mem: &sg_m,
            mem_limit_log: Some(al_units::LogMegabytes::new(10.0)), // permissive: nothing filtered
        };
        let mut rng = StdRng::seed_from_u64(seed);
        for kind in StrategyKind::paper_five() {
            let pick = kind.select(&ctx, &mut rng);
            let i = pick.expect("non-empty pool with permissive limit");
            prop_assert!(i < mu_c.len(), "{}: index {} out of bounds", kind.label(), i);
        }
    }

    #[test]
    fn rgma_selections_always_satisfy_the_limit(
        (mu_c, sg_c, mu_m, sg_m) in predictions(),
        limit in -2.0f64..2.0,
        seed in 0u64..1000,
    ) {
        let ctx = SelectionContext {
            mu_cost: &mu_c,
            sigma_cost: &sg_c,
            mu_mem: &mu_m,
            sigma_mem: &sg_m,
            mem_limit_log: Some(al_units::LogMegabytes::new(limit)),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let rgma = StrategyKind::Rgma { base: 10.0 };
        match rgma.select(&ctx, &mut rng) {
            Some(i) => prop_assert!(mu_m[i] < limit, "picked μ_mem {} >= {}", mu_m[i], limit),
            None => {
                // Refusal is only legitimate when nothing satisfies.
                prop_assert!(mu_m.iter().all(|&m| m >= limit));
            }
        }
    }

    #[test]
    fn max_sigma_always_picks_the_most_uncertain(
        (mu_c, sg_c, mu_m, sg_m) in predictions(),
        seed in 0u64..100,
    ) {
        let ctx = SelectionContext {
            mu_cost: &mu_c,
            sigma_cost: &sg_c,
            mu_mem: &mu_m,
            sigma_mem: &sg_m,
            mem_limit_log: None,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let pick = StrategyKind::MaxSigma.select(&ctx, &mut rng).unwrap();
        for &s in &sg_c {
            prop_assert!(sg_c[pick] >= s);
        }
    }

    #[test]
    fn tracker_regret_never_exceeds_cost(
        jobs in proptest::collection::vec((0.001f64..10.0, 0.001f64..50.0), 1..50),
        limit in 0.01f64..50.0,
    ) {
        let mut t = CumulativeTracker::default();
        for (cost, mem) in &jobs {
            t.record(
                al_units::NodeHours::new(*cost),
                al_units::Megabytes::new(*mem),
                Some(al_units::Megabytes::new(limit)),
            );
        }
        prop_assert!(t.cumulative_regret().value() <= t.cumulative_cost().value() + 1e-12);
        prop_assert!(t.violations() as usize <= jobs.len());
        // Regret equals the sum of costs of violating jobs exactly.
        let expected: f64 = jobs.iter().filter(|(_, m)| *m >= limit).map(|(c, _)| c).sum();
        prop_assert!((t.cumulative_regret().value() - expected).abs() < 1e-9);
    }

    #[test]
    fn rmse_nonlog_is_zero_iff_predictions_perfect(
        actual in proptest::collection::vec(0.01f64..100.0, 1..20),
    ) {
        let perfect: Vec<f64> = actual.iter().map(|a| a.log10()).collect();
        prop_assert!(rmse_nonlog(&perfect, &actual) < 1e-9);
        // Any perturbation yields a positive error.
        let mut off = perfect.clone();
        off[0] += 0.1;
        prop_assert!(rmse_nonlog(&off, &actual) > 0.0);
    }

    #[test]
    fn rand_goodness_prefers_cheap_over_expensive_in_aggregate(
        n in 4usize..20,
        seed in 0u64..100,
    ) {
        // Half the pool one decade cheaper: it must receive most picks.
        let mu_c: Vec<f64> = (0..n).map(|i| if i < n / 2 { 0.0 } else { 1.0 }).collect();
        let sg: Vec<f64> = vec![0.1; n];
        let ctx = SelectionContext {
            mu_cost: &mu_c,
            sigma_cost: &sg,
            mu_mem: &mu_c,
            sigma_mem: &sg,
            mem_limit_log: None,
        };
        let strategy = StrategyKind::RandGoodness { base: 10.0 };
        let mut rng = StdRng::seed_from_u64(seed);
        let cheap_picks = (0..200)
            .filter(|_| strategy.select(&ctx, &mut rng).unwrap() < n / 2)
            .count();
        prop_assert!(cheap_picks > 120, "cheap picked {} of 200", cheap_picks);
    }
}
