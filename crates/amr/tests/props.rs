//! Property-based tests for the AMR substrate: physical invariants of the
//! Euler solver and structural invariants of the quadtree forest.

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

use al_amr_sim::euler::{self, conservative, hllc_flux, max_wave_speed, pressure, NVAR};
use al_amr_sim::patch::{Patch, Side, SweepScratch};
use al_amr_sim::shockbubble::post_shock_state;
use al_amr_sim::tree::Forest;
use proptest::prelude::*;

/// Strategy: a physically valid primitive state.
fn primitive() -> impl Strategy<Value = (f64, f64, f64, f64)> {
    (0.05f64..5.0, -3.0f64..3.0, -3.0f64..3.0, 0.05f64..5.0)
}

proptest! {
    #[test]
    fn primitive_conservative_roundtrip((rho, u, v, p) in primitive()) {
        let q = conservative(rho, u, v, p);
        prop_assert!((q[0] - rho).abs() < 1e-12);
        prop_assert!((pressure(&q) - p).abs() < 1e-9 * (1.0 + p));
        prop_assert!(max_wave_speed(&q) > 0.0);
    }

    #[test]
    fn hllc_is_consistent((rho, u, v, p) in primitive()) {
        // f(q, q) = F(q): the Riemann flux of identical states is exact.
        let q = conservative(rho, u, v, p);
        let f = hllc_flux(&q, &q);
        let fx = euler::flux_x(&q);
        for k in 0..NVAR {
            prop_assert!(
                (f[k] - fx[k]).abs() < 1e-8 * (1.0 + fx[k].abs()),
                "component {}: {} vs {}", k, f[k], fx[k]
            );
        }
    }

    #[test]
    fn hllc_preserves_stationary_contacts(rho_l in 0.05f64..5.0, rho_r in 0.05f64..5.0, p in 0.1f64..5.0) {
        let ql = conservative(rho_l, 0.0, 0.0, p);
        let qr = conservative(rho_r, 0.0, 0.0, p);
        let f = hllc_flux(&ql, &qr);
        prop_assert!(f[0].abs() < 1e-10, "mass flux {}", f[0]);
        prop_assert!(f[3].abs() < 1e-10, "energy flux {}", f[3]);
    }

    #[test]
    fn rankine_hugoniot_post_shock_is_supersonic_compression(mach in 1.01f64..5.0) {
        let q = post_shock_state(mach);
        prop_assert!(q[0] > 1.0, "compression");
        prop_assert!(q[0] < 6.0, "below the γ=1.4 limit of 6");
        prop_assert!(pressure(&q) > 1.0, "pressure rises");
        prop_assert!(q[1] > 0.0, "gas pushed in the shock direction");
    }

    #[test]
    fn minmod_is_bounded_by_inputs(a in -5.0f64..5.0, b in -5.0f64..5.0) {
        let m = euler::minmod(a, b);
        prop_assert!(m.abs() <= a.abs() + 1e-15);
        prop_assert!(m.abs() <= b.abs() + 1e-15);
        // Sign agrees with both or is zero.
        if a * b > 0.0 {
            prop_assert!(m * a >= 0.0);
        } else {
            prop_assert_eq!(m, 0.0);
        }
    }

    #[test]
    fn uniform_flow_is_preserved_by_sweeps((rho, u, v, p) in primitive()) {
        let mut patch = Patch::new(0, 0, 0, 8);
        let q0 = conservative(rho, u, v, p);
        patch.fill_with(&|_x, _y| q0);
        for side in Side::ALL {
            patch.extrapolate_boundary(side);
        }
        let dt = 0.2 * patch.h() / patch.max_wave_speed();
        let mut scratch = SweepScratch::default();
        patch.sweep_x(dt, &mut scratch);
        patch.sweep_y(dt, &mut scratch);
        for cy in 0..8 {
            for cx in 0..8 {
                for k in 0..NVAR {
                    prop_assert!(
                        (patch.interior(cx, cy)[k] - q0[k]).abs() < 1e-10 * (1.0 + q0[k].abs()),
                        "cell ({},{}) var {}", cx, cy, k
                    );
                }
            }
        }
    }

    #[test]
    fn refine_then_coarsen_preserves_mass(
        // Coefficients bounded so the density 2 + ax·x + ay·y + axy·x·y
        // stays positive over the unit square.
        ax in -0.6f64..0.6,
        ay in -0.6f64..0.6,
        axy in -0.3f64..0.3,
    ) {
        let mut f = Forest::uniform(8, 1, 3);
        f.fill_all(&|x, y| conservative(2.0 + ax * x + ay * y + axy * x * y, 0.1, 0.0, 1.0));
        let m0 = f.total_mass();
        f.refine_patch((1, 0, 0));
        prop_assert!((f.total_mass() - m0).abs() < 1e-12);
        f.coarsen_to((1, 0, 0));
        prop_assert!((f.total_mass() - m0).abs() < 1e-12);
    }

    #[test]
    fn forest_leaves_partition_the_domain(refinements in proptest::collection::vec((0u32..4, 0u32..4), 0..6)) {
        // Refine arbitrary level-2 leaves; total covered area must stay 1.
        let mut f = Forest::uniform(4, 2, 4);
        for (i, j) in refinements {
            f.refine_patch((2, i, j));
        }
        f.enforce_balance();
        let area: f64 = f
            .leaf_keys()
            .iter()
            .map(|(l, _, _)| {
                let s = 1.0 / (1u64 << l) as f64;
                s * s
            })
            .sum();
        prop_assert!((area - 1.0).abs() < 1e-12, "area {}", area);
    }

    #[test]
    fn machine_model_is_monotone_in_work(
        updates in 1u64..1_000_000_000,
        extra in 1u64..1_000_000_000,
        p_idx in 0usize..4,
    ) {
        use al_amr_sim::{MachineModel, WorkStats};
        let p = [4u32, 8, 16, 32][p_idx];
        let m = MachineModel::default();
        let mk = |u: u64| WorkStats {
            steps: 1 + u / 1000,
            cell_updates: u,
            ghost_cells: u / 10,
            peak_storage_cells: 1 + u / 100,
            ..WorkStats::default()
        };
        let small = m.evaluate_exact(&mk(updates), p);
        let large = m.evaluate_exact(&mk(updates.saturating_add(extra)), p);
        prop_assert!(large.wall_seconds > small.wall_seconds);
        prop_assert!(large.cost_node_hours > small.cost_node_hours);
        prop_assert!(large.memory_mb >= small.memory_mb);
        prop_assert!(small.wall_seconds.value() > 0.0 && small.memory_mb.value() > 0.0);
    }

    #[test]
    fn machine_model_wall_decreases_with_nodes(
        updates in 1_000_000u64..1_000_000_000,
    ) {
        use al_amr_sim::{MachineModel, WorkStats};
        let m = MachineModel::default();
        // Few steps relative to cell count (large patches): compute
        // dominates the log(p) latency term, so strong scaling holds.
        let w = WorkStats {
            steps: 1 + updates / 1_000_000,
            cell_updates: updates,
            ghost_cells: updates / 10,
            peak_storage_cells: updates / 100,
            ..WorkStats::default()
        };
        // Compute-dominated jobs: wall shrinks with p, node-hours grow.
        let few = m.evaluate_exact(&w, 4);
        let many = m.evaluate_exact(&w, 32);
        prop_assert!(many.wall_seconds < few.wall_seconds);
        prop_assert!(many.cost_node_hours > few.cost_node_hours);
        prop_assert!(many.memory_mb < few.memory_mb);
    }

    #[test]
    fn balance_holds_after_arbitrary_refinement(
        refinements in proptest::collection::vec((0u32..8, 0u32..8), 1..8)
    ) {
        let mut f = Forest::uniform(4, 1, 5);
        // Refine a random walk of positions at increasing depth.
        for (level, (i, j)) in refinements.iter().enumerate() {
            let l = (1 + level.min(3)) as u8;
            let n = 1u32 << l;
            f.refine_patch((l, i % n, j % n));
        }
        f.enforce_balance();
        // Ghost filling must succeed on a balanced forest (it panics on
        // balance violations when restricting from missing fine leaves).
        f.fill_all(&|x, y| conservative(1.0 + x + y, 0.0, 0.0, 1.0));
        let _ = f.fill_ghosts(&al_amr_sim::tree::Bc::all_extrapolate());
    }
}
