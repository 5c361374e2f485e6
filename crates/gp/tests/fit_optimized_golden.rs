//! Golden bits of the warm-start hyperparameter optimizer.
//!
//! `fit_optimized(FitOptions::warm_start_only())` is Algorithm 1's
//! per-iteration retraining step: 25 Adam steps, each one LML gradient
//! built from the explicit `K_y⁻¹`. Any change to the inverse, the
//! gradient or the optimizer that moves a single bit of the optimum
//! shows up here, with the same contract the repository benchmark's
//! output digests enforce. The RBF constants were recorded with the
//! column-by-column inverse; the multi-RHS inverse must reproduce them.
//! The Matérn, rational-quadratic and ARD constants were recorded while
//! `Kernel::gradient` still recomputed each kernel value itself; the
//! gradient that reuses the fill's values must reproduce them.
//!
//! To record (or, for a deliberate output change, re-record) the
//! constants, run
//!
//! ```text
//! cargo test --release -p al-gp --test fit_optimized_golden -- --ignored --nocapture
//! ```
//!
//! and paste the printed `assert_golden` calls into the tests below.

#![allow(clippy::unwrap_used)]

use al_gp::{FitOptions, GpModel, KernelKind};
use al_linalg::Matrix;

/// Fixed 5-D inputs on the unit cube and a smooth response with a small
/// deterministic perturbation, so the noise optimum is interior rather
/// than pinned at the lower bound.
fn training_data(n: usize) -> (Matrix, Vec<f64>) {
    let data: Vec<f64> = (0..n * 5)
        .map(|i| (((i * 2654435761) % 1009) as f64) / 1009.0)
        .collect();
    let x = Matrix::from_vec(n, 5, data);
    let y: Vec<f64> = (0..n)
        .map(|i| {
            let smooth: f64 = x.row(i).iter().map(|v| (3.0 * v).sin()).sum();
            smooth + 0.1 * (((i * 7919) % 101) as f64 / 101.0 - 0.5)
        })
        .collect();
    (x, y)
}

/// The warm-start optimum's hyperparameter and LML bits.
fn optimum(kind: KernelKind, n: usize) -> (Vec<u64>, u64) {
    let (x, y) = training_data(n);
    let mut gp = GpModel::new(kind.build(0.3), 1e-3);
    gp.fit_optimized(&x, &y, &FitOptions::warm_start_only())
        .unwrap();
    let params = gp.hyperparams().iter().map(|v| v.to_bits()).collect();
    (params, gp.lml().unwrap().to_bits())
}

fn assert_golden(kind: KernelKind, n: usize, hyperparams: &[u64], lml: u64) {
    let (got, got_lml) = optimum(kind, n);
    let label = kind.label();
    let show = |bits: &[u64]| bits.iter().map(|b| f64::from_bits(*b)).collect::<Vec<_>>();
    assert_eq!(
        got,
        hyperparams,
        "{label} n={n}: hyperparams {:?}",
        show(&got)
    );
    assert_eq!(
        got_lml,
        lml,
        "{label} n={n}: lml {}",
        f64::from_bits(got_lml)
    );
}

const ARD5: KernelKind = KernelKind::ArdRbf { dim: 5 };

#[test]
fn warm_start_optimum_is_bit_stable_at_n50() {
    assert_golden(
        KernelKind::Rbf,
        50,
        &[0x4000b03cc0aa7b0a, 0x3fc54465873f77bf, 0xc01b2d3a35429414],
        0x404bfc73b1309e91,
    );
}

#[test]
fn warm_start_optimum_is_bit_stable_at_n250() {
    assert_golden(
        KernelKind::Rbf,
        250,
        &[0x4000c4dead87d655, 0x3fb8133bcbd1e748, 0xc01c2cfc119eb83e],
        0x407d54dc444a3c8e,
    );
}

#[test]
fn matern32_warm_start_optimum_is_bit_stable() {
    assert_golden(
        KernelKind::Matern32,
        50,
        &[0x3fd54c1de191986a, 0x3fb773c5783e5267, 0xc01b54cfbc5cf9a7],
        0x4045545f778efb4f,
    );
    assert_golden(
        KernelKind::Matern32,
        250,
        &[0x3fc3a245abcc201c, 0xbfe71fa6472f4194, 0xc01d87842740aad1],
        0x407b55461263ee80,
    );
}

#[test]
fn matern52_warm_start_optimum_is_bit_stable() {
    assert_golden(
        KernelKind::Matern52,
        50,
        &[0x3feef3ad4c1893d3, 0x3fb9566a77cbdda7, 0xc01ad64eaa4c42ed],
        0x40491d8ab6bfadf3,
    );
    assert_golden(
        KernelKind::Matern52,
        250,
        &[0x3fe6bbda378817a0, 0x3fbda52814a31f57, 0xc01c01208ad5a695],
        0x407cac7ed0f7ca2e,
    );
}

#[test]
fn rational_quadratic_warm_start_optimum_is_bit_stable() {
    assert_golden(
        KernelKind::RationalQuadratic,
        50,
        &[
            0x3ff9323eef3ae4de,
            0x3f949628e9989de6,
            0x3ff7b39192290d87,
            0xc01ae7aa495fb5db,
        ],
        0x404b3aab88152229,
    );
    assert_golden(
        KernelKind::RationalQuadratic,
        250,
        &[
            0x3ff52885f0a57b1a,
            0xbfc4825b1fe131e7,
            0x3ff57d67fe949374,
            0xc01c3be07f363dcb,
        ],
        0x407d235fd113612a,
    );
}

#[test]
fn ard_rbf_warm_start_optimum_is_bit_stable() {
    assert_golden(
        ARD5,
        50,
        &[
            0x400012d1aa47d1a5,
            0x3fe0fb8e050f211f,
            0x3fc44aca58e21b0a,
            0xbfde9705bcba2be8,
            0x3fc2d1867cda7bd5,
            0x3fdf368f9c6e6e36,
            0xc01b40cf1ea259a4,
        ],
        0x404c48719dd6680f,
    );
    assert_golden(
        ARD5,
        250,
        &[
            0x4000814b44a7b060,
            0x3fda529331f00372,
            0xbfa4a195a6212828,
            0xbfca52444121422d,
            0x3f48ed0e0dd45330,
            0x3fdaee6ff6400b8d,
            0xc01c2e2eb44a738d,
        ],
        0x407d64270e426444,
    );
}

/// Prints every golden as a ready-to-paste `assert_golden` call.
#[test]
#[ignore = "recording aid: prints the constants, asserts nothing"]
fn print_goldens() {
    let kinds = [
        ("KernelKind::Rbf", KernelKind::Rbf),
        ("KernelKind::Matern32", KernelKind::Matern32),
        ("KernelKind::Matern52", KernelKind::Matern52),
        (
            "KernelKind::RationalQuadratic",
            KernelKind::RationalQuadratic,
        ),
        ("ARD5", ARD5),
    ];
    for (name, kind) in kinds {
        for n in [50, 250] {
            let (params, lml) = optimum(kind, n);
            let params: Vec<String> = params.iter().map(|b| format!("{b:#018x}")).collect();
            println!(
                "assert_golden({name}, {n}, &[{}], {lml:#018x});",
                params.join(", ")
            );
        }
    }
}
