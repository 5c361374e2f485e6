//! Golden digests of whole solver runs: every interior state bit of the
//! final forest plus the run's [`WorkStats`], for small shock–bubble runs
//! in both [`TimeStepping`] modes.
//!
//! `serial_stepper_parity.rs` drives the same `Patch::sweep_x`/`sweep_y`
//! on both of its sides, so it cannot see a sweep kernel that moves a bit;
//! these digests can. They were recorded with the scalar per-face sweep
//! (`euler::hllc_flux` on each face), and any later kernel must reproduce
//! them exactly.
//!
//! Regenerate (only when a change is *meant* to move output bits):
//! `cargo test -p al-amr-sim --test state_golden`. On a mismatch the
//! assertion message prints every run's digest as a ready-to-paste
//! `GOLDEN` table.

#![allow(clippy::panic)]

use al_amr_sim::{AmrSolver, SimulationConfig, SolverProfile, TimeStepping, WorkStats};

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }
}

/// One pinned run: a shock–bubble configuration, its stepping mode and
/// horizon.
struct Run {
    name: &'static str,
    mx: usize,
    maxlevel: u8,
    rhoin: f64,
    time_stepping: TimeStepping,
    t_final: f64,
}

const RUNS: [Run; 4] = [
    Run {
        name: "mx8_l4_sync",
        mx: 8,
        maxlevel: 4,
        rhoin: 0.1,
        time_stepping: TimeStepping::LevelSynchronous,
        t_final: 0.016,
    },
    Run {
        name: "mx8_l4_subcycled",
        mx: 8,
        maxlevel: 4,
        rhoin: 0.1,
        time_stepping: TimeStepping::Subcycled,
        t_final: 0.016,
    },
    Run {
        name: "mx4_l5_subcycled",
        mx: 4,
        maxlevel: 5,
        rhoin: 3.0,
        time_stepping: TimeStepping::Subcycled,
        t_final: 0.03,
    },
    Run {
        name: "mx12_l3_sync",
        mx: 12,
        maxlevel: 3,
        rhoin: 0.5,
        time_stepping: TimeStepping::LevelSynchronous,
        t_final: 0.02,
    },
];

/// Digests recorded with the scalar per-face sweep, in `RUNS` order.
const GOLDEN: [(&str, u64); 4] = [
    ("mx8_l4_sync", 0x059d63ed1dd1eb54),
    ("mx8_l4_subcycled", 0xbcb1c8d7768c4d7d),
    ("mx4_l5_subcycled", 0x31f798f8436a553e),
    ("mx12_l3_sync", 0x8aa415210d8fe6a3),
];

fn digest(run: &Run) -> u64 {
    let config = SimulationConfig {
        p: 8,
        mx: run.mx,
        maxlevel: run.maxlevel,
        r0: 0.35,
        rhoin: run.rhoin,
    };
    let profile = SolverProfile {
        t_final: run.t_final,
        regrid_interval: 2,
        time_stepping: run.time_stepping,
        ..SolverProfile::fast()
    };
    let mut solver = AmrSolver::new(&config, profile);
    let stats = match solver.run() {
        Ok(stats) => stats,
        Err(e) => panic!("{}: {e}", run.name),
    };

    let mut h = Fnv::new();
    for (&(level, i, j), patch) in solver.forest().iter() {
        h.word(u64::from(level));
        h.word(u64::from(i));
        h.word(u64::from(j));
        for cy in 0..patch.mx() {
            for cx in 0..patch.mx() {
                for v in patch.interior(cx, cy) {
                    h.word(v.to_bits());
                }
            }
        }
    }
    // Destructured so a new counter cannot be left out of the digest.
    let WorkStats {
        steps,
        level_steps,
        cell_updates,
        ghost_cells,
        boundary_cells,
        reflux_faces,
        regrid_count,
        regrid_changes,
        peak_storage_cells,
        peak_leaves,
        final_time,
        truncation,
    } = stats;
    for v in [
        steps,
        level_steps,
        cell_updates,
        ghost_cells,
        boundary_cells,
        reflux_faces,
        regrid_count,
        regrid_changes,
        peak_storage_cells,
        peak_leaves,
        final_time.to_bits(),
        u64::from(truncation.is_some()),
    ] {
        h.word(v);
    }
    h.0
}

#[test]
fn solver_runs_reproduce_their_golden_state_digests() {
    let got: Vec<(&str, u64)> = RUNS.iter().map(|run| (run.name, digest(run))).collect();
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    assert!(
        got == GOLDEN,
        "state digests moved; if that is intended, paste:\nconst GOLDEN: [(&str, u64); {}] = [\n{table}];",
        got.len()
    );
}
