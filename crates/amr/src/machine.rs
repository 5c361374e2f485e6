//! Analytic machine model: converts counted simulation work into
//! Edison-like wall-clock time, node-hour cost and per-process MaxRSS.
//!
//! The paper's responses came from SLURM accounting on NERSC Edison
//! (2×12-core Ivy Bridge nodes, Aries interconnect). We regenerate
//! equivalent responses by running the AMR solver locally and mapping its
//! [`WorkStats`] through this model:
//!
//! - **wall clock** — Amdahl-style strong scaling of the cell-update work
//!   across `p` nodes plus a per-step latency term growing with `log p`
//!   and a bandwidth term for ghost-exchange volume;
//! - **cost** — `wall · p / 3600` node-hours, exactly the paper's formula;
//! - **memory** — peak resident cells × bytes/cell × metadata overhead,
//!   divided across `p` nodes, plus a base footprint (a MaxRSS proxy).
//!
//! Run-to-run variability is multiplicative log-normal noise, reproducing
//! the paper's repeated measurements "capturing the machine performance
//! variability". Constants are calibrated so the 600-sample sweep matches
//! Table I's ranges in order of magnitude (cost ratio max/min ≳ 10³,
//! memory ∈ [~0.02, ~33] MB); a unit test pins the calibration.
//!
//! **Counted work vs. host wall-clock.** The model prices the *simulated*
//! machine: its parallelism is the `p` Edison nodes in the input
//! configuration, and its inputs are the order-invariant counters in
//! [`WorkStats`]. How the host schedules runs (the job-level workers of
//! dataset generation) only shortens how long we wait for those counters
//! to be produced — it never appears in them, so a host run predicts the
//! same Edison wall-clock, cost and MaxRSS however many runs share the
//! host.
//! clippy enforces the same contract statically (DESIGN §9): the
//! workspace `clippy.toml` disallows `Instant::now`/`SystemTime::now`,
//! and only the bench crate's timing sites carry an exemption. The
//! vendored `rand` has no entropy constructor, so every RNG is seeded.

use crate::solver::WorkStats;
use al_linalg::rng::noise_factor;
use al_units::{Bytes, CellUpdates, Megabytes, Micros, Nanos, NodeHours, Seconds};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic cost/memory mapping with tunable constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineModel {
    /// Cores per node (Edison: 24).
    pub cores_per_node: f64,
    /// Time per directional cell update on one core.
    pub cell_update_us: Micros,
    /// Scale factor mapping our shortened simulation burst to a full
    /// production run. The paper's jobs simulated the complete shock–bubble
    /// evolution (late-time shredded interfaces refine far more area than
    /// our early-time burst), so total work exceeds our measured burst by
    /// roughly two orders of magnitude; this factor multiplies all
    /// time-like work terms. Recalibrated from 800 to 1200 when the
    /// default profiles moved to Berger–Oliger subcycling: the subcycled
    /// stepper counts ~1/3 fewer directional updates for the same
    /// physics, so the burst-to-production mapping grows to keep the
    /// response surface in Table I's ranges.
    pub full_sim_scale: f64,
    /// Fraction of compute that does not parallelize (regridding,
    /// partition bookkeeping).
    pub serial_fraction: f64,
    /// Per-step communication latency, scaled by `ln(p+1)`.
    pub step_latency_us: Micros,
    /// Time per ghost cell exchanged (bandwidth term).
    pub ghost_cell_ns: Nanos,
    /// Storage per cell (4 conserved variables × f64).
    pub bytes_per_cell: Bytes,
    /// Multiplier for metadata, buffers and solver workspace.
    pub mem_overhead: f64,
    /// Baseline MaxRSS per process.
    pub base_mem_mb: Megabytes,
    /// Log-normal sigma of wall-clock noise.
    pub wall_noise_sigma: f64,
    /// Log-normal sigma of memory noise.
    pub mem_noise_sigma: f64,
}

impl Default for MachineModel {
    fn default() -> Self {
        MachineModel {
            cores_per_node: 24.0,
            cell_update_us: Micros::new(3.0),
            full_sim_scale: 1200.0,
            serial_fraction: 0.02,
            step_latency_us: Micros::new(450.0),
            ghost_cell_ns: Nanos::new(60.0),
            bytes_per_cell: Bytes::new(32.0),
            mem_overhead: 2.0,
            base_mem_mb: Megabytes::new(0.01),
            wall_noise_sigma: 0.08,
            mem_noise_sigma: 0.02,
        }
    }
}

/// The three responses of the paper's dataset, each in its own unit type
/// so wall-clock, cost and memory can never be swapped or mixed silently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineOutcome {
    /// Wall-clock time.
    pub wall_seconds: Seconds,
    /// Job cost (`wall · p / 3600` node-hours).
    pub cost_node_hours: NodeHours,
    /// Peak resident set size per process.
    pub memory_mb: Megabytes,
}

impl MachineModel {
    /// Noise-free evaluation of the model for work `stats` on `p` nodes.
    pub fn evaluate_exact(&self, stats: &WorkStats, p: u32) -> MachineOutcome {
        assert!(p >= 1);
        let p_f = p as f64;

        // Compute time on a single node, then Amdahl scaling across nodes.
        let node_seconds: Seconds = (self.cell_update_us * CellUpdates::new(stats.cell_updates))
            .to_seconds()
            * self.full_sim_scale
            / self.cores_per_node;
        let compute: Seconds =
            node_seconds * ((1.0 - self.serial_fraction) / p_f + self.serial_fraction);

        // Communication: per-round latency grows logarithmically with the
        // node count (tree reductions for dt and regrid consensus). Under
        // subcycling each per-level advance is a synchronization round, so
        // `level_steps` drives this term; `max(steps)` keeps hand-built
        // stats that only fill `steps` behaving as before.
        let sync_rounds = stats.level_steps.max(stats.steps);
        let latency: Seconds = self.step_latency_us.to_seconds()
            * (sync_rounds as f64 * self.full_sim_scale)
            * (p_f + 1.0).ln();
        let bandwidth: Seconds = (self.ghost_cell_ns * CellUpdates::new(stats.ghost_cells))
            .to_seconds()
            * self.full_sim_scale
            / p_f;

        let wall: Seconds = compute + latency + bandwidth;

        let total: Megabytes = (self.bytes_per_cell * CellUpdates::new(stats.peak_storage_cells))
            .to_megabytes()
            * self.mem_overhead;
        let memory: Megabytes = total / p_f + self.base_mem_mb;

        MachineOutcome {
            wall_seconds: wall,
            cost_node_hours: wall.node_hours(p_f),
            memory_mb: memory,
        }
    }

    /// Evaluate with multiplicative log-normal run-to-run noise; `seed`
    /// should combine the configuration hash with the repeat index so
    /// repeated measurements differ but the dataset is reproducible.
    pub fn evaluate(&self, stats: &WorkStats, p: u32, seed: u64) -> MachineOutcome {
        let exact = self.evaluate_exact(stats, p);
        let mut rng = StdRng::seed_from_u64(seed);
        let wall: Seconds = exact.wall_seconds * noise_factor(&mut rng, self.wall_noise_sigma);
        let memory: Megabytes = exact.memory_mb * noise_factor(&mut rng, self.mem_noise_sigma);
        MachineOutcome {
            wall_seconds: wall,
            cost_node_hours: wall.node_hours(p as f64),
            memory_mb: memory,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work(cell_updates: u64, steps: u64, peak_cells: u64) -> WorkStats {
        WorkStats {
            steps,
            level_steps: steps,
            cell_updates,
            ghost_cells: cell_updates / 10,
            peak_storage_cells: peak_cells,
            ..WorkStats::default()
        }
    }

    #[test]
    fn cost_is_wall_times_nodes() {
        let m = MachineModel::default();
        let o = m.evaluate_exact(&work(1_000_000, 100, 100_000), 8);
        assert!(
            (o.cost_node_hours - o.wall_seconds.node_hours(8.0))
                .value()
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn more_work_costs_more() {
        let m = MachineModel::default();
        let small = m.evaluate_exact(&work(1_000_000, 100, 100_000), 8);
        let large = m.evaluate_exact(&work(100_000_000, 1000, 100_000), 8);
        assert!(large.wall_seconds > small.wall_seconds * 10.0);
    }

    #[test]
    fn strong_scaling_reduces_wall_but_raises_cost() {
        let m = MachineModel::default();
        let w = work(500_000_000, 500, 1_000_000);
        let few = m.evaluate_exact(&w, 4);
        let many = m.evaluate_exact(&w, 32);
        assert!(many.wall_seconds < few.wall_seconds, "wall shrinks with p");
        assert!(
            many.cost_node_hours > few.cost_node_hours,
            "node-hours grow with p: {} vs {}",
            many.cost_node_hours,
            few.cost_node_hours
        );
    }

    #[test]
    fn memory_divides_across_nodes() {
        let m = MachineModel::default();
        let w = work(1_000_000, 100, 2_000_000);
        let few = m.evaluate_exact(&w, 4);
        let many = m.evaluate_exact(&w, 32);
        assert!(few.memory_mb > many.memory_mb);
        // Up to the base footprint, memory scales like 1/p.
        let ratio = (few.memory_mb - m.base_mem_mb) / (many.memory_mb - m.base_mem_mb);
        assert!((ratio - 8.0).abs() < 1e-9);
    }

    #[test]
    fn calibration_brackets_table_one_ranges() {
        let m = MachineModel::default();
        // Work shaped like the cheapest config of the sweep
        // (maxlevel 3, mx 8): ~5e4 directional updates, tiny footprint.
        let cheap = m.evaluate_exact(&work(54_000, 14, 4_500), 4);
        // Work shaped like the most expensive config
        // (maxlevel 6, mx 32): ~1.3e9 updates, ~1.9M resident cells.
        let dear = m.evaluate_exact(&work(1_300_000_000, 440, 1_900_000), 32);
        assert!(
            dear.cost_node_hours / cheap.cost_node_hours > 1e3,
            "cost dynamic range {} / {}",
            dear.cost_node_hours,
            cheap.cost_node_hours
        );
        assert!(
            cheap.cost_node_hours.value() < 0.05,
            "{}",
            cheap.cost_node_hours
        );
        assert!(
            dear.cost_node_hours.value() > 2.0,
            "{}",
            dear.cost_node_hours
        );
        // Memory brackets: cheap config on many nodes ~0.02 MB, expensive
        // config on few nodes tens of MB.
        let cheap_mem = m.evaluate_exact(&work(54_000, 14, 4_500), 32);
        assert!(cheap_mem.memory_mb.value() < 0.1, "{}", cheap_mem.memory_mb);
        let dear_mem = m.evaluate_exact(&work(1_300_000_000, 440, 1_900_000), 4);
        assert!(
            dear_mem.memory_mb.value() > 10.0 && dear_mem.memory_mb.value() < 100.0,
            "{}",
            dear_mem.memory_mb
        );
    }

    #[test]
    fn subcycled_sync_rounds_drive_latency() {
        let m = MachineModel::default();
        let sync = work(1_000_000, 100, 100_000);
        // Same physics work but counted under subcycling: more per-level
        // synchronization rounds for the same number of coarse steps.
        let sub = WorkStats {
            level_steps: 700,
            ..sync
        };
        let a = m.evaluate_exact(&sync, 8);
        let b = m.evaluate_exact(&sub, 8);
        assert!(
            b.wall_seconds > a.wall_seconds,
            "more sync rounds must cost latency: {} vs {}",
            b.wall_seconds,
            a.wall_seconds
        );
    }

    #[test]
    fn noise_is_reproducible_and_small() {
        let m = MachineModel::default();
        let w = work(1_000_000, 100, 100_000);
        let a = m.evaluate(&w, 8, 42);
        let b = m.evaluate(&w, 8, 42);
        assert_eq!(a, b, "same seed, same outcome");
        let c = m.evaluate(&w, 8, 43);
        assert_ne!(a.wall_seconds, c.wall_seconds);
        // Noise stays within a plausible band.
        let exact = m.evaluate_exact(&w, 8);
        assert!((a.wall_seconds / exact.wall_seconds - 1.0).abs() < 0.5);
        // Cost/wall consistency holds for noisy outcomes too.
        assert!(
            (a.cost_node_hours - a.wall_seconds.node_hours(8.0))
                .value()
                .abs()
                < 1e-12
        );
    }

    #[test]
    #[should_panic]
    fn zero_nodes_is_rejected() {
        MachineModel::default().evaluate_exact(&WorkStats::default(), 0);
    }
}
