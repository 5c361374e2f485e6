//! AMR time integration with work accounting, in two stepping modes.
//!
//! [`TimeStepping::LevelSynchronous`] advances every leaf with the global
//! (finest-level) CFL step — simple, but coarse patches take many more
//! steps than their own CFL condition requires. [`TimeStepping::Subcycled`]
//! implements Berger–Oliger level subcycling: each refinement level ℓ
//! advances with its own step `dt_ℓ = dt_coarse / 2^(ℓ − ℓ_min)` in the
//! recursive order *coarse step → two fine sub-steps → reflux*, with fine
//! ghost bands at coarse–fine interfaces filled by time-interpolated
//! prolongation. Both modes refill ghost layers before each directional
//! sweep and regrid on a fixed cadence. In both modes a directional sweep
//! visits the patches of a level serially in ascending key order, reusing
//! one scratch buffer, so the reflux registers and work counters come out
//! in a fixed order. Every unit of work the machine model later
//! converts into wall-clock time and memory is counted here: cell
//! updates, per-level advances, ghost-exchange volume, regrids and the
//! peak number of resident cells.

use crate::error::AmrError;
use crate::patch::{BoundaryFluxes, SweepScratch};
use crate::shockbubble::SimulationConfig;
use crate::tree::{Axis, Bc, EdgeRing, Forest, PatchKey};
use std::collections::{BTreeMap, BTreeSet};

/// How the forest's refinement levels advance in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeStepping {
    /// All levels advance in lockstep with the finest level's CFL step.
    LevelSynchronous,
    /// Berger–Oliger subcycling: level ℓ takes `2^(ℓ − ℓ_min)` halved
    /// steps per coarse step, cutting redundant coarse-level updates.
    Subcycled,
}

/// Why a run stopped short of `t_final` (surfaced via
/// [`WorkStats::truncation`] so sweeps never mistake a truncated burst
/// for a completed job).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncationReason {
    /// The `max_steps` safety cap was reached.
    MaxSteps,
    /// The CFL step collapsed to zero or a non-finite value.
    TimeStepCollapse,
}

impl std::fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TruncationReason::MaxSteps => write!(f, "step cap reached"),
            TruncationReason::TimeStepCollapse => write!(f, "time step collapsed"),
        }
    }
}

/// CFL number for the global time step.
pub const CFL: f64 = 0.45;

/// Refine a patch when its refinement indicator (the largest relative
/// density jump between adjacent cells, see
/// [`Patch::refinement_indicator`](crate::patch::Patch::refinement_indicator))
/// exceeds this value. Tuned for the shock–bubble problem: it tags the
/// shock (density ratio ≈ 2.7 across a few cells) and the bubble
/// interface (ratio up to 50) but not the smooth post-shock flow.
pub const REFINE_THRESHOLD: f64 = 0.12;

/// Coarsen a sibling quartet when all four indicators are below this
/// value. The gap to [`REFINE_THRESHOLD`] is hysteresis: it keeps patches
/// from oscillating between levels as a feature sweeps through them.
pub const COARSEN_THRESHOLD: f64 = 0.04;

const _: () = assert!(COARSEN_THRESHOLD < REFINE_THRESHOLD);

/// Numerical profile controlling how long and how accurately to simulate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverProfile {
    /// Simulated end time (domain units; the shock crosses the whole
    /// domain in roughly 0.37 time units).
    pub t_final: f64,
    /// Steps between regrid cycles.
    pub regrid_interval: u64,
    /// Coarsest level of the forest.
    pub minlevel: u8,
    /// Hard cap on time steps (safety against pathological configs).
    pub max_steps: u64,
    /// Time-integration mode (level-synchronous or Berger–Oliger
    /// subcycled).
    pub time_stepping: TimeStepping,
}

impl SolverProfile {
    /// Profile used for dataset generation: a short burst of the early
    /// shock–bubble interaction. The adaptive census (sensitive to `r0`,
    /// `rhoin`, `maxlevel`, `mx`) is fully formed at initialization and the
    /// step count carries the wave-speed dependence on `rhoin`; the machine
    /// model's `full_sim_scale` maps this burst to a production-length run.
    pub fn paper() -> Self {
        SolverProfile {
            t_final: 0.005,
            regrid_interval: 4,
            minlevel: 2,
            max_steps: 200_000,
            time_stepping: TimeStepping::Subcycled,
        }
    }

    /// Reduced-accuracy profile (shorter horizon) for quick dataset
    /// regeneration (`--fast` in the experiment binaries).
    pub fn fast() -> Self {
        SolverProfile {
            t_final: 0.002,
            ..Self::paper()
        }
    }

    /// Tiny profile for unit/integration tests. Stays level-synchronous:
    /// several tests pin the lockstep work-counting contract (e.g. step
    /// counts growing with `maxlevel`), and the mode keeps a second
    /// integration path exercised in every suite run.
    pub fn smoke() -> Self {
        SolverProfile {
            t_final: 0.001,
            minlevel: 1,
            regrid_interval: 4,
            max_steps: 200_000,
            time_stepping: TimeStepping::LevelSynchronous,
        }
    }

    /// Open-ended subcycled profile for perf measurement: `t_final` is
    /// unbounded so the caller times individual `step()` calls instead of
    /// racing a horizon, and subcycling matches the production
    /// (dataset-generation) integration path.
    pub fn bench() -> Self {
        SolverProfile {
            t_final: f64::INFINITY,
            time_stepping: TimeStepping::Subcycled,
            ..Self::smoke()
        }
    }
}

/// Work performed by a simulation — the machine model's input.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkStats {
    /// Coarse (global) time steps taken.
    pub steps: u64,
    /// Per-level advances summed over all levels: the number of
    /// synchronization rounds a parallel run would execute. Equals
    /// `steps` under [`TimeStepping::LevelSynchronous`]; larger under
    /// [`TimeStepping::Subcycled`], where level ℓ contributes
    /// `2^(ℓ − ℓ_min)` advances per coarse step.
    pub level_steps: u64,
    /// Directional cell updates (one cell, one sweep).
    pub cell_updates: u64,
    /// Ghost cells exchanged between patches (communication volume).
    pub ghost_cells: u64,
    /// Ghost cells filled from physical boundaries.
    pub boundary_cells: u64,
    /// Coarse faces corrected by refluxing.
    pub reflux_faces: u64,
    /// Regrid cycles executed.
    pub regrid_count: u64,
    /// Patches refined or coarsened across all regrids.
    pub regrid_changes: u64,
    /// Peak resident cells including ghost storage.
    pub peak_storage_cells: u64,
    /// Peak leaf-patch count.
    pub peak_leaves: u64,
    /// Simulated time actually reached.
    pub final_time: f64,
    /// `Some` when the run stopped meaningfully short of `t_final`
    /// (step cap, collapsed dt); `None` for a completed run.
    pub truncation: Option<TruncationReason>,
}

impl WorkStats {
    /// Whether the run stopped short of its configured end time.
    pub fn truncated(&self) -> bool {
        self.truncation.is_some()
    }
}

/// Driver owning the forest, boundary conditions and counters.
#[derive(Debug, Clone)]
pub struct AmrSolver {
    forest: Forest,
    bc: Bc,
    profile: SolverProfile,
    time: f64,
    stats: WorkStats,
    /// Sweep buffers reused across every patch and sweep of the run.
    scratch: SweepScratch,
    /// Per-level substep counters (indexed by level) driving the
    /// alternating x/y sweep order under subcycling; level ℓ alternates
    /// on its own cadence so a uniform forest reproduces the
    /// level-synchronous sweep sequence exactly.
    level_substeps: Vec<u64>,
    /// The leaves whose flux registers a sweep keeps, per axis; rebuilt
    /// only when the forest changes (construction and regrid).
    interfaces: InterfaceLeaves,
}

/// Per-axis sets of the leaves with a neighbour at another level across a
/// face on that axis ([`Forest::interface_leaves`]): the only leaves whose
/// boundary fluxes refluxing reads.
#[derive(Debug, Clone)]
struct InterfaceLeaves {
    x: BTreeSet<PatchKey>,
    y: BTreeSet<PatchKey>,
}

impl InterfaceLeaves {
    fn of(forest: &Forest) -> Self {
        InterfaceLeaves {
            x: forest.interface_leaves(Axis::X),
            y: forest.interface_leaves(Axis::Y),
        }
    }

    fn on(&self, axis: Axis) -> &BTreeSet<PatchKey> {
        match axis {
            Axis::X => &self.x,
            Axis::Y => &self.y,
        }
    }
}

/// Per-axis boundary-flux registers recorded while a level advances,
/// handed up the recursion for refluxing against the parent level.
struct LevelFluxes {
    x: BTreeMap<PatchKey, BoundaryFluxes>,
    y: BTreeMap<PatchKey, BoundaryFluxes>,
}

impl LevelFluxes {
    fn new() -> Self {
        LevelFluxes {
            x: BTreeMap::new(),
            y: BTreeMap::new(),
        }
    }

    /// The start of the time average of a fine level's two sub-steps
    /// (weight 1/2 each, matching `dt_fine = dt_coarse / 2`): `½·first`
    /// per register, accumulated onto zeros.
    fn half_of(first: LevelFluxes) -> Self {
        let half = |registers: &BTreeMap<PatchKey, BoundaryFluxes>| {
            registers
                .iter()
                .map(|(key, fluxes)| {
                    let mut avg = BoundaryFluxes::zeros(fluxes.lo.len());
                    avg.add_scaled(fluxes, 0.5);
                    (*key, avg)
                })
                .collect()
        };
        LevelFluxes {
            x: half(&first.x),
            y: half(&first.y),
        }
    }

    /// Complete the average: add `½·second` to each register it holds.
    fn add_half(&mut self, second: &LevelFluxes) {
        for (avg, other) in [(&mut self.x, &second.x), (&mut self.y, &second.y)] {
            for (key, fluxes) in avg.iter_mut() {
                if let Some(other) = other.get(key) {
                    fluxes.add_scaled(other, 0.5);
                }
            }
        }
    }
}

impl AmrSolver {
    /// Set up the shock–bubble problem for `config`: build the forest,
    /// adaptively refine the initial condition, and install the inflow
    /// (west) / outflow boundary conditions.
    ///
    /// # Panics
    ///
    /// If `config.mx < 4` (the MUSCL stencil needs four cells) or
    /// `config.maxlevel > 15` (patch coordinates would overflow).
    /// [`run_simulation`](crate::run_simulation) runs
    /// [`SimulationConfig::check`] first and returns
    /// [`AmrError::InvalidConfig`] instead.
    pub fn new(config: &SimulationConfig, profile: SolverProfile) -> Self {
        Self::with_problem(
            &crate::problem::ShockBubbleProblem::new(*config),
            config.mx,
            config.maxlevel,
            profile,
        )
    }

    /// Set up an arbitrary [`Problem`](crate::problem::Problem) on an
    /// `mx`-cell patch forest refined up to `maxlevel`.
    pub fn with_problem(
        problem: &dyn crate::problem::Problem,
        mx: usize,
        maxlevel: u8,
        profile: SolverProfile,
    ) -> Self {
        let minlevel = profile.minlevel.min(maxlevel);
        let mut forest = Forest::uniform(mx, minlevel, maxlevel);
        forest.init_adaptive(&|x, y| problem.initial_state(x, y), REFINE_THRESHOLD);
        Self::from_forest(forest, problem.boundary_conditions(), profile)
    }

    /// Take over an initialized forest at time 0.
    fn from_forest(forest: Forest, bc: Bc, profile: SolverProfile) -> Self {
        let stats = WorkStats {
            peak_storage_cells: forest.total_storage_cells(),
            peak_leaves: forest.n_leaves() as u64,
            ..WorkStats::default()
        };

        AmrSolver {
            interfaces: InterfaceLeaves::of(&forest),
            forest,
            bc,
            profile,
            time: 0.0,
            stats,
            scratch: SweepScratch::default(),
            level_substeps: Vec::new(),
        }
    }

    /// Current simulated time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> &WorkStats {
        &self.stats
    }

    /// The forest (for visualization and inspection).
    pub fn forest(&self) -> &Forest {
        &self.forest
    }

    /// Advance one coarse time step in the profile's stepping mode.
    /// Returns the `dt` taken, or [`AmrError`] if the forest's structural
    /// invariants are broken.
    pub fn step(&mut self) -> Result<f64, AmrError> {
        match self.profile.time_stepping {
            TimeStepping::LevelSynchronous => self.step_synchronous(),
            TimeStepping::Subcycled => self.step_subcycled(),
        }
    }

    /// Level-synchronous step: every leaf advances with the finest-level
    /// CFL step (ghost fill → x sweep → ghost fill → y sweep, alternating
    /// the sweep order every step for second-order splitting symmetry).
    fn step_synchronous(&mut self) -> Result<f64, AmrError> {
        let mut dt = self.forest.cfl_dt(CFL);
        // Do not overshoot the end time.
        if self.time + dt > self.profile.t_final {
            dt = self.profile.t_final - self.time;
        }
        self.advance_all_levels_lockstep(dt)?;
        self.time += dt;
        self.finish_step();
        Ok(dt)
    }

    /// One lockstep advance of every leaf by `dt`: the level-synchronous
    /// step body, also used by the subcycled mode for a final clamped
    /// step too small to be worth a subcycle hierarchy.
    fn advance_all_levels_lockstep(&mut self, dt: f64) -> Result<(), AmrError> {
        let x_first = self.stats.steps.is_multiple_of(2);
        for half in 0..2 {
            let ex = self.forest.fill_ghosts(&self.bc)?;
            self.stats.ghost_cells += ex.exchanged();
            self.stats.boundary_cells += ex.boundary_cells;
            let axis = if (half == 0) == x_first {
                Axis::X
            } else {
                Axis::Y
            };
            let registers: BTreeMap<PatchKey, BoundaryFluxes> =
                self.sweep(None, axis, dt).into_iter().collect();
            self.stats.reflux_faces += self.forest.reflux(axis, &registers, dt)?;
        }
        self.stats.level_steps += 1;
        Ok(())
    }

    /// Berger–Oliger step: the coarsest populated level takes one step at
    /// its own CFL limit and each finer level recursively takes two halved
    /// sub-steps, refluxing against its parent after the pair completes.
    fn step_subcycled(&mut self) -> Result<f64, AmrError> {
        let coarsest = self.forest.coarsest_level();
        let finest = self.forest.finest_level();
        let mut dt = self.forest.cfl_dt_subcycled(CFL, coarsest);
        // Do not overshoot the end time.
        if self.time + dt > self.profile.t_final {
            dt = self.profile.t_final - self.time;
        }

        if dt < self.forest.cfl_dt(CFL) {
            // The end-time clamp shrank dt below even the finest level's
            // CFL step; a single lockstep advance is both stable and
            // strictly cheaper than recursing through 2^ℓ sub-steps of an
            // already-tiny dt.
            self.advance_all_levels_lockstep(dt)?;
        } else {
            let mut snapshots: Vec<BTreeMap<PatchKey, EdgeRing>> =
                vec![BTreeMap::new(); finest as usize + 1];
            self.advance_level(coarsest, finest, dt, 0.0, &mut snapshots)?;
        }

        self.time += dt;
        self.finish_step();
        Ok(dt)
    }

    /// Sweep every leaf of `level` (all leaves when `None`) in direction
    /// `axis` by `dt`, in ascending key order, and count the directional
    /// cell updates. Returns, in that order, the `(key, boundary fluxes)`
    /// reflux registers of the leaves refluxing reads: those with a
    /// neighbour at another level across a face on `axis`.
    fn sweep(&mut self, level: Option<u8>, axis: Axis, dt: f64) -> Vec<(PatchKey, BoundaryFluxes)> {
        let keep = self.interfaces.on(axis);
        let mut registers = Vec::new();
        for (key, patch) in self.forest.patches_mut(level) {
            let fluxes = match axis {
                Axis::X => patch.sweep_x(dt, &mut self.scratch),
                Axis::Y => patch.sweep_y(dt, &mut self.scratch),
            };
            if keep.contains(&key) {
                registers.push((key, fluxes));
            }
            self.stats.cell_updates += patch.interior_cell_count();
        }
        registers
    }

    /// Advance every leaf on `level` by `dt` (two directional sweeps),
    /// then recurse into `level + 1` for two sub-steps of `dt / 2` and
    /// reflux this level's coarse–fine faces with the time-averaged fine
    /// fluxes. `theta0` locates this step's start within the parent's
    /// step interval (0 for the first sub-step, 1/2 for the second) and
    /// drives time interpolation of coarse ghost data; `snapshots[ℓ]`
    /// holds pre-step edge rings of the interface patches of level ℓ.
    /// Returns this level's interface-leaf boundary-flux registers for the
    /// caller.
    fn advance_level(
        &mut self,
        level: u8,
        finest: u8,
        dt: f64,
        theta0: f64,
        snapshots: &mut Vec<BTreeMap<PatchKey, EdgeRing>>,
    ) -> Result<LevelFluxes, AmrError> {
        // Snapshot the edges of coarse–fine interface patches before this
        // level moves so the finer level can interpolate its ghost bands
        // in time across [t, t + dt].
        if level < finest {
            snapshots[level as usize] = self.forest.snapshot_interface_edges(level);
        }
        if self.level_substeps.len() <= level as usize {
            self.level_substeps.resize(level as usize + 1, 0);
        }

        let x_first = self.level_substeps[level as usize].is_multiple_of(2);
        let mut fluxes = LevelFluxes::new();
        let no_parent = BTreeMap::new();

        for half in 0..2 {
            let parent_old = match level as usize {
                0 => &no_parent,
                l => &snapshots[l - 1],
            };
            let ex = self
                .forest
                .fill_ghosts_level(level, &self.bc, parent_old, theta0)?;
            self.stats.ghost_cells += ex.exchanged();
            self.stats.boundary_cells += ex.boundary_cells;
            let axis = if (half == 0) == x_first {
                Axis::X
            } else {
                Axis::Y
            };
            let registers = self.sweep(Some(level), axis, dt);
            match axis {
                Axis::X => fluxes.x.extend(registers),
                Axis::Y => fluxes.y.extend(registers),
            }
        }
        self.level_substeps[level as usize] += 1;
        self.stats.level_steps += 1;

        if level < finest {
            let half_dt = 0.5 * dt;
            // Average each sub-step's registers in as it returns, so at
            // most two copies of the fine registers are alive at once.
            let first = self.advance_level(level + 1, finest, half_dt, 0.0, snapshots)?;
            let mut fine = LevelFluxes::half_of(first);
            let second = self.advance_level(level + 1, finest, half_dt, 0.5, snapshots)?;
            fine.add_half(&second);
            self.stats.reflux_faces +=
                self.forest
                    .reflux_level(Axis::X, &fluxes.x, &fine.x, dt, Some(level))?;
            self.stats.reflux_faces +=
                self.forest
                    .reflux_level(Axis::Y, &fluxes.y, &fine.y, dt, Some(level))?;
        }
        Ok(fluxes)
    }

    /// Bookkeeping shared by both stepping modes after the coarse step's
    /// time advance: step counters and the regrid cadence.
    fn finish_step(&mut self) {
        self.stats.steps += 1;
        self.stats.final_time = self.time;

        if self
            .stats
            .steps
            .is_multiple_of(self.profile.regrid_interval)
        {
            let changes = self.forest.regrid(REFINE_THRESHOLD, COARSEN_THRESHOLD);
            self.interfaces = InterfaceLeaves::of(&self.forest);
            self.stats.regrid_count += 1;
            self.stats.regrid_changes += changes as u64;
            self.stats.peak_storage_cells = self
                .stats
                .peak_storage_cells
                .max(self.forest.total_storage_cells());
            self.stats.peak_leaves = self.stats.peak_leaves.max(self.forest.n_leaves() as u64);
        }
    }

    /// Whether the simulation has reached `t_final` up to floating-point
    /// round-off from clamped final steps.
    fn completed(&self) -> bool {
        self.profile.t_final - self.time <= 1e-12 * self.profile.t_final.abs()
    }

    /// Run until `t_final` (or the step cap). Returns the final counters;
    /// a stop meaningfully short of `t_final` is recorded in
    /// [`WorkStats::truncation`] rather than silently reported as complete.
    pub fn run(&mut self) -> Result<WorkStats, AmrError> {
        while self.time < self.profile.t_final {
            if self.stats.steps >= self.profile.max_steps {
                if !self.completed() {
                    self.stats.truncation = Some(TruncationReason::MaxSteps);
                }
                break;
            }
            let dt = self.step()?;
            if dt <= 0.0 || !dt.is_finite() {
                if !self.completed() {
                    self.stats.truncation = Some(TruncationReason::TimeStepCollapse);
                }
                break;
            }
        }
        Ok(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SimulationConfig {
        SimulationConfig {
            p: 4,
            mx: 8,
            maxlevel: 3,
            r0: 0.35,
            rhoin: 0.1,
        }
    }

    #[test]
    fn initial_forest_refines_around_features() {
        let solver = AmrSolver::new(&tiny_config(), SolverProfile::smoke());
        let census = solver.forest().census();
        assert!(
            census.counts[3] > 0,
            "finest level populated at shock/bubble: {census:?}"
        );
        // The whole domain is NOT uniformly refined.
        assert!(
            (solver.forest().n_leaves() as u64) < 64,
            "{} leaves",
            solver.forest().n_leaves()
        );
    }

    #[test]
    fn step_advances_time_and_counts_work() {
        let mut solver = AmrSolver::new(&tiny_config(), SolverProfile::smoke());
        let dt = solver.step().expect("step");
        assert!(dt > 0.0);
        let s = solver.stats();
        assert_eq!(s.steps, 1);
        assert!(s.cell_updates > 0);
        assert!(s.ghost_cells > 0);
        assert!((solver.time() - dt).abs() < 1e-15);
    }

    #[test]
    fn run_reaches_t_final() {
        let mut solver = AmrSolver::new(&tiny_config(), SolverProfile::smoke());
        let stats = solver.run().expect("run");
        assert!((stats.final_time - SolverProfile::smoke().t_final).abs() < 1e-12);
        assert!(stats.steps >= 1);
        assert!(stats.regrid_count > 0 || stats.steps < 4);
    }

    #[test]
    fn solution_stays_physical() {
        let mut solver = AmrSolver::new(&tiny_config(), SolverProfile::smoke());
        solver.run().expect("run");
        for (_, patch) in solver.forest().iter() {
            for cy in 0..patch.mx() {
                for cx in 0..patch.mx() {
                    let q = patch.interior(cx, cy);
                    assert!(q[0] > 0.0, "negative density");
                    assert!(
                        crate::euler::pressure(q) > 0.0,
                        "negative pressure at {:?}",
                        patch.cell_center(cx, cy)
                    );
                }
            }
        }
    }

    #[test]
    fn more_levels_cost_more_work() {
        let mut shallow = AmrSolver::new(
            &SimulationConfig {
                maxlevel: 2,
                ..tiny_config()
            },
            SolverProfile::smoke(),
        );
        let mut deep = AmrSolver::new(
            &SimulationConfig {
                maxlevel: 4,
                ..tiny_config()
            },
            SolverProfile::smoke(),
        );
        let ws = shallow.run().expect("run");
        let wd = deep.run().expect("run");
        assert!(
            wd.cell_updates > 2 * ws.cell_updates,
            "deep {} vs shallow {}",
            wd.cell_updates,
            ws.cell_updates
        );
        assert!(wd.peak_storage_cells > ws.peak_storage_cells);
        assert!(wd.steps > ws.steps, "finer grid forces smaller dt");
    }

    #[test]
    fn bigger_bubble_refines_more() {
        // maxlevel 4 so the bubble interface is resolved enough for its
        // circumference (∝ r0) to dominate the leaf count.
        let small = AmrSolver::new(
            &SimulationConfig {
                r0: 0.2,
                maxlevel: 4,
                ..tiny_config()
            },
            SolverProfile::smoke(),
        );
        let large = AmrSolver::new(
            &SimulationConfig {
                r0: 0.5,
                maxlevel: 4,
                ..tiny_config()
            },
            SolverProfile::smoke(),
        );
        assert!(
            large.forest().n_leaves() > small.forest().n_leaves(),
            "large bubble {} vs small {}",
            large.forest().n_leaves(),
            small.forest().n_leaves()
        );
    }

    #[test]
    fn peak_counters_never_decrease() {
        let mut solver = AmrSolver::new(&tiny_config(), SolverProfile::smoke());
        let initial_peak = solver.stats().peak_storage_cells;
        solver.run().expect("run");
        assert!(solver.stats().peak_storage_cells >= initial_peak);
        assert!(solver.stats().peak_leaves >= 1);
    }

    #[test]
    fn profiles_are_ordered_by_cost() {
        assert!(SolverProfile::smoke().t_final < SolverProfile::fast().t_final);
        assert!(SolverProfile::fast().t_final < SolverProfile::paper().t_final);
    }

    #[test]
    fn dataset_profiles_default_to_subcycling() {
        assert_eq!(
            SolverProfile::paper().time_stepping,
            TimeStepping::Subcycled
        );
        assert_eq!(SolverProfile::fast().time_stepping, TimeStepping::Subcycled);
        assert_eq!(
            SolverProfile::smoke().time_stepping,
            TimeStepping::LevelSynchronous
        );
    }

    #[test]
    fn completed_run_reports_no_truncation() {
        let mut solver = AmrSolver::new(&tiny_config(), SolverProfile::smoke());
        let stats = solver.run().expect("run");
        assert_eq!(stats.truncation, None);
        assert!(!stats.truncated());
    }

    #[test]
    fn step_cap_sets_truncation_reason() {
        let profile = SolverProfile {
            t_final: 1.0,
            max_steps: 3,
            ..SolverProfile::smoke()
        };
        let mut solver = AmrSolver::new(&tiny_config(), profile);
        let stats = solver.run().expect("run");
        assert_eq!(stats.truncation, Some(TruncationReason::MaxSteps));
        assert!(stats.truncated());
        assert_eq!(stats.steps, 3);
        assert!(stats.final_time < 1.0);
    }

    #[test]
    fn subcycled_step_holds_edge_rings_and_interface_registers_only() {
        // One refined quadrant of a level-1 forest, mx = 8: the fine block
        // (2, 0..2, 0..2) meets coarse (1, 1, 0) across x and (1, 0, 1)
        // across y; (1, 1, 1) touches only coarse leaves.
        let mut forest = Forest::uniform(8, 1, 2);
        forest.refine_patch((1, 0, 0));
        forest.fill_all(&|x, y| {
            let r2 = (x - 0.5) * (x - 0.5) + (y - 0.5) * (y - 0.5);
            let amp = 2.0 * (-r2 / 0.01).exp();
            crate::euler::conservative(1.0 + amp, 0.0, 0.0, 1.0 + amp)
        });
        let mut solver =
            AmrSolver::from_forest(forest, Bc::all_extrapolate(), SolverProfile::bench());
        let dt = solver.forest.cfl_dt_subcycled(CFL, 1);
        let keys =
            |regs: &BTreeMap<PatchKey, BoundaryFluxes>| regs.keys().copied().collect::<Vec<_>>();

        // The body of one subcycled step: level 1, then two level-2 substeps.
        let mut snapshots = vec![BTreeMap::new(); 3];
        let coarse = solver
            .advance_level(1, 2, dt, 0.0, &mut snapshots)
            .expect("coarse step");
        // Each snapshot is the NG-deep edge ring: 4·NG·(mx − NG) = 48
        // states, not the patch's (mx + 2·NG)² = 144.
        let held: Vec<(PatchKey, usize)> =
            snapshots[1].iter().map(|(k, r)| (*k, r.len())).collect();
        assert_eq!(held, [((1, 0, 1), 48), ((1, 1, 0), 48)]);
        assert!(
            snapshots[2].is_empty(),
            "the finest level is never snapshotted"
        );
        assert_eq!(keys(&coarse.x), [(1, 1, 0)]);
        assert_eq!(keys(&coarse.y), [(1, 0, 1)]);

        // A fine substep keeps the fine side of the same interfaces.
        let fine = solver
            .advance_level(2, 2, 0.5 * dt, 0.0, &mut snapshots)
            .expect("fine substep");
        assert_eq!(keys(&fine.x), [(2, 1, 0), (2, 1, 1)]);
        assert_eq!(keys(&fine.y), [(2, 0, 1), (2, 1, 1)]);
    }

    #[test]
    fn subcycled_run_reaches_t_final_with_more_level_steps() {
        let profile = SolverProfile {
            t_final: 0.005,
            time_stepping: TimeStepping::Subcycled,
            ..SolverProfile::smoke()
        };
        let mut solver = AmrSolver::new(&tiny_config(), profile);
        let stats = solver.run().expect("run");
        assert!(stats.truncation.is_none());
        assert!((stats.final_time - 0.005).abs() < 1e-12);
        assert!(
            stats.level_steps > stats.steps,
            "multi-level hierarchy must take per-level sub-steps: {} vs {}",
            stats.level_steps,
            stats.steps
        );
    }
}
