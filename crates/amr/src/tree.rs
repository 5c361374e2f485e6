//! Quadtree forest of patches: leaf storage, ghost-cell exchange across
//! same-level / coarse–fine interfaces, refinement, coarsening and 2:1
//! balance — the role p4est plays under FORESTCLAW.
//!
//! Leaves are kept in a `BTreeMap` keyed by `(level, i, j)` so iteration
//! order — and therefore every floating-point reduction — is deterministic
//! across runs, which the reproducibility of dataset generation relies on.

// Hot path: every truncating `as` cast carries a checked reason.
#![warn(clippy::cast_possible_truncation)]

use crate::error::AmrError;
use crate::euler::{self, State, NVAR};
use crate::patch::{BoundaryFluxes, Patch, Side, DOMAIN, NG};
use std::collections::{BTreeMap, BTreeSet};

/// Sweep direction, for refluxing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// x-direction sweep (west/east faces).
    X,
    /// y-direction sweep (south/north faces).
    Y,
}

impl Axis {
    /// The two faces a sweep along this axis crosses, low side first.
    fn sides(self) -> [Side; 2] {
        match self {
            Axis::X => [Side::West, Side::East],
            Axis::Y => [Side::South, Side::North],
        }
    }
}

/// Identifies a patch position: `(level, i, j)` with `i, j < 2^level`.
pub type PatchKey = (u8, u32, u32);

/// Boundary condition applied to ghost bands that fall outside the domain.
#[derive(Debug, Clone, Copy)]
pub enum BcKind {
    /// Zero-order extrapolation (outflow).
    Extrapolate,
    /// Fixed external state (inflow), e.g. the post-shock state driving the
    /// shock–bubble problem from the west.
    Inflow(State),
}

/// Per-side boundary conditions for the square domain.
#[derive(Debug, Clone, Copy)]
pub struct Bc {
    /// `-x` boundary.
    pub west: BcKind,
    /// `+x` boundary.
    pub east: BcKind,
    /// `-y` boundary.
    pub south: BcKind,
    /// `+y` boundary.
    pub north: BcKind,
}

impl Bc {
    /// Outflow on all four sides.
    pub fn all_extrapolate() -> Self {
        Bc {
            west: BcKind::Extrapolate,
            east: BcKind::Extrapolate,
            south: BcKind::Extrapolate,
            north: BcKind::Extrapolate,
        }
    }

    fn for_side(&self, side: Side) -> BcKind {
        match side {
            Side::West => self.west,
            Side::East => self.east,
            Side::South => self.south,
            Side::North => self.north,
        }
    }
}

/// Counters for communication-shaped work, fed to the machine model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExchangeStats {
    /// Ghost cells filled by same-level copies.
    pub same_level_cells: u64,
    /// Ghost cells filled by coarse→fine prolongation.
    pub prolonged_cells: u64,
    /// Ghost cells filled by fine→coarse restriction.
    pub restricted_cells: u64,
    /// Ghost cells filled by physical boundary conditions.
    pub boundary_cells: u64,
}

impl ExchangeStats {
    /// Total ghost cells moved between patches (communication volume).
    pub fn exchanged(&self) -> u64 {
        self.same_level_cells + self.prolonged_cells + self.restricted_cells
    }
}

/// Census of the forest per refinement level (Fig. 1's patch counts).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LevelCensus {
    /// `counts[l]` = number of leaf patches at level `l`.
    pub counts: Vec<usize>,
}

/// Pre-step copy of the interior cells within [`NG`] cells of a patch's
/// edges: `4·NG·(mx − NG)` states instead of the patch's `(mx + 2·NG)²`.
///
/// Coarse→fine prolongation reads only this ring. A coarser face
/// neighbour meets a fine patch only on the boundary of the fine patch's
/// parent, and a fine ghost band of `NG` = 2 fine cells lies within one
/// coarse cell of that face, so every coarse cell it samples sits in the
/// coarse patch's outermost row or column.
#[derive(Debug, Clone)]
pub(crate) struct EdgeRing {
    mx: usize,
    /// The `NG` south rows and the `NG` north rows (`mx` cells each),
    /// then, for every row between them, its `NG` west and `NG` east
    /// cells.
    cells: Vec<State>,
}

impl EdgeRing {
    fn capture(patch: &Patch) -> Self {
        let mx = patch.mx();
        let mut cells = Vec::with_capacity(4 * NG * (mx - NG));
        for cy in (0..NG).chain(mx - NG..mx) {
            cells.extend((0..mx).map(|cx| *patch.interior(cx, cy)));
        }
        for cy in NG..mx - NG {
            cells.extend((0..NG).chain(mx - NG..mx).map(|cx| *patch.interior(cx, cy)));
        }
        EdgeRing { mx, cells }
    }

    /// Interior cell `(cx, cy)` as it was when captured. Panics off the
    /// ring: a read there would mean the prolongation stencil outgrew it.
    fn interior(&self, cx: usize, cy: usize) -> &State {
        let mx = self.mx;
        let on_edge = |c: usize| c < NG || c >= mx - NG;
        assert!(
            cx < mx && cy < mx && (on_edge(cx) || on_edge(cy)),
            "cell ({cx}, {cy}) is off the {NG}-deep edge ring of an mx = {mx} patch"
        );
        let index = if cy < NG {
            cy * mx + cx
        } else if cy >= mx - NG {
            (cy + 2 * NG - mx) * mx + cx
        } else {
            let col = if cx < NG { cx } else { cx + 2 * NG - mx };
            2 * NG * mx + (cy - NG) * 2 * NG + col
        };
        &self.cells[index]
    }

    /// States held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }
}

/// A quadtree forest of `mx × mx` patches covering the unit square.
///
/// # Examples
///
/// ```
/// use al_amr_sim::euler::conservative;
/// use al_amr_sim::tree::Forest;
///
/// let mut forest = Forest::uniform(8, 1, 3);
/// // A density jump refines the patches containing it to maxlevel.
/// forest.init_adaptive(
///     &|x, _y| conservative(if x < 0.3 { 1.0 } else { 3.0 }, 0.0, 0.0, 1.0),
///     0.2,
/// );
/// let census = forest.census();
/// assert!(census.counts[3] > 0, "finest level reached");
/// assert!(forest.n_leaves() < 64, "refinement is selective");
/// ```
#[derive(Debug, Clone)]
pub struct Forest {
    mx: usize,
    minlevel: u8,
    maxlevel: u8,
    leaves: BTreeMap<PatchKey, Patch>,
}

impl Forest {
    /// Create a forest uniformly refined at `minlevel` with zeroed patches.
    pub fn uniform(mx: usize, minlevel: u8, maxlevel: u8) -> Self {
        assert!(minlevel <= maxlevel);
        assert!(maxlevel < 16, "levels above 15 overflow patch coordinates");
        let mut leaves = BTreeMap::new();
        let n = 1u32 << minlevel;
        for j in 0..n {
            for i in 0..n {
                leaves.insert((minlevel, i, j), Patch::new(minlevel, i, j, mx));
            }
        }
        Forest {
            mx,
            minlevel,
            maxlevel,
            leaves,
        }
    }

    /// Interior cells per patch side.
    pub fn mx(&self) -> usize {
        self.mx
    }

    /// Coarsest allowed level.
    pub fn minlevel(&self) -> u8 {
        self.minlevel
    }

    /// Finest allowed level.
    pub fn maxlevel(&self) -> u8 {
        self.maxlevel
    }

    /// Number of leaf patches.
    pub fn n_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Snapshot of all leaf keys in deterministic order.
    pub fn leaf_keys(&self) -> Vec<PatchKey> {
        self.leaves.keys().copied().collect()
    }

    /// Snapshot of the leaf keys at one refinement level, in deterministic
    /// order (the per-level iteration unit of Berger–Oliger subcycling).
    fn leaf_keys_at(&self, level: u8) -> Vec<PatchKey> {
        self.leaves
            .keys()
            .filter(|(l, _, _)| *l == level)
            .copied()
            .collect()
    }

    /// Coarsest populated level (equals `minlevel` unless regridding has
    /// eliminated every coarse leaf).
    pub fn coarsest_level(&self) -> u8 {
        self.leaves
            .keys()
            .map(|(l, _, _)| *l)
            .min()
            .unwrap_or(self.minlevel)
    }

    /// Finest populated level.
    pub fn finest_level(&self) -> u8 {
        self.leaves
            .keys()
            .map(|(l, _, _)| *l)
            .max()
            .unwrap_or(self.minlevel)
    }

    /// Borrow a leaf patch.
    pub fn get(&self, key: PatchKey) -> Option<&Patch> {
        self.leaves.get(&key)
    }

    /// Mutably borrow a leaf patch.
    pub fn get_mut(&mut self, key: PatchKey) -> Option<&mut Patch> {
        self.leaves.get_mut(&key)
    }

    /// Iterate over `(key, patch)` pairs in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&PatchKey, &Patch)> {
        self.leaves.iter()
    }

    /// Iterate mutably over `(key, patch)` pairs in deterministic order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&PatchKey, &mut Patch)> {
        self.leaves.iter_mut()
    }

    /// Disjoint mutable borrows of every leaf (or only the leaves of
    /// `level`, when given), in ascending key order — the order in which
    /// the solver sweeps a level, so its reflux registers and work
    /// counters are reproducible.
    pub fn patches_mut(&mut self, level: Option<u8>) -> Vec<(PatchKey, &mut Patch)> {
        self.leaves
            .iter_mut()
            .filter(|((l, _, _), _)| level.is_none_or(|want| *l == want))
            .map(|(k, p)| (*k, p))
            .collect()
    }

    /// Total interior cells over all leaves.
    pub fn total_interior_cells(&self) -> u64 {
        (self.leaves.len() * self.mx * self.mx) as u64
    }

    /// Total stored cells including ghost layers (memory footprint proxy).
    pub fn total_storage_cells(&self) -> u64 {
        self.leaves.values().map(|p| p.storage_cells() as u64).sum()
    }

    /// Leaf counts per level, indexed `0..=maxlevel`.
    pub fn census(&self) -> LevelCensus {
        let mut counts = vec![0usize; self.maxlevel as usize + 1];
        for (level, _, _) in self.leaves.keys() {
            counts[*level as usize] += 1;
        }
        LevelCensus { counts }
    }

    /// Integral of density over the domain.
    pub fn total_mass(&self) -> f64 {
        self.leaves.values().map(|p| p.total_mass()).sum()
    }

    /// Global CFL time step: `cfl · min_leaves(h / s_max)`.
    pub fn cfl_dt(&self, cfl: f64) -> f64 {
        self.leaves
            .values()
            .map(|p| p.h() / p.max_wave_speed().max(1e-12))
            .fold(f64::INFINITY, f64::min)
            * cfl
    }

    /// Coarse-level CFL step for Berger–Oliger subcycling: the largest
    /// `dt` such that level ℓ, advancing with `dt / 2^(ℓ − base)`, still
    /// satisfies its own CFL condition. For uniform wave speeds this
    /// equals the base level's CFL step (cell width doubles per coarser
    /// level, exactly cancelling the halved substep).
    pub fn cfl_dt_subcycled(&self, cfl: f64, base: u8) -> f64 {
        self.leaves
            .iter()
            .map(|((level, _, _), p)| {
                let refinements = level.saturating_sub(base) as i32;
                2f64.powi(refinements) * p.h() / p.max_wave_speed().max(1e-12)
            })
            .fold(f64::INFINITY, f64::min)
            * cfl
    }

    /// Fill every interior cell of every leaf from a pointwise function.
    pub fn fill_all(&mut self, f: &dyn Fn(f64, f64) -> State) {
        for patch in self.leaves.values_mut() {
            patch.fill_with(f);
        }
    }

    // ------------------------------------------------------------------
    // Ghost exchange
    // ------------------------------------------------------------------

    /// Fill the ghost bands of every leaf: same-level copy, coarse→fine
    /// piecewise-constant prolongation, fine→coarse restriction, and the
    /// physical boundary conditions `bc` at domain edges.
    ///
    /// Returns communication-volume statistics for the machine model, or
    /// [`AmrError`] if a leaf guaranteed by 2:1 balance is missing.
    pub fn fill_ghosts(&mut self, bc: &Bc) -> Result<ExchangeStats, AmrError> {
        self.fill_ghost_set(&self.leaf_keys(), bc, None)
    }

    /// Fill the ghost bands of the leaves at one refinement level only —
    /// the subcycled stepper's per-level exchange. `coarse_old` holds
    /// pre-step edge rings of the coarser patches bordering this level
    /// and `theta ∈ [0, 1]` the position of this level's substep within
    /// the coarse step: coarse→fine prolongation samples the linear
    /// interpolation `(1−θ)·old + θ·new` so fine ghosts see the coarse
    /// solution at the matching intermediate time.
    pub(crate) fn fill_ghosts_level(
        &mut self,
        level: u8,
        bc: &Bc,
        coarse_old: &BTreeMap<PatchKey, EdgeRing>,
        theta: f64,
    ) -> Result<ExchangeStats, AmrError> {
        self.fill_ghost_set(&self.leaf_keys_at(level), bc, Some((coarse_old, theta)))
    }

    // Each patch is taken out of the map so its neighbours can be read
    // immutably, which mutates the shared `leaves` structure per patch;
    // the loop runs in deterministic key order.
    fn fill_ghost_set(
        &mut self,
        keys: &[PatchKey],
        bc: &Bc,
        interp: Option<(&BTreeMap<PatchKey, EdgeRing>, f64)>,
    ) -> Result<ExchangeStats, AmrError> {
        let mut stats = ExchangeStats::default();
        for &key in keys {
            // Take the patch out so we can read neighbours immutably.
            let mut patch = self.leaves.remove(&key).ok_or(AmrError::MissingLeaf(key))?;
            for side in Side::ALL {
                if let Err(e) = self.fill_side(&mut patch, key, side, bc, interp, &mut stats) {
                    // Put the patch back so the forest stays structurally
                    // intact for post-mortem inspection.
                    self.leaves.insert(key, patch);
                    return Err(e);
                }
            }
            self.leaves.insert(key, patch);
        }
        Ok(stats)
    }

    fn fill_side(
        &self,
        patch: &mut Patch,
        key: PatchKey,
        side: Side,
        bc: &Bc,
        interp: Option<(&BTreeMap<PatchKey, EdgeRing>, f64)>,
        stats: &mut ExchangeStats,
    ) -> Result<(), AmrError> {
        let (level, i, j) = key;
        let n_side = 1i64 << level;
        let (di, dj) = side.offset();
        let (ni, nj) = (i as i64 + di, j as i64 + dj);
        let band = (NG * self.mx) as u64;

        if ni < 0 || ni >= n_side || nj < 0 || nj >= n_side {
            match bc.for_side(side) {
                BcKind::Extrapolate => patch.extrapolate_boundary(side),
                BcKind::Inflow(state) => patch.set_boundary(side, state),
            }
            stats.boundary_cells += band;
            return Ok(());
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "ni, nj are checked in 0..n_side above"
        )]
        let nk = (level, ni as u32, nj as u32);

        if let Some(nb) = self.leaves.get(&nk) {
            Self::copy_same_level(patch, nb, side, self.mx);
            stats.same_level_cells += band;
            return Ok(());
        }
        // Coarser neighbour: the parent of the would-be same-level
        // neighbour (2:1 balance guarantees at most one level difference).
        #[expect(
            clippy::cast_possible_truncation,
            reason = "ni, nj are checked in 0..n_side above"
        )]
        let parent = (level - 1, (ni / 2) as u32, (nj / 2) as u32);
        if level > 0 {
            if let Some(nb) = self.leaves.get(&parent) {
                let old = interp
                    .and_then(|(snapshots, theta)| snapshots.get(&parent).map(|p| (p, theta)));
                self.prolong_from_coarse(patch, key, nb, old, side);
                stats.prolonged_cells += band;
                return Ok(());
            }
        }
        // Finer neighbours: the two children of the would-be neighbour
        // that touch this face.
        self.restrict_from_fine(patch, key, side)?;
        stats.restricted_cells += band;
        Ok(())
    }

    /// Same-level exchange: copy the neighbour's interior cells adjacent to
    /// the shared face into this patch's ghost band.
    fn copy_same_level(patch: &mut Patch, nb: &Patch, side: Side, mx: usize) {
        for t in 0..mx {
            for g in 0..NG {
                let (dst, src) = match side {
                    // Ghost column NG+mx+g ← neighbour interior column g.
                    Side::East => ((NG + mx + g, NG + t), (NG + g, NG + t)),
                    // Ghost column g ← neighbour interior column mx-NG+g.
                    Side::West => ((g, NG + t), (NG + mx - NG + g, NG + t)),
                    Side::North => ((NG + t, NG + mx + g), (NG + t, NG + g)),
                    Side::South => ((NG + t, g), (NG + t, NG + mx - NG + g)),
                };
                *patch.get_mut(dst.0, dst.1) = *nb.get(src.0, src.1);
            }
        }
    }

    /// Global cell coordinates (at `level` resolution) of ghost cell
    /// `(ix, iy)` of the patch at `key`.
    fn global_coords(&self, key: PatchKey, ix: usize, iy: usize) -> (i64, i64) {
        let (_, i, j) = key;
        (
            i as i64 * self.mx as i64 + ix as i64 - NG as i64,
            j as i64 * self.mx as i64 + iy as i64 - NG as i64,
        )
    }

    /// Ghost-band cell ranges `(ix, iy)` for a face (excluding corners).
    fn ghost_band(&self, side: Side) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let mx = self.mx;
        match side {
            Side::West => (0..NG, NG..NG + mx),
            Side::East => (NG + mx..NG + mx + NG, NG..NG + mx),
            Side::South => (NG..NG + mx, 0..NG),
            Side::North => (NG..NG + mx, NG + mx..NG + mx + NG),
        }
    }

    /// Coarse→fine ghost fill: piecewise-constant sampling of the coarse
    /// neighbour's interior (first-order at the interface, standard for a
    /// performance-focused substrate). When `old` carries the neighbour's
    /// pre-step edge ring and a time fraction `θ`, the sampled value is the
    /// linear interpolation `(1−θ)·old + θ·new` — the time-interpolated
    /// ghost fill subcycled fine levels need at coarse–fine interfaces.
    fn prolong_from_coarse(
        &self,
        patch: &mut Patch,
        key: PatchKey,
        nb: &Patch,
        old: Option<(&EdgeRing, f64)>,
        side: Side,
    ) {
        let (xr, yr) = self.ghost_band(side);
        let (nb_level, nb_i, nb_j) = (nb.level(), nb.coords().0, nb.coords().1);
        debug_assert_eq!(nb_level, key.0 - 1);
        for iy in yr {
            for ix in xr.clone() {
                let (gx, gy) = self.global_coords(key, ix, iy);
                // Coordinates at the coarse level are halved.
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "2:1 balance puts the ghost cell inside the coarse patch: 0..mx"
                )]
                let cgx = (gx.div_euclid(2) - nb_i as i64 * self.mx as i64) as usize;
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "2:1 balance puts the ghost cell inside the coarse patch: 0..mx"
                )]
                let cgy = (gy.div_euclid(2) - nb_j as i64 * self.mx as i64) as usize;
                let mut value = *nb.interior(cgx, cgy);
                if let Some((prev, theta)) = old {
                    let before = prev.interior(cgx, cgy);
                    for k in 0..NVAR {
                        value[k] = (1.0 - theta) * before[k] + theta * value[k];
                    }
                }
                *patch.get_mut(ix, iy) = value;
            }
        }
    }

    /// Fine→coarse ghost fill: average the 2×2 fine cells under each coarse
    /// ghost cell, reading from whichever fine leaf holds them.
    fn restrict_from_fine(
        &self,
        patch: &mut Patch,
        key: PatchKey,
        side: Side,
    ) -> Result<(), AmrError> {
        let (xr, yr) = self.ghost_band(side);
        let fine_level = key.0 + 1;
        debug_assert!(fine_level <= self.maxlevel);
        for iy in yr {
            for ix in xr.clone() {
                let (gx, gy) = self.global_coords(key, ix, iy);
                let mut acc = [0.0; NVAR];
                for (ox, oy) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
                    let fx = gx * 2 + ox;
                    let fy = gy * 2 + oy;
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "an in-domain fine cell's patch index is in 0..2^level"
                    )]
                    let pi = (fx.div_euclid(self.mx as i64)) as u32;
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "an in-domain fine cell's patch index is in 0..2^level"
                    )]
                    let pj = (fy.div_euclid(self.mx as i64)) as u32;
                    let fine_key = (fine_level, pi, pj);
                    // 2:1 balance guarantees the fine neighbour leaves exist.
                    let leaf = self
                        .leaves
                        .get(&fine_key)
                        .ok_or(AmrError::MissingLeaf(fine_key))?;
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "div_euclid leaves a remainder in 0..mx"
                    )]
                    let cx = (fx - pi as i64 * self.mx as i64) as usize;
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "div_euclid leaves a remainder in 0..mx"
                    )]
                    let cy = (fy - pj as i64 * self.mx as i64) as usize;
                    let s = leaf.interior(cx, cy);
                    for k in 0..NVAR {
                        acc[k] += 0.25 * s[k];
                    }
                }
                *patch.get_mut(ix, iy) = acc;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Refluxing
    // ------------------------------------------------------------------

    /// Flux-register correction after a directional sweep: wherever a
    /// coarse patch borders finer patches, replace the coarse boundary
    /// cell's face flux by the average of the two fine face fluxes
    /// recorded on the other side, restoring discrete conservation at
    /// coarse–fine interfaces (Berger–Colella refluxing, simplified by the
    /// global time step — no time interpolation needed).
    ///
    /// `registers` must hold the [`BoundaryFluxes`] this sweep returned
    /// for every leaf with a neighbour at another level across a face on
    /// `axis` (the only ones read; others may be passed too) — a missing
    /// register is reported as [`AmrError::MissingFluxRegister`]. Returns
    /// the number of corrected coarse faces.
    pub fn reflux(
        &mut self,
        axis: Axis,
        registers: &BTreeMap<PatchKey, BoundaryFluxes>,
        dt: f64,
    ) -> Result<u64, AmrError> {
        self.reflux_level(axis, registers, registers, dt, None)
    }

    /// [`Forest::reflux`] with the coarse leaves' registers in `coarse`
    /// and the fine leaves' in `fine`, restricted to the coarse leaves of
    /// one level when `only_level` is given — the subcycled stepper
    /// refluxes each coarse–fine level pair on its own cadence, against
    /// the coarse level's sweep fluxes and the fine level's
    /// sub-step-averaged ones.
    pub(crate) fn reflux_level(
        &mut self,
        axis: Axis,
        coarse: &BTreeMap<PatchKey, BoundaryFluxes>,
        fine: &BTreeMap<PatchKey, BoundaryFluxes>,
        dt: f64,
        only_level: Option<u8>,
    ) -> Result<u64, AmrError> {
        let mx = self.mx;
        let mut corrected = 0u64;
        for key in self.leaf_keys() {
            let (level, i, j) = key;
            if only_level.is_some_and(|l| l != level) {
                continue;
            }
            for side in axis.sides() {
                if self.neighbor_level(key, side) != Some(level + 1) {
                    continue;
                }
                // A coarse leaf with a finer neighbour is an interface leaf.
                let own = coarse.get(&key).ok_or(AmrError::MissingFluxRegister(key))?;
                for t in 0..mx {
                    // The two fine faces under coarse transverse index `t`.
                    let mut correct = [0.0; NVAR];
                    for half in 0..2u32 {
                        // Global fine transverse coordinate.
                        #[expect(
                            clippy::cast_possible_truncation,
                            reason = "mx and t < mx are patch-sized"
                        )]
                        let transverse_global = match side {
                            Side::East | Side::West => (j * mx as u32 + t as u32) * 2 + half,
                            Side::North | Side::South => (i * mx as u32 + t as u32) * 2 + half,
                        };
                        #[expect(clippy::cast_possible_truncation, reason = "mx is patch-sized")]
                        let fine_patch_t = transverse_global / mx as u32;
                        #[expect(clippy::cast_possible_truncation, reason = "mx is patch-sized")]
                        let local = (transverse_global % mx as u32) as usize;
                        // Fine patch coordinate along the sweep axis: the
                        // child column/row touching the shared face.
                        let fine_key = match side {
                            Side::East => (level + 1, 2 * (i + 1), fine_patch_t),
                            Side::West => (level + 1, 2 * i - 1, fine_patch_t),
                            Side::North => (level + 1, fine_patch_t, 2 * (j + 1)),
                            Side::South => (level + 1, fine_patch_t, 2 * j - 1),
                        };
                        // 2:1 balance guarantees the fine registers exist.
                        let fine_fluxes = fine
                            .get(&fine_key)
                            .ok_or(AmrError::MissingFluxRegister(fine_key))?;
                        // The fine face opposite our side.
                        let flux = match side {
                            Side::East | Side::North => &fine_fluxes.lo[local],
                            Side::West | Side::South => &fine_fluxes.hi[local],
                        };
                        for k in 0..NVAR {
                            correct[k] += 0.5 * flux[k];
                        }
                    }
                    let used = match side {
                        Side::East | Side::North => own.hi[t],
                        Side::West | Side::South => own.lo[t],
                    };
                    let (cx, cy) = match side {
                        Side::East => (mx - 1, t),
                        Side::West => (0, t),
                        Side::North => (t, mx - 1),
                        Side::South => (t, 0),
                    };
                    let patch = self
                        .leaves
                        .get_mut(&key)
                        .ok_or(AmrError::MissingLeaf(key))?;
                    patch.apply_flux_correction(side, cx, cy, &used, &correct, dt);
                    corrected += 1;
                }
            }
        }
        Ok(corrected)
    }

    /// Pre-step edge rings of the level-`level` leaves that border a
    /// finer face neighbour — the interpolation sources for the fine
    /// level's time-interpolated ghost fill. Only interface patches are
    /// copied, and of each only the ring prolongation reads, keeping the
    /// subcycling scratch proportional to the coarse–fine interface.
    pub(crate) fn snapshot_interface_edges(&self, level: u8) -> BTreeMap<PatchKey, EdgeRing> {
        self.leaves
            .iter()
            .filter(|(&key, _)| {
                key.0 == level
                    && Side::ALL
                        .iter()
                        .any(|&side| self.neighbor_level(key, side) == Some(level + 1))
            })
            .map(|(&key, patch)| (key, EdgeRing::capture(patch)))
            .collect()
    }

    /// The leaves with a neighbour at another level across a face on
    /// `axis`: exactly the leaves whose registers [`Forest::reflux`]
    /// reads after a sweep along `axis`, as the coarse side's own fluxes
    /// or as the fine side's.
    pub(crate) fn interface_leaves(&self, axis: Axis) -> BTreeSet<PatchKey> {
        self.leaves
            .keys()
            .filter(|&&key| {
                axis.sides()
                    .iter()
                    .any(|&side| self.neighbor_level(key, side).is_some_and(|l| l != key.0))
            })
            .copied()
            .collect()
    }

    // ------------------------------------------------------------------
    // Refinement / coarsening
    // ------------------------------------------------------------------

    /// Split the leaf at `key` into its four children, prolonging the
    /// solution with limited (minmod) slopes. No-op above `maxlevel`.
    pub fn refine_patch(&mut self, key: PatchKey) {
        let (level, i, j) = key;
        if level >= self.maxlevel {
            return;
        }
        let Some(parent) = self.leaves.remove(&key) else {
            return;
        };
        let mx = self.mx;
        for (ci, cj) in [(0u32, 0u32), (1, 0), (0, 1), (1, 1)] {
            let ck = (level + 1, 2 * i + ci, 2 * j + cj);
            let mut child = Patch::new(ck.0, ck.1, ck.2, mx);
            // Child interior cell (cx, cy) covers the quarter of parent
            // cell (px, py) selected by the sub-cell offsets.
            for cy in 0..mx {
                for cx in 0..mx {
                    let fx = ci as usize * mx + cx; // fine coords within parent
                    let fy = cj as usize * mx + cy;
                    let px = fx / 2;
                    let py = fy / 2;
                    let q = *parent.interior(px, py);
                    // Limited slopes from the parent's neighbours (clamped
                    // at the patch edge; first-order there).
                    let mut out = q;
                    for k in 0..NVAR {
                        let sx = if px > 0 && px + 1 < mx {
                            euler::minmod(
                                q[k] - parent.interior(px - 1, py)[k],
                                parent.interior(px + 1, py)[k] - q[k],
                            )
                        } else {
                            0.0
                        };
                        let sy = if py > 0 && py + 1 < mx {
                            euler::minmod(
                                q[k] - parent.interior(px, py - 1)[k],
                                parent.interior(px, py + 1)[k] - q[k],
                            )
                        } else {
                            0.0
                        };
                        let ox = if fx.is_multiple_of(2) { -0.25 } else { 0.25 };
                        let oy = if fy.is_multiple_of(2) { -0.25 } else { 0.25 };
                        out[k] = q[k] + ox * sx + oy * sy;
                    }
                    *child.interior_mut(cx, cy) = out;
                }
            }
            self.leaves.insert(ck, child);
        }
    }

    /// Merge the four children of `parent_key` back into one leaf by 2×2
    /// averaging. No-op unless all four children are leaves.
    pub fn coarsen_to(&mut self, parent_key: PatchKey) {
        let (level, i, j) = parent_key;
        if level < self.minlevel {
            return;
        }
        let child_keys: [PatchKey; 4] = [
            (level + 1, 2 * i, 2 * j),
            (level + 1, 2 * i + 1, 2 * j),
            (level + 1, 2 * i, 2 * j + 1),
            (level + 1, 2 * i + 1, 2 * j + 1),
        ];
        // Take all four siblings out up front; if any is missing, put the
        // others back and bail — coarsening only merges complete quads.
        let mut children: Vec<(PatchKey, Patch)> = Vec::with_capacity(4);
        for ck in child_keys {
            match self.leaves.remove(&ck) {
                Some(child) => children.push((ck, child)),
                None => {
                    for (k, c) in children {
                        self.leaves.insert(k, c);
                    }
                    return;
                }
            }
        }
        let mx = self.mx;
        let mut parent = Patch::new(level, i, j, mx);
        for (ck, child) in children {
            let (ci, cj) = (ck.1 - 2 * i, ck.2 - 2 * j);
            for py in 0..mx {
                for px in 0..mx {
                    // Parent cell (px, py) sits inside child (ci, cj) iff
                    // the fine coords map into that quadrant.
                    let fx0 = px * 2;
                    let fy0 = py * 2;
                    let in_ci = fx0 / mx == ci as usize;
                    let in_cj = fy0 / mx == cj as usize;
                    if !(in_ci && in_cj) {
                        continue;
                    }
                    let cx = fx0 % mx;
                    let cy = fy0 % mx;
                    let mut acc = [0.0; NVAR];
                    for (ox, oy) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
                        let s = child.interior(cx + ox, cy + oy);
                        for k in 0..NVAR {
                            acc[k] += 0.25 * s[k];
                        }
                    }
                    *parent.interior_mut(px, py) = acc;
                }
            }
        }
        self.leaves.insert(parent_key, parent);
    }

    /// The level of the leaf covering the same-level neighbour region of
    /// `key` on `side`, or `None` at the domain boundary.
    fn neighbor_level(&self, key: PatchKey, side: Side) -> Option<u8> {
        let (level, i, j) = key;
        let n_side = 1i64 << level;
        let (di, dj) = side.offset();
        let (ni, nj) = (i as i64 + di, j as i64 + dj);
        if ni < 0 || ni >= n_side || nj < 0 || nj >= n_side {
            return None;
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "ni, nj are checked in 0..n_side above"
        )]
        let (ni, nj) = (ni as u32, nj as u32);
        if self.leaves.contains_key(&(level, ni, nj)) {
            return Some(level);
        }
        // Search coarser ancestors.
        let (mut al, mut ai, mut aj) = (level, ni, nj);
        while al > 0 {
            al -= 1;
            ai /= 2;
            aj /= 2;
            if self.leaves.contains_key(&(al, ai, aj)) {
                return Some(al);
            }
        }
        // Otherwise the region is covered by finer leaves. Only the strip
        // of children touching the shared face matters for face balance
        // (and for the ghost-fill level assumptions), so probe that strip
        // at each finer level and report the finest populated one.
        let mut finest = None;
        for probe in (level + 1)..=self.maxlevel {
            let scale = 1u32 << (probe - level);
            // Child-coordinate strip adjacent to the face, at `probe` level.
            let (ci_range, cj_range) = match side {
                // Our East face ⇒ neighbour's westmost column.
                Side::East => (ni * scale..ni * scale + 1, nj * scale..(nj + 1) * scale),
                // Our West face ⇒ neighbour's eastmost column.
                Side::West => (
                    (ni + 1) * scale - 1..(ni + 1) * scale,
                    nj * scale..(nj + 1) * scale,
                ),
                Side::North => (ni * scale..(ni + 1) * scale, nj * scale..nj * scale + 1),
                Side::South => (
                    ni * scale..(ni + 1) * scale,
                    (nj + 1) * scale - 1..(nj + 1) * scale,
                ),
            };
            let found = ci_range.clone().any(|ci| {
                cj_range
                    .clone()
                    .any(|cj| self.leaves.contains_key(&(probe, ci, cj)))
            });
            if found {
                finest = Some(probe);
            }
        }
        finest
    }

    /// Enforce 2:1 face balance by refining coarse leaves until every pair
    /// of face neighbours differs by at most one level.
    pub fn enforce_balance(&mut self) {
        loop {
            let mut to_refine: Vec<PatchKey> = Vec::new();
            for key in self.leaf_keys() {
                let level = key.0;
                for side in Side::ALL {
                    if let Some(nl) = self.neighbor_level(key, side) {
                        if nl + 1 < level {
                            // Neighbour region is too coarse: refine the
                            // covering coarse leaf.
                            let (di, dj) = side.offset();
                            #[expect(
                                clippy::cast_possible_truncation,
                                reason = "neighbor_level returned Some, so the neighbour is in-domain"
                            )]
                            let (ni, nj) = ((key.1 as i64 + di) as u32, (key.2 as i64 + dj) as u32);
                            let shift = level - nl;
                            let ck = (nl, ni >> shift, nj >> shift);
                            if !to_refine.contains(&ck) {
                                to_refine.push(ck);
                            }
                        }
                    }
                }
            }
            if to_refine.is_empty() {
                break;
            }
            for key in to_refine {
                self.refine_patch(key);
            }
        }
    }

    /// One regrid cycle with the given tagging thresholds:
    ///
    /// 1. refine every leaf whose [`Patch::refinement_indicator`] exceeds
    ///    `refine_threshold` (up to `maxlevel`);
    /// 2. restore 2:1 balance;
    /// 3. coarsen sibling quartets whose indicators are all below
    ///    `coarsen_threshold` (hysteresis: pass a value smaller than
    ///    `refine_threshold`) where balance allows.
    ///
    /// Returns the number of refinements plus coarsenings performed.
    pub fn regrid(&mut self, refine_threshold: f64, coarsen_threshold: f64) -> usize {
        let mut changes = 0;

        // Tag + refine.
        let mut tagged: Vec<PatchKey> = Vec::new();
        for (key, patch) in self.leaves.iter() {
            if key.0 < self.maxlevel && patch.refinement_indicator() > refine_threshold {
                tagged.push(*key);
            }
        }
        for key in tagged {
            self.refine_patch(key);
            changes += 1;
        }
        self.enforce_balance();

        // Coarsen quiet sibling quartets.
        let mut parents: Vec<PatchKey> = Vec::new();
        for key in self.leaf_keys() {
            let (level, i, j) = key;
            if level <= self.minlevel || (i % 2, j % 2) != (0, 0) {
                continue;
            }
            let parent = (level - 1, i / 2, j / 2);
            let siblings = [
                (level, i, j),
                (level, i + 1, j),
                (level, i, j + 1),
                (level, i + 1, j + 1),
            ];
            let all_quiet = siblings.iter().all(|k| {
                self.leaves
                    .get(k)
                    .is_some_and(|p| p.refinement_indicator() < coarsen_threshold)
            });
            if !all_quiet {
                continue;
            }
            // Balance: the would-be parent's neighbours must not be finer
            // than the siblings' level.
            let balance_ok = Side::ALL.iter().all(|&side| {
                self.neighbor_level(parent, side)
                    .is_none_or(|nl| nl <= level)
            });
            if balance_ok {
                parents.push(parent);
            }
        }
        for parent in parents {
            self.coarsen_to(parent);
            changes += 1;
        }
        changes
    }

    /// Build an adaptively refined initial condition: fill at the coarse
    /// level, then repeatedly tag, refine, and re-fill **exactly** from the
    /// initial-condition function until no patch wants refinement (or
    /// `maxlevel` is reached everywhere it matters).
    pub fn init_adaptive(&mut self, f: &dyn Fn(f64, f64) -> State, refine_threshold: f64) {
        self.fill_all(f);
        for _ in self.minlevel..self.maxlevel {
            let mut tagged: Vec<PatchKey> = Vec::new();
            for (key, patch) in self.leaves.iter() {
                if key.0 < self.maxlevel && patch.refinement_indicator() > refine_threshold {
                    tagged.push(*key);
                }
            }
            if tagged.is_empty() {
                break;
            }
            for key in tagged {
                self.refine_patch(key);
            }
            self.enforce_balance();
            // Re-fill everything from the exact initial condition.
            self.fill_all(f);
        }
    }

    /// Sample the density field on a uniform `n × n` raster (for
    /// visualization). Each raster point reads the leaf covering it.
    pub fn raster_density(&self, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; n * n];
        for ry in 0..n {
            for rx in 0..n {
                let x = (rx as f64 + 0.5) * DOMAIN / n as f64;
                let y = (ry as f64 + 0.5) * DOMAIN / n as f64;
                out[ry * n + rx] = self.sample_density(x, y);
            }
        }
        out
    }

    /// Density at physical point `(x, y)` from the covering leaf.
    pub fn sample_density(&self, x: f64, y: f64) -> f64 {
        for level in (self.minlevel..=self.maxlevel).rev() {
            let n_side = 1u32 << level;
            let s = DOMAIN / n_side as f64;
            #[expect(
                clippy::cast_possible_truncation,
                reason = "clamped by .min; a negative value saturates to 0"
            )]
            let i = ((x / s) as u32).min(n_side - 1);
            #[expect(
                clippy::cast_possible_truncation,
                reason = "clamped by .min; a negative value saturates to 0"
            )]
            let j = ((y / s) as u32).min(n_side - 1);
            if let Some(patch) = self.leaves.get(&(level, i, j)) {
                let (x0, y0) = patch.origin();
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "clamped by .min; a negative value saturates to 0"
                )]
                let cx = (((x - x0) / patch.h()) as usize).min(self.mx - 1);
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "clamped by .min; a negative value saturates to 0"
                )]
                let cy = (((y - y0) / patch.h()) as usize).min(self.mx - 1);
                return patch.interior(cx, cy)[0];
            }
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euler::conservative;

    fn uniform_forest(mx: usize, minlevel: u8, maxlevel: u8) -> Forest {
        let mut f = Forest::uniform(mx, minlevel, maxlevel);
        f.fill_all(&|_x, _y| conservative(1.0, 0.0, 0.0, 1.0));
        f
    }

    #[test]
    fn uniform_forest_has_expected_leaves() {
        let f = uniform_forest(8, 2, 4);
        assert_eq!(f.n_leaves(), 16);
        assert_eq!(f.total_interior_cells(), 16 * 64);
        let census = f.census();
        assert_eq!(census.counts[2], 16);
        assert_eq!(census.counts[3], 0);
    }

    #[test]
    fn refine_replaces_leaf_with_four_children() {
        let mut f = uniform_forest(8, 1, 3);
        assert_eq!(f.n_leaves(), 4);
        f.refine_patch((1, 0, 0));
        assert_eq!(f.n_leaves(), 7);
        assert!(f.get((1, 0, 0)).is_none());
        assert!(f.get((2, 0, 0)).is_some());
        assert!(f.get((2, 1, 1)).is_some());
    }

    #[test]
    fn refine_at_maxlevel_is_noop() {
        let mut f = uniform_forest(8, 2, 2);
        f.refine_patch((2, 0, 0));
        assert_eq!(f.n_leaves(), 16);
    }

    #[test]
    fn refinement_preserves_mass() {
        let mut f = Forest::uniform(8, 1, 3);
        f.fill_all(&|x, y| conservative(1.0 + x + 0.5 * y, 0.1, -0.2, 1.0 + x * y));
        let m0 = f.total_mass();
        f.refine_patch((1, 0, 0));
        f.refine_patch((1, 1, 1));
        assert!((f.total_mass() - m0).abs() < 1e-12);
    }

    #[test]
    fn coarsening_inverts_refinement_mass() {
        let mut f = Forest::uniform(8, 1, 3);
        f.fill_all(&|x, y| conservative(1.0 + x * x + y, 0.0, 0.0, 1.0));
        let m0 = f.total_mass();
        f.refine_patch((1, 0, 0));
        f.coarsen_to((1, 0, 0));
        assert_eq!(f.n_leaves(), 4);
        assert!(f.get((1, 0, 0)).is_some());
        assert!((f.total_mass() - m0).abs() < 1e-12);
    }

    #[test]
    fn coarsen_requires_all_siblings() {
        let mut f = uniform_forest(8, 1, 3);
        f.refine_patch((1, 0, 0));
        // Refine one of the children again: quartet incomplete at level 2.
        f.refine_patch((2, 0, 0));
        f.coarsen_to((1, 0, 0));
        // Still not coarsened.
        assert!(f.get((1, 0, 0)).is_none());
    }

    #[test]
    fn balance_refines_coarse_neighbors() {
        let mut f = uniform_forest(8, 0, 4);
        // Refine one corner twice: (0,0,0) -> level 1 -> refine (1,0,0)
        // twice more to create a level-3 leaf next to level-1 leaves.
        f.refine_patch((0, 0, 0));
        f.refine_patch((1, 0, 0));
        f.refine_patch((2, 0, 0));
        f.enforce_balance();
        // Every leaf's face neighbours must now be within one level.
        for key in f.leaf_keys() {
            for side in Side::ALL {
                if let Some(nl) = f.neighbor_level(key, side) {
                    assert!(
                        (nl as i64 - key.0 as i64).abs() <= 1,
                        "leaf {key:?} side {side:?} neighbour level {nl}"
                    );
                }
            }
        }
    }

    #[test]
    fn ghost_fill_same_level_copies_neighbor_interior() {
        let mut f = Forest::uniform(8, 1, 2);
        // Density = patch index marker so we can recognise sources.
        f.fill_all(&|x, y| {
            let marker = 1.0 + (x * 2.0).floor() + 10.0 * (y * 2.0).floor();
            conservative(marker, 0.0, 0.0, 1.0)
        });
        let stats = f.fill_ghosts(&Bc::all_extrapolate()).expect("fill_ghosts");
        assert!(stats.same_level_cells > 0);
        assert!(stats.boundary_cells > 0);
        assert_eq!(stats.prolonged_cells, 0);
        assert_eq!(stats.restricted_cells, 0);
        // Patch (1,0,0)'s east ghosts must hold patch (1,1,0)'s density 2.
        let p = f.get((1, 0, 0)).unwrap();
        assert_eq!(p.get(NG + 8, NG)[0], 2.0);
        assert_eq!(p.get(NG + 9, NG + 7)[0], 2.0);
        // Its west ghosts are boundary-extrapolated density 1.
        assert_eq!(p.get(0, NG)[0], 1.0);
    }

    #[test]
    fn ghost_fill_across_coarse_fine_interface() {
        let mut f = Forest::uniform(8, 1, 2);
        f.fill_all(&|x, _y| conservative(1.0 + x, 0.0, 0.0, 1.0));
        f.refine_patch((1, 0, 0));
        let stats = f.fill_ghosts(&Bc::all_extrapolate()).expect("fill_ghosts");
        assert!(stats.prolonged_cells > 0, "fine leaves read coarse data");
        assert!(stats.restricted_cells > 0, "coarse leaves read fine data");
        // The coarse patch (1,1,0)'s west ghosts average fine data whose
        // density is near 1+x at the interface x=0.5.
        let p = f.get((1, 1, 0)).unwrap();
        let g = p.get(NG - 1, NG)[0];
        assert!((g - 1.47).abs() < 0.05, "ghost density {g}");
        // The fine patch (2,1,0)'s east ghosts sample the coarse neighbour.
        let fine = f.get((2, 1, 0)).unwrap();
        let gf = fine.get(NG + 8, NG)[0];
        assert!((gf - 1.53).abs() < 0.06, "fine ghost density {gf}");
    }

    #[test]
    fn inflow_bc_sets_fixed_state() {
        let mut f = uniform_forest(8, 0, 1);
        let inflow = conservative(3.0, 1.0, 0.0, 5.0);
        let bc = Bc {
            west: BcKind::Inflow(inflow),
            ..Bc::all_extrapolate()
        };
        f.fill_ghosts(&bc).expect("fill_ghosts");
        let p = f.get((0, 0, 0)).unwrap();
        assert_eq!(p.get(0, NG)[0], 3.0);
        assert_eq!(p.get(1, NG + 3)[0], 3.0);
    }

    #[test]
    fn regrid_refines_feature_and_leaves_quiet_regions() {
        let mut f = Forest::uniform(8, 2, 4);
        // Sharp density jump along x = 0.47, inside patches (a jump exactly
        // on a patch boundary is invisible to the interior-only indicator).
        f.fill_all(&|x, _y| conservative(if x < 0.47 { 1.0 } else { 4.0 }, 0.0, 0.0, 1.0));
        let changes = f.regrid(0.2, 0.05);
        assert!(changes > 0);
        let census = f.census();
        assert!(census.counts[3] > 0, "census {census:?}");
        // Quiet corners stay at level 2.
        assert!(census.counts[2] > 0, "census {census:?}");
    }

    #[test]
    fn init_adaptive_refines_to_maxlevel_on_discontinuity() {
        let mut f = Forest::uniform(8, 1, 4);
        f.init_adaptive(
            &|x, _y| conservative(if x < 0.31 { 1.0 } else { 3.0 }, 0.0, 0.0, 1.0),
            0.2,
        );
        let census = f.census();
        assert!(census.counts[4] > 0, "finest level reached: {census:?}");
        assert!(f.n_leaves() < 4usize.pow(4), "refinement is selective");
        // Mass must match the exact initial condition closely because
        // patches are re-filled exactly after each refinement round.
        let exact = 1.0 * 0.31 + 3.0 * 0.69;
        assert!((f.total_mass() - exact).abs() < 0.02);
    }

    #[test]
    fn cfl_dt_scales_with_finest_level() {
        let coarse = uniform_forest(8, 1, 1);
        let mut fine = uniform_forest(8, 1, 2);
        fine.refine_patch((1, 0, 0));
        fine.enforce_balance();
        let dt_c = coarse.cfl_dt(0.4);
        let dt_f = fine.cfl_dt(0.4);
        assert!((dt_c / dt_f - 2.0).abs() < 1e-9, "dt ratio {}", dt_c / dt_f);
    }

    #[test]
    fn raster_and_sample_read_finest_leaf() {
        let mut f = Forest::uniform(8, 1, 2);
        f.fill_all(&|_x, _y| conservative(1.0, 0.0, 0.0, 1.0));
        f.refine_patch((1, 0, 0));
        // Overwrite a fine leaf to check it wins over coarse sampling.
        if let Some(p) = f.get_mut((2, 0, 0)) {
            p.fill_with(&|_x, _y| conservative(7.0, 0.0, 0.0, 1.0));
        }
        assert_eq!(f.sample_density(0.1, 0.1), 7.0);
        assert_eq!(f.sample_density(0.9, 0.9), 1.0);
        let raster = f.raster_density(4);
        assert_eq!(raster.len(), 16);
        assert_eq!(raster[0], 7.0);
    }

    /// One split step over the whole forest with ghost refills, optionally
    /// refluxing, for the conservation tests below.
    fn split_step(f: &mut Forest, dt: f64, reflux: bool) {
        use crate::patch::SweepScratch;
        let bc = Bc::all_extrapolate();
        let mut scratch = SweepScratch::default();
        for axis in [Axis::X, Axis::Y] {
            f.fill_ghosts(&bc).expect("fill_ghosts");
            let mut registers = BTreeMap::new();
            for key in f.leaf_keys() {
                let patch = f.get_mut(key).unwrap();
                let fluxes = match axis {
                    Axis::X => patch.sweep_x(dt, &mut scratch),
                    Axis::Y => patch.sweep_y(dt, &mut scratch),
                };
                registers.insert(key, fluxes);
            }
            if reflux {
                assert!(
                    f.reflux(axis, &registers, dt).expect("reflux") > 0,
                    "interface exists"
                );
            }
        }
    }

    /// A compact density bump straddling the coarse–fine interface of a
    /// partially refined forest.
    fn bump_forest() -> Forest {
        let mut f = Forest::uniform(8, 1, 2);
        f.refine_patch((1, 0, 0));
        f.enforce_balance();
        f.fill_all(&|x, y| {
            // Density AND pressure bump: a genuinely dynamic blast whose
            // waves cross the coarse–fine interface (a pure density bump
            // at constant pressure is a steady contact with zero mass
            // flux, which would make this test vacuous).
            let r2 = (x - 0.5) * (x - 0.5) + (y - 0.5) * (y - 0.5);
            let amp = 2.0 * (-r2 / 0.01).exp();
            conservative(1.0 + amp, 0.0, 0.0, 1.0 + amp)
        });
        f
    }

    #[test]
    fn refluxing_restores_conservation_at_interfaces() {
        // Without refluxing, coarse and fine sides use inconsistent
        // interface fluxes and total mass drifts; with refluxing the drift
        // is at rounding level.
        let dt_steps = 6;
        let mut plain = bump_forest();
        let mut refluxed = bump_forest();
        let m0 = plain.total_mass();
        for _ in 0..dt_steps {
            let dt = 0.3 * plain.cfl_dt(1.0);
            split_step(&mut plain, dt, false);
            split_step(&mut refluxed, dt, true);
        }
        // The refluxed drift is not exactly zero because the blast's far
        // tail leaks minutely through the extrapolation boundary; it still
        // sits orders of magnitude below the interface error.
        let drift_plain = (plain.total_mass() - m0).abs();
        let drift_refluxed = (refluxed.total_mass() - m0).abs();
        assert!(drift_refluxed < 1e-7, "refluxed drift {drift_refluxed}");
        assert!(
            drift_plain > 1e3 * drift_refluxed,
            "plain drift {drift_plain} should dwarf refluxed {drift_refluxed}"
        );
    }

    #[test]
    fn reflux_counts_interface_faces() {
        // One refined quadrant of a level-1 forest: the fine block borders
        // coarse leaves across 2 faces in each direction, 8 coarse cells
        // per face side... count exactly: east neighbor of fine region is
        // coarse (1,1,0) whose west face has mx cells; north neighbor is
        // (1,0,1) with mx cells.
        let mut f = bump_forest();
        let bc = Bc::all_extrapolate();
        f.fill_ghosts(&bc).expect("fill_ghosts");
        let mut scratch = crate::patch::SweepScratch::default();
        let dt = 1e-4;
        let mut registers = BTreeMap::new();
        for key in f.leaf_keys() {
            let patch = f.get_mut(key).unwrap();
            registers.insert(key, patch.sweep_x(dt, &mut scratch));
        }
        // X-refluxing corrects the coarse west face of (1,1,0): mx cells.
        assert_eq!(f.reflux(Axis::X, &registers, dt).expect("reflux"), 8);
    }

    #[test]
    fn reflux_is_noop_on_uniform_flow() {
        // Identical states everywhere: fine and coarse fluxes agree, so
        // the correction changes nothing.
        let mut f = Forest::uniform(8, 1, 2);
        f.refine_patch((1, 1, 1));
        f.enforce_balance();
        f.fill_all(&|_x, _y| conservative(1.0, 0.3, -0.1, 1.0));
        let before = f.clone();
        split_step(&mut f, 1e-4, true);
        for (key, patch) in f.iter() {
            let reference = before.get(*key).unwrap();
            for cy in 0..8 {
                for cx in 0..8 {
                    for k in 0..NVAR {
                        assert!(
                            (patch.interior(cx, cy)[k] - reference.interior(cx, cy)[k]).abs()
                                < 1e-12,
                            "{key:?} cell ({cx},{cy}) var {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn edge_ring_holds_exactly_the_cells_within_ng_of_an_edge() {
        for mx in [4, 5, 8] {
            let mut patch = Patch::new(0, 0, 0, mx);
            patch.fill_with(&|x, y| conservative(1.0 + x + 10.0 * y, x, y, 5.0));
            let ring = EdgeRing::capture(&patch);
            assert_eq!(ring.len(), 4 * NG * (mx - NG), "mx {mx}");
            let bits = |q: &State| q.map(f64::to_bits);
            for cy in 0..mx {
                for cx in 0..mx {
                    if cx < NG || cx >= mx - NG || cy < NG || cy >= mx - NG {
                        assert_eq!(
                            bits(ring.interior(cx, cy)),
                            bits(patch.interior(cx, cy)),
                            "mx {mx} cell ({cx}, {cy})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "off the 2-deep edge ring")]
    fn edge_ring_refuses_an_inner_cell() {
        let ring = EdgeRing::capture(&Patch::new(0, 0, 0, 5));
        let _ = ring.interior(NG, NG);
    }

    #[test]
    fn exchange_stats_totals() {
        let s = ExchangeStats {
            same_level_cells: 10,
            prolonged_cells: 5,
            restricted_cells: 3,
            boundary_cells: 100,
        };
        assert_eq!(s.exchanged(), 18);
    }
}
