//! A logically Cartesian `mx × mx` patch with ghost cells — the unit of
//! storage and computation of the forest (mirroring FORESTCLAW, where every
//! quadtree leaf carries an `mx × mx` Clawpack grid).

use crate::euler::{self, State, NVAR};

/// Ghost-cell layers on every side. Two layers support the MUSCL
/// reconstruction stencil (slope at the first interior cell needs two
/// upwind neighbours).
pub const NG: usize = 2;

/// Extent of the square computational domain `[0, DOMAIN)²`.
pub const DOMAIN: f64 = 1.0;

/// Square grid patch at a quadtree position `(level, i, j)`.
///
/// The patch covers `[i·S, (i+1)·S) × [j·S, (j+1)·S)` with `S = DOMAIN/2^level`,
/// holding `mx × mx` interior cells of width `h = S/mx` plus [`NG`] ghost
/// layers on each side.
#[derive(Debug, Clone)]
pub struct Patch {
    level: u8,
    i: u32,
    j: u32,
    mx: usize,
    h: f64,
    /// `(mx+2·NG)²` states, row-major with `iy` as the slow index.
    q: Vec<State>,
}

/// Reusable scratch buffers for directional sweeps, sized for one line of
/// cells. Shared across patches by the solver to avoid per-patch allocation.
#[derive(Debug, Default, Clone)]
pub struct SweepScratch {
    line: Vec<State>,
    slope: Vec<State>,
    flux: Vec<State>,
}

/// The interface fluxes a sweep computed at the patch's two boundary faces
/// in the sweep direction, one entry per transverse cell row/column.
///
/// `lo` is the west (x-sweep) or south (y-sweep) face, `hi` the east or
/// north face. Y-sweep fluxes are stored in the **original** variable
/// ordering (momenta un-transposed). The flux registers feed
/// [`crate::tree::Forest::reflux`]: at a coarse–fine interface the coarse
/// side's flux is replaced by the area-weighted sum of the fine fluxes,
/// restoring discrete conservation.
#[derive(Debug, Clone)]
pub struct BoundaryFluxes {
    /// Flux through the low face (west/south) per transverse index.
    pub lo: Vec<State>,
    /// Flux through the high face (east/north) per transverse index.
    pub hi: Vec<State>,
}

impl BoundaryFluxes {
    /// Zeroed registers for `mx` transverse faces — the accumulator the
    /// subcycled stepper folds per-substep fluxes into.
    pub fn zeros(mx: usize) -> Self {
        BoundaryFluxes {
            lo: vec![[0.0; NVAR]; mx],
            hi: vec![[0.0; NVAR]; mx],
        }
    }

    /// Accumulate `weight · other` face-wise. With weight `dt_sub / dt`
    /// per substep this builds the time-averaged flux a coarse step must
    /// be corrected against (two halved substeps ⇒ weight ½ each).
    pub fn add_scaled(&mut self, other: &BoundaryFluxes, weight: f64) {
        debug_assert_eq!(self.lo.len(), other.lo.len());
        for (dst, src) in self.lo.iter_mut().zip(&other.lo) {
            for k in 0..NVAR {
                dst[k] += weight * src[k];
            }
        }
        for (dst, src) in self.hi.iter_mut().zip(&other.hi) {
            for k in 0..NVAR {
                dst[k] += weight * src[k];
            }
        }
    }
}

impl Patch {
    /// Create a zero-initialized patch at quadtree position `(level, i, j)`.
    ///
    /// Panics if `(i, j)` lies outside the `2^level × 2^level` patch grid.
    pub fn new(level: u8, i: u32, j: u32, mx: usize) -> Self {
        let n_side = 1u32 << level;
        assert!(
            i < n_side && j < n_side,
            "patch ({i},{j}) outside level {level}"
        );
        assert!(mx >= 4, "mx must be at least 4 for the MUSCL stencil");
        let h = DOMAIN / (n_side as f64 * mx as f64);
        Patch {
            level,
            i,
            j,
            mx,
            h,
            q: vec![[0.0; NVAR]; (mx + 2 * NG) * (mx + 2 * NG)],
        }
    }

    /// Refinement level.
    #[inline]
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Patch coordinates `(i, j)` within its level.
    #[inline]
    pub fn coords(&self) -> (u32, u32) {
        (self.i, self.j)
    }

    /// Interior cells per side.
    #[inline]
    pub fn mx(&self) -> usize {
        self.mx
    }

    /// Cell width.
    #[inline]
    pub fn h(&self) -> f64 {
        self.h
    }

    /// Lower-left corner of the patch in physical coordinates.
    pub fn origin(&self) -> (f64, f64) {
        let s = DOMAIN / (1u32 << self.level) as f64;
        (self.i as f64 * s, self.j as f64 * s)
    }

    /// Total stored states including ghosts (for memory accounting).
    pub fn storage_cells(&self) -> usize {
        (self.mx + 2 * NG) * (self.mx + 2 * NG)
    }

    /// Interior cells of this patch — the directional-sweep work unit the
    /// machine model prices, counted per patch as the solver sweeps it.
    #[inline]
    pub fn interior_cell_count(&self) -> u64 {
        (self.mx * self.mx) as u64
    }

    #[inline]
    fn stride(&self) -> usize {
        self.mx + 2 * NG
    }

    /// Raw index of cell `(ix, iy)` where both range over `0..mx+2·NG`
    /// (ghosts included; interior starts at [`NG`]).
    #[inline]
    pub fn idx(&self, ix: usize, iy: usize) -> usize {
        debug_assert!(ix < self.stride() && iy < self.stride());
        iy * self.stride() + ix
    }

    /// State of cell `(ix, iy)` (ghost coordinates allowed).
    #[inline]
    pub fn get(&self, ix: usize, iy: usize) -> &State {
        &self.q[self.idx(ix, iy)]
    }

    /// Mutable state of cell `(ix, iy)`.
    #[inline]
    pub fn get_mut(&mut self, ix: usize, iy: usize) -> &mut State {
        let idx = self.idx(ix, iy);
        &mut self.q[idx]
    }

    /// Interior cell state by interior coordinates `(cx, cy) ∈ [0, mx)²`.
    #[inline]
    pub fn interior(&self, cx: usize, cy: usize) -> &State {
        debug_assert!(cx < self.mx && cy < self.mx);
        self.get(cx + NG, cy + NG)
    }

    /// Mutable interior cell state by interior coordinates.
    #[inline]
    pub fn interior_mut(&mut self, cx: usize, cy: usize) -> &mut State {
        debug_assert!(cx < self.mx && cy < self.mx);
        self.get_mut(cx + NG, cy + NG)
    }

    /// Physical center of interior cell `(cx, cy)`.
    pub fn cell_center(&self, cx: usize, cy: usize) -> (f64, f64) {
        let (x0, y0) = self.origin();
        (
            x0 + (cx as f64 + 0.5) * self.h,
            y0 + (cy as f64 + 0.5) * self.h,
        )
    }

    /// Initialize every interior cell from a pointwise function of the cell
    /// center, sub-sampled 2×2 for a better cell average at interfaces.
    pub fn fill_with(&mut self, f: &dyn Fn(f64, f64) -> State) {
        for cy in 0..self.mx {
            for cx in 0..self.mx {
                let (x, y) = self.cell_center(cx, cy);
                let quarter = 0.25 * self.h;
                let mut acc = [0.0; NVAR];
                for (dx, dy) in [
                    (-quarter, -quarter),
                    (quarter, -quarter),
                    (-quarter, quarter),
                    (quarter, quarter),
                ] {
                    let s = f(x + dx, y + dy);
                    for k in 0..NVAR {
                        acc[k] += 0.25 * s[k];
                    }
                }
                *self.interior_mut(cx, cy) = acc;
            }
        }
    }

    /// Largest characteristic speed over the interior (CFL signal).
    pub fn max_wave_speed(&self) -> f64 {
        let mut s = 0.0f64;
        for cy in 0..self.mx {
            for cx in 0..self.mx {
                s = s.max(euler::max_wave_speed(self.interior(cx, cy)));
            }
        }
        s
    }

    /// Total mass (integral of density) over the interior.
    pub fn total_mass(&self) -> f64 {
        let cell_area = self.h * self.h;
        let mut m = 0.0;
        for cy in 0..self.mx {
            for cx in 0..self.mx {
                m += self.interior(cx, cy)[0];
            }
        }
        m * cell_area
    }

    /// Refinement indicator: the largest relative density **or pressure**
    /// jump between adjacent interior cells. Density tracks material
    /// interfaces (the bubble); pressure catches shocks even where density
    /// is still uniform (e.g. a freshly ignited blast).
    pub fn refinement_indicator(&self) -> f64 {
        let rel_jump = |a: f64, b: f64| (b - a).abs() / a.min(b).max(1e-12);
        let mut worst = 0.0f64;
        for cy in 0..self.mx {
            for cx in 0..self.mx {
                let c = self.interior(cx, cy);
                let pc = euler::pressure(c).max(1e-12);
                if cx + 1 < self.mx {
                    let r = self.interior(cx + 1, cy);
                    worst = worst.max(rel_jump(c[0], r[0]));
                    worst = worst.max(rel_jump(pc, euler::pressure(r).max(1e-12)));
                }
                if cy + 1 < self.mx {
                    let u = self.interior(cx, cy + 1);
                    worst = worst.max(rel_jump(c[0], u[0]));
                    worst = worst.max(rel_jump(pc, euler::pressure(u).max(1e-12)));
                }
            }
        }
        worst
    }

    /// One MUSCL/HLLC sweep in the x-direction with time step `dt`.
    /// Requires valid ghost cells in the x-direction. Returns the boundary
    /// flux registers for refluxing.
    pub fn sweep_x(&mut self, dt: f64, scratch: &mut SweepScratch) -> BoundaryFluxes {
        let n = self.stride();
        scratch.resize(n);
        let lambda = dt / self.h;
        let mut registers = BoundaryFluxes {
            lo: Vec::with_capacity(self.mx),
            hi: Vec::with_capacity(self.mx),
        };
        for iy in NG..NG + self.mx {
            // Copy the row (including ghosts) into the scratch line.
            for ix in 0..n {
                scratch.line[ix] = *self.get(ix, iy);
            }
            Self::sweep_line(
                &mut scratch.line,
                &mut scratch.slope,
                &mut scratch.flux,
                lambda,
                self.mx,
            );
            for cx in 0..self.mx {
                *self.get_mut(NG + cx, iy) = scratch.line[NG + cx];
            }
            registers.lo.push(scratch.flux[0]);
            registers.hi.push(scratch.flux[self.mx]);
        }
        registers
    }

    /// One MUSCL/HLLC sweep in the y-direction with time step `dt`.
    /// Requires valid ghost cells in the y-direction. Returns the boundary
    /// flux registers (south/north) in original variable ordering.
    pub fn sweep_y(&mut self, dt: f64, scratch: &mut SweepScratch) -> BoundaryFluxes {
        let n = self.stride();
        scratch.resize(n);
        let lambda = dt / self.h;
        let mut registers = BoundaryFluxes {
            lo: Vec::with_capacity(self.mx),
            hi: Vec::with_capacity(self.mx),
        };
        for ix in NG..NG + self.mx {
            // Copy the column, transposing momenta so the x-sweep kernel
            // applies verbatim.
            for iy in 0..n {
                scratch.line[iy] = euler::transpose_state(self.get(ix, iy));
            }
            Self::sweep_line(
                &mut scratch.line,
                &mut scratch.slope,
                &mut scratch.flux,
                lambda,
                self.mx,
            );
            for cy in 0..self.mx {
                *self.get_mut(ix, NG + cy) = euler::transpose_state(&scratch.line[NG + cy]);
            }
            // Un-transpose the recorded fluxes back to (ρ, ρu, ρv, E).
            registers.lo.push(euler::transpose_state(&scratch.flux[0]));
            registers
                .hi
                .push(euler::transpose_state(&scratch.flux[self.mx]));
        }
        registers
    }

    /// Apply a flux-register correction to one boundary cell: replace the
    /// face flux the sweep used (`used`) by the conservative one (`correct`)
    /// for interior cell `(cx, cy)` on the given side.
    pub fn apply_flux_correction(
        &mut self,
        side: Side,
        cx: usize,
        cy: usize,
        used: &State,
        correct: &State,
        dt: f64,
    ) {
        let lambda = dt / self.h;
        // The update was q -= λ(F_hi − F_lo). Replacing a hi-face flux F by
        // F' shifts q by +λ(F − F'); a lo-face flux by −λ(F − F').
        let sign = match side {
            Side::East | Side::North => 1.0,
            Side::West | Side::South => -1.0,
        };
        let q = self.interior_mut(cx, cy);
        for k in 0..NVAR {
            q[k] += sign * lambda * (used[k] - correct[k]);
        }
    }

    /// Godunov update of one line of cells: MUSCL-minmod reconstruction,
    /// HLLC interface fluxes, conservative flux differencing.
    fn sweep_line(
        line: &mut [State],
        slope: &mut [State],
        flux: &mut [State],
        lambda: f64,
        mx: usize,
    ) {
        let n = line.len();
        // Limited slopes for cells 1..n-1 (cells 0 and n-1 get zero slope;
        // they are outer ghosts whose faces are never used).
        slope[0] = [0.0; NVAR];
        slope[n - 1] = [0.0; NVAR];
        for i in 1..n - 1 {
            for k in 0..NVAR {
                slope[i][k] =
                    euler::minmod(line[i][k] - line[i - 1][k], line[i + 1][k] - line[i][k]);
            }
        }
        // Interface fluxes: face f sits between cells NG-1+f and NG+f for
        // f in 0..=mx.
        for (f, face) in flux.iter_mut().enumerate().take(mx + 1) {
            let li = NG - 1 + f;
            let ri = NG + f;
            let mut ql = [0.0; NVAR];
            let mut qr = [0.0; NVAR];
            for k in 0..NVAR {
                ql[k] = line[li][k] + 0.5 * slope[li][k];
                qr[k] = line[ri][k] - 0.5 * slope[ri][k];
            }
            *face = euler::hllc_flux(&ql, &qr);
        }
        // Conservative update of the interior cells.
        for c in 0..mx {
            for k in 0..NVAR {
                line[NG + c][k] -= lambda * (flux[c + 1][k] - flux[c][k]);
            }
        }
    }

    /// Zero-order extrapolation into a ghost band when the patch touches
    /// the domain boundary on the given side (outflow boundary condition).
    pub fn extrapolate_boundary(&mut self, side: Side) {
        let n = self.stride();
        match side {
            Side::West => {
                for iy in 0..n {
                    let src = *self.get(NG, iy);
                    for ix in 0..NG {
                        *self.get_mut(ix, iy) = src;
                    }
                }
            }
            Side::East => {
                for iy in 0..n {
                    let src = *self.get(NG + self.mx - 1, iy);
                    for ix in NG + self.mx..n {
                        *self.get_mut(ix, iy) = src;
                    }
                }
            }
            Side::South => {
                for ix in 0..n {
                    let src = *self.get(ix, NG);
                    for iy in 0..NG {
                        *self.get_mut(ix, iy) = src;
                    }
                }
            }
            Side::North => {
                for ix in 0..n {
                    let src = *self.get(ix, NG + self.mx - 1);
                    for iy in NG + self.mx..n {
                        *self.get_mut(ix, iy) = src;
                    }
                }
            }
        }
    }

    /// Overwrite a ghost band with a fixed state (inflow boundary).
    pub fn set_boundary(&mut self, side: Side, state: State) {
        let n = self.stride();
        match side {
            Side::West => {
                for iy in 0..n {
                    for ix in 0..NG {
                        *self.get_mut(ix, iy) = state;
                    }
                }
            }
            Side::East => {
                for iy in 0..n {
                    for ix in NG + self.mx..n {
                        *self.get_mut(ix, iy) = state;
                    }
                }
            }
            Side::South => {
                for ix in 0..n {
                    for iy in 0..NG {
                        *self.get_mut(ix, iy) = state;
                    }
                }
            }
            Side::North => {
                for ix in 0..n {
                    for iy in NG + self.mx..n {
                        *self.get_mut(ix, iy) = state;
                    }
                }
            }
        }
    }
}

impl SweepScratch {
    fn resize(&mut self, n: usize) {
        if self.line.len() != n {
            self.line.resize(n, [0.0; NVAR]);
            self.slope.resize(n, [0.0; NVAR]);
            self.flux.resize(n, [0.0; NVAR]);
        }
    }
}

/// Patch face identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// `-x` face.
    West,
    /// `+x` face.
    East,
    /// `-y` face.
    South,
    /// `+y` face.
    North,
}

impl Side {
    /// All four sides, in a fixed order.
    pub const ALL: [Side; 4] = [Side::West, Side::East, Side::South, Side::North];

    /// Unit offset `(di, dj)` towards the neighbouring patch.
    pub fn offset(self) -> (i64, i64) {
        match self {
            Side::West => (-1, 0),
            Side::East => (1, 0),
            Side::South => (0, -1),
            Side::North => (0, 1),
        }
    }

    /// The side seen from the neighbour's perspective.
    pub fn opposite(self) -> Side {
        match self {
            Side::West => Side::East,
            Side::East => Side::West,
            Side::South => Side::North,
            Side::North => Side::South,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euler::conservative;

    fn uniform_patch(level: u8, mx: usize) -> Patch {
        let mut p = Patch::new(level, 0, 0, mx);
        p.fill_with(&|_x, _y| conservative(1.0, 0.0, 0.0, 1.0));
        p
    }

    #[test]
    fn geometry_is_consistent() {
        let p = Patch::new(1, 1, 0, 8);
        assert_eq!(p.origin(), (0.5, 0.0));
        assert!((p.h() - 0.5 / 8.0).abs() < 1e-15);
        let (x, y) = p.cell_center(0, 0);
        assert!((x - (0.5 + 0.5 * p.h())).abs() < 1e-15);
        assert!((y - 0.5 * p.h()).abs() < 1e-15);
        assert_eq!(p.storage_cells(), (8 + 2 * NG) * (8 + 2 * NG));
    }

    #[test]
    #[should_panic(expected = "outside level")]
    fn rejects_out_of_range_coords() {
        Patch::new(1, 2, 0, 8);
    }

    #[test]
    fn fill_with_averages_subcells() {
        let mut p = Patch::new(0, 0, 0, 4);
        // Density linear in x: sub-sampling must reproduce the cell-center
        // value exactly for a linear field.
        p.fill_with(&|x, _y| conservative(1.0 + x, 0.0, 0.0, 1.0));
        let (x, _) = p.cell_center(2, 1);
        assert!((p.interior(2, 1)[0] - (1.0 + x)).abs() < 1e-12);
    }

    #[test]
    fn uniform_state_is_a_fixed_point_of_sweeps() {
        let mut p = uniform_patch(0, 8);
        // Valid ghosts: extrapolation reproduces the uniform state.
        for side in Side::ALL {
            p.extrapolate_boundary(side);
        }
        let before = p.clone();
        let mut scratch = SweepScratch::default();
        p.sweep_x(1e-3, &mut scratch);
        p.sweep_y(1e-3, &mut scratch);
        for cy in 0..8 {
            for cx in 0..8 {
                for k in 0..NVAR {
                    assert!(
                        (p.interior(cx, cy)[k] - before.interior(cx, cy)[k]).abs() < 1e-13,
                        "cell ({cx},{cy}) var {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn sweep_conserves_mass_with_closed_line() {
        // A compact density bump away from the boundary: total interior
        // mass is conserved because boundary fluxes are equal (uniform
        // state at both ends).
        let mut p = Patch::new(0, 0, 0, 16);
        p.fill_with(&|x, y| {
            let bump = if (x - 0.5).abs() < 0.15 && (y - 0.5).abs() < 0.15 {
                0.5
            } else {
                0.0
            };
            conservative(1.0 + bump, 0.0, 0.0, 1.0)
        });
        for side in Side::ALL {
            p.extrapolate_boundary(side);
        }
        let m0 = p.total_mass();
        let mut scratch = SweepScratch::default();
        let dt = 0.2 * p.h() / p.max_wave_speed();
        p.sweep_x(dt, &mut scratch);
        for side in Side::ALL {
            p.extrapolate_boundary(side);
        }
        p.sweep_y(dt, &mut scratch);
        assert!((p.total_mass() - m0).abs() < 1e-12, "mass drift");
    }

    #[test]
    fn refinement_indicator_flags_density_jump() {
        let mut smooth = uniform_patch(0, 8);
        smooth.fill_with(&|_x, _y| conservative(1.0, 0.0, 0.0, 1.0));
        assert!(smooth.refinement_indicator() < 1e-12);

        let mut jumpy = Patch::new(0, 0, 0, 8);
        jumpy.fill_with(&|x, _y| conservative(if x < 0.5 { 1.0 } else { 2.0 }, 0.0, 0.0, 1.0));
        assert!(jumpy.refinement_indicator() > 0.5);
    }

    #[test]
    fn boundary_fills_cover_ghost_bands() {
        let mut p = uniform_patch(0, 4);
        let marker = conservative(9.0, 0.0, 0.0, 9.0);
        p.set_boundary(Side::West, marker);
        assert_eq!(p.get(0, 3)[0], 9.0);
        assert_eq!(p.get(NG - 1, 0)[0], 9.0);
        assert_ne!(p.get(NG, 3)[0], 9.0);

        p.extrapolate_boundary(Side::East);
        let inner = *p.get(NG + 3, NG);
        assert_eq!(*p.get(NG + 4, NG), inner);
        assert_eq!(*p.get(NG + 5, NG), inner);
    }

    #[test]
    fn max_wave_speed_positive_for_physical_state() {
        let p = uniform_patch(0, 4);
        assert!(p.max_wave_speed() > 1.0);
    }

    #[test]
    fn side_offsets_and_opposites() {
        assert_eq!(Side::West.offset(), (-1, 0));
        assert_eq!(Side::North.offset(), (0, 1));
        for side in Side::ALL {
            assert_eq!(side.opposite().opposite(), side);
        }
    }

    #[test]
    fn total_mass_scales_with_area() {
        // Same uniform density on patches at different levels: mass is
        // proportional to covered area (level 1 patch covers 1/4 the area).
        let p0 = uniform_patch(0, 8);
        let mut p1 = Patch::new(1, 0, 0, 8);
        p1.fill_with(&|_x, _y| conservative(1.0, 0.0, 0.0, 1.0));
        assert!((p0.total_mass() - 1.0).abs() < 1e-12);
        assert!((p1.total_mass() - 0.25).abs() < 1e-12);
    }
}
