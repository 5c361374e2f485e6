//! A logically Cartesian `mx × mx` patch with ghost cells — the unit of
//! storage and computation of the forest (mirroring FORESTCLAW, where every
//! quadtree leaf carries an `mx × mx` Clawpack grid).

use crate::euler::{self, State, GAMMA, NVAR};
use al_linalg::{dispatch, DenseFold};

/// Ghost-cell layers on every side. Two layers support the MUSCL
/// reconstruction stencil (slope at the first interior cell needs two
/// upwind neighbours).
pub const NG: usize = 2;

/// Fewest cells per patch side the MUSCL stencil works on.
pub(crate) const MIN_MX: usize = 4;

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
/// cells and stored structure-of-arrays: one row per conserved variable,
/// so the sweep kernel runs each stage across a whole line at once.
/// Shared across patches by the solver to avoid per-patch allocation.
#[derive(Debug, Default, Clone)]
pub struct SweepScratch {
    /// `q[k][i]`: variable `k` of line cell `i`, ghosts included (a
    /// y-sweep stores the momenta swapped).
    q: [Vec<f64>; NVAR],
    /// Limited slope of `q[k][i]`, for cells `1..n-1`.
    slope: [Vec<f64>; NVAR],
    /// `flux[k][f]`: flux of variable `k` through face `f` (between cells
    /// `NG-1+f` and `NG+f`), for `f` in `0..=mx`.
    flux: [Vec<f64>; NVAR],
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
    /// Empty registers with room for `mx` transverse faces.
    fn with_capacity(mx: usize) -> Self {
        BoundaryFluxes {
            lo: Vec::with_capacity(mx),
            hi: Vec::with_capacity(mx),
        }
    }

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
        assert!(mx >= MIN_MX, "mx must be at least 4 for the MUSCL stencil");
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
        let mut registers = BoundaryFluxes::with_capacity(self.mx);
        dispatch(self.sweep_fold::<false>(dt, scratch, &mut registers));
        registers
    }

    /// One MUSCL/HLLC sweep in the y-direction with time step `dt`.
    /// Requires valid ghost cells in the y-direction. Returns the boundary
    /// flux registers (south/north) in original variable ordering.
    pub fn sweep_y(&mut self, dt: f64, scratch: &mut SweepScratch) -> BoundaryFluxes {
        let mut registers = BoundaryFluxes::with_capacity(self.mx);
        dispatch(self.sweep_fold::<true>(dt, scratch, &mut registers));
        registers
    }

    /// The directional sweep as a [`DenseFold`]: lines are rows when `Y`
    /// is false, columns when it is true.
    fn sweep_fold<'a, const Y: bool>(
        &'a mut self,
        dt: f64,
        scratch: &'a mut SweepScratch,
        registers: &'a mut BoundaryFluxes,
    ) -> Sweep<'a, Y> {
        scratch.resize(self.stride(), self.mx);
        Sweep {
            q: &mut self.q,
            rows: scratch,
            registers,
            lambda: dt / self.h,
            mx: self.mx,
        }
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
    /// Size the rows for lines of `n` cells (ghosts included) and `mx + 1`
    /// faces.
    fn resize(&mut self, n: usize, mx: usize) {
        for k in 0..NVAR {
            self.q[k].resize(n, 0.0);
            self.slope[k].resize(n, 0.0);
            self.flux[k].resize(mx + 1, 0.0);
        }
    }
}

/// One directional sweep of a patch, run through [`dispatch`]: for every
/// interior line (a row, or with `Y` a column with the momenta swapped so
/// the x-direction kernel applies), gather the line into the scratch
/// rows, take the minmod slopes, the HLLC flux of every face and the
/// conservative update, and record the two boundary fluxes.
///
/// Each value is the scalar per-face code's (`euler::minmod`,
/// `euler::hllc_flux`) expression for expression, its branches turned
/// into selects, so the output bits are the scalar sweep's in both
/// dispatch copies (DESIGN §7).
struct Sweep<'a, const Y: bool> {
    /// The patch's `(mx + 2·NG)²` states, row-major.
    q: &'a mut [State],
    rows: &'a mut SweepScratch,
    registers: &'a mut BoundaryFluxes,
    lambda: f64,
    mx: usize,
}

impl<const Y: bool> DenseFold for Sweep<'_, Y> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Sweep {
            q,
            rows,
            registers,
            lambda,
            mx,
        } = self;
        let n = mx + 2 * NG;
        // Cell i of line t sits at q[t·n + i] in a row, q[i·n + t] in a
        // column; a column's momenta trade places in the rows.
        let (along, across) = if Y { (n, 1) } else { (1, n) };
        let (mu, mv) = if Y { (2, 1) } else { (1, 2) };
        for t in NG..NG + mx {
            let line = t * across;
            for i in 0..n {
                let cell = &q[line + i * along];
                rows.q[0][i] = cell[0];
                rows.q[1][i] = cell[mu];
                rows.q[2][i] = cell[mv];
                rows.q[3][i] = cell[3];
            }
            line_fluxes(rows, n, mx);
            for c in 0..mx {
                let cell = &mut q[line + (NG + c) * along];
                for (k, dst) in [0, mu, mv, 3].into_iter().enumerate() {
                    let (row, flux) = (&rows.q[k], &rows.flux[k]);
                    cell[dst] = row[NG + c] - lambda * (flux[c + 1] - flux[c]);
                }
            }
            let flux = &rows.flux;
            registers
                .lo
                .push([flux[0][0], flux[mu][0], flux[mv][0], flux[3][0]]);
            registers
                .hi
                .push([flux[0][mx], flux[mu][mx], flux[mv][mx], flux[3][mx]]);
        }
    }
}

/// MUSCL–HLLC fluxes through the `mx + 1` faces of the line held in
/// `rows.q` (`n` cells, ghosts included), into `rows.flux`.
#[inline(always)]
fn line_fluxes(rows: &mut SweepScratch, n: usize, mx: usize) {
    let SweepScratch { q, slope, flux } = rows;
    // Limited slopes for cells 1..n-1 (cells 0 and n-1 are outer ghosts
    // whose faces are never used).
    for k in 0..NVAR {
        let cells = &q[k][..n];
        for (s, w) in slope[k][1..n - 1].iter_mut().zip(cells.windows(3)) {
            *s = minmod(w[1] - w[0], w[2] - w[1]);
        }
    }
    // Face f sits between cells NG-1+f and NG+f.
    let m = mx + 1;
    let (ql, sl) = (rows_from(q, NG - 1, m), rows_from(slope, NG - 1, m));
    let (qr, sr) = (rows_from(q, NG, m), rows_from(slope, NG, m));
    let [f0, f1, f2, f3] = flux;
    let (f0, f1, f2, f3) = (&mut f0[..m], &mut f1[..m], &mut f2[..m], &mut f3[..m]);
    for f in 0..m {
        let mut l = [0.0; NVAR];
        let mut r = [0.0; NVAR];
        for k in 0..NVAR {
            l[k] = ql[k][f] + 0.5 * sl[k][f];
            r[k] = qr[k][f] - 0.5 * sr[k][f];
        }
        let out = hllc_face(&l, &r);
        f0[f] = out[0];
        f1[f] = out[1];
        f2[f] = out[2];
        f3[f] = out[3];
    }
}

/// `rows[k][off..off + m]` for every variable `k`.
#[inline(always)]
fn rows_from(rows: &[Vec<f64>; NVAR], off: usize, m: usize) -> [&[f64]; NVAR] {
    [
        &rows[0][off..off + m],
        &rows[1][off..off + m],
        &rows[2][off..off + m],
        &rows[3][off..off + m],
    ]
}

/// [`euler::minmod`] as a select: the same value, with no branch.
#[inline(always)]
fn minmod(a: f64, b: f64) -> f64 {
    let smaller = if a.abs() < b.abs() { a } else { b };
    if a * b <= 0.0 {
        0.0
    } else {
        smaller
    }
}

/// The wave-speed half of [`euler::hllc_flux`], expression for
/// expression: clamped densities and pressures, left/right velocities
/// and the Batten et al. bounds `sl`, `sr` and contact speed `sm`.
struct Waves {
    ul: f64,
    ur: f64,
    pl: f64,
    pr: f64,
    sl: f64,
    sr: f64,
    sm: f64,
}

impl Waves {
    #[inline(always)]
    fn new(ql: &State, qr: &State) -> Self {
        let rl = ql[0].max(1e-12);
        let rr = qr[0].max(1e-12);
        let ul = ql[1] / rl;
        let ur = qr[1] / rr;
        let pl = euler::pressure(ql).max(1e-12);
        let pr = euler::pressure(qr).max(1e-12);
        let cl = (GAMMA * pl / rl).sqrt();
        let cr = (GAMMA * pr / rr).sqrt();

        let srl = rl.sqrt();
        let srr = rr.sqrt();
        let u_roe = (srl * ul + srr * ur) / (srl + srr);
        let hl = (ql[3] + pl) / rl;
        let hr = (qr[3] + pr) / rr;
        let h_roe = (srl * hl + srr * hr) / (srl + srr);
        let vl = ql[2] / rl;
        let vr = qr[2] / rr;
        let v_roe = (srl * vl + srr * vr) / (srl + srr);
        let c_roe2 = (GAMMA - 1.0) * (h_roe - 0.5 * (u_roe * u_roe + v_roe * v_roe));
        let c_roe = c_roe2.max(1e-12).sqrt();

        let sl = (ul - cl).min(u_roe - c_roe);
        let sr = (ur + cr).max(u_roe + c_roe);
        let sm = (pr - pl + rl * ul * (sl - ul) - rr * ur * (sr - ur))
            / (rl * (sl - ul) - rr * (sr - ur));
        Waves {
            ul,
            ur,
            pl,
            pr,
            sl,
            sr,
            sm,
        }
    }
}

/// [`euler::hllc_flux`] as straight-line code with the same bits: both
/// physical fluxes and both star-region fluxes are computed, and the
/// result is selected in the scalar code's order — `F(ql)` if `sl ≥ 0`,
/// else `F(qr)` if `sr ≤ 0`, else the left star flux if `sm ≥ 0`, else
/// the right one. A NaN comparison falls through exactly as the scalar
/// `if` chain does.
#[inline(always)]
fn hllc_face(ql: &State, qr: &State) -> State {
    let w = Waves::new(ql, qr);
    let fl = euler::flux_x(ql);
    let fr = euler::flux_x(qr);
    let left_star = star_flux(ql, &fl, w.sl, w.ul, w.pl, w.sm);
    let right_star = star_flux(qr, &fr, w.sr, w.ur, w.pr, w.sm);
    let mut out = [0.0; NVAR];
    for k in 0..NVAR {
        let star = if w.sm >= 0.0 {
            left_star[k]
        } else {
            right_star[k]
        };
        let subsonic = if w.sr <= 0.0 { fr[k] } else { star };
        out[k] = if w.sl >= 0.0 { fl[k] } else { subsonic };
    }
    out
}

/// The HLLC star-region flux `F(q) + s·(q* − q)` on the side of `q`
/// (with `f = F(q)` and that side's wave speed `s`, velocity `u` and
/// clamped pressure `p`), as [`euler::hllc_flux`]'s `star` closure and
/// its caller compute it: the star state uses the unclamped density.
#[inline(always)]
fn star_flux(q: &State, f: &State, s: f64, u: f64, p: f64, sm: f64) -> State {
    let r = q[0];
    let factor = r * (s - u) / (s - sm);
    let e_star = q[3] / r + (sm - u) * (sm + p / (r * (s - u)));
    let qs = [factor, factor * sm, factor * (q[2] / r), factor * e_star];
    [
        f[0] + s * (qs[0] - q[0]),
        f[1] + s * (qs[1] - q[1]),
        f[2] + s * (qs[2] - q[2]),
        f[3] + s * (qs[3] - q[3]),
    ]
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

    /// The per-face line sweep the SoA kernel replaced, kept verbatim as
    /// its oracle: MUSCL-minmod reconstruction, [`euler::hllc_flux`] on
    /// each face, conservative flux differencing.
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

    /// The per-face sweep of a whole patch (rows, or columns transposed
    /// when `y`), as `sweep_x`/`sweep_y` ran it before the SoA kernel.
    /// `hits` counts the faces by the HLLC branch they take.
    fn reference_sweep(
        patch: &mut Patch,
        y: bool,
        dt: f64,
        hits: &mut [usize; 4],
    ) -> BoundaryFluxes {
        let n = patch.stride();
        let mx = patch.mx();
        let lambda = dt / patch.h();
        let (mut line, mut slope, mut flux) = (
            vec![[0.0; NVAR]; n],
            vec![[0.0; NVAR]; n],
            vec![[0.0; NVAR]; n],
        );
        let mut registers = BoundaryFluxes::with_capacity(mx);
        let orient = |q: State| if y { euler::transpose_state(&q) } else { q };
        for t in NG..NG + mx {
            for (i, cell) in line.iter_mut().enumerate() {
                *cell = orient(if y {
                    *patch.get(t, i)
                } else {
                    *patch.get(i, t)
                });
            }
            count_branches(&line, mx, hits);
            sweep_line(&mut line, &mut slope, &mut flux, lambda, mx);
            for c in 0..mx {
                let cell = if y {
                    patch.get_mut(t, NG + c)
                } else {
                    patch.get_mut(NG + c, t)
                };
                *cell = orient(line[NG + c]);
            }
            registers.lo.push(orient(flux[0]));
            registers.hi.push(orient(flux[mx]));
        }
        registers
    }

    /// Tally the HLLC branch each face of `line` takes, in
    /// [`euler::hllc_flux`]'s order: `F(ql)`, `F(qr)`, left star, right
    /// star.
    fn count_branches(line: &[State], mx: usize, hits: &mut [usize; 4]) {
        let slope = |i: usize, k: usize| {
            euler::minmod(line[i][k] - line[i - 1][k], line[i + 1][k] - line[i][k])
        };
        for f in 0..=mx {
            let (li, ri) = (NG - 1 + f, NG + f);
            let ql: State = std::array::from_fn(|k| line[li][k] + 0.5 * slope(li, k));
            let qr: State = std::array::from_fn(|k| line[ri][k] - 0.5 * slope(ri, k));
            let w = Waves::new(&ql, &qr);
            let branch = if w.sl >= 0.0 {
                0
            } else if w.sr <= 0.0 {
                1
            } else if w.sm >= 0.0 {
                2
            } else {
                3
            };
            hits[branch] += 1;
        }
    }

    /// A deterministic mix of states for every cell, ghosts included:
    /// subsonic and supersonic flow both ways, and the inputs the scalar
    /// code clamps or signs specially — density below 1e-12, negative
    /// pressure (kinetic energy above total), and −0.0 momenta.
    fn mixed_patch(mx: usize) -> Patch {
        let mut p = Patch::new(0, 0, 0, mx);
        let n = p.stride();
        let mut h = 0x9e37_79b9_7f4a_7c15u64 ^ mx as u64;
        let mut next = move || {
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            (h >> 11) as f64 / (1u64 << 53) as f64
        };
        for iy in 0..n {
            for ix in 0..n {
                // Speeds up to 9 against sound speeds of 0.15–2.4: runs of
                // one sign make supersonic faces, mixed signs subsonic ones.
                let (rho, u, v, pr) = (
                    0.5 + 2.5 * next(),
                    18.0 * next() - 9.0,
                    18.0 * next() - 9.0,
                    0.05 + 2.0 * next(),
                );
                let kind = next();
                *p.get_mut(ix, iy) = if kind < 0.08 {
                    // Density under the 1e-12 clamp.
                    [1e-14, 1e-14 * u, 1e-14 * v, pr / (GAMMA - 1.0)]
                } else if kind < 0.16 {
                    // Kinetic energy above the total: negative pressure.
                    [rho, rho * u, rho * v, 0.25 * rho * (u * u + v * v)]
                } else if kind < 0.24 {
                    [rho, -0.0, -0.0, pr / (GAMMA - 1.0)]
                } else {
                    conservative(rho, u, v, pr)
                };
            }
        }
        p
    }

    fn assert_same_bits(got: &Patch, want: &Patch, label: &str) {
        for (i, (g, w)) in got.q.iter().zip(&want.q).enumerate() {
            for k in 0..NVAR {
                assert_eq!(
                    g[k].to_bits(),
                    w[k].to_bits(),
                    "{label}: cell {i} var {k}: {} vs {}",
                    g[k],
                    w[k]
                );
            }
        }
    }

    fn assert_same_registers(got: &BoundaryFluxes, want: &BoundaryFluxes, label: &str) {
        for (side, g, w) in [("lo", &got.lo, &want.lo), ("hi", &got.hi, &want.hi)] {
            assert_eq!(g.len(), w.len(), "{label} {side}");
            for (t, (g, w)) in g.iter().zip(w).enumerate() {
                let (g, w) = (g.map(f64::to_bits), w.map(f64::to_bits));
                assert_eq!(g, w, "{label}: {side} register {t}");
            }
        }
    }

    /// Run the sweep fold in the named copy: `portable` runs its body
    /// directly, `avx2` through [`dispatch`], `public` through the
    /// `sweep_x`/`sweep_y` entry points.
    fn kernel_sweep(patch: &mut Patch, y: bool, dt: f64, copy: &str) -> BoundaryFluxes {
        let mut scratch = SweepScratch::default();
        if copy == "public" {
            return if y {
                patch.sweep_y(dt, &mut scratch)
            } else {
                patch.sweep_x(dt, &mut scratch)
            };
        }
        let mut registers = BoundaryFluxes::with_capacity(patch.mx());
        match (y, copy == "avx2") {
            (false, false) => patch
                .sweep_fold::<false>(dt, &mut scratch, &mut registers)
                .run(),
            (false, true) => dispatch(patch.sweep_fold::<false>(dt, &mut scratch, &mut registers)),
            (true, false) => patch
                .sweep_fold::<true>(dt, &mut scratch, &mut registers)
                .run(),
            (true, true) => dispatch(patch.sweep_fold::<true>(dt, &mut scratch, &mut registers)),
        }
        registers
    }

    /// The SoA kernel against the per-face oracle, `to_bits`, on every
    /// cell and boundary register: x and y sweeps, every grid width of
    /// the paper plus the vector remainders (Miri runs the small ones),
    /// faces in all four HLLC branches, and the clamped and signed-zero
    /// inputs of [`mixed_patch`]; in the portable copy, the AVX2 copy
    /// where it runs, and the public entry points.
    #[test]
    fn soa_kernel_matches_the_per_face_sweep_bitwise() {
        let widths: &[usize] = if cfg!(miri) {
            &[4, 5, 8]
        } else {
            &[4, 5, 7, 8, 16, 24, 32]
        };
        let mut copies = vec!["portable", "public"];
        if al_linalg::avx2_copy_runs() {
            copies.push("avx2");
        }
        for &mx in widths {
            let start = mixed_patch(mx);
            let dt = 0.1 * start.h();
            for y in [false, true] {
                let mut hits = [0usize; 4];
                let mut want = start.clone();
                let want_registers = reference_sweep(&mut want, y, dt, &mut hits);
                assert!(
                    hits.iter().all(|&h| h > 0),
                    "mx={mx} y={y}: branch hits {hits:?}"
                );
                for &copy in &copies {
                    let label = format!("{copy} mx={mx} y={y}");
                    let mut got = start.clone();
                    let registers = kernel_sweep(&mut got, y, dt, copy);
                    assert_same_bits(&got, &want, &label);
                    assert_same_registers(&registers, &want_registers, &label);
                }
            }
        }
    }

    /// The select form of minmod gives the branchy one's bits, signed
    /// zeros and NaN included.
    #[test]
    fn select_minmod_matches_the_branchy_one() {
        let vals = [
            -2.0,
            -1.0,
            -0.0,
            0.0,
            0.5,
            1.0,
            2.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in vals {
            for b in vals {
                assert_eq!(
                    minmod(a, b).to_bits(),
                    euler::minmod(a, b).to_bits(),
                    "minmod({a}, {b})"
                );
            }
        }
    }
}
