//! 2D compressible Euler equations: state algebra, HLLC approximate Riemann
//! solver and MUSCL slope limiting.
//!
//! Conservative variables `q = (ρ, ρu, ρv, E)` with the ideal-gas closure
//! `p = (γ−1)(E − ½ρ(u²+v²))`, `γ = 1.4`. The solver below is the
//! building block FORESTCLAW's Clawpack patches provide in the paper's
//! setup: a high-resolution finite-volume update based on Riemann solutions
//! at cell interfaces.

/// Ratio of specific heats for a diatomic ideal gas.
pub const GAMMA: f64 = 1.4;

/// Number of conserved variables.
pub const NVAR: usize = 4;

/// Conservative state vector `(ρ, ρu, ρv, E)`.
pub type State = [f64; NVAR];

/// Construct a conservative state from primitive variables
/// `(ρ, u, v, p)`.
pub fn conservative(rho: f64, u: f64, v: f64, p: f64) -> State {
    debug_assert!(rho > 0.0 && p > 0.0);
    let e = p / (GAMMA - 1.0) + 0.5 * rho * (u * u + v * v);
    [rho, rho * u, rho * v, e]
}

/// Pressure from a conservative state.
#[inline(always)]
pub fn pressure(q: &State) -> f64 {
    let rho = q[0];
    let ke = 0.5 * (q[1] * q[1] + q[2] * q[2]) / rho;
    (GAMMA - 1.0) * (q[3] - ke)
}

/// Speed of sound `√(γp/ρ)`; clamps non-physical states to a tiny positive
/// pressure so a failing cell slows the CFL step instead of producing NaNs.
#[inline]
pub fn sound_speed(q: &State) -> f64 {
    let p = pressure(q).max(1e-12);
    (GAMMA * p / q[0].max(1e-12)).sqrt()
}

/// Largest characteristic speed `|u| + c` over both directions — the CFL
/// signal speed of a cell.
#[inline]
pub fn max_wave_speed(q: &State) -> f64 {
    let rho = q[0].max(1e-12);
    let u = (q[1] / rho).abs();
    let v = (q[2] / rho).abs();
    u.max(v) + sound_speed(q)
}

/// Physical flux in the x-direction.
#[inline(always)]
pub fn flux_x(q: &State) -> State {
    let rho = q[0].max(1e-12);
    let u = q[1] / rho;
    let p = pressure(q);
    [q[1], q[1] * u + p, q[2] * u, (q[3] + p) * u]
}

/// Swap the roles of x and y momentum, turning a y-sweep into an x-sweep.
#[inline]
pub fn transpose_state(q: &State) -> State {
    [q[0], q[2], q[1], q[3]]
}

/// HLLC approximate Riemann flux in the x-direction between left state `ql`
/// and right state `qr`.
///
/// Wave-speed estimates follow Batten et al. (Roe-averaged bounds); the
/// contact restoration makes HLLC resolve the material interface of the
/// bubble far better than plain HLL, which matters because refinement tags
/// track exactly that interface.
pub fn hllc_flux(ql: &State, qr: &State) -> State {
    let rl = ql[0].max(1e-12);
    let rr = qr[0].max(1e-12);
    let ul = ql[1] / rl;
    let ur = qr[1] / rr;
    let pl = pressure(ql).max(1e-12);
    let pr = pressure(qr).max(1e-12);
    let cl = (GAMMA * pl / rl).sqrt();
    let cr = (GAMMA * pr / rr).sqrt();

    // Roe-averaged velocity / sound speed for robust wave-speed bounds.
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

    if sl >= 0.0 {
        return flux_x(ql);
    }
    if sr <= 0.0 {
        return flux_x(qr);
    }

    // Contact (middle) wave speed.
    let sm =
        (pr - pl + rl * ul * (sl - ul) - rr * ur * (sr - ur)) / (rl * (sl - ul) - rr * (sr - ur));

    let star = |q: &State, s: f64, u: f64, p: f64| -> State {
        let r = q[0];
        let factor = r * (s - u) / (s - sm);
        let e_star = q[3] / r + (sm - u) * (sm + p / (r * (s - u)));
        [factor, factor * sm, factor * (q[2] / r), factor * e_star]
    };

    if sm >= 0.0 {
        let f = flux_x(ql);
        let qs = star(ql, sl, ul, pl);
        [
            f[0] + sl * (qs[0] - ql[0]),
            f[1] + sl * (qs[1] - ql[1]),
            f[2] + sl * (qs[2] - ql[2]),
            f[3] + sl * (qs[3] - ql[3]),
        ]
    } else {
        let f = flux_x(qr);
        let qs = star(qr, sr, ur, pr);
        [
            f[0] + sr * (qs[0] - qr[0]),
            f[1] + sr * (qs[1] - qr[1]),
            f[2] + sr * (qs[2] - qr[2]),
            f[3] + sr * (qs[3] - qr[3]),
        ]
    }
}

/// Minmod slope limiter: the classic TVD choice for MUSCL reconstruction.
#[inline]
pub fn minmod(a: f64, b: f64) -> f64 {
    if a * b <= 0.0 {
        0.0
    } else if a.abs() < b.abs() {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn conservative_primitive_roundtrip() {
        let q = conservative(1.4, 3.0, -1.0, 2.5);
        assert!(approx(q[0], 1.4, 1e-14));
        assert!(approx(pressure(&q), 2.5, 1e-12));
        assert!(approx(q[1] / q[0], 3.0, 1e-14));
        assert!(approx(q[2] / q[0], -1.0, 1e-14));
    }

    #[test]
    fn sound_speed_of_standard_air() {
        let q = conservative(1.0, 0.0, 0.0, 1.0);
        assert!(approx(sound_speed(&q), GAMMA.sqrt(), 1e-12));
    }

    #[test]
    fn max_wave_speed_includes_advection() {
        let q = conservative(1.0, 2.0, 0.5, 1.0);
        assert!(approx(max_wave_speed(&q), 2.0 + GAMMA.sqrt(), 1e-12));
    }

    #[test]
    fn flux_of_uniform_rest_state_is_pressure_only() {
        let q = conservative(1.0, 0.0, 0.0, 1.0);
        let f = flux_x(&q);
        assert_eq!(f[0], 0.0);
        assert!(approx(f[1], 1.0, 1e-12)); // momentum flux = p
        assert_eq!(f[2], 0.0);
        assert_eq!(f[3], 0.0);
    }

    #[test]
    fn hllc_is_consistent_with_the_physical_flux() {
        // Identical left/right states ⇒ the numerical flux equals F(q).
        let q = conservative(1.3, 0.7, -0.2, 2.0);
        let f = hllc_flux(&q, &q);
        let fx = flux_x(&q);
        for k in 0..NVAR {
            assert!(approx(f[k], fx[k], 1e-10), "component {k}");
        }
    }

    #[test]
    fn hllc_upwinds_supersonic_flow() {
        // Supersonic rightward flow: flux must be the left flux exactly.
        let ql = conservative(1.0, 5.0, 0.0, 1.0);
        let qr = conservative(0.5, 5.0, 0.0, 0.8);
        let f = hllc_flux(&ql, &qr);
        let fl = flux_x(&ql);
        for k in 0..NVAR {
            assert!(approx(f[k], fl[k], 1e-12), "component {k}");
        }
        // Supersonic leftward flow: flux must be the right flux.
        let ql = conservative(1.0, -5.0, 0.0, 1.0);
        let qr = conservative(0.5, -5.0, 0.0, 0.8);
        let f = hllc_flux(&ql, &qr);
        let fr = flux_x(&qr);
        for k in 0..NVAR {
            assert!(approx(f[k], fr[k], 1e-12), "component {k}");
        }
    }

    #[test]
    fn hllc_sod_interface_flux_is_reasonable() {
        // Sod shock tube initial states: flux at the interface should move
        // mass rightward (positive density flux).
        let ql = conservative(1.0, 0.0, 0.0, 1.0);
        let qr = conservative(0.125, 0.0, 0.0, 0.1);
        let f = hllc_flux(&ql, &qr);
        assert!(f[0] > 0.0, "mass flux {}", f[0]);
        assert!(f[1] > 0.0, "momentum flux {}", f[1]);
    }

    #[test]
    fn hllc_preserves_contact_discontinuity() {
        // Stationary contact: equal pressure & velocity, different density.
        // HLLC (unlike HLL) gives exactly zero mass flux.
        let ql = conservative(1.0, 0.0, 0.0, 1.0);
        let qr = conservative(0.1, 0.0, 0.0, 1.0);
        let f = hllc_flux(&ql, &qr);
        assert!(f[0].abs() < 1e-12, "mass flux {}", f[0]);
        assert!(approx(f[1], 1.0, 1e-12), "momentum flux {}", f[1]);
        assert!(f[3].abs() < 1e-12, "energy flux {}", f[3]);
    }

    #[test]
    fn transpose_swaps_momenta() {
        let q = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(transpose_state(&q), [1.0, 3.0, 2.0, 4.0]);
        assert_eq!(transpose_state(&transpose_state(&q)), q);
    }

    #[test]
    fn minmod_limits() {
        assert_eq!(minmod(1.0, 2.0), 1.0);
        assert_eq!(minmod(-2.0, -1.0), -1.0);
        assert_eq!(minmod(1.0, -1.0), 0.0);
        assert_eq!(minmod(0.0, 5.0), 0.0);
    }
}
