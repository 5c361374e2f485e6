//! The shock–bubble interaction problem and the paper's 5-dimensional
//! configuration space.
//!
//! A planar Mach-2 shock travels rightward into quiescent gas containing a
//! circular low-density bubble. The shock compresses and shreds the bubble,
//! producing the rich interface structure of the paper's Fig. 1 — and,
//! crucially for performance modelling, a refined region whose extent
//! depends on the bubble size `r0` and density `rhoin`.

use crate::error::AmrError;
use crate::euler::{conservative, State, GAMMA};
use crate::patch::{MIN_MX, NG};

/// Shock Mach number driving the problem.
pub const SHOCK_MACH: f64 = 2.0;

/// Initial x-position of the shock front.
pub const SHOCK_X: f64 = 0.2;

/// Bubble center.
pub const BUBBLE_CENTER: (f64, f64) = (0.45, 0.5);

/// Scale factor from the `r0` feature to the physical bubble radius,
/// keeping the largest bubble inside the unit square.
pub const RADIUS_SCALE: f64 = 0.45;

/// Largest worst-case forest [`SimulationConfig::check`] admits, in
/// bytes: 1 GiB. The default sweep grid's deepest corner (`maxlevel` 6,
/// `mx` 32) needs 170 MB.
pub const STORAGE_CAP_BYTES: u64 = 1 << 30;

/// One point of the paper's input space (Table I features).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationConfig {
    /// `p` — number of compute nodes the job runs on (machine parameter).
    pub p: u32,
    /// `mx` — cells per patch side ("box size", numerical parameter).
    pub mx: usize,
    /// `maxlevel` — maximum refinement level (numerical parameter).
    pub maxlevel: u8,
    /// `r0` — bubble size (physical parameter, dimensionless).
    pub r0: f64,
    /// `rhoin` — bubble density (physical parameter; ambient is 1).
    pub rhoin: f64,
}

impl SimulationConfig {
    /// Feature vector in the paper's column order
    /// `[p, mx, maxlevel, r0, rhoin]`.
    pub fn features(&self) -> [f64; 5] {
        [
            self.p as f64,
            self.mx as f64,
            self.maxlevel as f64,
            self.r0,
            self.rhoin,
        ]
    }

    /// Refuse a configuration the solver cannot simulate, naming its
    /// first bad field, without allocating: `p` must be at least 1 (the
    /// machine model divides by it), `mx` at least 4 (the MUSCL stencil),
    /// `r0` and `rhoin` finite and positive (a bubble with a size and a
    /// density), and the bubble clear of the shock,
    /// `r0 · RADIUS_SCALE < BUBBLE_CENTER.0 − SHOCK_X` (which also keeps
    /// it inside the domain). Last, a forest refined everywhere to
    /// `maxlevel`, `4^maxlevel` patches of `(mx + 2·NG)²` cells of 32 B,
    /// must fit in [`STORAGE_CAP_BYTES`]; that failure names `maxlevel`.
    /// [`run_simulation`](crate::run_simulation) calls this first.
    pub fn check(&self) -> Result<(), AmrError> {
        let invalid = |field, rule| Err(AmrError::InvalidConfig { field, rule });
        if self.p < 1 {
            return invalid("p", "at least 1");
        }
        if self.mx < MIN_MX {
            return invalid("mx", "at least 4");
        }
        for (field, v) in [("r0", self.r0), ("rhoin", self.rhoin)] {
            if !(v.is_finite() && v > 0.0) {
                return invalid(field, "finite and positive");
            }
        }
        if self.bubble_radius() >= BUBBLE_CENTER.0 - SHOCK_X {
            return invalid(
                "r0",
                "below 0.25 / 0.45 ≈ 0.556, so the bubble clears the shock",
            );
        }
        if self
            .worst_case_storage_bytes()
            .is_none_or(|b| b > STORAGE_CAP_BYTES)
        {
            return invalid(
                "maxlevel",
                "low enough that 4^maxlevel · (mx + 4)² cells of 32 B fit in 1 GiB",
            );
        }
        Ok(())
    }

    /// Bytes of a forest refined everywhere to `maxlevel`, or `None` past
    /// `u64`.
    fn worst_case_storage_bytes(&self) -> Option<u64> {
        let side = u64::try_from(self.mx).ok()?.checked_add(2 * NG as u64)?;
        4u64.checked_pow(u32::from(self.maxlevel))?
            .checked_mul(side.checked_mul(side)?)?
            .checked_mul(std::mem::size_of::<State>() as u64)
    }

    /// Physical bubble radius in domain units.
    fn bubble_radius(&self) -> f64 {
        self.r0 * RADIUS_SCALE
    }

    /// Stable deterministic hash of the configuration, used to seed the
    /// machine model's run-to-run noise per configuration.
    pub fn stable_hash(&self) -> u64 {
        // FNV-1a over the quantized fields; stable across platforms.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        mix(self.p as u64);
        mix(self.mx as u64);
        mix(self.maxlevel as u64);
        mix((self.r0 * 1e6).round() as u64);
        mix((self.rhoin * 1e6).round() as u64);
        h
    }
}

/// Pre-shock (quiescent) ambient state: `ρ = 1, u = v = 0, p = 1`.
fn ambient_state() -> State {
    conservative(1.0, 0.0, 0.0, 1.0)
}

/// Post-shock state from the Rankine–Hugoniot relations for a Mach-`M`
/// shock moving into the ambient state.
pub fn post_shock_state(mach: f64) -> State {
    let m2 = mach * mach;
    // Ambient: rho0 = 1, p0 = 1, c0 = sqrt(gamma).
    let c0 = GAMMA.sqrt();
    let rho = (GAMMA + 1.0) * m2 / ((GAMMA - 1.0) * m2 + 2.0);
    let p = (2.0 * GAMMA * m2 - (GAMMA - 1.0)) / (GAMMA + 1.0);
    // Piston (post-shock gas) velocity.
    let u = 2.0 * c0 * (m2 - 1.0) / ((GAMMA + 1.0) * mach);
    conservative(rho, u, 0.0, p)
}

/// Initial condition for the configuration: post-shock gas left of
/// [`SHOCK_X`], ambient gas right of it, with the bubble (density
/// `rhoin`, pressure-matched) carved out around [`BUBBLE_CENTER`].
pub fn initial_condition(config: &SimulationConfig) -> impl Fn(f64, f64) -> State + '_ {
    let post = post_shock_state(SHOCK_MACH);
    let radius = config.bubble_radius();
    let rhoin = config.rhoin;
    move |x: f64, y: f64| -> State {
        if x < SHOCK_X {
            return post;
        }
        let dx = x - BUBBLE_CENTER.0;
        let dy = y - BUBBLE_CENTER.1;
        if dx * dx + dy * dy < radius * radius {
            conservative(rhoin, 0.0, 0.0, 1.0)
        } else {
            ambient_state()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euler::{pressure, NVAR};

    #[test]
    fn features_follow_table_order() {
        let c = SimulationConfig {
            p: 8,
            mx: 16,
            maxlevel: 5,
            r0: 0.3,
            rhoin: 0.1,
        };
        assert_eq!(c.features(), [8.0, 16.0, 5.0, 0.3, 0.1]);
    }

    #[test]
    fn bubble_radius_stays_inside_domain() {
        let c = SimulationConfig {
            p: 4,
            mx: 8,
            maxlevel: 3,
            r0: 0.5,
            rhoin: 0.5,
        };
        let r = c.bubble_radius();
        assert!(BUBBLE_CENTER.0 - r > SHOCK_X, "bubble clear of the shock");
        assert!(BUBBLE_CENTER.0 + r < 1.0);
        assert!(BUBBLE_CENTER.1 + r < 1.0);
    }

    fn refusal(c: SimulationConfig) -> Option<&'static str> {
        match c.check() {
            Ok(()) => None,
            Err(AmrError::InvalidConfig { field, .. }) => Some(field),
            Err(other) => unreachable!("check returned {other:?}"),
        }
    }

    #[test]
    fn check_admits_a_bubble_up_to_the_shock_and_not_past_it() {
        let c = SimulationConfig {
            p: 4,
            mx: 8,
            maxlevel: 3,
            r0: 0.555,
            rhoin: 0.5,
        };
        assert_eq!(refusal(c), None);
        assert_eq!(refusal(SimulationConfig { r0: 0.556, ..c }), Some("r0"));
    }

    #[test]
    fn check_caps_the_worst_case_storage() {
        // 4^7 · (41 + 4)² · 32 B = 1.06e9 B fits in 1 GiB; mx 42 does not.
        let c = SimulationConfig {
            p: 4,
            mx: 41,
            maxlevel: 7,
            r0: 0.3,
            rhoin: 0.5,
        };
        assert_eq!(refusal(c), None);
        assert_eq!(refusal(SimulationConfig { mx: 42, ..c }), Some("maxlevel"));
        assert_eq!(
            refusal(SimulationConfig {
                maxlevel: 10,
                mx: 4,
                ..c
            }),
            Some("maxlevel")
        );
        // Past u64 in every factor: refused, not overflowed.
        assert_eq!(
            refusal(SimulationConfig { maxlevel: 40, ..c }),
            Some("maxlevel")
        );
        assert_eq!(
            refusal(SimulationConfig {
                maxlevel: u8::MAX,
                ..c
            }),
            Some("maxlevel")
        );
        assert_eq!(
            refusal(SimulationConfig {
                mx: usize::MAX,
                ..c
            }),
            Some("maxlevel")
        );
    }

    #[test]
    fn rankine_hugoniot_mach2_textbook_values() {
        let q = post_shock_state(2.0);
        // γ = 1.4, M = 2: ρ/ρ0 = 8/3, p/p0 = 4.5.
        assert!((q[0] - 8.0 / 3.0).abs() < 1e-12, "density {}", q[0]);
        assert!((pressure(&q) - 4.5).abs() < 1e-10, "pressure");
        let u = q[1] / q[0];
        assert!(u > 0.0, "post-shock gas moves rightward");
    }

    #[test]
    fn mach_one_shock_is_no_shock() {
        let q = post_shock_state(1.0);
        let amb = ambient_state();
        for k in 0..NVAR {
            assert!((q[k] - amb[k]).abs() < 1e-12, "component {k}");
        }
    }

    #[test]
    fn initial_condition_regions() {
        let c = SimulationConfig {
            p: 4,
            mx: 8,
            maxlevel: 3,
            r0: 0.4,
            rhoin: 0.05,
        };
        let f = initial_condition(&c);
        // Left of the shock: post-shock density.
        assert!((f(0.1, 0.5)[0] - 8.0 / 3.0).abs() < 1e-12);
        // Inside the bubble: rhoin at ambient pressure.
        let inside = f(BUBBLE_CENTER.0, BUBBLE_CENTER.1);
        assert!((inside[0] - 0.05).abs() < 1e-12);
        assert!((pressure(&inside) - 1.0).abs() < 1e-12);
        // Far field: ambient.
        assert_eq!(f(0.95, 0.95), ambient_state());
    }

    #[test]
    fn stable_hash_distinguishes_configs() {
        let a = SimulationConfig {
            p: 4,
            mx: 8,
            maxlevel: 3,
            r0: 0.2,
            rhoin: 0.02,
        };
        let mut b = a;
        b.rhoin = 0.021;
        assert_ne!(a.stable_hash(), b.stable_hash());
        assert_eq!(a.stable_hash(), a.stable_hash());
    }
}
