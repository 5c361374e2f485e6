//! Typed physical quantities for the cost/memory pipeline.
//!
//! The paper's two headline observables — node-hours of cost and MB of
//! MaxRSS (Duplyakin et al., IPDPSW 2018) — flow through the machine
//! model, the dataset, and the selection strategies in at least six
//! different units (µs/update, ns/ghost-cell, seconds, node-hours,
//! bytes/cell, MB). This crate turns each unit into a newtype so that a
//! silent mix-up (pricing `wall_seconds` as node-hours, comparing bytes
//! against an MB limit) is a *compile* error. It is the workspace's only
//! owner of the unit vocabulary: no lint or table restates it.
//!
//! # Conversion contract
//!
//! - Constructors (`new`) debug-assert the magnitude is finite; quantities
//!   never wrap NaN/∞ in debug builds.
//! - Conversions are explicit, exactly-factored methods (`to_seconds`,
//!   `to_megabytes`, `node_hours`, `log10`). There are no `From`/`Into`
//!   impls and no cross-unit `Add`/`Sub`/`PartialOrd` impls between unit
//!   types: every unit change is spelled at the call site, and rustc
//!   rejects every other mix.
//! - `Mul`/`Div` produce the correct derived unit: a per-item rate times a
//!   [`CellUpdates`] count yields the rate's unit totalled over the items;
//!   dividing two like quantities yields a dimensionless `f64` ratio;
//!   scaling by `f64` stays in the same unit.
//! - [`Display`](std::fmt::Display) prints the bare magnitude (delegating
//!   to `f64`, so `{:.3}` etc. work); the unit lives in the type and the
//!   field name, keeping CSV and log output byte-compatible with the
//!   pre-typed pipeline.
//! - `value()` is the raw-`f64` escape hatch for the numeric kernels (GP
//!   features, CSV formatting). Past it the types no longer help, so no
//!   expression combines the `value()`s of two different units.
//!
//! A mix goes through the named conversions:
//!
//! ```
//! use al_units::{Bytes, CellUpdates, Megabytes, Micros, NodeHours, Seconds};
//!
//! let compute = Micros::new(2.0) * CellUpdates::new(1_500_000);
//! let wall = Seconds::new(7197.0) + compute.to_seconds();
//! let cost: NodeHours = wall.node_hours(4.0);
//! assert_eq!(cost.value(), 8.0);
//!
//! let mut rss = Megabytes::new(10.0);
//! rss += (Bytes::new(32.0) * CellUpdates::new(1_000_000)).to_megabytes();
//! assert_eq!(rss.value(), 42.0);
//! assert!((rss.log10().to_megabytes() - rss).value().abs() < 1e-12);
//! ```
//!
//! Each mix below is a type error (E0308), not a lint finding:
//!
//! ```compile_fail,E0308
//! # use al_units::{Megabytes, NodeHours};
//! let _ = NodeHours::new(1.0) + Megabytes::new(1.0);
//! ```
//!
//! ```compile_fail,E0308
//! # use al_units::{Micros, Seconds};
//! let _ = Seconds::new(1.0) < Micros::new(1.0);
//! ```
//!
//! ```compile_fail,E0308
//! # use al_units::{Bytes, Megabytes};
//! let mut rss = Megabytes::new(1.0);
//! rss += Bytes::new(1.0);
//! ```
//!
//! ```compile_fail,E0308
//! # use al_units::{CellUpdates, Micros, Seconds};
//! let _ = Micros::new(1.0) * CellUpdates::new(2) + Seconds::new(1.0);
//! ```

#![warn(missing_docs)]
// Unit tests assert exact round-trips of power-of-two representable values.
#![cfg_attr(test, allow(clippy::float_cmp))]

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            #[doc = concat!("Wrap a magnitude in ", $unit, ". Debug-asserts finiteness.")]
            pub fn new(value: f64) -> Self {
                debug_assert!(value.is_finite(), "non-finite {}: {value}", $unit);
                $name(value)
            }

            #[doc = concat!("The bare magnitude in ", $unit, ".")]
            pub fn value(self) -> f64 {
                self.0
            }
        }

        impl Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = $name;
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        /// Ratio of two like quantities: dimensionless.
        impl Div for $name {
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(&self.0, f)
            }
        }
    };
}

quantity!(
    /// Wall-clock time in seconds (Table I response 1).
    Seconds,
    "seconds"
);
quantity!(
    /// Time in microseconds — per-update compute and per-round latency rates.
    Micros,
    "microseconds"
);
quantity!(
    /// Time in nanoseconds — the per-ghost-cell bandwidth rate.
    Nanos,
    "nanoseconds"
);
quantity!(
    /// Job cost in node-hours (Table I response 2), the paper's `c`.
    NodeHours,
    "node-hours"
);
quantity!(
    /// Memory in megabytes — MaxRSS per process (Table I response 3), the
    /// paper's `m`. 1 MB = 10^6 bytes, matching SLURM accounting.
    Megabytes,
    "megabytes"
);
quantity!(
    /// Memory in bytes — the per-cell storage rate.
    Bytes,
    "bytes"
);

impl Seconds {
    /// Price this wall-clock duration on `nodes` nodes:
    /// `wall · nodes / 3600` node-hours — exactly the paper's cost formula.
    pub fn node_hours(self, nodes: f64) -> NodeHours {
        NodeHours::new(self.0 * nodes / 3600.0)
    }
}

impl Micros {
    /// Exact conversion to seconds (× 10⁻⁶).
    pub fn to_seconds(self) -> Seconds {
        Seconds::new(self.0 * 1e-6)
    }
}

impl Nanos {
    /// Exact conversion to seconds (× 10⁻⁹).
    pub fn to_seconds(self) -> Seconds {
        Seconds::new(self.0 * 1e-9)
    }
}

impl Bytes {
    /// Exact conversion to megabytes (÷ 10⁶).
    pub fn to_megabytes(self) -> Megabytes {
        Megabytes::new(self.0 / 1e6)
    }
}

impl Megabytes {
    /// The log₁₀ view the memory GP and the paper's limit `L_mem` live in.
    /// Debug-asserts positivity (the log transform requires it).
    pub fn log10(self) -> LogMegabytes {
        debug_assert!(self.0 > 0.0, "log10 of non-positive megabytes {}", self.0);
        LogMegabytes::new(self.0.log10())
    }
}

/// A count of directional cell updates (or cells — the solver's
/// order-invariant work counters). Multiplying a per-item rate by a count
/// totals the rate over the items, preserving the rate's unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct CellUpdates(u64);

impl CellUpdates {
    /// Wrap a raw counter.
    pub fn new(count: u64) -> Self {
        CellUpdates(count)
    }

    /// The raw counter.
    pub fn count(self) -> u64 {
        self.0
    }
}

impl Add for CellUpdates {
    type Output = CellUpdates;
    fn add(self, rhs: CellUpdates) -> CellUpdates {
        CellUpdates(self.0 + rhs.0)
    }
}

impl AddAssign for CellUpdates {
    fn add_assign(&mut self, rhs: CellUpdates) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for CellUpdates {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl Mul<CellUpdates> for Micros {
    type Output = Micros;
    fn mul(self, rhs: CellUpdates) -> Micros {
        Micros::new(self.0 * rhs.0 as f64)
    }
}

impl Mul<CellUpdates> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: CellUpdates) -> Nanos {
        Nanos::new(self.0 * rhs.0 as f64)
    }
}

impl Mul<CellUpdates> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: CellUpdates) -> Bytes {
        Bytes::new(self.0 * rhs.0 as f64)
    }
}

/// A memory limit (or level) in log₁₀ MB — the space the memory GP trains
/// in and the paper's `L_mem` is stated in. Kept distinct from
/// [`Megabytes`] so log-space and raw-space values can never be compared
/// or mixed without an explicit [`LogMegabytes::to_megabytes`] /
/// [`Megabytes::log10`] conversion.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct LogMegabytes(f64);

impl LogMegabytes {
    /// Wrap a log₁₀-MB magnitude. Debug-asserts finiteness.
    pub fn new(value: f64) -> Self {
        debug_assert!(value.is_finite(), "non-finite log10-MB: {value}");
        LogMegabytes(value)
    }

    /// The bare magnitude in log₁₀ MB.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Exact inverse of [`Megabytes::log10`]: `10^value` MB.
    pub fn to_megabytes(self) -> Megabytes {
        Megabytes::new(10f64.powf(self.0))
    }

    /// RGMA's admission test: does a predicted log₁₀-MB mean `mu_log` fall
    /// strictly below this limit? (The paper filters to `μ_mem < L_mem`.)
    pub fn admits(self, mu_log: f64) -> bool {
        mu_log < self.0
    }
}

/// Shift a log-space limit by `rhs` decades.
impl Add<f64> for LogMegabytes {
    type Output = LogMegabytes;
    fn add(self, rhs: f64) -> LogMegabytes {
        LogMegabytes::new(self.0 + rhs)
    }
}

/// Shift a log-space limit down by `rhs` decades.
impl Sub<f64> for LogMegabytes {
    type Output = LogMegabytes;
    fn sub(self, rhs: f64) -> LogMegabytes {
        LogMegabytes::new(self.0 - rhs)
    }
}

impl fmt::Display for LogMegabytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_stays_in_unit() {
        let a = Seconds::new(1.5);
        let b = Seconds::new(0.5);
        assert_eq!((a + b).value(), 2.0);
        assert_eq!((a - b).value(), 1.0);
        assert_eq!((a * 4.0).value(), 6.0);
        assert_eq!((a / 3.0).value(), 0.5);
        assert_eq!(a / b, 3.0, "like-unit division is a ratio");
        let mut acc = Seconds::new(0.0);
        acc += a;
        acc -= b;
        assert_eq!(acc.value(), 1.0);
        let total: Seconds = [a, b, b].into_iter().sum();
        assert_eq!(total.value(), 2.5);
    }

    #[test]
    fn time_conversions_are_exact_inverses() {
        let us = Micros::new(2_500_000.0);
        assert_eq!(us.to_seconds().value(), 2.5);
        assert_eq!(Nanos::new(3e9).to_seconds().value(), 3.0);
    }

    #[test]
    fn node_hours_match_the_paper_formula() {
        // wall · p / 3600, the paper's cost definition.
        let cost = Seconds::new(7200.0).node_hours(8.0);
        assert_eq!(cost.value(), 16.0);
    }

    #[test]
    fn memory_conversions_roundtrip() {
        let b = Bytes::new(32e6);
        assert_eq!(b.to_megabytes().value(), 32.0);
        let log = Megabytes::new(100.0).log10();
        assert!((log.value() - 2.0).abs() < 1e-12);
        assert!((log.to_megabytes().value() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn rate_times_count_totals_the_rate() {
        let per_update = Micros::new(3.0);
        let total = per_update * CellUpdates::new(1_000_000);
        assert_eq!(total.value(), 3_000_000.0);
        assert_eq!(total.to_seconds().value(), 3.0);
        let bytes = Bytes::new(32.0) * CellUpdates::new(2_000_000);
        assert_eq!(bytes.to_megabytes().value(), 64.0);
        let ns = Nanos::new(60.0) * CellUpdates::new(1_000);
        assert_eq!(ns.value(), 60_000.0);
    }

    #[test]
    fn cell_updates_accumulate() {
        let mut c = CellUpdates::new(5);
        c += CellUpdates::new(7);
        assert_eq!((c + CellUpdates::new(3)).count(), 15);
    }

    #[test]
    fn log_limit_admits_strictly_below() {
        let limit = LogMegabytes::new(1.0);
        assert!(limit.admits(0.999));
        assert!(!limit.admits(1.0), "boundary is excluded, per the paper");
        assert!(!limit.admits(1.5));
        assert_eq!((limit + 0.5).value(), 1.5);
        assert_eq!((limit - 0.25).value(), 0.75);
    }

    #[test]
    fn ordering_and_display_delegate_to_f64() {
        assert!(Megabytes::new(1.0) < Megabytes::new(2.0));
        assert!(NodeHours::new(3.0) >= NodeHours::new(3.0));
        assert_eq!(format!("{}", Seconds::new(1.25)), "1.25");
        assert_eq!(format!("{:.1}", Megabytes::new(2.345)), "2.3");
        assert_eq!(format!("{}", CellUpdates::new(42)), "42");
    }

    // The check is a `debug_assert!`, so only a debug build panics.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_magnitudes_are_rejected_in_debug() {
        let _ = Seconds::new(f64::NAN);
    }
}
