//! The harness's one wall-clock read.
//!
//! `clippy.toml` disallows `Instant::now` across the workspace (DESIGN §9):
//! priced and model code counts work instead of timing it. The bench crate
//! times its runs for the printed notes and the `BENCH_*.json` samples, and
//! reads the clock only through [`now`], so the exemption is one audited
//! site and an ad-hoc spawn anywhere in the crate still fails clippy.

use std::time::Instant;

/// The host's monotonic clock. A reading annotates a printed note or a
/// `BENCH_*.json` sample only; it never feeds a priced result.
#[must_use]
#[expect(
    clippy::disallowed_methods,
    reason = "the bench crate's one wall-clock read; timings never feed priced results"
)]
pub fn now() -> Instant {
    Instant::now()
}
