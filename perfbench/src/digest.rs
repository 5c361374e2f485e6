//! Bit-level output digests: the benchmark's correctness check.
//!
//! Every workload folds the exact bits of its outputs into one 64-bit
//! FNV-1a value per round and compares it with `reference.txt`. A change
//! that alters a single output bit therefore fails the run, however fast
//! it is.

use al_core::{StopReason, Trajectory};
use al_dataset::Sample;

/// FNV-1a over little-endian 64-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold the bits of a float.
    pub fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// Fold a string (length-prefixed, so concatenations stay distinct).
    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    /// The current value.
    pub fn value(self) -> u64 {
        self.0
    }
}

fn stop_code(reason: StopReason) -> u64 {
    match reason {
        StopReason::ActiveExhausted => 1,
        StopReason::AllCandidatesRefused => 2,
        StopReason::MaxIterations => 3,
        StopReason::PredictionsStabilized => 4,
        StopReason::HyperparamsStabilized => 5,
    }
}

/// Fold every field of a trajectory record by record.
pub fn trajectory(d: &mut Digest, t: &Trajectory) {
    d.text(&t.strategy);
    d.word(t.n_init as u64);
    d.float(t.initial_rmse_cost);
    d.float(t.initial_rmse_mem);
    d.word(t.records.len() as u64);
    for r in &t.records {
        d.word(r.iteration as u64);
        d.word(r.dataset_index as u64);
        d.float(r.cost.value());
        d.float(r.memory.value());
        d.float(r.regret.value());
        d.float(r.cumulative_cost.value());
        d.float(r.cumulative_regret.value());
        d.float(r.rmse_cost);
        d.float(r.rmse_mem);
    }
    d.word(stop_code(t.stop_reason));
}

/// Digest of one trajectory on its own.
pub fn of_trajectory(t: &Trajectory) -> u64 {
    let mut d = Digest::default();
    trajectory(&mut d, t);
    d.value()
}

/// Fold a generated sample: its configuration and all three responses.
pub fn sample(d: &mut Digest, s: &Sample) {
    d.word(u64::from(s.config.p));
    d.word(s.config.mx as u64);
    d.word(u64::from(s.config.maxlevel));
    d.float(s.config.r0);
    d.float(s.config.rhoin);
    d.float(s.wall_seconds.value());
    d.float(s.cost_node_hours.value());
    d.float(s.memory_mb.value());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_order_and_bits() {
        let mut a = Digest::default();
        a.word(1);
        a.word(2);
        let mut b = Digest::default();
        b.word(2);
        b.word(1);
        assert_ne!(a.value(), b.value());
        let mut c = Digest::default();
        c.float(0.0);
        let mut d = Digest::default();
        d.float(-0.0);
        assert_ne!(c.value(), d.value());
    }
}
