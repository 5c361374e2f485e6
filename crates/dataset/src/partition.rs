//! Random partitioning of a dataset into Initial / Active / Test subsets
//! (paper Section IV): shuffle, reserve `n_test` samples for error
//! estimation, split the rest into `n_init` pre-AL training samples and
//! the Active pool AL selects from one at a time.

use al_linalg::rng::permutation;
use rand::Rng;

/// Index sets into a dataset.
///
/// # Examples
///
/// ```
/// use al_dataset::Partition;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let p = Partition::random(600, 50, 200, &mut rng);
/// assert_eq!((p.init.len(), p.active.len(), p.test.len()), (50, 350, 200));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Samples used for the initial model fit (experimenter-chosen phase).
    pub init: Vec<usize>,
    /// Samples available for one-at-a-time AL selection.
    pub active: Vec<usize>,
    /// Held-out samples used exclusively for RMSE estimation.
    pub test: Vec<usize>,
}

impl Partition {
    /// Randomly partition `n` samples: `n_test` to Test, `n_init` to
    /// Initial, the remainder to Active.
    ///
    /// Panics unless `n_init >= 1` (the models need at least one training
    /// point) and `n_init + n_test < n` (the Active pool must be non-empty).
    pub fn random<R: Rng + ?Sized>(n: usize, n_init: usize, n_test: usize, rng: &mut R) -> Self {
        assert!(n_init >= 1, "need at least one initial sample");
        assert!(
            n_init + n_test < n,
            "n_init ({n_init}) + n_test ({n_test}) must leave room for the Active pool in {n}"
        );
        let perm = permutation(rng, n);
        let test = perm[..n_test].to_vec();
        let init = perm[n_test..n_test + n_init].to_vec();
        let active = perm[n_test + n_init..].to_vec();
        Partition { init, active, test }
    }

    /// Total indexed samples.
    pub fn len(&self) -> usize {
        self.init.len() + self.active.len() + self.test.len()
    }

    /// True when no samples are indexed (never produced by constructors).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    #[test]
    fn partition_is_disjoint_and_complete() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = Partition::random(600, 50, 200, &mut rng);
        assert_eq!(p.init.len(), 50);
        assert_eq!(p.test.len(), 200);
        assert_eq!(p.active.len(), 350);
        assert_eq!(p.len(), 600);
        assert!(!p.is_empty());
        let all: BTreeSet<usize> = p
            .init
            .iter()
            .chain(&p.active)
            .chain(&p.test)
            .copied()
            .collect();
        assert_eq!(all.len(), 600, "indices are disjoint");
        assert_eq!(*all.iter().max().unwrap(), 599);
    }

    #[test]
    fn minimal_init_partition() {
        let mut rng = StdRng::seed_from_u64(6);
        let p = Partition::random(600, 1, 200, &mut rng);
        assert_eq!(p.init.len(), 1);
        assert_eq!(p.active.len(), 399);
    }

    #[test]
    fn different_seeds_give_different_shuffles() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(
            Partition::random(100, 10, 30, &mut a),
            Partition::random(100, 10, 30, &mut b)
        );
    }

    #[test]
    #[should_panic(expected = "at least one initial")]
    fn zero_init_is_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        Partition::random(100, 0, 30, &mut rng);
    }

    #[test]
    #[should_panic(expected = "Active pool")]
    fn oversized_split_is_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        Partition::random(100, 70, 30, &mut rng);
    }
}
