//! Property-based tests for the warm-start hyperparameter LRU
//! (`al_core::HyperparamLru`): arbitrary insert/get/remove sequences are
//! checked against a tiny reference recency model.
//!
//! The properties the serving layer depends on (DESIGN §12):
//! - the cache never exceeds its capacity;
//! - a hit returns the most recently inserted value for that key;
//! - evictions always take the least recently used entry;
//! - iteration order is a pure function of the operation history
//!   (deterministic — the DESIGN §9 contract), equal to recency order.

// Integration tests run outside #[cfg(test)]; tests may panic and
// compare exact floats.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use al_core::{HyperparamLru, WarmHyperparams, WarmKey};
use proptest::prelude::*;
use std::num::NonZeroUsize;

const KEY_UNIVERSE: usize = 6;

fn key(k: usize) -> WarmKey {
    WarmKey::new(format!("grid-{k}"), "RBF")
}

fn value(k: usize, tag: u32) -> WarmHyperparams {
    WarmHyperparams {
        cost: vec![k as f64, f64::from(tag)],
        mem: vec![-(f64::from(tag))],
    }
}

/// A cache of `capacity` entries; the strategies draw `capacity ≥ 1`.
fn new_lru(capacity: usize) -> HyperparamLru {
    HyperparamLru::new(NonZeroUsize::new(capacity).expect("capacity ≥ 1"))
}

/// One cache operation: 0 = insert, 1 = get, 2 = remove.
fn ops() -> impl Strategy<Value = Vec<(u8, usize, u32)>> {
    proptest::collection::vec((0u8..3, 0usize..KEY_UNIVERSE, 0u32..1000), 1..200)
}

/// Apply an op sequence, checking every step against a reference model:
/// `recency` holds the member keys from least to most recently used, and
/// `latest[k]` the last value inserted for key `k`. Returns the final
/// iteration order. (The vendored proptest's `prop_assert*` panic, so no
/// error plumbing is needed.)
fn run_and_check(capacity: usize, ops: &[(u8, usize, u32)]) -> Vec<WarmKey> {
    let mut lru = new_lru(capacity);
    let mut recency: Vec<usize> = Vec::new();
    let mut latest: Vec<Option<WarmHyperparams>> = vec![None; KEY_UNIVERSE];

    for &(op, k, tag) in ops {
        match op {
            0 => {
                let v = value(k, tag);
                latest[k] = Some(v.clone());
                let evicted = lru.insert(key(k), v);
                recency.retain(|&r| r != k);
                recency.push(k);
                let expected_eviction = if recency.len() > capacity {
                    Some(recency.remove(0))
                } else {
                    None
                };
                prop_assert_eq!(
                    evicted.as_ref().map(|(ek, _)| ek.clone()),
                    expected_eviction.map(key),
                    "eviction must take the least recently used entry"
                );
            }
            1 => {
                let hit = lru.get(&key(k)).cloned();
                if recency.contains(&k) {
                    prop_assert_eq!(
                        hit,
                        latest[k].clone(),
                        "hit must return the most recently inserted value"
                    );
                    recency.retain(|&r| r != k);
                    recency.push(k);
                } else {
                    prop_assert_eq!(hit, None);
                }
            }
            _ => {
                let removed = lru.remove(&key(k));
                if recency.contains(&k) {
                    prop_assert_eq!(removed, latest[k].clone());
                    recency.retain(|&r| r != k);
                } else {
                    prop_assert_eq!(removed, None);
                }
            }
        }
        // Step invariants: bounded, and iteration == recency order.
        prop_assert!(lru.len() <= lru.capacity(), "capacity exceeded");
        prop_assert_eq!(lru.len(), recency.len());
        prop_assert_eq!(lru.is_empty(), recency.is_empty());
        let order: Vec<WarmKey> = lru.iter().map(|(k, _)| k.clone()).collect();
        let expected: Vec<WarmKey> = recency.iter().map(|&r| key(r)).collect();
        prop_assert_eq!(order, expected, "iteration must walk recency order");
    }
    lru.iter().map(|(k, _)| k.clone()).collect()
}

proptest! {
    #[test]
    fn lru_matches_reference_recency_model(
        capacity in 1usize..6,
        ops in ops(),
    ) {
        run_and_check(capacity, &ops);
    }

    #[test]
    fn lru_iteration_order_is_deterministic(
        capacity in 1usize..6,
        ops in ops(),
    ) {
        // Replaying the identical history must reproduce the identical
        // final iteration order — no hash state, no ambient entropy.
        let a = run_and_check(capacity, &ops);
        let b = run_and_check(capacity, &ops);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn hit_after_insert_always_returns_that_value(
        capacity in 1usize..6,
        prefix in ops(),
        k in 0usize..KEY_UNIVERSE,
        tag in 0u32..1000,
    ) {
        // Whatever came before, an insert followed immediately by a get
        // of the same key is a hit with exactly the inserted value.
        let mut lru = new_lru(capacity);
        for &(op, pk, ptag) in &prefix {
            match op {
                0 => { lru.insert(key(pk), value(pk, ptag)); }
                1 => { lru.get(&key(pk)); }
                _ => { lru.remove(&key(pk)); }
            }
        }
        lru.insert(key(k), value(k, tag));
        prop_assert_eq!(lru.get(&key(k)), Some(&value(k, tag)));
    }
}
