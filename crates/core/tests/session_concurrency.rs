//! Concurrency smoke test for the `SessionStore`: N threads hammer
//! distinct session ids spread across shards; every session's final
//! trajectory must equal the single-threaded reference run bit for bit.
//!
//! Per-session determinism is the session core's purity contract; this
//! suite checks the sharded store adds no cross-talk — per-shard locking
//! serializes each session's steps, and sessions never share state
//! (the warm cache is deliberately unused here: warm starts couple
//! sessions by design, so they are exercised in the store's unit tests
//! instead).
//!
//! Set `AL_TEST_THREADS` to add a thread count to the sweep (CI runs the
//! suite twice, with `AL_TEST_THREADS=1` and unset = the default sweep),
//! mirroring the `AMR_TEST_THREADS` pattern of
//! `crates/amr/tests/parallel_sweeps.rs`.

// Integration tests run outside #[cfg(test)]; tests may panic and compare
// exact copied floats.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use al_amr_sim::SimulationConfig;
use al_core::{
    AlOptions, Decision, Observation, SessionConfig, SessionStore, StrategyKind, Trajectory,
};
use al_dataset::{Dataset, Partition, Sample};
use al_gp::FitOptions;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Deterministic synthetic dataset (twin of `procedure::test_util`).
fn synth_dataset(n: usize) -> Dataset {
    let ps = [4u32, 8, 16, 32];
    let mxs = [8usize, 16, 24, 32];
    let mls = [3u8, 4, 5, 6];
    let samples: Vec<Sample> = (0..n)
        .map(|i| {
            let config = SimulationConfig {
                p: ps[i % 4],
                mx: mxs[(i / 4) % 4],
                maxlevel: mls[(i / 16) % 4],
                r0: 0.2 + 0.3 * ((i % 7) as f64 / 6.0),
                rhoin: 0.02 + 0.48 * ((i % 5) as f64 / 4.0),
            };
            let work = 4f64.powi(config.maxlevel as i32 - 3)
                * (config.mx as f64 / 8.0).powi(2)
                * (1.0 + config.r0);
            let cost = 0.01 * work * (1.0 + 0.02 * config.p as f64);
            let memory = 0.05 * work * 8.0 / config.p as f64 + 0.01;
            Sample {
                config,
                wall_seconds: al_units::Seconds::new(cost * 3600.0 / config.p as f64),
                cost_node_hours: al_units::NodeHours::new(cost),
                memory_mb: al_units::Megabytes::new(memory),
            }
        })
        .collect();
    Dataset::new(samples)
}

/// Extra thread count from the environment (`AL_TEST_THREADS`); CI
/// exercises 1 and unset.
fn env_threads() -> Option<usize> {
    std::env::var("AL_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
}

/// Thread counts under test: {1, 2, 4} plus the environment's.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, 4];
    if let Some(t) = env_threads().filter(|&t| t >= 1) {
        counts.push(t);
    }
    counts.sort_unstable();
    counts.dedup();
    counts
}

const N_SESSIONS: u64 = 8;
const N_SHARDS: usize = 3; // coprime with N_SESSIONS: shards get uneven load

fn session_config(dataset: &Dataset, id: u64) -> SessionConfig {
    let mut rng = StdRng::seed_from_u64(100 + id);
    let p = Partition::random(dataset.len(), 3, 12, &mut rng);
    let kind = if id.is_multiple_of(2) {
        StrategyKind::RandGoodness { base: 10.0 }
    } else {
        StrategyKind::Rgma { base: 10.0 }
    };
    let opts = AlOptions {
        initial_fit: FitOptions {
            n_restarts: 0,
            max_iters: 15,
            ..FitOptions::default()
        },
        refit: FitOptions {
            n_restarts: 0,
            max_iters: 5,
            ..FitOptions::default()
        },
        max_iterations: Some(6),
        mem_limit_log: Some(dataset.memory_limit_log(0.7)),
        seed: 1000 + id,
        ..AlOptions::default()
    };
    SessionConfig::from_partition(dataset, &p, kind, &opts)
}

/// Drive every session to completion through a store, with `n_threads`
/// workers stealing one *step* at a time — many threads hit the same
/// store concurrently, and session ids map onto shards unevenly.
fn run_store(dataset: &Dataset, n_threads: usize) -> Vec<Trajectory> {
    let store = SessionStore::new(N_SHARDS);
    for id in 0..N_SESSIONS {
        store.create(id, session_config(dataset, id), None).unwrap();
    }

    // Work-stealing over session ids: each claim advances one session by
    // one observation, so steps of different sessions interleave freely
    // across threads (within a session, the store serializes). A session's
    // claim slot is 0 = free, 1 = claimed, 2 = stopped.
    let claims: Vec<AtomicUsize> = (0..N_SESSIONS).map(|_| AtomicUsize::new(0)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..n_threads {
            let store = &store;
            let claims = &claims;
            let cursor = &cursor;
            scope.spawn(move || loop {
                if claims.iter().all(|c| c.load(Ordering::Acquire) == 2) {
                    break;
                }
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                let id = (k as u64) % N_SESSIONS;
                // One thread at a time may own a session's outstanding
                // query; the claim flag arbitrates.
                if claims[id as usize]
                    .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_err()
                {
                    continue;
                }
                match store.decision(id).unwrap().query() {
                    Some(q) => {
                        let obs = Observation::from_dataset(dataset, q.dataset_index);
                        store.observe(id, &obs).unwrap();
                        claims[id as usize].store(0, Ordering::Release);
                    }
                    None => {
                        claims[id as usize].store(2, Ordering::Release);
                    }
                }
            });
        }
    });

    (0..N_SESSIONS)
        .map(|id| store.finish(id).unwrap())
        .collect()
}

/// Single-threaded reference: each session driven straight through the
/// store, one after another.
fn run_reference(dataset: &Dataset) -> Vec<Trajectory> {
    let store = SessionStore::new(N_SHARDS);
    (0..N_SESSIONS)
        .map(|id| {
            let mut decision = store.create(id, session_config(dataset, id), None).unwrap();
            while let Decision::Query(q) = decision {
                let obs = Observation::from_dataset(dataset, q.dataset_index);
                decision = store.observe(id, &obs).unwrap();
            }
            store.finish(id).unwrap()
        })
        .collect()
}

#[test]
fn hammered_store_reproduces_single_threaded_trajectories() {
    let dataset = synth_dataset(36);
    let reference = run_reference(&dataset);
    assert_eq!(reference.len(), N_SESSIONS as usize);
    for t in &reference {
        assert!(!t.records.is_empty());
    }
    for n_threads in thread_counts() {
        let got = run_store(&dataset, n_threads);
        assert_eq!(
            got, reference,
            "trajectories diverged with {n_threads} threads"
        );
    }
}
