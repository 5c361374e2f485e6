//! The scoped worker pool.
//!
//! **Audit notes.** This module is the workspace's one thread fan-out
//! point: clippy.toml disallows `std::thread::scope`/`spawn`, and the
//! `scope` call below is the only exempted spawn outside tests. Its
//! determinism contract:
//!
//! * [`WorkerPool::map_jobs`] hands out job indices from one atomic
//!   cursor. The cursor decides only *which worker* runs a job; each
//!   job's value depends on its index alone and lands in that index's
//!   slot, so the returned vector is the serial map's.
//! * With one job (or one worker) the map runs inline on the
//!   coordinating thread — byte-for-byte the serial loop.
//!
//! Callers must not introduce cross-job communication (channels, shared
//! accumulators) on top of this primitive; that would reintroduce
//! schedule-dependent reduction order.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Scoped worker pool with a resolved thread count.
///
/// The count is resolved once at construction (`0` = all cores reported by
/// [`std::thread::available_parallelism`]) and only shapes the schedule:
/// [`WorkerPool::map_jobs`] returns bitwise-identical results for any
/// count. The pool holds no threads between calls — workers are scoped
/// borrowing threads spawned per call.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    n_workers: usize,
}

impl WorkerPool {
    /// Build a pool with `n_workers` workers; `0` resolves to all
    /// available cores (falling back to 1 if the platform cannot say).
    pub fn new(n_workers: usize) -> Self {
        let n_workers = if n_workers == 0 {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            n_workers
        };
        WorkerPool { n_workers }
    }

    /// Resolved worker count (never 0).
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Dynamic-schedule map over `0..n_jobs`: returns `[job(0), job(1), …]`.
    ///
    /// Runs `min(n_workers, n_jobs)` workers, the first inline on the
    /// coordinating thread; each takes the next unclaimed index from one
    /// atomic cursor until none is left. Use it for a few expensive jobs of
    /// skewed cost (AL trajectories, AMR simulations), where a static
    /// split would serialize the slow tail behind one worker. The schedule
    /// never reaches the results: every job's value lands in its own
    /// index's slot.
    ///
    /// A panicking job is re-raised on the caller with its original payload
    /// once every worker has stopped.
    pub fn map_jobs<R, F>(&self, n_jobs: usize, job: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let n_workers = self.n_workers.min(n_jobs);
        if n_workers <= 1 {
            return (0..n_jobs).map(job).collect();
        }
        // `Relaxed` suffices: the cursor publishes no data. Each result
        // reaches the coordinator through its worker's `join`, which
        // synchronizes with everything that worker did.
        let cursor = AtomicUsize::new(0);
        let worker = || {
            let mut done = Vec::new();
            loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                if k >= n_jobs {
                    return done;
                }
                done.push((k, job(k)));
            }
        };
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n_jobs);
        slots.resize_with(n_jobs, || None);
        #[expect(
            clippy::disallowed_methods,
            reason = "the workspace's one fan-out point: results land in index slots"
        )]
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..n_workers).map(|_| scope.spawn(worker)).collect();
            let mut batches = vec![worker()];
            for handle in handles {
                match handle.join() {
                    Ok(done) => batches.push(done),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            for (k, value) in batches.into_iter().flatten() {
                slots[k] = Some(value);
            }
        });
        // Every worker returned, and the cursor handed each index to exactly
        // one of them, so every slot is filled.
        debug_assert!(slots.iter().all(Option::is_some));
        slots.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_resolves_zero_to_at_least_one_worker() {
        assert!(WorkerPool::new(0).n_workers() >= 1);
        assert_eq!(WorkerPool::new(3).n_workers(), 3);
    }

    /// A job whose cost grows with `k % 5`, so a static split would leave
    /// workers idle; its value is a function of `k` alone.
    fn uneven_job(k: usize) -> u64 {
        let spins = if cfg!(miri) { 1 } else { 200 } * (k % 5);
        let mut acc = k as u64;
        for i in 0..spins {
            acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(i as u64));
        }
        acc
    }

    #[test]
    fn map_jobs_runs_each_index_once_in_index_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for workers in [1usize, 2, 3, 8] {
            let pool = WorkerPool::new(workers);
            for n_jobs in [0usize, 1, 7, 64] {
                let runs: Vec<AtomicUsize> = (0..n_jobs).map(|_| AtomicUsize::new(0)).collect();
                let out = pool.map_jobs(n_jobs, |k| {
                    runs[k].fetch_add(1, Ordering::Relaxed);
                    (k, uneven_job(k))
                });
                let expected: Vec<(usize, u64)> = (0..n_jobs).map(|k| (k, uneven_job(k))).collect();
                assert_eq!(out, expected, "workers={workers} n_jobs={n_jobs}");
                assert!(
                    runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                    "workers={workers} n_jobs={n_jobs}"
                );
            }
        }
    }

    #[test]
    fn map_jobs_reraises_the_job_panic_payload() {
        #[derive(Debug, PartialEq)]
        struct Boom(usize);
        for workers in [1usize, 3] {
            let pool = WorkerPool::new(workers);
            let caught = std::panic::catch_unwind(|| {
                pool.map_jobs(7, |k| {
                    if k == 5 {
                        std::panic::panic_any(Boom(k));
                    }
                    k
                })
            });
            let payload = caught.expect_err("job 5 panics");
            assert_eq!(
                payload.downcast_ref::<Boom>(),
                Some(&Boom(5)),
                "workers={workers}"
            );
        }
    }
}
