//! The scoped worker pool and its index partitioners.
//!
//! **Audit notes (alint L6 `spawn_approved`).** This module is the
//! workspace's shared thread fan-out point. Its determinism contract:
//!
//! * Jobs receive **disjoint** `&mut` chunks of caller-owned buffers
//!   (enforced by `split_at_mut` — the borrow checker proves disjointness),
//!   so no write is ever racy and no result depends on which worker ran a
//!   chunk or when it finished.
//! * Per-chunk return values land in index-addressed slots and are handed
//!   back **in chunk order**; callers fold them in that order (ordered
//!   reduction). Thread scheduling cannot reach the numbers.
//! * With one chunk (or one worker) the job runs inline on the
//!   coordinating thread — byte-for-byte the serial loop.
//! * [`WorkerPool::map_jobs`] hands out job indices from one atomic
//!   cursor. The cursor decides only *which worker* runs a job; each
//!   job's value depends on its index alone and lands in that index's
//!   slot, so the returned vector is the serial map's.
//!
//! Callers must not introduce cross-chunk communication (channels, shared
//! accumulators) on top of these primitives; that would reintroduce
//! schedule-dependent reduction order.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Partition `0..n_items` into at most `max_chunks` contiguous, non-empty,
/// ascending ranges of at least `min_per_chunk` items each (except when
/// fewer than `min_per_chunk` items exist in total, which yields one
/// undersized chunk). Every index is covered exactly once; `n_items == 0`
/// yields no chunks. Degenerate inputs (`max_chunks == 0`,
/// `min_per_chunk == 0`, more chunks than items) are clamped rather than
/// rejected, since callers feed it raw thread counts and problem sizes.
pub fn chunk_ranges(n_items: usize, max_chunks: usize, min_per_chunk: usize) -> Vec<Range<usize>> {
    if n_items == 0 {
        return Vec::new();
    }
    let min_per_chunk = min_per_chunk.max(1);
    // Floor division so `chunks · min_per_chunk ≤ n_items`: every chunk of
    // the near-even split below then holds at least `min_per_chunk` items.
    let chunks = max_chunks.clamp(1, (n_items / min_per_chunk).max(1));
    let base = n_items / chunks;
    let extra = n_items % chunks;
    let mut ranges = Vec::with_capacity(chunks);
    let mut start = 0;
    for c in 0..chunks {
        let len = base + usize::from(c < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Like [`chunk_ranges`], but balances *weight* instead of item count:
/// chunk boundaries are placed where the cumulative `weight(i)` crosses
/// even fractions of the total, subject to the same `min_per_chunk` floor.
/// Triangular workloads (row `i` of a symmetric kernel matrix costs
/// `n − i` evaluations) would otherwise hand the first worker ~2× the work
/// of the last. The weights shape the schedule only, never the results.
pub fn chunk_ranges_weighted(
    n_items: usize,
    max_chunks: usize,
    min_per_chunk: usize,
    weight: impl Fn(usize) -> u64,
) -> Vec<Range<usize>> {
    if n_items == 0 {
        return Vec::new();
    }
    let min_per_chunk = min_per_chunk.max(1);
    let chunks = max_chunks.clamp(1, (n_items / min_per_chunk).max(1));
    if chunks == 1 {
        // One chunk covering every item — a range is the value, not a
        // collect shorthand.
        #[allow(clippy::single_range_in_vec_init)]
        return vec![0..n_items];
    }
    let total: u128 = (0..n_items).map(|i| u128::from(weight(i))).sum();
    let mut ranges = Vec::with_capacity(chunks);
    let mut start = 0usize;
    let mut acc: u128 = 0;
    for i in 0..n_items {
        acc += u128::from(weight(i));
        let produced = ranges.len() as u128;
        // Items that must stay available for the chunks after this one.
        let reserve = (chunks - ranges.len() - 1) * min_per_chunk;
        let len = i + 1 - start;
        let target = total * (produced + 1) / chunks as u128;
        let remaining = n_items - (i + 1);
        if len >= min_per_chunk && remaining >= reserve && (acc >= target || remaining == reserve) {
            ranges.push(start..i + 1);
            start = i + 1;
            if ranges.len() == chunks - 1 {
                break;
            }
        }
    }
    ranges.push(start..n_items);
    ranges
}

/// Scoped worker pool with a resolved thread count.
///
/// The count is resolved once at construction (`0` = all cores reported by
/// [`std::thread::available_parallelism`], the `SolverProfile::n_threads`
/// convention) and only shapes schedules: every primitive below produces
/// bitwise-identical results for any count. The pool holds no threads
/// between calls — workers are scoped borrowing threads spawned per call,
/// so a pool is `Copy`-cheap to clone and store inside models.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    n_workers: usize,
}

impl WorkerPool {
    /// Build a pool with `n_threads` workers; `0` resolves to all
    /// available cores (falling back to 1 if the platform cannot say).
    pub fn new(n_threads: usize) -> Self {
        let n_workers = if n_threads == 0 {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            n_threads
        };
        WorkerPool { n_workers }
    }

    /// Resolved worker count (never 0).
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Run a vector of independent jobs to completion: job 0 inline on the
    /// coordinating thread (one fewer spawn — a 2-job call costs a single
    /// thread launch), the rest on scoped threads. Returns after every job
    /// finished. With 0 or 1 jobs nothing is spawned at all.
    ///
    /// Jobs must write only state they own or mutably borrow (disjoint
    /// `split_at_mut` chunks); the caller folds any cross-job results in
    /// input order after this returns.
    pub fn run<J>(&self, jobs: Vec<J>)
    where
        J: FnOnce() + Send,
    {
        let mut jobs = jobs.into_iter();
        let Some(first) = jobs.next() else {
            return;
        };
        let rest: Vec<J> = jobs.collect();
        if rest.is_empty() {
            first();
            return;
        }
        std::thread::scope(|scope| {
            for job in rest {
                scope.spawn(job);
            }
            first();
        });
    }

    /// Dynamic-schedule map over `0..n_jobs`: returns `[job(0), job(1), …]`.
    ///
    /// Runs `min(n_workers, n_jobs)` workers, the first inline on the
    /// coordinating thread; each takes the next unclaimed index from one
    /// atomic cursor until none is left. Use it for a few expensive jobs of
    /// skewed cost (AL trajectories, AMR simulations), where a static
    /// [`chunked_map`](Self::chunked_map) split would serialize the slow
    /// tail behind one worker. The schedule never reaches the results:
    /// every job's value lands in its own index's slot.
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

    /// Index-addressed parallel map over a sliced output buffer.
    ///
    /// `out` is split at the `ranges` boundaries scaled by `stride` (index
    /// `i` owns `out[i*stride .. (i+1)*stride]`); each chunk runs
    /// `work(range, chunk)` on one worker, with the first chunk on the
    /// coordinating thread. The per-chunk return values come back in chunk
    /// order, so folding them left-to-right is an ordered reduction.
    ///
    /// `ranges` must be the ascending, contiguous cover of
    /// `0..out.len()/stride` that [`chunk_ranges`] or
    /// [`chunk_ranges_weighted`] produce (debug-asserted). A single range
    /// runs inline — byte-for-byte the serial loop.
    pub fn chunked_map<T, R, F>(
        &self,
        out: &mut [T],
        ranges: &[Range<usize>],
        stride: usize,
        work: F,
    ) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(Range<usize>, &mut [T]) -> R + Sync,
    {
        debug_assert!(stride > 0, "stride must be positive");
        debug_assert!(
            ranges
                .iter()
                .try_fold(0usize, |next, r| (r.start == next).then_some(r.end))
                == Some(out.len() / stride.max(1)),
            "ranges must contiguously cover the output buffer"
        );
        let mut results: Vec<Option<R>> = Vec::with_capacity(ranges.len());
        results.resize_with(ranges.len(), || None);
        if ranges.len() <= 1 {
            if let (Some(range), Some(slot)) = (ranges.first(), results.first_mut()) {
                *slot = Some(work(range.clone(), out));
            }
        } else {
            std::thread::scope(|scope| {
                let mut out_tail = out;
                let mut slot_tail: &mut [Option<R>] = &mut results;
                let mut coordinator = None;
                for (c, range) in ranges.iter().enumerate() {
                    let (chunk, rest) =
                        std::mem::take(&mut out_tail).split_at_mut(range.len() * stride);
                    out_tail = rest;
                    let (slot, rest) = std::mem::take(&mut slot_tail).split_at_mut(1);
                    slot_tail = rest;
                    if c == 0 {
                        coordinator = Some((range, chunk, slot));
                    } else {
                        let work = &work;
                        scope.spawn(move || {
                            slot[0] = Some(work(range.clone(), chunk));
                        });
                    }
                }
                if let Some((range, chunk, slot)) = coordinator {
                    slot[0] = Some(work(range.clone(), chunk));
                }
            });
        }
        results.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_split_evenly() {
        assert_eq!(chunk_ranges(10, 2, 1), vec![0..5, 5..10]);
        assert_eq!(chunk_ranges(7, 3, 1), vec![0..3, 3..5, 5..7]);
        assert_eq!(chunk_ranges(0, 4, 1), Vec::<Range<usize>>::new());
        // More workers than items: one chunk per item at most.
        assert_eq!(chunk_ranges(2, 8, 1), vec![0..1, 1..2]);
    }

    #[test]
    fn chunk_ranges_honour_min_per_chunk() {
        // 10 items, min 4: only 2 chunks fit a 4-item floor.
        let ranges = chunk_ranges(10, 8, 4);
        assert_eq!(ranges, vec![0..5, 5..10]);
        // Fewer items than the minimum: one undersized chunk.
        assert_eq!(chunk_ranges(3, 8, 4), vec![0..3]);
        // Degenerate hints are clamped, not rejected.
        assert_eq!(chunk_ranges(5, 0, 0), vec![0..5]);
    }

    #[test]
    fn weighted_ranges_cover_exactly_and_balance_weight() {
        // Triangular weights n − i: the first chunk should hold fewer items
        // than the last because its items are heavier.
        let n = 100;
        let w = |i: usize| (n - i) as u64;
        let ranges = chunk_ranges_weighted(n, 4, 1, w);
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges.last().map(|r| r.end), Some(n));
        for pair in ranges.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        assert!(
            ranges[0].len() < ranges[3].len(),
            "heavy prefix must get fewer items: {ranges:?}"
        );
        // Per-chunk weight is within 2× of the ideal quarter share.
        let total: u64 = (0..n).map(w).sum();
        for r in &ranges {
            let cw: u64 = r.clone().map(w).sum();
            assert!(cw <= total / 2, "chunk {r:?} holds {cw} of {total}");
        }
    }

    #[test]
    fn weighted_ranges_respect_min_and_degenerate_inputs() {
        assert_eq!(
            chunk_ranges_weighted(0, 4, 1, |_| 1),
            Vec::<Range<usize>>::new()
        );
        assert_eq!(chunk_ranges_weighted(3, 8, 4, |_| 1), vec![0..3]);
        assert_eq!(chunk_ranges_weighted(5, 0, 0, |_| 1), vec![0..5]);
        // All-zero weights degrade to min-size chunks, still covering.
        let ranges = chunk_ranges_weighted(8, 4, 2, |_| 0);
        assert_eq!(ranges.first().map(|r| r.start), Some(0));
        assert_eq!(ranges.last().map(|r| r.end), Some(8));
        for r in &ranges {
            assert!(r.len() >= 2);
        }
    }

    #[test]
    fn pool_resolves_zero_to_at_least_one_worker() {
        assert!(WorkerPool::new(0).n_workers() >= 1);
        assert_eq!(WorkerPool::new(3).n_workers(), 3);
    }

    #[test]
    fn run_executes_every_job_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..7)
            .map(|_| {
                let counter = &counter;
                move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                }
            })
            .collect();
        pool.run(jobs);
        assert_eq!(counter.load(Ordering::Relaxed), 7);
        // Empty and single-job calls take the inline path.
        pool.run(Vec::<fn()>::new());
        let one = AtomicUsize::new(0);
        pool.run(vec![|| {
            one.fetch_add(1, Ordering::Relaxed);
        }]);
        assert_eq!(one.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn chunked_map_is_bitwise_identical_across_worker_counts() {
        // A float workload whose per-slot value depends only on the index:
        // every worker count must produce the same bits.
        let n = 103;
        let body = |range: Range<usize>, chunk: &mut [f64]| -> f64 {
            let mut local = 0.0f64;
            for (offset, slot) in chunk.iter_mut().enumerate() {
                let i = range.start + offset;
                *slot = (i as f64 * 0.37).sin() / (1.0 + i as f64);
                local += *slot;
            }
            local
        };
        let reference = {
            let pool = WorkerPool::new(1);
            let mut out = vec![0.0f64; n];
            let ranges = chunk_ranges(n, pool.n_workers(), 1);
            pool.chunked_map(&mut out, &ranges, 1, body);
            out
        };
        for workers in [2usize, 3, 8] {
            let pool = WorkerPool::new(workers);
            let mut out = vec![0.0f64; n];
            let ranges = chunk_ranges(n, pool.n_workers(), 1);
            // Per-chunk partials come back in chunk order; the slot contents
            // (the contract) must match the serial run bit for bit.
            let partials = pool.chunked_map(&mut out, &ranges, 1, body);
            assert_eq!(partials.len(), ranges.len());
            for (a, b) in out.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn chunked_map_strided_rows_stay_disjoint() {
        let rows = 9;
        let stride = 4;
        let pool = WorkerPool::new(3);
        let mut out = vec![0u32; rows * stride];
        let ranges = chunk_ranges(rows, pool.n_workers(), 1);
        let statuses: Vec<Range<usize>> =
            pool.chunked_map(&mut out, &ranges, stride, |range, chunk| {
                for (offset, v) in chunk.iter_mut().enumerate() {
                    let row = range.start + offset / stride;
                    *v = row as u32;
                }
                range
            });
        assert_eq!(statuses, ranges, "returns come back in chunk order");
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i / stride) as u32);
        }
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

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // one chunk covering 0..5 is the point
    fn chunked_map_handles_empty_and_single_range() {
        let pool = WorkerPool::new(4);
        let mut empty: Vec<f64> = Vec::new();
        let none: Vec<()> = pool.chunked_map(&mut empty, &[], 1, |_, _| ());
        assert!(none.is_empty());
        let mut out = vec![0u32; 5];
        let one = pool.chunked_map(&mut out, &[0..5], 1, |range, chunk| {
            for v in chunk.iter_mut() {
                *v = 1;
            }
            range.len()
        });
        assert_eq!(one, vec![5]);
        assert!(out.iter().all(|v| *v == 1));
    }
}
