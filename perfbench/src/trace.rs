//! In-memory span recorder for the traced run.
//!
//! Each worker thread owns one [`Tracer`]; a span records its name, start,
//! end, enclosing span and the id of the trajectory, session or
//! simulation it belongs to. Nothing is written while the workload runs:
//! the tracers are merged into a [`Trace`] when it ends, which computes
//! per-layer self time (a span's duration minus the part its children
//! cover) and can dump every span as TSV.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary, e.g. `gp.fit_optimized`.
    pub name: &'static str,
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Trajectory, session or simulation id shared by its spans.
    pub group: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread span and counter recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    group: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            group: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Tag the spans recorded from now on with `group`.
    pub fn set_group(&mut self, group: u64) {
        self.group = group;
    }

    /// Open a span; it encloses every span opened before the matching
    /// [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            group: self.group,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end_ns;
        }
    }

    /// Close every open span (after an error cut a span tree short).
    pub fn close_all(&mut self) {
        while !self.open.is_empty() {
            self.exit();
        }
    }

    /// Time `f` as one leaf span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Add `n` to an exact counter.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }
}

/// Totals for one span name.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    /// Spans recorded.
    pub calls: u64,
    /// Σ duration.
    pub total_ns: u64,
    /// Σ (duration − children's durations).
    pub self_ns: u64,
    /// Every span's duration, in recording order per thread.
    pub durations_ns: Vec<u64>,
}

/// The merged record of a traced run.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<(usize, Span)>,
    counters: BTreeMap<&'static str, u64>,
    layers: BTreeMap<&'static str, Layer>,
}

impl Trace {
    /// Merge the per-thread tracers (thread index = position).
    pub fn merge(tracers: Vec<Tracer>) -> Trace {
        let mut trace = Trace::default();
        for (thread, tracer) in tracers.into_iter().enumerate() {
            let mut child_ns = vec![0u64; tracer.spans.len()];
            for span in &tracer.spans {
                if let Some(p) = span.parent {
                    child_ns[p] += span.duration_ns();
                }
            }
            for (span, children) in tracer.spans.iter().zip(&child_ns) {
                let layer = trace.layers.entry(span.name).or_default();
                let d = span.duration_ns();
                layer.calls += 1;
                layer.total_ns += d;
                layer.self_ns += d.saturating_sub(*children);
                layer.durations_ns.push(d);
            }
            for (name, n) in tracer.counters {
                *trace.counters.entry(name).or_insert(0) += n;
            }
            trace
                .spans
                .extend(tracer.spans.into_iter().map(|s| (thread, s)));
        }
        trace
    }

    /// Totals for `name` (all zero when the layer never ran).
    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).cloned().unwrap_or_default()
    }

    /// An exact counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Spans recorded across all threads.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Σ self time of every span whose name is not `root`.
    pub fn attributed_ns(&self, root: &str) -> u64 {
        self.layers
            .iter()
            .filter(|(name, _)| **name != root)
            .map(|(_, l)| l.self_ns)
            .sum()
    }

    /// Every deterministic count: span counts per layer plus the exact
    /// counters. Two traced runs with the same seed must agree exactly.
    pub fn exact_counts(&self) -> BTreeMap<String, u64> {
        let mut out: BTreeMap<String, u64> = self
            .layers
            .iter()
            .map(|(name, l)| (format!("{name}.calls"), l.calls))
            .collect();
        out.extend(self.counters.iter().map(|(k, v)| (k.to_string(), *v)));
        out
    }

    /// Write every span as `thread group name start_ns end_ns parent`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "thread\tgroup\tname\tstart_ns\tend_ns\tparent")?;
        for (thread, s) in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{thread}\t{}\t{}\t{}\t{}\t{parent}",
                s.group, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Run jobs `0..jobs` on `workers` threads that take the next index from a
/// shared cursor — the scheduling of `run_batch` and `generate_parallel` —
/// each with its own tracer. Returns the results in job order and the
/// tracers.
pub fn fan_out<T: Send>(
    jobs: usize,
    workers: usize,
    origin: Instant,
    work: impl Fn(usize, &mut Tracer) -> T + Sync,
) -> (Vec<T>, Vec<Tracer>) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let cursor = AtomicUsize::new(0);
    let per_worker: Vec<(Vec<(usize, T)>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(jobs))
            .map(|_| {
                scope.spawn(|| {
                    let mut tr = Tracer::new(origin);
                    let mut done = Vec::new();
                    loop {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        if k >= jobs {
                            break;
                        }
                        tr.set_group(k as u64);
                        done.push((k, work(k, &mut tr)));
                    }
                    (done, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced worker panicked"))
            .collect()
    });
    let mut results = Vec::with_capacity(jobs);
    let mut tracers = Vec::with_capacity(per_worker.len());
    for (done, tr) in per_worker {
        results.extend(done);
        tracers.push(tr);
    }
    results.sort_by_key(|(k, _)| *k);
    (results.into_iter().map(|(_, r)| r).collect(), tracers)
}

/// Measured cost of recording one span, in nanoseconds: the basis of the
/// `trace.overhead` estimate.
pub fn span_cost_ns() -> f64 {
    const N: usize = 200_000;
    let origin = Instant::now();
    let mut t = Tracer::new(origin);
    t.spans.reserve(N);
    let started = Instant::now();
    for _ in 0..N {
        t.span("calibrate", || ());
    }
    started.elapsed().as_nanos() as f64 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now());
        t.enter("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        let trace = Trace::merge(vec![t]);
        let outer = trace.layer("outer");
        let inner = trace.layer("inner");
        assert_eq!(outer.calls, 1);
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(trace.layer("missing").calls, 0);
    }
}
