//! The per-layer metrics of a traced run, all named by module.
//!
//! Every workload reports the full list; a layer the workload does not
//! load reads 0, which is itself the "predicted no change" check of
//! README.md's map.

use crate::common::{median_ms, ms, Metric};
use crate::trace::{span_cost_ns, Trace};

/// What a traced run hands over besides its spans.
pub struct TracedRun<'a> {
    /// The merged spans and counters.
    pub trace: &'a Trace,
    /// Wall time of the traced phase.
    pub wall_ns: u64,
    /// Worker or client threads that ran it.
    pub workers: usize,
    /// Name of the per-job root span (its self time is the benchmark's own).
    pub root: &'static str,
    /// Σ time of the replayed session steps that shadow each store
    /// `observe` (serve_sessions only).
    pub replay_ns: Option<u64>,
}

/// Where the time `trace.coverage` leaves unattributed went: the benchmark's
/// own work inside each job or session (`root_self`) and the worker time
/// outside any job or session (`outside_jobs`: idle tails, thread start).
pub fn coverage_gap(run: &TracedRun<'_>) -> al_bench::json::Json {
    use al_bench::json::Json;
    let capacity_ns = (run.wall_ns as f64 * run.workers as f64).max(1.0);
    let root = run.trace.layer(run.root);
    Json::Obj(
        [
            ("root_self", root.self_ns as f64 / capacity_ns),
            ("outside_jobs", 1.0 - root.total_ns as f64 / capacity_ns),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), Json::Num(v)))
        .collect(),
    )
}

/// Every per-layer metric of `BENCHMARK.json` except `bench.ref_kernel_ms`,
/// which the caller measures after the workload.
pub fn per_layer(run: &TracedRun<'_>) -> Vec<Metric> {
    let t = run.trace;
    let capacity_ns = run.wall_ns as f64 * run.workers as f64;
    let share = |ns: u64| {
        if capacity_ns > 0.0 {
            ns as f64 / capacity_ns
        } else {
            0.0
        }
    };
    let calls = |name: &str| t.layer(name).calls as f64;
    let self_ms = |name: &str| ms(t.layer(name).self_ns);
    let counter = |name: &str| t.counter(name) as f64;

    let pool = t.layer("gp.predict_pool");
    let pool_rows = t.counter("gp.predict_pool.rows");
    let warm = t.layer("core.store.create_warm");
    let cold = t.layer("core.store.create_cold");
    let observe = t.layer("core.store.observe");
    let creates = warm.calls + cold.calls;
    let steps = t.layer("amr.step");
    let step_us: Vec<f64> = steps.durations_ns.iter().map(|&d| d as f64 / 1e3).collect();
    let step_self_s = steps.self_ns as f64 / 1e9;
    let overhead_ns = t.span_count() as f64 * span_cost_ns() / run.workers as f64;
    // Time inside the program's own loop: every attributed span except the
    // store calls, which in serve_sessions repeat the replica's work.
    let store_ns: u64 = ["create_warm", "create_cold", "observe", "finish"]
        .iter()
        .map(|s| t.layer(&format!("core.store.{s}")).total_ns)
        .sum();
    let loop_ns = t.attributed_ns(run.root).saturating_sub(store_ns);

    vec![
        Metric::new("gp.fit_optimized.calls", calls("gp.fit_optimized"), "count"),
        Metric::new(
            "gp.fit_optimized.self_ms",
            self_ms("gp.fit_optimized"),
            "ms",
        ),
        Metric::new(
            "gp.fit_optimized.share",
            if loop_ns > 0 {
                t.layer("gp.fit_optimized").self_ns as f64 / loop_ns as f64
            } else {
                0.0
            },
            "ratio",
        ),
        Metric::new("gp.fit.calls", calls("gp.fit"), "count"),
        Metric::new("gp.fit.self_ms", self_ms("gp.fit"), "ms"),
        Metric::new("gp.augment.calls", calls("gp.augment"), "count"),
        Metric::new("gp.augment.self_ms", self_ms("gp.augment"), "ms"),
        Metric::new("gp.predict_pool.rows", pool_rows as f64, "count"),
        Metric::new("gp.predict_pool.self_ms", ms(pool.self_ns), "ms"),
        Metric::new(
            "gp.predict_pool.ns_per_row",
            if pool_rows > 0 {
                pool.self_ns as f64 / pool_rows as f64
            } else {
                0.0
            },
            "ns",
        ),
        Metric::new("gp.predict_eval.self_ms", self_ms("gp.predict_eval"), "ms"),
        Metric::new(
            "linalg.factor_flops",
            counter("linalg.factor_flops"),
            "flop",
        ),
        Metric::new(
            "linalg.extend_flops",
            counter("linalg.extend_flops"),
            "flop",
        ),
        Metric::new("linalg.solve_flops", counter("linalg.solve_flops"), "flop"),
        Metric::new(
            "core.strategy.select.self_ms",
            self_ms("core.strategy.select"),
            "ms",
        ),
        Metric::new(
            "core.session.self_ms",
            self_ms(crate::replica::SESSION),
            "ms",
        ),
        Metric::new(
            "core.batch.busy_ratio",
            share(t.layer("core.batch.job").total_ns),
            "ratio",
        ),
        Metric::new(
            "core.batch.job_p50_ms",
            median_ms(&t.layer("core.batch.job").durations_ns),
            "ms",
        ),
        Metric::new(
            "core.store.create_warm_ms",
            median_ms(&warm.durations_ns),
            "ms",
        ),
        Metric::new(
            "core.store.create_cold_ms",
            median_ms(&cold.durations_ns),
            "ms",
        ),
        Metric::new(
            "core.store.warm_hit_ratio",
            if creates > 0 {
                warm.calls as f64 / creates as f64
            } else {
                0.0
            },
            "ratio",
        ),
        Metric::new(
            "core.store.observe_overhead_us",
            match run.replay_ns {
                Some(replay) if observe.calls > 0 => {
                    (observe.total_ns as f64 - replay as f64) / observe.calls as f64 / 1e3
                }
                _ => 0.0,
            },
            "us",
        ),
        Metric::new(
            "core.store.finish.self_ms",
            self_ms("core.store.finish"),
            "ms",
        ),
        Metric::new(
            "core.store.rejected.gp",
            counter("core.store.rejected.gp"),
            "count",
        ),
        Metric::new(
            "core.store.rejected.unknown",
            counter("core.store.rejected.unknown"),
            "count",
        ),
        Metric::new(
            "core.store.rejected.duplicate",
            counter("core.store.rejected.duplicate"),
            "count",
        ),
        Metric::new(
            "core.store.rejected.mismatch",
            counter("core.store.rejected.mismatch"),
            "count",
        ),
        Metric::new("amr.init.self_ms", self_ms("amr.init"), "ms"),
        Metric::new("amr.step.calls", steps.calls as f64, "count"),
        Metric::new(
            "amr.step.p50_us",
            if step_us.is_empty() {
                0.0
            } else {
                al_linalg::stats::median(&step_us)
            },
            "us",
        ),
        Metric::new("amr.cell_updates", counter("amr.cell_updates"), "count"),
        Metric::new("amr.ghost_cells", counter("amr.ghost_cells"), "count"),
        Metric::new("amr.level_steps", counter("amr.level_steps"), "count"),
        Metric::new("amr.regrid_count", counter("amr.regrid_count"), "count"),
        Metric::new(
            "amr.cell_updates_per_s",
            if step_self_s > 0.0 {
                counter("amr.cell_updates") / step_self_s
            } else {
                0.0
            },
            "1/s",
        ),
        Metric::new(
            "amr.sim.p50_ms",
            median_ms(&t.layer("amr.sim").durations_ns),
            "ms",
        ),
        Metric::new(
            "dataset.generate.busy_ratio",
            share(t.layer("amr.sim").total_ns),
            "ratio",
        ),
        Metric::new("trace.coverage", share(t.attributed_ns(run.root)), "ratio"),
        Metric::new(
            "trace.overhead",
            if run.wall_ns > 0 {
                1.0 - overhead_ns / run.wall_ns as f64
            } else {
                0.0
            },
            "ratio",
        ),
    ]
}
