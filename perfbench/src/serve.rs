//! `serve_sessions`: a closed loop of two clients over one `SessionStore`.
//!
//! Each client repeats create → observe-until-stop → finish on its own
//! session ids, over a store with 4 shards. A session has a paper-scale
//! pool (380 candidates), `n_init = 20`, 40 iterations, incremental
//! updates and no test split (a serving deployment has none); its
//! strategy cycles through the five. Models stay small (n ≤ 60, the
//! naive-Cholesky dispatch), so augments and pool predicts set the
//! median latency and the optimize steps the tail, while create and
//! finish write the shard maps and the warm-start LRU.
//!
//! Work comes in rounds of five sessions. A round's warm key is new and
//! belongs to one client: its first create misses (a cold start), the
//! next four hit the hyperparameters the previous finish published. Which
//! creates hit never depends on how the two clients interleave, so every
//! round's trajectories are reproducible and checked against
//! `reference.txt`.

use crate::common::{self, Metric, Outcome};
use crate::digest::{self, Digest};
use crate::layers::{self, TracedRun};
use crate::replica::TracedSession;
use crate::trace::{Trace, Tracer};
use al_bench::json::Json;
use al_core::session::WarmHyperparams;
use al_core::{
    AlOptions, Decision, Observation, SessionConfig, SessionError, SessionStore, StrategyKind,
    WarmKey,
};
use al_dataset::{Dataset, Partition};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "serve_sessions";

/// Input classes; client `c`'s round `r` of a run with seed `s` uses
/// class `(s + 2r + c) mod CLASSES`.
pub const CLASSES: u64 = 16;

/// Client threads.
const CLIENTS: usize = 2;
/// Store shards.
const SHARDS: usize = 4;
/// Sessions per round (one warm key per round).
const SESSIONS_PER_ROUND: usize = 5;
/// Initial-partition size.
const N_INIT: usize = 20;
/// Held-out rows left out of the pool (never used as a test split).
const N_TEST: usize = 200;
/// AL iterations per session.
const ITERATIONS: usize = 40;
/// Rounds per client in the traced run.
pub const TRACED_ROUNDS: usize = 12;

/// Everything set-up builds: the dataset, every class's session configs,
/// and the pre-seeded store the run uses.
pub struct Inputs {
    dataset: Dataset,
    configs: Vec<Vec<SessionConfig>>,
    store: SessionStore,
}

/// Load the dataset, build every class's partitions and configs, and
/// pre-seed the store. A run uses the store, so each run needs its own
/// set-up.
pub fn setup(data: &Path) -> Result<Inputs, String> {
    let dataset = common::load_dataset(data)?;
    let base = AlOptions {
        mem_limit_log: Some(dataset.memory_limit_log_percentile(0.90)),
        max_iterations: Some(ITERATIONS),
        incremental: true,
        ..AlOptions::default()
    };
    let kinds = StrategyKind::paper_five();
    let configs = (0..CLASSES)
        .map(|class| {
            (0..SESSIONS_PER_ROUND)
                .map(|j| {
                    let seed = 10_000 + class * SESSIONS_PER_ROUND as u64 + j as u64;
                    let mut rng = StdRng::seed_from_u64(seed);
                    let partition = Partition::random(dataset.len(), N_INIT, N_TEST, &mut rng);
                    let opts = AlOptions {
                        seed,
                        ..base.clone()
                    };
                    let mut config = SessionConfig::from_partition(
                        &dataset,
                        &partition,
                        kinds[j % kinds.len()],
                        &opts,
                    );
                    config.eval = None;
                    config
                })
                .collect()
        })
        .collect();
    let inputs = Inputs {
        dataset,
        configs,
        store: SessionStore::new(SHARDS),
    };
    preseed(&inputs).map_err(|e| format!("pre-seeding the store failed: {e}"))?;
    Ok(inputs)
}

/// Run one session to completion under a key no round uses, so the
/// timed phase starts on a store whose shards, warm cache and GP paths
/// have been through a full create → observe → finish.
fn preseed(inputs: &Inputs) -> Result<(), SessionError> {
    let store = &inputs.store;
    let id = u64::MAX;
    let key = WarmKey::new("preseed", "RBF");
    let mut decision = store.create(id, inputs.configs[0][0].clone(), Some(key))?;
    while let Decision::Query(q) = decision {
        decision = store.observe(
            id,
            &Observation::from_dataset(&inputs.dataset, q.dataset_index),
        )?;
    }
    store.finish(id).map(|_| ())
}

/// Decisions per throughput checkpoint.
const CHECKPOINT: u64 = 100;

/// What one client saw. Latencies are kept as `u32` nanoseconds and
/// completions only as checkpoints, so the benchmark's own bookkeeping
/// adds little to `peak_rss_mb` however many decisions a run completes.
#[derive(Debug, Default)]
struct ClientStats {
    decisions: u64,
    /// Completion time of every [`CHECKPOINT`]-th decision.
    checkpoints: Vec<Instant>,
    create_ns: Vec<u32>,
    observe_ns: Vec<u32>,
    warm_hits: u64,
    rejected: BTreeMap<&'static str, u64>,
    mismatches: usize,
    replay_ns: u64,
}

fn error_kind(e: &SessionError) -> &'static str {
    match e {
        SessionError::Gp(_) => "core.store.rejected.gp",
        SessionError::UnknownSession(_) => "core.store.rejected.unknown",
        SessionError::DuplicateSession(_) => "core.store.rejected.duplicate",
        SessionError::ObservationMismatch { .. } => "core.store.rejected.mismatch",
    }
}

/// Shadow state of the traced run: the tracer, the session replica
/// driven in lockstep with the store, and the warm values the replica's
/// own finishes published.
struct Shadow<'a> {
    tr: &'a mut Tracer,
    warm: BTreeMap<String, WarmHyperparams>,
}

fn nanos(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

impl ClientStats {
    /// Record a decision returned by a store call that began at `t0`.
    fn decision(&mut self, t0: Instant, latencies: fn(&mut Self) -> &mut Vec<u32>) {
        let now = Instant::now();
        latencies(self).push(u32::try_from((now - t0).as_nanos()).unwrap_or(u32::MAX));
        self.decisions += 1;
        if self.decisions.is_multiple_of(CHECKPOINT) {
            self.checkpoints.push(now);
        }
    }
}

/// One round of sessions for one client under the round's own warm
/// `key`. Returns the round digest, or `None` when a call failed (counted
/// in `stats`).
fn run_round(
    inputs: &Inputs,
    store: &SessionStore,
    key: &WarmKey,
    class: u64,
    next_id: &mut u64,
    stats: &mut ClientStats,
    mut shadow: Option<&mut Shadow<'_>>,
) -> Option<u64> {
    let mut round_digest = Digest::default();
    for (j, config) in inputs.configs[class as usize].iter().enumerate() {
        let id = *next_id;
        *next_id += CLIENTS as u64;
        let hit = store.warm_keys().contains(key);
        if hit != (j > 0) {
            stats.mismatches += 1;
        }
        stats.warm_hits += u64::from(hit);
        let traj = match session(
            inputs,
            store,
            id,
            config,
            key,
            hit,
            stats,
            shadow.as_deref_mut(),
        ) {
            Ok(t) => t,
            Err(e) => {
                let kind = error_kind(&e);
                *stats.rejected.entry(kind).or_insert(0) += 1;
                if let Some(s) = shadow.as_deref_mut() {
                    s.tr.count(kind, 1);
                    s.tr.close_all();
                }
                return None;
            }
        };
        round_digest.word(digest::of_trajectory(&traj));
    }
    Some(round_digest.value())
}

/// create → observe until stop → finish, timing each store call.
#[allow(clippy::too_many_arguments)]
fn session(
    inputs: &Inputs,
    store: &SessionStore,
    id: u64,
    config: &SessionConfig,
    key: &WarmKey,
    hit: bool,
    stats: &mut ClientStats,
    mut shadow: Option<&mut Shadow<'_>>,
) -> Result<al_core::Trajectory, SessionError> {
    let create_span = if hit {
        "core.store.create_warm"
    } else {
        "core.store.create_cold"
    };
    let mut replica = None;
    if let Some(s) = shadow.as_deref_mut() {
        s.tr.set_group(id);
        s.tr.enter("serve.session");
        let warm = s.warm.get(&key.grid);
        replica = Some(TracedSession::start(config.clone(), warm, s.tr)?);
        s.tr.enter(create_span);
    }
    let t0 = Instant::now();
    let mut decision = store.create(id, config.clone(), Some(key.clone()))?;
    stats.decision(t0, |s| &mut s.create_ns);
    if let Some(s) = shadow.as_deref_mut() {
        s.tr.exit();
    }
    let mut shadow_decision = replica.as_ref().map(|(_, d)| *d);
    while let Decision::Query(q) = decision {
        if shadow_decision.is_some_and(|d| d != decision) {
            stats.mismatches += 1;
        }
        let obs = Observation::from_dataset(&inputs.dataset, q.dataset_index);
        if let Some(s) = shadow.as_deref_mut() {
            s.tr.enter("core.store.observe");
        }
        let t0 = Instant::now();
        decision = store.observe(id, &obs)?;
        stats.decision(t0, |s| &mut s.observe_ns);
        if let (Some(s), Some((state, _))) = (shadow.as_deref_mut(), replica.as_mut()) {
            s.tr.exit();
            let t0 = Instant::now();
            shadow_decision = Some(state.step(&obs, s.tr)?);
            stats.replay_ns += nanos(t0);
        }
    }
    if shadow_decision.is_some_and(|d| d != decision) {
        stats.mismatches += 1;
    }
    let trajectory = match shadow {
        Some(s) => {
            let t = s.tr.span("core.store.finish", || store.finish(id))?;
            if let Some((state, _)) = replica {
                s.warm.insert(key.grid.clone(), state.warm_hyperparams());
                if digest::of_trajectory(&state.into_trajectory()) != digest::of_trajectory(&t) {
                    stats.mismatches += 1;
                }
            }
            s.tr.exit();
            t
        }
        None => store.finish(id)?,
    };
    Ok(trajectory)
}

/// Digest of class `class`: one round, one client, a fresh store.
pub fn class_digest(inputs: &Inputs, class: u64) -> Result<u64, String> {
    let store = SessionStore::new(SHARDS);
    let mut stats = ClientStats::default();
    let mut next_id = 0;
    let key = WarmKey::new("reference", "RBF");
    run_round(inputs, &store, &key, class, &mut next_id, &mut stats, None)
        .filter(|_| stats.mismatches == 0)
        .ok_or_else(|| format!("class {class} failed: {:?}", stats.rejected))
}

fn class_of(seed: u64, round: u64, client: usize) -> u64 {
    (seed + 2 * round + client as u64) % CLASSES
}

/// Run a client's rounds until `deadline` (or exactly `rounds`).
fn client_loop(
    inputs: &Inputs,
    store: &SessionStore,
    client: usize,
    seed: u64,
    stop: impl Fn(u64) -> bool,
    stats: &mut ClientStats,
    mut shadow: Option<&mut Shadow<'_>>,
) {
    let mut next_id = client as u64;
    for round in 0u64.. {
        let class = class_of(seed, round, client);
        let key = WarmKey::new(format!("c{client}-r{round}"), "RBF");
        let ok = run_round(
            inputs,
            store,
            &key,
            class,
            &mut next_id,
            stats,
            shadow.as_deref_mut(),
        );
        if ok.is_none() || ok != common::reference(NAME, class) {
            stats.mismatches += 1;
        }
        if stop(round + 1) {
            break;
        }
    }
}

/// Consecutive windows the decisions are cut into for the throughput
/// median.
const WINDOWS: usize = 6;

/// Decision rate in each of [`WINDOWS`] windows holding equal numbers of
/// consecutive checkpoints: decisions ÷ time from the previous window's
/// last checkpoint (or `start`) to this window's last.
fn window_rates(mut checkpoints: Vec<Instant>, start: Instant) -> Vec<f64> {
    checkpoints.sort_unstable();
    let n = checkpoints.len();
    let mut rates = Vec::with_capacity(WINDOWS);
    let mut prev = start;
    for w in 0..WINDOWS {
        let (lo, hi) = (w * n / WINDOWS, (w + 1) * n / WINDOWS);
        if hi == lo {
            continue;
        }
        let end = checkpoints[hi - 1];
        let dt = end.saturating_duration_since(prev).as_secs_f64();
        if dt > 0.0 {
            rates.push(((hi - lo) as u64 * CHECKPOINT) as f64 / dt);
        }
        prev = end;
    }
    rates
}

/// Linear-interpolated quantile (as `al_linalg::stats::quantile`) of
/// nanosecond samples, in milliseconds, selected in place.
fn quantile_ms(v: &mut [u32], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let (_, a, above) = v.select_nth_unstable(lo);
    let a = f64::from(*a);
    let b = above.iter().min().map_or(a, |&b| f64::from(b));
    let w = pos - lo as f64;
    (a * (1.0 - w) + b * w) / 1e6
}

/// The timed run: both clients loop until `seconds` have passed.
/// Throughput is the median of the per-window decision rates, so a host
/// stall of a few seconds moves one window, not the result.
pub fn run(inputs: &Inputs, seed: u64, seconds: f64) -> Outcome {
    let store = &inputs.store;
    let barrier = Barrier::new(CLIENTS + 1);
    let (stats, start) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut stats = ClientStats {
                        observe_ns: Vec::with_capacity(1 << 16),
                        ..ClientStats::default()
                    };
                    barrier.wait();
                    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                    client_loop(
                        inputs,
                        store,
                        c,
                        seed,
                        |_| Instant::now() >= deadline,
                        &mut stats,
                        None,
                    );
                    stats
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let stats: Vec<ClientStats> = handles
            .into_iter()
            .map(|h| h.join().expect("serve client panicked"))
            .collect();
        (stats, start)
    });

    let mut out = Outcome::default();
    let (mut create_ns, mut observe_ns) = (Vec::new(), Vec::new());
    let (mut hits, mut mismatches) = (0, 0);
    for s in &stats {
        let rejected: u64 = s.rejected.values().sum();
        out.attempted += s.decisions + rejected;
        out.failed += rejected;
        create_ns.extend_from_slice(&s.create_ns);
        observe_ns.extend_from_slice(&s.observe_ns);
        hits += s.warm_hits;
        mismatches += s.mismatches;
    }
    let rates = window_rates(
        stats
            .iter()
            .flat_map(|s| s.checkpoints.iter().copied())
            .collect(),
        start,
    );
    out.metrics = vec![
        Metric::new("throughput_per_s", al_linalg::stats::median(&rates), "1/s"),
        Metric::new("latency_p50_ms", quantile_ms(&mut observe_ns, 0.5), "ms"),
    ];
    out.note(
        "latency_p99_ms",
        Json::Num(quantile_ms(&mut observe_ns, 0.99)),
    );
    out.note("observe_samples", Json::Num(observe_ns.len() as f64));
    out.note(
        "first_decision_p50_ms",
        Json::Num(quantile_ms(&mut create_ns, 0.5)),
    );
    out.note("creates", Json::Num(create_ns.len() as f64));
    out.note(
        "warm_hit_ratio",
        Json::Num(hits as f64 / create_ns.len().max(1) as f64),
    );
    out.note("rejected", Json::Num(out.failed as f64));
    out.note(
        "window_rates_per_s",
        Json::Arr(rates.into_iter().map(Json::Num).collect()),
    );
    out.finish_check(mismatches);
    out
}

/// The traced run: each client runs `rounds` rounds ([`TRACED_ROUNDS`]
/// in the benchmark); every store call is timed and shadowed by the
/// session replica, whose decisions and trajectories must match the
/// store's.
pub fn run_traced(inputs: &Inputs, seed: u64, rounds: usize, origin: Instant) -> (Outcome, Trace) {
    let store = &inputs.store;
    let rounds = rounds as u64;
    let started = Instant::now();
    let results: Vec<(ClientStats, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut tr = Tracer::new(origin);
                    let mut stats = ClientStats::default();
                    let mut shadow = Shadow {
                        tr: &mut tr,
                        warm: BTreeMap::new(),
                    };
                    client_loop(
                        inputs,
                        store,
                        c,
                        seed,
                        |r| r >= rounds,
                        &mut stats,
                        Some(&mut shadow),
                    );
                    (stats, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced serve client panicked"))
            .collect()
    });
    let wall_ns = started.elapsed().as_nanos() as u64;
    let mut out = Outcome::default();
    let (mut mismatches, mut replay_ns) = (0, 0);
    let mut tracers = Vec::new();
    for (s, tr) in results {
        let rejected: u64 = s.rejected.values().sum();
        out.attempted += s.decisions + rejected;
        out.failed += rejected;
        mismatches += s.mismatches;
        replay_ns += s.replay_ns;
        tracers.push(tr);
    }
    let trace = Trace::merge(tracers);
    let traced = TracedRun {
        trace: &trace,
        wall_ns,
        workers: CLIENTS,
        root: "serve.session",
        replay_ns: Some(replay_ns),
    };
    out.metrics = layers::per_layer(&traced);
    out.note("coverage_gap", layers::coverage_gap(&traced));
    out.exact_counts = trace.exact_counts();
    out.finish_check(mismatches);
    (out, trace)
}

#[cfg(test)]
mod tests {
    use super::quantile_ms;

    #[test]
    fn in_place_quantile_matches_the_stats_crate() {
        let ns: Vec<u32> = (0..101u32).map(|i| (i * 7919) % 1000 + 1).collect();
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let as_ms: Vec<f64> = ns.iter().map(|&v| f64::from(v) / 1e6).collect();
            let want = al_linalg::stats::quantile(&as_ms, q);
            let got = quantile_ms(&mut ns.clone(), q);
            assert!((got - want).abs() < 1e-15, "q={q}: {got} vs {want}");
        }
    }
}
