//! Traced replicas built only from the library's public calls.
//!
//! [`TracedSession`] repeats `SessionState::start_warm` and `step` call
//! for call — the same `GpModel` operations in the same order, the same
//! strategy draws from the same RNG, the same `CumulativeTracker` and
//! `metrics::rmse_nonlog` bookkeeping — with a span around every call
//! into a layer. [`traced_simulation`] does the same for
//! `run_simulation`: `AmrSolver::new` plus the `step` loop of
//! `AmrSolver::run`. `tests/parity.rs` proves both reproduce the library's
//! outputs bit for bit, so the per-layer times they record describe the
//! work the untraced run timed.

use crate::trace::Tracer;
use al_amr_sim::{
    AmrError, AmrSolver, MachineModel, SimulationConfig, SimulationOutcome, SolverProfile,
    TruncationReason,
};
use al_core::metrics::{self, CumulativeTracker};
use al_core::session::{EvalSet, Query, WarmHyperparams};
use al_core::stopping::{StabilizationDetector, VectorStabilization};
use al_core::trajectory::IterationRecord;
use al_core::{
    AlOptions, Decision, Observation, SelectionContext, SessionConfig, StopReason, StrategyKind,
    Trajectory,
};
use al_gp::{FitOptions, GpError, GpModel};
use al_linalg::Matrix;
use al_units::{Megabytes, NodeHours};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Span of one session start or step; its self time is `core.session`.
pub const SESSION: &str = "core.session";

fn cube(n: usize) -> u64 {
    let n = n as u64;
    n * n * n / 3
}

fn fit_optimized(
    tr: &mut Tracer,
    gp: &mut GpModel,
    x: &Matrix,
    y: &[f64],
    opts: &FitOptions,
) -> Result<(), GpError> {
    tr.span("gp.fit_optimized", || gp.fit_optimized(x, y, opts))?;
    // Only the final refit at the optimum is visible from outside; the
    // optimizer's inner factorizations are not counted.
    tr.count("linalg.factor_flops", cube(x.rows()));
    Ok(())
}

fn fit(tr: &mut Tracer, gp: &mut GpModel, x: &Matrix, y: &[f64]) -> Result<(), GpError> {
    tr.span("gp.fit", || gp.fit(x, y))?;
    tr.count("linalg.factor_flops", cube(x.rows()));
    Ok(())
}

fn augment(tr: &mut Tracer, gp: &mut GpModel, row: &[f64], y: f64) -> Result<(), GpError> {
    tr.span("gp.augment", || gp.augment(row, y))?;
    let n = gp.n_train() as u64;
    tr.count("linalg.extend_flops", n * n);
    Ok(())
}

fn predict(
    tr: &mut Tracer,
    name: &'static str,
    gp: &GpModel,
    xs: &Matrix,
) -> Result<al_gp::Prediction, GpError> {
    let p = tr.span(name, || gp.predict(xs))?;
    let (rows, n) = (xs.rows() as u64, gp.n_train() as u64);
    tr.count("linalg.solve_flops", rows * n * n);
    if name == "gp.predict_pool" {
        tr.count("gp.predict_pool.rows", rows);
    }
    Ok(p)
}

#[derive(Clone)]
struct Acquired {
    dataset_index: usize,
    cost: NodeHours,
    memory: Megabytes,
    regret: NodeHours,
    cumulative_cost: NodeHours,
    cumulative_regret: NodeHours,
    features: Vec<f64>,
    log_cost: f64,
    log_mem: f64,
}

struct Round {
    mu_c: Vec<f64>,
    sg_c: Vec<f64>,
    mu_m: Vec<f64>,
    sg_m: Vec<f64>,
    picked: Vec<usize>,
    acquired: Vec<Acquired>,
    refused: bool,
}

/// Traced twin of `al_core::SessionState`.
pub struct TracedSession {
    kind: StrategyKind,
    opts: AlOptions,
    rows: Vec<f64>,
    n: usize,
    dim: usize,
    y_cost: Vec<f64>,
    y_mem: Vec<f64>,
    gp_cost: GpModel,
    gp_mem: GpModel,
    active_ids: Vec<usize>,
    active_rows: Matrix,
    eval: Option<EvalSet>,
    mem_limit_raw: Option<Megabytes>,
    rng: StdRng,
    tracker: CumulativeTracker,
    detector: Option<StabilizationDetector>,
    hp_detector: Option<VectorStabilization>,
    iteration: usize,
    max_iterations: usize,
    records: Vec<IterationRecord>,
    n_init: usize,
    initial_rmse: (f64, f64),
    round: Option<Round>,
    stopped: Option<StopReason>,
}

impl TracedSession {
    /// `SessionState::start_warm`, traced.
    pub fn start(
        config: SessionConfig,
        warm: Option<&WarmHyperparams>,
        tr: &mut Tracer,
    ) -> Result<(Self, Decision), GpError> {
        tr.enter(SESSION);
        let out = Self::start_inner(config, warm, tr);
        tr.exit();
        out
    }

    fn start_inner(
        config: SessionConfig,
        warm: Option<&WarmHyperparams>,
        tr: &mut Tracer,
    ) -> Result<(Self, Decision), GpError> {
        let SessionConfig {
            kind,
            opts,
            init_features,
            init_log_cost,
            init_log_mem,
            candidate_ids,
            candidate_features,
            eval,
        } = config;
        let rng = StdRng::seed_from_u64(opts.seed);
        let mut gp_cost = GpModel::new(
            opts.kernel.build(opts.init_length_scale),
            opts.noise_variance,
        );
        let mut gp_mem = GpModel::new(
            opts.kernel.build(opts.init_length_scale),
            opts.noise_variance,
        );
        let fit_opts = match warm {
            Some(w) => {
                gp_cost.set_hyperparams(&w.cost)?;
                gp_mem.set_hyperparams(&w.mem)?;
                opts.refit.clone()
            }
            None => opts.initial_fit.clone(),
        };
        let x = Matrix::from_vec(
            init_features.rows(),
            init_features.cols(),
            init_features.as_slice().to_vec(),
        );
        fit_optimized(tr, &mut gp_cost, &x, &init_log_cost, &fit_opts)?;
        fit_optimized(tr, &mut gp_mem, &x, &init_log_mem, &fit_opts)?;

        let mut state = TracedSession {
            n_init: init_features.rows(),
            rows: init_features.as_slice().to_vec(),
            n: init_features.rows(),
            dim: init_features.cols(),
            y_cost: init_log_cost,
            y_mem: init_log_mem,
            mem_limit_raw: opts.mem_limit_log.map(|l| l.to_megabytes()),
            max_iterations: opts.max_iterations.unwrap_or(usize::MAX),
            detector: opts
                .stabilization
                .map(|(w, tol)| StabilizationDetector::new(w, tol)),
            hp_detector: opts
                .hyperparam_stabilization
                .map(|(w, tol)| VectorStabilization::new(w, tol)),
            kind,
            opts,
            gp_cost,
            gp_mem,
            active_ids: candidate_ids,
            active_rows: candidate_features,
            eval,
            rng,
            tracker: CumulativeTracker::default(),
            iteration: 0,
            records: Vec::new(),
            initial_rmse: (f64::NAN, f64::NAN),
            round: None,
            stopped: None,
        };
        state.initial_rmse = state.test_rmse(tr)?;
        let decision = state.open_round(tr)?;
        Ok((state, decision))
    }

    /// `SessionState::step`, traced. The observation must answer the
    /// outstanding query (every caller here passes the one asked for).
    pub fn step(&mut self, obs: &Observation, tr: &mut Tracer) -> Result<Decision, GpError> {
        tr.enter(SESSION);
        let out = self.step_inner(obs, tr);
        tr.exit();
        out
    }

    fn step_inner(&mut self, obs: &Observation, tr: &mut Tracer) -> Result<Decision, GpError> {
        let Some(mut round) = self.round.take() else {
            return Ok(Decision::Stop(
                self.stopped.unwrap_or(StopReason::ActiveExhausted),
            ));
        };
        let regret = self
            .tracker
            .record(obs.cost, obs.memory, self.mem_limit_raw);
        self.rows.extend_from_slice(&obs.features_scaled);
        self.n += 1;
        self.y_cost.push(obs.log_cost);
        self.y_mem.push(obs.log_mem);
        round.acquired.push(Acquired {
            dataset_index: obs.dataset_index,
            cost: obs.cost,
            memory: obs.memory,
            regret,
            cumulative_cost: self.tracker.cumulative_cost(),
            cumulative_regret: self.tracker.cumulative_regret(),
            features: obs.features_scaled.clone(),
            log_cost: obs.log_cost,
            log_mem: obs.log_mem,
        });
        if round.picked.len() < self.opts.batch_size
            && !self.active_ids.is_empty()
            && self.iteration + round.picked.len() < self.max_iterations
        {
            match self.select_next(&mut round, tr) {
                Some(q) => {
                    self.round = Some(round);
                    return Ok(Decision::Query(q));
                }
                None => round.refused = true,
            }
        }
        self.close_round(round, tr)
    }

    fn train_x(&self) -> Matrix {
        Matrix::from_vec(self.n, self.dim, self.rows.clone())
    }

    fn open_round(&mut self, tr: &mut Tracer) -> Result<Decision, GpError> {
        if self.active_ids.is_empty() {
            return Ok(self.stop(StopReason::ActiveExhausted));
        }
        if self.iteration >= self.max_iterations {
            return Ok(self.stop(StopReason::MaxIterations));
        }
        let pc = predict(tr, "gp.predict_pool", &self.gp_cost, &self.active_rows)?;
        let pm = predict(tr, "gp.predict_pool", &self.gp_mem, &self.active_rows)?;
        let mut round = Round {
            mu_c: pc.mean,
            sg_c: pc.std,
            mu_m: pm.mean,
            sg_m: pm.std,
            picked: Vec::with_capacity(self.opts.batch_size),
            acquired: Vec::with_capacity(self.opts.batch_size),
            refused: false,
        };
        match self.select_next(&mut round, tr) {
            Some(q) => {
                self.round = Some(round);
                Ok(Decision::Query(q))
            }
            None => Ok(self.stop(StopReason::AllCandidatesRefused)),
        }
    }

    fn select_next(&mut self, round: &mut Round, tr: &mut Tracer) -> Option<Query> {
        let ctx = SelectionContext {
            mu_cost: &round.mu_c,
            sigma_cost: &round.sg_c,
            mu_mem: &round.mu_m,
            sigma_mem: &round.sg_m,
            mem_limit_log: self.opts.mem_limit_log,
        };
        let (kind, rng) = (self.kind, &mut self.rng);
        let k = tr.span("core.strategy.select", || kind.build().select(&ctx, rng))?;
        let query = Query {
            dataset_index: self.active_ids[k],
            pred_cost_log: round.mu_c[k],
            pred_cost_sigma: round.sg_c[k],
            pred_mem_log: round.mu_m[k],
            pred_mem_sigma: round.sg_m[k],
        };
        self.active_ids.remove(k);
        self.active_rows.remove_row(k);
        round.mu_c.remove(k);
        round.sg_c.remove(k);
        round.mu_m.remove(k);
        round.sg_m.remove(k);
        round.picked.push(query.dataset_index);
        Some(query)
    }

    fn close_round(&mut self, round: Round, tr: &mut Tracer) -> Result<Decision, GpError> {
        let every = self.opts.optimize_every;
        let crossed = (self.iteration + round.picked.len()) / every > self.iteration / every;
        if crossed {
            let x = self.train_x();
            let refit = self.opts.refit.clone();
            fit_optimized(tr, &mut self.gp_cost, &x, &self.y_cost, &refit)?;
            fit_optimized(tr, &mut self.gp_mem, &x, &self.y_mem, &refit)?;
        } else if self.opts.incremental {
            for a in &round.acquired {
                augment(tr, &mut self.gp_cost, &a.features, a.log_cost)?;
                augment(tr, &mut self.gp_mem, &a.features, a.log_mem)?;
            }
        } else {
            let x = self.train_x();
            fit(tr, &mut self.gp_cost, &x, &self.y_cost)?;
            fit(tr, &mut self.gp_mem, &x, &self.y_mem)?;
        }

        let (rmse_cost, rmse_mem) = self.test_rmse(tr)?;
        for (offset, a) in round.acquired.iter().enumerate() {
            self.records.push(IterationRecord {
                iteration: self.iteration + offset,
                dataset_index: a.dataset_index,
                cost: a.cost,
                memory: a.memory,
                regret: a.regret,
                cumulative_cost: a.cumulative_cost,
                cumulative_regret: a.cumulative_regret,
                rmse_cost,
                rmse_mem,
            });
        }
        self.iteration += round.picked.len();

        if round.refused {
            return Ok(self.stop(StopReason::AllCandidatesRefused));
        }
        if let Some(detector) = self.detector.as_mut() {
            if detector.push(rmse_cost) {
                return Ok(self.stop(StopReason::PredictionsStabilized));
            }
        }
        if let Some(hp) = self.hp_detector.as_mut() {
            if hp.push(&self.gp_cost.hyperparams()) {
                return Ok(self.stop(StopReason::HyperparamsStabilized));
            }
        }
        self.open_round(tr)
    }

    fn stop(&mut self, reason: StopReason) -> Decision {
        self.stopped = Some(reason);
        Decision::Stop(reason)
    }

    fn test_rmse(&self, tr: &mut Tracer) -> Result<(f64, f64), GpError> {
        match &self.eval {
            Some(eval) => {
                let pc = predict(tr, "gp.predict_eval", &self.gp_cost, &eval.features)?;
                let pm = predict(tr, "gp.predict_eval", &self.gp_mem, &eval.features)?;
                Ok((
                    metrics::rmse_nonlog(&pc.mean, &eval.cost_raw),
                    metrics::rmse_nonlog(&pm.mean, &eval.mem_raw),
                ))
            }
            None => Ok((f64::NAN, f64::NAN)),
        }
    }

    /// Current hyperparameters of both models (what a finish publishes).
    pub fn warm_hyperparams(&self) -> WarmHyperparams {
        WarmHyperparams {
            cost: self.gp_cost.hyperparams(),
            mem: self.gp_mem.hyperparams(),
        }
    }

    /// `SessionState::into_trajectory`.
    pub fn into_trajectory(self) -> Trajectory {
        Trajectory {
            strategy: self.kind.label().to_string(),
            n_init: self.n_init,
            initial_rmse_cost: self.initial_rmse.0,
            initial_rmse_mem: self.initial_rmse.1,
            records: self.records,
            stop_reason: self.stopped.unwrap_or(StopReason::MaxIterations),
        }
    }
}

/// Drive a traced session over dataset lookups: `run_trajectory`, traced.
pub fn traced_trajectory(
    dataset: &al_dataset::Dataset,
    config: SessionConfig,
    tr: &mut Tracer,
) -> Result<Trajectory, GpError> {
    let (mut state, mut decision) = TracedSession::start(config, None, tr)?;
    while let Decision::Query(q) = decision {
        let obs = Observation::from_dataset(dataset, q.dataset_index);
        decision = state.step(&obs, tr)?;
    }
    Ok(state.into_trajectory())
}

/// `run_simulation`, traced: `AmrSolver::new` plus the loop of
/// `AmrSolver::run` made of individual `step` calls.
pub fn traced_simulation(
    config: &SimulationConfig,
    profile: SolverProfile,
    machine: &MachineModel,
    repeat: u32,
    tr: &mut Tracer,
) -> Result<SimulationOutcome, AmrError> {
    let mut solver = tr.span("amr.init", || AmrSolver::new(config, profile));
    let completed = |time: f64| profile.t_final - time <= 1e-12 * profile.t_final.abs();
    let mut truncation = None;
    while solver.time() < profile.t_final {
        if solver.stats().steps >= profile.max_steps {
            if !completed(solver.time()) {
                truncation = Some(TruncationReason::MaxSteps);
            }
            break;
        }
        let dt = tr.span("amr.step", || solver.step())?;
        if dt <= 0.0 || !dt.is_finite() {
            if !completed(solver.time()) {
                truncation = Some(TruncationReason::TimeStepCollapse);
            }
            break;
        }
    }
    let mut work = *solver.stats();
    if truncation.is_some() {
        work.truncation = truncation;
    }
    if let Some(reason) = work.truncation {
        return Err(AmrError::Truncated {
            reason,
            steps: work.steps,
        });
    }
    let seed = config
        .stable_hash()
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(u64::from(repeat));
    let out = machine.evaluate(&work, config.p, seed);
    Ok(SimulationOutcome {
        config: *config,
        wall_seconds: out.wall_seconds,
        cost_node_hours: out.cost_node_hours,
        memory_mb: out.memory_mb,
        work,
    })
}
