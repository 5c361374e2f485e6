//! Session core: Algorithm 1 as a pure transition function.
//!
//! [`crate::procedure::run_trajectory`] owns a whole trajectory — it holds
//! the dataset, runs the loop, and returns only when a stop condition
//! fires. A serving layer cannot use that shape: each of many concurrent
//! sessions must answer "which config should I run next?", then wait for
//! an *external* caller to actually run the simulation and report back.
//!
//! This module splits the loop body out into an explicit value plus a
//! transition function:
//!
//! - [`SessionState`] carries everything the loop used to keep on its
//!   stack: both GP models, the growing training set, the remaining
//!   candidate pool, the cumulative cost/regret tracker, the stopping
//!   detectors, and the strategy RNG. It is `Clone`, so a state can be
//!   snapshotted, shipped, or replayed.
//! - [`SessionState::start`] performs the initial fit and returns the
//!   first [`Decision`].
//! - [`SessionState::step`] ingests one [`Observation`] (the simulation
//!   result for the outstanding query) and returns the successor state
//!   plus the next [`Decision`] — either another query or a typed stop
//!   reason.
//!
//! # Purity contract
//!
//! `step` is deterministic state-to-state: the successor depends only on
//! the input state value and the observation. No wall-clock, no ambient
//! entropy (the RNG lives *inside* the state), no interior mutability —
//! stepping a cloned snapshot twice with the same observation yields
//! bitwise-identical successors. `crates/core/tests/session_parity.rs`
//! enforces this, and also proves the legacy driver built on top of this
//! module reproduces the pre-split `run_trajectory` byte-for-byte.
//!
//! # Round semantics (batching parity)
//!
//! The legacy loop selects up to `batch_size` candidates from one set of
//! stale predictions, acquires them all, then retrains once. The session
//! keeps the same shape: a round opens with a prediction pass, each
//! `step` ingests one observation and either extends the round (next
//! pick from the same shrinking prediction vectors, identical RNG draw
//! order) or closes it (deferred incremental augments in pick order, or
//! one refit), emitting the round's [`IterationRecord`]s with a shared
//! RMSE. Deferring augments to round close is behaviour-preserving:
//! selection consults only the stale prediction vectors and the RNG, and
//! the legacy loop augments strictly after its selection phase anyway.

use crate::context::SelectionContext;
use crate::metrics::{self, CumulativeTracker};
use crate::stopping::{StabilizationDetector, StopReason, VectorStabilization};
use crate::strategy::StrategyKind;
use crate::trajectory::{IterationRecord, Trajectory};
use crate::AlOptions;
use al_dataset::{Dataset, Partition};
use al_gp::{GpError, GpModel, PoolCache};
use al_linalg::Matrix;
use al_units::{Megabytes, NodeHours};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Held-out evaluation set for per-round RMSE tracking.
///
/// Optional: a serving deployment has no labelled test split, in which
/// case records carry `NaN` RMSE and the stabilizing-predictions stop
/// never fires (the detector ignores non-finite errors).
#[derive(Debug, Clone)]
pub struct EvalSet {
    /// Scaled feature rows of the held-out configurations.
    pub features: Matrix,
    /// Raw (non-log) cost responses, aligned with `features` rows.
    pub cost_raw: Vec<f64>,
    /// Raw (non-log) memory responses, aligned with `features` rows.
    pub mem_raw: Vec<f64>,
}

/// Everything needed to open a session: strategy, options, the initial
/// labelled pool, the candidate pool, and an optional evaluation set.
#[derive(Clone)]
pub struct SessionConfig {
    /// Selection strategy for this session.
    pub kind: StrategyKind,
    /// Loop options (kernel, fit schedules, batching, stopping, seed).
    pub opts: AlOptions,
    /// Scaled features of the initial training set (one row per sample).
    pub init_features: Matrix,
    /// log10 cost responses aligned with `init_features` rows.
    pub init_log_cost: Vec<f64>,
    /// log10 memory responses aligned with `init_features` rows.
    pub init_log_mem: Vec<f64>,
    /// External ids (dataset row indices) of the candidate pool.
    pub candidate_ids: Vec<usize>,
    /// Scaled features aligned with `candidate_ids`.
    pub candidate_features: Matrix,
    /// Optional held-out split for RMSE accounting.
    pub eval: Option<EvalSet>,
}

impl SessionConfig {
    /// Build a session config from a dataset partition — the bridge from
    /// the batch world ([`run_trajectory`](crate::run_trajectory)) into
    /// the session world. Uses the partition's Initial split as training
    /// data, Active as candidates, and Test as the evaluation set.
    pub fn from_partition(
        dataset: &Dataset,
        partition: &Partition,
        kind: StrategyKind,
        opts: &AlOptions,
    ) -> Self {
        SessionConfig {
            kind,
            opts: opts.clone(),
            init_features: dataset.features_scaled(&partition.init),
            init_log_cost: dataset.log_cost(&partition.init),
            init_log_mem: dataset.log_memory(&partition.init),
            candidate_ids: partition.active.clone(),
            candidate_features: dataset.features_scaled(&partition.active),
            eval: Some(EvalSet {
                features: dataset.features_scaled(&partition.test),
                cost_raw: dataset.raw_cost(&partition.test),
                mem_raw: dataset.raw_memory(&partition.test),
            }),
        }
    }
}

/// Fitted GP hyperparameters for both response models — the value cached
/// by the [`SessionStore`](crate::SessionStore) warm-start LRU and fed to
/// [`SessionState::start_warm`].
#[derive(Debug, Clone, PartialEq)]
pub struct WarmHyperparams {
    /// Cost-model hyperparameters (kernel params + log noise).
    pub cost: Vec<f64>,
    /// Memory-model hyperparameters (kernel params + log noise).
    pub mem: Vec<f64>,
}

/// One query the session asks its driver to run: which candidate, and
/// what the models predicted for it at selection time (log10 units).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    /// External id of the selected candidate (dataset row index).
    pub dataset_index: usize,
    /// Predicted log10 cost at selection time.
    pub pred_cost_log: f64,
    /// Predictive standard deviation of the log10 cost.
    pub pred_cost_sigma: f64,
    /// Predicted log10 memory at selection time.
    pub pred_mem_log: f64,
    /// Predictive standard deviation of the log10 memory.
    pub pred_mem_sigma: f64,
}

/// What the session wants next.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// Run this candidate and report back via [`SessionState::step`].
    Query(Query),
    /// The trajectory is over; [`SessionState::into_trajectory`] has the
    /// full record.
    Stop(StopReason),
}

impl Decision {
    /// The outstanding query, if the session is waiting for one.
    pub fn query(&self) -> Option<Query> {
        match *self {
            Decision::Query(q) => Some(q),
            Decision::Stop(_) => None,
        }
    }
}

/// The measured result of running one queried candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Echo of [`Query::dataset_index`] — must match the outstanding query.
    pub dataset_index: usize,
    /// Measured cost of the run.
    pub cost: NodeHours,
    /// Measured peak memory of the run.
    pub memory: Megabytes,
    /// Scaled feature row of the candidate (same scaler as the config).
    pub features_scaled: Vec<f64>,
    /// log10 cost response.
    pub log_cost: f64,
    /// log10 memory response.
    pub log_mem: f64,
}

impl Observation {
    /// Look up the observation for dataset row `index` — the bridge used
    /// by batch drivers where "running" a candidate is a table lookup.
    pub fn from_dataset(dataset: &Dataset, index: usize) -> Self {
        let sample = dataset.sample(index);
        Observation {
            dataset_index: index,
            cost: sample.cost_node_hours,
            memory: sample.memory_mb,
            features_scaled: dataset.scaled_row(index).to_vec(),
            log_cost: dataset.log_cost(&[index])[0],
            log_mem: dataset.log_memory(&[index])[0],
        }
    }
}

/// Growing training set: scaled features plus log responses (the session
/// twin of the one `run_trajectory` used to keep inline).
#[derive(Debug, Clone)]
struct TrainingSet {
    rows: Vec<f64>,
    n: usize,
    dim: usize,
    cost: Vec<f64>,
    memory: Vec<f64>,
}

impl TrainingSet {
    fn new(x: &Matrix, cost: Vec<f64>, memory: Vec<f64>) -> Self {
        TrainingSet {
            rows: x.as_slice().to_vec(),
            n: x.rows(),
            dim: x.cols(),
            cost,
            memory,
        }
    }

    fn push(&mut self, features: &[f64], log_cost: f64, log_mem: f64) {
        self.rows.extend_from_slice(features);
        self.n += 1;
        self.cost.push(log_cost);
        self.memory.push(log_mem);
    }

    fn x(&self) -> Matrix {
        Matrix::from_vec(self.n, self.dim, self.rows.clone())
    }
}

/// One acquired sample, staged until its round closes.
#[derive(Debug, Clone)]
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

/// An open selection round: the stale prediction vectors every pick in
/// the round draws from, the picks made so far, and the staged results.
#[derive(Debug, Clone)]
struct Round {
    mu_c: Vec<f64>,
    sg_c: Vec<f64>,
    mu_m: Vec<f64>,
    sg_m: Vec<f64>,
    picked: Vec<usize>,
    acquired: Vec<Acquired>,
    refused: bool,
}

/// The complete state of one active-learning session between steps.
///
/// `Clone` snapshots the whole session (models, pool, RNG); replaying a
/// snapshot through [`SessionState::step`] with the same observations
/// reproduces the original run bit-for-bit.
#[derive(Clone)]
pub struct SessionState {
    kind: StrategyKind,
    opts: AlOptions,
    train: TrainingSet,
    gp_cost: GpModel,
    gp_mem: GpModel,
    /// Each model's pool solves, carried between rounds (see
    /// [`GpModel::predict_cached`]); dropped at every optimize boundary.
    cost_cache: PoolCache,
    mem_cache: PoolCache,
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
    initial_rmse_cost: f64,
    initial_rmse_mem: f64,
    round: Option<Round>,
    stopped: Option<StopReason>,
}

impl SessionState {
    /// Open a session: fit both GP models on the initial pool with full
    /// hyperparameter optimization and return the first decision.
    pub fn start(config: SessionConfig) -> Result<(Self, Decision), GpError> {
        Self::start_warm(config, None)
    }

    /// Open a session warm-started from previously fitted hyperparameters
    /// (the paper's "use the old model's parameters as a starting point",
    /// applied across sessions). The initial fit then uses the cheap
    /// `opts.refit` schedule instead of the multi-start `opts.initial_fit`.
    /// With `warm = None` this is exactly [`SessionState::start`].
    pub fn start_warm(
        config: SessionConfig,
        warm: Option<&WarmHyperparams>,
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
        assert!(
            !kind.is_memory_aware() || opts.mem_limit_log.is_some(),
            "RGMA requires AlOptions::mem_limit_log"
        );
        assert!(opts.batch_size >= 1, "batch_size must be at least 1");
        assert!(
            opts.optimize_every >= 1,
            "optimize_every must be at least 1"
        );
        assert!(
            candidate_features.rows() == candidate_ids.len(),
            "candidate_features rows must match candidate_ids"
        );
        assert!(
            candidate_ids.is_empty() || candidate_features.cols() == init_features.cols(),
            "candidate and initial feature dimensions must match"
        );
        let strategy_error = kind.parameter_error();
        assert!(strategy_error.is_none(), "{}", strategy_error.unwrap_or(""));
        // The detectors assert their own inputs: build them before the
        // fits so bad options panic before any work is done.
        let detector = opts
            .stabilization
            .map(|(w, tol)| StabilizationDetector::new(w, tol));
        let hp_detector = opts
            .hyperparam_stabilization
            .map(|(w, tol)| VectorStabilization::new(w, tol));

        let rng = StdRng::seed_from_u64(opts.seed);
        let train = TrainingSet::new(&init_features, init_log_cost, init_log_mem);
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
                &opts.refit
            }
            None => &opts.initial_fit,
        };
        let x = train.x();
        gp_cost.fit_optimized(&x, &train.cost, fit_opts)?;
        gp_mem.fit_optimized(&x, &train.memory, fit_opts)?;

        let mut state = SessionState {
            n_init: init_features.rows(),
            mem_limit_raw: opts.mem_limit_log.map(|l| l.to_megabytes()),
            max_iterations: opts.max_iterations.unwrap_or(usize::MAX),
            detector,
            hp_detector,
            kind,
            opts,
            train,
            gp_cost,
            gp_mem,
            cost_cache: PoolCache::new(),
            mem_cache: PoolCache::new(),
            active_ids: candidate_ids,
            active_rows: candidate_features,
            eval,
            rng,
            tracker: CumulativeTracker::default(),
            iteration: 0,
            records: Vec::new(),
            initial_rmse_cost: f64::NAN,
            initial_rmse_mem: f64::NAN,
            round: None,
            stopped: None,
        };
        let (rc, rm) = state.test_rmse()?;
        state.initial_rmse_cost = rc;
        state.initial_rmse_mem = rm;
        let decision = state.open_round()?;
        Ok((state, decision))
    }

    /// Ingest the result of the outstanding query and advance: either the
    /// current round continues (next pick from the same stale predictions)
    /// or it closes (retrain/augment, record metrics, open the next round
    /// or stop). Consumes the state; see the module docs for the purity
    /// contract.
    ///
    /// The observation must answer the outstanding [`Query`] (asserted).
    /// Calling `step` on a stopped session is a no-op that re-reports the
    /// stop decision.
    pub fn step(mut self, obs: &Observation) -> Result<(Self, Decision), GpError> {
        let mut round = match self.round.take() {
            Some(round) => round,
            None => {
                let reason = self.stopped.unwrap_or(StopReason::ActiveExhausted);
                return Ok((self, Decision::Stop(reason)));
            }
        };
        assert!(
            round.picked.last() == Some(&obs.dataset_index),
            "observation for candidate {} does not answer the outstanding query",
            obs.dataset_index
        );
        assert!(
            obs.features_scaled.len() == self.train.dim,
            "observation feature dimension mismatch"
        );

        let regret = self
            .tracker
            .record(obs.cost, obs.memory, self.mem_limit_raw);
        self.train
            .push(&obs.features_scaled, obs.log_cost, obs.log_mem);
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

        // Same guard as the legacy inner `while`: keep picking from this
        // round's stale predictions until the batch, the pool, or the
        // iteration budget runs out.
        if round.picked.len() < self.opts.batch_size
            && !self.active_ids.is_empty()
            && self.iteration + round.picked.len() < self.max_iterations
        {
            match self.select_next(&mut round) {
                Some(q) => {
                    self.round = Some(round);
                    return Ok((self, Decision::Query(q)));
                }
                None => round.refused = true,
            }
        }
        let decision = self.close_round(round)?;
        Ok((self, decision))
    }

    /// Start a new round: stop checks, one prediction pass over the
    /// remaining pool, and the round's first pick.
    fn open_round(&mut self) -> Result<Decision, GpError> {
        if self.active_ids.is_empty() {
            return Ok(self.stop(StopReason::ActiveExhausted));
        }
        if self.iteration >= self.max_iterations {
            return Ok(self.stop(StopReason::MaxIterations));
        }
        let pred_cost = self
            .gp_cost
            .predict_cached(&self.active_rows, &mut self.cost_cache)?;
        let pred_mem = self
            .gp_mem
            .predict_cached(&self.active_rows, &mut self.mem_cache)?;
        let mut round = Round {
            mu_c: pred_cost.mean,
            sg_c: pred_cost.std,
            mu_m: pred_mem.mean,
            sg_m: pred_mem.std,
            picked: Vec::with_capacity(self.opts.batch_size),
            acquired: Vec::with_capacity(self.opts.batch_size),
            refused: false,
        };
        match self.select_next(&mut round) {
            Some(q) => {
                self.round = Some(round);
                Ok(Decision::Query(q))
            }
            // Refusal with an empty round: nothing to retrain or record.
            None => Ok(self.stop(StopReason::AllCandidatesRefused)),
        }
    }

    /// One strategy selection over the round's remaining predictions;
    /// removes the pick from the pool and the prediction vectors (the
    /// legacy loop's `active.remove(k)` block, verbatim).
    fn select_next(&mut self, round: &mut Round) -> Option<Query> {
        let ctx = SelectionContext {
            mu_cost: &round.mu_c,
            sigma_cost: &round.sg_c,
            mu_mem: &round.mu_m,
            sigma_mem: &round.sg_m,
            mem_limit_log: self.opts.mem_limit_log,
        };
        let k = self.kind.select(&ctx, &mut self.rng)?;
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

    /// Close a round: retrain (or absorb the staged augments), measure
    /// RMSE once, emit the round's records, and open the next round or
    /// stop. Mirrors the tail of the legacy loop body exactly.
    fn close_round(&mut self, round: Round) -> Result<Decision, GpError> {
        let crossed_optimize_boundary = (self.iteration + round.picked.len())
            / self.opts.optimize_every
            > self.iteration / self.opts.optimize_every;

        if crossed_optimize_boundary {
            // New hyperparameters mean a new factor: no cached solve
            // survives, so free them before the optimizer's n × n buffers.
            self.cost_cache.clear();
            self.mem_cache.clear();
            let x = self.train.x();
            self.gp_cost
                .fit_optimized(&x, &self.train.cost, &self.opts.refit)?;
            self.gp_mem
                .fit_optimized(&x, &self.train.memory, &self.opts.refit)?;
        } else if self.opts.incremental {
            // Deferred O(n²) bordered-Cholesky updates, in pick order —
            // the same model-op sequence the legacy loop performed, since
            // it too augmented only after the selection phase.
            for a in &round.acquired {
                self.gp_cost.augment(&a.features, a.log_cost)?;
                self.gp_mem.augment(&a.features, a.log_mem)?;
            }
        } else {
            let x = self.train.x();
            self.gp_cost.fit(&x, &self.train.cost)?;
            self.gp_mem.fit(&x, &self.train.memory)?;
        }

        // RMSE is measured once per round and shared by its records.
        let (rmse_cost, rmse_mem) = self.test_rmse()?;
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
        self.open_round()
    }

    fn stop(&mut self, reason: StopReason) -> Decision {
        self.stopped = Some(reason);
        Decision::Stop(reason)
    }

    /// RMSE of both models on the evaluation set, or `NaN` without one.
    fn test_rmse(&self) -> Result<(f64, f64), GpError> {
        match &self.eval {
            Some(eval) => {
                let pc = self.gp_cost.predict_mean(&eval.features)?;
                let pm = self.gp_mem.predict_mean(&eval.features)?;
                Ok((
                    metrics::rmse_nonlog(&pc, &eval.cost_raw),
                    metrics::rmse_nonlog(&pm, &eval.mem_raw),
                ))
            }
            None => Ok((f64::NAN, f64::NAN)),
        }
    }

    /// Selections completed so far (the legacy loop's iteration counter).
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// Why the session stopped, once it has.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stopped
    }

    /// Dataset index of the outstanding query, if the session is waiting
    /// for an observation.
    pub fn awaiting(&self) -> Option<usize> {
        self.round.as_ref().and_then(|r| r.picked.last().copied())
    }

    /// Rows in the training set, i.e. the row the next observation takes.
    pub(crate) fn training_rows(&self) -> usize {
        self.train.n
    }

    /// Feature dimension of the training rows: an observation must carry
    /// this many scaled features.
    pub(crate) fn feature_dim(&self) -> usize {
        self.train.dim
    }

    /// Records emitted so far (one per completed selection).
    pub fn records(&self) -> &[IterationRecord] {
        &self.records
    }

    /// Current fitted hyperparameters of both models — what the
    /// warm-start cache stores.
    pub fn warm_hyperparams(&self) -> WarmHyperparams {
        WarmHyperparams {
            cost: self.gp_cost.hyperparams(),
            mem: self.gp_mem.hyperparams(),
        }
    }

    /// Order-stable bit-level fingerprint of the session: training data,
    /// pool, model hyperparameters and posterior probe, tracker, RNG
    /// stream, and emitted records. Two states with equal digests behave
    /// identically under [`SessionState::step`] — the replay/parity suite
    /// leans on this because the RNG (deliberately) does not implement
    /// `PartialEq`.
    pub fn digest(&self) -> Vec<u64> {
        let mut d: Vec<u64> = Vec::new();
        d.push(self.iteration as u64);
        d.push(self.train.n as u64);
        d.push(self.active_ids.len() as u64);
        d.extend(self.active_ids.iter().map(|&i| i as u64));
        d.extend(self.train.rows.iter().map(|v| v.to_bits()));
        d.extend(self.train.cost.iter().map(|v| v.to_bits()));
        d.extend(self.train.memory.iter().map(|v| v.to_bits()));
        d.extend(self.gp_cost.hyperparams().iter().map(|v| v.to_bits()));
        d.extend(self.gp_mem.hyperparams().iter().map(|v| v.to_bits()));
        d.push(self.tracker.cumulative_cost().value().to_bits());
        d.push(self.tracker.cumulative_regret().value().to_bits());
        d.push(u64::from(self.tracker.violations()));
        // Posterior probe: the fitted state (weights, factorization) is
        // private to the GP, but a prediction at a fixed point pins it.
        if self.train.n > 0 {
            let probe = Matrix::from_vec(
                1,
                self.train.dim,
                self.train.rows[..self.train.dim].to_vec(),
            );
            for gp in [&self.gp_cost, &self.gp_mem] {
                if let Ok(p) = gp.predict(&probe) {
                    d.push(p.mean[0].to_bits());
                    d.push(p.std[0].to_bits());
                }
            }
        }
        // RNG probe on a clone: captures the stream position without
        // advancing the real generator.
        let mut rng = self.rng.clone();
        for _ in 0..4 {
            d.push(rng.next_u64());
        }
        if let Some(round) = &self.round {
            d.push(round.picked.len() as u64);
            d.extend(round.picked.iter().map(|&i| i as u64));
            d.push(round.acquired.len() as u64);
            d.extend(round.mu_c.iter().map(|v| v.to_bits()));
            d.extend(round.sg_c.iter().map(|v| v.to_bits()));
            d.extend(round.mu_m.iter().map(|v| v.to_bits()));
            d.extend(round.sg_m.iter().map(|v| v.to_bits()));
        }
        d.push(self.records.len() as u64);
        for r in &self.records {
            d.push(r.iteration as u64);
            d.push(r.dataset_index as u64);
            d.push(r.cost.value().to_bits());
            d.push(r.memory.value().to_bits());
            d.push(r.rmse_cost.to_bits());
        }
        d
    }

    /// Consume the session into its trajectory. A session abandoned
    /// mid-flight (no stop decision yet) reports `MaxIterations` — it was
    /// externally truncated.
    pub fn into_trajectory(self) -> Trajectory {
        Trajectory {
            strategy: self.kind.label().to_string(),
            n_init: self.n_init,
            initial_rmse_cost: self.initial_rmse_cost,
            initial_rmse_mem: self.initial_rmse_mem,
            records: self.records,
            stop_reason: self.stopped.unwrap_or(StopReason::MaxIterations),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procedure::test_util::synth_dataset;
    use al_gp::FitOptions;

    fn fast_opts() -> AlOptions {
        AlOptions {
            initial_fit: FitOptions {
                n_restarts: 1,
                max_iters: 30,
                ..FitOptions::default()
            },
            refit: FitOptions {
                n_restarts: 0,
                max_iters: 10,
                ..FitOptions::default()
            },
            optimize_every: 8,
            ..AlOptions::default()
        }
    }

    fn drive(config: SessionConfig, dataset: &Dataset) -> Trajectory {
        let (mut state, mut decision) = SessionState::start(config).unwrap();
        while let Decision::Query(q) = decision {
            let obs = Observation::from_dataset(dataset, q.dataset_index);
            (state, decision) = state.step(&obs).unwrap();
        }
        state.into_trajectory()
    }

    #[test]
    fn session_exhausts_pool_like_the_loop() {
        let d = synth_dataset(36);
        let mut rng = StdRng::seed_from_u64(4);
        let p = Partition::random(d.len(), 3, 12, &mut rng);
        let config = SessionConfig::from_partition(&d, &p, StrategyKind::RandUniform, &fast_opts());
        let t = drive(config, &d);
        assert_eq!(t.stop_reason, StopReason::ActiveExhausted);
        assert_eq!(t.len(), p.active.len());
    }

    #[test]
    fn query_carries_selection_time_predictions() {
        let d = synth_dataset(36);
        let mut rng = StdRng::seed_from_u64(5);
        let p = Partition::random(d.len(), 4, 12, &mut rng);
        let config = SessionConfig::from_partition(&d, &p, StrategyKind::MinPred, &fast_opts());
        let (state, decision) = SessionState::start(config).unwrap();
        let q = decision.query().expect("fresh session must query");
        assert_eq!(state.awaiting(), Some(q.dataset_index));
        assert!(q.pred_cost_sigma > 0.0);
        assert!(q.pred_mem_sigma > 0.0);
        assert!(q.pred_cost_log.is_finite());
    }

    #[test]
    fn step_on_stopped_session_is_a_noop_restating_the_stop() {
        let d = synth_dataset(24);
        let mut rng = StdRng::seed_from_u64(6);
        let p = Partition::random(d.len(), 2, 8, &mut rng);
        let opts = AlOptions {
            max_iterations: Some(1),
            ..fast_opts()
        };
        let config = SessionConfig::from_partition(&d, &p, StrategyKind::RandUniform, &opts);
        let (state, decision) = SessionState::start(config).unwrap();
        let q = decision.query().unwrap();
        let obs = Observation::from_dataset(&d, q.dataset_index);
        let (state, decision) = state.step(&obs).unwrap();
        assert_eq!(decision, Decision::Stop(StopReason::MaxIterations));
        let digest_before = state.digest();
        let (state, again) = state.step(&obs).unwrap();
        assert_eq!(again, Decision::Stop(StopReason::MaxIterations));
        assert_eq!(state.digest(), digest_before, "no-op must not mutate");
    }

    #[test]
    #[should_panic(expected = "does not answer the outstanding query")]
    fn mismatched_observation_is_rejected() {
        let d = synth_dataset(24);
        let mut rng = StdRng::seed_from_u64(7);
        let p = Partition::random(d.len(), 2, 8, &mut rng);
        let config = SessionConfig::from_partition(&d, &p, StrategyKind::RandUniform, &fast_opts());
        let (state, decision) = SessionState::start(config).unwrap();
        let q = decision.query().unwrap();
        // Pick a wrong id: any other active candidate.
        let wrong = *p.active.iter().find(|&&i| i != q.dataset_index).unwrap();
        let _ = state.step(&Observation::from_dataset(&d, wrong));
    }

    /// A config whose first initial cost response is NaN, so the initial
    /// fit fails: a panic from `start` shows that a check ran before it.
    fn config_with_nan_response(kind: StrategyKind, opts: &AlOptions) -> SessionConfig {
        let d = synth_dataset(24);
        let mut rng = StdRng::seed_from_u64(10);
        let p = Partition::random(d.len(), 2, 8, &mut rng);
        let mut config = SessionConfig::from_partition(&d, &p, kind, opts);
        config.init_log_cost[0] = f64::NAN;
        config
    }

    #[test]
    fn nan_initial_response_is_a_typed_fit_error() {
        let config = config_with_nan_response(StrategyKind::MaxSigma, &fast_opts());
        assert!(matches!(
            SessionState::start(config),
            Err(GpError::NonFiniteTrainingData { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "window must cover at least two observations")]
    fn stabilization_window_is_checked_before_the_initial_fits() {
        let opts = AlOptions {
            stabilization: Some((1, 0.1)),
            ..fast_opts()
        };
        let _ = SessionState::start(config_with_nan_response(StrategyKind::MaxSigma, &opts));
    }

    #[test]
    #[should_panic(expected = "base must exceed")]
    fn goodness_base_is_checked_before_the_initial_fits() {
        let kind = StrategyKind::RandGoodness { base: 0.5 };
        let _ = SessionState::start(config_with_nan_response(kind, &fast_opts()));
    }

    #[test]
    #[should_panic(expected = "lambda must be in [0, 1]")]
    fn cost_weighted_lambda_is_checked_before_the_initial_fits() {
        let kind = StrategyKind::CostWeightedSigma { lambda: 1.5 };
        let _ = SessionState::start(config_with_nan_response(kind, &fast_opts()));
    }

    #[test]
    fn warm_start_reproduces_injected_hyperparams_as_starting_point() {
        let d = synth_dataset(36);
        let mut rng = StdRng::seed_from_u64(8);
        let p = Partition::random(d.len(), 4, 12, &mut rng);
        let config = SessionConfig::from_partition(&d, &p, StrategyKind::MaxSigma, &fast_opts());
        let (cold, _) = SessionState::start(config.clone()).unwrap();
        let warm_params = cold.warm_hyperparams();
        // A frozen warm refit (0 iterations) keeps the injected values.
        let frozen = AlOptions {
            refit: FitOptions {
                n_restarts: 0,
                max_iters: 0,
                ..FitOptions::default()
            },
            ..fast_opts()
        };
        let config = SessionConfig {
            opts: frozen,
            ..config
        };
        let (warm, _) = SessionState::start_warm(config, Some(&warm_params)).unwrap();
        assert_eq!(warm.warm_hyperparams(), warm_params);
    }

    #[test]
    fn eval_free_session_records_nan_rmse_and_still_runs() {
        let d = synth_dataset(24);
        let mut rng = StdRng::seed_from_u64(9);
        let p = Partition::random(d.len(), 2, 8, &mut rng);
        let opts = AlOptions {
            max_iterations: Some(3),
            ..fast_opts()
        };
        let mut config = SessionConfig::from_partition(&d, &p, StrategyKind::RandUniform, &opts);
        config.eval = None;
        let t = drive(config, &d);
        assert_eq!(t.stop_reason, StopReason::MaxIterations);
        assert_eq!(t.len(), 3);
        assert!(t.records.iter().all(|r| r.rmse_cost.is_nan()));
        assert!(t.initial_rmse_cost.is_nan());
    }

    #[test]
    fn round_predictions_match_a_fresh_predict_bitwise() {
        // Every open round's prediction vectors come from the models'
        // pool caches; a fresh `predict` of what is left of the pool must
        // give the same bits, across border refits, augments, optimize
        // boundaries and multi-pick rounds.
        let d = synth_dataset(48);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (incremental, batch_size) in [(false, 1), (false, 3), (true, 1), (true, 3)] {
            let opts = AlOptions {
                incremental,
                batch_size,
                optimize_every: 4,
                ..fast_opts()
            };
            let mut rng = StdRng::seed_from_u64(21);
            let p = Partition::random(d.len(), 4, 12, &mut rng);
            let config = SessionConfig::from_partition(&d, &p, StrategyKind::MaxSigma, &opts);
            let (mut state, mut decision) = SessionState::start(config).unwrap();
            let mut checked = 0;
            while let Decision::Query(q) = decision {
                let round = state.round.as_ref().unwrap();
                let pc = state.gp_cost.predict(&state.active_rows).unwrap();
                let pm = state.gp_mem.predict(&state.active_rows).unwrap();
                let label = format!("incremental={incremental} batch={batch_size} at {checked}");
                assert_eq!(bits(&round.mu_c), bits(&pc.mean), "{label}");
                assert_eq!(bits(&round.sg_c), bits(&pc.std), "{label}");
                assert_eq!(bits(&round.mu_m), bits(&pm.mean), "{label}");
                assert_eq!(bits(&round.sg_m), bits(&pm.std), "{label}");
                checked += 1;
                let obs = Observation::from_dataset(&d, q.dataset_index);
                (state, decision) = state.step(&obs).unwrap();
            }
            assert_eq!(checked, p.active.len());
        }
    }
}
