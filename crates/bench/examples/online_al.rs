//! Online active learning served through the session core: a
//! [`SessionStore`] owns the AL state, and this driver is a pure client —
//! it asks for a decision, launches the *live* AMR solver for the queried
//! configuration, and reports the measurement back. No GP, strategy, or
//! stopping logic lives out here; that is the point of the split.
//!
//! A second campaign on the same grid then warm-starts from the
//! hyperparameters the first campaign left in the store's LRU (the
//! paper's "use the old model's parameters as a starting point", applied
//! across sessions — the contrast the `warm_start_hit` perf scenario
//! measures).
//!
//! Run: `cargo run --release -p al-bench --example online_al`

// Examples abort on failure by design, so they opt out of the
// workspace's clippy panic lints.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use al_amr_sim::{run_simulation, MachineModel, SimulationConfig, SolverProfile};
use al_core::{
    AlOptions, Decision, Observation, SessionConfig, SessionStore, StrategyKind, WarmKey,
};
use al_dataset::transform::log10_response;
use al_dataset::{FeatureScaler, SweepGrid};
use al_linalg::Matrix;
use al_units::{LogMegabytes, NodeHours};

/// Memory budget per process, MB: candidates predicted above it are
/// filtered out (RGMA's safety rule).
const MEM_LIMIT_MB: f64 = 3.0;

/// Iteration cap for the first campaign.
const ITERATIONS: usize = 12;

/// Configurations run up front to seed the models (the paper's "verify
/// correctness on a new platform" first runs).
const N_BOOTSTRAP: usize = 3;

/// The experimenter's side of the loop: the candidate grid, the live
/// solver, and the running bill. Everything the session core does *not*
/// own.
struct Lab {
    configs: Vec<SimulationConfig>,
    scaler: FeatureScaler,
    machine: MachineModel,
    profile: SolverProfile,
    total_cost: NodeHours,
}

impl Lab {
    fn new() -> Lab {
        // Candidate pool: the small sweep grid (32 configurations).
        let configs = SweepGrid::small().all_configs();
        let scaler = FeatureScaler::fit(&configs.iter().map(|c| c.features()).collect::<Vec<_>>());
        Lab {
            configs,
            scaler,
            machine: MachineModel::default(),
            profile: SolverProfile::smoke(),
            total_cost: NodeHours::new(0.0),
        }
    }

    /// Launch simulation `id` and package the measurement as the session
    /// observation. The session never sees the solver — only this.
    fn run_and_observe(&mut self, id: usize) -> Observation {
        let config = &self.configs[id];
        let outcome = run_simulation(config, self.profile, &self.machine, 0).expect("simulation");
        self.total_cost += outcome.cost_node_hours;
        Observation {
            dataset_index: id,
            cost: outcome.cost_node_hours,
            memory: outcome.memory_mb,
            features_scaled: self.scaler.transform(&config.features()).to_vec(),
            log_cost: log10_response(outcome.cost_node_hours.value()),
            log_mem: log10_response(outcome.memory_mb.value()),
        }
    }

    /// Build a session config: bootstrap runs become the initial labelled
    /// pool, the rest of the grid the candidate pool. `eval: None` is the
    /// serving deployment — no held-out split exists, records carry NaN
    /// RMSE.
    fn session_config(&mut self, opts: AlOptions) -> SessionConfig {
        let mut init_rows = Vec::new();
        let mut init_log_cost = Vec::new();
        let mut init_log_mem = Vec::new();
        for id in 0..N_BOOTSTRAP {
            let obs = self.run_and_observe(id);
            init_rows.extend_from_slice(&obs.features_scaled);
            init_log_cost.push(obs.log_cost);
            init_log_mem.push(obs.log_mem);
        }
        let candidate_ids: Vec<usize> = (N_BOOTSTRAP..self.configs.len()).collect();
        let cand_rows: Vec<f64> = candidate_ids
            .iter()
            .flat_map(|&i| self.scaler.transform(&self.configs[i].features()))
            .collect();
        SessionConfig {
            kind: StrategyKind::Rgma { base: 10.0 },
            opts,
            init_features: Matrix::from_vec(N_BOOTSTRAP, 5, init_rows),
            init_log_cost,
            init_log_mem,
            candidate_features: Matrix::from_vec(candidate_ids.len(), 5, cand_rows),
            candidate_ids,
            eval: None,
        }
    }

    /// Drive one session to completion through the store, printing each
    /// query's predictions next to the measured outcome.
    fn drive_session(&mut self, store: &SessionStore, id: u64, mut decision: Decision) {
        println!("iter  p  mx  maxlevel    r0  rhoin   pred-cost  actual-cost  mem(MB)  safe?");
        let mut iter = 0usize;
        while let Decision::Query(query) = decision {
            let obs = self.run_and_observe(query.dataset_index);
            let config = &self.configs[query.dataset_index];
            let safe_actual = obs.memory.value() < MEM_LIMIT_MB;
            println!(
                "{iter:>4} {:>2} {:>3} {:>9} {:>5.2} {:>6.2}  {:>10.4}  {:>11.4}  {:>7.3}  {}",
                config.p,
                config.mx,
                config.maxlevel,
                config.r0,
                config.rhoin,
                10f64.powf(query.pred_cost_log),
                obs.cost,
                obs.memory,
                if safe_actual { "yes" } else { "VIOLATION" }
            );
            decision = store.observe(id, &obs).expect("observe");
            iter += 1;
        }
        let trajectory = store.finish(id).expect("finish");
        println!(
            "session {id}: {} iterations, stopped: {:?}\n",
            trajectory.records.len(),
            trajectory.stop_reason
        );
    }
}

fn main() {
    let mut lab = Lab::new();
    let opts = AlOptions {
        max_iterations: Some(ITERATIONS),
        mem_limit_log: Some(LogMegabytes::new(MEM_LIMIT_MB.log10())),
        ..AlOptions::default()
    };
    println!("memory limit: {MEM_LIMIT_MB} MB per process\n");

    // The store owns the session; the key ties its fitted hyperparameters
    // to this (grid, kernel) pair in the warm-start LRU.
    let store = SessionStore::new(1);
    let key = WarmKey::new("sweep-small", "RBF");
    let config = lab.session_config(opts.clone());
    let decision = store
        .create(0, config, Some(key.clone()))
        .expect("create session");
    lab.drive_session(&store, 0, decision);

    // Second campaign, same grid: `create` finds the cached hyperparameters
    // under the key and opens with the cheap refit schedule instead of the
    // multi-start initial optimization.
    assert!(store.warm_keys().contains(&key), "first campaign cached");
    println!(
        "warm-started second campaign (cached keys: {:?})",
        store
            .warm_keys()
            .iter()
            .map(|k| k.grid.clone())
            .collect::<Vec<_>>()
    );
    let opts2 = AlOptions {
        max_iterations: Some(4),
        seed: 7,
        ..opts
    };
    let config = lab.session_config(opts2);
    let decision = store
        .create(1, config, Some(key))
        .expect("create warm session");
    lab.drive_session(&store, 1, decision);

    println!(
        "total cost of both campaigns: {:.3} node-hours",
        lab.total_cost
    );
}
