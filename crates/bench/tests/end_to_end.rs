//! Integration tests spanning the whole stack: AMR solver → machine model
//! → dataset → GP models → active learning → metrics.

// Integration tests run outside #[cfg(test)], so the in-tests carve-outs
// from clippy.toml don't reach them; tests may panic and compare exact
// copied floats freely.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use al_amr_sim::{MachineModel, SolverProfile};
use al_core::{run_batch, run_trajectory, AlOptions, BatchSpec, StrategyKind};
use al_dataset::{generate_parallel, Dataset, GenerateOptions, Partition, SweepGrid};
use al_gp::FitOptions;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Build a small but real dataset by running the AMR solver.
fn small_real_dataset() -> Dataset {
    let jobs = SweepGrid::small().draw_jobs(30, 6, 7);
    let samples = generate_parallel(
        &jobs,
        &GenerateOptions {
            profile: SolverProfile::smoke(),
            machine: MachineModel::default(),
            n_threads: 0,
        },
    )
    .expect("dataset generation");
    Dataset::new(samples)
}

fn fast_opts() -> AlOptions {
    AlOptions {
        initial_fit: FitOptions {
            n_restarts: 1,
            max_iters: 30,
            ..FitOptions::default()
        },
        refit: FitOptions {
            n_restarts: 0,
            max_iters: 8,
            ..FitOptions::default()
        },
        optimize_every: 8,
        ..AlOptions::default()
    }
}

#[test]
fn offline_al_learns_real_amr_responses() {
    let dataset = small_real_dataset();
    assert_eq!(dataset.len(), 36);

    let mut rng = StdRng::seed_from_u64(3);
    let partition = Partition::random(dataset.len(), 4, 12, &mut rng);
    let t = run_trajectory(
        &dataset,
        &partition,
        StrategyKind::RandGoodness { base: 10.0 },
        &fast_opts(),
    )
    .expect("trajectory");

    assert_eq!(t.len(), partition.active.len(), "pool exhausted");
    let final_rmse = t.records.last().unwrap().rmse_cost;
    assert!(
        final_rmse < t.initial_rmse_cost,
        "AL must reduce cost RMSE: {} -> {}",
        t.initial_rmse_cost,
        final_rmse
    );
    // Costs recorded match dataset rows exactly.
    for r in &t.records {
        assert_eq!(r.cost, dataset.sample(r.dataset_index).cost_node_hours);
        assert_eq!(r.memory, dataset.sample(r.dataset_index).memory_mb);
    }
}

#[test]
fn rgma_beats_oblivious_strategies_on_regret() {
    let dataset = small_real_dataset();
    // Limit at the 70th percentile of the memory distribution so a
    // substantial fraction of the pool violates it (the tiny test dataset
    // has a short tail, unlike the paper's 600-sample one).
    let mems: Vec<f64> = dataset
        .samples()
        .iter()
        .map(|s| s.memory_mb.value())
        .collect();
    let lmem_log = al_units::LogMegabytes::new(al_linalg::stats::quantile(&mems, 0.7).log10());
    // Compare at an equal selection budget (paper Fig. 3 plots CR per
    // iteration). Without a cap every strategy exhausts the 20-sample pool
    // and final CR is order-independent — all strategies tie exactly.
    let opts = AlOptions {
        mem_limit_log: Some(lmem_log),
        max_iterations: Some(12),
        ..fast_opts()
    };
    let spec = BatchSpec {
        strategies: vec![StrategyKind::RandUniform, StrategyKind::Rgma { base: 10.0 }],
        // Eight initial samples give the memory GP enough signal for its
        // violation predictions to beat chance, and averaging eight
        // trajectories keeps the comparison out of seed-noise territory on
        // a dataset this small.
        n_init: 8,
        n_test: 10,
        n_trajectories: 8,
        base_seed: 17,
        n_threads: 1,
    };
    let results = run_batch(&dataset, &spec, &opts).expect("batch");
    let mean_regret = |ts: &Vec<al_core::Trajectory>| {
        ts.iter().map(|t| t.total_regret().value()).sum::<f64>() / ts.len() as f64
    };
    let uniform_cr = mean_regret(&results[0].1);
    let rgma_cr = mean_regret(&results[1].1);
    assert!(
        uniform_cr > 0.0,
        "the memory-oblivious baseline must hit violations"
    );
    assert!(
        rgma_cr < uniform_cr,
        "RGMA mean CR {rgma_cr} must undercut RandUniform {uniform_cr}"
    );
}

#[test]
fn dataset_roundtrips_through_csv() {
    let dataset = small_real_dataset();
    let mut path = std::env::temp_dir();
    path.push(format!("al_e2e_roundtrip_{}.csv", std::process::id()));
    al_dataset::io::write_csv(dataset.samples(), &path).expect("write");
    let back = al_dataset::io::read_csv(&path).expect("read");
    assert_eq!(dataset.samples(), back.as_slice());
    std::fs::remove_file(&path).ok();
}

#[test]
fn repeated_measurements_have_consistent_features() {
    // The 6 repeats reference configs among the 30 unique ones and differ
    // only in their (noisy) responses.
    let dataset = small_real_dataset();
    let samples = dataset.samples();
    let uniques = &samples[..30];
    for repeat in &samples[30..] {
        let twin = uniques
            .iter()
            .find(|s| s.config == repeat.config)
            .expect("repeat must reference a unique config");
        assert_ne!(twin.cost_node_hours, repeat.cost_node_hours);
        let ratio = twin.cost_node_hours / repeat.cost_node_hours;
        assert!(ratio > 0.5 && ratio < 2.0, "noise is bounded: {ratio}");
    }
}

#[test]
fn cost_grows_with_maxlevel_in_real_data() {
    // The physical sanity check behind the whole study: deeper refinement
    // must be systematically more expensive.
    let dataset = small_real_dataset();
    let mean_cost = |ml: u8| {
        let v: Vec<f64> = dataset
            .samples()
            .iter()
            .filter(|s| s.config.maxlevel == ml)
            .map(|s| s.cost_node_hours.value())
            .collect();
        assert!(!v.is_empty());
        al_linalg::stats::mean(&v)
    };
    // The smoke profile simulates a very short burst, compressing the
    // contrast; the full paper profile separates levels by ~4x.
    assert!(
        mean_cost(4) > 1.5 * mean_cost(3),
        "maxlevel 4 mean {} vs maxlevel 3 mean {}",
        mean_cost(4),
        mean_cost(3)
    );
}
