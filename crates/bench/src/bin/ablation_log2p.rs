//! Node-count spacing ablation (paper Section V-D, first suggestion):
//! "train GPR models using this exponent as a feature such that the point
//! with 2³ processors is spaced equally from 2² as it is from 2⁴".
//!
//! Fits the cost and memory models on identical training indices with the
//! linear `p` axis and with `log2(p)`, and compares Test RMSE.
//!
//! Run: `cargo run -p al-bench --release --bin ablation_log2p [--fast]`

use al_bench::cli::Args;
use al_bench::data::paper_dataset;
use al_core::metrics::rmse_nonlog;
use al_dataset::{Dataset, FeatureMap, Partition};
use al_gp::{FitOptions, GpModel, KernelKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rmse_pair(dataset: &Dataset, partition: &Partition, seed: u64) -> (f64, f64) {
    let fit = FitOptions {
        n_restarts: 2,
        seed,
        ..FitOptions::default()
    };
    let x_train = dataset.features_scaled(&partition.init);
    let x_test = dataset.features_scaled(&partition.test);

    let mut gp_cost = GpModel::new(KernelKind::Rbf.build(0.3), 1e-3);
    gp_cost
        .fit_optimized(&x_train, &dataset.log_cost(&partition.init), &fit)
        .expect("cost fit");
    let rc = rmse_nonlog(
        &gp_cost.predict(&x_test).expect("predict").mean,
        &dataset.raw_cost(&partition.test),
    );

    let mut gp_mem = GpModel::new(KernelKind::Rbf.build(0.3), 1e-3);
    gp_mem
        .fit_optimized(&x_train, &dataset.log_memory(&partition.init), &fit)
        .expect("memory fit");
    let rm = rmse_nonlog(
        &gp_mem.predict(&x_test).expect("predict").mean,
        &dataset.raw_memory(&partition.test),
    );
    (rc, rm)
}

fn main() {
    let args = Args::parse(&[]);
    let linear = paper_dataset(args.fast, args.threads);
    let log2p = Dataset::with_map(linear.samples().to_vec(), FeatureMap { log2_p: true });

    println!("LOG2(P) FEATURE ABLATION (n_init = 100, 200 test samples)\n");
    println!(
        "{:>6} {:>8} {:>14} {:>14} {:>14} {:>14}",
        "split", "axis", "cost RMSE", "mem RMSE", "", ""
    );
    let mut wins_cost = 0usize;
    let mut wins_mem = 0usize;
    const SPLITS: u64 = 5;
    for split in 0..SPLITS {
        let mut rng = StdRng::seed_from_u64(args.seed + split);
        let partition = Partition::random(linear.len(), 100, 200, &mut rng);
        let (lc, lm) = rmse_pair(&linear, &partition, args.seed + split);
        let (gc, gm) = rmse_pair(&log2p, &partition, args.seed + split);
        println!("{split:>6} {:>8} {lc:>14.4} {lm:>14.4}", "linear");
        println!("{split:>6} {:>8} {gc:>14.4} {gm:>14.4}", "log2(p)");
        if gc < lc {
            wins_cost += 1;
        }
        if gm < lm {
            wins_mem += 1;
        }
    }
    println!("\nlog2(p) wins {wins_cost}/{SPLITS} splits on cost, {wins_mem}/{SPLITS} on memory");
    println!(
        "expected: the exponent axis helps most for the memory model, whose\n\
         1/p structure is poorly captured by a linear node-count feature."
    );
}
