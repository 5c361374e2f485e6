//! Fig. 3: cumulative regret vs AL iteration under a memory limit
//! `L_mem` = 95% of the largest log10 memory response.
//!
//! Expected shape: memory-oblivious algorithms keep paying regret whenever
//! they pick a violating job, so their CR curves keep climbing; RGMA's
//! curve flattens after the early iterations (it learns to avoid the
//! violating region), and larger Initial partitions (`n_init`) lower
//! RGMA's total regret because the memory model starts better informed.
//!
//! Run: `cargo run -p al-bench --release --bin fig3
//!       [--fast] [--trajectories N] [--seed N] [--threads N] [--paper-lmem]`

use al_bench::cli::Args;
use al_bench::data::paper_dataset;
use al_bench::report::format_curves;
use al_core::trajectory::mean_curve;
use al_core::{run_batch, AlOptions, BatchSpec, StrategyKind};

fn main() {
    let args = Args::parse(&["--paper-lmem"]);
    let dataset = paper_dataset(args.fast, args.threads);
    // The paper's "95% of the largest log memory" leaves only ~1% of our
    // (shorter-tailed) dataset violating; the 90th-percentile limit pins a
    // 10% violating fraction so the regret dynamics are clearly visible.
    // Pass --paper-lmem for the literal paper definition.
    let lmem_log = if args.has_flag("--paper-lmem") {
        dataset.memory_limit_log(0.95)
    } else {
        dataset.memory_limit_log_percentile(0.90)
    };
    println!(
        "FIG 3: cumulative regret vs iteration (L_mem = {:.3} log10 MB = {:.2} MB, {:.1}% of jobs violate)\n",
        lmem_log,
        lmem_log.to_megabytes(),
        100.0 * dataset.violating_fraction(lmem_log)
    );

    let strategies = StrategyKind::paper_five().to_vec();
    for n_init in [1usize, 50, 100] {
        let opts = AlOptions {
            mem_limit_log: Some(lmem_log),
            max_iterations: Some(200),
            ..AlOptions::default()
        };
        let spec = BatchSpec {
            strategies: strategies.clone(),
            n_init,
            n_test: 200,
            n_trajectories: args.trajectories,
            base_seed: args.seed,
            n_threads: args.threads,
        };
        let started = al_bench::clock::now();
        let results = run_batch(&dataset, &spec, &opts).expect("batch");
        println!(
            "--- n_init = {n_init} ({} trajectories per strategy, {:.0}s) ---",
            args.trajectories,
            started.elapsed().as_secs_f64()
        );
        let labels: Vec<&str> = results.iter().map(|(k, _)| k.label()).collect();
        let curves: Vec<Vec<f64>> = results
            .iter()
            .map(|(_, ts)| mean_curve(ts, |r| r.cumulative_regret.value()))
            .collect();
        println!(
            "{}",
            format_curves(&labels, &curves, 20).expect("labels match curves")
        );
        for (kind, ts) in &results {
            let mean_regret: f64 =
                ts.iter().map(|t| t.total_regret().value()).sum::<f64>() / ts.len().max(1) as f64;
            let mean_violations: f64 =
                ts.iter().map(|t| t.violations() as f64).sum::<f64>() / ts.len().max(1) as f64;
            let stopped_early = ts
                .iter()
                .filter(|t| t.stop_reason == al_core::StopReason::AllCandidatesRefused)
                .count();
            println!(
                "{:<14} mean CR = {:8.3} node-hours, mean violations = {:5.1}, early stops = {}",
                kind.label(),
                mean_regret,
                mean_violations,
                stopped_early
            );
        }
        println!();
    }
}
