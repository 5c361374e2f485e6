//! Fig. 3: cumulative regret vs AL iteration under a memory limit
//! `L_mem`: by default the 90th percentile of log10 memory; `--paper-lmem`
//! gives the paper's 95% of the largest log10 memory response.
//!
//! Expected shape: memory-oblivious algorithms keep paying regret whenever
//! they pick a violating job, so their CR curves keep climbing; RGMA's
//! curve flattens after the early iterations (it learns to avoid the
//! violating region), and larger Initial partitions (`n_init`) lower
//! RGMA's total regret because the memory model starts better informed.

use crate::report::format_curves;
use crate::{mean_of, Ctx};
use al_core::trajectory::mean_curve;
use al_core::StrategyKind;
use al_units::LogMegabytes;

/// The memory limit of Figs. 3 and 4.
pub(crate) fn lmem(ctx: &Ctx) -> LogMegabytes {
    let dataset = ctx.dataset();
    // The paper's "95% of the largest log memory" leaves only ~1% of our
    // (shorter-tailed) dataset violating; the 90th-percentile limit pins a
    // 10% violating fraction so the regret dynamics are clearly visible.
    // Pass --paper-lmem for the literal paper definition.
    if ctx.args.has_flag("--paper-lmem") {
        dataset.memory_limit_log(0.95)
    } else {
        dataset.memory_limit_log_percentile(0.90)
    }
}

pub(crate) fn run(ctx: &Ctx) {
    let (args, dataset) = (&ctx.args, ctx.dataset());
    let lmem_log = lmem(ctx);
    println!(
        "FIG 3: cumulative regret vs iteration (L_mem = {:.3} log10 MB = {:.2} MB, {:.1}% of jobs violate)\n",
        lmem_log,
        lmem_log.to_megabytes(),
        100.0 * dataset.violating_fraction(lmem_log)
    );

    for n_init in [1usize, 50, 100] {
        let (results, secs) = ctx.batch(StrategyKind::paper_five().to_vec(), n_init, lmem_log, 200);
        println!(
            "--- n_init = {n_init} ({} trajectories per strategy, {secs:.0}s) ---",
            args.trajectories
        );
        let labels: Vec<&str> = results.iter().map(|(k, _)| k.label()).collect();
        let curves: Vec<Vec<f64>> = results
            .iter()
            .map(|(_, ts)| mean_curve(ts, |r| r.cumulative_regret.value()))
            .collect();
        println!("{}", format_curves(&labels, &curves, 20));
        for (kind, ts) in &results {
            let mean_regret = mean_of(ts, |t| t.total_regret().value());
            let mean_violations = mean_of(ts, |t| t.violations() as f64);
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
