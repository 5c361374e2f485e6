//! Cross-validated statistical comparison of the five algorithms: batch
//! statistics plus paired sign tests on shared partitions — the summary
//! judgement the paper's Section V builds toward.

use crate::Ctx;
use al_core::analysis::{format_stats_table, paired_wins, sign_test_p, summarize};
use al_core::StrategyKind;

pub(crate) fn run(ctx: &Ctx) {
    let (args, dataset) = (&ctx.args, ctx.dataset());
    let lmem_log = dataset.memory_limit_log_percentile(0.90);

    let (results, secs) = ctx.batch(StrategyKind::paper_five().to_vec(), 50, lmem_log, 150);
    println!(
        "STRATEGY COMPARISON: {} paired trajectories each, 150 iterations, {secs:.0}s\n",
        args.trajectories
    );

    let stats: Vec<_> = results.iter().map(|(_, ts)| summarize(ts)).collect();
    println!("{}", format_stats_table(&stats));

    // Paired sign tests: RGMA vs every other strategy, on final RMSE and
    // on total regret (smaller is better for both).
    let rgma = &results
        .iter()
        .find(|(k, _)| matches!(k, StrategyKind::Rgma { .. }))
        .expect("RGMA in the lineup")
        .1;
    println!("paired sign tests (RGMA vs ...):");
    println!(
        "{:<16} {:>22} {:>10} {:>22} {:>10}",
        "opponent", "regret wins (R-O)", "p", "RMSE wins (R-O)", "p"
    );
    for (kind, ts) in &results {
        if matches!(kind, StrategyKind::Rgma { .. }) {
            continue;
        }
        let (rw, ow) = paired_wins(rgma, ts, |t| t.total_regret().value());
        let p_regret = sign_test_p(rw, rw + ow);
        let (rw2, ow2) = paired_wins(rgma, ts, |t| {
            t.records.last().map(|r| r.rmse_cost).unwrap_or(f64::NAN)
        });
        let p_rmse = sign_test_p(rw2, rw2 + ow2);
        println!(
            "{:<16} {:>12}-{:<9} {:>10.4} {:>12}-{:<9} {:>10.4}",
            kind.label(),
            rw,
            ow,
            p_regret,
            rw2,
            ow2,
            p_rmse
        );
    }
    println!("\n(wins on shared partitions; smaller metric wins; two-sided exact sign test)");

    // With `--out DIR`, archive every trajectory for offline re-analysis
    // (the paper's published-notebook workflow).
    let Some(dir) = ctx.artifact_dir("trajectories") else {
        return;
    };
    let mut written = 0usize;
    for (kind, ts) in &results {
        for (i, t) in ts.iter().enumerate() {
            let path = dir.join(format!("{}_{i}.csv", kind.label()));
            al_core::io::write_trajectory_csv(t, &path).expect("write trajectory");
            written += 1;
        }
    }
    println!("archived {written} trajectories under {}", dir.display());
}
