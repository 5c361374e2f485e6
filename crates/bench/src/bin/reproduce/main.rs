//! `reproduce` — rebuilds the paper's Table I and Figs. 1–4, the strategy
//! comparison and every ablation: one table of experiments behind one
//! argument parser.
//!
//! ```text
//! reproduce <experiment>|all [--fast] [--threads N] [--trajectories N] [--seed N] [--out DIR] [flags]
//! ```
//!
//! An experiment prints its record to stdout. With `--out DIR` the record
//! also goes to `DIR/<name>_output.txt`, whose first line is the command
//! that wrote it, and the experiment's artifacts go under `DIR` (`fig1`'s
//! PGM images to `DIR/fig1/`, `compare`'s trajectory CSVs to
//! `DIR/trajectories/`); without it nothing is written. `all` runs every
//! experiment that has a committed record, each with that record's
//! arguments followed by the ones given, so `reproduce all --out data`
//! regenerates `data/`. An unknown experiment or flag exits 2 with the
//! usage. Build and run it with `cargo run -p al-bench --release --bin
//! reproduce -- <experiment>|all [flags]`.

use std::cell::RefCell;

thread_local! {
    /// What the running experiment has printed: its record.
    static RECORD: RefCell<String> = const { RefCell::new(String::new()) };
}

// Within this binary `print!` and `println!` are the two below, which
// shadow std's: an experiment prints its record with them as it would to
// stdout, and what it prints is also kept for `--out`.

/// Std's `print!`, also appending the text to the running experiment's
/// record.
macro_rules! print {
    ($($arg:tt)*) => {{
        let text = format!($($arg)*);
        ::std::print!("{text}");
        $crate::RECORD.with_borrow_mut(|record| record.push_str(&text));
    }};
}

/// Std's `println!`, also appending the line to the running experiment's
/// record.
macro_rules! println {
    () => { print!("\n") };
    ($($arg:tt)*) => { print!("{}\n", format_args!($($arg)*)) };
}

mod ablation_batch;
mod ablation_goodness_base;
mod ablation_kernels;
mod ablation_lmem;
mod ablation_local;
mod ablation_log2p;
mod ablation_logtransform;
mod ablation_stopping;
mod ablation_strategies;
mod cli;
mod compare;
mod fig1;
mod fig2;
mod fig3;
mod fig4;
mod report;
mod sweep;
mod table1;

use al_amr_sim::{MachineModel, SimulationConfig, SolverProfile};
use al_bench::data::{DATASET_SEED, N_REPEATS, N_UNIQUE};
use al_core::{run_batch, AlOptions, BatchSpec, StrategyKind, Trajectory};
use al_dataset::{generate_parallel, io, Dataset, GenerateOptions, Partition, Sample, SweepGrid};
use al_gp::{FitOptions, GpModel, KernelKind};
use al_linalg::Matrix;
use al_units::LogMegabytes;
use cli::Args;
use rand::{rngs::StdRng, SeedableRng};
use std::cell::OnceCell;
use std::path::PathBuf;
use std::process::ExitCode;

/// One row of [`EXPERIMENTS`].
struct Experiment {
    name: &'static str,
    /// The experiment's own flags, in [`Args::parse_from`]'s syntax.
    flags: &'static [&'static str],
    /// The arguments `data/<name>_output.txt` was written with; `None`
    /// for an experiment without a record, which `all` skips.
    record: Option<&'static [&'static str]>,
    run: fn(&Ctx),
}

#[rustfmt::skip]
const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "table1", flags: &[], record: Some(&[]), run: table1::run },
    Experiment { name: "fig1", flags: &[], record: Some(&[]), run: fig1::run },
    Experiment { name: "fig2", flags: &[], record: Some(&[]), run: fig2::run },
    Experiment { name: "fig3", flags: &["--paper-lmem"], record: Some(&["--trajectories", "5"]), run: fig3::run },
    Experiment { name: "fig4", flags: &["--paper-lmem", "--weighted"], record: Some(&["--trajectories", "5"]), run: fig4::run },
    Experiment { name: "compare", flags: &[], record: Some(&["--trajectories", "7"]), run: compare::run },
    Experiment { name: "ablation_batch", flags: &[], record: Some(&[]), run: ablation_batch::run },
    Experiment { name: "ablation_goodness_base", flags: &[], record: Some(&[]), run: ablation_goodness_base::run },
    Experiment { name: "ablation_kernels", flags: &[], record: Some(&[]), run: ablation_kernels::run },
    Experiment { name: "ablation_lmem", flags: &[], record: Some(&[]), run: ablation_lmem::run },
    Experiment { name: "ablation_local", flags: &[], record: Some(&[]), run: ablation_local::run },
    Experiment { name: "ablation_log2p", flags: &[], record: Some(&[]), run: ablation_log2p::run },
    Experiment { name: "ablation_logtransform", flags: &[], record: Some(&[]), run: ablation_logtransform::run },
    Experiment { name: "ablation_stopping", flags: &[], record: Some(&[]), run: ablation_stopping::run },
    Experiment { name: "ablation_strategies", flags: &[], record: Some(&[]), run: ablation_strategies::run },
    Experiment {
        name: "sweep",
        flags: &["--csv FILE", "--unique N", "--repeats N", "--small-grid", "--smoke"],
        record: None,
        run: sweep::run,
    },
];

/// What an experiment reads: its arguments and the dataset, which one
/// `reproduce all` loads once for every experiment.
struct Ctx<'a> {
    args: Args,
    dataset: &'a OnceCell<Dataset>,
}

impl Ctx<'_> {
    /// The solver profile `--fast` picks.
    fn profile(&self) -> SolverProfile {
        if self.args.fast {
            SolverProfile::fast()
        } else {
            SolverProfile::paper()
        }
    }

    /// The 600-sample dataset of the chosen solver profile, loaded from
    /// its cache under `data/` at the workspace root (`--fast` uses a
    /// separate file so the two profiles never mix), or generated and
    /// cached on first use.
    fn dataset(&self) -> &Dataset {
        self.dataset.get_or_init(|| {
            let path = dataset_path(self.args.fast);
            io::load_or_generate(&path, || {
                eprintln!("generating the dataset -> {} ...", path.display());
                self.measure(
                    &SweepGrid::default().draw_jobs(N_UNIQUE, N_REPEATS, DATASET_SEED),
                    self.profile(),
                )
            })
            .expect("dataset generation or cache load failed")
        })
    }

    /// Run every job with the real AMR solver, spread across `--threads`
    /// workers.
    fn measure(&self, jobs: &[(SimulationConfig, u32)], profile: SolverProfile) -> Vec<Sample> {
        let opts = GenerateOptions {
            profile,
            machine: MachineModel::default(),
            n_threads: self.args.threads,
        };
        let started = al_bench::clock::now();
        let samples = generate_parallel(jobs, &opts).expect("AMR simulation failed");
        eprintln!("measured in {:.1}s", started.elapsed().as_secs_f64());
        samples
    }

    /// A random split of the dataset into `n_init` Initial and 200 Test
    /// samples (the rest is Active), drawn from `seed`.
    fn partition(&self, n_init: usize, seed: u64) -> Partition {
        let mut rng = StdRng::seed_from_u64(seed);
        Partition::random(self.dataset().len(), n_init, 200, &mut rng)
    }

    /// `--trajectories` paired trajectories of each strategy from
    /// `n_init`-sample Initial partitions under the memory limit
    /// `lmem_log`, each capped at `iterations`, with the seconds they took.
    fn batch(
        &self,
        strategies: Vec<StrategyKind>,
        n_init: usize,
        lmem_log: LogMegabytes,
        iterations: usize,
    ) -> (Vec<(StrategyKind, Vec<Trajectory>)>, f64) {
        let opts = AlOptions {
            mem_limit_log: Some(lmem_log),
            max_iterations: Some(iterations),
            ..AlOptions::default()
        };
        let spec = BatchSpec {
            strategies,
            n_init,
            n_test: 200,
            n_trajectories: self.args.trajectories,
            base_seed: self.args.seed,
            n_threads: self.args.threads,
        };
        let started = al_bench::clock::now();
        let results = run_batch(self.dataset(), &spec, &opts).expect("batch");
        (results, started.elapsed().as_secs_f64())
    }

    /// `DIR/<sub>`, created, when `--out DIR` was given.
    fn artifact_dir(&self, sub: &str) -> Option<PathBuf> {
        let dir = self.args.out.as_ref()?.join(sub);
        std::fs::create_dir_all(&dir).expect("create the artifact directory");
        Some(dir)
    }
}

/// The mean of `f` over `trajectories` (0 for none).
fn mean_of(trajectories: &[Trajectory], f: impl Fn(&Trajectory) -> f64) -> f64 {
    trajectories.iter().map(f).sum::<f64>() / trajectories.len().max(1) as f64
}

/// A GP with `kind`'s kernel (length scale 0.3, noise variance 1e-3) whose
/// hyperparameters `fit_optimized` tuned on `y` at `x`.
fn fit_gp(kind: KernelKind, x: &Matrix, y: &[f64], fit: &FitOptions) -> GpModel {
    let mut gp = GpModel::new(kind.build(0.3), 1e-3);
    gp.fit_optimized(x, y, fit).expect("GP fit");
    gp
}

/// The dataset's cache file under `data/` at the workspace root.
fn dataset_path(fast: bool) -> PathBuf {
    let name = format!("dataset{}.csv", if fast { "_fast" } else { "" });
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../data")
        .join(name)
}

/// One experiment to run: its row, the command that runs it alone, and
/// its parsed arguments.
struct Run {
    experiment: &'static Experiment,
    command: String,
    args: Args,
}

/// The runs `argv` (program name excluded) asks for. `all` admits the
/// common flags only and appends them to each record's arguments.
fn plan(argv: &[String]) -> Result<Vec<Run>, String> {
    let (name, rest) = argv.split_first().ok_or("no experiment given")?;
    let picked: Vec<(&Experiment, &[&str])> = if name == "all" {
        Args::parse_from(rest, &[])?;
        EXPERIMENTS
            .iter()
            .filter_map(|e| Some((e, e.record?)))
            .collect()
    } else {
        let found = EXPERIMENTS.iter().find(|e| e.name == name);
        vec![(found.ok_or(format!("unknown experiment {name:?}"))?, &[])]
    };
    picked
        .into_iter()
        .map(|(experiment, record)| {
            let argv = [
                record.iter().map(|a| a.to_string()).collect(),
                rest.to_vec(),
            ]
            .concat();
            let args = Args::parse_from(&argv, experiment.flags)?;
            let command = format!("reproduce {} {}", experiment.name, argv.join(" "));
            let command = command.trim_end().to_string();
            Ok(Run {
                experiment,
                command,
                args,
            })
        })
        .collect()
}

/// The usage: the command line, then every experiment with its flags.
fn usage() -> String {
    let mut text = format!(
        "usage: reproduce <experiment>|all {}\nexperiments:",
        cli::COMMON
    );
    for e in EXPERIMENTS {
        text.push_str(&format!("\n  {}", e.name));
        for flag in e.flags {
            text.push_str(&format!(" [{flag}]"));
        }
        if e.record.is_none() {
            text.push_str("  (not in all)");
        }
    }
    text
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let runs = match plan(&argv) {
        Ok(runs) => runs,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let dataset = OnceCell::new();
    let announce = runs.len() > 1;
    for run in runs {
        if announce {
            eprintln!("== {}", run.command);
        }
        let ctx = Ctx {
            args: run.args,
            dataset: &dataset,
        };
        RECORD.take();
        (run.experiment.run)(&ctx);
        if let Some(dir) = &ctx.args.out {
            std::fs::create_dir_all(dir).expect("create the --out directory");
            let record = format!("{}\n{}", run.command, RECORD.take());
            let path = dir.join(format!("{}_output.txt", run.experiment.name));
            std::fs::write(path, record).expect("write the record");
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn experiment_names_are_unique() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|f| f.name != e.name),
                "{} twice",
                e.name
            );
            assert_ne!(e.name, "all");
        }
    }

    /// `all` rebuilds exactly the committed records, no more and no fewer.
    #[test]
    fn the_all_set_is_the_committed_record() {
        let data = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../data");
        let mut records: Vec<String> = std::fs::read_dir(&data)
            .expect("list data/")
            .map(|entry| entry.expect("data/ entry").file_name())
            .filter_map(|name| {
                let name = name.to_str()?;
                Some(name.strip_suffix("_output.txt")?.to_string())
            })
            .collect();
        records.sort();
        let mut in_all: Vec<String> = EXPERIMENTS
            .iter()
            .filter(|e| e.record.is_some())
            .map(|e| e.name.to_string())
            .collect();
        in_all.sort();
        assert_eq!(in_all, records);
    }

    /// Each record's first line is the command that wrote it, and `all`
    /// plans exactly that command.
    #[test]
    fn every_record_s_arguments_parse() {
        let runs = plan(&argv(&["all", "--out", "data"])).expect("all parses");
        assert_eq!(runs.len(), 15);
        let data = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../data");
        for run in &runs {
            let record =
                std::fs::read_to_string(data.join(format!("{}_output.txt", run.experiment.name)))
                    .expect("read the record");
            assert_eq!(record.lines().next(), Some(run.command.as_str()));
            let own = run
                .experiment
                .record
                .expect("all runs recorded experiments");
            assert_eq!(
                run.command,
                ["reproduce", run.experiment.name]
                    .iter()
                    .chain(own)
                    .chain(&["--out", "data"])
                    .copied()
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            assert_eq!(run.args.out, Some(PathBuf::from("data")));
        }
        let compare = runs.iter().find(|r| r.experiment.name == "compare");
        assert_eq!(compare.map(|r| r.args.trajectories), Some(7));
        // The common flags follow the record's, so the last one wins.
        let runs = plan(&argv(&["all", "--trajectories", "2"])).expect("all parses");
        assert!(runs.iter().all(|r| r.args.trajectories == 2));
    }

    #[test]
    fn unknown_experiments_and_flags_are_rejected() {
        for bad in [
            &[][..],
            &["fig5"],
            &["--fast"],
            &["table1", "--nope"],
            &["table1", "--paper-lmem"],
            &["all", "--weighted"],
            &["sweep", "--csv"],
        ] {
            assert!(plan(&argv(bad)).is_err(), "{bad:?}");
        }
        let runs = plan(&argv(&["fig4", "--weighted", "--seed", "3"])).expect("fig4 parses");
        assert_eq!(runs[0].command, "reproduce fig4 --weighted --seed 3");
        assert!(runs[0].args.has_flag("--weighted"));
    }

    #[test]
    fn usage_lists_every_experiment_and_its_flags() {
        let text = usage();
        for e in EXPERIMENTS {
            assert!(text.contains(&format!("\n  {}", e.name)), "{text}");
        }
        assert!(text.contains("fig4 [--paper-lmem] [--weighted]"), "{text}");
        assert!(text.contains("[--out DIR]"), "{text}");
    }

    #[test]
    fn dataset_paths_differ_per_profile() {
        let a = dataset_path(false);
        let b = dataset_path(true);
        assert_ne!(a, b);
        assert!(a.ends_with("data/dataset.csv"));
        assert!(b.ends_with("data/dataset_fast.csv"));
    }

    #[test]
    fn print_keeps_what_it_prints() {
        RECORD.take();
        print!("a{}", 1);
        println!();
        println!("b {:>3}", 2);
        assert_eq!(RECORD.take(), "a1\nb   2\n");
    }
}
