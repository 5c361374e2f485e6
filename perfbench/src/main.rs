//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <fig3_batch|serve_sessions|amr_sweep> --seed <n>
//!           --seconds <s> --trace <0|1> --data <dataset.csv> --trace-out <dir>
//! perfbench --write-reference [--workload <name>] --data <dataset.csv>
//! ```
//!
//! Prints one JSON document on stdout: the contract result (`correct`,
//! `attempted`, `failed`, `metrics`), notes, the drift probe and host
//! fingerprint, and for a traced run its exact counts. `run.py` prints the
//! result as the final line. Exits 1 when an output fails its reference
//! check, 2 on a usage or set-up error.

use al_bench::json::Json;
use al_bench::perf::Fingerprint;
use perfbench::common::{self, Outcome};
use perfbench::trace::Trace;
use perfbench::{fig3, probe, serve, sweep};
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    data: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    write_reference: bool,
}

/// The flags a benchmark run needs, all given.
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    data: PathBuf,
    trace_out: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: None,
            seconds: None,
            trace: None,
            data: None,
            trace_out: None,
            write_reference: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            if flag == "--write-reference" {
                args.write_reference = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
            match flag.as_str() {
                "--workload" => args.workload = Some(value),
                "--seed" => args.seed = Some(value.parse().map_err(|e| bad(&e))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| bad(&e))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad(&"must be positive"));
                    }
                    args.seconds = Some(s);
                }
                "--trace" => {
                    args.trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    })
                }
                "--data" => args.data = Some(PathBuf::from(value)),
                "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(args)
    }

    fn data(&self) -> Result<&PathBuf, String> {
        self.data
            .as_ref()
            .ok_or_else(|| "--data is required".into())
    }

    fn run_args(self) -> Result<RunArgs, String> {
        let missing = |flag: &str| format!("{flag} is required");
        Ok(RunArgs {
            data: self.data()?.clone(),
            workload: self.workload.ok_or_else(|| missing("--workload"))?,
            seed: self.seed.ok_or_else(|| missing("--seed"))?,
            seconds: self.seconds.ok_or_else(|| missing("--seconds"))?,
            trace: self.trace.ok_or_else(|| missing("--trace"))?,
            trace_out: self.trace_out.ok_or_else(|| missing("--trace-out"))?,
        })
    }
}

/// Set-up repetitions before the timed phase; the last one's inputs run.
const SETUP_BEFORE: usize = 5;
/// Set-up repetitions after it, so `setup_s` samples the host at both
/// ends of the run rather than one phase of it.
const SETUP_AFTER: usize = 4;

/// Set up, run untraced or traced, and set up again; returns the outcome,
/// the trace (traced runs) and every set-up time in seconds.
///
/// Fastest, not median: one set-up is a single-threaded burst of 0.3 to
/// 80 ms, and on a shared 2-vCPU host a process lands in a contended
/// stretch often enough that most of its repetitions run 1.5–1.8× slow.
/// The per-run median then flips between two modes; the minimum of nine
/// repetitions spread over two host phases does not.
fn measure<I>(
    args: &RunArgs,
    setup: impl Fn() -> Result<I, String>,
    run: impl FnOnce(&I) -> Outcome,
    traced: impl FnOnce(&I) -> (Outcome, Trace),
) -> Result<(Outcome, Option<Trace>, Vec<f64>), String> {
    let mut times = Vec::new();
    let inputs = common::timed_setup(SETUP_BEFORE, &setup, &mut times)?;
    let (out, trace) = if args.trace {
        let (out, trace) = traced(&inputs);
        (out, Some(trace))
    } else {
        (run(&inputs), None)
    };
    drop(inputs);
    if !args.trace {
        common::timed_setup(SETUP_AFTER, &setup, &mut times)?;
    }
    Ok((out, trace, times))
}

fn run_workload(
    args: &RunArgs,
    origin: Instant,
) -> Result<(Outcome, Option<Trace>, Vec<f64>), String> {
    let (seed, seconds, data) = (args.seed, args.seconds, &args.data);
    match args.workload.as_str() {
        fig3::NAME => measure(
            args,
            || fig3::setup(data, fig3::ITERATIONS),
            |i| fig3::run(i, seed, seconds),
            |i| fig3::run_traced(i, seed, origin),
        ),
        serve::NAME => measure(
            args,
            || serve::setup(data),
            |i| serve::run(i, seed, seconds),
            |i| serve::run_traced(i, seed, serve::TRACED_ROUNDS, origin),
        ),
        sweep::NAME => measure(
            args,
            sweep::setup,
            |i| sweep::run(i, seed, seconds),
            |i| sweep::run_traced(i, seed, sweep::TRACED_ROUNDS, origin),
        ),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn run_benchmark(args: &RunArgs, origin: Instant) -> Result<i32, String> {
    let name = &args.workload;
    let (mut out, trace, setup_times) = run_workload(args, origin)?;
    if !args.trace {
        let fastest = setup_times.iter().copied().fold(f64::INFINITY, f64::min);
        out.metrics
            .push(common::Metric::new("setup_s", fastest, "s"));
        out.note(
            "setup_reps_s",
            Json::Arr(setup_times.into_iter().map(Json::Num).collect()),
        );
        out.metrics.push(common::Metric::new(
            "peak_rss_mb",
            probe::peak_rss_mb()?,
            "MB",
        ));
    }
    // After the peak-RSS read, so the probe's buffer is not counted.
    let ref_kernel_ms = probe::ref_kernel_ms();
    if args.trace {
        out.metrics.push(common::Metric::new(
            "bench.ref_kernel_ms",
            ref_kernel_ms,
            "ms",
        ));
    }
    if let Some(trace) = &trace {
        let dir = &args.trace_out;
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{name}-seed{}.tsv", args.seed));
        trace
            .write_tsv(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        out.note("trace_file", Json::Str(path.display().to_string()));
    }

    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            let entry = obj(vec![
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.into())),
            ]);
            (m.name.to_string(), entry)
        })
        .collect();
    let fp = Fingerprint::current();
    let doc = obj(vec![
        (
            "result",
            obj(vec![
                ("correct", Json::Bool(out.correct)),
                ("attempted", Json::Num(out.attempted as f64)),
                ("failed", Json::Num(out.failed as f64)),
                ("metrics", Json::Obj(metrics)),
            ]),
        ),
        ("notes", Json::Obj(out.notes)),
        (
            "probe",
            obj(vec![
                ("bench.ref_kernel_ms", Json::Num(ref_kernel_ms)),
                (
                    "fingerprint",
                    obj(vec![
                        ("os", Json::Str(fp.os)),
                        ("arch", Json::Str(fp.arch)),
                        ("cores", Json::Num(fp.cores as f64)),
                        ("debug_assertions", Json::Bool(fp.debug_assertions)),
                    ]),
                ),
            ]),
        ),
        (
            "exact_counts",
            Json::Obj(
                out.exact_counts
                    .into_iter()
                    .map(|(k, v)| (k, Json::Num(v as f64)))
                    .collect(),
            ),
        ),
    ]);
    print!("{}", doc.render());
    Ok(if out.correct { 0 } else { 1 })
}

/// Print `reference.txt` lines for one workload, or all of them.
fn write_reference(args: &Args) -> Result<(), String> {
    let want = |name: &str| args.workload.as_deref().is_none_or(|w| w == name);
    println!("# workload class digest (perfbench --write-reference)");
    if want(sweep::NAME) {
        let inputs = sweep::setup()?;
        for class in 0..sweep::CLASSES {
            let d = sweep::class_digest(&inputs, class)?;
            println!("{}", common::reference_line(sweep::NAME, class, d));
        }
    }
    if want(serve::NAME) {
        let inputs = serve::setup(args.data()?)?;
        for class in 0..serve::CLASSES {
            let d = serve::class_digest(&inputs, class)?;
            println!("{}", common::reference_line(serve::NAME, class, d));
        }
    }
    if want(fig3::NAME) {
        let inputs = fig3::setup(args.data()?, fig3::ITERATIONS)?;
        for class in 0..fig3::CLASSES {
            let d = fig3::class_digest(&inputs, class)?;
            println!("{}", common::reference_line(fig3::NAME, class, d));
        }
    }
    Ok(())
}

fn main() {
    let origin = Instant::now();
    let result = Args::parse().and_then(|args| {
        if args.write_reference {
            write_reference(&args).map(|()| 0)
        } else {
            run_benchmark(&args.run_args()?, origin)
        }
    });
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
