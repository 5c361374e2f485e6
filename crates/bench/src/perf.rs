//! Deterministic perf harness: the `BENCH_*.json` trajectory.
//!
//! A registry of named, fixed-seed scenarios covers every hot path of the
//! workspace — Cholesky factorization and the O(n²) bordered extension vs.
//! the O(n³) refit it replaces, GP fit/predict/augment, local-GP selection
//! over a 10⁵-candidate grid, the AMR solver step at 1 vs. all threads, and
//! one end-to-end RGMA sweep iteration. Each scenario runs warmup calls,
//! then N timed repeats (auto-batched so a sample spans at least a few
//! milliseconds), and records robust statistics (min / quartiles / median)
//! plus a machine fingerprint and a schema version into one
//! `BENCH_<group>.json` file per group at the workspace root.
//!
//! `compare` flags a regression only when the median moved by more than the
//! noise threshold AND the interquartile ranges of the two runs do not
//! overlap — a single noisy sample cannot fail CI, and a real slowdown
//! cannot hide inside the IQR.
//!
//! Wall-clock reads live entirely inside `crates/bench`, the alint L6
//! `wall_clock_approved` carve-out: timings annotate the BENCH trajectory
//! only and never feed priced results (DESIGN §9, machine.rs contract).

// Hot path: every truncating `as` cast carries a checked reason.
#![warn(clippy::cast_possible_truncation)]

use crate::error::BenchError;
use crate::json::{parse, Json};
use al_linalg::{stats::Summary, Matrix};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Version stamp written into (and required from) every BENCH file.
pub const SCHEMA_VERSION: u64 = 1;

/// Default regression threshold for `compare`: relative median change
/// beyond which (together with disjoint IQRs) a scenario is flagged.
pub const DEFAULT_THRESHOLD: f64 = 0.10;

/// Scenario size preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Reduced problem sizes: CI smoke runs and debug builds.
    Quick,
    /// The full trajectory point (paper-scale problem sizes).
    Full,
}

impl Tier {
    /// Parse a CLI spelling.
    pub fn from_label(s: &str) -> Option<Tier> {
        match s {
            "quick" => Some(Tier::Quick),
            "full" => Some(Tier::Full),
            _ => None,
        }
    }

    /// Canonical label (as written into the JSON).
    pub fn label(self) -> &'static str {
        match self {
            Tier::Quick => "quick",
            Tier::Full => "full",
        }
    }

    fn warmup(self) -> usize {
        match self {
            Tier::Quick => 1,
            Tier::Full => 2,
        }
    }

    fn repeats(self) -> usize {
        match self {
            Tier::Quick => 5,
            Tier::Full => 10,
        }
    }

    /// Minimum wall-clock span of one recorded sample; faster bodies are
    /// batched (`inner` calls per sample) until they reach it.
    fn min_sample_s(self) -> f64 {
        match self {
            Tier::Quick => 2e-3,
            Tier::Full => 10e-3,
        }
    }
}

/// Host identity recorded with every report so cross-machine comparisons
/// are visible as such.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// `available_parallelism` (1 when unknown).
    pub cores: usize,
    /// Whether the binary was built with debug assertions (dev profile) —
    /// dev/release timings are never comparable.
    pub debug_assertions: bool,
}

impl Fingerprint {
    /// Fingerprint of the running host/build.
    pub fn current() -> Fingerprint {
        Fingerprint {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            debug_assertions: cfg!(debug_assertions),
        }
    }
}

/// Robust per-scenario timing statistics, in seconds per call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustStats {
    /// Fastest sample.
    pub min_s: f64,
    /// First quartile.
    pub q1_s: f64,
    /// Median.
    pub median_s: f64,
    /// Third quartile.
    pub q3_s: f64,
    /// Slowest sample.
    pub max_s: f64,
    /// Arithmetic mean.
    pub mean_s: f64,
}

impl RobustStats {
    /// Summarize a non-empty sample vector.
    pub fn of(samples: &[f64]) -> RobustStats {
        let s = Summary::of(samples);
        RobustStats {
            min_s: s.min,
            q1_s: s.q1,
            median_s: s.median,
            q3_s: s.q3,
            max_s: s.max,
            mean_s: s.mean,
        }
    }

    /// Interquartile range.
    pub fn iqr_s(&self) -> f64 {
        self.q3_s - self.q1_s
    }
}

/// One measured scenario inside a report.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Registry name, e.g. `cholesky_factor_n400`.
    pub name: String,
    /// Warmup calls executed before sampling.
    pub warmup: usize,
    /// Recorded samples.
    pub repeats: usize,
    /// Calls batched into each sample (1 for slow bodies).
    pub inner: usize,
    /// Timing statistics.
    pub stats: RobustStats,
}

/// One `BENCH_<group>.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`] when produced by this build).
    pub schema_version: u64,
    /// Scenario group (`linalg`, `gp`, `amr`, `al`).
    pub group: String,
    /// Tier label the run used.
    pub tier: String,
    /// Producing host/build.
    pub fingerprint: Fingerprint,
    /// Measured scenarios, in registry order.
    pub scenarios: Vec<ScenarioResult>,
}

impl BenchReport {
    /// File name this report is stored under (`BENCH_<group>.json`).
    pub fn file_name(group: &str) -> String {
        format!("BENCH_{group}.json")
    }

    /// Serialize to the on-disk JSON schema.
    pub fn to_json(&self) -> Json {
        let mut root = BTreeMap::new();
        root.insert(
            "schema_version".to_string(),
            Json::Num(self.schema_version as f64),
        );
        root.insert("group".to_string(), Json::Str(self.group.clone()));
        root.insert("tier".to_string(), Json::Str(self.tier.clone()));
        let mut fp = BTreeMap::new();
        fp.insert("os".to_string(), Json::Str(self.fingerprint.os.clone()));
        fp.insert("arch".to_string(), Json::Str(self.fingerprint.arch.clone()));
        fp.insert(
            "cores".to_string(),
            Json::Num(self.fingerprint.cores as f64),
        );
        fp.insert(
            "debug_assertions".to_string(),
            Json::Bool(self.fingerprint.debug_assertions),
        );
        root.insert("fingerprint".to_string(), Json::Obj(fp));
        let scenarios = self
            .scenarios
            .iter()
            .map(|s| {
                let mut o = BTreeMap::new();
                o.insert("name".to_string(), Json::Str(s.name.clone()));
                o.insert("warmup".to_string(), Json::Num(s.warmup as f64));
                o.insert("repeats".to_string(), Json::Num(s.repeats as f64));
                o.insert("inner".to_string(), Json::Num(s.inner as f64));
                let mut st = BTreeMap::new();
                st.insert("min_s".to_string(), Json::Num(s.stats.min_s));
                st.insert("q1_s".to_string(), Json::Num(s.stats.q1_s));
                st.insert("median_s".to_string(), Json::Num(s.stats.median_s));
                st.insert("q3_s".to_string(), Json::Num(s.stats.q3_s));
                st.insert("max_s".to_string(), Json::Num(s.stats.max_s));
                st.insert("mean_s".to_string(), Json::Num(s.stats.mean_s));
                o.insert("stats".to_string(), Json::Obj(st));
                Json::Obj(o)
            })
            .collect();
        root.insert("scenarios".to_string(), Json::Arr(scenarios));
        Json::Obj(root)
    }

    /// Parse and schema-validate a report from JSON text.
    pub fn parse_str(text: &str) -> Result<BenchReport, BenchError> {
        Self::from_json(&parse(text)?)
    }

    /// Convert a parsed JSON document, validating every schema field.
    pub fn from_json(doc: &Json) -> Result<BenchReport, BenchError> {
        let schema_version = get_uint(doc, "schema_version")? as u64;
        if schema_version != SCHEMA_VERSION {
            return Err(schema_err(
                "schema_version",
                &format!("expected {SCHEMA_VERSION}, found {schema_version}"),
            ));
        }
        let group = get_str(doc, "group")?;
        let tier = get_str(doc, "tier")?;
        let fp = doc
            .get("fingerprint")
            .ok_or_else(|| schema_err("fingerprint", "missing"))?;
        let fingerprint = Fingerprint {
            os: get_str(fp, "fingerprint.os")?,
            arch: get_str(fp, "fingerprint.arch")?,
            cores: get_uint(fp, "fingerprint.cores")?,
            debug_assertions: fp
                .get("debug_assertions")
                .and_then(Json::as_bool)
                .ok_or_else(|| schema_err("fingerprint.debug_assertions", "missing bool"))?,
        };
        let arr = doc
            .get("scenarios")
            .and_then(Json::as_arr)
            .ok_or_else(|| schema_err("scenarios", "missing array"))?;
        let mut scenarios = Vec::with_capacity(arr.len());
        for (i, s) in arr.iter().enumerate() {
            let ctx = format!("scenarios[{i}]");
            let name = get_str(s, &ctx)?;
            let stats_obj = s
                .get("stats")
                .ok_or_else(|| schema_err(&format!("{ctx}.stats"), "missing"))?;
            let stats = RobustStats {
                min_s: get_finite(stats_obj, &ctx, "min_s")?,
                q1_s: get_finite(stats_obj, &ctx, "q1_s")?,
                median_s: get_finite(stats_obj, &ctx, "median_s")?,
                q3_s: get_finite(stats_obj, &ctx, "q3_s")?,
                max_s: get_finite(stats_obj, &ctx, "max_s")?,
                mean_s: get_finite(stats_obj, &ctx, "mean_s")?,
            };
            let ordered = stats.min_s <= stats.q1_s
                && stats.q1_s <= stats.median_s
                && stats.median_s <= stats.q3_s
                && stats.q3_s <= stats.max_s
                && stats.min_s >= 0.0;
            if !ordered {
                return Err(schema_err(
                    &format!("{ctx}.stats"),
                    "quantiles must be ordered and non-negative",
                ));
            }
            scenarios.push(ScenarioResult {
                name,
                warmup: get_uint(s, &format!("{ctx}.warmup"))?,
                repeats: get_uint(s, &format!("{ctx}.repeats"))?,
                inner: get_uint(s, &format!("{ctx}.inner"))?,
                stats,
            });
        }
        Ok(BenchReport {
            schema_version,
            group,
            tier,
            fingerprint,
            scenarios,
        })
    }
}

fn schema_err(field: &str, detail: &str) -> BenchError {
    BenchError::Schema {
        field: field.to_string(),
        detail: detail.to_string(),
    }
}

fn get_str(doc: &Json, field: &str) -> Result<String, BenchError> {
    // `field` may be a dotted context path whose last segment is the key.
    let key = field.rsplit('.').next().unwrap_or(field);
    let key = if key.contains('[') { "name" } else { key };
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| schema_err(field, "missing string"))
}

fn get_uint(doc: &Json, field: &str) -> Result<usize, BenchError> {
    let key = field.rsplit('.').next().unwrap_or(field);
    let v = doc
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| schema_err(field, "missing number"))?;
    let rounded = v.round();
    if !(0.0..=(usize::MAX as f64)).contains(&v) || (v - rounded).abs() > 0.0 {
        return Err(schema_err(field, "must be a non-negative integer"));
    }
    #[expect(
        clippy::cast_possible_truncation,
        reason = "an integer range-checked against usize::MAX above"
    )]
    let n = rounded as usize;
    Ok(n)
}

fn get_finite(stats: &Json, ctx: &str, key: &str) -> Result<f64, BenchError> {
    let v = stats
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| schema_err(&format!("{ctx}.stats.{key}"), "missing number"))?;
    if !v.is_finite() {
        return Err(schema_err(&format!("{ctx}.stats.{key}"), "must be finite"));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Scenario registry
// ---------------------------------------------------------------------------

/// A named benchmark body. Setup runs lazily (only when the scenario is
/// selected), producing the closure the harness times.
pub struct Scenario {
    /// Group this scenario reports under.
    pub group: &'static str,
    /// Unique name within the registry.
    pub name: String,
    setup: Box<dyn FnOnce() -> Box<dyn FnMut()>>,
}

impl Scenario {
    fn new(
        group: &'static str,
        name: String,
        setup: impl FnOnce() -> Box<dyn FnMut()> + 'static,
    ) -> Scenario {
        Scenario {
            group,
            name,
            setup: Box::new(setup),
        }
    }
}

/// The registry's group names, in report order.
pub fn group_names() -> [&'static str; 4] {
    ["linalg", "gp", "amr", "al"]
}

/// Deterministic pseudo-random training data on the unit cube with a
/// smooth multi-dimensional response.
fn training_data(n: usize, d: usize, seed: u64) -> (Matrix, Vec<f64>) {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n * d);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f64> = (0..d).map(|_| rng.random::<f64>()).collect();
        y.push(row.iter().map(|x| (3.0 * x).sin()).sum::<f64>());
        data.extend(row);
    }
    (Matrix::from_vec(n, d, data), y)
}

/// SPD kernel-style matrix: RBF gram of fixed pseudo-random 1-D points
/// with a unit diagonal boost (O(n²) to build, O(n³) to factor — setup
/// never dominates the scenario).
fn spd_gram(n: usize, seed: u64) -> Matrix {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let pts: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * 4.0).collect();
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        a[(i, i)] = 2.0;
        for j in (i + 1)..n {
            let d = pts[i] - pts[j];
            let v = (-0.5 * d * d).exp();
            a[(i, j)] = v;
            a[(j, i)] = v;
        }
    }
    a
}

fn linalg_scenarios(tier: Tier) -> Vec<Scenario> {
    let sizes: &[usize] = match tier {
        Tier::Quick => &[200, 400],
        Tier::Full => &[200, 400, 800, 1600],
    };
    // The factorization curve, timed once per n on the blocked path
    // `Cholesky::new` takes, with the unblocked reference loop beside it at
    // the naive sizes: each pair pins the cache-tiling speedup of the
    // panel-packed `Cholesky` (DESIGN §13), while the in-crate parity tests
    // pin that both paths produce identical bits. The quick tier keeps
    // n = 1600 so the committed trajectory records the ratio at paper
    // scale.
    let (factor_sizes, naive_sizes): (&[usize], &[usize]) = match tier {
        Tier::Quick => (&[200, 400, 1600], &[400, 1600]),
        Tier::Full => (&[200, 400, 800, 1600], &[400, 800, 1600]),
    };
    let mut out = Vec::new();
    for &n in factor_sizes {
        out.push(Scenario::new(
            "linalg",
            format!("cholesky_factor_n{n}"),
            move || {
                let a = spd_gram(n, 11);
                Box::new(move || {
                    let ch = al_linalg::Cholesky::new(&a).expect("SPD gram factors");
                    std::hint::black_box(ch.log_det());
                })
            },
        ));
        if naive_sizes.contains(&n) {
            out.push(Scenario::new(
                "linalg",
                format!("cholesky_factor_naive_n{n}"),
                move || {
                    let a = spd_gram(n, 11);
                    Box::new(move || {
                        let ch = al_linalg::Cholesky::new_reference(&a).expect("SPD gram factors");
                        std::hint::black_box(ch.log_det());
                    })
                },
            ));
        }
    }
    for &n in sizes {
        // The augment-vs-refit pair: extending an n-point factor by one
        // bordered row (O(n²), includes the clone the GP augment path
        // performs) against refactoring the (n+1)-point matrix (O(n³)).
        out.push(Scenario::new(
            "linalg",
            format!("cholesky_extend_n{n}"),
            move || {
                let a = spd_gram(n + 1, 13);
                let head: Vec<usize> = (0..n).collect();
                let an = a.select_rows(&head);
                let an = {
                    // Leading n×n principal block.
                    let mut block = Matrix::zeros(n, n);
                    for i in 0..n {
                        block.row_mut(i).copy_from_slice(&an.row(i)[..n]);
                    }
                    block
                };
                let border: Vec<f64> = (0..n).map(|i| a[(i, n)]).collect();
                let corner = a[(n, n)];
                let base = al_linalg::Cholesky::new(&an).expect("SPD principal block factors");
                Box::new(move || {
                    let mut ch = base.clone();
                    ch.extend(&border, corner).expect("bordered matrix is SPD");
                    std::hint::black_box(ch.dim());
                })
            },
        ));
        out.push(Scenario::new(
            "linalg",
            format!("cholesky_refit_n{n}"),
            move || {
                let a = spd_gram(n + 1, 13);
                Box::new(move || {
                    let ch = al_linalg::Cholesky::new(&a).expect("SPD gram factors");
                    std::hint::black_box(ch.dim());
                })
            },
        ));
    }
    // The explicit inverse the LML gradient builds once per Adam step, at
    // the largest model the paper's Fig. 3 loop fits (n = 250).
    out.push(Scenario::new(
        "linalg",
        "cholesky_inverse_n250".to_string(),
        || {
            let ch = al_linalg::Cholesky::new(&spd_gram(250, 19)).expect("SPD gram factors");
            Box::new(move || {
                let inv = ch.inverse().expect("inverse of a factor");
                std::hint::black_box(inv.as_slice()[0]);
            })
        },
    ));
    out
}

fn gp_scenarios(tier: Tier) -> Vec<Scenario> {
    use al_gp::{FitOptions, GpModel, KernelKind, LocalGpModel};
    let fit_sizes: &[usize] = match tier {
        Tier::Quick => &[100, 200],
        Tier::Full => &[200, 400],
    };
    let augment_n = match tier {
        Tier::Quick => 200,
        Tier::Full => 400,
    };
    let mut out = Vec::new();
    for &n in fit_sizes {
        out.push(Scenario::new("gp", format!("gp_fit_n{n}"), move || {
            let (x, y) = training_data(n, 5, 21);
            let mut gp = GpModel::new(KernelKind::Rbf.build(0.3), 1e-3);
            Box::new(move || {
                gp.fit(&x, &y).expect("synthetic data fits");
                std::hint::black_box(gp.n_train());
            })
        }));
    }
    let predict_n = *fit_sizes.last().unwrap_or(&200);
    out.push(Scenario::new(
        "gp",
        format!("gp_predict_n{predict_n}_q100"),
        move || {
            let (x, y) = training_data(predict_n, 5, 22);
            let (xq, _) = training_data(100, 5, 23);
            let mut gp = GpModel::new(KernelKind::Rbf.build(0.3), 1e-3);
            gp.fit(&x, &y).expect("synthetic data fits");
            Box::new(move || {
                let p = gp.predict(&xq).expect("prediction succeeds");
                std::hint::black_box(p.mean.len());
            })
        },
    ));
    // One round-opening predict over the Active pool at the shapes the
    // repository benchmark runs: the Fig. 3 loop's largest model over its
    // 400 candidates, and a serving session's model over its 380.
    for (n, q) in [(250usize, 400usize), (50, 380)] {
        out.push(Scenario::new(
            "gp",
            format!("gp_predict_n{n}_q{q}"),
            move || {
                let (x, y) = training_data(n, 5, 31);
                let (xq, _) = training_data(q, 5, 32);
                let mut gp = GpModel::new(KernelKind::Rbf.build(0.3), 1e-3);
                gp.fit(&x, &y).expect("synthetic data fits");
                Box::new(move || {
                    let p = gp.predict(&xq).expect("prediction succeeds");
                    std::hint::black_box(p.mean.len());
                })
            },
        ));
    }
    out.push(Scenario::new(
        "gp",
        format!("gp_augment_n{augment_n}"),
        move || {
            let (x, y) = training_data(augment_n, 5, 24);
            let (xn, yn) = training_data(1, 5, 25);
            let mut gp = GpModel::new(KernelKind::Rbf.build(0.3), 1e-3);
            gp.fit(&x, &y).expect("synthetic data fits");
            Box::new(move || {
                let mut m = gp.clone();
                m.augment(xn.row(0), yn[0]).expect("augment succeeds");
                std::hint::black_box(m.n_train());
            })
        },
    ));
    out.push(Scenario::new(
        "gp",
        format!("gp_refit_n{augment_n}"),
        move || {
            let (x, y) = training_data(augment_n, 5, 24);
            let (xn, yn) = training_data(1, 5, 25);
            let x_next = x.vstack(&xn).expect("same width");
            let mut y_next = y;
            y_next.push(yn[0]);
            let mut gp = GpModel::new(KernelKind::Rbf.build(0.3), 1e-3);
            Box::new(move || {
                gp.fit(&x_next, &y_next).expect("synthetic data fits");
                std::hint::black_box(gp.n_train());
            })
        },
    ));
    // The hyperparameter optimizer's inner loop: one analytic LML gradient
    // (dominated by the explicit K_y⁻¹) at the start and the end of the
    // paper's Fig. 3 model sizes, and a whole warm-start retraining step.
    for n in [50usize, 250] {
        out.push(Scenario::new(
            "gp",
            format!("lml_gradient_n{n}"),
            move || {
                let (x, y) = training_data(n, 5, 29);
                let mut gp = GpModel::new(KernelKind::Rbf.build(0.3), 1e-3);
                gp.fit(&x, &y).expect("synthetic data fits");
                Box::new(move || {
                    let g = gp.lml_gradient().expect("fitted model has a gradient");
                    std::hint::black_box(g[0]);
                })
            },
        ));
    }
    out.push(Scenario::new(
        "gp",
        "gp_fit_optimized_n250".to_string(),
        || {
            let (x, y) = training_data(250, 5, 30);
            let template = GpModel::new(KernelKind::Rbf.build(0.3), 1e-3);
            let opts = FitOptions::warm_start_only();
            Box::new(move || {
                // Every sample starts from the same hyperparameters, so each
                // call runs the same Adam trajectory.
                let mut gp = template.clone();
                gp.fit_optimized(&x, &y, &opts)
                    .expect("synthetic data fits");
                std::hint::black_box(gp.n_train());
            })
        },
    ));
    // Local-GP selection over a grown candidate pool: route + batch-predict
    // 10⁵ query points through a 4-region partitioned model, then take the
    // max-σ candidate — the selection hot path at "Active emulation of
    // computer codes with GPs" scale (PAPERS.md, 1912.06552).
    let candidates = 100_000;
    out.push(Scenario::new(
        "gp",
        format!("local_select_{}k", candidates / 1000),
        move || {
            let (x, y) = training_data(200, 5, 26);
            let template = GpModel::new(KernelKind::Rbf.build(0.3), 1e-3);
            let mut local = LocalGpModel::new(template, 0, 4);
            local
                .fit_optimized(&x, &y, &FitOptions::warm_start_only())
                .expect("local model fits");
            let (grid, _) = training_data(candidates, 5, 27);
            Box::new(move || {
                let p = local.predict(&grid).expect("grid prediction succeeds");
                let pick = p
                    .std
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i);
                std::hint::black_box(pick);
            })
        },
    ));
    // Thread-scaling pairs for the PR 9 parallel GP kernels: results are
    // bitwise identical at any count (the index-addressed slot contract),
    // so each pair measures pure wall-clock scaling — 1 worker vs. all
    // cores; the all-cores variant only engages on multi-core runners.
    for (name, n_threads) in [
        ("kernel_matrix_threads_1", 1usize),
        ("kernel_matrix_threads_all", 0),
    ] {
        out.push(Scenario::new("gp", name.to_string(), move || {
            let (x, _) = training_data(800, 5, 28);
            let mut gp = GpModel::new(KernelKind::Rbf.build(0.3), 1e-3);
            gp.set_n_threads(n_threads);
            Box::new(move || {
                let k = gp.noisy_kernel_matrix(&x);
                std::hint::black_box(k.as_slice()[0]);
            })
        }));
    }
    // Local-GP selection again, but with the region fan-out across the
    // pool — the 10⁵-candidate routing loop is the AL selection hot path
    // this PR parallelizes.
    for (name, n_threads) in [
        ("local_select_threads_1", 1usize),
        ("local_select_threads_all", 0),
    ] {
        out.push(Scenario::new("gp", name.to_string(), move || {
            let (x, y) = training_data(200, 5, 26);
            let template = GpModel::new(KernelKind::Rbf.build(0.3), 1e-3);
            let mut local = LocalGpModel::new(template, 0, 4);
            let opts = FitOptions {
                n_threads,
                ..FitOptions::warm_start_only()
            };
            local
                .fit_optimized(&x, &y, &opts)
                .expect("local model fits");
            let (grid, _) = training_data(candidates, 5, 27);
            Box::new(move || {
                let p = local.predict(&grid).expect("grid prediction succeeds");
                let pick = p
                    .std
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i);
                std::hint::black_box(pick);
            })
        }));
    }
    out
}

fn amr_scenarios(tier: Tier) -> Vec<Scenario> {
    use al_amr_sim::{AmrSolver, SimulationConfig, SolverProfile};
    let maxlevel = match tier {
        Tier::Quick => 3,
        Tier::Full => 4,
    };
    let config = SimulationConfig {
        p: 8,
        mx: 16,
        maxlevel,
        r0: 0.35,
        rhoin: 0.1,
    };
    // 1 worker vs. all cores on the same subcycled hierarchy — results are
    // bitwise identical by the PR 3 contract, so the pair measures pure
    // wall-clock scaling of the within-level sweep pool.
    let mut out: Vec<Scenario> = [
        ("solver_step_threads_1", 1usize),
        ("solver_step_threads_all", 0),
    ]
    .into_iter()
    .map(|(name, n_threads)| {
        Scenario::new("amr", name.to_string(), move || {
            let profile = SolverProfile {
                n_threads,
                ..SolverProfile::bench()
            };
            let mut solver = AmrSolver::new(&config, profile);
            Box::new(move || {
                let dt = solver.step().expect("bench hierarchy steps");
                std::hint::black_box(dt);
            })
        })
    })
    .collect();
    // The flop kernel alone: one x-sweep of a single patch at three of the
    // paper's patch sizes, so per-cell time is median / mx². Each call
    // advances the same patch; its ghost cells stay fixed, and the state
    // stays smooth over the few thousand calls a run makes.
    for mx in [8usize, 16, 32] {
        out.push(Scenario::new(
            "amr",
            format!("patch_sweep_x_mx{mx}"),
            move || {
                use al_amr_sim::euler::conservative;
                use al_amr_sim::patch::{Patch, Side, SweepScratch};
                let mut patch = Patch::new(0, 0, 0, mx);
                patch.fill_with(&|x, y| {
                    conservative(
                        1.0 + 0.5 * (6.0 * x).sin() * (4.0 * y).cos(),
                        0.3,
                        -0.1,
                        1.0,
                    )
                });
                for side in Side::ALL {
                    patch.extrapolate_boundary(side);
                }
                let mut scratch = SweepScratch::default();
                let dt = 0.2 * patch.h() / patch.max_wave_speed();
                Box::new(move || {
                    std::hint::black_box(patch.sweep_x(dt, &mut scratch));
                })
            },
        ));
    }
    out
}

/// Synthetic AMR-shaped dataset (no solver runs) for the end-to-end AL
/// scenario: cost/memory follow the refinement-level and patch-size power
/// laws of the real response surface.
fn synthetic_dataset(n: usize) -> al_dataset::Dataset {
    use al_amr_sim::SimulationConfig;
    use al_dataset::{Dataset, Sample};
    let samples: Vec<Sample> = (0..n)
        .map(|i| {
            let config = SimulationConfig {
                p: [4u32, 8, 16, 32][i % 4],
                mx: [8usize, 16, 24, 32][(i / 4) % 4],
                maxlevel: [3u8, 4, 5, 6][(i / 16) % 4],
                r0: 0.2 + 0.3 * ((i % 7) as f64 / 6.0),
                rhoin: 0.02 + 0.48 * ((i % 5) as f64 / 4.0),
            };
            let work = 4f64.powi(config.maxlevel as i32 - 3) * (config.mx as f64 / 8.0).powi(2);
            Sample {
                config,
                wall_seconds: al_units::Seconds::new(10.0 * work),
                cost_node_hours: al_units::NodeHours::new(0.01 * work),
                memory_mb: al_units::Megabytes::new(0.4 * work / config.p as f64 + 0.01),
            }
        })
        .collect();
    Dataset::new(samples)
}

fn al_scenarios() -> Vec<Scenario> {
    use al_core::{
        step, AlOptions, Decision, Observation, SelectionContext, SessionConfig, SessionState,
        StrategyKind,
    };
    use al_dataset::Partition;
    use al_gp::FitOptions;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    // One selection per paper strategy over a 400-candidate pool (the
    // paper's Active-set size), from fixed synthetic μ/σ vectors: the
    // `core.strategy.select` layer without the GP predict in front of it.
    let mut out: Vec<Scenario> = StrategyKind::paper_five()
        .into_iter()
        .map(|kind| {
            let name = format!("strategy_select_{}_q400", kind.label().to_lowercase());
            Scenario::new("al", name, move || {
                let mut rng = StdRng::seed_from_u64(1);
                let mut draw = |lo: f64, hi: f64| -> Vec<f64> {
                    (0..400).map(|_| rng.random_range(lo..hi)).collect()
                };
                let (mu_cost, sigma_cost) = (draw(-3.0, 1.0), draw(0.01, 0.5));
                let (mu_mem, sigma_mem) = (draw(-2.0, 1.5), draw(0.01, 0.5));
                let strategy = kind.build();
                let mut rng = StdRng::seed_from_u64(2);
                Box::new(move || {
                    let ctx = SelectionContext {
                        mu_cost: &mu_cost,
                        sigma_cost: &sigma_cost,
                        mu_mem: &mu_mem,
                        sigma_mem: &sigma_mem,
                        mem_limit_log: Some(al_units::LogMegabytes::new(1.0)),
                    };
                    std::hint::black_box(strategy.select(&ctx, &mut rng));
                })
            })
        })
        .collect();
    // One pure session transition on a mid-flight RGMA session — the
    // serving-layer latency unit behind SessionStore::observe (ingest the
    // observation, close the round: incremental augment + refit decision +
    // pool re-prediction + next selection).
    out.push(Scenario::new("al", "session_step".to_string(), move || {
        let dataset = synthetic_dataset(120);
        let mut rng = StdRng::seed_from_u64(33);
        let partition = Partition::random(dataset.len(), 10, 40, &mut rng);
        let opts = AlOptions {
            initial_fit: FitOptions {
                n_restarts: 0,
                max_iters: 10,
                ..FitOptions::default()
            },
            refit: FitOptions {
                n_restarts: 0,
                max_iters: 5,
                ..FitOptions::default()
            },
            mem_limit_log: Some(dataset.memory_limit_log(0.95)),
            ..AlOptions::default()
        };
        let config = SessionConfig::from_partition(
            &dataset,
            &partition,
            StrategyKind::Rgma { base: 10.0 },
            &opts,
        );
        let (mut state, mut decision) =
            SessionState::start(config).expect("synthetic session starts");
        // Advance to a mid-flight state so the timed step is representative
        // (a few points past the initial design, pool still large).
        for _ in 0..3 {
            let q = decision.query().expect("session still mid-flight");
            let obs = Observation::from_dataset(&dataset, q.dataset_index);
            let (s, d) = step(state, &obs).expect("synthetic step succeeds");
            state = s;
            decision = d;
        }
        let q = decision.query().expect("session still mid-flight");
        let obs = Observation::from_dataset(&dataset, q.dataset_index);
        Box::new(move || {
            let (s, d) = step(state.clone(), &obs).expect("synthetic step succeeds");
            match d {
                Decision::Query(next) => std::hint::black_box(next.dataset_index),
                Decision::Stop(_) => std::hint::black_box(s.iteration()),
            };
        })
    }));
    // Store contention: several workers hammer a small SessionStore with a
    // create → observe-to-stop → finish mix over distinct ids sharing one
    // warm key. Sessions land on all shards and every call crosses the
    // shard and warm locks, so this prices the locking discipline itself —
    // the L7 contract that GP steps run outside the guards is what keeps
    // this scenario scaling instead of serializing on a shard.
    out.push(Scenario::new(
        "al",
        "store_contention".to_string(),
        move || {
            use al_core::{SessionStore, WarmKey};
            use al_parallel::WorkerPool;
            let dataset = synthetic_dataset(120);
            let mut rng = StdRng::seed_from_u64(37);
            let partition = Partition::random(dataset.len(), 10, 40, &mut rng);
            let opts = AlOptions {
                max_iterations: Some(2),
                initial_fit: FitOptions {
                    n_restarts: 0,
                    max_iters: 10,
                    ..FitOptions::default()
                },
                refit: FitOptions {
                    n_restarts: 0,
                    max_iters: 5,
                    ..FitOptions::default()
                },
                mem_limit_log: Some(dataset.memory_limit_log(0.95)),
                ..AlOptions::default()
            };
            let config = SessionConfig::from_partition(
                &dataset,
                &partition,
                StrategyKind::Rgma { base: 10.0 },
                &opts,
            );
            let pool = WorkerPool::new(4);
            let store = SessionStore::new(4);
            Box::new(move || {
                let jobs: Vec<_> = (0..pool.n_workers() as u64)
                    .map(|worker| {
                        let store = &store;
                        let dataset = &dataset;
                        let config = config.clone();
                        move || {
                            // Each worker owns its ids (the per-session caller
                            // contract); ids differ mod n_shards so the workers
                            // spread over every shard. Four sessions per worker
                            // keep one timed call long enough that scheduler
                            // noise on oversubscribed runners averages out.
                            for k in 0..4u64 {
                                let id = worker + 4 * k;
                                let mut decision = store
                                    .create(
                                        id,
                                        config.clone(),
                                        Some(WarmKey::new("bench-grid", "RBF")),
                                    )
                                    .expect("session creates");
                                while let Some(q) = decision.query() {
                                    let obs = Observation::from_dataset(dataset, q.dataset_index);
                                    decision = store.observe(id, &obs).expect("session observes");
                                }
                                let t = store.finish(id).expect("session finishes");
                                std::hint::black_box(t.records.len());
                            }
                        }
                    })
                    .collect();
                pool.run(jobs);
                std::hint::black_box(store.len());
            })
        },
    ));
    // Warm-start contrast: opening a session with cached hyperparameters
    // from the LRU (short refit polish) vs. a cold open (full restarted
    // optimization) — the quantity the SessionStore's warm cache saves.
    for (name, use_warm) in [("warm_start_cold", false), ("warm_start_hit", true)] {
        out.push(Scenario::new("al", name.to_string(), move || {
            let dataset = synthetic_dataset(120);
            let mut rng = StdRng::seed_from_u64(35);
            let partition = Partition::random(dataset.len(), 10, 40, &mut rng);
            let opts = AlOptions {
                initial_fit: FitOptions {
                    n_restarts: 1,
                    max_iters: 40,
                    ..FitOptions::default()
                },
                refit: FitOptions {
                    n_restarts: 0,
                    max_iters: 5,
                    ..FitOptions::default()
                },
                mem_limit_log: Some(dataset.memory_limit_log(0.95)),
                ..AlOptions::default()
            };
            let config = SessionConfig::from_partition(
                &dataset,
                &partition,
                StrategyKind::Rgma { base: 10.0 },
                &opts,
            );
            let warm = use_warm.then(|| {
                let (donor, _) = SessionState::start(config.clone()).expect("donor session starts");
                donor.warm_hyperparams()
            });
            Box::new(move || {
                let (s, d) = SessionState::start_warm(config.clone(), warm.as_ref())
                    .expect("synthetic session starts");
                std::hint::black_box((s.iteration(), d.query().is_some()));
            })
        }));
    }
    out
}

/// Build the full registry for a tier, optionally restricted to `groups`
/// (empty slice = every group).
pub fn registry(tier: Tier, groups: &[String]) -> Result<Vec<Scenario>, BenchError> {
    for g in groups {
        if !group_names().contains(&g.as_str()) {
            return Err(BenchError::UnknownGroup(g.clone()));
        }
    }
    let wanted = |g: &str| groups.is_empty() || groups.iter().any(|w| w == g);
    let mut out = Vec::new();
    if wanted("linalg") {
        out.extend(linalg_scenarios(tier));
    }
    if wanted("gp") {
        out.extend(gp_scenarios(tier));
    }
    if wanted("amr") {
        out.extend(amr_scenarios(tier));
    }
    if wanted("al") {
        out.extend(al_scenarios());
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// Time one scenario: warmup, calibrate an inner batch count so each
/// sample spans at least `min_sample_s`, then record `repeats` samples of
/// seconds-per-call.
fn measure(scenario: Scenario, tier: Tier) -> ScenarioResult {
    let name = scenario.name;
    let mut body = (scenario.setup)();
    let warmup = tier.warmup();
    let repeats = tier.repeats();
    for _ in 0..warmup {
        body();
    }
    let started = Instant::now();
    body();
    let once = started.elapsed().as_secs_f64().max(1e-9);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "ceiled and clamped to [1, 1024] first, so the cast is exact"
    )]
    let inner = ((tier.min_sample_s() / once).ceil().clamp(1.0, 1024.0)) as usize;
    let mut samples = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let started = Instant::now();
        for _ in 0..inner {
            body();
        }
        samples.push(started.elapsed().as_secs_f64() / inner as f64);
    }
    ScenarioResult {
        name,
        warmup,
        repeats,
        inner,
        stats: RobustStats::of(&samples),
    }
}

/// Run every selected scenario and assemble one report per group, in
/// registry group order. `progress` receives a line per finished scenario.
pub fn run(
    tier: Tier,
    groups: &[String],
    mut progress: impl FnMut(&str),
) -> Result<Vec<BenchReport>, BenchError> {
    let scenarios = registry(tier, groups)?;
    let fingerprint = Fingerprint::current();
    let mut by_group: Vec<(&'static str, Vec<ScenarioResult>)> = Vec::new();
    for scenario in scenarios {
        let group = scenario.group;
        let label = scenario.name.clone();
        let result = measure(scenario, tier);
        progress(&format!(
            "{group}/{label}: median {} (n={} x{})",
            format_duration(result.stats.median_s),
            result.repeats,
            result.inner
        ));
        match by_group.iter_mut().find(|(g, _)| *g == group) {
            Some((_, v)) => v.push(result),
            None => by_group.push((group, vec![result])),
        }
    }
    Ok(by_group
        .into_iter()
        .map(|(group, scenarios)| BenchReport {
            schema_version: SCHEMA_VERSION,
            group: group.to_string(),
            tier: tier.label().to_string(),
            fingerprint: fingerprint.clone(),
            scenarios,
        })
        .collect())
}

/// Human-readable duration with an auto-selected unit.
pub fn format_duration(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3}s")
    } else if seconds >= 1e-3 {
        format!("{:.3}ms", seconds * 1e3)
    } else {
        format!("{:.3}us", seconds * 1e6)
    }
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

/// Workspace root (the bench crate lives two levels below it) — BENCH
/// files are written there so the trajectory sits next to ROADMAP.md.
pub fn workspace_root() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    root.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(root)
}

/// Write one report as `BENCH_<group>.json` under `dir`; returns the path.
pub fn write_report(report: &BenchReport, dir: &Path) -> Result<PathBuf, BenchError> {
    let path = dir.join(BenchReport::file_name(&report.group));
    std::fs::write(&path, report.to_json().render()).map_err(|source| BenchError::Io {
        path: path.display().to_string(),
        source,
    })?;
    Ok(path)
}

/// Load and schema-validate one report.
pub fn load_report(path: &Path) -> Result<BenchReport, BenchError> {
    let text = std::fs::read_to_string(path).map_err(|source| BenchError::Io {
        path: path.display().to_string(),
        source,
    })?;
    BenchReport::parse_str(&text)
}

/// Load every `BENCH_*.json` directly under `dir`, sorted by file name.
pub fn load_dir(dir: &Path) -> Result<Vec<BenchReport>, BenchError> {
    let entries = std::fs::read_dir(dir).map_err(|source| BenchError::Io {
        path: dir.display().to_string(),
        source,
    })?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    paths.iter().map(|p| load_report(p)).collect()
}

// ---------------------------------------------------------------------------
// Compare
// ---------------------------------------------------------------------------

/// Judgement for one scenario present in both runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Median slower than the threshold AND IQRs disjoint.
    Regression,
    /// Median faster than the threshold AND IQRs disjoint.
    Improvement,
    /// Inside the noise band.
    Within,
}

/// One compared scenario.
#[derive(Debug, Clone)]
pub struct ScenarioDelta {
    /// Group name.
    pub group: String,
    /// Scenario name.
    pub name: String,
    /// Baseline stats.
    pub old: RobustStats,
    /// New stats.
    pub new: RobustStats,
    /// Relative median change (`new/old − 1`; positive = slower).
    pub rel_median: f64,
    /// Classification under the threshold rule.
    pub verdict: Verdict,
}

/// Full comparison of two report sets.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Per-scenario deltas, in `(group, name)` order.
    pub deltas: Vec<ScenarioDelta>,
    /// `group/name` keys only present in the baseline.
    pub only_old: Vec<String>,
    /// `group/name` keys only present in the new run.
    pub only_new: Vec<String>,
    /// Host or build profile differs between the runs — absolute numbers
    /// are then not comparable (CI's check-only mode exists for this).
    pub fingerprint_differs: bool,
    /// Threshold the verdicts used.
    pub threshold: f64,
}

impl Comparison {
    /// Number of scenarios judged [`Verdict::Regression`].
    pub fn regression_count(&self) -> usize {
        self.deltas
            .iter()
            .filter(|d| d.verdict == Verdict::Regression)
            .count()
    }

    /// Render as an aligned text table plus a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if self.fingerprint_differs {
            out.push_str(
                "note: fingerprints differ (host or build profile); absolute deltas are advisory\n",
            );
        }
        for d in &self.deltas {
            let tag = match d.verdict {
                Verdict::Regression => "REGRESSION",
                Verdict::Improvement => "improvement",
                Verdict::Within => "ok",
            };
            out.push_str(&format!(
                "{:<10} {:<28} median {:>10} -> {:>10} ({:+.1}%)  {}\n",
                d.group,
                d.name,
                format_duration(d.old.median_s),
                format_duration(d.new.median_s),
                d.rel_median * 100.0,
                tag
            ));
        }
        for k in &self.only_old {
            out.push_str(&format!("missing in new run: {k}\n"));
        }
        for k in &self.only_new {
            out.push_str(&format!("new scenario (no baseline): {k}\n"));
        }
        let improvements = self
            .deltas
            .iter()
            .filter(|d| d.verdict == Verdict::Improvement)
            .count();
        out.push_str(&format!(
            "{} compared: {} regression(s), {} improvement(s), threshold {:.0}% + disjoint IQRs\n",
            self.deltas.len(),
            self.regression_count(),
            improvements,
            self.threshold * 100.0
        ));
        out
    }

    /// Render GitHub workflow-command annotations (like `alint --format
    /// github`): `::error` per regression, or `::warning` in check-only
    /// mode so advisory CI runs annotate without failing.
    pub fn render_github(&self, check_only: bool) -> String {
        let level = if check_only { "warning" } else { "error" };
        let mut out = String::new();
        for d in &self.deltas {
            if d.verdict != Verdict::Regression {
                continue;
            }
            out.push_str(&format!(
                "::{level} title=perf regression::{}/{}: median {} -> {} ({:+.1}%), IQRs disjoint\n",
                d.group,
                d.name,
                format_duration(d.old.median_s),
                format_duration(d.new.median_s),
                d.rel_median * 100.0
            ));
        }
        for k in &self.only_old {
            out.push_str(&format!(
                "::warning title=perf scenario missing::{k} present in baseline but not in the new run\n"
            ));
        }
        out
    }
}

/// Compare two report sets. A scenario regresses when its median slowed by
/// more than `threshold` (relative) AND the new IQR sits entirely above
/// the old one (`new.q1 > old.q3`) — both conditions, so neither a noisy
/// single run nor a sub-threshold drift can flag.
pub fn compare(
    old: &[BenchReport],
    new: &[BenchReport],
    threshold: f64,
) -> Result<Comparison, BenchError> {
    let index = |reports: &[BenchReport]| -> BTreeMap<String, (RobustStats, Fingerprint)> {
        let mut m = BTreeMap::new();
        for r in reports {
            for s in &r.scenarios {
                m.insert(
                    format!("{}/{}", r.group, s.name),
                    (s.stats, r.fingerprint.clone()),
                );
            }
        }
        m
    };
    let old_idx = index(old);
    let new_idx = index(new);

    let mut deltas = Vec::new();
    let mut only_old = Vec::new();
    let mut fingerprint_differs = false;
    for (key, (old_stats, old_fp)) in &old_idx {
        match new_idx.get(key) {
            None => only_old.push(key.clone()),
            Some((new_stats, new_fp)) => {
                if old_fp != new_fp {
                    fingerprint_differs = true;
                }
                let denom = old_stats.median_s.max(1e-12);
                let rel = (new_stats.median_s - old_stats.median_s) / denom;
                let disjoint_slower = new_stats.q1_s > old_stats.q3_s;
                let disjoint_faster = new_stats.q3_s < old_stats.q1_s;
                let verdict = if rel > threshold && disjoint_slower {
                    Verdict::Regression
                } else if rel < -threshold && disjoint_faster {
                    Verdict::Improvement
                } else {
                    Verdict::Within
                };
                let (group, name) = key.split_once('/').unwrap_or(("", key));
                deltas.push(ScenarioDelta {
                    group: group.to_string(),
                    name: name.to_string(),
                    old: *old_stats,
                    new: *new_stats,
                    rel_median: rel,
                    verdict,
                });
            }
        }
    }
    let only_new: Vec<String> = new_idx
        .keys()
        .filter(|k| !old_idx.contains_key(*k))
        .cloned()
        .collect();
    if deltas.is_empty() {
        return Err(BenchError::NoCommonScenarios);
    }
    Ok(Comparison {
        deltas,
        only_old,
        only_new,
        fingerprint_differs,
        threshold,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(stats: &[(&str, RobustStats)]) -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            group: "linalg".to_string(),
            tier: "quick".to_string(),
            fingerprint: Fingerprint::current(),
            scenarios: stats
                .iter()
                .map(|(name, s)| ScenarioResult {
                    name: name.to_string(),
                    warmup: 1,
                    repeats: 5,
                    inner: 1,
                    stats: *s,
                })
                .collect(),
        }
    }

    fn stats(median: f64) -> RobustStats {
        RobustStats {
            min_s: median * 0.95,
            q1_s: median * 0.98,
            median_s: median,
            q3_s: median * 1.02,
            max_s: median * 1.05,
            mean_s: median,
        }
    }

    #[test]
    fn report_json_round_trips_exactly() {
        let r = report_with(&[("a", stats(1e-3)), ("b", stats(2.5e-2))]);
        let text = r.to_json().render();
        let back = BenchReport::parse_str(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn self_compare_reports_zero_regressions() {
        let r = report_with(&[("a", stats(1e-3)), ("b", stats(2.5e-2))]);
        let text = r.to_json().render();
        let back = BenchReport::parse_str(&text).unwrap();
        let cmp = compare(
            std::slice::from_ref(&r),
            std::slice::from_ref(&back),
            DEFAULT_THRESHOLD,
        )
        .unwrap();
        assert_eq!(cmp.regression_count(), 0);
        assert!(!cmp.fingerprint_differs);
        assert!(cmp.deltas.iter().all(|d| d.verdict == Verdict::Within));
    }

    #[test]
    fn injected_2x_slowdown_is_flagged() {
        let old = report_with(&[("a", stats(1e-3)), ("b", stats(4e-3))]);
        let new = report_with(&[("a", stats(2e-3)), ("b", stats(4e-3))]);
        let cmp = compare(&[old], &[new], DEFAULT_THRESHOLD).unwrap();
        assert_eq!(cmp.regression_count(), 1);
        let reg = cmp
            .deltas
            .iter()
            .find(|d| d.verdict == Verdict::Regression)
            .unwrap();
        assert_eq!(reg.name, "a");
        assert!(reg.rel_median > 0.9);
        assert!(cmp.render_text().contains("REGRESSION"));
        assert!(cmp.render_github(false).contains("::error"));
        assert!(cmp.render_github(true).contains("::warning"));
    }

    #[test]
    fn sub_threshold_or_overlapping_iqr_is_within_noise() {
        // 5% median drift: below threshold.
        let old = report_with(&[("a", stats(1.00e-3))]);
        let new = report_with(&[("a", stats(1.05e-3))]);
        let cmp = compare(&[old], &[new], DEFAULT_THRESHOLD).unwrap();
        assert_eq!(cmp.regression_count(), 0);

        // 20% median drift but wide overlapping IQRs: still within noise.
        let wide = RobustStats {
            min_s: 0.5e-3,
            q1_s: 0.8e-3,
            median_s: 1.2e-3,
            q3_s: 1.6e-3,
            max_s: 2.0e-3,
            mean_s: 1.2e-3,
        };
        let old = report_with(&[("a", stats(1.0e-3))]);
        let new = report_with(&[("a", wide)]);
        let cmp = compare(&[old], &[new], DEFAULT_THRESHOLD).unwrap();
        assert_eq!(cmp.regression_count(), 0);
    }

    #[test]
    fn missing_scenarios_are_reported_not_fatal() {
        let old = report_with(&[("a", stats(1e-3)), ("gone", stats(1e-3))]);
        let new = report_with(&[("a", stats(1e-3)), ("fresh", stats(1e-3))]);
        let cmp = compare(&[old], &[new], DEFAULT_THRESHOLD).unwrap();
        assert_eq!(cmp.only_old, vec!["linalg/gone".to_string()]);
        assert_eq!(cmp.only_new, vec!["linalg/fresh".to_string()]);
        assert!(cmp.render_github(true).contains("perf scenario missing"));
    }

    #[test]
    fn disjoint_report_sets_error() {
        let old = report_with(&[("a", stats(1e-3))]);
        let new = report_with(&[("b", stats(1e-3))]);
        assert!(matches!(
            compare(&[old], &[new], DEFAULT_THRESHOLD),
            Err(BenchError::NoCommonScenarios)
        ));
    }

    #[test]
    fn schema_rejects_bad_documents() {
        let good = report_with(&[("a", stats(1e-3))]).to_json().render();
        // Wrong version.
        let bad = good.replace("\"schema_version\": 1", "\"schema_version\": 99");
        assert!(matches!(
            BenchReport::parse_str(&bad),
            Err(BenchError::Schema { .. })
        ));
        // Unordered quantiles.
        let mut r = report_with(&[("a", stats(1e-3))]);
        r.scenarios[0].stats.q1_s = r.scenarios[0].stats.q3_s * 2.0;
        assert!(matches!(
            BenchReport::parse_str(&r.to_json().render()),
            Err(BenchError::Schema { .. })
        ));
        // Not JSON at all.
        assert!(matches!(
            BenchReport::parse_str("not json"),
            Err(BenchError::JsonParse { .. })
        ));
        // Missing stats field.
        let bad = good.replace("\"median_s\"", "\"median_sx\"");
        assert!(matches!(
            BenchReport::parse_str(&bad),
            Err(BenchError::Schema { .. })
        ));
    }

    #[test]
    fn registry_covers_contracted_scenarios() {
        let names: Vec<String> = registry(Tier::Quick, &[])
            .unwrap()
            .iter()
            .map(|s| format!("{}/{}", s.group, s.name))
            .collect();
        // The ROADMAP-contracted coverage: extend-vs-refit curve, local
        // selection at 1e5 candidates, thread scaling, end-to-end AL.
        assert!(names
            .iter()
            .any(|n| n.starts_with("linalg/cholesky_extend_n")));
        assert!(names
            .iter()
            .any(|n| n.starts_with("linalg/cholesky_refit_n")));
        assert!(names.contains(&"gp/local_select_100k".to_string()));
        assert!(names.contains(&"amr/solver_step_threads_1".to_string()));
        assert!(names.contains(&"amr/solver_step_threads_all".to_string()));
        // One selection per paper strategy, and the AMR flop kernel alone.
        for label in ["randuniform", "maxsigma", "minpred", "randgoodness", "rgma"] {
            assert!(
                names.contains(&format!("al/strategy_select_{label}_q400")),
                "{label}"
            );
        }
        for mx in [8, 16, 32] {
            assert!(
                names.contains(&format!("amr/patch_sweep_x_mx{mx}")),
                "mx={mx}"
            );
        }
        // PR 8: the session core's serving-latency unit and the warm-start
        // contrast pair backing the SessionStore's hyperparameter LRU.
        assert!(names.contains(&"al/session_step".to_string()));
        assert!(names.contains(&"al/warm_start_cold".to_string()));
        assert!(names.contains(&"al/warm_start_hit".to_string()));
        // Blocked-vs-naive factorization at paper scale, each path timed
        // once per n, plus the GP thread-scaling pairs over the shared
        // worker pool.
        assert!(names.contains(&"linalg/cholesky_factor_n1600".to_string()));
        assert!(names.contains(&"linalg/cholesky_factor_naive_n1600".to_string()));
        assert!(!names.iter().any(|n| n.contains("cholesky_factor_blocked")));
        assert!(names.contains(&"gp/kernel_matrix_threads_1".to_string()));
        assert!(names.contains(&"gp/kernel_matrix_threads_all".to_string()));
        assert!(names.contains(&"gp/local_select_threads_1".to_string()));
        assert!(names.contains(&"gp/local_select_threads_all".to_string()));
        // PR 10: workers hammering the sharded SessionStore — the priced
        // counterpart of the alint L7 locking contract.
        assert!(names.contains(&"al/store_contention".to_string()));
        // The LML-gradient layer: the multi-RHS inverse it is built on,
        // the gradient itself, and a whole warm-start retraining step.
        assert!(names.contains(&"linalg/cholesky_inverse_n250".to_string()));
        assert!(names.contains(&"gp/lml_gradient_n50".to_string()));
        assert!(names.contains(&"gp/lml_gradient_n250".to_string()));
        assert!(names.contains(&"gp/gp_fit_optimized_n250".to_string()));
        // Posterior prediction over the pool at the Fig. 3 and the
        // serving shapes.
        assert!(names.contains(&"gp/gp_predict_n250_q400".to_string()));
        assert!(names.contains(&"gp/gp_predict_n50_q380".to_string()));
        // Unknown group is a typed error.
        assert!(matches!(
            registry(Tier::Quick, &["nope".to_string()]),
            Err(BenchError::UnknownGroup(_))
        ));
        // Group filter narrows the registry.
        let only_amr = registry(Tier::Quick, &["amr".to_string()]).unwrap();
        assert!(only_amr.iter().all(|s| s.group == "amr"));
        assert_eq!(only_amr.len(), 5);
    }

    #[test]
    fn full_tier_grows_the_cholesky_curve() {
        let full: Vec<String> = registry(Tier::Full, &["linalg".to_string()])
            .unwrap()
            .iter()
            .map(|s| s.name.clone())
            .collect();
        for n in [200, 400, 800, 1600] {
            assert!(full.contains(&format!("cholesky_factor_n{n}")), "n={n}");
            assert!(full.contains(&format!("cholesky_extend_n{n}")), "n={n}");
            assert!(full.contains(&format!("cholesky_refit_n{n}")), "n={n}");
        }
        for n in [400, 800, 1600] {
            assert!(
                full.contains(&format!("cholesky_factor_naive_n{n}")),
                "n={n}"
            );
        }
        assert!(!full.iter().any(|n| n.contains("cholesky_factor_blocked")));
    }

    #[test]
    fn measure_produces_ordered_stats() {
        // A tiny real measurement (cheap body) exercises calibration.
        let s = Scenario::new("linalg", "noop".to_string(), || {
            let mut x = 0u64;
            Box::new(move || {
                x = x.wrapping_add(std::hint::black_box(1));
                std::hint::black_box(x);
            })
        });
        let r = measure(s, Tier::Quick);
        assert_eq!(r.repeats, 5);
        assert!(r.inner >= 1);
        assert!(r.stats.min_s >= 0.0);
        assert!(r.stats.min_s <= r.stats.median_s);
        assert!(r.stats.median_s <= r.stats.max_s);
    }

    #[test]
    fn duration_formatting_picks_units() {
        assert_eq!(format_duration(2.5), "2.500s");
        assert_eq!(format_duration(2.5e-3), "2.500ms");
        assert_eq!(format_duration(2.5e-6), "2.500us");
    }

    #[test]
    fn file_names_follow_the_trajectory_convention() {
        assert_eq!(BenchReport::file_name("linalg"), "BENCH_linalg.json");
        assert!(workspace_root().join("Cargo.toml").exists());
    }
}
