//! A state machine over `al_gp::PoolCache`: arbitrary sequences of model
//! growth, duplicated training rows, pool drops, hyperparameter changes
//! and short optimizations, edited queries and diverging clones that trade
//! caches, with `GpModel::predict` and a from-scratch fit as the oracles.
//!
//! The property `PoolCache`'s doc claims (DESIGN §13): hand it any model,
//! any rows, in any order, and `predict_cached` is bit for bit the
//! model's own `predict`, whether it reuses, extends or rebuilds its
//! blocks. So after every operation the machine predicts its pool three
//! ways, `predict`, `predict_cached` and `predict_mean`, and compares
//! `to_bits` (or the errors, while the model holds no fit). Half the runs
//! use a noise variance below the resolution of `k(x, x) = 1`, where a
//! duplicated row cannot factor without jitter.
//!
//! A held fit that `fit` or `fit_optimized` made (an augment's is not
//! checked) must also be exact: a fresh model with the same
//! hyperparameters, `fit` on the same rows, predicts the same μ and σ and
//! has the same LML, `to_bits`, however the held fit was grown.
//!
//! The vendored proptest does not shrink, so a failing sequence is
//! shrunk here: operations are dropped one at a time while the sequence
//! still fails, and the panic names the short sequence that is left.

// Integration tests run outside #[cfg(test)]; tests may panic.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use al_gp::{FitOptions, GpModel, KernelKind, PoolCache, Prediction};
use al_linalg::Matrix;
use proptest::prelude::*;

/// Rows of the data universe: the first `N_TRAIN` start as the training
/// set, the next `N_POOL` as the pool, the rest refill it.
const N_ROWS: usize = 64;
const N_TRAIN: usize = 8;
const N_POOL: usize = 32;

/// One step of the machine; `a` and `b` pick rows, counts and variants.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Move 1–3 pool candidates into the training set: a border refit on
    /// the grown rows, or one augment per row.
    Grow {
        rows: usize,
        augment: bool,
        at: usize,
    },
    /// Append a copy of a training row: a border refit, or an augment
    /// (at the tiny noise its border pivot fails and it falls back to a
    /// jittered refit).
    Duplicate { augment: bool, at: usize },
    /// Drop none, one, most or all of the pool.
    Drop { how: usize, at: usize },
    /// Append unused rows to the pool (the cache must rebuild).
    Refill { rows: usize },
    /// New hyperparameters, which drop the fit; refit on the same rows or
    /// leave the model unfitted.
    SetHyperparams { shift: usize, refit: bool },
    /// Refit on the same rows (a new factor with the same bits), or with
    /// two training rows swapped.
    Refit { swap: bool, at: usize },
    /// `fit_optimized` on the training rows with a tiny budget: 0 or 1
    /// restarts of 1–3 Adam steps.
    Optimize {
        restarts: usize,
        iters: usize,
        seed: u64,
    },
    /// Swap two pool rows, or move one coordinate of a pool row one ulp.
    Edit { nudge: bool, at: usize },
    /// Put a copy of the whole state aside.
    Clone,
    /// Continue with the copy put aside, keeping this state as the copy.
    Swap,
    /// Trade caches with the copy put aside: each now serves a model it
    /// may share only some factor rows with, or none.
    Trade,
}

/// Growth and drops, the rounds that extend the cache, are drawn most.
fn op() -> impl Strategy<Value = Op> {
    (0u8..15, 0usize..1000, 0usize..1000).prop_map(|(tag, a, b)| match tag {
        0..=3 => Op::Grow {
            rows: 1 + a % 3,
            augment: b % 2 == 0,
            at: b / 2,
        },
        4 | 5 => Op::Drop { how: a % 4, at: b },
        6 => Op::Refill { rows: 1 + a % 3 },
        7 => Op::SetHyperparams {
            shift: a,
            refit: b % 4 != 0,
        },
        8 => Op::Refit {
            swap: a % 2 == 0,
            at: b,
        },
        9 => Op::Edit {
            nudge: a % 2 == 0,
            at: b,
        },
        10 => Op::Clone,
        11 => Op::Swap,
        12 => Op::Duplicate {
            augment: a % 2 == 0,
            at: b,
        },
        13 => Op::Optimize {
            restarts: a % 2,
            iters: 1 + b % 3,
            seed: a as u64,
        },
        _ => Op::Trade,
    })
}

fn kinds() -> impl Strategy<Value = KernelKind> {
    prop_oneof![
        Just(KernelKind::Rbf),
        Just(KernelKind::ArdRbf { dim: 3 }),
        Just(KernelKind::Matern32),
        Just(KernelKind::Matern52),
        Just(KernelKind::RationalQuadratic),
    ]
}

/// Everything one line of the machine carries.
#[derive(Clone)]
struct State {
    /// The data universe; `Edit` nudges its rows in place.
    x: Matrix,
    y: Vec<f64>,
    kind: KernelKind,
    noise: f64,
    model: GpModel,
    /// The model's fit came from `fit` or `fit_optimized` on `train`, not
    /// from an augment.
    exact: bool,
    cache: PoolCache,
    /// Row ids of the training set, in fit order.
    train: Vec<usize>,
    /// Row ids of the pool, in query order.
    pool: Vec<usize>,
}

impl State {
    fn new(kind: KernelKind, noise: f64) -> Self {
        let x = Matrix::from_vec(
            N_ROWS,
            3,
            (0..N_ROWS * 3)
                .map(|e| ((e as f64) * 0.618).fract())
                .collect(),
        );
        let y = (0..N_ROWS)
            .map(|i| (3.0 * x[(i, 0)]).sin() + x[(i, 1)] * x[(i, 2)])
            .collect();
        let mut state = State {
            x,
            y,
            kind,
            noise,
            model: GpModel::new(kind.build(0.4), noise),
            exact: false,
            cache: PoolCache::new(),
            train: (0..N_TRAIN).collect(),
            pool: (N_TRAIN..N_TRAIN + N_POOL).collect(),
        };
        state.refit();
        state
    }

    fn train_ys(&self) -> Vec<f64> {
        self.train.iter().map(|&i| self.y[i]).collect()
    }

    fn refit(&mut self) {
        let ys = self.train_ys();
        self.model
            .fit(&self.x.select_rows(&self.train), &ys)
            .unwrap();
        self.exact = true;
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Grow { rows, augment, at } => {
                for r in 0..rows.min(self.pool.len()) {
                    let p = self.pool.remove((at + 7 * r) % self.pool.len());
                    self.train.push(p);
                    // An unfitted model (after `SetHyperparams`) cannot
                    // augment; it refits below instead.
                    if augment && self.model.n_train() > 0 {
                        self.model.augment(self.x.row(p), self.y[p]).unwrap();
                        self.exact = false;
                    }
                }
                if !augment || self.model.n_train() == 0 {
                    self.refit();
                }
            }
            Op::Duplicate { augment, at } => {
                let p = self.train[at % self.train.len()];
                self.train.push(p);
                if augment && self.model.n_train() > 0 {
                    self.model.augment(self.x.row(p), self.y[p]).unwrap();
                    self.exact = false;
                } else {
                    self.refit();
                }
            }
            Op::Drop { how, at } => {
                let m = self.pool.len();
                let drop = [0, 1.min(m), m.saturating_sub(2), m][how];
                for d in 0..drop {
                    self.pool.remove((at + 5 * d) % self.pool.len());
                }
            }
            Op::Refill { rows } => {
                let unused: Vec<usize> = (0..N_ROWS)
                    .filter(|i| !self.train.contains(i) && !self.pool.contains(i))
                    .take(rows)
                    .collect();
                self.pool.extend(unused);
            }
            Op::SetHyperparams { shift, refit } => {
                let p: Vec<f64> = self
                    .model
                    .hyperparams()
                    .iter()
                    .enumerate()
                    .map(|(i, v)| v + 0.05 * ((shift + i) % 7) as f64 - 0.15)
                    .collect();
                self.model.set_hyperparams(&p).unwrap();
                self.exact = false;
                if refit {
                    self.refit();
                }
            }
            Op::Refit { swap, at } => {
                if swap {
                    let i = at % (self.train.len() - 1);
                    self.train.swap(i, i + 1);
                }
                self.refit();
            }
            Op::Optimize {
                restarts,
                iters,
                seed,
            } => {
                let opts = FitOptions {
                    n_restarts: restarts,
                    max_iters: iters,
                    seed,
                };
                let ys = self.train_ys();
                self.model
                    .fit_optimized(&self.x.select_rows(&self.train), &ys, &opts)
                    .unwrap();
                self.exact = true;
            }
            Op::Edit { nudge, at } => {
                let m = self.pool.len();
                if nudge && m > 0 {
                    let cell = (self.pool[at % m], at % 3);
                    self.x[cell] = f64::from_bits(self.x[cell].to_bits() + 1);
                } else if m > 1 {
                    self.pool.swap(at % (m - 1), at % (m - 1) + 1);
                }
            }
            Op::Clone | Op::Swap | Op::Trade => unreachable!("handled by the machine"),
        }
    }

    /// Predict the pool through the cache, its means alone, and afresh,
    /// and compare an exact held fit with a from-scratch one; `Err` names
    /// the first difference.
    fn check(&mut self) -> Result<(), String> {
        let xs = self.x.select_rows(&self.pool);
        if self.exact {
            self.check_exact(&xs)?;
        }
        let got = self.model.predict_cached(&xs, &mut self.cache);
        let mean = self.model.predict_mean(&xs);
        let want = self.model.predict(&xs);
        match (got, mean, want) {
            (Ok(got), Ok(mean), Ok(want)) => {
                same_bits("cached mean", &got.mean, &want.mean)?;
                same_bits("cached std", &got.std, &want.std)?;
                same_bits("predict_mean", &mean, &want.mean)
            }
            (Err(got), Err(mean), Err(want)) if got == want && mean == want => Ok(()),
            (got, mean, want) => Err(format!(
                "cached {:?}, predict_mean {:?} vs predict {:?}",
                got.map(|_| ()),
                mean.map(|_| ()),
                want.map(|_: Prediction| ())
            )),
        }
    }
}

impl State {
    /// The held fit against a fresh model with the same hyperparameters,
    /// `fit` on the same rows: μ and σ over the pool, and the LML.
    fn check_exact(&self, xs: &Matrix) -> Result<(), String> {
        let mut fresh = GpModel::new(self.kind.build(0.4), self.noise);
        fresh.set_hyperparams(&self.model.hyperparams()).unwrap();
        fresh
            .fit(&self.x.select_rows(&self.train), &self.train_ys())
            .unwrap();
        let (held_lml, fresh_lml) = (self.model.lml().unwrap(), fresh.lml().unwrap());
        same_bits("held LML", &[held_lml], &[fresh_lml])?;
        match (self.model.predict(xs), fresh.predict(xs)) {
            (Ok(held), Ok(fresh)) => {
                same_bits("held mean", &held.mean, &fresh.mean)?;
                same_bits("held std", &held.std, &fresh.std)
            }
            (Err(held), Err(fresh)) if held == fresh => Ok(()),
            (held, fresh) => Err(format!(
                "held predict {:?} vs fresh {:?}",
                held.map(|_| ()),
                fresh.map(|_| ())
            )),
        }
    }
}

fn same_bits(what: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{what}: {} values vs {}", got.len(), want.len()));
    }
    match (0..got.len()).find(|&q| got[q].to_bits() != want[q].to_bits()) {
        Some(q) => Err(format!("{what}[{q}]: {} vs {}", got[q], want[q])),
        None => Ok(()),
    }
}

/// Run `ops` from a fresh state, checking after the start and after every
/// step; `Err` names the failing step.
fn run(kind: KernelKind, noise: f64, ops: &[Op]) -> Result<(), String> {
    let mut state = State::new(kind, noise);
    let mut aside = state.clone();
    state.check().map_err(|e| format!("start: {e}"))?;
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Clone => aside = state.clone(),
            Op::Swap => std::mem::swap(&mut state, &mut aside),
            Op::Trade => std::mem::swap(&mut state.cache, &mut aside.cache),
            op => state.apply(op),
        }
        state
            .check()
            .map_err(|e| format!("step {step} ({op:?}): {e}"))?;
    }
    Ok(())
}

/// A shorter sequence that still fails: drop one operation at a time,
/// keeping any drop after which `run` still fails, until none can go.
fn shrink(kind: KernelKind, noise: f64, mut ops: Vec<Op>) -> Vec<Op> {
    let without = |ops: &[Op], i: usize| [&ops[..i], &ops[i + 1..]].concat();
    while let Some(fewer) = (0..ops.len())
        .map(|i| without(&ops, i))
        .find(|fewer| run(kind, noise, fewer).is_err())
    {
        ops = fewer;
    }
    ops
}

proptest! {
    #[test]
    fn cached_predict_matches_predict_after_every_step(
        kind in kinds(),
        noise in prop_oneof![Just(1e-3), Just(1e-17)],
        ops in proptest::collection::vec(op(), 1..64),
    ) {
        if let Err(e) = run(kind, noise, &ops) {
            let short = shrink(kind, noise, ops);
            let why = run(kind, noise, &short).unwrap_err();
            panic!(
                "{kind:?}, noise {noise:e}: {e}\nshrunk to {} ops: {short:?}\n{why}",
                short.len()
            );
        }
    }
}
