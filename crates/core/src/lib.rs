// Tests compare exactly-copied floats; the cfg(test) compile allows that
// while the regular compile still lints library code.
#![cfg_attr(test, allow(clippy::float_cmp))]
#![warn(missing_docs)]

//! Cost- and memory-aware active learning (the paper's contribution).
//!
//! Implements Algorithm 1 (the AL procedure that trains cost and memory
//! GPR models by selecting one experiment at a time from an Active pool),
//! the five candidate-selection algorithms of Section IV-B —
//! `RandUniform`, `MaxSigma`, `MinPred`, `RandGoodness` and the
//! memory-aware `RGMA` (Algorithm 2), one arm each of
//! [`StrategyKind::select`] — and the evaluation metrics of
//! Section V-B: non-log RMSE on the Test partition, cumulative cost, and
//! cumulative regret with respect to a memory limit `L_mem`.
//!
//! [`batch::run_batch`] runs many trajectories over random partitions in
//! parallel (the paper's `multiprocessing` batches) so strategy statistics
//! are independent of any particular partition.
//!
//! [`session`] re-expresses the loop body as an explicit [`SessionState`]
//! value plus a pure [`SessionState::step`] transition function — the
//! serving-layer shape — and [`store`] shards many live sessions behind
//! per-shard locks with a warm-start hyperparameter cache. [`run_trajectory`] is a thin
//! driver over the session core; the two are byte-identical by test.

pub mod analysis;
pub mod batch;
pub mod context;
pub mod io;
pub mod metrics;
pub mod procedure;
pub mod session;
pub mod stopping;
pub mod store;
pub mod strategy;
pub mod trajectory;

pub use batch::{run_batch, BatchSpec};
pub use context::SelectionContext;
pub use procedure::{run_trajectory, AlOptions};
pub use session::{
    Decision, EvalSet, Observation, Query, SessionConfig, SessionState, WarmHyperparams,
};
pub use stopping::StopReason;
pub use store::{HyperparamLru, SessionError, SessionStore, WarmKey};
pub use strategy::StrategyKind;
pub use trajectory::{IterationRecord, Trajectory};
