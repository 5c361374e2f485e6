//! The repository benchmark: three workloads over the AL-for-AMR stack,
//! an output check against stored digests, and a separate traced run that
//! attributes time to each layer. See `README.md` beside this crate.

pub mod common;
pub mod digest;
pub mod fig3;
pub mod layers;
pub mod probe;
pub mod replica;
pub mod serve;
pub mod sweep;
pub mod trace;
