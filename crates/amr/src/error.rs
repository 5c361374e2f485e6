//! Error type for the AMR forest and solver.

use crate::solver::TruncationReason;
use crate::tree::PatchKey;
use std::fmt;

/// Failures surfaced by forest operations and simulation runs.
///
/// [`AmrError::InvalidConfig`] means a configuration the solver cannot
/// simulate was refused before anything was allocated. The structural
/// variants mean the 2:1-balanced quadtree has lost a leaf
/// or a flux register it was guaranteed to have — a logic error in
/// regridding or balance enforcement. [`AmrError::Truncated`] means a run
/// stopped meaningfully short of its configured end time, so its work
/// counters describe a partial burst. All are reported as typed errors
/// rather than panics so a long parameter sweep can record the failed
/// configuration and continue with the remaining jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AmrError {
    /// A [`SimulationConfig`](crate::SimulationConfig) field breaks the
    /// rule `rule`; nothing ran.
    InvalidConfig {
        /// The field's name.
        field: &'static str,
        /// What the field must be.
        rule: &'static str,
    },
    /// A leaf patch expected at `key` was absent from the forest.
    MissingLeaf(PatchKey),
    /// A fine-level flux register expected at `key` was absent during
    /// refluxing, violating the 2:1 balance guarantee.
    MissingFluxRegister(PatchKey),
    /// The run stopped before `t_final`; recording its counters as a
    /// completed job would corrupt the dataset's cost surface.
    Truncated {
        /// Why the run stopped early.
        reason: TruncationReason,
        /// Coarse steps completed before stopping.
        steps: u64,
    },
}

impl fmt::Display for AmrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AmrError::InvalidConfig { field, rule } => {
                write!(f, "invalid simulation config: `{field}` must be {rule}")
            }
            AmrError::MissingLeaf((l, i, j)) => {
                write!(
                    f,
                    "forest invariant broken: no leaf at level {l}, patch ({i}, {j})"
                )
            }
            AmrError::MissingFluxRegister((l, i, j)) => write!(
                f,
                "reflux invariant broken: no flux register at level {l}, patch ({i}, {j})"
            ),
            AmrError::Truncated { reason, steps } => write!(
                f,
                "simulation truncated before t_final after {steps} steps: {reason}"
            ),
        }
    }
}

impl std::error::Error for AmrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_patch() {
        let e = AmrError::MissingLeaf((2, 3, 4));
        assert!(e.to_string().contains("level 2"));
        assert!(e.to_string().contains("(3, 4)"));
        let e = AmrError::MissingFluxRegister((1, 0, 0));
        assert!(e.to_string().contains("flux register"));
        let e = AmrError::InvalidConfig {
            field: "mx",
            rule: "at least 4",
        };
        assert_eq!(
            e.to_string(),
            "invalid simulation config: `mx` must be at least 4"
        );
    }

    #[test]
    fn truncation_display_names_reason_and_steps() {
        let e = AmrError::Truncated {
            reason: TruncationReason::MaxSteps,
            steps: 200_000,
        };
        let msg = e.to_string();
        assert!(msg.contains("truncated"), "{msg}");
        assert!(msg.contains("200000"), "{msg}");
        assert!(msg.contains("step cap"), "{msg}");
    }
}
