//! Explicit exploration budgets for exhaustive procedures.
//!
//! Every exhaustive search in the workspace — the runtime's execution
//! checker, the solvability decision procedures in `ksa-core`, and the
//! multi-round protocol-complex materialization in `ksa-topology` —
//! takes a [`RunBudget`]: a hard ceiling on the number of cases it may
//! enumerate. The size of a search is estimated *up front* (schedule ×
//! input spaces, superset odometers, per-round facet products), so an
//! oversized instance fails fast with a [`BudgetExceeded`] instead of
//! running unbounded; callers can catch it and fall back to sampling.
//!
//! A pipeline entry point takes a [`Run`]: the budget plus an optional
//! [`CancelToken`]. `RunBudget` and `u128` both convert into it, so a
//! caller without a token passes a bare budget.
//!
//! This type started in `ksa-runtime::checker`, moved down to `ksa-core`
//! for the solvability search, and now lives at the bottom of the
//! workspace (`ksa-graphs` is the lowest domain crate) so the topology
//! layer can enforce it too without a dependency cycle. `ksa-core::budget`
//! re-exports it, and [`Run`], from the old path.

use crate::cancel::{CancelToken, Interrupted};
use std::error::Error;
use std::fmt;

/// A hard ceiling on the number of cases an exhaustive procedure may
/// enumerate. Converts from a `u128`, and into a token-free [`Run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunBudget {
    /// Maximum number of executions an exhaustive check may enumerate.
    pub max_executions: u128,
}

impl RunBudget {
    /// The default ceiling: comfortably interactive on small models.
    pub const DEFAULT: RunBudget = RunBudget {
        max_executions: 100_000_000,
    };

    /// A budget of `max_executions` executions.
    pub fn new(max_executions: u128) -> Self {
        RunBudget { max_executions }
    }

    /// Errors with [`BudgetExceeded`] when `estimated` exceeds this
    /// budget.
    pub fn admit(&self, what: &'static str, estimated: u128) -> Result<(), BudgetExceeded> {
        if estimated > self.max_executions {
            ksa_obs::count(ksa_obs::Counter::BudgetRejections, 1);
            return Err(BudgetExceeded {
                what,
                estimated,
                limit: self.max_executions,
            });
        }
        ksa_obs::count(ksa_obs::Counter::BudgetAdmissions, 1);
        Ok(())
    }
}

impl Default for RunBudget {
    fn default() -> Self {
        RunBudget::DEFAULT
    }
}

impl From<u128> for RunBudget {
    fn from(max_executions: u128) -> Self {
        RunBudget::new(max_executions)
    }
}

/// How one pipeline run is bounded: the [`RunBudget`] on how much it may
/// enumerate, and an optional [`CancelToken`] on whether it may keep
/// going. Every pipeline entry point takes `impl Into<Run>`.
#[derive(Debug, Clone, Copy)]
pub struct Run<'a> {
    /// The ceiling every admission of the run is checked against.
    pub budget: RunBudget,
    /// Polled at the pipeline's checkpoints; `None` never interrupts.
    pub cancel: Option<&'a CancelToken>,
}

impl Run<'_> {
    /// Polls the token, if any.
    ///
    /// # Errors
    ///
    /// The token's [`Interrupted`] reason once it has fired.
    pub fn checkpoint(&self) -> Result<(), Interrupted> {
        self.cancel.map_or(Ok(()), CancelToken::checkpoint)
    }
}

impl From<RunBudget> for Run<'_> {
    fn from(budget: RunBudget) -> Self {
        Run {
            budget,
            cancel: None,
        }
    }
}

impl From<u128> for Run<'_> {
    fn from(max_executions: u128) -> Self {
        RunBudget::new(max_executions).into()
    }
}

/// An exhaustive exploration would exceed its [`RunBudget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// What was being enumerated.
    pub what: &'static str,
    /// Estimated number of cases.
    pub estimated: u128,
    /// The configured ceiling.
    pub limit: u128,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} would explore about {} cases, above the limit {}",
            self.what, self.estimated, self.limit
        )
    }
}

impl Error for BudgetExceeded {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_boundaries() {
        let b = RunBudget::new(100);
        assert!(b.admit("x", 100).is_ok());
        let err = b.admit("x", 101).unwrap_err();
        assert_eq!(err.limit, 100);
        assert_eq!(err.estimated, 101);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn conversions() {
        assert_eq!(RunBudget::from(7u128).max_executions, 7);
        assert_eq!(RunBudget::default(), RunBudget::DEFAULT);
        let run = Run::from(7u128);
        assert_eq!(run.budget, RunBudget::new(7));
        assert!(run.cancel.is_none());
    }

    #[test]
    fn checkpoint_polls_the_token() {
        assert_eq!(Run::from(1u128).checkpoint(), Ok(()));
        let token = CancelToken::new();
        let run = Run {
            budget: RunBudget::DEFAULT,
            cancel: Some(&token),
        };
        assert_eq!(run.checkpoint(), Ok(()));
        token.cancel();
        assert_eq!(run.checkpoint(), Err(Interrupted::Cancelled));
    }
}
