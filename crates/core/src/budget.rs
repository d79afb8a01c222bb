//! Explicit exploration budgets, cancellation and deadlines —
//! re-exported from [`ksa_graphs::budget`] and [`ksa_graphs::cancel`].
//!
//! [`RunBudget`] historically lived here (and before that in
//! `ksa-runtime::checker`); it moved to the bottom of the workspace so
//! the topology layer's multi-round pipeline can enforce the same budget
//! discipline without a dependency cycle (`ksa-core` depends on
//! `ksa-topology`, not the reverse). This module keeps the old path
//! compiling: `ksa_core::budget::RunBudget` is the same type as
//! `ksa_graphs::budget::RunBudget`.
//!
//! [`CancelToken`] and [`Deadline`] live next to the budget for the same
//! reason: every long-running search (the CSP k-sweep, the rounds/chain
//! pipeline, the shelling search) polls the same token type, and the
//! graphs crate is the one layer all of them can see. A budget bounds
//! *how much* a computation may do; a token decides *whether it may keep
//! going* — both surface as dedicated [`CoreError`](crate::CoreError)
//! variants rather than sentinel verdicts. [`Run`] carries a budget and
//! an optional token together: it is what every pipeline entry point
//! takes (DESIGN.md §12.2).

pub use ksa_graphs::budget::{BudgetExceeded, Run, RunBudget};
pub use ksa_graphs::cancel::{CancelToken, Deadline, Interrupted};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexport_is_the_graphs_type() {
        // The re-export must stay the *same* type (not a copy), so
        // `From<BudgetExceeded> for CoreError` keeps accepting errors
        // produced by any layer.
        let err: ksa_graphs::budget::BudgetExceeded = RunBudget::new(1).admit("x", 2).unwrap_err();
        let _core: crate::error::CoreError = err.into();
    }
}
