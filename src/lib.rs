//! # kset-agreement
//!
//! A comprehensive Rust reproduction of *"K-set agreement bounds in
//! round-based models through combinatorial topology"* (Adam Shimi &
//! Armando Castañeda, PODC 2020, arXiv:2003.02869).
//!
//! This umbrella crate re-exports the layers of the system:
//!
//! | Layer | Crate | What it is |
//! |---|---|---|
//! | exec | [`exec`] | the whole-experiment fan-out (`map_in_order`) |
//! | graphs | [`graphs`] | communication graphs + the paper's combinatorial numbers |
//! | topology | [`topology`] | simplicial complexes, pseudospheres, homology, protocol complexes |
//! | models | [`models`] | oblivious / closed-above models, the model zoo, adversaries |
//! | core | [`core`] | every theorem of the paper as an executable bound + the algorithms |
//! | cert | [`cert`] | machine-checkable certificates + standalone checkers for every verdict |
//! | runtime | [`runtime`] | round-based execution, exhaustive checking, Monte-Carlo |
//!
//! ## Quickstart
//!
//! ```
//! use kset_agreement::prelude::*;
//!
//! // The symmetric union-of-2-stars model on 5 processes (Thm 6.13),
//! // looked up in the builtin registry by its canonical spec name
//! // (`models::named::star_unions(5, 2)` builds the identical model):
//! let model = models::registry::builtin()
//!     .resolve_closed_above("stars{n=5,s=2}", 1_000_000u128)?;
//! let report = BoundsReport::compute(&model, 1)?;
//! assert_eq!(report.best_upper().unwrap().k, 4);          // solvable
//! assert_eq!(report.best_lower().unwrap().impossible_k, 3); // impossible
//! assert!(report.is_tight());
//!
//! // …and the flood-and-min algorithm actually achieves it:
//! let check = runtime::checker::check_exhaustive(
//!     &MinOfAll::new(), &model, 5, 1, 100_000_000)?;
//! assert_eq!(check.worst_distinct, 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use ksa_cert as cert;
pub use ksa_core as core;
pub use ksa_exec as exec;
pub use ksa_graphs as graphs;
pub use ksa_models as models;
pub use ksa_runtime as runtime;
pub use ksa_topology as topology;

/// The most common imports, for examples and downstream quickstarts.
pub mod prelude {
    pub use crate::{cert, core, graphs, models, runtime, topology};
    pub use ksa_core::algorithms::{MinOfAll, MinOfDominatingSet, ObliviousAlgorithm};
    pub use ksa_core::bounds::report::BoundsReport;
    pub use ksa_core::task::{KSetTask, Value};
    pub use ksa_graphs::{Digraph, ProcSet};
    pub use ksa_models::{ClosedAboveModel, ObliviousModel};
}
