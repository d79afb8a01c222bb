//! # ksa-models
//!
//! Round-based communication models for the reproduction of *"K-set
//! agreement bounds in round-based models through combinatorial topology"*
//! (Shimi & Castañeda, PODC 2020).
//!
//! A **communication model** fixes, for every round, the set of allowed
//! communication graphs (Def 2.1). The paper studies **oblivious** models
//! (the same set every round, Def 2.2) and, within those, **closed-above**
//! models (Def 2.3): the allowed graphs are everything above a set of
//! generator graphs. This crate provides:
//!
//! * [`ObliviousModel`] — the per-round membership/sampling interface;
//! * [`ClosedAboveModel`] — generators + closure membership + sampling +
//!   multi-round generator products;
//! * [`ExplicitModel`] — a finite explicit graph set (for predicates like
//!   *non-split* that are not closed-above);
//! * [`spec`] — the [`ModelSpec`] text format (`stars{n=5,s=2}`,
//!   `random{n=4,p=0.35,seed=7,count=16}`, `union(…)`, `product(…)`) with
//!   a parser, canonical `Display`, and budget-guarded materialization —
//!   the **single** model-construction path of the workspace;
//! * [`registry`] — named lookup, glob selection, and lazy
//!   materialization over specs; [`registry::builtin`] is the generated
//!   zoo of 100+ models;
//! * [`modelgen`] — the sweep builders (family grids, seeded random
//!   ensembles) that emit the builtin registry;
//! * [`named`] — the classic constructors of the paper's zoo (star unions
//!   of Thm 6.13, symmetric rings, non-empty kernel, non-split,
//!   tournaments), now thin wrappers resolving through [`spec`];
//! * [`adversary`] — graph adversaries that drive executions in the
//!   runtime crate: generator-minimal, random-in-model, fixed sequences,
//!   and exhaustive enumeration of generator schedules.
//!
//! ## Quick example
//!
//! ```
//! use ksa_models::registry;
//! use ksa_models::ObliviousModel;
//! use ksa_graphs::Digraph;
//!
//! // The symmetric union-of-2-stars model on 5 processes (Thm 6.13),
//! // by registry name.
//! let m = registry::builtin().resolve("stars{n=5,s=2}", 1_000_000u128).unwrap();
//! let m = m.as_closed_above().unwrap();
//! assert_eq!(m.generators().len(), 10); // C(5,2) center sets
//! assert!(m.contains(&Digraph::complete(5).unwrap()).unwrap());
//! ```

pub mod adversary;
pub mod closed_above;
pub mod error;
pub mod explicit;
pub mod modelgen;
pub mod named;
pub mod registry;
pub mod spec;

pub use closed_above::ClosedAboveModel;
pub use error::ModelError;
pub use explicit::ExplicitModel;
pub use registry::Registry;
pub use spec::{ModelSpec, ResolvedModel};

use ksa_graphs::Digraph;

/// An oblivious communication model (Def 2.2): one fixed set of allowed
/// graphs, used at every round.
pub trait ObliviousModel {
    /// Number of processes `n = |Π|`.
    fn n(&self) -> usize;

    /// Whether `g` is allowed at a round.
    ///
    /// # Errors
    ///
    /// [`ModelError`] if `g` lives on a different process set.
    fn contains(&self, g: &Digraph) -> Result<bool, ModelError>;

    /// Samples an allowed graph (seeded by the caller's `rng`).
    fn sample(&self, rng: &mut dyn rand::RngCore) -> Digraph;
}
