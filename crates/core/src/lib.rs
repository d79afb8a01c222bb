//! # ksa-core
//!
//! The primary contribution of *"K-set agreement bounds in round-based
//! models through combinatorial topology"* (Shimi & Castañeda, PODC 2020)
//! as an executable, tested library.
//!
//! The paper derives, for **closed-above** round-based models generated by
//! a set `S` of graphs on `n` processes:
//!
//! | Result | Statement | Here |
//! |---|---|---|
//! | Thm 3.2 | `γ(G)`-set agreement solvable in 1 round on `↑G` | [`bounds::upper`] |
//! | Thm 3.4 | `γ_eq(S)`-set agreement solvable in 1 round | [`bounds::upper`] |
//! | Thm 3.7 | `(i + n − cov_i(S))`-set agreement solvable in 1 round | [`bounds::upper`] |
//! | Thm 5.1 | `k < γ(G)` unsolvable in 1 round on `↑G` | [`bounds::lower`] |
//! | Thm 5.4 | `(l+1)`-set agreement unsolvable, `l` from `γ_dist`/`M_t` | [`bounds::lower`] |
//! | Cor 5.5 | symmetric specialization of Thm 5.4 | [`bounds::lower`] |
//! | Thm 6.3–6.5 | the upper bounds on the product model `S^r` | [`bounds::upper`] |
//! | Thm 6.7/6.9 | covering-sequence upper bounds over `r` rounds | [`bounds::upper`] |
//! | Thm 6.10/6.11 | the lower bounds on `S^r` (oblivious algorithms) | [`bounds::lower`] |
//! | Thm 6.13 | star unions: `(n−s)`-set agreement unsolvable | [`bounds::stars`] |
//!
//! [`bounds::report::BoundsReport`] assembles everything for one model and
//! round count, [`algorithms`] hosts the oblivious algorithms realizing the
//! upper bounds, [`task`] defines k-set agreement itself, and [`verify`]
//! checks the topological engine of Thm 5.4 (protocol-complex
//! connectivity) directly on small instances.
//!
//! ## Quick example
//!
//! ```
//! use ksa_models::named;
//! use ksa_core::bounds::report::BoundsReport;
//!
//! // Star unions with s = 2 on n = 5 (Thm 6.13): the bounds are tight —
//! // (n−s+1) = 4-set agreement solvable, (n−s) = 3-set agreement not.
//! let model = named::star_unions(5, 2).unwrap();
//! let report = BoundsReport::compute(&model, 1).unwrap();
//! assert_eq!(report.best_upper().unwrap().k, 4);
//! assert_eq!(report.best_lower().unwrap().impossible_k, 3);
//! assert!(report.is_tight());
//! ```

pub mod algorithms;
pub mod bounds;
pub mod budget;
pub mod error;
pub mod solvability;
pub mod task;
pub mod verify;

pub use error::CoreError;
pub use task::{KSetTask, Value};
