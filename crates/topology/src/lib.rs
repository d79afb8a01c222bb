//! # ksa-topology
//!
//! The combinatorial-topology substrate for the reproduction of *"K-set
//! agreement bounds in round-based models through combinatorial topology"*
//! (Shimi & Castañeda, PODC 2020).
//!
//! The paper's lower bounds are proved by showing that the one-round
//! **protocol complex** of a closed-above model is highly connected, then
//! invoking the standard connectivity-based impossibility for k-set
//! agreement. This crate builds every object in that pipeline:
//!
//! * [`simplex`] / [`complex`] — colored simplexes and simplicial complexes
//!   (Defs 4.1–4.2), with union, intersection, skeletons and purity;
//! * [`pseudosphere`] — the pseudosphere complexes `φ(Π; V_1..V_n)`
//!   (Def 4.5) and their intersection law (Lemma 4.6);
//! * [`chain`] — the flat chain-complex engine: a top-down face closure
//!   emitting boundary incidence rows over integer simplex ids, sparse
//!   boundary reduction with per-dimension rank caching,
//!   early-exit connectivity, and rank reuse across skeleta
//!   (DESIGN.md §7);
//! * [`homology`] / [`connectivity`] — reduced Z/2 Betti numbers and the
//!   homological connectivity checks used as the computational proxy for
//!   the paper's homotopy connectivity (see DESIGN.md for the
//!   substitution note), both running on [`chain`] with engine-free
//!   `_seq` references;
//! * [`nerve`] — nerve complexes of covers (Def 4.10), the engine of the
//!   paper's Lemma 4.11 applications;
//! * [`shelling`] — shelling-order verification and exhaustive shellability
//!   (§4.4, Fig 4);
//! * [`uninterpreted`] — the uninterpreted simplex/complex of graphs and
//!   closed-above models (Defs 4.3–4.4, Lemma 4.8);
//! * [`interpretation`] — interpretations over an input complex
//!   (Defs 4.13–4.14): the one-round protocol complexes themselves;
//! * [`rounds`] / [`intern`] — multi-round protocol complexes by
//!   iterated interpretation, with each round's views hash-consed into a
//!   `u32`-keyed arena (the §6 iteration story; DESIGN.md §6).
//!
//! ## Quick example
//!
//! ```
//! use ksa_topology::pseudosphere::Pseudosphere;
//! use ksa_topology::connectivity::homological_connectivity;
//!
//! // Figure 3 of the paper: φ(P1,P2,P3; {v1,v2}, {v1,v2}, {v}).
//! let ps = Pseudosphere::new(vec![
//!     (0, vec![1u32, 2]),
//!     (1, vec![1, 2]),
//!     (2, vec![7]),
//! ]).unwrap();
//! let c = ps.to_complex();
//! assert_eq!(c.facets().count(), 4);
//! // Pseudospheres on n = 3 non-empty colors are (n − 2) = 1-connected
//! // (Lemma 4.7); homologically verified:
//! assert!(homological_connectivity(&c) >= 1);
//! ```

#![deny(missing_docs)]

pub mod chain;
pub mod complex;
pub mod connectivity;
pub mod error;
pub mod gf2;
pub mod homology;
pub mod intern;
pub mod interpretation;
pub mod join;
pub mod nerve;
pub mod pseudosphere;
pub mod rounds;
pub mod shelling;
pub mod simplex;
pub mod uninterpreted;

pub use complex::Complex;
pub use error::TopologyError;
pub use rounds::{protocol_complex_rounds, RoundsComplex};
pub use simplex::{Simplex, Vertex, View};
