//! The named model zoo — classic constructors for every concrete model
//! the paper mentions:
//!
//! * **star unions** (Def 6.12, Thm 6.13) — the flagship lower-bound
//!   family;
//! * **non-empty kernel** (§2.1) — at least one process broadcasts; its
//!   generators are exactly the single broadcast stars;
//! * **symmetric ring / cycle models** — "containing a ring" safety;
//! * **non-split** (§2.1) — every pair of processes hears from a common
//!   process (materialized explicitly: it is closed-above too, but its
//!   minimal-generator presentation is what we build);
//! * **tournament** (§2.1, Afek–Gafni equivalence with wait-free
//!   read/write) — generated by all tournaments on `Π`;
//! * the two **Figure 1** models.
//!
//! Every constructor here is a thin wrapper that builds the equivalent
//! [`ModelSpec`] and materializes it — there is exactly **one**
//! construction path in the workspace ([`ModelSpec::materialize`]), and
//! the registry resolves the same models by name (`stars{n=5,s=2}`,
//! `tournament{n=3}`, …) with bit-identical generator sets.
//!
//! Guard surface: the exhaustive families (`tournament`, `non_split`)
//! take a [`RunBudget`] via [`tournament_within`] / [`non_split_within`].

use crate::closed_above::ClosedAboveModel;
use crate::error::ModelError;
use crate::explicit::ExplicitModel;
use crate::spec::{ModelSpec, ResolvedModel};
use ksa_graphs::budget::RunBudget;

fn closed_above(spec: ModelSpec, budget: RunBudget) -> Result<ClosedAboveModel, ModelError> {
    spec.materialize(budget)?.into_closed_above()
}

/// The symmetric closed-above model of **unions of `s` broadcast stars**
/// with distinct centers on `n` processes (Thm 6.13): one generator per
/// center set, `C(n, s)` generators. Registry name: `stars{n,s}`.
///
/// # Errors
///
/// [`ModelError::BadParameter`] unless `1 ≤ s ≤ n`;
/// [`ModelError::Graph`] for invalid `n`.
pub fn star_unions(n: usize, s: usize) -> Result<ClosedAboveModel, ModelError> {
    closed_above(ModelSpec::stars(n, s), RunBudget::DEFAULT)
}

/// The **non-empty kernel** model (§2.1): every round, at least one process
/// broadcasts to everyone. Equals [`star_unions`] with `s = 1`. Registry
/// name: `kernel{n}`.
///
/// # Errors
///
/// [`ModelError::Graph`] for invalid `n`.
pub fn non_empty_kernel(n: usize) -> Result<ClosedAboveModel, ModelError> {
    closed_above(ModelSpec::kernel(n), RunBudget::DEFAULT)
}

/// The symmetric **ring** model: some directed Hamiltonian cycle must be
/// contained in every round's graph. Registry name: `ring{n,sym}`.
///
/// `(n−1)!` generators — intended for `n ≤ 7`.
///
/// # Errors
///
/// [`ModelError::Graph`] for invalid `n`.
pub fn symmetric_ring(n: usize) -> Result<ClosedAboveModel, ModelError> {
    closed_above(ModelSpec::ring(n, true), RunBudget::DEFAULT)
}

/// The **simple** ring model `↑C_n` (one fixed cycle). Registry name:
/// `ring{n}`.
///
/// # Errors
///
/// [`ModelError::Graph`] for invalid `n`.
pub fn simple_ring(n: usize) -> Result<ClosedAboveModel, ModelError> {
    closed_above(ModelSpec::ring(n, false), RunBudget::DEFAULT)
}

/// The **non-split** model (§2.1): each pair of processes hears from a
/// common process. Materialized explicitly by predicate enumeration —
/// exponential in `n²`, so admission against `budget` happens before
/// anything is enumerated (use `n ≤ 4` in practice). Registry name:
/// `nonsplit{n}`.
///
/// # Errors
///
/// [`ModelError::Budget`] beyond the budget; [`ModelError::Graph`] for
/// invalid `n`.
pub fn non_split_within(
    n: usize,
    budget: impl Into<RunBudget>,
) -> Result<ExplicitModel, ModelError> {
    match ModelSpec::nonsplit(n).materialize(budget)? {
        ResolvedModel::Explicit(m) => Ok(m),
        ResolvedModel::ClosedAbove(_) => unreachable!("nonsplit materializes explicitly"),
    }
}

/// The **tournament** model (§2.1): generated by all tournaments (each
/// pair exchanges exactly one directed message in the generator).
/// `2^(n(n−1)/2)` generators, admitted against `budget` before building —
/// intended for `n ≤ 4`. Registry name: `tournament{n}`.
///
/// # Errors
///
/// [`ModelError::Budget`] beyond the budget; [`ModelError::BadParameter`]
/// when the orientation count cannot even be indexed (`n(n−1)/2 ≥ 64`);
/// [`ModelError::Graph`] for invalid `n`.
pub fn tournament_within(
    n: usize,
    budget: impl Into<RunBudget>,
) -> Result<ClosedAboveModel, ModelError> {
    closed_above(ModelSpec::tournament(n), budget.into())
}

/// The first **Figure 1** model: the symmetric single-star model on 4
/// processes. Registry name: `fig1star{}`.
///
/// # Errors
///
/// Never fails in practice; fallible for uniformity.
pub fn fig1_star_model() -> Result<ClosedAboveModel, ModelError> {
    closed_above(ModelSpec::Fig1Star, RunBudget::DEFAULT)
}

/// The second **Figure 1** model: the symmetric closure of the
/// reconstructed graph with `cov_2 = 3`, `γ_eq = 4` (see
/// [`ksa_graphs::families::fig1_second_graph`]). Registry name:
/// `fig1second{}`.
///
/// # Errors
///
/// Never fails in practice; fallible for uniformity.
pub fn fig1_second_model() -> Result<ClosedAboveModel, ModelError> {
    closed_above(ModelSpec::Fig1Second, RunBudget::DEFAULT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObliviousModel;
    use ksa_graphs::proc_set::{binomial, ProcSet};
    use ksa_graphs::{families, Digraph};

    #[test]
    fn star_unions_generator_count() {
        for n in 3..6 {
            for s in 1..=n {
                let m = star_unions(n, s).unwrap();
                assert_eq!(m.generators().len() as u128, binomial(n, s), "n={n}, s={s}");
                assert!(m.is_symmetric_model().unwrap());
            }
        }
        assert!(star_unions(4, 0).is_err());
        assert!(star_unions(4, 5).is_err());
    }

    #[test]
    fn star_unions_s_equals_n_is_clique() {
        let m = star_unions(3, 3).unwrap();
        assert_eq!(m.generators(), &[Digraph::complete(3).unwrap()]);
    }

    #[test]
    fn kernel_model_is_single_stars() {
        let m = non_empty_kernel(4).unwrap();
        assert_eq!(m.generators().len(), 4);
        for g in m.generators() {
            // Exactly one center broadcasting.
            let centers = (0..4).filter(|&c| g.out_set(c) == ProcSet::full(4)).count();
            assert_eq!(centers, 1);
        }
    }

    #[test]
    fn symmetric_ring_counts() {
        let m = symmetric_ring(4).unwrap();
        assert_eq!(m.generators().len(), 6); // (4−1)! directed 4-cycles
        assert!(m.is_symmetric_model().unwrap());
        assert!(simple_ring(4).unwrap().is_simple());
    }

    #[test]
    fn non_split_contains_kernel_graphs() {
        // A broadcast star satisfies non-split (the center is the common
        // in-neighbor).
        let m = non_split_within(3, 1u128 << 16).unwrap();
        let star = families::broadcast_star(3, 0).unwrap();
        assert!(m.contains(&star).unwrap());
        // Loops-only violates it.
        assert!(!m.contains(&Digraph::empty(3).unwrap()).unwrap());
    }

    #[test]
    fn non_split_is_upward_closed() {
        // Sanity for the §2.1 claim that such predicates are closed-above:
        // adding edges never breaks non-splitness.
        let m = non_split_within(3, 1u128 << 16).unwrap();
        for g in m.graphs() {
            for u in 0..3 {
                for v in 0..3 {
                    if u != v && !g.has_edge(u, v) {
                        let mut h = g.clone();
                        h.add_edge(u, v).unwrap();
                        assert!(m.contains(&h).unwrap());
                    }
                }
            }
        }
    }

    #[test]
    fn tournament_generator_count() {
        let m = tournament_within(3, 1u128 << 10).unwrap();
        // 2^3 orientations of the 3 pairs, all incomparable: 8 generators.
        assert_eq!(m.generators().len(), 8);
        assert!(tournament_within(10, 1u128 << 10).is_err());
    }

    #[test]
    fn fig1_models_build() {
        let a = fig1_star_model().unwrap();
        assert_eq!(a.generators().len(), 4);
        let b = fig1_second_model().unwrap();
        assert!(b.generators().len() > 1);
        assert!(b.is_symmetric_model().unwrap());
    }

    #[test]
    fn named_equals_registry_resolution() {
        // The satellite contract: every named constructor and its registry
        // name produce bit-identical generator/graph sets.
        let reg = crate::registry::builtin();
        let budget = 1_000_000u128;
        let cases: Vec<(String, ClosedAboveModel)> = vec![
            ("stars{n=5,s=2}".into(), star_unions(5, 2).unwrap()),
            ("kernel{n=4}".into(), non_empty_kernel(4).unwrap()),
            ("ring{n=4,sym}".into(), symmetric_ring(4).unwrap()),
            ("ring{n=5}".into(), simple_ring(5).unwrap()),
            (
                "tournament{n=3}".into(),
                tournament_within(3, budget).unwrap(),
            ),
            ("fig1star{}".into(), fig1_star_model().unwrap()),
            ("fig1second{}".into(), fig1_second_model().unwrap()),
        ];
        for (name, named_model) in cases {
            let resolved = reg.resolve(&name, budget).unwrap();
            assert_eq!(
                resolved.as_closed_above().unwrap().generators(),
                named_model.generators(),
                "{name}"
            );
        }
        let resolved = reg.resolve("nonsplit{n=3}", budget).unwrap();
        assert_eq!(
            resolved.as_explicit().unwrap().graphs(),
            non_split_within(3, budget).unwrap().graphs()
        );
    }
}
