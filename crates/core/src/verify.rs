//! Topological verification of the lower-bound engine (Thm 5.4 / App. B).
//!
//! The paper's argument: the one-round protocol complex of a closed-above
//! model over the input pseudosphere `Ψ(Π, [0, k])` is `l`-connected with
//! `l = min(γ_dist − 2, min_t t + M_t − 2)`; by the standard
//! connectivity-based impossibility, `(l+1)`-set agreement is then
//! unsolvable. This module rebuilds those protocol complexes explicitly
//! (small `n`) and measures their homological connectivity, confronting it
//! with the predicted `l` — the experiment behind EXPERIMENTS.md's `thm54`
//! rows.

use crate::bounds::lower::theorem_5_4_l;
use crate::error::CoreError;
use crate::solvability::DecisionMap;
use crate::task::{input_complex, Value};
use ksa_models::ClosedAboveModel;
use ksa_topology::connectivity::homological_connectivity;
use ksa_topology::interpretation::{protocol_complex_one_round, FlatView};

/// The outcome of one protocol-complex verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerificationReport {
    /// Number of processes.
    pub n: usize,
    /// Input values ranged over `{0, …, value_max}`.
    pub value_max: usize,
    /// The `l` predicted by Thm 5.4 from the combinatorial numbers.
    pub predicted_l: isize,
    /// The measured homological connectivity of the protocol complex.
    pub measured_connectivity: isize,
    /// Facet count of the protocol complex (size indicator).
    pub protocol_facets: usize,
}

impl VerificationReport {
    /// Thm 5.4 asserts the protocol complex is `l`-connected; the measured
    /// homological connectivity must be at least the prediction.
    pub fn is_consistent(&self) -> bool {
        self.measured_connectivity >= self.predicted_l
    }
}

/// Builds the one-round protocol complex of `model` over
/// `Ψ(Π, [0, value_max])` and confronts its homological connectivity with
/// the Thm 5.4 prediction.
///
/// Exponential in `n` (facet products) — intended for `n ≤ 4`,
/// `value_max ≤ 2`; `facet_limit` guards each materialized pseudosphere.
///
/// # Errors
///
/// [`CoreError::Topology`] when budgets are exceeded; graph-layer errors
/// otherwise.
pub fn verify_protocol_connectivity(
    model: &ClosedAboveModel,
    value_max: usize,
    facet_limit: u128,
) -> Result<VerificationReport, CoreError> {
    let n = ksa_models::ObliviousModel::n(model);
    let input = input_complex(n, value_max, facet_limit)?;
    let proto = protocol_complex_one_round(model.generators(), &input, facet_limit)?;
    let measured = homological_connectivity(&proto);
    let predicted = theorem_5_4_l(model.generators())?;
    Ok(VerificationReport {
        n,
        value_max,
        predicted_l: predicted,
        measured_connectivity: measured,
        protocol_facets: proto.facet_count(),
    })
}

/// The outcome of replaying a synthesized [`DecisionMap`] over every
/// execution of a model (all closure graphs × all input assignments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionReplayReport {
    /// Agreement target the map was synthesized for.
    pub k: usize,
    /// Executions replayed (closure graphs × input assignments).
    pub executions: usize,
    /// Largest number of distinct decisions any execution saw.
    pub max_distinct: usize,
    /// Views the map had no entry for (must be 0 — the decision
    /// procedure enumerates every reachable view).
    pub missing_views: usize,
    /// Decisions that violated validity (a value nobody in the view
    /// held; must be 0).
    pub invalid_decisions: usize,
}

impl DecisionReplayReport {
    /// Whether the map is a genuine k-set agreement algorithm on the
    /// replayed model: complete, valid, and within the agreement bound.
    pub fn is_valid(&self) -> bool {
        self.missing_views == 0 && self.invalid_decisions == 0 && self.max_distinct <= self.k
    }
}

/// Replays a [`DecisionMap`] witness (from
/// [`crate::solvability::decide_one_round`] or a sweep) over **every**
/// execution of `model` with inputs from `{0, …, value_max}`: every
/// closure graph of every generator × every input assignment × every
/// process. This checks the witness against the model itself, not
/// against the CSP encoding that produced it — the differential-test
/// backstop for the pruned search.
///
/// Exponential (closure enumeration × `values^n`); `graph_limit` guards
/// each generator's closure.
///
/// # Errors
///
/// [`CoreError::Graph`] when a closure exceeds `graph_limit`.
pub fn verify_decision_map(
    model: &ClosedAboveModel,
    k: usize,
    value_max: usize,
    map: &DecisionMap,
    graph_limit: usize,
) -> Result<DecisionReplayReport, CoreError> {
    let n = ksa_models::ObliviousModel::n(model);
    let values = value_max as Value + 1;
    let mut graphs = Vec::new();
    for g in model.generators() {
        graphs.extend(ksa_graphs::closure::enumerate_closure(g, graph_limit)?);
    }
    graphs.sort();
    graphs.dedup();
    let mut report = DecisionReplayReport {
        k,
        executions: 0,
        max_distinct: 0,
        missing_views: 0,
        invalid_decisions: 0,
    };
    for inputs in crate::solvability::input_assignments(n, values) {
        for g in &graphs {
            report.executions += 1;
            let mut decisions: Vec<Value> = Vec::with_capacity(n);
            for p in 0..n {
                let view: FlatView<Value> = g.in_set(p).iter().map(|q| (q, inputs[q])).collect();
                match map.decide(&view) {
                    None => report.missing_views += 1,
                    Some(d) => {
                        if !view.iter().any(|&(_, held)| held == d) {
                            report.invalid_decisions += 1;
                        }
                        if !decisions.contains(&d) {
                            decisions.push(d);
                        }
                    }
                }
            }
            report.max_distinct = report.max_distinct.max(decisions.len());
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksa_models::named;
    use ksa_models::ClosedAboveModel;

    #[test]
    fn stars_n3_protocol_connectivity() {
        // n = 3, s = 1 stars: γ_dist = 3, M_t = n − t ⇒
        // l = min(1, 1 + 2 − 2) = 1. The protocol complex over binary-ish
        // inputs must be (homologically) at least 1-connected.
        let m = named::star_unions(3, 1).unwrap();
        let rep = verify_protocol_connectivity(&m, 1, 200_000).unwrap();
        assert_eq!(rep.predicted_l, 1);
        assert!(rep.is_consistent(), "{rep:?}");
    }

    #[test]
    fn ring_n3_protocol_connectivity() {
        let m = named::symmetric_ring(3).unwrap();
        let rep = verify_protocol_connectivity(&m, 1, 200_000).unwrap();
        assert!(rep.is_consistent(), "{rep:?}");
    }

    #[test]
    fn simple_model_protocol_connectivity() {
        let m = named::simple_ring(3).unwrap();
        let rep = verify_protocol_connectivity(&m, 2, 200_000).unwrap();
        assert!(rep.is_consistent(), "{rep:?}");
        assert!(rep.protocol_facets > 0);
    }

    #[test]
    fn clique_model_contractible_protocol() {
        // The clique's closure is a single graph: the protocol complex
        // over any input is one simplex per input facet glued along shared
        // views — connectivity at least 0 trivially, and the predicted l
        // is min(γ_dist−2, …) = −1 or less, consistent.
        let m = ClosedAboveModel::new(vec![ksa_graphs::Digraph::complete(3).unwrap()]).unwrap();
        let rep = verify_protocol_connectivity(&m, 1, 200_000).unwrap();
        assert!(rep.is_consistent(), "{rep:?}");
    }

    #[test]
    fn budget_guard() {
        let m = named::star_unions(4, 1).unwrap();
        assert!(verify_protocol_connectivity(&m, 3, 10).is_err());
    }

    #[test]
    fn decision_map_replay_validates_a_witness() {
        use crate::solvability::{decide_one_round, Solvability};
        let m = named::star_unions(3, 2).unwrap();
        let (Solvability::Solvable(map), _, _) =
            decide_one_round(&m, 2, 2, 1 << 21, 1 << 24, None).unwrap()
        else {
            panic!("solvable");
        };
        let rep = verify_decision_map(&m, 2, 2, &map, 1 << 12).unwrap();
        assert!(rep.is_valid(), "{rep:?}");
        assert!(rep.executions > 0);
        assert_eq!(rep.max_distinct, 2);
        // The same map replayed against a stricter target must fail:
        // 1-set agreement is unsolvable on this model, so no witness can
        // keep every execution to one decision.
        let strict = verify_decision_map(&m, 1, 2, &map, 1 << 12).unwrap();
        assert!(!strict.is_valid());
    }

    #[test]
    fn decision_map_replay_budget_guard() {
        use crate::solvability::{decide_one_round, Solvability};
        let m = named::simple_ring(3).unwrap();
        let (Solvability::Solvable(map), _, _) =
            decide_one_round(&m, 2, 2, 1 << 21, 1 << 24, None).unwrap()
        else {
            panic!("solvable");
        };
        assert!(verify_decision_map(&m, 2, 2, &map, 1).is_err());
    }
}
