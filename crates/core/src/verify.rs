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
use crate::task::input_complex;
use ksa_models::ClosedAboveModel;
use ksa_topology::connectivity::homological_connectivity;
use ksa_topology::interpretation::protocol_complex_one_round;

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
}
