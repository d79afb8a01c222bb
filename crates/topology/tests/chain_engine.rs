//! Proptests pinning the flat chain-complex engine (`ksa_topology::chain`)
//! to the behavior of the engine-free references (DESIGN.md §4, §7):
//!
//! * chain-engine Betti numbers == `reduced_betti_numbers_seq`;
//! * `connectivity_up_to(c, k)` == the truncation of the full
//!   `connectivity(c)` verdict;
//! * skeleton-reuse queries == homology of the materialized
//!   `c.skeleton(k)`;
//! * every `RoundsComplex::homology_sweep` step == the per-complex
//!   references of its round, and the cancellable sweep under a silent
//!   token == the plain one;
//! * the top-down closure's per-dimension counts == those of the
//!   independent `Complex::all_simplexes`;
//! * on larger complexes of dimension up to 4 with several components,
//!   where both clearings run (the union-find forest clears `δ^1`, an
//!   echelon basis below the top dimension clears the next), the Betti
//!   numbers == `reduced_betti_numbers_seq`, and Betti, skeleton and
//!   truncated-connectivity queries answer alike in any order.

use ksa_graphs::cancel::CancelToken;
use ksa_graphs::Digraph;
use ksa_topology::chain::ChainComplex;
use ksa_topology::complex::Complex;
use ksa_topology::connectivity::{
    connectivity, connectivity_seq, connectivity_up_to, Connectivity,
};
use ksa_topology::homology::reduced_betti_numbers_seq;
use ksa_topology::pseudosphere::Pseudosphere;
use ksa_topology::rounds::protocol_complex_rounds;
use ksa_topology::simplex::{Simplex, Vertex};
use proptest::prelude::*;

/// Strategy: a small complex over colors 0..6 with u8 views.
fn small_complex() -> impl Strategy<Value = Complex<u8>> {
    let simplex = prop::collection::btree_map(0usize..6, 0u8..3, 1..=5).prop_map(|m| {
        Simplex::new(m.into_iter().map(|(c, v)| Vertex::new(c, v)).collect())
            .expect("btree keys are distinct colors")
    });
    prop::collection::vec(simplex, 1..7).prop_map(Complex::from_facets)
}

/// Strategy: 8–12 pieces over colors 0..7, each a simplex of dimension
/// 1–4 or its boundary sphere, and each in one of three components (its
/// vertices' view), so pieces of a component share vertices by color and
/// different components never meet.
fn larger_complex() -> impl Strategy<Value = Complex<u8>> {
    let piece = (
        0u8..3,
        prop::collection::btree_set(0usize..7, 2..=5),
        any::<bool>(),
    );
    prop::collection::vec(piece, 8..=12).prop_map(|pieces| {
        let mut facets = Vec::new();
        for (comp, colors, hollow) in pieces {
            let colors: Vec<usize> = colors.into_iter().collect();
            // A hollow piece drops each vertex in turn; a solid one none.
            let drops: Vec<Option<usize>> = if hollow {
                (0..colors.len()).map(Some).collect()
            } else {
                vec![None]
            };
            for drop in drops {
                let vertices = colors
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| Some(i) != drop)
                    .map(|(_, &c)| Vertex::new(c, comp))
                    .collect();
                facets.push(Simplex::new(vertices).expect("distinct colors"));
            }
        }
        Complex::from_facets(facets)
    })
}

/// The answer to one chain query.
#[derive(Debug, PartialEq)]
enum Answer {
    Betti(Vec<usize>),
    Connectivity(Connectivity),
}

/// Asks `chain` query `0` (the full Betti vector), `1` (the Betti vector
/// of the `k`-skeleton) or `2` (the connectivity truncated at `k`).
fn ask(chain: &mut ChainComplex, (query, k): (u8, isize)) -> Answer {
    match query {
        0 => Answer::Betti(chain.reduced_betti()),
        1 => Answer::Betti(chain.skeleton_betti(k)),
        _ => Answer::Connectivity(chain.connectivity_up_to(k)),
    }
}

/// Strategy: up to two generator digraphs on 3 processes.
fn random_generators() -> impl Strategy<Value = Vec<Digraph>> {
    let graph = prop::collection::btree_set((0usize..3, 0usize..3), 0..7)
        .prop_map(|edges| Digraph::from_edges(3, &edges.into_iter().collect::<Vec<_>>()).unwrap());
    prop::collection::vec(graph, 1..=2)
}

/// Facet budget for the sweep proptest: sparse generators whose second
/// round blows up are rejected rather than left to dominate the suite
/// (the dense `_seq` references are the slow side).
const SWEEP_BUDGET: u128 = 10_000;

/// The truncation of a full connectivity verdict at `k`: what
/// `connectivity_up_to` promises to return (its documented semantics).
fn truncate(full: Connectivity, k: isize, dim: isize) -> Connectivity {
    let cap = k.min(dim);
    match full {
        Connectivity::Empty => Connectivity::Empty,
        Connectivity::Exactly(c) if c < cap => Connectivity::Exactly(c),
        Connectivity::Exactly(_) | Connectivity::AtLeast(_) => Connectivity::AtLeast(cap),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chain_betti_matches_seq_reference(c in small_complex()) {
        let reference = reduced_betti_numbers_seq(&c);
        prop_assert_eq!(ChainComplex::from_complex(&c).reduced_betti(), reference);
    }

    #[test]
    fn connectivity_matches_seq_reference(c in small_complex()) {
        let reference = connectivity_seq(&c);
        prop_assert_eq!(connectivity(&c), reference);
    }

    #[test]
    fn connectivity_up_to_agrees_with_truncation(c in small_complex(), k in -1isize..5) {
        let full = connectivity_seq(&c);
        let expected = truncate(full, k, c.dim());
        prop_assert_eq!(connectivity_up_to(&c, k), expected, "k = {}", k);
    }

    #[test]
    fn skeleton_queries_match_materialized_skeleta(c in small_complex(), k in 0isize..5) {
        let sk = c.skeleton(k);
        let betti_ref = reduced_betti_numbers_seq(&sk);
        let conn_ref = connectivity_seq(&sk);
        let mut chain = c.chain();
        prop_assert_eq!(chain.skeleton_betti(k), betti_ref, "k = {}", k);
        prop_assert_eq!(chain.skeleton_connectivity(k), conn_ref, "k = {}", k);
    }

    /// The round sweep: every step equals the references of its round's
    /// complex, and a silent token changes nothing.
    #[test]
    fn homology_sweep_matches_per_round_references(
        gens in random_generators(),
        rounds in 1usize..=2,
    ) {
        let input = Pseudosphere::new((0..3).map(|p| (p, vec![0u32, 1])).collect())
            .unwrap()
            .to_complex();
        let built = protocol_complex_rounds(&gens, &input, rounds, SWEEP_BUDGET);
        prop_assume!(built.is_ok());
        let rc = built.unwrap();
        let reference: Vec<_> = rc
            .complexes()
            .iter()
            .map(|c| (reduced_betti_numbers_seq(c), connectivity_seq(c)))
            .collect();
        let token = CancelToken::new();
        let steps = rc.homology_sweep();
        prop_assert_eq!(steps.len(), rounds);
        for (t, (step, (betti, conn))) in steps.iter().zip(&reference).enumerate() {
            prop_assert_eq!(&step.betti, betti, "round {}", t + 1);
            prop_assert_eq!(step.connectivity, *conn, "round {}", t + 1);
        }
        prop_assert_eq!(rc.homology_sweep_cancellable(&token).unwrap(), steps);
    }

    /// The coboundary kernel with both clearings against the dense
    /// reference, and its lazy, cached ranks against query order: every
    /// query on one shared chain answers as on a fresh one.
    #[test]
    fn larger_complexes_match_seq_reference_in_any_query_order(
        c in larger_complex(),
        queries in prop::collection::vec((0u8..3, -1isize..6), 1..=6),
    ) {
        let reference = reduced_betti_numbers_seq(&c);
        prop_assert_eq!(ChainComplex::from_complex(&c).reduced_betti(), reference);
        let mut shared = ChainComplex::from_complex(&c);
        for &q in &queries {
            let fresh = ask(&mut ChainComplex::from_complex(&c), q);
            prop_assert_eq!(ask(&mut shared, q), fresh, "query {:?} of {:?}", q, queries);
        }
    }

    /// The top-down closure is the face closure: its per-dimension
    /// counts match the independent `Complex::all_simplexes`.
    #[test]
    fn closure_counts_match_all_simplexes(c in small_complex()) {
        let mut expected = vec![0usize; c.dim() as usize + 1];
        for s in c.all_simplexes() {
            expected[s.dim() as usize] += 1;
        }
        let chain = ChainComplex::from_complex(&c);
        for (k, &n) in expected.iter().enumerate() {
            prop_assert_eq!(chain.simplex_count(k), n, "k = {}", k);
        }
        prop_assert_eq!(chain.simplex_count(expected.len()), 0);
    }
}
