//! The round-1 anchor: `protocol_complex_rounds(…, 1)` must reproduce
//! the seed's `protocol_complex_one_round` **bit for bit** on randomized
//! closed-above models — facet sets (after expanding the interned views)
//! and Betti numbers alike. This pins the new multi-round subsystem to
//! the one-round semantics the paper's Thm 5.4 machinery was verified
//! against (DESIGN.md §6).
//!
//! The anchor doubles as an end-to-end determinism check of the
//! parallel pipeline against the seed implementation.

use ksa_graphs::Digraph;
use ksa_topology::complex::Complex;
use ksa_topology::homology::reduced_betti_numbers;
use ksa_topology::interpretation::protocol_complex_one_round;
use ksa_topology::pseudosphere::Pseudosphere;
use ksa_topology::rounds::{protocol_complex_rounds, protocol_complex_rounds_seq};
use proptest::prelude::*;

const BUDGET: u128 = 10_000_000;

/// Strategy: 1–3 random generator graphs on 3 processes (self-loops are
/// implicit; Digraph adds them).
fn random_generators() -> impl Strategy<Value = Vec<Digraph>> {
    let graph = prop::collection::btree_set((0usize..3, 0usize..3), 0..7)
        .prop_map(|edges| Digraph::from_edges(3, &edges.into_iter().collect::<Vec<_>>()).unwrap());
    prop::collection::vec(graph, 1..=3)
}

/// Strategy: a chromatic input complex on 3 processes — a pseudosphere
/// with 1–2 admissible values per process (the closed-above models'
/// input shape; facets carry every color).
fn random_input() -> impl Strategy<Value = Complex<u32>> {
    prop::collection::vec(prop::collection::btree_set(0u32..3, 1..=2), 3..=3).prop_map(|views| {
        Pseudosphere::new(
            views
                .into_iter()
                .enumerate()
                .map(|(p, vs)| (p, vs.into_iter().collect()))
                .collect(),
        )
        .unwrap()
        .to_complex()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The anchor itself: expanded round-1 facet sets are identical to
    /// the one-round seed implementation.
    #[test]
    fn round_one_facets_match_the_seed(
        gens in random_generators(),
        input in random_input(),
    ) {
        let rc = protocol_complex_rounds(&gens, &input, 1, BUDGET).unwrap();
        let direct = protocol_complex_one_round(&gens, &input, BUDGET).unwrap();
        prop_assert_eq!(rc.expand_round_one(), direct);
    }

    /// And the homology agrees on the interned representation directly:
    /// hash-consing relabels views injectively, so the Betti numbers of
    /// the `Complex<u32>` equal those of the materialized complex.
    #[test]
    fn round_one_betti_match_the_seed(
        gens in random_generators(),
        input in random_input(),
    ) {
        let rc = protocol_complex_rounds(&gens, &input, 1, BUDGET).unwrap();
        let direct = protocol_complex_one_round(&gens, &input, BUDGET).unwrap();
        prop_assert_eq!(
            reduced_betti_numbers(rc.complex_at(1).unwrap()),
            reduced_betti_numbers(&direct)
        );
    }

    /// The sequential reference is pinned to the same anchor, which
    /// keeps it honest independently of the parallel entry.
    #[test]
    fn sequential_reference_matches_the_seed(
        gens in random_generators(),
        input in random_input(),
    ) {
        let rc = protocol_complex_rounds_seq(&gens, &input, 1, BUDGET).unwrap();
        let direct = protocol_complex_one_round(&gens, &input, BUDGET).unwrap();
        prop_assert_eq!(rc.expand_round_one(), direct);
    }
}

/// The one entry point's token: silent changes nothing, fired and
/// expired tokens stop the construction.
#[test]
fn construction_honours_the_run_token() {
    use ksa_graphs::budget::{Run, RunBudget};
    use ksa_graphs::cancel::{CancelToken, Deadline};
    use ksa_graphs::families;
    use ksa_topology::TopologyError;

    let gens = vec![
        families::cycle(3).unwrap(),
        families::broadcast_star(3, 1).unwrap(),
    ];
    let input = Pseudosphere::new((0..3).map(|p| (p, vec![0u32, 1])).collect())
        .unwrap()
        .to_complex();
    let with = |cancel: &CancelToken| {
        let run = Run {
            budget: RunBudget::new(BUDGET),
            cancel: Some(cancel),
        };
        protocol_complex_rounds(&gens, &input, 2, run)
    };
    let plain = protocol_complex_rounds(&gens, &input, 2, BUDGET).unwrap();
    assert_eq!(with(&CancelToken::new()), Ok(plain));
    let fired = CancelToken::new();
    fired.cancel();
    assert_eq!(with(&fired), Err(TopologyError::Cancelled));
    let expired = CancelToken::with_deadline(Deadline::in_millis(0));
    assert_eq!(with(&expired), Err(TopologyError::DeadlineExceeded));
}
