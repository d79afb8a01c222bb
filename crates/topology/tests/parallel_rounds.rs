//! The multi-round pipeline, pinned to the one-round anchors.
//!
//! The construction runs on the calling thread, so the whole
//! [`RoundsComplex`] — every round's interned complex *and* every
//! round's view table, ids included — is a function of its inputs
//! (DESIGN.md §4, §6), and each result must match the one-round
//! construction, which shares no code with it: round 1 expanded, round 2
//! resolved through the view tables, later rounds resolved one level
//! against the one-round complex of the round before.

mod anchors;

use anchors::{
    check_against_anchors, random_generators, random_input, resolve_one_level, resolve_round_two,
};
use ksa_exec::{map_in_order, ThreadPool};
use ksa_graphs::Digraph;
use ksa_topology::interpretation::protocol_complex_one_round;
use ksa_topology::pseudosphere::Pseudosphere;
use ksa_topology::rounds::{protocol_complex_rounds, RoundsComplex};
use proptest::prelude::*;

const BUDGET: u128 = 10_000_000;

#[test]
fn two_round_ring_matches_the_one_round_anchors() {
    // A fixed instance: Sym(C3) over binary inputs grows to 1800 round-2
    // facets.
    let gens = vec![
        ksa_graphs::families::cycle(3).unwrap(),
        Digraph::from_edges(3, &[(0, 2), (2, 1), (1, 0)]).unwrap(),
    ];
    let input = Pseudosphere::new((0..3).map(|p| (p, vec![0u32, 1])).collect())
        .unwrap()
        .to_complex();
    let one = protocol_complex_one_round(&gens, &input, BUDGET).unwrap();
    let two = protocol_complex_one_round(&gens, &one, BUDGET).unwrap();
    assert_eq!(two.facet_count(), 1800);
    let rc = protocol_complex_rounds(&gens, &input, 2, BUDGET).unwrap();
    assert_eq!(rc.expand_round_one(), one);
    assert_eq!(resolve_round_two(&rc), two);
}

#[test]
fn repeated_runs_stable_when_oversubscribed() {
    // Eight constructions side by side on eight scoped workers (more than
    // the CI machine has cores), the way concurrent experiments run: each
    // must return the same RoundsComplex, and every round of it must be
    // the one-round complex of the round before.
    let gens = vec![ksa_graphs::families::cycle(3).unwrap()];
    let input = Pseudosphere::new((0..3).map(|p| (p, vec![0u32, 1])).collect())
        .unwrap()
        .to_complex();
    let first: RoundsComplex<u32> = protocol_complex_rounds(&gens, &input, 3, BUDGET).unwrap();
    let runs: Vec<usize> = (0..8).collect();
    let again = ThreadPool::new(8).install(|| {
        map_in_order(&runs, |_| {
            protocol_complex_rounds(&gens, &input, 3, BUDGET).unwrap()
        })
    });
    for (run, rc) in again.iter().enumerate() {
        assert_eq!(rc, &first, "run {run}");
    }
    assert_eq!(
        first.expand_round_one(),
        protocol_complex_one_round(&gens, &input, BUDGET).unwrap()
    );
    for t in 1..3 {
        let prev = first.complex_at(t).unwrap();
        assert_eq!(
            resolve_one_level(&first, t),
            protocol_complex_one_round(&gens, prev, BUDGET).unwrap(),
            "round {}",
            t + 1
        );
    }
}

/// Budget for the randomized cases: small enough that sparse random
/// generators (whose closures blow up fastest) fail fast instead of
/// dominating the suite — and the *error* must then be the one the
/// anchors predict, which this budget deliberately exercises.
const PROP_BUDGET: u128 = 5_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whole-`Result` agreement on randomized models, one and two
    /// rounds: materialized values and budget rejections alike must match
    /// the anchors.
    #[test]
    fn rounds_match_the_one_round_anchors(
        gens in random_generators(2),
        input in random_input(),
        rounds in 1usize..=2,
    ) {
        let result = protocol_complex_rounds(&gens, &input, rounds, PROP_BUDGET);
        let verdict = check_against_anchors(&gens, &input, rounds, PROP_BUDGET, &result);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}
