//! The one-round anchors of the multi-round pipeline (DESIGN.md §6.3):
//! `protocol_complex_rounds(…, 1)` must reproduce
//! `protocol_complex_one_round` **bit for bit** on randomized
//! closed-above models — facet sets (after expanding the interned views)
//! and Betti numbers alike — and round 2, resolved through the view
//! tables, must equal the one-round complex of the one-round complex.
//! Inputs include facets that miss colors, whose senders leave partial
//! and empty views. The one-round construction shares no interning,
//! numbering or materialization code with the rounds pipeline, so it is
//! the pipeline's independent reference.

mod anchors;

use anchors::{any_input, check_against_anchors, random_generators, resolve_round_two};
use ksa_graphs::families;
use ksa_topology::complex::Complex;
use ksa_topology::homology::reduced_betti_numbers;
use ksa_topology::interpretation::protocol_complex_one_round;
use ksa_topology::pseudosphere::Pseudosphere;
use ksa_topology::rounds::protocol_complex_rounds;
use ksa_topology::simplex::{Simplex, Vertex};
use proptest::prelude::*;

const BUDGET: u128 = 10_000_000;

/// Budget of the round-2 anchor cases: large enough for most random
/// models to reach round 2, small enough that the nested one-round
/// complex stays quick to materialize; cases past it check the budget
/// rejection instead.
const ROUND_TWO_BUDGET: u128 = 20_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The anchor itself: expanded round-1 facet sets are identical to
    /// the one-round seed implementation, on full and partial inputs.
    #[test]
    fn round_one_facets_match_the_seed(
        gens in random_generators(3),
        input in any_input(),
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
        gens in random_generators(3),
        input in any_input(),
    ) {
        let rc = protocol_complex_rounds(&gens, &input, 1, BUDGET).unwrap();
        let direct = protocol_complex_one_round(&gens, &input, BUDGET).unwrap();
        prop_assert_eq!(
            reduced_betti_numbers(rc.complex_at(1).unwrap()),
            reduced_betti_numbers(&direct)
        );
    }

    /// Round 2, resolved through `table_at(2)`, `table_at(1)` and the
    /// input table, is the one-round complex of the one-round complex
    /// (views nest as `FlatView<FlatView<_>>`); a round past the budget
    /// fails with the running total the pseudosphere sizes predict.
    #[test]
    fn round_two_matches_the_nested_one_round_complex(
        gens in random_generators(3),
        input in any_input(),
    ) {
        let result = protocol_complex_rounds(&gens, &input, 2, ROUND_TWO_BUDGET);
        let verdict = check_against_anchors(&gens, &input, 2, ROUND_TWO_BUDGET, &result);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}

/// Two fixed round-2 anchors: ↑C3 over binary inputs, and a partial
/// input whose facets {0,1}, {0,1,2} and {2} leave empty views.
#[test]
fn round_two_anchor_on_fixed_inputs() {
    let binary = Pseudosphere::new((0..3).map(|p| (p, vec![0u32, 1])).collect())
        .unwrap()
        .to_complex();
    let simplex = |vs: &[(usize, u32)]| {
        Simplex::new(vs.iter().map(|&(c, v)| Vertex::new(c, v)).collect()).unwrap()
    };
    let partial = Complex::from_facets(vec![
        simplex(&[(0, 0), (1, 1)]),
        simplex(&[(0, 1), (1, 0), (2, 1)]),
        simplex(&[(2, 0)]),
    ]);
    let gens = vec![families::cycle(3).unwrap()];
    for input in [binary, partial] {
        let rc = protocol_complex_rounds(&gens, &input, 2, BUDGET).unwrap();
        let one = protocol_complex_one_round(&gens, &input, BUDGET).unwrap();
        let two = protocol_complex_one_round(&gens, &one, BUDGET).unwrap();
        assert_eq!(rc.expand_round_one(), one);
        assert_eq!(resolve_round_two(&rc), two);
        assert_eq!(rc.complex_at(2).unwrap().facet_count(), two.facet_count());
    }
}

/// The one entry point's token: silent changes nothing, fired and
/// expired tokens stop the construction.
#[test]
fn construction_honours_the_run_token() {
    use ksa_graphs::budget::{Run, RunBudget};
    use ksa_graphs::cancel::{CancelToken, Deadline};
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
