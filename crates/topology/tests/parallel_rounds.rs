//! Pool-size independence of the multi-round pipeline, pinned to the
//! one-round anchors.
//!
//! The construction runs on the calling thread, so the whole
//! [`RoundsComplex`] — every round's interned complex *and* every
//! round's view table, ids included — must come out the same whichever
//! `ksa-exec` pool (1, 2 or 8 workers) it is called from (DESIGN.md §4,
//! §6), and each result must match the one-round construction, which
//! shares no code with it: round 1 expanded, round 2 resolved through
//! the view tables, later rounds resolved one level against the
//! one-round complex of the round before.

mod anchors;

use anchors::{
    check_against_anchors, random_generators, random_input, resolve_one_level, resolve_round_two,
};
use ksa_exec::ThreadPool;
use ksa_graphs::Digraph;
use ksa_topology::interpretation::protocol_complex_one_round;
use ksa_topology::pseudosphere::Pseudosphere;
use ksa_topology::rounds::{protocol_complex_rounds, RoundsComplex};
use proptest::prelude::*;
use std::sync::OnceLock;

const BUDGET: u128 = 10_000_000;

/// The shared pools (1/2/8 workers), started once for the whole test
/// binary so proptest cases don't churn threads.
fn pools() -> &'static [ThreadPool] {
    static POOLS: OnceLock<Vec<ThreadPool>> = OnceLock::new();
    POOLS.get_or_init(|| [1, 2, 8].into_iter().map(ThreadPool::new).collect())
}

#[test]
fn two_round_ring_identical_across_pool_sizes() {
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
    for pool in pools() {
        let rc = pool.install(|| protocol_complex_rounds(&gens, &input, 2, BUDGET).unwrap());
        assert_eq!(
            rc.expand_round_one(),
            one,
            "pool size {}",
            pool.num_threads()
        );
        assert_eq!(
            resolve_round_two(&rc),
            two,
            "pool size {}",
            pool.num_threads()
        );
    }
}

#[test]
fn repeated_runs_stable_when_oversubscribed() {
    // The KSA_THREADS=8 stability check: the oversubscribed pool must
    // return the same RoundsComplex run after run, and every round of it
    // must be the one-round complex of the round before.
    let gens = vec![ksa_graphs::families::cycle(3).unwrap()];
    let input = Pseudosphere::new((0..3).map(|p| (p, vec![0u32, 1])).collect())
        .unwrap()
        .to_complex();
    let pool = &pools()[2];
    assert_eq!(pool.num_threads(), 8);
    let first: RoundsComplex<u32> =
        pool.install(|| protocol_complex_rounds(&gens, &input, 3, BUDGET).unwrap());
    for run in 0..3 {
        let again = pool.install(|| protocol_complex_rounds(&gens, &input, 3, BUDGET).unwrap());
        assert_eq!(again, first, "run {run}");
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
/// anchors predict at every pool size, which this budget deliberately
/// exercises.
const PROP_BUDGET: u128 = 5_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whole-`Result` determinism on randomized models, one and two
    /// rounds, across pool sizes 1/2/8: materialized values and budget
    /// rejections alike must match the anchors.
    #[test]
    fn rounds_identical_across_pool_sizes(
        gens in random_generators(2),
        input in random_input(),
        rounds in 1usize..=2,
    ) {
        for pool in pools() {
            let result = pool.install(|| {
                protocol_complex_rounds(&gens, &input, rounds, PROP_BUDGET)
            });
            let verdict = check_against_anchors(&gens, &input, rounds, PROP_BUDGET, &result);
            prop_assert!(verdict.is_ok(), "pool size {}: {}", pool.num_threads(), verdict.unwrap_err());
        }
    }
}
