//! Differential tests of the one-round enumeration by packed view keys
//! (DESIGN.md §10.4) against the flat-view sequential oracle it
//! replaces: on random closed-above models with one or two generators at
//! n = 2, 3 and 4 and one to four input values, the keyed pass must
//! return the oracle's views and executions, order included — the
//! numbering the CSP's variable order, and so its witnesses, depend on —
//! and the oracle's `TooLarge` error when the execution limit is hit
//! partway through. The witness lift's views-only pass must return the
//! same views, as a set.
//!
//! The key-width guard is pinned on both sides: 64 processes over one
//! value is the widest layout that fits a `u64`, and 41 processes over
//! two values are refused before anything is enumerated.

use ksa_core::solvability::{decide_one_round, one_round_enumerations, one_round_views};
use ksa_core::CoreError;
use ksa_graphs::budget::RunBudget;
use ksa_graphs::Digraph;
use ksa_models::ClosedAboveModel;
use ksa_topology::TopologyError;
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Most superset-odometer steps (input assignments × choices, summed
/// over generators) a sampled instance may take, so the flat-view
/// oracle stays interactive in debug builds.
const MAX_STEPS: u128 = 1 << 17;

/// A random digraph on `n` processes (self-loops are implicit).
fn digraph(n: usize) -> impl Strategy<Value = Digraph> {
    prop::collection::vec(any::<bool>(), n * (n - 1)).prop_map(move |edges| {
        let mut g = Digraph::empty(n).expect("valid n");
        let mut bits = edges.into_iter();
        for u in 0..n {
            for v in (0..n).filter(|&v| v != u) {
                if bits.next().expect("one bit per edge") {
                    g.add_edge(u, v).expect("in range");
                }
            }
        }
        g
    })
}

/// A closed-above model from one or two random generators on 2–4
/// processes, with an input value count from 1 to 4.
fn instance() -> impl Strategy<Value = (ClosedAboveModel, u32)> {
    (2usize..=4).prop_flat_map(|n| {
        (
            prop::collection::vec(digraph(n), 1..=2)
                .prop_map(|gens| ClosedAboveModel::new(gens).expect("non-empty generators")),
            1u32..=4,
        )
    })
}

/// The raw odometer steps of the one-round enumeration.
fn steps(model: &ClosedAboveModel, values: u32) -> u128 {
    let n = model.generators()[0].n();
    let per_input: u128 = model
        .generators()
        .iter()
        .map(|g| {
            let free: usize = (0..n).map(|p| n - g.in_set(p).len()).sum();
            1u128 << free
        })
        .sum();
    u128::from(values).pow(n as u32) * per_input
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn keyed_enumeration_matches_the_oracle(case in instance()) {
        let (model, values) = case;
        prop_assume!(steps(&model, values) <= MAX_STEPS);
        let [keyed, oracle] = one_round_enumerations(&model, values, usize::MAX);
        let oracle = oracle.expect("an unlimited enumeration succeeds");
        prop_assert_eq!(keyed.as_ref().ok(), Some(&oracle), "model {:?}", model);

        let mut views = oracle.0.clone();
        views.sort_unstable();
        prop_assert_eq!(one_round_views(&model, values), Ok(views), "model {:?}", model);

        // The execution limit trips at the same execution, with the same
        // error, wherever it falls.
        let found = oracle.1.len();
        for limit in [0, found / 2, found - 1] {
            let [keyed, oracle] = one_round_enumerations(&model, values, limit);
            prop_assert!(oracle.is_err(), "limit {} of {}", limit, found);
            prop_assert_eq!(keyed, oracle, "limit {}", limit);
        }
    }
}

#[test]
fn the_widest_fitting_keys_enumerate() {
    // 64 processes over one value: the largest key, 2^64 − 1, is the
    // complete graph's only view (every process hears everyone).
    let model = ClosedAboveModel::new(vec![Digraph::complete(64).unwrap()]).unwrap();
    let [keyed, oracle] = one_round_enumerations(&model, 1, usize::MAX);
    let (views, executions) = keyed.expect("2^64 − 1 fits a u64");
    assert_eq!(views, vec![(0..64).map(|q| (q, 0)).collect::<Vec<_>>()]);
    assert_eq!(executions, vec![vec![0]]);
    assert_eq!(one_round_views(&model, 1).as_ref(), Ok(&views));
    assert_eq!(Ok((views, executions)), oracle);
}

#[test]
fn keys_too_wide_are_refused_before_enumerating() {
    // n = 41 over two values: 3^41 > 2^64, so the keys cannot be packed.
    // The unlimited budget admits the 2^41 input assignments; the guard
    // must refuse the instance before the first of them is enumerated.
    let model = ClosedAboveModel::new(vec![Digraph::complete(41).unwrap()]).unwrap();
    let start = Instant::now();
    let err = decide_one_round(&model, 1, 1, RunBudget::new(u128::MAX), 1_000, None).unwrap_err();
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(1), "{elapsed:?}");
    let too_wide = CoreError::Topology(TopologyError::TooLarge {
        what: "solvability view keys",
        estimated: 3u128.pow(41),
        limit: 1 << 64,
    });
    assert_eq!(err, too_wide);
    assert_eq!(one_round_views(&model, 2), Err(too_wide));
}
