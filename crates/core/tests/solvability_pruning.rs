//! Differential pinning of the pruned solvability search (propagation +
//! orbit symmetry breaking + the monotone no-good table, DESIGN.md §10)
//! against the untouched sequential oracle `decide_one_round_seq`, on
//! registry-sampled random models across `ksa-exec` pool sizes 1/2/8:
//!
//! * verdicts are bit-identical to the oracle at every pool size;
//! * every returned `DecisionMap` witness actually solves the model
//!   (replayed over all executions through `ksa_core::verify`);
//! * `decide_one_round_with_table` on a fresh table is a pure function
//!   of the instance, and seeding the table — with harvested facts, with
//!   reordered/duplicated facts, or with deliberately-useless keys —
//!   never changes a verdict and only shrinks the work counters;
//! * repeated runs on an oversubscribed pool are stable.

use ksa_core::solvability::{
    decide_one_round, decide_one_round_seq, decide_one_round_with_table, NoGoodTable, Solvability,
};
use ksa_core::verify::verify_decision_map;
use ksa_exec::ThreadPool;
use ksa_graphs::budget::RunBudget;
use ksa_models::registry;
use ksa_models::ClosedAboveModel;
use proptest::prelude::*;
use std::sync::OnceLock;

const EXECS: usize = 1 << 21;
const NODES: usize = 8_000_000;
/// Closure budget of the witness replay (n = 3: at most 2^6 supersets
/// per generator).
const GRAPHS: usize = 1 << 12;

/// The shared pools (1/2/8 workers), started once for the whole test
/// binary so proptest cases don't churn threads.
fn pools() -> &'static [ThreadPool] {
    static POOLS: OnceLock<Vec<ThreadPool>> = OnceLock::new();
    POOLS.get_or_init(|| [1, 2, 8].into_iter().map(ThreadPool::new).collect())
}

/// Registry-sampled random closed-above models (DESIGN.md §4.5). The
/// strategy value is the canonical spec string, so failures shrink to a
/// name that reproduces with `--models`.
fn random_model_name() -> impl Strategy<Value = String> {
    (0u64..=255, 0usize..3, 1usize..=2).prop_map(|(seed, p_idx, count)| {
        let p = ["0.25", "0.5", "0.75"][p_idx];
        format!("random{{n=3,p={p},seed={seed},count={count}}}")
    })
}

fn resolve(name: &str) -> ClosedAboveModel {
    registry::builtin()
        .resolve_closed_above(name, RunBudget::DEFAULT)
        .expect("random{n=3,…} resolves")
}

fn verdict_name(s: &Solvability) -> &'static str {
    match s {
        Solvability::Solvable(_) => "solvable",
        Solvability::Unsolvable => "unsolvable",
        Solvability::Unknown => "unknown",
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pruned_verdicts_match_the_oracle_at_every_pool_size(
        name in random_model_name(),
        k in 1usize..=2,
    ) {
        let model = resolve(&name);
        let oracle = decide_one_round_seq(&model, k, k, EXECS, NODES).expect("within budget");
        let mut first: Option<&'static str> = None;
        for pool in pools() {
            let pruned = pool
                .install(|| decide_one_round(&model, k, k, EXECS as u128, NODES))
                .expect("within budget");
            match (&pruned, &oracle) {
                // At the node-budget boundary the pruned search may
                // decide what the oracle gives up on (never the
                // reverse of a decided verdict).
                (_, Solvability::Unknown) | (Solvability::Unknown, _) => {}
                _ => prop_assert_eq!(
                    verdict_name(&pruned),
                    verdict_name(&oracle),
                    "{} k={} pool={}",
                    name,
                    k,
                    pool.num_threads()
                ),
            }
            // Across pool sizes the verdict must be bit-identical.
            match first {
                None => first = Some(verdict_name(&pruned)),
                Some(f) => prop_assert_eq!(f, verdict_name(&pruned), "{} k={}", name, k),
            }
            // Any witness must genuinely solve the model.
            if let Solvability::Solvable(map) = &pruned {
                prop_assert!(!map.is_empty());
                let replay = verify_decision_map(&model, k, k, map, GRAPHS).expect("replay fits");
                prop_assert!(replay.is_valid(), "{} k={}: {:?}", name, k, replay);
            }
        }
    }

    #[test]
    fn with_table_runs_are_pure_and_seeding_is_monotone(
        name in random_model_name(),
        k in 1usize..=2,
    ) {
        let model = resolve(&name);
        // Two fresh-table runs: bit-identical verdicts (witness included)
        // and stats — the deterministic anchor of the differential suite.
        let fresh_a = NoGoodTable::new();
        let (v_a, s_a, _) =
            decide_one_round_with_table(&model, k, k, EXECS as u128, NODES, &fresh_a, None)
                .expect("in budget");
        let fresh_b = NoGoodTable::new();
        let (v_b, s_b, _) =
            decide_one_round_with_table(&model, k, k, EXECS as u128, NODES, &fresh_b, None)
                .expect("in budget");
        prop_assert_eq!(&v_a, &v_b, "{} k={}", name, k);
        prop_assert_eq!(s_a, s_b);

        // Seeding the harvested facts back (a "stale" table from an
        // earlier search of the same instance): verdict unchanged, work
        // counters only shrink.
        let seeded = NoGoodTable::new();
        let mut facts = fresh_a.snapshot();
        // Seed in a scrambled order with duplicates — table semantics
        // must be order- and multiplicity-independent.
        facts.reverse();
        for f in &facts {
            seeded.seed(f);
        }
        if let Some(first) = facts.first() {
            seeded.seed(first);
        }
        let (v_s, s_s, _) =
            decide_one_round_with_table(&model, k, k, EXECS as u128, NODES, &seeded, None)
                .expect("in budget");
        prop_assert_eq!(&v_a, &v_s, "{} k={} (seeded)", name, k);
        prop_assert!(s_s.nodes <= s_a.nodes, "{} k={}: {} > {}", name, k, s_s.nodes, s_a.nodes);
        prop_assert!(s_s.nogood_inserts <= s_a.nogood_inserts);

        // Deliberately-useless keys (view ids no instance reaches) can
        // never match a probed signature: verdict *and* node count are
        // bit-identical to the fresh run.
        let useless = NoGoodTable::new();
        for j in 0..64u32 {
            useless.seed(&[(1_000_000 + j, 0)]);
        }
        let before = useless.len();
        let (v_u, s_u, _) =
            decide_one_round_with_table(&model, k, k, EXECS as u128, NODES, &useless, None)
                .expect("in budget");
        prop_assert_eq!(&v_a, &v_u, "{} k={} (useless)", name, k);
        prop_assert_eq!(s_u.nodes, s_a.nodes);
        prop_assert_eq!(s_u.nogood_hits, 0u64);
        prop_assert_eq!(useless.len(), before + s_u.nogood_inserts as usize);
    }
}

/// The fixed boundary cases of the `solv` zoo, decided repeatedly on an
/// oversubscribed pool (8 workers regardless of the host's cores):
/// scheduling noise must never flip a verdict.
#[test]
fn oversubscribed_pool_runs_are_stable() {
    use ksa_models::named;
    let cases: Vec<(ClosedAboveModel, usize, Solvability)> = vec![
        (
            named::star_unions(3, 1).unwrap(),
            2,
            Solvability::Unsolvable,
        ),
        (
            named::symmetric_ring(3).unwrap(),
            1,
            Solvability::Unsolvable,
        ),
        (named::simple_ring(3).unwrap(), 1, Solvability::Unsolvable),
    ];
    let pool = ThreadPool::new(8);
    for (model, k, expected) in &cases {
        for round in 0..5 {
            let got = pool
                .install(|| decide_one_round(model, *k, *k, EXECS as u128, NODES))
                .expect("within budget");
            assert_eq!(&got, expected, "k = {k}, round {round}");
        }
    }
    // Solvable boundary cases: the verdict kind is stable (the witness
    // map may legitimately differ between racing strategies).
    for (model, k) in [
        (named::star_unions(3, 1).unwrap(), 3),
        (named::symmetric_ring(3).unwrap(), 2),
    ] {
        for round in 0..5 {
            let got = pool
                .install(|| decide_one_round(&model, k, k, EXECS as u128, NODES))
                .expect("within budget");
            assert!(got.is_solvable(), "k = {k}, round {round}");
        }
    }
}

/// An adversarially-seeded table must leave the *shared-table portfolio*
/// path untouched too: `decide_one_round` has its own internal table, so
/// this exercises the public path before/after heavy `with_table` churn
/// on the same instances.
#[test]
fn portfolio_verdicts_survive_table_churn() {
    use ksa_models::named;
    let model = named::star_unions(3, 1).unwrap();
    let before = decide_one_round(&model, 2, 2, EXECS as u128, NODES).unwrap();
    // Churn: many seeded searches of both k values on shared tables.
    let table = NoGoodTable::new();
    for _ in 0..3 {
        let (v, _, _) =
            decide_one_round_with_table(&model, 2, 2, EXECS as u128, NODES, &table, None).unwrap();
        assert_eq!(v, Solvability::Unsolvable);
    }
    let after = decide_one_round(&model, 2, 2, EXECS as u128, NODES).unwrap();
    assert_eq!(before, after);
}
