//! Differential pinning of the pruned solvability search (propagation +
//! orbit symmetry breaking + the monotone no-good table, DESIGN.md §10)
//! against the untouched sequential oracle `decide_one_round_seq`, on
//! registry-sampled random models across `ksa-exec` pool sizes 1/2/8:
//!
//! * verdicts agree with the oracle, and verdict, witness map and
//!   search statistics are bit-identical at every pool size;
//! * every returned `DecisionMap` witness actually solves the model
//!   (replayed over all executions through `ksa_core::verify`);
//! * repeated runs on an oversubscribed pool, and the k-sweeps of the
//!   n = 3 models the analysis-server benchmark serves, are bit-identical
//!   across pool sizes, witnesses included.

use ksa_core::solvability::{
    decide_one_round, decide_one_round_seq, decide_one_round_sweep, Solvability,
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
        .expect("registry spec resolves")
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
        let mut first = None;
        for pool in pools() {
            let (pruned, stats, _) = pool
                .install(|| decide_one_round(&model, k, k, EXECS as u128, NODES, None))
                .expect("within budget");
            match (&pruned, &oracle) {
                // At the node-budget boundary the two searches may give
                // up on different instances (never disagree on a decided
                // verdict).
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
            // Any witness must genuinely solve the model.
            if let Solvability::Solvable(map) = &pruned {
                prop_assert!(!map.is_empty());
                let replay = verify_decision_map(&model, k, k, map, GRAPHS).expect("replay fits");
                prop_assert!(replay.is_valid(), "{} k={}: {:?}", name, k, replay);
            }
            // Across pool sizes verdict, witness and stats are
            // bit-identical.
            match &first {
                None => first = Some((pruned, stats)),
                Some(f) => prop_assert_eq!(f, &(pruned, stats), "{} k={}", name, k),
            }
        }
    }
}

/// The n = 3 models the analysis-server benchmark (`serve_mix`) serves.
const SERVE_MIX_MODELS: [&str; 29] = [
    "kernel{n=3}",
    "path{n=3}",
    "path{n=3,sym}",
    "product(ring{n=3},ring{n=3})",
    "random{n=3,p=0.5,seed=0,count=4}",
    "random{n=3,p=0.5,seed=1,count=4}",
    "random{n=3,p=0.5,seed=2,count=4}",
    "random{n=3,p=0.5,seed=3,count=4}",
    "random{n=3,p=0.5,seed=4,count=4}",
    "random{n=3,p=0.5,seed=5,count=4}",
    "random{n=3,p=0.5,seed=6,count=4}",
    "random{n=3,p=0.5,seed=7,count=4}",
    "random{n=3,p=0.75,seed=0,count=4}",
    "random{n=3,p=0.75,seed=1,count=4}",
    "random{n=3,p=0.75,seed=2,count=4}",
    "random{n=3,p=0.75,seed=3,count=4}",
    "random{n=3,p=0.75,seed=4,count=4}",
    "random{n=3,p=0.75,seed=5,count=4}",
    "random{n=3,p=0.75,seed=6,count=4}",
    "random{n=3,p=0.75,seed=7,count=4}",
    "ring{n=3,sym}",
    "ring{n=3}",
    "stars{n=3,s=1}",
    "stars{n=3,s=2}",
    "stars{n=3,s=3}",
    "tournament{n=3}",
    "tree{n=3,sym}",
    "tree{n=3}",
    "union(ring{n=3},stars{n=3,s=2})",
];

/// The fixed boundary cases of the `solv` zoo, decided repeatedly, and
/// the `k_max = 3` sweep vectors of the `serve_mix` models (lifted
/// witnesses included), on pools of 1, 2 and 8 workers (8
/// oversubscribes any CI machine): scheduling must never change a
/// verdict, and every witness map is bit-identical at every pool size
/// and run.
#[test]
fn oversubscribed_pool_runs_are_stable() {
    use ksa_models::named;
    let cases: Vec<(ClosedAboveModel, usize, &'static str)> = vec![
        (named::star_unions(3, 1).unwrap(), 2, "unsolvable"),
        (named::symmetric_ring(3).unwrap(), 1, "unsolvable"),
        (named::simple_ring(3).unwrap(), 1, "unsolvable"),
        (named::star_unions(3, 1).unwrap(), 3, "solvable"),
        (named::symmetric_ring(3).unwrap(), 2, "solvable"),
    ];
    for (model, k, expected) in &cases {
        let (reference, _, _) =
            decide_one_round(model, *k, *k, EXECS as u128, NODES, None).expect("within budget");
        assert_eq!(verdict_name(&reference), *expected, "k = {k}");
        for pool in pools() {
            for round in 0..3 {
                let (got, _, _) = pool
                    .install(|| decide_one_round(model, *k, *k, EXECS as u128, NODES, None))
                    .expect("within budget");
                assert_eq!(
                    got,
                    reference,
                    "k = {k}, pool {}, round {round}",
                    pool.num_threads()
                );
            }
        }
    }
    for name in SERVE_MIX_MODELS {
        let model = resolve(name);
        let reference = decide_one_round_sweep(&model, 3, EXECS, NODES).expect("within budget");
        for pool in pools() {
            let sweep = pool
                .install(|| decide_one_round_sweep(&model, 3, EXECS, NODES))
                .expect("within budget");
            assert_eq!(sweep, reference, "{name} pool {}", pool.num_threads());
        }
    }
}
