//! Differential pinning of the pruned solvability search (propagation +
//! orbit symmetry breaking + the monotone no-good table, DESIGN.md §10)
//! against the untouched sequential oracle `decide_one_round_seq`, on
//! registry-sampled random models:
//!
//! * verdicts agree with the oracle;
//! * every returned `DecisionMap` witness actually solves the model
//!   (replayed over all executions through `ksa_core::verify`);
//! * repeated runs side by side on an oversubscribed fan-out, and the
//!   k-sweeps of the n = 3 models the analysis-server benchmark serves,
//!   are bit-identical to a lone run, witnesses included.

use ksa_core::solvability::{
    decide_one_round, decide_one_round_seq, decide_one_round_sweep, Solvability,
};
use ksa_core::verify::verify_decision_map;
use ksa_exec::{map_in_order, ThreadPool};
use ksa_graphs::budget::RunBudget;
use ksa_models::registry;
use ksa_models::ClosedAboveModel;
use proptest::prelude::*;

const EXECS: usize = 1 << 21;
const NODES: usize = 8_000_000;
/// Closure budget of the witness replay (n = 3: at most 2^6 supersets
/// per generator).
const GRAPHS: usize = 1 << 12;

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
    fn pruned_verdicts_match_the_oracle(
        name in random_model_name(),
        k in 1usize..=2,
    ) {
        let model = resolve(&name);
        let oracle = decide_one_round_seq(&model, k, k, EXECS, NODES).expect("within budget");
        let (pruned, _, _) =
            decide_one_round(&model, k, k, EXECS as u128, NODES, None).expect("within budget");
        match (&pruned, &oracle) {
            // At the node-budget boundary the two searches may give
            // up on different instances (never disagree on a decided
            // verdict).
            (_, Solvability::Unknown) | (Solvability::Unknown, _) => {}
            _ => prop_assert_eq!(
                verdict_name(&pruned),
                verdict_name(&oracle),
                "{} k={}",
                name,
                k
            ),
        }
        // Any witness must genuinely solve the model.
        if let Solvability::Solvable(map) = &pruned {
            prop_assert!(!map.is_empty());
            let replay = verify_decision_map(&model, k, k, map, GRAPHS).expect("replay fits");
            prop_assert!(replay.is_valid(), "{} k={}: {:?}", name, k, replay);
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
/// witnesses included), rerun on eight scoped workers side by side
/// (more than the CI machine has cores): a concurrent rerun must never
/// change a verdict, and every witness map is bit-identical.
#[test]
fn oversubscribed_pool_runs_are_stable() {
    use ksa_models::named;
    let pool = ThreadPool::new(8);
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
        let rounds: Vec<usize> = (0..8).collect();
        let again = pool.install(|| {
            map_in_order(&rounds, |_| {
                decide_one_round(model, *k, *k, EXECS as u128, NODES, None).expect("within budget")
            })
        });
        for (round, (got, _, _)) in again.into_iter().enumerate() {
            assert_eq!(got, reference, "k = {k}, round {round}");
        }
    }
    let sweep = |name: &&str| {
        decide_one_round_sweep(&resolve(name), 3, EXECS, NODES).expect("within budget")
    };
    let side_by_side = pool.install(|| map_in_order(&SERVE_MIX_MODELS, sweep));
    for (name, got) in SERVE_MIX_MODELS.iter().zip(side_by_side) {
        assert_eq!(got, sweep(name), "{name}");
    }
}
