//! Differential pinning of the incremental k-sweep
//! (`decide_one_round_sweep`, DESIGN.md §10.3) against from-scratch
//! per-k decisions across the n = 3 slice of the builtin zoo:
//!
//! * the sweep's verdict vector matches `decide_one_round(model, k, k, …)`
//!   for every `k` — seeding (witness lifts) and pruning (downward
//!   unsolvability) are theorems, not heuristics;
//! * the vector itself is monotone: solvable at `k` stays solvable at
//!   `k + 1`, unsolvable at `k` implies unsolvable below;
//! * every verdict — searched *or* seeded — carries a witness that
//!   replays cleanly through `ksa_core::verify::verify_decision_map`;
//! * the searched/seeded/pruned accounting covers the whole vector.

use ksa_core::solvability::{decide_one_round, decide_one_round_sweep, Solvability};
use ksa_core::verify::verify_decision_map;
use ksa_graphs::budget::RunBudget;
use ksa_models::registry;

const K_MAX: usize = 3;
const EXECS: usize = 1 << 21;
const NODES: usize = 8_000_000;
const GRAPHS: usize = 1 << 12;

/// The feasible (n = 3) slice of the zoo, by canonical registry name.
/// Kept explicit so a failure names the exact spec to replay.
const ZOO: &[&str] = &[
    "stars{n=3,s=1}",
    "stars{n=3,s=2}",
    "kernel{n=3}",
    "ring{n=3}",
    "ring{n=3,sym}",
    "tournament{n=3}",
    "path{n=3}",
    "tree{n=3}",
    "random{n=3,p=0.25,seed=1,count=2}",
    "random{n=3,p=0.5,seed=3,count=3}",
    "random{n=3,p=0.75,seed=6,count=2}",
];

fn kind(v: &Solvability) -> &'static str {
    match v {
        Solvability::Solvable(_) => "solvable",
        Solvability::Unsolvable => "unsolvable",
        Solvability::Unknown => "unknown",
    }
}

#[test]
fn sweep_matches_from_scratch_decisions_across_the_zoo() {
    let reg = registry::builtin();
    for name in ZOO {
        let model = reg
            .resolve_closed_above(name, RunBudget::DEFAULT)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let sweep = decide_one_round_sweep(&model, K_MAX, EXECS, NODES)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(sweep.verdicts.len(), K_MAX, "{name}");
        assert_eq!(
            sweep.searched + sweep.seeded + sweep.pruned,
            K_MAX,
            "{name}: accounting gap ({sweep:?})"
        );
        for k in 1..=K_MAX {
            let (scratch, _, _) = decide_one_round(&model, k, k, EXECS as u128, NODES, None)
                .unwrap_or_else(|e| panic!("{name} k={k}: {e}"));
            assert_eq!(
                kind(&sweep.verdicts[k - 1]),
                kind(&scratch),
                "{name} k={k}: sweep disagrees with from-scratch"
            );
        }
    }
}

#[test]
fn sweep_vectors_are_monotone() {
    let reg = registry::builtin();
    for name in ZOO {
        let model = reg.resolve_closed_above(name, RunBudget::DEFAULT).unwrap();
        let sweep = decide_one_round_sweep(&model, K_MAX, EXECS, NODES).unwrap();
        for k in 1..K_MAX {
            let below = &sweep.verdicts[k - 1];
            let above = &sweep.verdicts[k];
            assert!(
                !(below.is_solvable() && matches!(above, Solvability::Unsolvable)),
                "{name}: solvable at k={k} but unsolvable at k={}",
                k + 1
            );
        }
    }
}

#[test]
fn seeded_witnesses_replay_as_genuine_algorithms() {
    // Every Solvable entry of the sweep — including the ones filled by
    // witness lifting rather than search — must carry a map that solves
    // k-set agreement on the model itself.
    let reg = registry::builtin();
    for name in ZOO {
        let model = reg.resolve_closed_above(name, RunBudget::DEFAULT).unwrap();
        let sweep = decide_one_round_sweep(&model, K_MAX, EXECS, NODES).unwrap();
        for k in 1..=K_MAX {
            if let Solvability::Solvable(map) = &sweep.verdicts[k - 1] {
                let rep = verify_decision_map(&model, k, k, map, GRAPHS)
                    .unwrap_or_else(|e| panic!("{name} k={k}: {e}"));
                assert!(rep.is_valid(), "{name} k={k}: {rep:?}");
            }
        }
    }
}

#[test]
fn sweep_rejects_zero_k_max() {
    let reg = registry::builtin();
    let model = reg
        .resolve_closed_above("ring{n=3}", RunBudget::DEFAULT)
        .unwrap();
    assert!(decide_one_round_sweep(&model, 0, EXECS, NODES).is_err());
}
