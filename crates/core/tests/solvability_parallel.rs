//! Property tests cross-checking the pruned solvability search against
//! the sequential reference on **randomized** small models — the
//! determinism contract (DESIGN.md §4): same verdict as the reference,
//! and the same verdict, witness included, run after run and run beside
//! run.

use ksa_core::solvability::{decide_one_round, decide_one_round_seq, Solvability};
use ksa_exec::{map_in_order, ThreadPool};
use ksa_graphs::Digraph;
use ksa_models::ClosedAboveModel;
use proptest::prelude::*;

const EXECS: usize = 1 << 21;
// Large enough that almost every sampled instance is decided outright,
// small enough that the (deterministically re-sampled) heavy-tail
// instances stay interactive — at the budget boundary verdicts are
// allowed to differ (see below), so correctness does not depend on it.
const NODES: usize = 8_000_000;

/// A random digraph on 3 processes (self-loops are implicit).
fn digraph3() -> impl Strategy<Value = Digraph> {
    prop::collection::vec(any::<bool>(), 6).prop_map(|edges| {
        let mut g = Digraph::empty(3).expect("valid n");
        let mut bit = 0;
        for u in 0..3 {
            for v in 0..3 {
                if u != v {
                    if edges[bit] {
                        g.add_edge(u, v).expect("in range");
                    }
                    bit += 1;
                }
            }
        }
        g
    })
}

/// A closed-above model from one or two random generators.
fn model3() -> impl Strategy<Value = ClosedAboveModel> {
    prop::collection::vec(digraph3(), 1..=2)
        .prop_map(|gens| ClosedAboveModel::new(gens).expect("non-empty generators"))
}

fn decide(model: &ClosedAboveModel, k: usize) -> Solvability {
    let (verdict, _, _) =
        decide_one_round(model, k, k, EXECS as u128, NODES, None).expect("within budget");
    verdict
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
    fn portfolio_verdicts_match_sequential(model in model3(), k in 1usize..=2) {
        let par = decide(&model, k);
        let seq = decide_one_round_seq(&model, k, k, EXECS, NODES).expect("within budget");
        match (&par, &seq) {
            // `Unknown` marks a node-budget boundary: there the pruned
            // search may legitimately out-search (or under-search) the
            // forward-checking reference. Decided verdicts, however, must never
            // disagree — a Solvable/Unsolvable split would be a
            // soundness bug in one of the searches.
            (Solvability::Unknown, _) | (_, Solvability::Unknown) => {}
            _ => prop_assert_eq!(
                verdict_name(&par),
                verdict_name(&seq),
                "model {:?} k {}",
                model,
                k
            ),
        }
        // Any witness must be a *complete* map over the same view set.
        if let (Solvability::Solvable(a), Solvability::Solvable(b)) = (&par, &seq) {
            prop_assert_eq!(a.len(), b.len());
            prop_assert!(!a.is_empty());
        }
    }

    #[test]
    fn repeated_parallel_runs_agree(model in model3(), k in 1usize..=2) {
        // A verdict and its witness are functions of the instance, also
        // when several decisions run side by side on scoped workers.
        let first = decide(&model, k);
        let runs: Vec<usize> = (0..4).collect();
        let again = ThreadPool::new(4).install(|| map_in_order(&runs, |_| decide(&model, k)));
        for verdict in &again {
            prop_assert_eq!(verdict, &first);
        }
    }
}
