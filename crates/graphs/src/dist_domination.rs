//! The distributed domination number `γ_dist(S)` (Def 5.2).
//!
//! `γ_dist(S)` is the least `i > 0` such that every set `P` of `i`
//! processes dominates every collection `S_i` of graphs of `S` **jointly**:
//! `⋃_{G ∈ S_i} Out_G(P) = Π`.
//!
//! ## Which collections? (a faithfulness note)
//!
//! Def 5.2 literally writes `|S_i| = min(i, |S|)`. Read as *exactly that
//! many distinct graphs*, the definition contradicts the paper's own worked
//! example: for the symmetric unions of `s` stars the paper computes
//! `γ_dist(S) = n − s + 1` (§5 and the proof of Thm 6.13), but with the
//! exact-size reading a set `P` with `|P| = i ≥ 2` can only be jointly
//! silent when `C(n−i, s) ≥ min(i, |S|)` *distinct* center-avoiding star
//! unions exist, which already fails at `n = 3, s = 1, i = 2` (yielding
//! `γ_dist = 2 ≠ 3`). The proof of Thm 5.4 moreover instantiates the
//! definition on *tuples* `(G_0, …, G_t)` with repetition, whose supports
//! have any size in `[1, t+1]`.
//!
//! We therefore take the reading that reproduces every number in the paper:
//! `S_i` ranges over **non-empty collections of at most** `min(i, |S|)`
//! graphs. Since joint domination over a larger collection is easier
//! (unions grow), the binding case is singletons, which makes this reading
//! provably equal to the equal-domination number `γ_eq(S)` (Def 3.3) — the
//! paper's inequality `γ_dist(S) ≤ γ_eq(S)` holds with equality on every
//! example the paper works out, and both sides agree on singleton `S`.
//!
//! The literal exact-size reading is still provided as
//! [`distributed_domination_number_exact`] for study; DESIGN.md records the
//! discrepancy.

use crate::digraph::Digraph;
use crate::equal_domination::equal_domination_number_of_set;
use crate::error::GraphError;
use crate::proc_set::ProcSet;

/// Whether every `P` with `|P| = i` jointly dominates every non-empty
/// collection `S_i ⊆ S` with `|S_i| ≤ min(i, |S|)` — the inner predicate of
/// Def 5.2 under the paper-faithful reading (see module docs).
///
/// # Errors
///
/// [`GraphError::EmptyGraphSet`] if `graphs` is empty;
/// [`GraphError::MismatchedSizes`] if graphs disagree on `n`;
/// [`GraphError::IndexOutOfDomain`] unless `1 ≤ i ≤ n`.
pub fn all_jointly_dominating(graphs: &[Digraph], i: usize) -> Result<bool, GraphError> {
    check_set(graphs)?;
    let n = graphs[0].n();
    if i == 0 || i > n {
        return Err(GraphError::IndexOutOfDomain {
            index: i,
            domain: "[1, n]",
        });
    }
    // Unions over larger collections only grow, so "all collections of size
    // ≤ min(i, |S|) dominate" ⟺ "every single graph is dominated".
    let full = ProcSet::full(n);
    let silent_witness = |p: ProcSet| graphs.iter().any(|g| g.out_union(p) != full);

    Ok(!full.k_subsets(i).any(silent_witness))
}

/// The distributed domination number `γ_dist(S)` (Def 5.2, paper-faithful
/// reading — see the module docs). Monotone in `i`, so we scan upward;
/// `i = n` always succeeds thanks to self-loops.
///
/// Under this reading `γ_dist(S) = γ_eq(S)`, and we compute it through the
/// `O(|S| · n²)` closed form of [`equal_domination_number_of_set`].
///
/// # Errors
///
/// [`GraphError::EmptyGraphSet`] when `graphs` is empty;
/// [`GraphError::MismatchedSizes`] if graphs disagree on `n`.
///
/// # Examples
///
/// ```
/// use ksa_graphs::{families, perm::symmetric_closure};
/// use ksa_graphs::dist_domination::distributed_domination_number;
///
/// // Symmetric single stars on n = 4: γ_dist = n − s + 1 = 4 (§5 of the
/// // paper, with s = 1).
/// let stars = symmetric_closure(&[families::broadcast_star(4, 0).unwrap()]).unwrap();
/// assert_eq!(distributed_domination_number(&stars).unwrap(), 4);
/// ```
pub fn distributed_domination_number(graphs: &[Digraph]) -> Result<usize, GraphError> {
    check_set(graphs)?;
    equal_domination_number_of_set(graphs)
}

/// The *literal exact-size* variant of Def 5.2: collections of exactly
/// `min(i, |S|)` **distinct** graphs. Diverges from the paper's worked
/// examples (see the module docs); exposed for comparison experiments.
///
/// # Errors
///
/// Same conditions as [`distributed_domination_number`].
pub fn distributed_domination_number_exact(graphs: &[Digraph]) -> Result<usize, GraphError> {
    check_set(graphs)?;
    ksa_obs::count(ksa_obs::Counter::DominationQueries, 1);
    let n = graphs[0].n();
    let full = ProcSet::full(n);
    let graph_idx = ProcSet::full(graphs.len().min(crate::proc_set::MAX_PROCS));
    for i in 1..=n {
        let si_size = i.min(graphs.len());
        // Whether some collection of exactly `si_size` graphs leaves
        // `p`'s joint audience short of Π.
        let jointly_silent = |p: ProcSet| {
            graph_idx.k_subsets(si_size).any(|si| {
                let mut heard = ProcSet::empty();
                for gi in si.iter() {
                    heard = heard.union(graphs[gi].out_union(p));
                    if heard == full {
                        break;
                    }
                }
                heard != full
            })
        };

        if !full.k_subsets(i).any(jointly_silent) {
            return Ok(i);
        }
    }
    unreachable!("i = n always jointly dominates thanks to self-loops")
}

pub(crate) fn check_set(graphs: &[Digraph]) -> Result<(), GraphError> {
    let first = graphs.first().ok_or(GraphError::EmptyGraphSet)?;
    for g in graphs {
        if g.n() != first.n() {
            return Err(GraphError::MismatchedSizes {
                left: first.n(),
                right: g.n(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;
    use crate::perm::symmetric_closure;
    use crate::proc_set::ProcSet;

    #[test]
    fn singleton_set_equals_equal_domination() {
        // With |S| = 1 every reading degenerates to γ_eq.
        use crate::equal_domination::equal_domination_number;
        let graphs = [
            families::cycle(5).unwrap(),
            families::fig1_second_graph(),
            families::broadcast_star(4, 1).unwrap(),
        ];
        for g in graphs {
            let s = std::slice::from_ref(&g);
            let geq = equal_domination_number(&g);
            assert_eq!(distributed_domination_number(s).unwrap(), geq, "graph {g}");
            assert_eq!(
                distributed_domination_number_exact(s).unwrap(),
                geq,
                "graph {g}"
            );
        }
    }

    #[test]
    fn star_unions_match_the_paper() {
        // §5 discussion + Thm 6.13 proof: for the symmetric model of
        // unions of s stars on n processes, γ_dist(S) = n − s + 1.
        for n in 3..6usize {
            for s in 1..n {
                let centers: ProcSet = (0..s).collect();
                let gen = families::broadcast_stars(n, centers).unwrap();
                let sym = symmetric_closure(std::slice::from_ref(&gen)).unwrap();
                assert_eq!(
                    distributed_domination_number(&sym).unwrap(),
                    n - s + 1,
                    "n = {n}, s = {s}"
                );
            }
        }
    }

    #[test]
    fn exact_size_reading_diverges_on_stars() {
        // The documented discrepancy: the literal exact-size reading gives
        // 2 on n = 3, s = 1 where the paper computes 3.
        let sym = symmetric_closure(&[families::broadcast_star(3, 0).unwrap()]).unwrap();
        assert_eq!(distributed_domination_number(&sym).unwrap(), 3);
        assert_eq!(distributed_domination_number_exact(&sym).unwrap(), 2);
    }

    #[test]
    fn exact_size_is_at_most_faithful() {
        // Exact-size quantifies over fewer failure scenarios, so its
        // threshold can only be lower.
        let sets = vec![
            symmetric_closure(&[families::cycle(4).unwrap()]).unwrap(),
            symmetric_closure(&[families::fig1_second_graph()]).unwrap(),
            vec![
                families::path(4).unwrap(),
                families::cycle(4).unwrap(),
                families::broadcast_star(4, 0).unwrap(),
            ],
        ];
        for s in sets {
            assert!(
                distributed_domination_number_exact(&s).unwrap()
                    <= distributed_domination_number(&s).unwrap()
            );
        }
    }

    #[test]
    fn agrees_with_equal_domination() {
        // The paper's remark γ_dist(S) ≤ γ_eq(S); under the faithful
        // reading it holds with equality.
        let sets = vec![
            symmetric_closure(&[families::cycle(4).unwrap()]).unwrap(),
            vec![
                families::path(4).unwrap(),
                families::broadcast_star(4, 2).unwrap(),
            ],
        ];
        for s in sets {
            assert_eq!(
                distributed_domination_number(&s).unwrap(),
                equal_domination_number_of_set(&s).unwrap()
            );
        }
    }

    #[test]
    fn clique_is_one() {
        let s = vec![Digraph::complete(4).unwrap()];
        assert_eq!(distributed_domination_number(&s).unwrap(), 1);
        assert_eq!(distributed_domination_number_exact(&s).unwrap(), 1);
    }

    #[test]
    fn errors() {
        assert_eq!(
            distributed_domination_number(&[]),
            Err(GraphError::EmptyGraphSet)
        );
        let bad = vec![families::cycle(3).unwrap(), families::cycle(4).unwrap()];
        assert!(distributed_domination_number(&bad).is_err());
        assert!(all_jointly_dominating(&[families::cycle(3).unwrap()], 0).is_err());
        assert!(all_jointly_dominating(&[families::cycle(3).unwrap()], 4).is_err());
    }

    #[test]
    fn monotone_in_i() {
        let sym = symmetric_closure(&[families::broadcast_star(4, 0).unwrap()]).unwrap();
        let gd = distributed_domination_number(&sym).unwrap();
        for i in 1..gd {
            assert!(!all_jointly_dominating(&sym, i).unwrap(), "i = {i}");
        }
        for i in gd..=4 {
            assert!(all_jointly_dominating(&sym, i).unwrap(), "i = {i}");
        }
    }
}
