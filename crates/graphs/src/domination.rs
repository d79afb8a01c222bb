//! The domination number `γ(G)` (Def 3.1).
//!
//! `γ(G)` is the size of the smallest `P ⊆ Π` with `⋃_{p∈P} Out(p) = Π`.
//! It characterizes exactly what is solvable in one round on the *simple*
//! closed-above model `↑G` (Thm 3.2 + Thm 5.1): `γ(G)`-set agreement is
//! solvable, `(γ(G)−1)`-set agreement is not.
//!
//! Minimum domination is NP-hard in general (it is set cover), so this
//! module provides:
//!
//! * an exact **branch-and-bound** solver, practical well beyond the sizes
//!   the rest of the repository needs (it prunes with a greedy upper bound
//!   and a max-coverage lower bound);
//! * the **greedy** `O(n²)` approximation (ln-n factor), exposed separately
//!   because the bench harness contrasts the two.

use crate::digraph::Digraph;
use crate::proc_set::ProcSet;

/// A dominating set together with its size; produced by the exact solver so
/// callers can reuse the witness (e.g. the Thm 3.2 algorithm hardcodes it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DominatingSet {
    /// The witnessing set of processes.
    pub set: ProcSet,
    /// `set.len()`, i.e. `γ(G)` when produced by [`minimum_dominating_set`].
    pub size: usize,
}

/// The domination number `γ(G)` (Def 3.1), exact.
///
/// # Examples
///
/// ```
/// use ksa_graphs::{families, domination::domination_number};
///
/// let star = families::broadcast_star(5, 2).unwrap();
/// assert_eq!(domination_number(&star), 1); // the center dominates
/// ```
pub fn domination_number(g: &Digraph) -> usize {
    minimum_dominating_set(g).size
}

/// A minimum dominating set of `g` (exact branch and bound).
///
/// Always succeeds: `Π` itself dominates thanks to self-loops.
pub fn minimum_dominating_set(g: &Digraph) -> DominatingSet {
    ksa_obs::count(ksa_obs::Counter::DominationQueries, 1);
    let n = g.n();
    let full = ProcSet::full(n);

    // Greedy upper bound (also our incumbent solution).
    let greedy = greedy_dominating_set(g);
    let mut best = greedy.set;
    let mut best_size = greedy.size;

    // Candidate order: by decreasing out-degree (classic set-cover order).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&u| std::cmp::Reverse(g.out_set(u).len()));
    let max_out = g.out_set(order[0]).len();

    /// Taking `order[idx]` is useful iff it covers something new.
    fn can_take(g: &Digraph, u: usize, covered: ProcSet) -> bool {
        !g.out_set(u).difference(covered).is_empty()
    }

    /// Skipping `order[idx]` is sound iff the remaining candidates can
    /// still cover everything.
    fn can_skip(g: &Digraph, order: &[usize], idx: usize, covered: ProcSet, full: ProcSet) -> bool {
        let mut rest = covered;
        for &v in &order[idx + 1..] {
            rest = rest.union(g.out_set(v));
        }
        full.is_subset(rest)
    }

    // Depth-first branch and bound over the candidate list.
    #[allow(clippy::too_many_arguments)]
    fn rec(
        g: &Digraph,
        order: &[usize],
        idx: usize,
        chosen: ProcSet,
        covered: ProcSet,
        full: ProcSet,
        max_out: usize,
        best: &mut ProcSet,
        best_size: &mut usize,
    ) {
        if covered == full {
            if chosen.len() < *best_size {
                *best = chosen;
                *best_size = chosen.len();
            }
            return;
        }
        if idx >= order.len() {
            return;
        }
        let uncovered = full.difference(covered).len();
        // Lower bound: each new pick covers at most max_out new processes.
        let lb = chosen.len() + uncovered.div_ceil(max_out);
        if lb >= *best_size {
            return;
        }
        let u = order[idx];
        // Branch 1: take u.
        if can_take(g, u, covered) {
            rec(
                g,
                order,
                idx + 1,
                chosen.with(u),
                covered.union(g.out_set(u)),
                full,
                max_out,
                best,
                best_size,
            );
        }
        // Branch 2: skip u.
        if can_skip(g, order, idx, covered, full) {
            rec(
                g,
                order,
                idx + 1,
                chosen,
                covered,
                full,
                max_out,
                best,
                best_size,
            );
        }
    }

    rec(
        g,
        &order,
        0,
        ProcSet::empty(),
        ProcSet::empty(),
        full,
        max_out,
        &mut best,
        &mut best_size,
    );

    debug_assert!(g.dominates(best));
    DominatingSet {
        set: best,
        size: best_size,
    }
}

/// Greedy dominating set: repeatedly pick the process covering the most
/// uncovered processes. `O(n²)`; guaranteed within `ln n + 1` of `γ(G)`.
pub fn greedy_dominating_set(g: &Digraph) -> DominatingSet {
    let n = g.n();
    let full = ProcSet::full(n);
    let mut covered = ProcSet::empty();
    let mut chosen = ProcSet::empty();
    while covered != full {
        let (u, gain) = (0..n)
            .map(|u| (u, g.out_set(u).difference(covered).len()))
            .max_by_key(|&(u, gain)| (gain, std::cmp::Reverse(u)))
            .expect("n > 0");
        debug_assert!(gain > 0, "self-loops guarantee progress");
        chosen.insert(u);
        covered = covered.union(g.out_set(u));
    }
    DominatingSet {
        size: chosen.len(),
        set: chosen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;

    /// Brute-force reference: smallest k with a dominating k-subset.
    fn brute_gamma(g: &Digraph) -> usize {
        let n = g.n();
        for k in 1..=n {
            if ProcSet::full(n).k_subsets(k).any(|p| g.dominates(p)) {
                return k;
            }
        }
        unreachable!("Π dominates")
    }

    #[test]
    fn star_has_gamma_one() {
        let g = families::broadcast_star(6, 3).unwrap();
        assert_eq!(domination_number(&g), 1);
        let w = minimum_dominating_set(&g);
        assert_eq!(w.set, ProcSet::singleton(3));
    }

    #[test]
    fn empty_graph_needs_everyone() {
        let g = Digraph::empty(5).unwrap();
        assert_eq!(domination_number(&g), 5);
    }

    #[test]
    fn clique_needs_one() {
        assert_eq!(domination_number(&Digraph::complete(4).unwrap()), 1);
    }

    #[test]
    fn cycle_gamma_is_ceil_half() {
        // In the directed cycle each process covers itself and its successor:
        // γ(C_n) = ⌈n/2⌉.
        for n in 2..9 {
            let c = families::cycle(n).unwrap();
            assert_eq!(domination_number(&c), n.div_ceil(2), "n = {n}");
        }
    }

    #[test]
    fn matches_brute_force_on_families() {
        let graphs = vec![
            families::cycle(6).unwrap(),
            families::path(6).unwrap(),
            families::forward_matching(6).unwrap(),
            families::binary_out_tree(6).unwrap(),
            families::fig1_second_graph(),
            families::bidirectional_ring(7).unwrap(),
            families::broadcast_stars(6, ProcSet::from_iter([1usize, 4])).unwrap(),
        ];
        for g in graphs {
            assert_eq!(domination_number(&g), brute_gamma(&g), "graph {g}");
        }
    }

    #[test]
    fn witness_dominates_and_has_reported_size() {
        for n in 2..7 {
            let g = families::path(n).unwrap();
            let w = minimum_dominating_set(&g);
            assert!(g.dominates(w.set));
            assert_eq!(w.set.len(), w.size);
        }
    }

    #[test]
    fn greedy_is_dominating_and_at_least_optimal() {
        let graphs = vec![
            families::cycle(8).unwrap(),
            families::path(9).unwrap(),
            families::fig1_second_graph(),
        ];
        for g in graphs {
            let greedy = greedy_dominating_set(&g);
            assert!(g.dominates(greedy.set));
            assert!(greedy.size >= domination_number(&g));
        }
    }

    #[test]
    fn monotone_under_edge_addition() {
        // More edges ⇒ domination can only get easier.
        let small = families::cycle(6).unwrap();
        let mut big = small.clone();
        big.add_edge(0, 3).unwrap();
        big.add_edge(2, 5).unwrap();
        assert!(domination_number(&big) <= domination_number(&small));
    }
}
