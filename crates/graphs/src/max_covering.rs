//! Max-covering numbers `max-cov_i(S)` and coefficients `M_i(S)` (Def 5.3).
//!
//! Where covering numbers bound dissemination from *below* (worst case, for
//! upper bounds), max-covering numbers bound it from *above among
//! non-dominating scenarios* (best case, for lower bounds): for
//! `i < γ_dist(S)`,
//!
//! ```text
//! max-cov_i(S) = max { |⋃_{G ∈ S_i} Out_G(P)| :
//!                      |P| = i, S_i ⊆ S non-empty, |S_i| ≤ min(i, |S|),
//!                      ⋃_{G ∈ S_i} Out_G(P) ≠ Π }
//! ```
//!
//! The side condition `≠ Π` keeps only the scenarios where some process is
//! still ignorant — exactly the simplexes that survive in the intersections
//! of the protocol complex (proof of Thm 5.4). Collections are read as
//! *at most* `min(i, |S|)` graphs, mirroring the reading of `γ_dist`
//! justified in [`dist_domination`](crate::dist_domination) (the paper's
//! star and symmetric-closure computations come out exactly under this
//! reading; see DESIGN.md).
//!
//! The coefficient
//!
//! ```text
//! M_i(S) = ⌊(n−i−1)/(max-cov_i(S)−i)⌋   if max-cov_i(S) > i
//!        = n − i                          if max-cov_i(S) = i
//! ```
//!
//! counts how many such scenarios can be chained before everybody is
//! reached, which is the connectivity the nerve argument of Thm 5.4
//! extracts.

use crate::digraph::Digraph;
use crate::dist_domination::{check_set, distributed_domination_number};
use crate::error::GraphError;
use crate::proc_set::ProcSet;

/// The `i`-th max-covering number `max-cov_i(S)` (Def 5.3).
///
/// Defined for `1 ≤ i < γ_dist(S)`; pass `gamma_dist` if already computed
/// (use [`max_covering_number`] otherwise).
///
/// # Errors
///
/// [`GraphError::EmptyGraphSet`] / [`GraphError::MismatchedSizes`] as
/// usual; [`GraphError::IndexOutOfDomain`] unless `1 ≤ i < γ_dist(S)`
/// (below `γ_dist` a non-dominating scenario is guaranteed to exist).
pub fn max_covering_number_with(
    graphs: &[Digraph],
    i: usize,
    gamma_dist: usize,
) -> Result<usize, GraphError> {
    check_set(graphs)?;
    let n = graphs[0].n();
    if i == 0 || i >= gamma_dist {
        return Err(GraphError::IndexOutOfDomain {
            index: i,
            domain: "[1, γ_dist(S) − 1]",
        });
    }
    ksa_obs::count(ksa_obs::Counter::DominationQueries, 1);
    let full = ProcSet::full(n);
    let m = i.min(graphs.len());

    // The best non-dominating audience union for one choice of `P`.
    let best_for_subset = |p: ProcSet| -> Option<usize> {
        // Deduplicate the audiences Out_G(P): collections only see these.
        let mut audiences: Vec<ProcSet> = graphs.iter().map(|g| g.out_union(p)).collect();
        audiences.sort();
        audiences.dedup();
        // A collection's union avoids some witness q; scan witnesses.
        let mut best: Option<usize> = None;
        for q in 0..n {
            let cands: Vec<ProcSet> = audiences
                .iter()
                .copied()
                .filter(|a| !a.contains(q))
                .collect();
            if cands.is_empty() {
                continue;
            }
            let u = best_union(&cands, m);
            debug_assert!(u != full);
            if best.is_none_or(|b| u.len() > b) {
                best = Some(u.len());
            }
        }
        best
    };

    full.k_subsets(i)
        .filter_map(best_for_subset)
        .max()
        .ok_or(GraphError::IndexOutOfDomain {
            index: i,
            domain: "no non-dominating scenario exists (i ≥ γ_dist?)",
        })
}

/// Exact max-coverage: the largest union of at most `m` of the candidate
/// sets. Branch and bound over the candidates sorted by decreasing size.
fn best_union(cands: &[ProcSet], m: usize) -> ProcSet {
    if cands.len() <= m {
        return cands.iter().fold(ProcSet::empty(), |acc, &c| acc.union(c));
    }
    let mut sorted = cands.to_vec();
    sorted.sort_by_key(|c| std::cmp::Reverse(c.len()));
    let mut best = ProcSet::empty();
    fn rec(sorted: &[ProcSet], idx: usize, left: usize, acc: ProcSet, best: &mut ProcSet) {
        if acc.len() > best.len() {
            *best = acc;
        }
        if left == 0 || idx >= sorted.len() {
            return;
        }
        // Optimistic bound: the next `left` candidates, counted fully.
        let optimistic: usize = acc.len()
            + sorted[idx..]
                .iter()
                .take(left)
                .map(|c| c.len())
                .sum::<usize>();
        if optimistic <= best.len() {
            return;
        }
        rec(sorted, idx + 1, left - 1, acc.union(sorted[idx]), best);
        rec(sorted, idx + 1, left, acc, best);
    }
    rec(&sorted, 0, m, ProcSet::empty(), &mut best);
    best
}

/// The `i`-th max-covering number, computing `γ_dist(S)` internally.
///
/// # Errors
///
/// Same conditions as [`max_covering_number_with`].
pub fn max_covering_number(graphs: &[Digraph], i: usize) -> Result<usize, GraphError> {
    let gd = distributed_domination_number(graphs)?;
    max_covering_number_with(graphs, i, gd)
}

/// The `i`-th max-covering coefficient `M_i(S)` (Def 5.3).
///
/// # Errors
///
/// Same conditions as [`max_covering_number_with`].
pub fn max_covering_coefficient_with(
    graphs: &[Digraph],
    i: usize,
    gamma_dist: usize,
) -> Result<usize, GraphError> {
    let n = graphs.first().ok_or(GraphError::EmptyGraphSet)?.n();
    let mc = max_covering_number_with(graphs, i, gamma_dist)?;
    Ok(if mc > i {
        (n - i - 1) / (mc - i)
    } else {
        n - i
    })
}

/// The `i`-th max-covering coefficient, computing `γ_dist(S)` internally.
///
/// # Errors
///
/// Same conditions as [`max_covering_number_with`].
pub fn max_covering_coefficient(graphs: &[Digraph], i: usize) -> Result<usize, GraphError> {
    let gd = distributed_domination_number(graphs)?;
    max_covering_coefficient_with(graphs, i, gd)
}

/// The Cor 5.5 estimate of `M_t(Sym({g}))` computed **from the single
/// graph** `g` (no symmetric closure materialized):
///
/// ```text
/// M_t = ⌊(n−t−1)/(t·(max-cov_t({g}) − t))⌋   if max-cov_t({g}) > t
///     = n − t                                  if max-cov_t({g}) = t
/// ```
///
/// # Errors
///
/// Same conditions as [`max_covering_number_with`] applied to `{g}`.
pub fn symmetric_coefficient_estimate(g: &Digraph, t: usize) -> Result<usize, GraphError> {
    let single = std::slice::from_ref(g);
    let gd = distributed_domination_number(single)?;
    let mc = max_covering_number_with(single, t, gd)?;
    let n = g.n();
    Ok(if mc > t {
        (n - t - 1) / (t * (mc - t))
    } else {
        n - t
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;
    use crate::perm::symmetric_closure;

    #[test]
    fn star_unions_are_silent() {
        // Thm 6.13 / §5: for symmetric unions of s stars, any t < γ_dist
        // processes avoiding the centers stay silent: max-cov_t = t and
        // M_t = n − t.
        for (n, s) in [(4usize, 1usize), (4, 2), (5, 2)] {
            let centers: ProcSet = (0..s).collect();
            let gen = families::broadcast_stars(n, centers).unwrap();
            let sym = symmetric_closure(std::slice::from_ref(&gen)).unwrap();
            let gd = distributed_domination_number(&sym).unwrap();
            assert_eq!(gd, n - s + 1);
            for t in 1..gd {
                assert_eq!(
                    max_covering_number_with(&sym, t, gd).unwrap(),
                    t,
                    "n={n}, s={s}, t={t}"
                );
                assert_eq!(
                    max_covering_coefficient_with(&sym, t, gd).unwrap(),
                    n - t,
                    "n={n}, s={s}, t={t}"
                );
            }
        }
    }

    #[test]
    fn index_domain_enforced() {
        let sym = symmetric_closure(&[families::broadcast_star(4, 0).unwrap()]).unwrap();
        let gd = distributed_domination_number(&sym).unwrap(); // = 4
        assert!(max_covering_number_with(&sym, 0, gd).is_err());
        assert!(max_covering_number_with(&sym, gd, gd).is_err());
        assert!(max_covering_number_with(&sym, 1, gd).is_ok());
    }

    #[test]
    fn cycle_max_covering() {
        // Directed 4-cycle symmetric closure: one process reaches at most 2
        // processes (itself + successor), and 2 < 4 = n, so max-cov_1 = 2.
        let sym = symmetric_closure(&[families::cycle(4).unwrap()]).unwrap();
        let gd = distributed_domination_number(&sym).unwrap(); // γ_eq(C4) = 3
        assert_eq!(gd, 3);
        assert_eq!(max_covering_number_with(&sym, 1, gd).unwrap(), 2);
        // M_1 = ⌊(4−1−1)/(2−1)⌋ = 2.
        assert_eq!(max_covering_coefficient_with(&sym, 1, gd).unwrap(), 2);
        // t = 2: two adjacent processes reach 3 ≠ Π; pairs of cycles can
        // share that audience, so max-cov_2 = 3 and M_2 = ⌊1/1⌋ = 1.
        assert_eq!(max_covering_number_with(&sym, 2, gd).unwrap(), 3);
        assert_eq!(max_covering_coefficient_with(&sym, 2, gd).unwrap(), 1);
    }

    #[test]
    fn single_graph_max_covering_is_best_nondominating_audience() {
        // For a singleton set the definition collapses to
        // max {|Out_G(P)| : |P| = i, Out_G(P) ≠ Π}.
        let g = families::fig1_second_graph();
        let gd = distributed_domination_number(std::slice::from_ref(&g)).unwrap(); // 4
                                                                                   // i = 1: best single audience ≠ Π is 2 (every process reaches 2).
        assert_eq!(
            max_covering_number_with(std::slice::from_ref(&g), 1, gd).unwrap(),
            2
        );
        // i = 2: pairs reach 3 or 4; best ≠ Π is 3.
        assert_eq!(
            max_covering_number_with(std::slice::from_ref(&g), 2, gd).unwrap(),
            3
        );
        // i = 3: {p0,p1,p2} reaches {p0,p1,p2} (p3 hears nobody) = 3.
        assert_eq!(
            max_covering_number_with(std::slice::from_ref(&g), 3, gd).unwrap(),
            3
        );
    }

    #[test]
    fn max_covering_at_least_covering_when_nondominating() {
        use crate::covering::covering_number_of_set;
        let sym = symmetric_closure(&[families::cycle(5).unwrap()]).unwrap();
        let gd = distributed_domination_number(&sym).unwrap();
        for i in 1..gd {
            let cov = covering_number_of_set(&sym, i).unwrap();
            let mc = max_covering_number_with(&sym, i, gd).unwrap();
            if cov < 5 {
                assert!(mc >= cov, "i = {i}: max-cov {mc} < cov {cov}");
            }
        }
    }

    #[test]
    fn coefficient_formula_branches() {
        // max-cov = i branch (stars).
        let stars = symmetric_closure(&[families::broadcast_star(5, 0).unwrap()]).unwrap();
        let gd = distributed_domination_number(&stars).unwrap();
        assert_eq!(max_covering_coefficient_with(&stars, 2, gd).unwrap(), 3); // n−i
                                                                              // max-cov > i branch (cycles).
        let cyc = symmetric_closure(&[families::cycle(5).unwrap()]).unwrap();
        let gd = distributed_domination_number(&cyc).unwrap();
        let mc = max_covering_number_with(&cyc, 1, gd).unwrap();
        assert!(mc > 1);
        assert_eq!(
            max_covering_coefficient_with(&cyc, 1, gd).unwrap(),
            (5 - 1 - 1) / (mc - 1)
        );
    }

    #[test]
    fn symmetric_estimate_matches_cor55_on_stars() {
        // Cor 5.5 (proof in App. C): for max-cov_t({G}) = t the symmetric
        // coefficient is n − t.
        let g = families::broadcast_star(5, 0).unwrap();
        for t in 1..4 {
            assert_eq!(symmetric_coefficient_estimate(&g, t).unwrap(), 5 - t);
        }
        // For the cycle, the estimate follows Cor 5.5's formula from the
        // single-graph max-cov (e.g. max-cov_2({C5}) = 4: a non-adjacent
        // pair reaches 4 ≠ Π processes).
        let c = families::cycle(5).unwrap();
        let single = std::slice::from_ref(&c);
        let gd = distributed_domination_number(single).unwrap();
        for t in 1..4 {
            let mc = max_covering_number_with(single, t, gd).unwrap();
            assert!(mc > t);
            assert_eq!(
                symmetric_coefficient_estimate(&c, t).unwrap(),
                (5 - t - 1) / (t * (mc - t)),
                "t = {t}"
            );
        }
        assert_eq!(
            max_covering_number_with(single, 2, gd).unwrap(),
            4,
            "non-adjacent pair in C5"
        );
    }

    #[test]
    fn estimate_is_a_safe_underestimate_of_direct_m() {
        // Cor 5.5's estimate may only under-approximate the directly
        // computed M_t(Sym(G)) (it over-approximates max-cov): safe for
        // lower bounds.
        for g in [families::cycle(4).unwrap(), families::cycle(5).unwrap()] {
            let sym = symmetric_closure(std::slice::from_ref(&g)).unwrap();
            let gd = distributed_domination_number(&sym).unwrap();
            for t in 1..gd {
                let direct = max_covering_coefficient_with(&sym, t, gd).unwrap();
                let est = symmetric_coefficient_estimate(&g, t).unwrap();
                assert!(
                    est <= direct,
                    "graph {g}, t = {t}: est {est} > direct {direct}"
                );
            }
        }
    }

    #[test]
    fn empty_set_rejected() {
        assert!(max_covering_number(&[], 1).is_err());
    }

    #[test]
    fn best_union_exactness() {
        // {0,1}, {2,3}, {1,2}: best pair is the disjoint one.
        let cands = vec![
            ProcSet::from_iter([0usize, 1]),
            ProcSet::from_iter([2usize, 3]),
            ProcSet::from_iter([1usize, 2]),
        ];
        assert_eq!(super::best_union(&cands, 2).len(), 4);
        assert_eq!(super::best_union(&cands, 1).len(), 2);
        assert_eq!(super::best_union(&cands, 3).len(), 4);
    }
}
