//! Seeded random graph generation for workloads and property tests.
//!
//! Everything here takes an explicit `&mut impl Rng`, so experiment runs are
//! reproducible byte-for-byte from their seeds (DESIGN.md §4.5).

use crate::digraph::Digraph;
use crate::error::GraphError;
use crate::proc_set::ProcSet;
use rand::Rng;

/// A random digraph on `n` processes where each non-loop edge is present
/// independently with probability `p` (self-loops always present).
///
/// # Errors
///
/// Propagates size errors from [`Digraph::empty`].
///
/// # Panics
///
/// Panics if `p` is not within `[0, 1]` (propagated from `rand`).
pub fn random_digraph(n: usize, p: f64, rng: &mut impl Rng) -> Result<Digraph, GraphError> {
    let mut g = Digraph::empty(n)?;
    for u in 0..n {
        for v in 0..n {
            if u != v && rng.random_bool(p) {
                g.add_edge(u, v)?;
            }
        }
    }
    Ok(g)
}

/// A uniformly random member of `↑g` — i.e. `g` plus each missing edge
/// independently with probability `1/2`.
///
/// # Errors
///
/// Never fails for a valid `g`; signature kept fallible for uniformity.
pub fn random_superset(g: &Digraph, rng: &mut impl Rng) -> Result<Digraph, GraphError> {
    random_superset_with(g, 0.5, rng)
}

/// A random member of `↑g` where each missing edge is added independently
/// with probability `p_extra`. `p_extra = 0` returns `g` itself; `1`
/// returns the clique.
///
/// # Errors
///
/// Never fails for a valid `g`; signature kept fallible for uniformity.
pub fn random_superset_with(
    g: &Digraph,
    p_extra: f64,
    rng: &mut impl Rng,
) -> Result<Digraph, GraphError> {
    let mut h = g.clone();
    for u in 0..g.n() {
        for v in 0..g.n() {
            if u != v && !g.has_edge(u, v) && rng.random_bool(p_extra) {
                h.add_edge(u, v)?;
            }
        }
    }
    Ok(h)
}

/// A random `k`-subset of `{0, …, n-1}` (uniform).
///
/// # Panics
///
/// Panics if `k > n` or `n > MAX_PROCS`.
pub fn random_k_subset(n: usize, k: usize, rng: &mut impl Rng) -> ProcSet {
    assert!(k <= n);
    // Floyd's algorithm.
    let mut s = ProcSet::empty();
    for j in n - k..n {
        let t = rng.random_range(0..=j);
        if !s.insert(t) {
            s.insert(j);
        }
    }
    debug_assert_eq!(s.len(), k);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xD15C0)
    }

    #[test]
    fn extremes_of_edge_probability() {
        let mut r = rng();
        assert_eq!(
            random_digraph(5, 0.0, &mut r).unwrap(),
            Digraph::empty(5).unwrap()
        );
        assert_eq!(
            random_digraph(5, 1.0, &mut r).unwrap(),
            Digraph::complete(5).unwrap()
        );
    }

    #[test]
    fn random_digraph_is_seed_deterministic() {
        let a = random_digraph(6, 0.3, &mut rng()).unwrap();
        let b = random_digraph(6, 0.3, &mut rng()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn superset_contains_base() {
        let g = crate::families::cycle(6).unwrap();
        let mut r = rng();
        for _ in 0..20 {
            let h = random_superset(&g, &mut r).unwrap();
            assert!(h.contains_graph(&g).unwrap());
        }
        assert_eq!(random_superset_with(&g, 0.0, &mut r).unwrap(), g);
        assert!(random_superset_with(&g, 1.0, &mut r).unwrap().is_complete());
    }

    #[test]
    fn k_subset_sizes() {
        let mut r = rng();
        for k in 0..=8 {
            let s = random_k_subset(8, k, &mut r);
            assert_eq!(s.len(), k);
            assert!(s.is_subset(ProcSet::full(8)));
        }
    }

    #[test]
    fn k_subset_covers_space() {
        // Over many draws, every process should appear at least once.
        let mut r = rng();
        let mut seen = ProcSet::empty();
        for _ in 0..200 {
            seen = seen.union(random_k_subset(6, 2, &mut r));
        }
        assert_eq!(seen, ProcSet::full(6));
    }
}
