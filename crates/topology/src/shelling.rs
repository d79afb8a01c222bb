//! Shellability (§4.4, Figure 4).
//!
//! A pure `d`-complex is **shellable** when its facets can be ordered
//! `φ_1, …, φ_r` so that each `(⋃_{i≤t} φ_i) ∩ φ_{t+1}` is a pure
//! `(d−1)`-dimensional subcomplex of `∂φ_{t+1}`. Shellable complexes are
//! the scaffolding of the paper's main technical Lemma 4.17 (the input
//! pseudosphere is shelled facet by facet, and the interpreted images are
//! glued with Cor 4.16).
//!
//! This module verifies candidate shelling orders exactly, and decides
//! shellability by memoized search over facet subsets (exact, exponential:
//! fine for the ≤ 20-facet complexes in the paper's figures and our
//! experiments).
//!
//! # The search (DESIGN.md §11.3)
//!
//! [`find_shelling_order`] is a depth-first search over facet orders
//! that memoizes on the *set* of facets already placed: whether a facet
//! may come next depends only on that set, so a used-set from which no
//! order completes is recorded as dead and never expanded again. The
//! search runs on the calling thread in index order and polls the
//! caller's token once per node, so its verdict, witness order and
//! dead-set count are functions of the complex alone, identical at any
//! `KSA_THREADS`. Its oracle is the standalone checker
//! `ksa_cert::check_shelling`, which re-verifies a witness order step by
//! step and refutes a false exhaustion claim by brute force over facet
//! orders, sharing no code with this search.

use crate::complex::{maximal_simplexes, Complex};
use crate::error::TopologyError;
use crate::simplex::{Simplex, View};
use ksa_graphs::cancel::{CancelToken, Interrupted};
use std::collections::HashSet;

/// Whether adding `new` after the facets in `prior` satisfies the shelling
/// condition: `(⋃ prior) ∩ new` is non-void, pure of dimension
/// `dim(new) − 1`.
fn step_ok<V: View>(prior: &[Simplex<V>], new: &Simplex<V>) -> bool {
    let d = new.dim();
    // Maximal intersections with earlier facets: there must be one, and
    // each must be a (d−1)-face.
    let maximal = maximal_simplexes(prior.iter().map(|p| p.intersection(new)));
    !maximal.is_empty() && maximal.iter().all(|s| s.dim() == d - 1)
}

/// Verifies that `order` is a shelling order of the pure complex it spans.
///
/// # Errors
///
/// [`TopologyError::EmptyComplex`] for an empty order;
/// [`TopologyError::NotPure`] if the facets have mixed dimensions.
pub fn is_shelling_order<V: View>(order: &[Simplex<V>]) -> Result<bool, TopologyError> {
    let first = order.first().ok_or(TopologyError::EmptyComplex)?;
    let d = first.dim();
    if order.iter().any(|s| s.dim() != d) {
        return Err(TopologyError::NotPure);
    }
    for t in 1..order.len() {
        if !step_ok(&order[..t], &order[t]) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Validates the complex and collects its facets for a shellability
/// search (`r ≤ 63` enforced for the `u64` used-set bitmask).
fn search_facets<V: View>(complex: &Complex<V>) -> Result<Vec<Simplex<V>>, TopologyError> {
    complex.require_pure()?;
    let facets: Vec<Simplex<V>> = complex.facets().cloned().collect();
    if facets.len() > 63 {
        return Err(TopologyError::TooLarge {
            what: "facets for shellability search",
            estimated: facets.len() as u128,
            limit: 63,
        });
    }
    Ok(facets)
}

/// The memoized subset search over one facet list, with its work
/// accounting.
struct SubsetSearch<'a, V: View> {
    facets: &'a [Simplex<V>],
    cancel: Option<&'a CancelToken>,
    /// Used-sets proved to admit no completion.
    dead: HashSet<u64>,
    nodes: u64,
    dead_hits: u64,
}

impl<V: View> SubsetSearch<'_, V> {
    /// Extends `picked` (whose facets form `used`) to a full shelling
    /// order if one exists; on `Ok(false)` `used` is dead.
    fn dfs(&mut self, used: u64, picked: &mut Vec<usize>) -> Result<bool, Interrupted> {
        let r = self.facets.len();
        if picked.len() == r {
            return Ok(true);
        }
        if let Some(token) = self.cancel {
            token.checkpoint()?;
        }
        if self.dead.contains(&used) {
            self.dead_hits += 1;
            return Ok(false);
        }
        self.nodes += 1;
        let prior: Vec<Simplex<V>> = picked.iter().map(|&i| self.facets[i].clone()).collect();
        for next in 0..r {
            if used >> next & 1 == 1 || !step_ok(&prior, &self.facets[next]) {
                continue;
            }
            picked.push(next);
            if self.dfs(used | (1 << next), picked)? {
                return Ok(true);
            }
            picked.pop();
        }
        self.dead.insert(used);
        Ok(false)
    }
}

/// Decides shellability of `facets` (at least two): the picked facet
/// indices (or `None`) plus the number of dead used-sets recorded — the
/// exhaustion statistic carried by negative certificates. An
/// interrupted search records no counters.
fn search<V: View>(
    facets: &[Simplex<V>],
    cancel: Option<&CancelToken>,
) -> Result<(Option<Vec<usize>>, u64), Interrupted> {
    let mut search = SubsetSearch {
        facets,
        cancel,
        dead: HashSet::new(),
        nodes: 0,
        dead_hits: 0,
    };
    let mut found = None;
    // Any facet can start.
    for start in 0..facets.len() {
        let mut picked = vec![start];
        if search.dfs(1u64 << start, &mut picked)? {
            found = Some(picked);
            break;
        }
    }
    let states = search.dead.len() as u64;
    ksa_obs::count(ksa_obs::Counter::SearchNodes, search.nodes);
    ksa_obs::count(ksa_obs::Counter::NoGoodHits, search.dead_hits);
    ksa_obs::count(ksa_obs::Counter::NoGoodInserts, states);
    Ok((found, states))
}

/// Searches for a shelling order of a pure complex. Returns `None` when the
/// complex is not shellable.
///
/// The memoized subset search of the module docs, `O(2^r · r²)` step
/// checks for `r` facets; it polls `cancel` once per node.
///
/// # Errors
///
/// [`TopologyError::EmptyComplex`] / [`TopologyError::NotPure`] as in
/// [`is_shelling_order`]; [`TopologyError::TooLarge`] beyond 63 facets;
/// [`TopologyError::Cancelled`] / [`TopologyError::DeadlineExceeded`]
/// when the token fires.
pub fn find_shelling_order<V: View>(
    complex: &Complex<V>,
    cancel: Option<&CancelToken>,
) -> Result<Option<Vec<Simplex<V>>>, TopologyError> {
    let facets = search_facets(complex)?;
    if facets.len() == 1 {
        if let Some(token) = cancel {
            token.checkpoint()?;
        }
        return Ok(Some(facets));
    }
    let (picked, _states) = search(&facets, cancel)?;
    Ok(picked.map(|p| p.into_iter().map(|i| facets[i].clone()).collect()))
}

/// Whether a pure complex is shellable.
///
/// # Errors
///
/// Same conditions as [`find_shelling_order`].
pub fn is_shellable<V: View>(complex: &Complex<V>) -> Result<bool, TopologyError> {
    Ok(find_shelling_order(complex, None)?.is_some())
}

/// Decides shellability and emits a [`ksa_cert::ShellingCert`] for the
/// verdict: the witness order for a shellable complex, the exhaustion
/// statistics otherwise. Vertices are interned to `u32` by their rank
/// in the complex's sorted vertex list; the standalone checker
/// re-verifies the verdict from the certificate alone (DESIGN.md §11).
///
/// # Errors
///
/// Same conditions as [`find_shelling_order`].
pub fn is_shellable_certified<V: View>(
    complex: &Complex<V>,
    label: &str,
) -> Result<(bool, ksa_cert::ShellingCert), TopologyError> {
    let facets = search_facets(complex)?;
    let verts = complex.vertices();
    let interned: Vec<Vec<u32>> = facets
        .iter()
        .map(|f| {
            let mut ids: Vec<u32> = f
                .vertices()
                .iter()
                .map(|v| {
                    verts
                        .binary_search(v)
                        .expect("facet vertex is in the complex's vertex list")
                        as u32
                })
                .collect();
            ids.sort_unstable();
            ids
        })
        .collect();
    let (picked, states) = if facets.len() == 1 {
        (Some(vec![0]), 0)
    } else {
        search(&facets, None).expect("no token supplied, search cannot be interrupted")
    };
    let (shellable, verdict) = match picked {
        Some(p) => (
            true,
            ksa_cert::ShellingVerdict::Order(p.into_iter().map(|i| i as u32).collect()),
        ),
        None => (false, ksa_cert::ShellingVerdict::Exhausted { states }),
    };
    ksa_obs::count(ksa_obs::Counter::CertsEmitted, 1);
    Ok((
        shellable,
        ksa_cert::ShellingCert {
            label: label.to_string(),
            facets: interned,
            verdict,
        },
    ))
}

/// Lemma 4.15 sanity helper: for a pure `(d−1)`-dimensional subcomplex of
/// the boundary of a `d`-simplex, *every* facet order is a shelling order.
/// Returns true when that holds for the given complex (used by tests and
/// the Lemma 4.17 experiment).
pub fn every_order_shells<V: View>(complex: &Complex<V>) -> Result<bool, TopologyError> {
    complex.require_pure()?;
    let facets: Vec<Simplex<V>> = complex.facets().cloned().collect();
    if facets.len() > 8 {
        return Err(TopologyError::TooLarge {
            what: "facets for exhaustive order check",
            estimated: facets.len() as u128,
            limit: 8,
        });
    }
    let mut idx: Vec<usize> = (0..facets.len()).collect();
    // Heap's algorithm over indices.
    fn rec<V: View>(k: usize, idx: &mut Vec<usize>, facets: &[Simplex<V>]) -> bool {
        if k <= 1 {
            let order: Vec<Simplex<V>> = idx.iter().map(|&i| facets[i].clone()).collect();
            return is_shelling_order(&order).unwrap_or(false);
        }
        for i in 0..k {
            if !rec(k - 1, idx, facets) {
                return false;
            }
            if k.is_multiple_of(2) {
                idx.swap(i, k - 1);
            } else {
                idx.swap(0, k - 1);
            }
        }
        rec(k - 1, idx, facets)
    }
    let n = idx.len();
    Ok(rec(n, &mut idx, &facets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::Vertex;

    fn simplex(colors: &[usize]) -> Simplex<u32> {
        Simplex::new(colors.iter().map(|&c| Vertex::new(c, 0u32)).collect()).unwrap()
    }

    #[test]
    fn figure_4a_is_shellable() {
        // Two triangles sharing an edge (the paper's shellable exemplar).
        let c = Complex::from_facets(vec![simplex(&[0, 1, 2]), simplex(&[0, 2, 3])]);
        assert!(is_shellable(&c).unwrap());
        let order = find_shelling_order(&c, None).unwrap().unwrap();
        assert!(is_shelling_order(&order).unwrap());
        assert_eq!(order.len(), 2);
    }

    #[test]
    fn figure_4b_is_not_shellable() {
        // Two triangles sharing only a vertex (the paper's non-shellable
        // exemplar): the second facet meets the first in dimension 0 ≠ 1.
        let c = Complex::from_facets(vec![simplex(&[0, 1, 2]), simplex(&[2, 3, 4])]);
        assert!(!is_shellable(&c).unwrap());
    }

    #[test]
    fn single_facet_is_shellable() {
        let c = Complex::of_simplex(simplex(&[0, 1, 2]));
        assert!(is_shellable(&c).unwrap());
    }

    #[test]
    fn boundary_of_simplex_is_shellable_any_order() {
        // Lemma 4.15: the full boundary complex of a simplex shells in any
        // facet order.
        for d in 2..5 {
            let s = simplex(&(0..=d).collect::<Vec<_>>());
            let b = Complex::boundary_of(&s);
            assert!(every_order_shells(&b).unwrap(), "d = {d}");
        }
    }

    #[test]
    fn sub_boundary_complexes_shell_any_order() {
        // Lemma 4.15 proper: any pure (d−1)-subcomplex of ∂(d-simplex).
        let s = simplex(&[0, 1, 2, 3]);
        let all_faces: Vec<Simplex<u32>> = Complex::boundary_of(&s).facets().cloned().collect();
        // Every subset of the 4 triangles.
        for mask in 1u32..16 {
            let sub: Vec<Simplex<u32>> = all_faces
                .iter()
                .enumerate()
                .filter(|&(i, _)| (mask >> i) & 1 == 1)
                .map(|(_, f)| f.clone())
                .collect();
            let c = Complex::from_facets(sub);
            assert!(every_order_shells(&c).unwrap(), "mask = {mask}");
        }
    }

    #[test]
    fn disconnected_pure_complex_not_shellable() {
        let c = Complex::from_facets(vec![simplex(&[0, 1]), simplex(&[2, 3])]);
        assert!(!is_shellable(&c).unwrap());
    }

    #[test]
    fn path_of_edges_is_shellable() {
        let c = Complex::from_facets(vec![simplex(&[0, 1]), simplex(&[1, 2]), simplex(&[2, 3])]);
        assert!(is_shellable(&c).unwrap());
    }

    #[test]
    fn specific_order_verification() {
        let t1 = simplex(&[0, 1, 2]);
        let t2 = simplex(&[0, 2, 3]);
        let t3 = simplex(&[3, 4, 5]); // far away
        assert!(is_shelling_order(&[t1.clone(), t2.clone()]).unwrap());
        assert!(!is_shelling_order(&[t1.clone(), t3.clone()]).unwrap());
        assert!(is_shelling_order(std::slice::from_ref(&t1)).unwrap());
        assert!(is_shelling_order::<u32>(&[]).is_err());
        assert!(is_shelling_order(&[t1, simplex(&[8, 9])]).is_err());
    }

    #[test]
    fn impure_complex_rejected() {
        let c = Complex::from_facets(vec![simplex(&[0, 1, 2]), simplex(&[5, 6])]);
        assert_eq!(is_shellable(&c), Err(TopologyError::NotPure));
    }

    // ------------------------------------------------------------------
    // step_ok edge cases: the exact shelling condition, beyond the happy
    // paths of Figure 4.
    // ------------------------------------------------------------------

    #[test]
    fn step_ok_rejects_empty_prior() {
        // The first facet has no condition to satisfy — but step_ok on an
        // empty prior must say "no" (nothing to glue to), which is why
        // is_shelling_order starts checking at t = 1.
        assert!(!step_ok::<u32>(&[], &simplex(&[0, 1, 2])));
    }

    #[test]
    fn step_ok_zero_dimensional_facets() {
        // A pure 0-complex: d − 1 = −1, but intersections of distinct
        // vertices are empty and get filtered — never shellable beyond
        // one facet.
        let v0 = simplex(&[0]);
        let v1 = simplex(&[1]);
        assert!(!step_ok(std::slice::from_ref(&v0), &v1));
        // A repeated facet meets itself in dimension 0 ≠ −1: also no.
        assert!(!step_ok(std::slice::from_ref(&v0), &v0));
        // And through the public API: two isolated vertices are not a
        // shelling order, one vertex alone is.
        assert!(!is_shelling_order(&[v0.clone(), v1]).unwrap());
        assert!(is_shelling_order(std::slice::from_ref(&v0)).unwrap());
    }

    #[test]
    fn step_ok_duplicate_maximal_intersections() {
        // Two prior facets meeting the new one in the *same* (d−1)-face:
        // the duplicate must collapse (containment check), leaving one
        // maximal intersection of the right dimension — accepted.
        let t1 = simplex(&[0, 1, 2]);
        let t2 = simplex(&[0, 1, 3]);
        let new = simplex(&[0, 1, 4]);
        assert!(step_ok(&[t1.clone(), t2.clone()], &new));
        // The full order verifies too.
        assert!(is_shelling_order(&[t1, t2, new]).unwrap());
    }

    #[test]
    fn step_ok_pure_but_wrong_dimensional_intersection() {
        // The intersection complex can be pure and non-empty yet of
        // dimension d − 2 instead of d − 1: a single shared vertex
        // between triangles (Figure 4b's failure, isolated here at the
        // step level).
        let prior = simplex(&[0, 3, 4]);
        let new = simplex(&[0, 1, 2]);
        assert!(!step_ok(std::slice::from_ref(&prior), &new));
    }

    #[test]
    fn step_ok_mixed_dimensional_intersections() {
        // One prior facet meets new in a (d−1)-face, another in a lone
        // vertex not contained in that face: the intersection is impure —
        // rejected even though a full-dimensional glue exists.
        let good = simplex(&[0, 1, 5]);
        let bad = simplex(&[2, 6, 7]);
        let new = simplex(&[0, 1, 2]);
        assert!(step_ok(std::slice::from_ref(&good), &new));
        assert!(!step_ok(&[good, bad], &new));
    }

    #[test]
    fn step_ok_containment_is_not_commutative_confusion() {
        // The maximality filter must keep the larger of nested
        // intersections: prior facets meeting new in an edge and in a
        // vertex *of that edge* still shell (the vertex intersection is
        // dominated, not impure).
        let edge_glue = simplex(&[0, 1, 5]);
        let vertex_of_edge = simplex(&[1, 6, 7]);
        let new = simplex(&[0, 1, 2]);
        assert!(step_ok(&[edge_glue, vertex_of_edge], &new));
    }

    // ------------------------------------------------------------------
    // Search-level edge cases: the degenerate complexes the figures
    // never exercise.
    // ------------------------------------------------------------------

    #[test]
    fn empty_complex_is_rejected_everywhere() {
        let c: Complex<u32> = Complex::void();
        assert_eq!(
            find_shelling_order(&c, None),
            Err(TopologyError::EmptyComplex)
        );
        assert_eq!(is_shellable(&c), Err(TopologyError::EmptyComplex));
        assert_eq!(every_order_shells(&c), Err(TopologyError::EmptyComplex));
        assert!(is_shellable_certified(&c, "void").is_err());
    }

    #[test]
    fn single_facet_order_is_the_facet() {
        let c = Complex::of_simplex(simplex(&[0, 1, 2]));
        let order = find_shelling_order(&c, None).unwrap().unwrap();
        assert_eq!(order, vec![simplex(&[0, 1, 2])]);
        let (shellable, cert) = is_shellable_certified(&c, "single").unwrap();
        assert!(shellable);
        assert_eq!(ksa_cert::check_shelling(&cert), Ok(()));
    }

    #[test]
    fn zero_dimensional_complexes() {
        // One vertex: shellable (trivially). Two isolated vertices: the
        // step condition has nothing to glue — not shellable.
        let point = Complex::of_simplex(simplex(&[0]));
        assert!(is_shellable(&point).unwrap());
        let two = Complex::from_facets(vec![simplex(&[0]), simplex(&[1])]);
        assert!(!is_shellable(&two).unwrap());
        assert!(find_shelling_order(&two, None).unwrap().is_none());
        let (shellable, cert) = is_shellable_certified(&two, "two-points").unwrap();
        assert!(!shellable);
        assert_eq!(ksa_cert::check_shelling(&cert), Ok(()));
    }

    #[test]
    fn pinned_counterexample_some_but_not_all_orders_shell() {
        // The path of three edges shells in path order but not when the
        // two end edges come first: [01], [23] are disjoint at step 2.
        let e01 = simplex(&[0, 1]);
        let e12 = simplex(&[1, 2]);
        let e23 = simplex(&[2, 3]);
        let c = Complex::from_facets(vec![e01.clone(), e12.clone(), e23.clone()]);
        assert!(is_shellable(&c).unwrap());
        assert!(is_shelling_order(&[e01.clone(), e12.clone(), e23.clone()]).unwrap());
        assert!(!is_shelling_order(&[e01, e23, e12]).unwrap());
        assert!(!every_order_shells(&c).unwrap());
    }

    #[test]
    fn certified_verdicts_round_trip_and_check() {
        for (facets, label) in [
            (vec![simplex(&[0, 1, 2]), simplex(&[0, 2, 3])], "fig4a"),
            (vec![simplex(&[0, 1, 2]), simplex(&[2, 3, 4])], "fig4b"),
        ] {
            let c = Complex::from_facets(facets);
            let (shellable, cert) = is_shellable_certified(&c, label).unwrap();
            assert_eq!(shellable, is_shellable(&c).unwrap(), "{label}");
            assert_eq!(ksa_cert::check_shelling(&cert), Ok(()), "{label}");
            let wrapped = ksa_cert::Cert::Shelling(cert);
            let parsed = ksa_cert::Cert::parse(&wrapped.to_text()).unwrap();
            assert_eq!(parsed, wrapped, "{label}");
        }
    }

    #[test]
    fn octahedron_boundary_is_shellable() {
        // Pseudosphere with binary views: the octahedron (2-sphere), a
        // classic shellable complex with 8 facets.
        use crate::pseudosphere::Pseudosphere;
        let ps = Pseudosphere::new((0..3).map(|c| (c, vec![0u32, 1])).collect()).unwrap();
        let c = ps.to_complex();
        assert_eq!(c.facet_count(), 8);
        assert!(is_shellable(&c).unwrap());
    }
}
