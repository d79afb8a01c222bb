//! Colored simplicial complexes (Def 4.2).
//!
//! A complex is a set of simplexes closed under taking faces. We store only
//! the **facets** (inclusion-maximal simplexes); the face closure is
//! materialized on demand (for homology) rather than kept resident.
//!
//! The enumeration-heavy operations — face
//! closure ([`Complex::all_simplexes`]), skeleta ([`Complex::skeleton`])
//! and facet-pair intersections ([`Complex::intersection`]) — run on the
//! calling thread and return canonical sorted sets (DESIGN.md §4).

use crate::error::TopologyError;
use crate::simplex::{Simplex, Vertex, View};
use std::collections::BTreeSet;
use std::fmt;

/// The inclusion-maximal simplexes among `candidates`, longest first:
/// empty and duplicate candidates are dropped, and so is every candidate
/// contained in another. A simplex contains a *distinct* simplex only if
/// it is strictly longer, so each candidate is tested against the kept
/// simplexes longer than it — none at all when every candidate has one
/// length.
pub(crate) fn maximal_simplexes<V: View>(
    candidates: impl IntoIterator<Item = Simplex<V>>,
) -> Vec<Simplex<V>> {
    let mut sorted: Vec<Simplex<V>> = candidates.into_iter().filter(|s| !s.is_empty()).collect();
    sorted.sort_unstable_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    sorted.dedup();
    let mut kept: Vec<Simplex<V>> = Vec::with_capacity(sorted.len());
    // `kept[..longer]` holds the kept simplexes strictly longer than `s`;
    // lengths only decrease, so the prefix only grows.
    let mut longer = 0;
    for s in sorted {
        while longer < kept.len() && kept[longer].len() > s.len() {
            longer += 1;
        }
        if !kept[..longer].iter().any(|k| k.contains(&s)) {
            kept.push(s);
        }
    }
    kept
}

/// A simplicial complex, stored by facets.
///
/// The empty complex (no simplexes at all) is allowed and has dimension
/// `−1` by convention; use [`Complex::is_void`] to detect it.
///
/// # Examples
///
/// ```
/// use ksa_topology::complex::Complex;
/// use ksa_topology::simplex::{Simplex, Vertex};
///
/// let tri = Simplex::new(vec![
///     Vertex::new(0, 'a'), Vertex::new(1, 'b'), Vertex::new(2, 'c'),
/// ]).unwrap();
/// let c = Complex::from_facets(vec![tri]);
/// assert_eq!(c.dim(), 2);
/// assert!(c.is_pure());
/// assert_eq!(c.all_simplexes().len(), 7); // 3 vertices + 3 edges + 1 triangle
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Complex<V> {
    /// Inclusion-maximal simplexes, none empty.
    facets: BTreeSet<Simplex<V>>,
}

impl<V: View> Complex<V> {
    /// The void complex (no simplexes).
    pub fn void() -> Self {
        Complex {
            facets: BTreeSet::new(),
        }
    }

    /// Builds a complex from candidate facets, dropping empty simplexes and
    /// simplexes dominated by others (so `facets()` is truly the facet
    /// set).
    ///
    /// Cost: O(F log F) for F candidates of one length (every pure
    /// complex, e.g. each round of a protocol complex); otherwise each
    /// candidate is compared only against the strictly longer kept
    /// simplexes.
    pub fn from_facets<I: IntoIterator<Item = Simplex<V>>>(candidates: I) -> Self {
        Complex {
            facets: maximal_simplexes(candidates).into_iter().collect(),
        }
    }

    /// Builds a complex from facets that are already distinct,
    /// inclusion-maximal and sorted (a protocol round's sorted facet
    /// rows): no candidate is sorted or filtered.
    pub(crate) fn from_sorted_facets(facets: impl IntoIterator<Item = Simplex<V>>) -> Self {
        Complex {
            facets: facets.into_iter().collect(),
        }
    }

    /// Iterates over the facets (inclusion-maximal simplexes).
    pub fn facets(&self) -> impl Iterator<Item = &Simplex<V>> {
        self.facets.iter()
    }

    /// Number of facets.
    pub fn facet_count(&self) -> usize {
        self.facets.len()
    }

    /// Whether the complex has no simplexes at all.
    pub fn is_void(&self) -> bool {
        self.facets.is_empty()
    }

    /// The dimension: max facet dimension, `−1` when void.
    pub fn dim(&self) -> isize {
        self.facets.iter().map(|s| s.dim()).max().unwrap_or(-1)
    }

    /// Whether all facets share the maximal dimension (Def 4.2's purity).
    /// The void complex counts as pure.
    pub fn is_pure(&self) -> bool {
        let d = self.dim();
        self.facets.iter().all(|s| s.dim() == d)
    }

    /// Whether `s` is a simplex of the complex (a face of some facet).
    pub fn contains_simplex(&self, s: &Simplex<V>) -> bool {
        if s.is_empty() {
            return !self.is_void();
        }
        self.facets.iter().any(|f| f.contains(s))
    }

    /// Whether a vertex belongs to the complex.
    pub fn contains_vertex(&self, v: &Vertex<V>) -> bool {
        self.facets.iter().any(|f| f.has_vertex(v))
    }

    /// All distinct vertices of the complex, sorted.
    pub fn vertices(&self) -> Vec<Vertex<V>> {
        let set: BTreeSet<Vertex<V>> = self
            .facets
            .iter()
            .flat_map(|f| f.vertices().iter().cloned())
            .collect();
        set.into_iter().collect()
    }

    /// All non-empty simplexes of the complex (the face closure of the
    /// facets), sorted. Exponential in the facet dimensions — this is the
    /// input to homology, not something to keep around.
    pub fn all_simplexes(&self) -> Vec<Simplex<V>> {
        let mut set: BTreeSet<Simplex<V>> = BTreeSet::new();
        for f in &self.facets {
            for sub in f.all_faces() {
                set.insert(sub);
            }
        }
        set.into_iter().collect()
    }

    /// The `k`-skeleton: all simplexes of dimension ≤ `k`.
    pub fn skeleton(&self, k: isize) -> Complex<V> {
        if k < 0 {
            return Complex::void();
        }
        Complex::from_facets(self.facets.iter().flat_map(|f| skeleton_candidates(f, k)))
    }

    /// The boundary complex of a single simplex: all proper faces.
    /// (`skel^{d−1} φ` in §4.4.)
    pub fn boundary_of(s: &Simplex<V>) -> Complex<V> {
        Complex::from_facets(s.faces())
    }

    /// The complex induced by one simplex and all its faces.
    pub fn of_simplex(s: Simplex<V>) -> Complex<V> {
        Complex::from_facets(std::iter::once(s))
    }

    /// Union of two complexes.
    pub fn union(&self, other: &Complex<V>) -> Complex<V> {
        Complex::from_facets(self.facets.iter().chain(other.facets.iter()).cloned())
    }

    /// Intersection of two complexes: the simplexes lying in both. Facets
    /// of the intersection arise as maximal pairwise facet intersections.
    pub fn intersection(&self, other: &Complex<V>) -> Complex<V> {
        let mut cands = Vec::new();
        for a in &self.facets {
            for b in &other.facets {
                let i = a.intersection(b);
                if !i.is_empty() {
                    cands.push(i);
                }
            }
        }
        Complex::from_facets(cands)
    }

    /// Flattens the complex into its chain engine
    /// ([`crate::chain::ChainComplex`]): the face closure run once, top
    /// down, into boundary incidence rows over integer simplex ids, ready
    /// for (repeated, cached) homology and
    /// connectivity queries. Prefer this over separate
    /// [`reduced_betti_numbers`](crate::homology::reduced_betti_numbers)
    /// / [`connectivity`](crate::connectivity::connectivity) calls when
    /// you need more than one verdict for the same complex.
    pub fn chain(&self) -> crate::chain::ChainComplex {
        crate::chain::ChainComplex::from_complex(self)
    }

    /// The Euler characteristic `Σ (−1)^dim` over non-empty simplexes.
    pub fn euler_characteristic(&self) -> i64 {
        let mut chi = 0i64;
        for s in self.all_simplexes() {
            if s.dim() % 2 == 0 {
                chi += 1;
            } else {
                chi -= 1;
            }
        }
        chi
    }

    /// Requires the complex to be pure, as several paper constructions do.
    ///
    /// # Errors
    ///
    /// [`TopologyError::NotPure`] when facets have mixed dimensions;
    /// [`TopologyError::EmptyComplex`] when void.
    pub fn require_pure(&self) -> Result<(), TopologyError> {
        if self.is_void() {
            return Err(TopologyError::EmptyComplex);
        }
        if !self.is_pure() {
            return Err(TopologyError::NotPure);
        }
        Ok(())
    }
}

/// The facet candidates one facet contributes to the `k`-skeleton: the
/// facet itself when small enough, else all its `(k+1)`-vertex subsets.
/// Shared by the sequential and parallel skeleton paths.
fn skeleton_candidates<V: View>(f: &Simplex<V>, k: isize) -> Vec<Simplex<V>> {
    if f.dim() <= k {
        return vec![f.clone()];
    }
    let verts = f.vertices();
    let m = verts.len();
    let take = (k + 1) as usize;
    let mut out = Vec::new();
    // Enumerate combinations via bitmask (m ≤ 64 in practice).
    for mask in 1u64..(1u64 << m) {
        if mask.count_ones() as usize == take {
            let vs: Vec<Vertex<V>> = verts
                .iter()
                .enumerate()
                .filter(|&(i, _)| (mask >> i) & 1 == 1)
                .map(|(_, v)| v.clone())
                .collect();
            out.push(Simplex::new(vs).expect("colors distinct in a face"));
        }
    }
    out
}

impl<V: View> fmt::Debug for Complex<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Complex[{} facets, dim {}]",
            self.facets.len(),
            self.dim()
        )
    }
}

impl<V: View> FromIterator<Simplex<V>> for Complex<V> {
    fn from_iter<I: IntoIterator<Item = Simplex<V>>>(iter: I) -> Self {
        Complex::from_facets(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(pairs: &[(usize, u32)]) -> Simplex<u32> {
        Simplex::new(pairs.iter().map(|&(c, v)| Vertex::new(c, v)).collect()).unwrap()
    }

    #[test]
    fn void_complex() {
        let c = Complex::<u32>::void();
        assert!(c.is_void());
        assert_eq!(c.dim(), -1);
        assert!(c.is_pure());
        assert_eq!(c.euler_characteristic(), 0);
        assert!(c.require_pure().is_err());
    }

    #[test]
    fn from_facets_removes_dominated() {
        let tri = s(&[(0, 1), (1, 1), (2, 1)]);
        let edge = s(&[(0, 1), (1, 1)]); // face of tri
        let stray = s(&[(3, 9)]);
        let c = Complex::from_facets(vec![edge.clone(), tri.clone(), stray.clone()]);
        assert_eq!(c.facet_count(), 2);
        assert!(c.facets().any(|f| f == &tri));
        assert!(c.facets().any(|f| f == &stray));
        assert!(c.contains_simplex(&edge));
        assert!(!c.is_pure());
    }

    #[test]
    fn containment_queries() {
        let tri = s(&[(0, 1), (1, 1), (2, 1)]);
        let c = Complex::of_simplex(tri.clone());
        assert!(c.contains_simplex(&s(&[(0, 1), (2, 1)])));
        assert!(!c.contains_simplex(&s(&[(0, 2)])));
        assert!(c.contains_vertex(&Vertex::new(1, 1)));
        assert!(!c.contains_vertex(&Vertex::new(1, 2)));
        assert!(c.contains_simplex(&Simplex::empty()));
        assert!(!Complex::<u32>::void().contains_simplex(&Simplex::empty()));
    }

    #[test]
    fn all_simplexes_of_triangle() {
        let c = Complex::of_simplex(s(&[(0, 1), (1, 1), (2, 1)]));
        assert_eq!(c.all_simplexes().len(), 7);
        assert_eq!(c.vertices().len(), 3);
        assert_eq!(c.euler_characteristic(), 1); // a disk
    }

    #[test]
    fn skeleton_of_triangle() {
        let c = Complex::of_simplex(s(&[(0, 1), (1, 1), (2, 1)]));
        let sk1 = c.skeleton(1);
        assert_eq!(sk1.dim(), 1);
        assert_eq!(sk1.facet_count(), 3); // the three edges
        assert_eq!(sk1.euler_characteristic(), 0); // a circle
        let sk0 = c.skeleton(0);
        assert_eq!(sk0.facet_count(), 3);
        assert!(c.skeleton(-1).is_void());
        // Skeleton above the dimension is the complex itself.
        assert_eq!(c.skeleton(5), c);
    }

    #[test]
    fn boundary_of_simplex() {
        let tri = s(&[(0, 1), (1, 1), (2, 1)]);
        let b = Complex::boundary_of(&tri);
        assert_eq!(b.dim(), 1);
        assert_eq!(b.facet_count(), 3);
        assert!(!b.contains_simplex(&tri));
    }

    #[test]
    fn union_and_intersection() {
        // Two triangles sharing the edge {(0,1),(1,1)}.
        let t1 = s(&[(0, 1), (1, 1), (2, 1)]);
        let t2 = s(&[(0, 1), (1, 1), (3, 1)]);
        let c1 = Complex::of_simplex(t1.clone());
        let c2 = Complex::of_simplex(t2.clone());
        let u = c1.union(&c2);
        assert_eq!(u.facet_count(), 2);
        let i = c1.intersection(&c2);
        assert_eq!(i.facet_count(), 1);
        assert_eq!(i.dim(), 1);
        assert!(i.contains_simplex(&s(&[(0, 1), (1, 1)])));
        // Disjoint complexes intersect in the void complex.
        let c3 = Complex::of_simplex(s(&[(7, 7)]));
        assert!(c1.intersection(&c3).is_void());
    }

    #[test]
    fn euler_characteristic_of_sphere() {
        // Boundary of a tetrahedron = S², χ = 2.
        let tet = s(&[(0, 1), (1, 1), (2, 1), (3, 1)]);
        let sphere = Complex::boundary_of(&tet);
        assert_eq!(sphere.euler_characteristic(), 2);
        assert!(sphere.is_pure());
        assert_eq!(sphere.dim(), 2);
    }

    #[test]
    fn purity_check() {
        let pure = Complex::from_facets(vec![s(&[(0, 1), (1, 1)]), s(&[(2, 1), (3, 1)])]);
        assert!(pure.require_pure().is_ok());
        let impure = Complex::from_facets(vec![s(&[(0, 1), (1, 1)]), s(&[(4, 1)])]);
        assert_eq!(impure.require_pure(), Err(TopologyError::NotPure));
    }

    #[test]
    fn from_iterator() {
        let c: Complex<u32> = vec![s(&[(0, 1)]), s(&[(1, 2)])].into_iter().collect();
        assert_eq!(c.facet_count(), 2);
    }
}
