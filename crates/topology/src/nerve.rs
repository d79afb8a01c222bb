//! Nerve complexes of covers (Def 4.10).
//!
//! Given a cover `(C_i)_{i ∈ I}` of a complex, the nerve has one vertex per
//! cover element and a simplex for every `J ⊆ I` whose members intersect
//! non-trivially. The paper's nerve lemma (Lemma 4.11) transfers
//! connectivity between a complex and the nerve of a nice cover; the
//! experiments verify its hypotheses and conclusion on the paper's covers.

use crate::complex::Complex;
use crate::simplex::{Simplex, Vertex, View};

/// The nerve of a cover, as a complex colored by cover indices with unit
/// views.
///
/// Exponential in `cover.len()` in the worst case, but pruned: supersets of
/// empty intersections are never explored (emptiness is monotone).
///
/// # Examples
///
/// ```
/// use ksa_topology::complex::Complex;
/// use ksa_topology::simplex::{Simplex, Vertex};
/// use ksa_topology::nerve::nerve_complex;
///
/// // Two triangles sharing an edge cover their union; the nerve is a
/// // 1-simplex (the two cover elements intersect).
/// let t1 = Complex::of_simplex(Simplex::new(
///     (0..3).map(|c| Vertex::new(c, ())).collect()).unwrap());
/// let t2 = Complex::of_simplex(Simplex::new(
///     (1..4).map(|c| Vertex::new(c, ())).collect()).unwrap());
/// let nerve = nerve_complex(&[t1, t2]);
/// assert_eq!(nerve.dim(), 1);
/// ```
pub fn nerve_complex<V: View>(cover: &[Complex<V>]) -> Complex<()> {
    // Level-wise construction: frontier holds (index set as sorted vec,
    // running intersection).
    let mut facet_candidates: Vec<Vec<usize>> = Vec::new();
    let mut frontier: Vec<(Vec<usize>, Complex<V>)> = Vec::new();
    for (i, c) in cover.iter().enumerate() {
        if !c.is_void() {
            frontier.push((vec![i], c.clone()));
        }
    }
    while !frontier.is_empty() {
        let mut next: Vec<(Vec<usize>, Complex<V>)> = Vec::new();
        for (set, inter) in &frontier {
            let exts = extensions(set, inter, cover);
            // A set that extends no further is a facet candidate.
            if exts.is_empty() {
                facet_candidates.push(set.clone());
            }
            next.extend(exts);
        }
        frontier = next;
    }
    ksa_obs::count(
        ksa_obs::Counter::FacetsEnumerated,
        facet_candidates.len() as u64,
    );
    Complex::from_facets(facet_candidates.into_iter().map(|set| {
        Simplex::new(set.into_iter().map(|i| Vertex::new(i, ())).collect())
            .expect("indices are distinct")
    }))
}

/// Checks the hypothesis of the nerve lemma (Lemma 4.11) homologically for
/// a given `k`: every non-empty intersection of `|J|` cover elements must
/// be homologically `(k − |J| + 1)`-connected (or empty). Returns the list
/// of violating index sets (empty = hypothesis verified).
pub fn nerve_lemma_violations<V: View>(cover: &[Complex<V>], k: isize) -> Vec<Vec<usize>> {
    use crate::connectivity::is_k_connected;

    let mut bad = Vec::new();
    // Enumerate non-empty-intersection index sets exactly like the nerve.
    let mut frontier: Vec<(Vec<usize>, Complex<V>)> = Vec::new();
    for (i, c) in cover.iter().enumerate() {
        frontier.push((vec![i], c.clone()));
    }
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for (set, inter) in &frontier {
            if inter.is_void() {
                continue;
            }
            let need = k - set.len() as isize + 1;
            if !is_k_connected(inter, need) {
                bad.push(set.clone());
            }
            next.extend(extensions(set, inter, cover));
        }
        frontier = next;
    }
    bad
}

/// The one-step extensions of a non-void index set: intersect with every
/// cover element past the set's last index and keep the non-void results
/// (emptiness is monotone, so supersets of void intersections are never
/// explored). Shared by the nerve construction and the nerve-lemma
/// hypothesis check so the pruning logic cannot diverge between them.
fn extensions<V: View>(
    set: &[usize],
    inter: &Complex<V>,
    cover: &[Complex<V>],
) -> Vec<(Vec<usize>, Complex<V>)> {
    let last = *set.last().expect("non-empty index set");
    let mut exts = Vec::new();
    for (j, cj) in cover.iter().enumerate().skip(last + 1) {
        let bigger = inter.intersection(cj);
        if !bigger.is_void() {
            let mut s = set.to_vec();
            s.push(j);
            exts.push((s, bigger));
        }
    }
    exts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::{connectivity, homological_connectivity, Connectivity};

    fn simplex(colors: &[usize]) -> Simplex<u32> {
        Simplex::new(colors.iter().map(|&c| Vertex::new(c, 0u32)).collect()).unwrap()
    }

    #[test]
    fn nerve_of_two_overlapping_sets_is_edge() {
        let t1 = Complex::of_simplex(simplex(&[0, 1, 2]));
        let t2 = Complex::of_simplex(simplex(&[1, 2, 3]));
        let n = nerve_complex(&[t1, t2]);
        assert_eq!(n.dim(), 1);
        assert_eq!(n.facet_count(), 1);
    }

    #[test]
    fn nerve_of_disjoint_sets_is_points() {
        let a = Complex::of_simplex(simplex(&[0]));
        let b = Complex::of_simplex(simplex(&[1]));
        let n = nerve_complex(&[a, b]);
        assert_eq!(n.dim(), 0);
        assert_eq!(n.facet_count(), 2);
        assert_eq!(connectivity(&n), Connectivity::Exactly(-1));
    }

    #[test]
    fn nerve_skips_void_members() {
        let a = Complex::of_simplex(simplex(&[0]));
        let n = nerve_complex(&[a, Complex::void()]);
        assert_eq!(n.facet_count(), 1);
        assert_eq!(n.dim(), 0);
    }

    #[test]
    fn nerve_of_circle_cover() {
        // Three arcs of a triangle-circle: edges {0,1}, {1,2}, {0,2}.
        // Pairwise intersections are single vertices; the triple
        // intersection is empty. Nerve = triangle boundary = circle.
        let arcs = vec![
            Complex::of_simplex(simplex(&[0, 1])),
            Complex::of_simplex(simplex(&[1, 2])),
            Complex::of_simplex(simplex(&[0, 2])),
        ];
        let n = nerve_complex(&arcs);
        assert_eq!(n.dim(), 1);
        assert_eq!(n.facet_count(), 3);
        assert_eq!(homological_connectivity(&n), 0); // a circle
                                                     // And indeed the union is a circle too (nerve lemma in action).
        let union = arcs[0].union(&arcs[1]).union(&arcs[2]);
        assert_eq!(homological_connectivity(&union), 0);
    }

    #[test]
    fn nerve_of_cover_with_common_point_is_simplex() {
        // All three sets share vertex 0: nerve = full 2-simplex.
        let c1 = Complex::of_simplex(simplex(&[0, 1]));
        let c2 = Complex::of_simplex(simplex(&[0, 2]));
        let c3 = Complex::of_simplex(simplex(&[0, 3]));
        let n = nerve_complex(&[c1, c2, c3]);
        assert_eq!(n.facet_count(), 1);
        assert_eq!(n.dim(), 2);
    }

    #[test]
    fn nerve_lemma_hypothesis_check() {
        // Cover of a disk by two half-disks meeting in an edge: for k = 1,
        // singles must be 1-connected (they are: contractible) and the
        // pair must be 0-connected (an edge: yes).
        let t1 = Complex::of_simplex(simplex(&[0, 1, 2]));
        let t2 = Complex::of_simplex(simplex(&[1, 2, 3]));
        assert!(nerve_lemma_violations(&[t1.clone(), t2.clone()], 1).is_empty());
        // For circles sharing one point, k = 1 fails already on singles.
        let r1 = Complex::boundary_of(&simplex(&[0, 1, 2]));
        let r2 = Complex::boundary_of(&simplex(&[0, 3, 4]));
        let bad = nerve_lemma_violations(&[r1, r2], 1);
        assert!(!bad.is_empty());
    }

    #[test]
    fn nerve_lemma_conclusion_on_paper_style_cover() {
        // Lemma 4.11, checked end-to-end on a tractable instance:
        // cover a solid tetrahedron's boundary... simpler: cover the
        // square (two triangles) — hypotheses hold for k = 1, so the union
        // is 1-connected iff the nerve is. Nerve = edge (1-connected);
        // union = disk (1-connected). Consistent.
        let t1 = Complex::of_simplex(simplex(&[0, 1, 2]));
        let t2 = Complex::of_simplex(simplex(&[1, 2, 3]));
        let n = nerve_complex(&[t1.clone(), t2.clone()]);
        let union = t1.union(&t2);
        assert!(crate::connectivity::is_k_connected(&n, 1));
        assert!(crate::connectivity::is_k_connected(&union, 1));
    }
}
