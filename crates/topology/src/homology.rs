//! Reduced simplicial homology over Z/2.
//!
//! For a complex `C` with `c_k` simplexes in dimension `k` and boundary
//! operators `∂_k : C_k → C_{k−1}` (over GF(2), so no signs), the reduced
//! Betti numbers are
//!
//! ```text
//! b̃_k = dim ker ∂_k − rank ∂_{k+1}
//!      = (c_k − rank ∂_k) − rank ∂_{k+1}
//! ```
//!
//! with `∂_0` taken as the augmentation map `C_0 → Z/2` (rank 1 on any
//! non-void complex), which bakes the "reduced" part in: `b̃_0 =
//! #components − 1`.
//!
//! These are the numbers behind the crate's homological-connectivity proxy
//! (see [`connectivity`](crate::connectivity) and DESIGN.md §2.2).
//!
//! [`reduced_betti_numbers`] runs on the flat chain-complex engine
//! ([`crate::chain`], DESIGN.md §7); [`reduced_betti_numbers_seq`] is the
//! engine-free reference — self-contained face closure plus dense scalar
//! elimination — kept deliberately independent of the top-down closure
//! and the sparse kernel so the determinism proptests cross-validate two
//! different algorithms, not one algorithm against itself.

use crate::chain::ChainComplex;
use crate::complex::Complex;
use crate::gf2::Gf2Matrix;
use crate::simplex::{Simplex, View};
use std::collections::{BTreeSet, HashMap};

/// The reduced Z/2 Betti numbers `b̃_0, …, b̃_dim` of a complex.
///
/// Returns an empty vector for the void complex (which has `b̃_{−1} = 1`,
/// not represented here; use [`Complex::is_void`] to detect voidness).
///
/// Runs on the flat chain-complex engine ([`crate::chain`]): a
/// sequential top-down face closure emits each boundary operator's
/// incidence rows, and each operator is reduced sparsely. Simplex ids
/// are sorted positions, so every Betti number is bit-identical to
/// [`reduced_betti_numbers_seq`] (DESIGN.md §4, §7).
///
/// Callers that need both Betti numbers *and* connectivity should build
/// one [`ChainComplex`] and query it twice — the rank cache is shared.
///
/// # Examples
///
/// ```
/// use ksa_topology::complex::Complex;
/// use ksa_topology::simplex::{Simplex, Vertex};
/// use ksa_topology::homology::reduced_betti_numbers;
///
/// // The boundary of a tetrahedron is a 2-sphere: b̃ = [0, 0, 1].
/// let tet = Simplex::new((0..4).map(|c| Vertex::new(c, ())).collect()).unwrap();
/// let sphere = Complex::boundary_of(&tet);
/// assert_eq!(reduced_betti_numbers(&sphere), vec![0, 0, 1]);
/// ```
pub fn reduced_betti_numbers<V: View>(complex: &Complex<V>) -> Vec<usize> {
    ChainComplex::from_complex(complex).reduced_betti()
}

/// The sequential reference for [`reduced_betti_numbers`]: enumerates the
/// face closure, assembles every boundary operator and reduces it with
/// scalar Gaussian elimination ([`Gf2Matrix::rank_seq`]), with no chain
/// engine.
///
/// This is the oracle of the engine-vs-oracle proptests
/// (`tests/parallel_homology.rs`), which pin
/// `reduced_betti_numbers == reduced_betti_numbers_seq`.
///
/// # Examples
///
/// ```
/// use ksa_topology::complex::Complex;
/// use ksa_topology::simplex::{Simplex, Vertex};
/// use ksa_topology::homology::{reduced_betti_numbers, reduced_betti_numbers_seq};
///
/// let tri = Simplex::new((0..3).map(|c| Vertex::new(c, ())).collect()).unwrap();
/// let circle = Complex::boundary_of(&tri);
/// assert_eq!(reduced_betti_numbers_seq(&circle), vec![0, 1]);
/// assert_eq!(reduced_betti_numbers(&circle), reduced_betti_numbers_seq(&circle));
/// ```
pub fn reduced_betti_numbers_seq<V: View>(complex: &Complex<V>) -> Vec<usize> {
    if complex.is_void() {
        return Vec::new();
    }
    let dim = complex.dim() as usize;

    // Self-contained scalar face-closure enumeration (the parallel path's
    // `Complex::all_simplexes` produces the same sorted vector).
    let mut closure: BTreeSet<Simplex<V>> = BTreeSet::new();
    for f in complex.facets() {
        for s in f.all_faces() {
            closure.insert(s);
        }
    }
    let all: Vec<Simplex<V>> = closure.into_iter().collect();
    let (by_dim, index) = bucket_and_index(&all, dim);

    let mut ranks = vec![0usize; dim + 2];
    ranks[0] = 1;
    for k in 1..=dim {
        let mut m = Gf2Matrix::zero(by_dim[k].len(), by_dim[k - 1].len());
        for (r, s) in by_dim[k].iter().enumerate() {
            for face in s.faces() {
                m.set(r, index[k - 1][&face]);
            }
        }
        ranks[k] = m.rank_seq();
    }

    (0..=dim)
        .map(|k| by_dim[k].len() - ranks[k] - ranks[k + 1])
        .collect()
}

/// Buckets the (sorted) face closure by dimension and builds the
/// simplex → row/column index maps the boundary operators use. The
/// assignment depends only on the canonical sort order of `all`.
#[allow(clippy::type_complexity)]
fn bucket_and_index<V: View>(
    all: &[Simplex<V>],
    dim: usize,
) -> (Vec<Vec<&Simplex<V>>>, Vec<HashMap<&Simplex<V>, usize>>) {
    let mut by_dim: Vec<Vec<&Simplex<V>>> = vec![Vec::new(); dim + 1];
    for s in all {
        by_dim[s.dim() as usize].push(s);
    }
    let mut index: Vec<HashMap<&Simplex<V>, usize>> = Vec::with_capacity(dim + 1);
    for bucket in &by_dim {
        let mut m = HashMap::with_capacity(bucket.len());
        for (i, s) in bucket.iter().enumerate() {
            m.insert(*s, i);
        }
        index.push(m);
    }
    (by_dim, index)
}

/// The number of path components of a non-void complex (computed by
/// union-find on the 1-skeleton — exact, independent of homology).
pub fn component_count<V: View>(complex: &Complex<V>) -> usize {
    let verts = complex.vertices();
    if verts.is_empty() {
        return 0;
    }
    let idx: HashMap<_, usize> = verts.iter().enumerate().map(|(i, v)| (v, i)).collect();
    let mut parent: Vec<usize> = (0..verts.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for f in complex.facets() {
        let vs = f.vertices();
        for w in vs.windows(2) {
            let a = find(&mut parent, idx[&w[0]]);
            let b = find(&mut parent, idx[&w[1]]);
            if a != b {
                parent[a] = b;
            }
        }
    }
    // Roots are exactly the self-parented entries — no need to collect,
    // sort and dedup the find() images.
    (0..parent.len()).filter(|&i| parent[i] == i).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::Vertex;

    fn simplex(colors: &[usize]) -> Simplex<u32> {
        Simplex::new(colors.iter().map(|&c| Vertex::new(c, 0u32)).collect()).unwrap()
    }

    #[test]
    fn point_is_acyclic() {
        let c = Complex::of_simplex(simplex(&[0]));
        assert_eq!(reduced_betti_numbers(&c), vec![0]);
        assert_eq!(component_count(&c), 1);
    }

    #[test]
    fn full_simplex_is_acyclic() {
        for d in 1..5 {
            let c = Complex::of_simplex(simplex(&(0..=d).collect::<Vec<_>>()));
            let betti = reduced_betti_numbers(&c);
            assert!(betti.iter().all(|&b| b == 0), "d = {d}: {betti:?}");
        }
    }

    #[test]
    fn two_points_have_reduced_b0_one() {
        let c = Complex::from_facets(vec![simplex(&[0]), simplex(&[1])]);
        assert_eq!(reduced_betti_numbers(&c), vec![1]);
        assert_eq!(component_count(&c), 2);
    }

    #[test]
    fn circle_has_b1_one() {
        // Triangle boundary: 3 edges.
        let tri = simplex(&[0, 1, 2]);
        let circle = Complex::boundary_of(&tri);
        assert_eq!(reduced_betti_numbers(&circle), vec![0, 1]);
        assert_eq!(component_count(&circle), 1);
    }

    #[test]
    fn sphere_betti() {
        let tet = simplex(&[0, 1, 2, 3]);
        let sphere = Complex::boundary_of(&tet);
        assert_eq!(reduced_betti_numbers(&sphere), vec![0, 0, 1]);
    }

    #[test]
    fn three_sphere_betti() {
        let s4 = simplex(&[0, 1, 2, 3, 4]);
        let sphere = Complex::boundary_of(&s4);
        assert_eq!(reduced_betti_numbers(&sphere), vec![0, 0, 0, 1]);
    }

    #[test]
    fn wedge_of_two_circles() {
        // Two triangle boundaries sharing the vertex 0.
        let c1 = Complex::boundary_of(&simplex(&[0, 1, 2]));
        let c2 = Complex::boundary_of(&simplex(&[0, 3, 4]));
        let wedge = c1.union(&c2);
        assert_eq!(reduced_betti_numbers(&wedge), vec![0, 2]);
    }

    #[test]
    fn disjoint_circles() {
        let c1 = Complex::boundary_of(&simplex(&[0, 1, 2]));
        let c2 = Complex::boundary_of(&simplex(&[3, 4, 5]));
        let both = c1.union(&c2);
        assert_eq!(reduced_betti_numbers(&both), vec![1, 2]);
        assert_eq!(component_count(&both), 2);
    }

    #[test]
    fn euler_characteristic_consistency() {
        // χ = 1 + Σ (−1)^k b̃_k for non-void complexes.
        let complexes = vec![
            Complex::of_simplex(simplex(&[0, 1, 2])),
            Complex::boundary_of(&simplex(&[0, 1, 2, 3])),
            Complex::from_facets(vec![simplex(&[0, 1]), simplex(&[2, 3])]),
        ];
        for c in complexes {
            let betti = reduced_betti_numbers(&c);
            let chi_from_betti: i64 = 1 + betti
                .iter()
                .enumerate()
                .map(|(k, &b)| if k % 2 == 0 { b as i64 } else { -(b as i64) })
                .sum::<i64>();
            assert_eq!(c.euler_characteristic(), chi_from_betti);
        }
    }

    #[test]
    fn void_complex_empty_betti() {
        assert_eq!(
            reduced_betti_numbers(&Complex::<u32>::void()),
            Vec::<usize>::new()
        );
        assert_eq!(component_count(&Complex::<u32>::void()), 0);
    }

    #[test]
    fn betti_with_distinct_views() {
        // Same colors, different views: a pseudosphere-like square
        // (0,a)-(1,a)-(0,b)-(1,b) cycle — b̃_1 = 1.
        let e = |c1: usize, v1: u32, c2: usize, v2: u32| {
            Simplex::new(vec![Vertex::new(c1, v1), Vertex::new(c2, v2)]).unwrap()
        };
        let square = Complex::from_facets(vec![
            e(0, 0, 1, 0),
            e(0, 0, 1, 1),
            e(0, 1, 1, 0),
            e(0, 1, 1, 1),
        ]);
        assert_eq!(reduced_betti_numbers(&square), vec![0, 1]);
    }
}
