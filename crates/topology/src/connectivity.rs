//! Connectivity checks (the computational proxy for the paper's homotopy
//! connectivity).
//!
//! A space is **k-connected** when `π_i` vanishes for all `i ≤ k`. The
//! paper uses: `(−1)`-connected = non-empty, `0`-connected = path-connected,
//! and the general notion for its nerve arguments (Lemma 4.7, Thm 4.12,
//! Thm 5.4). Deciding homotopy connectivity is undecidable in general, so
//! this crate verifies the *homological* shadow:
//!
//! * `(−1)`-connectivity and `0`-connectivity are checked **exactly**
//!   (non-voidness; union-find components);
//! * for `k ≥ 1` we check reduced `H_i(·; Z/2) = 0` for `1 ≤ i ≤ k` —
//!   necessary for k-connectivity, and sufficient together with simple
//!   connectivity (Hurewicz); on the complexes the paper works with
//!   (pseudospheres and their unions/intersections, Lemma 4.7) the verdicts
//!   coincide. DESIGN.md records the substitution.

use crate::chain::ChainComplex;
use crate::complex::Complex;
use crate::homology::{component_count, reduced_betti_numbers_seq};
use crate::simplex::View;

/// The homological connectivity of a complex: the largest `k ≥ −1` such
/// that the complex is non-void, path-connected (for `k ≥ 0`) and has
/// vanishing reduced Z/2 homology up to dimension `k` — or
/// [`Connectivity::Empty`] for the void complex, or
/// a contractible-style `AtLeast(dim)` when everything up to
/// the dimension vanishes (a `d`-dimensional complex can be at most
/// "`∞`-connected" from homology's viewpoint; we cap the report at its
/// dimension).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Connectivity {
    /// The void complex: not even `(−1)`-connected.
    Empty,
    /// Homologically `k`-connected but not `(k+1)`-connected, `k ≥ −1`
    /// (`Exactly(-1)` means non-empty but disconnected).
    Exactly(isize),
    /// All reduced homology *examined* vanishes: through the complex's
    /// dimension for a full [`connectivity`] query, or through the
    /// caller's `k` for an early-exit [`connectivity_up_to`] query that
    /// stopped there (DESIGN.md §7.2). Beyond the reported bound the
    /// homology is unexamined, not known to vanish.
    AtLeast(isize),
}

impl Connectivity {
    /// Whether this verdict certifies `k`-connectivity (homologically).
    pub fn is_at_least(&self, k: isize) -> bool {
        match *self {
            Connectivity::Empty => false,
            Connectivity::Exactly(c) | Connectivity::AtLeast(c) => c >= k,
        }
    }

    /// The verdict encoded by a full reduced Betti vector: `Empty` for
    /// the void complex (empty vector), `Exactly(k−1)` at the first
    /// non-zero `b̃_k`, `AtLeast(dim)` when everything vanishes. This is
    /// the bridge for callers that already hold the Betti numbers (the
    /// round sweep) — by construction it agrees with [`connectivity`]
    /// on the same complex.
    pub fn from_reduced_betti(betti: &[usize]) -> Connectivity {
        if betti.is_empty() {
            return Connectivity::Empty;
        }
        for (k, &b) in betti.iter().enumerate() {
            if b != 0 {
                return Connectivity::Exactly(k as isize - 1);
            }
        }
        Connectivity::AtLeast(betti.len() as isize - 1)
    }
}

/// Computes the [`Connectivity`] verdict of a complex on the chain
/// engine ([`crate::chain`]), reducing boundary operators dimension by
/// dimension and stopping at the first non-vanishing reduced Betti
/// number.
///
/// # Examples
///
/// ```
/// use ksa_topology::complex::Complex;
/// use ksa_topology::simplex::{Simplex, Vertex};
/// use ksa_topology::connectivity::{connectivity, Connectivity};
///
/// let tet = Simplex::new((0..4).map(|c| Vertex::new(c, ())).collect()).unwrap();
/// // A solid simplex is contractible:
/// assert_eq!(connectivity(&Complex::of_simplex(tet.clone())), Connectivity::AtLeast(3));
/// // Its boundary is a 2-sphere: 1-connected, not 2-connected.
/// assert_eq!(connectivity(&Complex::boundary_of(&tet)), Connectivity::Exactly(1));
/// ```
pub fn connectivity<V: View>(complex: &Complex<V>) -> Connectivity {
    ChainComplex::from_complex(complex).connectivity()
}

/// Early-exit connectivity: the verdict *up to* `k`. Reduces `∂_1, ∂_2,
/// …` and stops at the first non-zero Betti number or at `k+1`, so
/// cross-checks that only need `measured ≥ predicted l` for small `l`
/// skip the top-dimension rank work entirely.
///
/// Agrees with the truncation of the full [`connectivity`] verdict: an
/// `Exactly(c)` with `c < min(k, dim)` is exact, and an
/// `AtLeast(min(k, dim))` means every examined Betti number vanished
/// (DESIGN.md §7.2). For `k ≥ dim` it *is* the full verdict.
///
/// # Examples
///
/// ```
/// use ksa_topology::complex::Complex;
/// use ksa_topology::simplex::{Simplex, Vertex};
/// use ksa_topology::connectivity::{connectivity_up_to, Connectivity};
///
/// let tet = Simplex::new((0..4).map(|c| Vertex::new(c, ())).collect()).unwrap();
/// let sphere = Complex::boundary_of(&tet); // S², 1- but not 2-connected
/// assert_eq!(connectivity_up_to(&sphere, 1), Connectivity::AtLeast(1));
/// assert_eq!(connectivity_up_to(&sphere, 2), Connectivity::Exactly(1));
/// ```
pub fn connectivity_up_to<V: View>(complex: &Complex<V>, k: isize) -> Connectivity {
    ChainComplex::from_complex(complex).connectivity_up_to(k)
}

/// The sequential reference for [`connectivity`]: derives the verdict
/// from the engine-free [`reduced_betti_numbers_seq`] and the exact
/// union-find [`component_count`], with no chain engine. The
/// proptests of `tests/chain_engine.rs` pin `connectivity ==
/// connectivity_seq`.
pub fn connectivity_seq<V: View>(complex: &Complex<V>) -> Connectivity {
    if complex.is_void() {
        return Connectivity::Empty;
    }
    if component_count(complex) > 1 {
        return Connectivity::Exactly(-1);
    }
    Connectivity::from_reduced_betti(&reduced_betti_numbers_seq(complex))
}

/// Convenience: the numeric homological connectivity, with `−2` for the
/// void complex (so that "`c ≥ k`" comparisons behave).
pub fn homological_connectivity<V: View>(complex: &Complex<V>) -> isize {
    match connectivity(complex) {
        Connectivity::Empty => -2,
        Connectivity::Exactly(k) | Connectivity::AtLeast(k) => k,
    }
}

/// Whether the complex is homologically at least `k`-connected.
/// (`k = −1`: non-void; `k = 0`: path-connected; `k ≥ 1`: additionally
/// vanishing reduced homology through dimension `k`.)
///
/// Delegates to the early-exit [`connectivity_up_to`] — deciding
/// `k`-connectivity never ranks a boundary operator beyond `∂_{k+1}` —
/// and to [`Connectivity::is_at_least`] for the verdict.
pub fn is_k_connected<V: View>(complex: &Complex<V>, k: isize) -> bool {
    if k <= -2 {
        return true;
    }
    connectivity_up_to(complex, k).is_at_least(k)
}

/// Corollary 4.16 (two-element nerve lemma), checked homologically: if `C`
/// and `K` are `k`-connected and `C ∩ K` is `(k−1)`-connected, then
/// `C ∪ K` is `k`-connected. Returns the union's verdict so callers can
/// assert it.
pub fn union_connectivity_witness<V: View>(
    c: &Complex<V>,
    k_complex: &Complex<V>,
) -> (Connectivity, Connectivity, Connectivity, Connectivity) {
    let inter = c.intersection(k_complex);
    let union = c.union(k_complex);
    (
        connectivity(c),
        connectivity(k_complex),
        connectivity(&inter),
        connectivity(&union),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::{Simplex, Vertex};

    fn simplex(colors: &[usize]) -> Simplex<u32> {
        Simplex::new(colors.iter().map(|&c| Vertex::new(c, 0u32)).collect()).unwrap()
    }

    #[test]
    fn void_complex_is_empty() {
        assert_eq!(connectivity(&Complex::<u32>::void()), Connectivity::Empty);
        assert!(!is_k_connected(&Complex::<u32>::void(), -1));
        assert!(is_k_connected(&Complex::<u32>::void(), -2));
        assert_eq!(homological_connectivity(&Complex::<u32>::void()), -2);
    }

    #[test]
    fn point_is_very_connected() {
        let c = Complex::of_simplex(simplex(&[0]));
        assert_eq!(connectivity(&c), Connectivity::AtLeast(0));
        assert!(is_k_connected(&c, -1));
        assert!(is_k_connected(&c, 0));
    }

    #[test]
    fn two_points_are_disconnected() {
        let c = Complex::from_facets(vec![simplex(&[0]), simplex(&[1])]);
        assert_eq!(connectivity(&c), Connectivity::Exactly(-1));
        assert!(is_k_connected(&c, -1));
        assert!(!is_k_connected(&c, 0));
    }

    #[test]
    fn circle_is_0_but_not_1_connected() {
        let circle = Complex::boundary_of(&simplex(&[0, 1, 2]));
        assert_eq!(connectivity(&circle), Connectivity::Exactly(0));
        assert!(is_k_connected(&circle, 0));
        assert!(!is_k_connected(&circle, 1));
    }

    #[test]
    fn sphere_connectivity() {
        let sphere = Complex::boundary_of(&simplex(&[0, 1, 2, 3]));
        assert_eq!(connectivity(&sphere), Connectivity::Exactly(1));
        assert_eq!(homological_connectivity(&sphere), 1);
    }

    #[test]
    fn solid_simplex_contractible() {
        let c = Complex::of_simplex(simplex(&[0, 1, 2, 3]));
        assert_eq!(connectivity(&c), Connectivity::AtLeast(3));
        for k in -1..=3 {
            assert!(is_k_connected(&c, k), "k = {k}");
        }
    }

    #[test]
    fn two_triangles_sharing_edge_glue_well() {
        // Cor 4.16 in action: both disks are contractible; their
        // intersection (an edge) is 0-connected; the union must be
        // 1-connected (it is a bigger disk).
        let c1 = Complex::of_simplex(simplex(&[0, 1, 2]));
        let c2 = Complex::of_simplex(simplex(&[1, 2, 3]));
        let (a, b, i, u) = union_connectivity_witness(&c1, &c2);
        assert!(a.is_at_least(1));
        assert!(b.is_at_least(1));
        assert!(i.is_at_least(0));
        assert!(u.is_at_least(1));
    }

    #[test]
    fn two_triangles_sharing_vertex_fail_higher_glue() {
        // Intersection is a point (0-connected but trivially so);
        // the union is still 0-connected but the wedge of two disks is
        // simply connected too... take instead two *circles* sharing a
        // vertex: union is a wedge of circles, 0- but not 1-connected.
        let c1 = Complex::boundary_of(&simplex(&[0, 1, 2]));
        let c2 = Complex::boundary_of(&simplex(&[0, 3, 4]));
        let u = c1.union(&c2);
        assert_eq!(connectivity(&u), Connectivity::Exactly(0));
    }
}
