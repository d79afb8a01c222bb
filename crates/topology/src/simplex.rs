//! Colored simplexes (Def 4.1).
//!
//! A simplex is a set of `(color, view)` pairs with at most one view per
//! color. Colors are process identifiers throughout the paper (plus cover
//! indices inside nerve complexes); views range from in-neighborhoods
//! (uninterpreted complexes) to input values (input complexes) to flat
//! views (protocol complexes) — hence the generic parameter `V`.

use crate::error::TopologyError;
use std::fmt;
use std::hash::Hash;

/// Marker trait for view types; blanket-implemented for everything with the
/// needed structure, so downstream code never implements it manually.
///
/// `Send + Sync` is part of the contract so complexes and verdicts can
/// cross threads whole: between experiment workers, and between the
/// server's threads and its cache (every view type in the workspace —
/// integers, `ProcSet`s, flat views — is trivially both).
pub trait View: Clone + Ord + Hash + fmt::Debug + Send + Sync {}
impl<T: Clone + Ord + Hash + fmt::Debug + Send + Sync> View for T {}

/// A colored vertex: a `(color, view)` pair.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Vertex<V> {
    /// The color (process identifier, or cover index in nerves).
    pub color: usize,
    /// The view carried by this vertex.
    pub view: V,
}

impl<V> Vertex<V> {
    /// Creates a vertex.
    pub fn new(color: usize, view: V) -> Self {
        Vertex { color, view }
    }
}

/// A colored simplex: a set of vertices with pairwise distinct colors
/// (Def 4.1), stored sorted by color.
///
/// The **dimension** of a simplex with `m` vertices is `m − 1`; the empty
/// simplex has dimension `−1` (we expose [`Simplex::dim`] as
/// `isize`).
///
/// # Examples
///
/// ```
/// use ksa_topology::simplex::{Simplex, Vertex};
///
/// let s = Simplex::new(vec![Vertex::new(0, "a"), Vertex::new(1, "b")]).unwrap();
/// assert_eq!(s.dim(), 1);
/// assert_eq!(s.faces().count(), 2); // the two vertices
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Simplex<V> {
    verts: Vec<Vertex<V>>,
}

impl<V: View> Simplex<V> {
    /// Builds a simplex from vertices, sorting by color.
    ///
    /// # Errors
    ///
    /// [`TopologyError::DuplicateColor`] if two vertices share a color.
    pub fn new(mut verts: Vec<Vertex<V>>) -> Result<Self, TopologyError> {
        verts.sort();
        for w in verts.windows(2) {
            if w[0].color == w[1].color {
                return Err(TopologyError::DuplicateColor { color: w[0].color });
            }
        }
        Ok(Simplex { verts })
    }

    /// The empty simplex (dimension −1).
    pub fn empty() -> Self {
        Simplex { verts: Vec::new() }
    }

    /// A single-vertex simplex.
    pub fn vertex(color: usize, view: V) -> Self {
        Simplex {
            verts: vec![Vertex::new(color, view)],
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// Whether the simplex is empty.
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// The dimension: `len() − 1`, so `−1` for the empty simplex.
    pub fn dim(&self) -> isize {
        self.verts.len() as isize - 1
    }

    /// The vertices, sorted by color.
    pub fn vertices(&self) -> &[Vertex<V>] {
        &self.verts
    }

    /// The colors appearing in the simplex (`names(σ)` in the paper),
    /// in increasing order.
    pub fn colors(&self) -> impl Iterator<Item = usize> + '_ {
        self.verts.iter().map(|v| v.color)
    }

    /// The view of the vertex colored `color` (`view_σ(p)`), if present.
    pub fn view_of(&self, color: usize) -> Option<&V> {
        // Colors are pairwise distinct, so searching by color alone is
        // consistent with the (color, view) sort order.
        self.verts
            .binary_search_by(|v| v.color.cmp(&color))
            .ok()
            .map(|idx| &self.verts[idx].view)
    }

    /// Whether `other`'s vertices are all vertices of `self`
    /// (`other ⊆ self` as sets, i.e. `other` is a face of `self`).
    pub fn contains(&self, other: &Simplex<V>) -> bool {
        // Both sorted: linear merge scan.
        let mut it = self.verts.iter();
        'outer: for v in &other.verts {
            for u in it.by_ref() {
                if u == v {
                    continue 'outer;
                }
                if u > v {
                    return false;
                }
            }
            return false;
        }
        true
    }

    /// Whether a specific vertex belongs to the simplex.
    pub fn has_vertex(&self, v: &Vertex<V>) -> bool {
        self.verts.binary_search(v).is_ok()
    }

    /// The intersection of two simplexes (their common vertices) — always
    /// a valid simplex.
    pub fn intersection(&self, other: &Simplex<V>) -> Simplex<V> {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.verts.len() && j < other.verts.len() {
            match self.verts[i].cmp(&other.verts[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.verts[i].clone());
                    i += 1;
                    j += 1;
                }
            }
        }
        Simplex { verts: out }
    }

    /// The codimension-1 faces (drop one vertex each), in vertex order.
    /// Empty for the empty simplex; the single vertex yields the empty
    /// simplex.
    pub fn faces(&self) -> impl Iterator<Item = Simplex<V>> + '_ {
        (0..self.verts.len()).map(move |skip| {
            let verts = self
                .verts
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, v)| v.clone())
                .collect();
            Simplex { verts }
        })
    }

    /// All subsimplexes (faces of every dimension, the empty simplex
    /// excluded). `2^len − 1` of them.
    pub fn all_faces(&self) -> Vec<Simplex<V>> {
        let m = self.verts.len();
        let mut out = Vec::with_capacity((1usize << m) - 1);
        for mask in 1u64..(1u64 << m) {
            let verts = self
                .verts
                .iter()
                .enumerate()
                .filter(|&(i, _)| (mask >> i) & 1 == 1)
                .map(|(_, v)| v.clone())
                .collect();
            out.push(Simplex { verts });
        }
        out
    }

    /// The face obtained by restricting to the given colors.
    pub fn restrict_colors(&self, colors: &[usize]) -> Simplex<V> {
        let verts = self
            .verts
            .iter()
            .filter(|v| colors.contains(&v.color))
            .cloned()
            .collect();
        Simplex { verts }
    }
}

impl<V: View> fmt::Debug for Simplex<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, v) in self.verts.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "(p{}, {:?})", v.color, v.view)?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(pairs: &[(usize, u32)]) -> Simplex<u32> {
        Simplex::new(pairs.iter().map(|&(c, v)| Vertex::new(c, v)).collect()).unwrap()
    }

    #[test]
    fn construction_sorts_and_validates() {
        let a = s(&[(2, 20), (0, 10)]);
        assert_eq!(a.colors().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(
            Simplex::new(vec![Vertex::new(1, 5u32), Vertex::new(1, 6)]),
            Err(TopologyError::DuplicateColor { color: 1 })
        );
        // Same color same view is also a duplicate color.
        assert!(Simplex::new(vec![Vertex::new(1, 5u32), Vertex::new(1, 5)]).is_err());
    }

    #[test]
    fn dims() {
        assert_eq!(Simplex::<u32>::empty().dim(), -1);
        assert_eq!(Simplex::vertex(0, 1u32).dim(), 0);
        assert_eq!(s(&[(0, 1), (1, 2), (2, 3)]).dim(), 2);
    }

    #[test]
    fn view_of_lookup() {
        let a = s(&[(0, 10), (3, 30), (7, 70)]);
        assert_eq!(a.view_of(3), Some(&30));
        assert_eq!(a.view_of(1), None);
        assert_eq!(a.view_of(7), Some(&70));
        assert_eq!(Simplex::<u32>::empty().view_of(0), None);
    }

    #[test]
    fn containment() {
        let big = s(&[(0, 1), (1, 2), (2, 3)]);
        let face = s(&[(0, 1), (2, 3)]);
        let not_face = s(&[(0, 1), (2, 99)]);
        assert!(big.contains(&face));
        assert!(big.contains(&big));
        assert!(big.contains(&Simplex::empty()));
        assert!(!big.contains(&not_face));
        assert!(!face.contains(&big));
    }

    #[test]
    fn intersection_is_common_vertices() {
        let a = s(&[(0, 1), (1, 2), (2, 3)]);
        let b = s(&[(0, 1), (1, 9), (2, 3)]);
        let i = a.intersection(&b);
        assert_eq!(i, s(&[(0, 1), (2, 3)]));
        assert_eq!(a.intersection(&a), a);
        assert_eq!(a.intersection(&Simplex::empty()), Simplex::empty());
    }

    #[test]
    fn faces_drop_one_vertex() {
        let a = s(&[(0, 1), (1, 2), (2, 3)]);
        let faces: Vec<_> = a.faces().collect();
        assert_eq!(faces.len(), 3);
        for f in &faces {
            assert_eq!(f.dim(), 1);
            assert!(a.contains(f));
        }
        // A vertex's only face is the empty simplex.
        let v = Simplex::vertex(0, 1u32);
        assert_eq!(v.faces().collect::<Vec<_>>(), vec![Simplex::empty()]);
    }

    #[test]
    fn all_faces_count() {
        let a = s(&[(0, 1), (1, 2), (2, 3)]);
        let all = a.all_faces();
        assert_eq!(all.len(), 7);
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 7);
        for f in all {
            assert!(a.contains(&f));
            assert!(!f.is_empty());
        }
    }

    #[test]
    fn restrict_colors_projects() {
        let a = s(&[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(a.restrict_colors(&[0, 2]), s(&[(0, 1), (2, 3)]));
        assert_eq!(a.restrict_colors(&[9]), Simplex::empty());
    }

    #[test]
    fn debug_format() {
        let a = s(&[(0, 1)]);
        assert_eq!(format!("{a:?}"), "⟨(p0, 1)⟩");
    }
}
