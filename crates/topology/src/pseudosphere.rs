//! Pseudosphere complexes `φ(Π; V_1, …, V_n)` (Def 4.5).
//!
//! A pseudosphere assigns to each color `i` a set of admissible views
//! `V_i`; its simplexes are exactly the partial choices of one view per
//! color. Facets pick one view for every color with `V_i ≠ ∅`.
//!
//! The paper's two workhorse facts are implemented and tested here:
//!
//! * **Lemma 4.6** — pseudospheres intersect component-wise:
//!   `φ(Π; U_i) ∩ φ(Π; V_i) = φ(Π; U_i ∩ V_i)`;
//! * **Lemma 4.7** — a pseudosphere with `m` non-empty colors is
//!   `(m − 2)`-connected (verified homologically in the tests and
//!   experiments).

use crate::complex::Complex;
use crate::error::TopologyError;
use crate::simplex::{Simplex, Vertex, View};
use std::collections::BTreeMap;

/// Size guard for materializing pseudosphere facets.
pub const DEFAULT_FACET_LIMIT: u128 = 2_000_000;

/// A pseudosphere: per-color admissible view sets, kept deduplicated and
/// sorted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pseudosphere<V> {
    /// color → admissible views (sorted, deduplicated, possibly empty).
    views: BTreeMap<usize, Vec<V>>,
}

impl<V: View> Pseudosphere<V> {
    /// Builds a pseudosphere from `(color, views)` pairs. Colors may not
    /// repeat; view lists are sorted and deduplicated. Empty view lists are
    /// allowed (the color simply never appears).
    ///
    /// # Errors
    ///
    /// [`TopologyError::DuplicateColor`] if a color repeats.
    pub fn new(entries: Vec<(usize, Vec<V>)>) -> Result<Self, TopologyError> {
        let mut views = BTreeMap::new();
        for (color, mut vs) in entries {
            vs.sort();
            vs.dedup();
            if views.insert(color, vs).is_some() {
                return Err(TopologyError::DuplicateColor { color });
            }
        }
        Ok(Pseudosphere { views })
    }

    /// The colors with at least one admissible view (the `n` of
    /// Lemma 4.7).
    pub fn active_colors(&self) -> Vec<usize> {
        self.views
            .iter()
            .filter(|(_, vs)| !vs.is_empty())
            .map(|(&c, _)| c)
            .collect()
    }

    /// The admissible views of a color (empty slice if the color is
    /// unknown).
    pub fn views_of(&self, color: usize) -> &[V] {
        self.views.get(&color).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Number of facets `Π_{V_i ≠ ∅} |V_i|` (0 when no active colors),
    /// saturating.
    pub fn facet_count(&self) -> u128 {
        let active: Vec<_> = self.active_colors();
        if active.is_empty() {
            return 0;
        }
        let mut acc: u128 = 1;
        for c in active {
            acc = acc.saturating_mul(self.views_of(c).len() as u128);
        }
        acc
    }

    /// Component-wise intersection (Lemma 4.6):
    /// `φ(Π; U_i) ∩ φ(Π; V_i) = φ(Π; U_i ∩ V_i)`.
    ///
    /// Colors missing from either side get the empty view set.
    pub fn intersect(&self, other: &Pseudosphere<V>) -> Pseudosphere<V> {
        let mut views = BTreeMap::new();
        for (&c, mine) in &self.views {
            let theirs = other.views_of(c);
            let common: Vec<V> = mine
                .iter()
                .filter(|v| theirs.binary_search(v).is_ok())
                .cloned()
                .collect();
            views.insert(c, common);
        }
        for &c in other.views.keys() {
            views.entry(c).or_insert_with(Vec::new);
        }
        Pseudosphere { views }
    }

    /// Materializes the pseudosphere as an explicit facet complex.
    ///
    /// # Panics
    ///
    /// Panics if the facet count exceeds [`DEFAULT_FACET_LIMIT`]; use
    /// [`Pseudosphere::try_to_complex`] to handle the budget gracefully.
    pub fn to_complex(&self) -> Complex<V> {
        self.try_to_complex(DEFAULT_FACET_LIMIT)
            .expect("pseudosphere exceeds the default facet limit")
    }

    /// Materializes the pseudosphere as an explicit facet complex, bounded
    /// by `limit` facets: one odometer step per facet over the active
    /// colors' view lists.
    ///
    /// # Errors
    ///
    /// [`TopologyError::TooLarge`] when the facet count exceeds `limit`.
    pub fn try_to_complex(&self, limit: u128) -> Result<Complex<V>, TopologyError> {
        let count = self.facet_count();
        if count > limit {
            return Err(TopologyError::TooLarge {
                what: "pseudosphere facets",
                estimated: count,
                limit,
            });
        }
        let active = self.active_colors();
        if active.is_empty() {
            return Ok(Complex::void());
        }
        let lists: Vec<&[V]> = active.iter().map(|&c| self.views_of(c)).collect();
        ksa_obs::count(ksa_obs::Counter::FacetsEnumerated, count as u64);

        // Odometer over the active colors' view lists.
        let mut idx = vec![0usize; active.len()];
        let mut facets = Vec::with_capacity(count as usize);
        loop {
            let verts: Vec<Vertex<V>> = (0..active.len())
                .map(|j| Vertex::new(active[j], lists[j][idx[j]].clone()))
                .collect();
            facets.push(Simplex::new(verts).expect("distinct colors by construction"));
            // Advance the odometer.
            let mut pos = 0;
            loop {
                if pos == active.len() {
                    return Ok(Complex::from_facets(facets));
                }
                idx[pos] += 1;
                if idx[pos] < lists[pos].len() {
                    break;
                }
                idx[pos] = 0;
                pos += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::{homological_connectivity, is_k_connected};

    fn ps(entries: Vec<(usize, Vec<u32>)>) -> Pseudosphere<u32> {
        Pseudosphere::new(entries).unwrap()
    }

    #[test]
    fn construction_dedups_and_rejects_duplicates() {
        let p = ps(vec![(0, vec![2, 1, 2]), (1, vec![5])]);
        assert_eq!(p.views_of(0), &[1, 2]);
        assert_eq!(p.views_of(7), &[] as &[u32]);
        assert!(Pseudosphere::new(vec![(0, vec![1u32]), (0, vec![2])]).is_err());
    }

    #[test]
    fn figure_3_pseudosphere() {
        // φ(P1,P2,P3; {v1,v2},{v1,v2},{v}): 2·2·1 = 4 facets.
        let p = ps(vec![(0, vec![1, 2]), (1, vec![1, 2]), (2, vec![7])]);
        assert_eq!(p.facet_count(), 4);
        let c = p.to_complex();
        assert_eq!(c.facet_count(), 4);
        assert_eq!(c.dim(), 2);
        assert!(c.is_pure());
        // Lemma 4.7: (3 − 2) = 1-connected.
        assert!(is_k_connected(&c, 1));
    }

    #[test]
    fn binary_views_give_spheres() {
        // φ with V_i = {0, 1} for m colors is (combinatorially) the
        // boundary of a cross-polytope: an (m−1)-sphere, so exactly
        // (m−2)-connected.
        for m in 2..5 {
            let p = Pseudosphere::new((0..m).map(|c| (c, vec![0u32, 1])).collect()).unwrap();
            let c = p.to_complex();
            assert_eq!(homological_connectivity(&c), m as isize - 2, "m = {m}");
        }
    }

    #[test]
    fn single_views_give_full_simplex() {
        let p = ps(vec![(0, vec![1]), (1, vec![1]), (2, vec![1])]);
        let c = p.to_complex();
        assert_eq!(c.facet_count(), 1);
        assert!(is_k_connected(&c, 2));
    }

    #[test]
    fn empty_color_is_skipped() {
        let p = ps(vec![(0, vec![1, 2]), (1, vec![]), (2, vec![3])]);
        assert_eq!(p.active_colors(), vec![0, 2]);
        assert_eq!(p.facet_count(), 2);
        let c = p.to_complex();
        assert_eq!(c.dim(), 1);
    }

    #[test]
    fn all_empty_is_void() {
        let p = ps(vec![(0, vec![]), (1, vec![])]);
        assert_eq!(p.facet_count(), 0);
        assert!(p.to_complex().is_void());
    }

    #[test]
    fn lemma_4_6_intersection() {
        let a = ps(vec![(0, vec![1, 2, 3]), (1, vec![1, 2])]);
        let b = ps(vec![(0, vec![2, 3, 4]), (1, vec![2, 9])]);
        let i = a.intersect(&b);
        assert_eq!(i.views_of(0), &[2, 3]);
        assert_eq!(i.views_of(1), &[2]);
        // The complex of the intersection equals the intersection of the
        // complexes.
        let direct = a.to_complex().intersection(&b.to_complex());
        assert_eq!(i.to_complex(), direct);
    }

    #[test]
    fn lemma_4_6_with_disjoint_views() {
        let a = ps(vec![(0, vec![1]), (1, vec![1, 2])]);
        let b = ps(vec![(0, vec![2]), (1, vec![2, 3])]);
        let i = a.intersect(&b);
        assert_eq!(i.views_of(0), &[] as &[u32]);
        assert_eq!(i.views_of(1), &[2]);
        // Color 0 drops out; the intersection complex is the vertex (1,2).
        let c = i.to_complex();
        assert_eq!(c.dim(), 0);
        assert_eq!(c.facet_count(), 1);
        assert_eq!(c, a.to_complex().intersection(&b.to_complex()));
    }

    #[test]
    fn facet_budget_respected() {
        let p = Pseudosphere::new((0..10).map(|c| (c, (0u32..10).collect())).collect()).unwrap();
        assert_eq!(p.facet_count(), 10_000_000_000);
        assert!(p.try_to_complex(1000).is_err());
    }

    #[test]
    fn connectivity_depends_on_active_colors() {
        // Lemma 4.7 counts only non-empty colors.
        let p = ps(vec![
            (0, vec![0, 1]),
            (1, vec![0, 1]),
            (2, vec![]),
            (3, vec![0, 1]),
        ]);
        let c = p.to_complex();
        // 3 active colors → (3−2) = 1-connected exactly (cross-polytope
        // boundary on 3 colors is a 2-sphere... no: views {0,1} per color
        // on 3 colors gives an octahedron boundary, a 2-sphere, which is
        // exactly 1-connected).
        assert_eq!(homological_connectivity(&c), 1);
    }
}
