//! Property-based tests for the topology substrate.

use ksa_graphs::Digraph;
use ksa_topology::complex::Complex;
use ksa_topology::connectivity::{homological_connectivity, is_k_connected};
use ksa_topology::homology::{component_count, reduced_betti_numbers};
use ksa_topology::interpretation::{interpret_simplex, interpreted_pseudosphere};
use ksa_topology::pseudosphere::Pseudosphere;
use ksa_topology::simplex::{Simplex, Vertex};
use ksa_topology::uninterpreted::{closed_above_pseudosphere, uninterpreted_simplex};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy: a small complex over colors 0..5 with u8 views.
fn small_complex() -> impl Strategy<Value = Complex<u8>> {
    let vertex = (0usize..5, 0u8..3).prop_map(|(c, v)| Vertex::new(c, v));
    let simplex = prop::collection::btree_map(0usize..5, 0u8..3, 1..=4).prop_map(|m| {
        Simplex::new(m.into_iter().map(|(c, v)| Vertex::new(c, v)).collect())
            .expect("btree keys are distinct colors")
    });
    let _ = vertex;
    prop::collection::vec(simplex, 1..6).prop_map(Complex::from_facets)
}

/// Strategy: a multiset of candidate facets over colors 0..5 with u8
/// views — lengths 0–4 (empty simplexes included), duplicates, faces of
/// other candidates, and half the time all of one length (pure).
fn candidate_facets() -> impl Strategy<Value = Vec<Simplex<u8>>> {
    (any::<bool>(), 0usize..=4).prop_flat_map(|(pure, len)| {
        let size: prop::collection::SizeRange = if pure { len.into() } else { (0..=4).into() };
        let simplex = prop::collection::btree_map(0usize..5, 0u8..3, size).prop_map(|m| {
            Simplex::new(m.into_iter().map(|(c, v)| Vertex::new(c, v)).collect())
                .expect("btree keys are distinct colors")
        });
        prop::collection::vec(simplex, 0..10).prop_perturb(move |base, mut rng| {
            let mut cands = base.clone();
            for s in &base {
                if rng.below(3) == 0 {
                    cands.push(s.clone());
                }
                if !pure && rng.below(2) == 0 {
                    let colors: Vec<usize> = s.colors().filter(|_| rng.below(2) == 0).collect();
                    cands.push(s.restrict_colors(&colors));
                }
            }
            for i in (1..cands.len()).rev() {
                cands.swap(i, rng.below(i as u64 + 1) as usize);
            }
            cands
        })
    })
}

/// The naive all-pairs maximal filter: the sequential oracle of
/// `Complex::from_facets`. A non-empty candidate is a facet iff no
/// distinct candidate contains it.
fn maximal_oracle(cands: &[Simplex<u8>]) -> BTreeSet<Simplex<u8>> {
    cands
        .iter()
        .filter(|s| !s.is_empty() && !cands.iter().any(|t| t != *s && t.contains(s)))
        .cloned()
        .collect()
}

fn small_digraph() -> impl Strategy<Value = Digraph> {
    (2usize..=4).prop_flat_map(|n| {
        prop::collection::vec(any::<bool>(), n * n).prop_map(move |edges| {
            let mut g = Digraph::empty(n).expect("valid n");
            for u in 0..n {
                for v in 0..n {
                    if u != v && edges[u * n + v] {
                        g.add_edge(u, v).expect("in range");
                    }
                }
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn facets_are_maximal(c in small_complex()) {
        let facets: Vec<_> = c.facets().cloned().collect();
        for (i, a) in facets.iter().enumerate() {
            for (j, b) in facets.iter().enumerate() {
                if i != j {
                    prop_assert!(!a.contains(b));
                }
            }
        }
    }

    #[test]
    fn union_is_commutative_and_contains_parts(a in small_complex(), b in small_complex()) {
        let u1 = a.union(&b);
        let u2 = b.union(&a);
        prop_assert_eq!(&u1, &u2);
        for f in a.facets() {
            prop_assert!(u1.contains_simplex(f));
        }
    }

    #[test]
    fn intersection_is_commutative_and_contained(a in small_complex(), b in small_complex()) {
        let i1 = a.intersection(&b);
        let i2 = b.intersection(&a);
        prop_assert_eq!(&i1, &i2);
        for f in i1.facets() {
            prop_assert!(a.contains_simplex(f));
            prop_assert!(b.contains_simplex(f));
        }
    }

    #[test]
    fn intersection_union_absorption(a in small_complex(), b in small_complex()) {
        // a ∩ (a ∪ b) = a.
        let u = a.union(&b);
        prop_assert_eq!(a.intersection(&u), a);
    }

    #[test]
    fn euler_characteristic_is_alternating_betti_sum(c in small_complex()) {
        let betti = reduced_betti_numbers(&c);
        let chi: i64 = 1 + betti
            .iter()
            .enumerate()
            .map(|(k, &b)| if k % 2 == 0 { b as i64 } else { -(b as i64) })
            .sum::<i64>();
        prop_assert_eq!(c.euler_characteristic(), chi);
    }

    #[test]
    fn b0_matches_component_count(c in small_complex()) {
        let betti = reduced_betti_numbers(&c);
        prop_assert_eq!(betti[0] + 1, component_count(&c));
    }

    #[test]
    fn skeleton_reduces_dimension(c in small_complex()) {
        for k in 0..=c.dim() {
            let sk = c.skeleton(k);
            prop_assert!(sk.dim() <= k);
            // All k-or-lower simplexes survive.
            for s in c.all_simplexes() {
                if s.dim() <= k {
                    prop_assert!(sk.contains_simplex(&s));
                }
            }
        }
    }

    #[test]
    fn pseudosphere_intersection_lemma_4_6(
        views_a in prop::collection::vec(prop::collection::btree_set(0u8..4, 0..3), 3),
        views_b in prop::collection::vec(prop::collection::btree_set(0u8..4, 0..3), 3),
    ) {
        let mk = |views: &[std::collections::BTreeSet<u8>]| {
            Pseudosphere::new(
                views
                    .iter()
                    .enumerate()
                    .map(|(c, vs)| (c, vs.iter().copied().collect::<Vec<u8>>()))
                    .collect(),
            )
            .expect("distinct colors")
        };
        let a = mk(&views_a);
        let b = mk(&views_b);
        let lhs = a.to_complex().intersection(&b.to_complex());
        let rhs = a.intersect(&b).to_complex();
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn pseudosphere_connectivity_lemma_4_7(
        views in prop::collection::vec(prop::collection::btree_set(0u8..3, 1..3), 2..4),
    ) {
        // A pseudosphere with m non-empty colors is (m−2)-connected.
        let ps = Pseudosphere::new(
            views
                .iter()
                .enumerate()
                .map(|(c, vs)| (c, vs.iter().copied().collect::<Vec<u8>>()))
                .collect(),
        )
        .expect("distinct colors");
        let m = ps.active_colors().len() as isize;
        let c = ps.to_complex();
        prop_assert!(is_k_connected(&c, m - 2));
    }

    #[test]
    fn uninterpreted_closed_above_is_n_minus_2_connected(g in small_digraph()) {
        // Cor 4.9 on random generators.
        let c = closed_above_pseudosphere(&g).to_complex();
        prop_assert!(is_k_connected(&c, g.n() as isize - 2));
    }

    #[test]
    fn interpretation_preserves_colors(g in small_digraph()) {
        let sigma = uninterpreted_simplex(&g);
        let tau = Simplex::new(
            (0..g.n()).map(|p| Vertex::new(p, p as u32 * 10)).collect(),
        ).expect("distinct");
        let s = interpret_simplex(&sigma, &tau);
        prop_assert_eq!(
            s.colors().collect::<Vec<_>>(),
            (0..g.n()).collect::<Vec<_>>()
        );
        // Every process's flat view contains its own input (self-loops).
        for p in 0..g.n() {
            let view = s.view_of(p).expect("present");
            prop_assert!(view.contains(&(p, p as u32 * 10)));
        }
    }

    #[test]
    fn interpreted_pseudosphere_still_highly_connected(g in small_digraph()) {
        // Interpreting ↑g over a single input facet is still a
        // pseudosphere, hence (n−2)-connected.
        let tau = Simplex::new(
            (0..g.n()).map(|p| Vertex::new(p, p as u32)).collect(),
        ).expect("distinct");
        let c = interpreted_pseudosphere(&g, &tau).to_complex();
        prop_assert!(homological_connectivity(&c) >= g.n() as isize - 2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn from_facets_matches_all_pairs_oracle(cands in candidate_facets()) {
        let c = Complex::from_facets(cands.clone());
        let facets: BTreeSet<Simplex<u8>> = c.facets().cloned().collect();
        prop_assert_eq!(facets, maximal_oracle(&cands));
        prop_assert_eq!(Complex::from_facets(c.facets().cloned()), c);
    }
}
