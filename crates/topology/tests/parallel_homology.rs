//! The homology pipeline against its engine-free oracles.
//!
//! Every topology result — Betti numbers, materialized complexes, nerves
//! — must be **bit-identical** to an independent reference (DESIGN.md
//! §4): `reduced_betti_numbers_seq` for the chain engine, and
//! brute-force constructions for pseudospheres and nerves.
//!
//! (The CI determinism job covers thread-count independence end-to-end
//! by diffing `experiments --json` payloads across `KSA_THREADS`.)

use ksa_topology::complex::Complex;
use ksa_topology::homology::{component_count, reduced_betti_numbers, reduced_betti_numbers_seq};
use ksa_topology::nerve::nerve_complex;
use ksa_topology::pseudosphere::Pseudosphere;
use ksa_topology::simplex::{Simplex, Vertex};
use proptest::prelude::*;

/// Strategy: a small complex over colors 0..5 with u8 views.
fn small_complex() -> impl Strategy<Value = Complex<u8>> {
    let simplex = prop::collection::btree_map(0usize..5, 0u8..3, 1..=4).prop_map(|m| {
        Simplex::new(m.into_iter().map(|(c, v)| Vertex::new(c, v)).collect())
            .expect("btree keys are distinct colors")
    });
    prop::collection::vec(simplex, 1..6).prop_map(Complex::from_facets)
}

/// The m-color binary-view pseudosphere (an (m−1)-cross-polytope
/// boundary, i.e. an (m−1)-sphere).
fn binary_pseudosphere(m: usize) -> Complex<u8> {
    Pseudosphere::new((0..m).map(|c| (c, vec![0u8, 1])).collect())
        .expect("distinct colors")
        .to_complex()
}

/// The nerve by brute force: every index set whose members' common
/// intersection is non-void spans a simplex.
fn nerve_by_subsets<V: ksa_topology::simplex::View>(cover: &[Complex<V>]) -> Complex<()> {
    Complex::from_facets((1u32..1 << cover.len()).filter_map(|mask| {
        let members: Vec<usize> = (0..cover.len()).filter(|i| mask >> i & 1 == 1).collect();
        let common = members[1..]
            .iter()
            .fold(cover[members[0]].clone(), |acc, &i| {
                acc.intersection(&cover[i])
            });
        (!common.is_void()).then(|| {
            Simplex::new(members.into_iter().map(|i| Vertex::new(i, ())).collect())
                .expect("distinct indices")
        })
    }))
}

/// The pseudosphere by brute force: the product of the view lists, one
/// facet per choice of a view for every color.
fn pseudosphere_by_product(views: &[Vec<u8>]) -> Complex<u8> {
    let mut facets: Vec<Vec<Vertex<u8>>> = vec![Vec::new()];
    for (c, vs) in views.iter().enumerate() {
        facets = facets
            .into_iter()
            .flat_map(|f| {
                vs.iter().map(move |&v| {
                    let mut g = f.clone();
                    g.push(Vertex::new(c, v));
                    g
                })
            })
            .collect();
    }
    Complex::from_facets(
        facets
            .into_iter()
            .map(|f| Simplex::new(f).expect("distinct colors")),
    )
}

#[test]
fn sphere_betti_matches_the_oracle() {
    let c = binary_pseudosphere(7);
    let seq = reduced_betti_numbers_seq(&c);
    // S^6: one 6-dimensional hole, nothing below.
    assert_eq!(seq, vec![0, 0, 0, 0, 0, 0, 1]);
    assert_eq!(reduced_betti_numbers(&c), seq);
}

#[test]
fn nerve_matches_the_brute_force_nerve() {
    // A path of six edges: consecutive members meet, others do not.
    let cover: Vec<Complex<u8>> = (0..6)
        .map(|i| {
            Complex::of_simplex(
                Simplex::new(vec![Vertex::new(i, 0u8), Vertex::new(i + 1, 0)])
                    .expect("distinct colors"),
            )
        })
        .collect();
    let nerve = nerve_complex(&cover);
    assert_eq!(nerve, nerve_by_subsets(&cover));
    assert_eq!(nerve.facets().count(), 5);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn betti_numbers_match_the_oracle(c in small_complex()) {
        let reference = reduced_betti_numbers_seq(&c);
        prop_assert_eq!(reduced_betti_numbers(&c), reference.clone());
        // And b̃_0 stays consistent with the exact component count.
        prop_assert_eq!(reference[0] + 1, component_count(&c));
    }

    #[test]
    fn pseudosphere_materialization_matches_the_product(
        views in prop::collection::vec(prop::collection::btree_set(0u8..4, 1..4), 2..6),
    ) {
        let views: Vec<Vec<u8>> = views.into_iter().map(|vs| vs.into_iter().collect()).collect();
        let ps = Pseudosphere::new(views.iter().cloned().enumerate().collect())
            .expect("distinct colors");
        prop_assert_eq!(ps.to_complex(), pseudosphere_by_product(&views));
    }
}
