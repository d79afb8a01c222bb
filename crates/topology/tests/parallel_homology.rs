//! Parallel-vs-sequential determinism for the homology pipeline.
//!
//! The determinism contract (DESIGN.md §4) is that every topology
//! result — Betti numbers, materialized complexes — is **bit-identical**
//! to the sequential reference at any pool size.
//! These tests pin that contract at pool sizes 1, 2 and 8: size 1 runs
//! every engine fast path inline, size 2 exercises stealing, size 8
//! oversubscribes the CI machine so task interleavings actually vary.
//!
//! (The CI determinism job covers the same contract end-to-end by
//! diffing `experiments --json` payloads across `KSA_THREADS`.)

use ksa_exec::ThreadPool;
use ksa_topology::complex::Complex;
use ksa_topology::homology::{component_count, reduced_betti_numbers, reduced_betti_numbers_seq};
use ksa_topology::nerve::nerve_complex;
use ksa_topology::pseudosphere::Pseudosphere;
use ksa_topology::simplex::{Simplex, Vertex};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The shared pools (1/2/8 workers), started once for the whole test
/// binary so proptest cases don't churn threads.
fn pools() -> &'static [ThreadPool] {
    static POOLS: OnceLock<Vec<ThreadPool>> = OnceLock::new();
    POOLS.get_or_init(|| [1, 2, 8].into_iter().map(ThreadPool::new).collect())
}

/// Strategy: a small complex over colors 0..5 with u8 views.
fn small_complex() -> impl Strategy<Value = Complex<u8>> {
    let simplex = prop::collection::btree_map(0usize..5, 0u8..3, 1..=4).prop_map(|m| {
        Simplex::new(m.into_iter().map(|(c, v)| Vertex::new(c, v)).collect())
            .expect("btree keys are distinct colors")
    });
    prop::collection::vec(simplex, 1..6).prop_map(Complex::from_facets)
}

/// The m-color binary-view pseudosphere (an (m−1)-cross-polytope
/// boundary, i.e. an (m−1)-sphere) — big enough that the parallel facet
/// materialization and face closure cross their grains.
fn binary_pseudosphere(m: usize) -> Complex<u8> {
    Pseudosphere::new((0..m).map(|c| (c, vec![0u8, 1])).collect())
        .expect("distinct colors")
        .to_complex()
}

#[test]
fn sphere_betti_identical_across_pool_sizes() {
    let seq = {
        let c = binary_pseudosphere(7);
        reduced_betti_numbers_seq(&c)
    };
    // S^6: one 6-dimensional hole, nothing below.
    assert_eq!(seq, vec![0, 0, 0, 0, 0, 0, 1]);
    for pool in pools() {
        let par = pool.install(|| {
            let c = binary_pseudosphere(7);
            reduced_betti_numbers(&c)
        });
        assert_eq!(par, seq, "pool size {}", pool.num_threads());
    }
}

#[test]
fn nerve_identical_across_pool_sizes() {
    // A cover with enough members to cross the frontier grain.
    let cover: Vec<Complex<u8>> = (0..6)
        .map(|i| {
            Complex::of_simplex(
                Simplex::new(vec![Vertex::new(i, 0u8), Vertex::new(i + 1, 0)])
                    .expect("distinct colors"),
            )
        })
        .collect();
    let seq = nerve_complex(&cover);
    for pool in pools() {
        let par = pool.install(|| nerve_complex(&cover));
        assert_eq!(par, seq, "pool size {}", pool.num_threads());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn betti_numbers_identical_across_pool_sizes(c in small_complex()) {
        let reference = reduced_betti_numbers_seq(&c);
        for pool in pools() {
            let par = pool.install(|| reduced_betti_numbers(&c));
            prop_assert_eq!(&par, &reference, "pool size {}", pool.num_threads());
        }
        // And b̃_0 stays consistent with the exact component count.
        prop_assert_eq!(reference[0] + 1, component_count(&c));
    }

    #[test]
    fn pseudosphere_materialization_identical_across_pool_sizes(
        views in prop::collection::vec(prop::collection::btree_set(0u8..4, 1..4), 2..6),
    ) {
        let ps = Pseudosphere::new(
            views
                .iter()
                .enumerate()
                .map(|(c, vs)| (c, vs.iter().copied().collect::<Vec<u8>>()))
                .collect(),
        )
        .expect("distinct colors");
        let seq = ps.to_complex();
        for pool in pools() {
            let par = pool.install(|| ps.to_complex());
            prop_assert_eq!(&par, &seq, "pool size {}", pool.num_threads());
        }
    }
}
