//! Proptests pinning the **deterministic tier** of the `ksa-obs`
//! instrumentation (DESIGN.md §9): the work counters advance by deltas
//! that are functions of the workload — the sizes of the face closure,
//! the boundary matrices, the pseudosphere products and the view tables
//! — and add up exactly when copies of a workload run side by side.
//!
//! The perf tier (spawns, deadline trips) is deliberately *not*
//! compared — it is scheduling-dependent by design; only the namespace
//! split makes the deterministic diff meaningful.
//!
//! The counters are process-global, so every test takes a
//! test-binary-wide lock before any setup that could count (building an
//! input complex enumerates facets too): a concurrent test's counts
//! bleeding into a delta would be indistinguishable from a real
//! determinism bug.

use ksa_exec::{map_in_order, ThreadPool};
use ksa_graphs::Digraph;
use ksa_topology::chain::{reduced_betti_certified, ChainComplex};
use ksa_topology::complex::Complex;
use ksa_topology::connectivity::{connectivity, connectivity_seq};
use ksa_topology::homology::{reduced_betti_numbers, reduced_betti_numbers_seq};
use ksa_topology::interpretation::interpreted_pseudosphere;
use ksa_topology::nerve::nerve_complex;
use ksa_topology::pseudosphere::Pseudosphere;
use ksa_topology::rounds::protocol_complex_rounds;
use ksa_topology::simplex::{Simplex, Vertex};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, PoisonError};

const BUDGET: u128 = 10_000_000;

/// Serializes whole tests (see module docs). The guarded data is `()`,
/// so a guard poisoned by one failing case is recovered rather than
/// failing every test after it.
fn counter_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The deterministic-tier delta produced by `work`.
fn det_delta(work: impl FnOnce()) -> Vec<(&'static str, u64)> {
    let before = ksa_obs::snapshot();
    work();
    ksa_obs::snapshot().det_delta(&before)
}

/// Strategy: a small complex over colors 0..5 with u8 views.
fn small_complex() -> impl Strategy<Value = Complex<u8>> {
    let simplex = prop::collection::btree_map(0usize..5, 0u8..3, 1..=4).prop_map(|m| {
        Simplex::new(m.into_iter().map(|(c, v)| Vertex::new(c, v)).collect())
            .expect("btree keys are distinct colors")
    });
    prop::collection::vec(simplex, 1..6).prop_map(Complex::from_facets)
}

/// Strategy: up to two generator digraphs on 3 processes.
fn random_generators() -> impl Strategy<Value = Vec<Digraph>> {
    let graph = prop::collection::btree_set((0usize..3, 0usize..3), 0..7)
        .prop_map(|edges| Digraph::from_edges(3, &edges.into_iter().collect::<Vec<_>>()).unwrap());
    prop::collection::vec(graph, 1..=2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Homology through the chain engine counts the boundary work the
    /// independent face closure predicts: every face once, one row per
    /// face of dimension ≥ 1 with `k + 1` entries per `k`-face, and one
    /// rank per boundary operator. (The `_seq` references are a
    /// *different algorithm* — dense scalar GF(2) with its own counting
    /// sites — so they pin verdicts, not counters.)
    #[test]
    fn homology_counters_match_the_face_closure(c in small_complex()) {
        let _guard = counter_lock();
        let delta = det_delta(|| {
            reduced_betti_numbers(&c);
        });
        let faces = c.all_simplexes();
        let rows = faces.iter().filter(|s| s.dim() >= 1).count() as u64;
        let nnz: u64 = faces.iter().filter(|s| s.dim() >= 1).map(|s| s.dim() as u64 + 1).sum();
        let nonzero: Vec<(&str, u64)> = delta.into_iter().filter(|&(_, v)| v != 0).collect();
        let expected: Vec<(&str, u64)> = [
            ("faces_closed", faces.len() as u64),
            ("boundary_rows", rows),
            ("boundary_nnz", nnz),
            ("ranks_computed", c.dim() as u64),
        ]
        .into_iter()
        .filter(|&(_, v)| v != 0)
        .collect();
        prop_assert_eq!(nonzero, expected);
        // The different algorithm still reaches the same verdicts.
        let seq = (reduced_betti_numbers_seq(&c), connectivity_seq(&c));
        prop_assert_eq!(seq.0, reduced_betti_numbers(&c));
        prop_assert_eq!(seq.1, connectivity(&c));
    }

    /// The top-down closure counts every simplex it closes exactly once:
    /// `FacesClosed` advances by the size of the independent
    /// `Complex::all_simplexes`.
    #[test]
    fn faces_closed_counts_all_simplexes(c in small_complex()) {
        let _guard = counter_lock();
        let delta = det_delta(|| {
            ChainComplex::from_complex(&c);
        });
        let closed = delta.iter().find(|&&(name, _)| name == "faces_closed").map(|&(_, v)| v);
        prop_assert_eq!(closed, Some(c.all_simplexes().len() as u64));
    }

    /// The certified path skips exactly the rows the basis one
    /// dimension up leads with: `boundary_rows_cleared` advances by
    /// `Σ_{k≥2} rank ∂_k` per certified complex.
    #[test]
    fn certified_rows_cleared_is_the_rank_above(c in small_complex()) {
        let _guard = counter_lock();
        let mut certified = None;
        let delta = det_delta(|| {
            certified = reduced_betti_certified(&c, "small");
        });
        let (_, cert) = certified.expect("nonvoid complex");
        let above: u64 = cert.ranks.iter().skip(1).map(|w| u64::from(w.rank)).sum();
        let cleared = delta
            .iter()
            .find(|&&(name, _)| name == "boundary_rows_cleared")
            .map(|&(_, v)| v);
        prop_assert_eq!(cleared, Some(above));
    }

    /// Pseudosphere materialization + nerve expansion: the facet
    /// enumeration counter advances by the pseudosphere's product size
    /// plus the nerve's two candidate index sets, `{0, 1}` and `{1}`.
    #[test]
    fn enumeration_counters_match_the_facet_counts(
        views in prop::collection::vec(prop::collection::btree_set(0u32..4, 1..=3), 3..=4),
    ) {
        let _guard = counter_lock();
        let ps = Pseudosphere::new(
            views
                .into_iter()
                .enumerate()
                .map(|(p, vs)| (p, vs.into_iter().collect()))
                .collect(),
        )
        .unwrap();
        let delta = det_delta(|| {
            let c = ps.to_complex();
            nerve_complex(&[c.clone(), c]);
        });
        let enumerated = delta
            .iter()
            .find(|&&(name, _)| name == "facets_enumerated")
            .map(|&(_, v)| u128::from(v));
        prop_assert_eq!(enumerated, Some(ps.facet_count() + 2));
    }

    /// The multi-round pipeline (view interning, facet materialization,
    /// budget admissions): the view and facet counters are the table
    /// sizes and the round products.
    #[test]
    fn rounds_counters_match_the_round_products(gens in random_generators()) {
        let _guard = counter_lock();
        let input = Pseudosphere::new((0..3).map(|p| (p, vec![0u32, 1])).collect())
            .unwrap()
            .to_complex();
        let mut rc = None;
        let reference = det_delta(|| {
            rc = Some(protocol_complex_rounds(&gens, &input, 2, BUDGET).unwrap());
        });
        let rc = rc.unwrap();
        let counter = |name: &str| {
            reference.iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v)
        };
        prop_assert_eq!(counter("views_interned"), rc.interned_view_count() as u64);
        // A round's product: its interpreted pseudospheres' sizes over
        // (previous facet × generator).
        let product = |prev: &Complex<u32>| -> u128 {
            prev.facets()
                .flat_map(|tau| gens.iter().map(move |g| interpreted_pseudosphere(g, tau)))
                .map(|ps| ps.facet_count())
                .sum()
        };
        let products = product(&input) + product(rc.complex_at(1).unwrap());
        prop_assert_eq!(u128::from(counter("facets_enumerated")), products);
    }
}

/// Repetition on one fan-out: four copies of a workload run side by side
/// on scoped workers count exactly four times what one run counts, so
/// counts made on worker threads are neither lost nor double-merged.
#[test]
fn repeated_runs_on_one_pool_are_stable() {
    let _guard = counter_lock();
    let gens = vec![ksa_graphs::families::cycle(3).unwrap()];
    let input = Pseudosphere::new((0..3).map(|p| (p, vec![0u32, 1])).collect())
        .unwrap()
        .to_complex();
    let run = || {
        let rc = protocol_complex_rounds(&gens, &input, 2, BUDGET).unwrap();
        connectivity(rc.complexes().last().unwrap());
    };
    let once = det_delta(run);
    let copies: Vec<usize> = (0..4).collect();
    let four = det_delta(|| {
        ThreadPool::new(4).install(|| map_in_order(&copies, |_| run()));
    });
    let expected: Vec<(&str, u64)> = once.iter().map(|&(name, v)| (name, 4 * v)).collect();
    assert_eq!(
        four, expected,
        "deterministic tier unstable across side-by-side runs"
    );
}

/// `∂_1` is ranked by union-find, yet it counts as its assembled
/// incidence rows would: on the boundary of the tetrahedron the closure
/// has 4 + 6 + 4 faces, `∂_1` and `∂_2` have 6 + 4 rows with 12 + 12
/// entries, and two ranks are computed.
#[test]
fn sphere_betti_counts_its_boundary_work() {
    let _guard = counter_lock();
    let tet = Simplex::new((0..4).map(|c| Vertex::new(c, 0u8)).collect()).unwrap();
    let c = Complex::boundary_of(&tet);
    let delta = det_delta(|| {
        assert_eq!(
            ChainComplex::from_complex(&c).reduced_betti(),
            vec![0, 0, 1]
        );
    });
    let nonzero: Vec<(&str, u64)> = delta.into_iter().filter(|&(_, v)| v != 0).collect();
    assert_eq!(
        nonzero,
        vec![
            ("faces_closed", 14),
            ("boundary_rows", 10),
            ("boundary_nnz", 24),
            ("ranks_computed", 2),
        ]
    );
}

/// The same pin on the `rounds` complexes through round 2, and on the
/// 2-sphere, where rank ∂_2 = 3 of the 6 edge rows are cleared.
#[test]
fn certified_rounds_complexes_clear_the_rank_above() {
    let _guard = counter_lock();
    let tet = Simplex::new((0..4).map(|c| Vertex::new(c, 0u8)).collect()).unwrap();
    let delta = det_delta(|| {
        reduced_betti_certified(&Complex::boundary_of(&tet), "sphere");
    });
    assert!(delta.contains(&("boundary_rows_cleared", 3)), "{delta:?}");
    let input = Pseudosphere::new((0..3).map(|p| (p, vec![0u32, 1])).collect())
        .unwrap()
        .to_complex();
    for gens in [
        vec![ksa_graphs::families::cycle(3).unwrap()],
        vec![ksa_graphs::families::broadcast_star(3, 0).unwrap()],
    ] {
        let rc = protocol_complex_rounds(&gens, &input, 2, BUDGET).unwrap();
        for complex in rc.complexes() {
            let mut certified = None;
            let delta = det_delta(|| certified = reduced_betti_certified(complex, "round"));
            let (_, cert) = certified.expect("nonvoid complex");
            let above: u64 = cert.ranks.iter().skip(1).map(|w| u64::from(w.rank)).sum();
            assert!(above > 0);
            assert!(
                delta.contains(&("boundary_rows_cleared", above)),
                "{delta:?}"
            );
        }
    }
}
