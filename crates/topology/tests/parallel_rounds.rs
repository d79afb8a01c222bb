//! Parallel-vs-sequential determinism for the multi-round pipeline.
//!
//! Extends the `parallel_homology` pattern to `ksa_topology::rounds`:
//! the whole [`RoundsComplex`] — every round's interned complex *and*
//! every round's view table, ids included — must be bit-identical
//! between [`protocol_complex_rounds`] on pools of size 1, 2 and 8 and
//! the public sequential reference (DESIGN.md §4, §6). Size 1 runs the
//! engine's inline fast paths, size 2 exercises stealing, size 8
//! oversubscribes the CI machine so interleavings actually vary.
//!
//! The repeated-run check mirrors what `KSA_THREADS=8` CI runs see: the
//! same oversubscribed pool, invoked repeatedly, must keep producing
//! the same value even as steal races land differently.

use ksa_exec::ThreadPool;
use ksa_graphs::Digraph;
use ksa_topology::complex::Complex;
use ksa_topology::pseudosphere::Pseudosphere;
use ksa_topology::rounds::{protocol_complex_rounds, protocol_complex_rounds_seq, RoundsComplex};
use proptest::prelude::*;
use std::sync::OnceLock;

const BUDGET: u128 = 10_000_000;

/// The shared pools (1/2/8 workers), started once for the whole test
/// binary so proptest cases don't churn threads.
fn pools() -> &'static [ThreadPool] {
    static POOLS: OnceLock<Vec<ThreadPool>> = OnceLock::new();
    POOLS.get_or_init(|| [1, 2, 8].into_iter().map(ThreadPool::new).collect())
}

fn random_generators() -> impl Strategy<Value = Vec<Digraph>> {
    let graph = prop::collection::btree_set((0usize..3, 0usize..3), 0..7)
        .prop_map(|edges| Digraph::from_edges(3, &edges.into_iter().collect::<Vec<_>>()).unwrap());
    prop::collection::vec(graph, 1..=2)
}

fn random_input() -> impl Strategy<Value = Complex<u32>> {
    prop::collection::vec(prop::collection::btree_set(0u32..3, 1..=2), 3..=3).prop_map(|views| {
        Pseudosphere::new(
            views
                .into_iter()
                .enumerate()
                .map(|(p, vs)| (p, vs.into_iter().collect()))
                .collect(),
        )
        .unwrap()
        .to_complex()
    })
}

#[test]
fn two_round_ring_identical_across_pool_sizes() {
    // A fixed, steal-heavy instance: Sym(C3) over binary inputs grows to
    // 1800 round-2 facets — enough pairs for real fan-out.
    let gens = vec![
        ksa_graphs::families::cycle(3).unwrap(),
        Digraph::from_edges(3, &[(0, 2), (2, 1), (1, 0)]).unwrap(),
    ];
    let input = Pseudosphere::new((0..3).map(|p| (p, vec![0u32, 1])).collect())
        .unwrap()
        .to_complex();
    let reference = protocol_complex_rounds_seq(&gens, &input, 2, BUDGET).unwrap();
    for pool in pools() {
        let par = pool.install(|| protocol_complex_rounds(&gens, &input, 2, BUDGET).unwrap());
        assert_eq!(par, reference, "pool size {}", pool.num_threads());
    }
}

#[test]
fn repeated_runs_stable_when_oversubscribed() {
    // The KSA_THREADS=8 stability check: the oversubscribed pool must
    // return the same RoundsComplex run after run.
    let gens = vec![ksa_graphs::families::cycle(3).unwrap()];
    let input = Pseudosphere::new((0..3).map(|p| (p, vec![0u32, 1])).collect())
        .unwrap()
        .to_complex();
    let pool = &pools()[2];
    assert_eq!(pool.num_threads(), 8);
    let first: RoundsComplex<u32> =
        pool.install(|| protocol_complex_rounds(&gens, &input, 3, BUDGET).unwrap());
    for run in 0..3 {
        let again = pool.install(|| protocol_complex_rounds(&gens, &input, 3, BUDGET).unwrap());
        assert_eq!(again, first, "run {run}");
    }
    assert_eq!(
        first,
        protocol_complex_rounds_seq(&gens, &input, 3, BUDGET).unwrap()
    );
}

/// Budget for the randomized cases: small enough that sparse random
/// generators (whose closures blow up fastest) fail fast instead of
/// dominating the suite — and the *error* must then be identical across
/// pool sizes too, which this budget deliberately exercises.
const PROP_BUDGET: u128 = 5_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whole-`Result` determinism on randomized models, one and two
    /// rounds, across pool sizes 1/2/8: materialized values and budget
    /// rejections alike must match the sequential reference bit for bit.
    #[test]
    fn rounds_identical_across_pool_sizes(
        gens in random_generators(),
        input in random_input(),
        rounds in 1usize..=2,
    ) {
        let reference = protocol_complex_rounds_seq(&gens, &input, rounds, PROP_BUDGET);
        for pool in pools() {
            let par = pool.install(|| {
                protocol_complex_rounds(&gens, &input, rounds, PROP_BUDGET)
            });
            prop_assert_eq!(&par, &reference, "pool size {}", pool.num_threads());
        }
    }
}
