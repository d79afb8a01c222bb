//! Portfolio-vs-sequential determinism for the shelling search.
//!
//! The racing portfolio ([`find_shelling_order`]) may return *any*
//! valid shelling order — whichever strategy wins the race — but its
//! **verdict** (shellable or not, and the whole `Result` shape on
//! errors) must be bit-identical to the pinned sequential oracle
//! ([`find_shelling_order_seq`]) at pool sizes 1, 2 and 8 (DESIGN.md
//! §4, §11). Size 1 pins the lone-worker LIFO path (canonical strategy
//! first), size 2 exercises real racing, size 8 oversubscribes the CI
//! machine so interleavings actually vary.
//!
//! Random instances come from two directions, mirroring the paper's two
//! sources of complexes: registry-sampled `random{n=3,…}` models (their
//! uninterpreted closure complexes) and hand-rolled pure facet sets
//! from the vendored proptest `TestRng`.

use ksa_exec::ThreadPool;
use ksa_graphs::budget::RunBudget;
use ksa_models::registry;
use ksa_topology::complex::Complex;
use ksa_topology::shelling::{
    find_shelling_order, find_shelling_order_seq, is_shellable_certified, is_shelling_order,
};
use ksa_topology::simplex::{Simplex, Vertex};
use ksa_topology::uninterpreted::closed_above_uninterpreted_complex;
use proptest::TestRng;
use std::sync::OnceLock;

/// The shared pools (1/2/8 workers), started once for the whole test
/// binary.
fn pools() -> &'static [ThreadPool] {
    static POOLS: OnceLock<Vec<ThreadPool>> = OnceLock::new();
    POOLS.get_or_init(|| [1, 2, 8].into_iter().map(ThreadPool::new).collect())
}

/// Asserts the portfolio agrees with the oracle on `complex` at every
/// pool size, and that any witness it returns is a real shelling order.
fn assert_portfolio_matches_seq<V: ksa_topology::simplex::View>(complex: &Complex<V>, what: &str) {
    let reference = find_shelling_order_seq(complex);
    let ref_verdict = reference.as_ref().map(Option::is_some);
    for pool in pools() {
        let par = pool.install(|| find_shelling_order(complex, None));
        assert_eq!(
            par.as_ref().map(Option::is_some),
            ref_verdict,
            "{what}: verdict mismatch at pool size {}",
            pool.num_threads()
        );
        if let Ok(Some(order)) = par {
            assert!(
                is_shelling_order(&order).unwrap(),
                "{what}: portfolio witness is not a shelling order (pool size {})",
                pool.num_threads()
            );
        }
    }
    // The oracle's own witness must of course validate too.
    if let Ok(Some(order)) = reference {
        assert!(is_shelling_order(&order).unwrap(), "{what}: oracle witness");
    }
}

/// A pure random complex: `r` distinct facets of width `d + 1` over a
/// small vertex universe, built directly against the shim's `TestRng`
/// (it samples, no shrinking).
fn random_pure_complex(rng: &mut TestRng) -> Complex<u32> {
    let d = 1 + rng.below(2) as usize; // dim 1 or 2
    let width = d + 1;
    let universe = width + 2 + rng.below(3) as usize; // tight → overlapping
    let r = 2 + rng.below(7) as usize; // 2..=8 facets
    let mut facets: Vec<Vec<usize>> = Vec::new();
    let mut guard = 0;
    while facets.len() < r && guard < 200 {
        guard += 1;
        let mut verts: Vec<usize> = (0..universe).collect();
        // Partial Fisher–Yates: the first `width` entries.
        for i in 0..width {
            let j = i + rng.below((universe - i) as u64) as usize;
            verts.swap(i, j);
        }
        let mut facet: Vec<usize> = verts[..width].to_vec();
        facet.sort_unstable();
        if !facets.contains(&facet) {
            facets.push(facet);
        }
    }
    let simplexes: Vec<Simplex<u32>> = facets
        .into_iter()
        .map(|f| {
            Simplex::new(f.into_iter().map(|v| Vertex::new(v, 0u32)).collect())
                .expect("distinct vertices")
        })
        .collect();
    Complex::from_facets(simplexes)
}

#[test]
fn portfolio_matches_seq_on_random_facet_sets() {
    let mut rng = TestRng::deterministic("shelling-portfolio-facets");
    for case in 0..48 {
        let complex = random_pure_complex(&mut rng);
        assert_portfolio_matches_seq(&complex, &format!("case {case}"));
    }
}

#[test]
fn portfolio_matches_seq_on_registry_sampled_models() {
    // Uninterpreted closure complexes of seeded random registry models:
    // pure by construction (one facet per closure graph, each of width
    // n). Seeds/densities chosen so the closures stay under the 63-facet
    // search ceiling; the verdict comparison covers the error shape too,
    // so an over-ceiling model would still have to agree bit-for-bit.
    let reg = registry::builtin();
    for name in [
        "random{n=3,p=0.8,seed=3,count=2}",
        "random{n=3,p=0.8,seed=11,count=2}",
        "random{n=3,p=0.5,seed=7,count=1}",
        "random{n=3,p=0.5,seed=29,count=1}",
    ] {
        let model = reg
            .resolve_closed_above(name, RunBudget::DEFAULT)
            .expect("seeded random specs resolve");
        let complex = closed_above_uninterpreted_complex(model.generators(), 2_000_000)
            .expect("small closure");
        assert_portfolio_matches_seq(&complex, name);
    }
}

#[test]
fn repeated_runs_stable_when_oversubscribed() {
    // The octahedron (boundary of the 3-dim cross-polytope): 8 facets,
    // shellable, with enough valid orders that steal races genuinely
    // pick different witnesses — the verdict and the certificate checks
    // must hold run after run on the oversubscribed pool.
    let tri = |a: usize, b: usize, c: usize| {
        Simplex::new(vec![
            Vertex::new(a, 0u32),
            Vertex::new(b, 0),
            Vertex::new(c, 0),
        ])
        .expect("distinct")
    };
    let mut facets = Vec::new();
    for x in [0, 1] {
        for y in [2, 3] {
            for z in [4, 5] {
                facets.push(tri(x, y, z));
            }
        }
    }
    let octa = Complex::from_facets(facets);
    let pool = &pools()[2];
    assert_eq!(pool.num_threads(), 8);
    assert!(find_shelling_order_seq(&octa).unwrap().is_some());
    for run in 0..5 {
        let order = pool
            .install(|| find_shelling_order(&octa, None))
            .unwrap()
            .unwrap_or_else(|| panic!("run {run}: octahedron must be shellable"));
        assert!(is_shelling_order(&order).unwrap(), "run {run}");
        // The certified path stays accept-checkable under racing.
        let (shellable, cert) =
            pool.install(|| is_shellable_certified(&octa, "octahedron").unwrap());
        assert!(shellable, "run {run}");
        ksa_cert::check_shelling(&cert).unwrap_or_else(|e| panic!("run {run}: {e}"));
    }
}

/// The shelling search's token, on complexes with more than one facet
/// (a single facet never reaches the portfolio): silent changes no
/// verdict, fired and expired tokens stop the search.
#[test]
fn shelling_search_honours_the_token() {
    use ksa_graphs::cancel::{CancelToken, Deadline};
    use ksa_topology::TopologyError;

    let complex = |facets: &[&[usize]]| {
        Complex::from_facets(facets.iter().map(|f| {
            Simplex::new(f.iter().map(|&v| Vertex::new(v, 0u32)).collect()).expect("distinct")
        }))
    };
    let path = complex(&[&[0, 1], &[1, 2], &[2, 3]]);
    let bowtie = complex(&[&[0, 1, 2], &[2, 3, 4]]);
    for c in [&path, &bowtie] {
        let plain = find_shelling_order(c, None).unwrap();
        let silent = find_shelling_order(c, Some(&CancelToken::new())).unwrap();
        assert_eq!(silent.is_some(), plain.is_some());
        if let Some(order) = silent {
            assert!(is_shelling_order(&order).unwrap());
        }
        let fired = CancelToken::new();
        fired.cancel();
        assert_eq!(
            find_shelling_order(c, Some(&fired)),
            Err(TopologyError::Cancelled)
        );
        let expired = CancelToken::with_deadline(Deadline::in_millis(0));
        assert_eq!(
            find_shelling_order(c, Some(&expired)),
            Err(TopologyError::DeadlineExceeded)
        );
    }
}
