//! The shelling search against its independent oracle.
//!
//! Every certificate [`is_shellable_certified`] emits must pass
//! `ksa_cert::check_shelling`, whose step condition and brute-force
//! refuter share no code with the search, and the same certificate with
//! its verdict flipped must be rejected: a witness order becomes a false
//! exhaustion claim, an exhaustion claim becomes a non-shelling order.
//! Up to `BRUTE_FORCE_MAX_FACETS` facets the checker decides both
//! directions outright, so on those complexes the search's verdict is
//! pinned from both sides (DESIGN.md §11.3). Searches also repeat bit
//! for bit when run side by side on several threads, and honour the
//! token.
//!
//! Random instances come from two directions, mirroring the paper's two
//! sources of complexes: registry-sampled `random{n=3,…}` models (their
//! uninterpreted closure complexes) and hand-rolled pure facet sets
//! from the vendored proptest `TestRng`.

use ksa_cert::{check_shelling, ShellingVerdict, BRUTE_FORCE_MAX_FACETS};
use ksa_exec::{map_in_order, ThreadPool};
use ksa_graphs::budget::RunBudget;
use ksa_models::registry;
use ksa_topology::complex::Complex;
use ksa_topology::shelling::{find_shelling_order, is_shellable_certified, is_shelling_order};
use ksa_topology::simplex::{Simplex, Vertex, View};
use ksa_topology::uninterpreted::closed_above_uninterpreted_complex;
use proptest::TestRng;

/// Asserts the certificate of `complex` checks, agrees with the plain
/// search, and — when the checker can brute-force the complex — is
/// rejected once its verdict is flipped. Returns the verdict.
fn assert_certificate_pins_the_verdict<V: View>(complex: &Complex<V>, what: &str) -> bool {
    let (shellable, cert) = is_shellable_certified(complex, what).unwrap();
    check_shelling(&cert).unwrap_or_else(|e| panic!("{what}: {e}"));
    let order = find_shelling_order(complex, None).unwrap();
    assert_eq!(
        order.is_some(),
        shellable,
        "{what}: plain and certified verdicts"
    );
    if let Some(order) = &order {
        assert!(is_shelling_order(order).unwrap(), "{what}: witness");
    }
    let r = cert.facets.len();
    if r <= BRUTE_FORCE_MAX_FACETS {
        let mut flipped = cert.clone();
        flipped.verdict = match &cert.verdict {
            ShellingVerdict::Order(_) => ShellingVerdict::Exhausted { states: 1 },
            ShellingVerdict::Exhausted { .. } => ShellingVerdict::Order((0..r as u32).collect()),
        };
        assert!(
            check_shelling(&flipped).is_err(),
            "{what}: the flipped verdict was accepted"
        );
    }
    shellable
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
fn certificates_pin_verdicts_on_random_facet_sets() {
    let mut rng = TestRng::deterministic("shelling-portfolio-facets");
    let mut shellable = 0;
    for case in 0..48 {
        let complex = random_pure_complex(&mut rng);
        assert!(complex.facet_count() <= BRUTE_FORCE_MAX_FACETS);
        if assert_certificate_pins_the_verdict(&complex, &format!("case {case}")) {
            shellable += 1;
        }
    }
    // Both verdicts occur, so both flips were exercised.
    assert!(
        0 < shellable && shellable < 48,
        "{shellable} of 48 shellable"
    );
}

#[test]
fn certificates_pin_verdicts_on_registry_sampled_models() {
    // Uninterpreted closure complexes of seeded random registry models:
    // pure by construction (one facet per closure graph, each of width
    // n). Seeds/densities chosen so the closures stay under the 63-facet
    // search ceiling; above the brute-force limit only the certificate
    // check itself applies.
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
        assert_certificate_pins_the_verdict(&complex, name);
    }
}

#[test]
fn repeated_runs_stable_when_oversubscribed() {
    // The octahedron (boundary of the 3-dim cross-polytope): 8 facets,
    // shellable, with many valid orders. Run on eight scoped workers side
    // by side, the search returns the same witness and certificate every
    // time.
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
    let reference = find_shelling_order(&octa, None)
        .unwrap()
        .expect("the octahedron is shellable");
    assert!(is_shelling_order(&reference).unwrap());
    let (_, reference_cert) = is_shellable_certified(&octa, "octahedron").unwrap();
    check_shelling(&reference_cert).unwrap();
    let runs: Vec<usize> = (0..8).collect();
    let again = ThreadPool::new(8).install(|| {
        map_in_order(&runs, |_| {
            (
                find_shelling_order(&octa, None).unwrap(),
                is_shellable_certified(&octa, "octahedron").unwrap(),
            )
        })
    });
    for (run, (order, (shellable, cert))) in again.into_iter().enumerate() {
        assert_eq!(order.as_ref(), Some(&reference), "run {run}");
        assert!(shellable, "run {run}");
        assert_eq!(cert, reference_cert, "run {run}");
    }
}

/// The shelling search's token, on complexes with more than one facet
/// (a single facet never reaches the search): silent changes no
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
