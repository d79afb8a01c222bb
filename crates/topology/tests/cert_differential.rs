//! Differential tests for the certified Betti path against the kept
//! oracle: on random small complexes and on the four `rounds` models at
//! one round, `reduced_betti_certified` must produce a certificate the
//! independent checker (`ksa_cert::check_homology`) accepts, its Betti
//! vector must equal the dense `reduced_betti_numbers_seq` oracle, and
//! every seeded corruption of the witness must be rejected — a fixed
//! list per complex here, and a random sweep over the `rounds`
//! certificates through round 2. The round-table path
//! (`RoundsComplex::certified_betti`) must emit the generic path's
//! certificate text byte for byte on every round of those models.

use ksa_cert::{check_homology, Cert, CertError, HomologyCert};
use ksa_graphs::budget::RunBudget;
use ksa_models::registry;
use ksa_topology::chain::reduced_betti_certified;
use ksa_topology::complex::Complex;
use ksa_topology::homology::reduced_betti_numbers_seq;
use ksa_topology::pseudosphere::Pseudosphere;
use ksa_topology::rounds::protocol_complex_rounds;
use ksa_topology::simplex::{Simplex, Vertex, View};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: a small complex over colors 0..5 with u8 views.
fn small_complex() -> impl Strategy<Value = Complex<u8>> {
    let simplex = prop::collection::btree_map(0usize..5, 0u8..3, 1..=4).prop_map(|m| {
        Simplex::new(m.into_iter().map(|(c, v)| Vertex::new(c, v)).collect())
            .expect("btree keys are distinct colors")
    });
    prop::collection::vec(simplex, 1..6).prop_map(Complex::from_facets)
}

/// Connectivity in the certificate's convention: first nonzero reduced
/// Betti index − 1, or the dimension when the table vanishes.
fn connectivity_of(betti: &[u64]) -> i64 {
    betti
        .iter()
        .position(|&b| b != 0)
        .map_or(betti.len() as i64 - 1, |k| k as i64 - 1)
}

/// The seeded witness corruptions of `cert`, each labelled. Every one
/// keeps the certificate's arithmetic consistent where it can, so only
/// witness verification can refute it.
fn mutations(cert: &HomologyCert) -> Vec<(String, HomologyCert)> {
    let mut out = Vec::new();
    for (i, w) in cert.ranks.iter().enumerate() {
        let k = w.k as usize;
        // Drop the last basis row: rank ∂_k one lower raises b̃_{k−1}
        // and b̃_k by one each, and the connectivity follows the table.
        if w.rank > 0 {
            let mut bad = cert.clone();
            let bw = &mut bad.ranks[i];
            bw.basis.pop();
            bw.combo.pop();
            bw.rank -= 1;
            bad.betti[k - 1] += 1;
            bad.betti[k] += 1;
            bad.connectivity = connectivity_of(&bad.betti);
            out.push((format!("∂_{k}: last basis row dropped"), bad));
        }
        // Cite a different in-range row: the combo's XOR changes by the
        // sum of two distinct boundary rows, which is never zero.
        if let Some(combo) = w.combo.first() {
            let cited = combo[0];
            let replacement = (0u32..).find(|r| !combo.contains(r));
            // c_k = b̃_k + rank ∂_k + rank ∂_{k+1}.
            let next_rank = cert.ranks.get(i + 1).map_or(0, |w| w.rank);
            let rows = cert.betti[k] + u64::from(w.rank) + u64::from(next_rank);
            if let Some(r) = replacement.filter(|&r| u64::from(r) < rows) {
                let mut bad = cert.clone();
                let c = &mut bad.ranks[i].combo[0];
                c.retain(|&x| x != cited);
                c.push(r);
                c.sort_unstable();
                out.push((format!("∂_{k}: combo 0 cites row {r} for {cited}"), bad));
            }
        }
        // Copy one basis row (with its honest combo) over another: both
        // pass the XOR test, but they share a leading column.
        if w.rank >= 2 {
            let mut bad = cert.clone();
            let bw = &mut bad.ranks[i];
            bw.basis[1] = bw.basis[0].clone();
            bw.combo[1] = bw.combo[0].clone();
            out.push((format!("∂_{k}: basis row 0 copied over row 1"), bad));
        }
    }
    out
}

/// The full differential check for one complex; returns how many
/// corruptions were rejected.
fn assert_certified_matches_oracle<V: View>(complex: &Complex<V>, label: &str) -> usize {
    let (betti, cert) = reduced_betti_certified(complex, label).expect("nonvoid complex");
    assert_eq!(check_homology(&cert), Ok(()), "{label}: honest certificate");
    assert_eq!(betti, reduced_betti_numbers_seq(complex), "{label}: oracle");
    let claimed: Vec<usize> = cert.betti.iter().map(|&b| b as usize).collect();
    assert_eq!(claimed, betti, "{label}: certificate table");
    let mutated = mutations(&cert);
    for (what, bad) in &mutated {
        assert!(
            matches!(check_homology(bad), Err(CertError::Reject(_))),
            "{label}: {what} was not rejected"
        );
    }
    mutated.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn certified_betti_matches_oracle_on_small_complexes(c in small_complex()) {
        assert_certified_matches_oracle(&c, "small");
    }
}

#[test]
fn certified_betti_matches_oracle_on_rounds_models_at_one_round() {
    let reg = registry::builtin();
    let input = Pseudosphere::new((0..3).map(|p| (p, vec![0u32, 1])).collect())
        .unwrap()
        .to_complex();
    let mut mutated = 0;
    for name in [
        "ring{n=3}",
        "ring{n=3,sym}",
        "stars{n=3,s=1}",
        "stars{n=3,s=2}",
    ] {
        let model = reg
            .resolve_closed_above(name, RunBudget::DEFAULT)
            .expect("builtin model");
        let rc = protocol_complex_rounds(model.generators(), &input, 1, 10_000_000).unwrap();
        mutated += assert_certified_matches_oracle(rc.complex_at(1).expect("round 1"), name);
    }
    // Three corruptions per dimension of each 2-dimensional complex.
    assert_eq!(mutated, 4 * 2 * 3);
}

#[test]
fn round_table_certificates_match_the_generic_path() {
    // The `rounds` experiment's model table: (name, rounds).
    let reg = registry::builtin();
    let input = Pseudosphere::new((0..3).map(|p| (p, vec![0u32, 1])).collect())
        .unwrap()
        .to_complex();
    for (name, rounds) in [
        ("ring{n=3}", 3),
        ("ring{n=3,sym}", 2),
        ("stars{n=3,s=1}", 2),
        ("stars{n=3,s=2}", 2),
    ] {
        let model = reg
            .resolve_closed_above(name, RunBudget::DEFAULT)
            .expect("builtin model");
        let rc = protocol_complex_rounds(model.generators(), &input, rounds, 10_000_000).unwrap();
        for r in 1..=rounds {
            let label = format!("{name} r={r}");
            let (dense_betti, dense) = rc.certified_betti(r, &label).expect("round computed");
            let complex = rc.complex_at(r).expect("round computed");
            let (betti, generic) = reduced_betti_certified(complex, &label).expect("nonvoid");
            assert_eq!(dense_betti, betti, "{label}");
            assert_eq!(
                Cert::Homology(dense).to_text(),
                Cert::Homology(generic).to_text(),
                "{label}"
            );
        }
        assert!(rc.certified_betti(0, name).is_none());
        assert!(rc.certified_betti(rounds + 1, name).is_none());
    }
}

/// Toggles `x` in the strictly ascending list `list`.
fn toggle(list: &mut Vec<u32>, x: u32) {
    match list.binary_search(&x) {
        Ok(i) => {
            list.remove(i);
        }
        Err(i) => list.insert(i, x),
    }
}

/// Mutations per class and certificate in the seeded sweep.
const SWEEP_PER_CLASS: usize = 30;

#[test]
fn seeded_mutation_sweep_over_rounds_certificates_is_rejected() {
    let reg = registry::builtin();
    let input = Pseudosphere::new((0..3).map(|p| (p, vec![0u32, 1])).collect())
        .unwrap()
        .to_complex();
    let mut rng = StdRng::seed_from_u64(0x6b73_6163);
    let mut rejected = 0;
    for name in [
        "ring{n=3}",
        "ring{n=3,sym}",
        "stars{n=3,s=1}",
        "stars{n=3,s=2}",
    ] {
        let model = reg
            .resolve_closed_above(name, RunBudget::DEFAULT)
            .expect("builtin model");
        let rc = protocol_complex_rounds(model.generators(), &input, 2, 10_000_000).unwrap();
        for r in 1..=2 {
            let label = format!("{name} r={r}");
            let complex = rc.complex_at(r).expect("round computed");
            let (_, cert) = reduced_betti_certified(complex, &label).expect("nonvoid complex");
            assert_eq!(check_homology(&cert), Ok(()), "{label}: honest certificate");
            // c_k = b̃_k + rank ∂_k + rank ∂_{k+1}, with rank ∂_0 = 1.
            let rank = |k: usize| match k {
                0 => 1,
                _ => cert.ranks.get(k - 1).map_or(0, |w| u64::from(w.rank)),
            };
            let count: Vec<u64> = (0..cert.betti.len())
                .map(|k| cert.betti[k] + rank(k) + rank(k + 1))
                .collect();
            let witnessed: Vec<usize> = (0..cert.ranks.len())
                .filter(|&i| cert.ranks[i].rank > 0)
                .collect();
            for class in 0..3 {
                for _ in 0..SWEEP_PER_CLASS {
                    let i = witnessed[rng.random_range(0..witnessed.len())];
                    let k = i + 1;
                    let j = rng.random_range(0..cert.ranks[i].rank as usize);
                    let mut bad = cert.clone();
                    let w = &mut bad.ranks[i];
                    let what = match class {
                        0 => {
                            let col = rng.random_range(0..count[k - 1] as u32);
                            toggle(&mut w.basis[j], col);
                            format!("∂_{k} basis row {j}: column {col} toggled")
                        }
                        1 => {
                            let row = rng.random_range(0..count[k] as u32);
                            toggle(&mut w.combo[j], row);
                            format!("∂_{k} combo {j}: row {row} toggled")
                        }
                        _ => {
                            // Keep the Betti arithmetic consistent with
                            // the lower rank, so only the witness
                            // verification can refute it.
                            w.basis.remove(j);
                            w.combo.remove(j);
                            w.rank -= 1;
                            bad.betti[k - 1] += 1;
                            bad.betti[k] += 1;
                            bad.connectivity = connectivity_of(&bad.betti);
                            format!("∂_{k} basis/combo pair {j} dropped")
                        }
                    };
                    assert!(
                        matches!(check_homology(&bad), Err(CertError::Reject(_))),
                        "{label}: {what} was not rejected"
                    );
                    rejected += 1;
                }
            }
        }
    }
    assert_eq!(rejected, 4 * 2 * 3 * SWEEP_PER_CLASS);
}
