//! Multi-round behavior (§6): graph products, covering sequences, and how
//! agreement strengthens (or refuses to) with more rounds.
//!
//! Run with: `cargo run --example multi_round`

use kset_agreement::graphs::families;
use kset_agreement::graphs::product::{power, product};
use kset_agreement::graphs::sequences::covering_sequence;
use kset_agreement::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- §6.1: closure-above is NOT invariant under the product ----------
    println!("== §6.1: the cycle product counterexample ==");
    let c6 = families::cycle(6)?;
    let c6_squared = power(&c6, 2)?;
    println!("C6 ⊗ C6 edges (proper): {}", c6_squared.proper_edge_count());
    // The witness: C6² plus one extra edge is in ↑(C6²)…
    let mut witness = c6_squared.clone();
    witness.add_edge(1, 5)?; // an edge not creatable without side effects
    assert!(witness.contains_graph(&c6_squared)?);
    // …but no pair of supersets of C6 multiplies to exactly that graph.
    let found = search_product_preimage(&c6, &witness)?;
    println!("C6² + (p1→p5) reachable as a product of supersets of C6? {found}");
    assert!(!found);
    println!("=> ↑C6 ⊗ ↑C6 ⊊ ↑(C6 ⊗ C6), exactly as §6.1 claims\n");

    // --- Covering sequences (Thm 6.7/6.9) ---------------------------------
    println!("== covering sequences on C5 (Def 6.6) ==");
    let c5 = families::cycle(5)?;
    for i in 1..=5 {
        let seq = covering_sequence(&c5, i)?;
        println!(
            "  i = {i}: values {:?} -> reaches n at round {:?}",
            seq.values, seq.reaches_n_at
        );
    }

    // --- Bounds as rounds grow, cross-checked topologically ---------------
    // The combinatorial bounds (Thm 6.10/6.11) predict how connected the
    // r-round protocol complex must be; the iterated-interpretation
    // pipeline (ksa_topology::rounds) builds those complexes with interned
    // views and measures the connectivity. The cross-check report carries
    // both sides — and the bounds table alongside.
    println!("\n== bounds as rounds grow (homology-cross-checked, n = 3 zoo) ==");
    let registry = models::registry::builtin();
    for (name, rounds) in [
        ("ring{n=3}", 3usize),
        ("ring{n=3,sym}", 2),
        ("stars{n=3,s=1}", 2),
    ] {
        let model = registry.resolve_closed_above(name, 1_000_000u128)?;
        println!("{name}:");
        for r in 1..=rounds {
            let rep = BoundsReport::compute(&model, r)?;
            let up = rep.best_upper().expect("exists").k;
            let lo = rep
                .best_lower()
                .map(|l| l.impossible_k.to_string())
                .unwrap_or_else(|| "-".into());
            println!("  r = {r}: solvable {up}-set, impossible {lo}-set");
        }
        let (sweep, _) = core::bounds::cross_check::cross_check_round_sweep(
            &model,
            1,
            rounds,
            100_000_000u128,
            None,
        )?;
        assert!(sweep.is_consistent(), "topology contradicts the bounds");
        print!("{sweep}");
    }
    println!("\nstar unions refuse to improve with rounds (Thm 6.13):");
    let stars = registry.resolve_closed_above("stars{n=5,s=2}", 1_000_000u128)?;
    let r1 = BoundsReport::compute(&stars, 1)?;
    let r3 = BoundsReport::compute(&stars, 3)?;
    assert_eq!(
        r1.best_lower().map(|l| l.impossible_k),
        r3.best_lower().map(|l| l.impossible_k)
    );
    println!(
        "  impossible at r=1: {:?}, at r=3: {:?}  (same)",
        r1.best_lower().map(|l| l.impossible_k),
        r3.best_lower().map(|l| l.impossible_k)
    );

    Ok(())
}

/// Exhaustive search: is `target ∈ ↑C6 ⊗ ↑C6`? Both factors range over
/// supersets of C6 — but only edges *below the target's product effect*
/// matter, so we search supersets whose product stays within the target
/// (pruned brute force over candidate edge additions).
fn search_product_preimage(
    base: &Digraph,
    target: &Digraph,
) -> Result<bool, Box<dyn std::error::Error>> {
    // Candidate extra edges for each factor: adding (u, v) to a factor
    // must not create product edges outside the target. We enumerate
    // subsets of the small candidate sets (the rest provably overshoot).
    let n = base.n();
    let mut candidates = Vec::new();
    for u in 0..n {
        for v in 0..n {
            if u != v && !base.has_edge(u, v) {
                candidates.push((u, v));
            }
        }
    }
    // A factor-1 addition (u,w) forces product edges (u, Out_2(w)) ⊇
    // (u, w) and (u, w+1); a factor-2 addition (w,v) forces (In_1(w), v).
    // Filter candidates that already overshoot on their own.
    let ok1: Vec<_> = candidates
        .iter()
        .copied()
        .filter(|&(u, w)| {
            let forced = [(u, w), (u, (w + 1) % n)];
            forced.iter().all(|&(a, b)| target.has_edge(a, b))
        })
        .collect();
    let ok2: Vec<_> = candidates
        .iter()
        .copied()
        .filter(|&(w, v)| {
            let forced = [(w, v), ((w + n - 1) % n, v)];
            forced.iter().all(|&(a, b)| target.has_edge(a, b))
        })
        .collect();
    // Enumerate subsets (the filtered candidate lists are small for C6).
    assert!(ok1.len() <= 16 && ok2.len() <= 16, "search space too large");
    for m1 in 0u32..(1 << ok1.len()) {
        let mut g1 = base.clone();
        for (i, &(u, v)) in ok1.iter().enumerate() {
            if (m1 >> i) & 1 == 1 {
                g1.add_edge(u, v)?;
            }
        }
        for m2 in 0u32..(1 << ok2.len()) {
            let mut g2 = base.clone();
            for (i, &(u, v)) in ok2.iter().enumerate() {
                if (m2 >> i) & 1 == 1 {
                    g2.add_edge(u, v)?;
                }
            }
            if product(&g1, &g2)? == *target {
                return Ok(true);
            }
        }
    }
    Ok(false)
}
