//! A tour of the combinatorial-topology layer: the paper's Figures 2, 3
//! and 4, plus the connectivity theorems made tangible.
//!
//! Run with: `cargo run --example topology_tour`

use kset_agreement::graphs::families;
use kset_agreement::prelude::*;
use kset_agreement::topology::complex::Complex;
use kset_agreement::topology::connectivity::{connectivity, homological_connectivity};
use kset_agreement::topology::pseudosphere::Pseudosphere;
use kset_agreement::topology::shelling::{find_shelling_order, is_shellable};
use kset_agreement::topology::simplex::{Simplex, Vertex};
use kset_agreement::topology::uninterpreted::{closed_above_pseudosphere, uninterpreted_simplex};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Figure 2: a graph and its uninterpreted simplex -----------------
    println!("== Figure 2: uninterpreted simplex ==");
    let g = families::fig2_graph();
    println!("graph: {g}");
    let sigma = uninterpreted_simplex(&g);
    println!("uninterpreted simplex: {sigma:?}\n");

    // --- Figure 3: a pseudosphere ----------------------------------------
    println!("== Figure 3: pseudosphere φ(P0,P1,P2; {{v1,v2}},{{v1,v2}},{{v}}) ==");
    let ps = Pseudosphere::new(vec![(0, vec![1u32, 2]), (1, vec![1, 2]), (2, vec![7])])?;
    let c = ps.to_complex();
    println!("facets: {}", c.facet_count());
    for f in c.facets() {
        println!("  {f:?}");
    }
    println!(
        "connectivity: {:?} (Lemma 4.7 predicts (n−2) = 1-connected)\n",
        connectivity(&c)
    );

    // --- Figure 4: shellable vs not --------------------------------------
    println!("== Figure 4: shellability ==");
    let tri = |a: usize, b: usize, c: usize| {
        Simplex::new(vec![
            Vertex::new(a, 0u32),
            Vertex::new(b, 0),
            Vertex::new(c, 0),
        ])
        .expect("distinct colors")
    };
    // (a) two triangles sharing an edge.
    let shellable = Complex::from_facets(vec![tri(0, 1, 2), tri(0, 2, 3)]);
    let order = find_shelling_order(&shellable, None)?.expect("Figure 4a is shellable");
    println!(
        "Figure 4a: shellable, order of {} facets found",
        order.len()
    );
    // (b) two triangles sharing only a vertex.
    let not_shellable = Complex::from_facets(vec![tri(0, 1, 2), tri(2, 3, 4)]);
    println!("Figure 4b: shellable? {}\n", is_shellable(&not_shellable)?);

    // --- Theorem 4.12: uninterpreted complexes are (n−2)-connected -------
    println!("== Thm 4.12: connectivity of uninterpreted complexes ==");
    for (name, gens) in [
        ("↑C3 (simple ring)", vec![families::cycle(3)?]),
        (
            "kernel model n=3",
            (0..3)
                .map(|c| families::broadcast_star(3, c).expect("valid"))
                .collect::<Vec<_>>(),
        ),
    ] {
        let mut complex = Complex::void();
        for g in &gens {
            complex = complex.union(&closed_above_pseudosphere(g).to_complex());
        }
        println!(
            "  {name}: homological connectivity {} (need ≥ {})",
            homological_connectivity(&complex),
            gens[0].n() as isize - 2
        );
    }

    // --- Thm 5.4's engine: protocol complex connectivity ------------------
    println!("\n== Thm 5.4: protocol-complex connectivity vs prediction ==");
    let registry = models::registry::builtin();
    for name in ["stars{n=3,s=1}", "ring{n=3,sym}"] {
        let model = registry.resolve_closed_above(name, 1_000_000u128)?;
        let rep = kset_agreement::core::verify::verify_protocol_connectivity(&model, 1, 500_000)?;
        println!(
            "  {name}: predicted l = {}, measured = {}, facets = {}  {}",
            rep.predicted_l,
            rep.measured_connectivity,
            rep.protocol_facets,
            if rep.is_consistent() { "✓" } else { "✗" }
        );
    }

    Ok(())
}
