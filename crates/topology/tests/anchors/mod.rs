//! The one-round anchors of the multi-round pipeline, shared by the
//! test binaries that pin `protocol_complex_rounds`.
//!
//! Every round of the interned pipeline is checked against
//! `protocol_complex_one_round`, which materializes explicit flat views
//! and shares no interning, numbering or materialization code with it:
//!
//! * round 1 expands to the one-round complex of the input;
//! * round 2, resolved through both view tables and the input table,
//!   equals the one-round complex of the one-round complex;
//! * round `t + 1`, resolved one level into round-`t` ids, equals the
//!   one-round complex of the interned round-`t` complex;
//! * a budget rejection names the first running total of the
//!   interpreted pseudospheres' sizes, pair by pair in facet order, that
//!   exceeds the budget.

#![allow(dead_code)]

use ksa_graphs::Digraph;
use ksa_topology::complex::Complex;
use ksa_topology::interpretation::{
    interpreted_pseudosphere, protocol_complex_one_round, FlatView,
};
use ksa_topology::pseudosphere::Pseudosphere;
use ksa_topology::rounds::RoundsComplex;
use ksa_topology::simplex::{Simplex, Vertex, View};
use ksa_topology::TopologyError;
use proptest::prelude::*;

/// Strategy: 1–`max` random generator graphs on 3 processes (self-loops
/// are implicit; `Digraph` adds them).
pub fn random_generators(max: usize) -> impl Strategy<Value = Vec<Digraph>> {
    let graph = prop::collection::btree_set((0usize..3, 0usize..3), 0..7)
        .prop_map(|edges| Digraph::from_edges(3, &edges.into_iter().collect::<Vec<_>>()).unwrap());
    prop::collection::vec(graph, 1..=max)
}

/// Strategy: a chromatic input complex on 3 processes — a pseudosphere
/// with 1–2 admissible values per process (the closed-above models'
/// input shape; facets carry every color).
pub fn random_input() -> impl Strategy<Value = Complex<u32>> {
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

/// Strategy: 1–4 chromatic simplexes on colors 0..3 with values 0..2,
/// each missing colors at random, so senders outside a facet leave
/// partial and empty views.
pub fn partial_input() -> impl Strategy<Value = Complex<u32>> {
    let simplex = prop::collection::btree_map(0usize..3, 0u32..2, 1..=3).prop_map(|colors| {
        Simplex::new(colors.into_iter().map(|(c, v)| Vertex::new(c, v)).collect()).unwrap()
    });
    prop::collection::vec(simplex, 1..=4).prop_map(Complex::from_facets)
}

/// Strategy: full pseudosphere inputs and inputs with partial facets.
pub fn any_input() -> impl Strategy<Value = Complex<u32>> {
    (any::<bool>(), random_input(), partial_input()).prop_map(|(full, pseudosphere, partial)| {
        if full {
            pseudosphere
        } else {
            partial
        }
    })
}

/// The round-2 complex of `rc` with every id resolved through
/// `table_at(2)`, `table_at(1)` and `input_table()` into nested flat
/// views.
pub fn resolve_round_two<V: View>(rc: &RoundsComplex<V>) -> Complex<FlatView<FlatView<V>>> {
    let (t2, t1, t0) = (
        rc.table_at(2).unwrap(),
        rc.table_at(1).unwrap(),
        rc.input_table(),
    );
    let view1 = |id: u32| -> FlatView<V> {
        t1.get(id)
            .iter()
            .map(|&(q, i)| (q, t0.get(i).clone()))
            .collect()
    };
    Complex::from_facets(rc.complex_at(2).unwrap().facets().map(|f| {
        Simplex::new(
            f.vertices()
                .iter()
                .map(|v| {
                    let view = t2.get(v.view).iter().map(|&(q, i)| (q, view1(i)));
                    Vertex::new(v.color, view.collect())
                })
                .collect(),
        )
        .unwrap()
    }))
}

/// Round `t + 1` of `rc` with its ids resolved one level, into the
/// round-`t` ids of `complex_at(t)`.
pub fn resolve_one_level<V: View>(rc: &RoundsComplex<V>, t: usize) -> Complex<FlatView<u32>> {
    let table = rc.table_at(t + 1).unwrap();
    Complex::from_facets(rc.complex_at(t + 1).unwrap().facets().map(|f| {
        Simplex::new(
            f.vertices()
                .iter()
                .map(|v| Vertex::new(v.color, table.get(v.view).clone()))
                .collect(),
        )
        .unwrap()
    }))
}

/// The budget oracle: the error the multi-round construction must
/// return when one round's running facet total — the interpreted
/// pseudospheres' sizes over `prev`'s facets × `gens`, in that order —
/// first exceeds `budget`.
pub fn admit_round<V: View>(
    gens: &[Digraph],
    prev: &Complex<V>,
    budget: u128,
) -> Result<(), TopologyError> {
    let mut total: u128 = 0;
    for tau in prev.facets() {
        for g in gens {
            total = total.saturating_add(interpreted_pseudosphere(g, tau).facet_count());
            if total > budget {
                return Err(TopologyError::Budget(ksa_graphs::budget::BudgetExceeded {
                    what: "multi-round protocol-complex facets",
                    estimated: total,
                    limit: budget,
                }));
            }
        }
    }
    Ok(())
}

/// Checks a one- or two-round `result` against the anchors: a budget
/// rejection against [`admit_round`], a value against the one-round
/// complexes (round 1 expanded, round 2 resolved). Returns a
/// description of the first disagreement.
pub fn check_against_anchors(
    gens: &[Digraph],
    input: &Complex<u32>,
    rounds: usize,
    budget: u128,
    result: &Result<RoundsComplex<u32>, TopologyError>,
) -> Result<(), String> {
    assert!((1..=2).contains(&rounds));
    if let Err(e) = admit_round(gens, input, budget) {
        return expect_error(result, e, 1);
    }
    let one = protocol_complex_one_round(gens, input, budget).unwrap();
    if rounds == 2 {
        if let Err(e) = admit_round(gens, &one, budget) {
            return expect_error(result, e, 2);
        }
    }
    let rc = result
        .as_ref()
        .map_err(|e| format!("within budget, got {e:?}"))?;
    if rc.expand_round_one() != one {
        return Err("round 1 differs from the one-round complex".into());
    }
    if rounds == 2
        && resolve_round_two(rc) != protocol_complex_one_round(gens, &one, budget).unwrap()
    {
        return Err("round 2 differs from the nested one-round complex".into());
    }
    Ok(())
}

/// `Ok` iff `result` is exactly the budget error `expected` of `round`.
fn expect_error(
    result: &Result<RoundsComplex<u32>, TopologyError>,
    expected: TopologyError,
    round: usize,
) -> Result<(), String> {
    match result {
        Err(got) if *got == expected => Ok(()),
        Err(got) => Err(format!("round {round}: expected {expected:?}, got {got:?}")),
        Ok(_) => Err(format!(
            "round {round}: expected {expected:?}, got a complex"
        )),
    }
}
