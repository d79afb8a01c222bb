//! Witness replay shared by the solvability test binaries: a
//! `DecisionMap` is wrapped in a `SolvabilityCert` over the model's
//! closure graphs and re-checked by `ksa_cert::check_solvability`, which
//! replays it over every execution (coverage, validity, at most `k`
//! decisions) and shares no code with the search that produced it.

use ksa_cert::{check_solvability, CertError, SolvVerdict, SolvabilityCert};
use ksa_core::solvability::DecisionMap;
use ksa_graphs::closure::enumerate_closure;
use ksa_models::{ClosedAboveModel, ObliviousModel};

/// Closure budget of the replay (n = 3: at most 2^6 supersets per
/// generator).
const GRAPHS: usize = 1 << 12;

/// Whether `map` solves `k`-set agreement with inputs `0..=k` on every
/// closure graph of `model`.
pub fn check_witness(
    model: &ClosedAboveModel,
    k: usize,
    map: &DecisionMap,
) -> Result<(), CertError> {
    let n = model.n();
    let mut graphs = Vec::new();
    for g in model.generators() {
        graphs.extend(enumerate_closure(g, GRAPHS).expect("closure fits the replay budget"));
    }
    graphs.sort();
    graphs.dedup();
    check_solvability(&SolvabilityCert {
        label: format!("witness k={k}"),
        n: n as u32,
        k: k as u32,
        value_max: k as u32,
        graphs: graphs
            .iter()
            .map(|g| {
                (0..n)
                    .map(|p| g.in_set(p).iter().map(|q| q as u32).collect())
                    .collect()
            })
            .collect(),
        verdict: SolvVerdict::Map(
            map.entries()
                .map(|(view, d)| (view.iter().map(|&(p, v)| (p as u32, v)).collect(), *d))
                .collect(),
        ),
    })
}
