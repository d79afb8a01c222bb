//! The experiment implementations (one per EXPERIMENTS.md row).
//!
//! Every experiment prints *paper claim* vs *measured value* and asserts
//! the shape (orderings, exact worked-example numbers). Budgets are sized
//! so `cargo test -p ksa-bench` exercises all of them in debug mode.

use crate::ExperimentOutcome;
use ksa_core::algorithms::{MinOfAll, MinOfDominatingSet};
use ksa_core::bounds::report::BoundsReport;
use ksa_core::bounds::stars::{star_family_bounds, star_set_is_product_idempotent};
use ksa_core::verify::verify_protocol_connectivity;
use ksa_graphs::budget::RunBudget;
use ksa_graphs::covering::covering_number_of_set;
use ksa_graphs::dist_domination::distributed_domination_number;
use ksa_graphs::domination::domination_number;
use ksa_graphs::equal_domination::equal_domination_number_of_set;
use ksa_graphs::max_covering::{max_covering_coefficient_with, max_covering_number_with};
use ksa_graphs::perm::symmetric_closure;
use ksa_graphs::product::{power, product};
use ksa_graphs::sequences::{covering_sequence, covering_sequence_of_set};
use ksa_graphs::{families, Digraph};
use ksa_models::ObliviousModel;
use ksa_models::{registry, ClosedAboveModel};
use ksa_runtime::checker::{check_exhaustive, check_with_supersets};
use ksa_runtime::monte_carlo::monte_carlo;
use ksa_topology::complex::Complex;
use ksa_topology::connectivity::homological_connectivity;
use ksa_topology::error::TopologyError;
use ksa_topology::pseudosphere::Pseudosphere;
use ksa_topology::shelling::{is_shellable_certified, is_shelling_order};
use ksa_topology::simplex::{Simplex, Vertex};
use ksa_topology::uninterpreted::{closed_above_uninterpreted_complex, uninterpreted_simplex};
use std::error::Error;

type R = Result<ExperimentOutcome, Box<dyn Error>>;

/// Resolves a closed-above model from the builtin registry by canonical
/// name — the single lookup path behind every experiment table, so the
/// printed rows, check descriptions and `--json` labels all carry
/// registry names any reader can feed back to `experiments --models` or
/// `Registry::resolve`.
fn registry_model(name: &str) -> Result<ClosedAboveModel, Box<dyn Error>> {
    Ok(registry::builtin().resolve_closed_above(name, RunBudget::DEFAULT)?)
}

/// Figure 1 + §3.2: the two four-process models and their bound
/// comparison.
pub fn fig1() -> R {
    let mut out = ExperimentOutcome::new("fig1");
    out.line("Figure 1 / §3.2 — covering bounds vs equal-domination bounds (n = 4)");

    // First model: symmetric broadcast star.
    let star_sym = symmetric_closure(&[families::fig1_star()])?;
    let geq = equal_domination_number_of_set(&star_sym)?;
    out.line(format!("star model: γ_eq(S) = {geq}   (paper: n = 4)"));
    out.check("γ_eq(star) = 4", geq == 4);
    for i in 1..4usize {
        let cov = covering_number_of_set(&star_sym, i)?;
        let bound = i + (4 - cov);
        out.line(format!(
            "  i = {i}: cov_i = {cov}, covering bound = {bound}-set"
        ));
        out.check(
            &format!("covering bound at i = {i} does not beat γ_eq"),
            bound >= geq,
        );
    }

    // Second model (invariant-matched reconstruction).
    let second_sym = symmetric_closure(&[families::fig1_second_graph()])?;
    let geq2 = equal_domination_number_of_set(&second_sym)?;
    let cov2 = covering_number_of_set(&second_sym, 2)?;
    out.line(format!(
        "second model: γ_eq(S) = {geq2} (paper: 4), cov_2(S) = {cov2} (paper: 3)"
    ));
    out.check("γ_eq = 4", geq2 == 4);
    out.check("cov_2 = 3", cov2 == 3);
    let bound = 2 + (4 - cov2);
    out.line(format!(
        "covering bound: {bound}-set agreement vs γ_eq bound: {geq2}-set (paper: 3 vs 4)"
    ));
    out.check("covering bound = 3 beats γ_eq = 4", bound == 3 && geq2 == 4);
    let model = registry_model("fig1second{}")?;
    let rep = BoundsReport::compute(&model, 1)?;
    out.check(
        "best one-round upper bound is 3-set",
        rep.best_upper().map(|b| b.k) == Some(3),
    );
    Ok(out)
}

/// Figure 2: the uninterpreted simplex of the 3-process example graph.
pub fn fig2() -> R {
    let mut out = ExperimentOutcome::new("fig2");
    out.line("Figure 2 — graph and its uninterpreted simplex");
    let g = families::fig2_graph();
    out.line(format!("graph: {g}"));
    let s = uninterpreted_simplex(&g);
    out.line(format!("σ_G = {s:?}"));
    out.check(
        "view of p0 is {p0, p2}",
        s.view_of(0) == Some(&ksa_graphs::ProcSet::from_iter([0usize, 2])),
    );
    out.check(
        "view of p1 is {p0, p1}",
        s.view_of(1) == Some(&ksa_graphs::ProcSet::from_iter([0usize, 1])),
    );
    out.check(
        "view of p2 is {p2}",
        s.view_of(2) == Some(&ksa_graphs::ProcSet::from_iter([2usize])),
    );
    Ok(out)
}

/// Figure 3: the example pseudosphere and Lemma 4.7's connectivity.
pub fn fig3() -> R {
    let mut out = ExperimentOutcome::new("fig3");
    out.line("Figure 3 — pseudosphere φ(P0,P1,P2; {v1,v2},{v1,v2},{v})");
    let ps = Pseudosphere::new(vec![(0, vec![1u32, 2]), (1, vec![1, 2]), (2, vec![7])])?;
    let c = ps.to_complex();
    out.line(format!(
        "facets = {} (paper figure shows 4), dim = {}",
        c.facet_count(),
        c.dim()
    ));
    out.check("4 facets", c.facet_count() == 4);
    out.check("pure of dimension 2", c.is_pure() && c.dim() == 2);
    let conn = homological_connectivity(&c);
    out.line(format!(
        "homological connectivity = {conn} (Lemma 4.7 predicts ≥ n−2 = 1)"
    ));
    out.check("(n−2)-connected", conn >= 1);
    Ok(out)
}

/// Figure 4: shellable vs non-shellable exemplars, each verdict emitted
/// as a [`ksa_cert::ShellingCert`] and re-verified by the standalone
/// checker in-run (DESIGN.md §11).
pub fn fig4() -> R {
    let mut out = ExperimentOutcome::new("fig4");
    out.line("Figure 4 — shellability of the two exemplars (certified)");
    let tri = |a: usize, b: usize, c: usize| {
        Simplex::new(vec![
            Vertex::new(a, 0u32),
            Vertex::new(b, 0),
            Vertex::new(c, 0),
        ])
        .expect("distinct colors")
    };
    let fig4a = Complex::from_facets(vec![tri(0, 1, 2), tri(0, 2, 3)]);
    let fig4b = Complex::from_facets(vec![tri(0, 1, 2), tri(2, 3, 4)]);
    let (a, cert_a) = is_shellable_certified(&fig4a, "fig4a")?;
    let (b, cert_b) = is_shellable_certified(&fig4b, "fig4b")?;
    out.line(format!("Figure 4a shellable: {a} (paper: yes)"));
    out.line(format!("Figure 4b shellable: {b} (paper: no)"));
    out.check("4a shellable", a);
    out.check("4b not shellable", !b);
    // Each verdict against every facet order, tried one by one.
    out.check(
        "4a verdict matches the brute-force order enumeration",
        some_order_shells(&mut fig4a.facets().cloned().collect::<Vec<_>>(), 0)? == a,
    );
    out.check(
        "4b verdict matches the brute-force order enumeration",
        some_order_shells(&mut fig4b.facets().cloned().collect::<Vec<_>>(), 0)? == b,
    );
    out.certify(ksa_cert::Cert::Shelling(cert_a));
    out.certify(ksa_cert::Cert::Shelling(cert_b));
    Ok(out)
}

/// Whether some order of `facets` that keeps `facets[..fixed]` in place
/// is a shelling order: every permutation of the rest goes through
/// [`is_shelling_order`], which shares only the step condition with the
/// memoized subset search behind [`is_shellable_certified`].
fn some_order_shells(facets: &mut [Simplex<u32>], fixed: usize) -> Result<bool, TopologyError> {
    if fixed == facets.len() {
        return is_shelling_order(facets);
    }
    for i in fixed..facets.len() {
        facets.swap(fixed, i);
        let shells = some_order_shells(facets, fixed + 1)?;
        facets.swap(fixed, i);
        if shells {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Lemma 4.6: pseudosphere intersections, exhaustively on small view sets.
pub fn lemma46() -> R {
    let mut out = ExperimentOutcome::new("lemma46");
    out.line("Lemma 4.6 — φ(U) ∩ φ(V) = φ(U ∩ V), exhaustive small cases");
    let mut cases = 0;
    let mut ok = true;
    // All pairs of view assignments over 2 colors with views ⊆ {0,1,2}.
    for mask_a0 in 0u8..8 {
        for mask_a1 in 0u8..8 {
            for mask_b0 in 0u8..8 {
                for mask_b1 in 0u8..8 {
                    let views = |m: u8| (0u32..3).filter(|v| (m >> v) & 1 == 1).collect::<Vec<_>>();
                    let a = Pseudosphere::new(vec![(0, views(mask_a0)), (1, views(mask_a1))])?;
                    let b = Pseudosphere::new(vec![(0, views(mask_b0)), (1, views(mask_b1))])?;
                    let lhs = a.to_complex().intersection(&b.to_complex());
                    let rhs = a.intersect(&b).to_complex();
                    ok &= lhs == rhs;
                    cases += 1;
                }
            }
        }
    }
    out.line(format!("checked {cases} pseudosphere pairs"));
    out.check("all intersections component-wise", ok);
    Ok(out)
}

/// Thm 4.12: uninterpreted complexes of the model zoo are (n−2)-connected.
pub fn thm412() -> R {
    let mut out = ExperimentOutcome::new("thm412");
    out.line("Thm 4.12 — uninterpreted complexes of closed-above models are (n−2)-connected");
    // Registry names — including the single-generator fig1(b) graph,
    // spelled as an explicit `up{…}` spec.
    let zoo = [
        "ring{n=3}",
        "stars{n=3,s=1}",
        "ring{n=3,sym}",
        "stars{n=4,s=2}",
        "up{n=4: 0>1 1>2 2>0 3>0}",
        "ring{n=4,sym}",
    ];
    out.line(format!(
        "{:<26} {:>6} {:>10} {:>9}",
        "model", "n", "facets", "conn"
    ));
    for name in zoo {
        let model = registry_model(name)?;
        let n = model.n();
        let c = closed_above_uninterpreted_complex(model.generators(), 2_000_000)?;
        let conn = homological_connectivity(&c);
        out.line(format!(
            "{name:<26} {n:>6} {:>10} {conn:>9}",
            c.facet_count()
        ));
        out.check(
            &format!("{name} is (n−2)={}-connected", n - 2),
            conn >= n as isize - 2,
        );
    }
    Ok(out)
}

/// Thm 5.4 / App. B: protocol-complex connectivity vs the predicted `l`.
pub fn thm54() -> R {
    let mut out = ExperimentOutcome::new("thm54");
    out.line("Thm 5.4 — one-round protocol complex connectivity vs predicted l");
    out.line(format!(
        "{:<18} {:>6} {:>9} {:>9} {:>8}",
        "model", "values", "l (pred)", "measured", "facets"
    ));
    for (name, vmax) in [
        ("stars{n=3,s=1}", 1usize),
        ("stars{n=3,s=1}", 2),
        ("stars{n=3,s=2}", 1),
        ("ring{n=3,sym}", 1),
        ("ring{n=3,sym}", 2),
        ("tournament{n=3}", 1),
    ] {
        let model = registry_model(name)?;
        let rep = verify_protocol_connectivity(&model, vmax, 500_000)?;
        out.line(format!(
            "{name:<18} {:>6} {:>9} {:>9} {:>8}",
            vmax + 1,
            rep.predicted_l,
            rep.measured_connectivity,
            rep.protocol_facets
        ));
        out.check(
            &format!("{name} values≤{}: measured ≥ predicted", vmax),
            rep.is_consistent(),
        );
    }
    Ok(out)
}

/// §6.1: the product counterexample on C6, plus Lemma 6.2's inclusion.
pub fn sec61() -> R {
    let mut out = ExperimentOutcome::new("sec61");
    out.line("§6.1 — closure-above is not invariant under the product (C6)");
    let c6 = families::cycle(6)?;
    let c6sq = power(&c6, 2)?;
    // Lemma 6.2: sampled supersets multiply into ↑(C6²).
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(61);
    let mut inclusion_ok = true;
    for _ in 0..200 {
        let a = ksa_graphs::random::random_superset(&c6, &mut rng)?;
        let b = ksa_graphs::random::random_superset(&c6, &mut rng)?;
        inclusion_ok &= product(&a, &b)?.contains_graph(&c6sq)?;
    }
    out.check("Lemma 6.2: ↑C6 ⊗ ↑C6 ⊆ ↑(C6²) on 200 samples", inclusion_ok);

    // Strictness: C6² + (p1→p5) has no preimage (necessary-condition
    // argument, mirrored from the paper's prose).
    let mut target = c6sq.clone();
    target.add_edge(1, 5)?;
    let factor2_blocked = !target.has_edge(0, 5); // (w→5) forces (w−1→5)
    let factor1_blocked = !target.has_edge(1, 0); // (1→w) forces (1→w+1)
    out.check(
        "witness C6²+(p1→p5) not expressible via factor-2 addition",
        factor2_blocked,
    );
    out.check(
        "witness C6²+(p1→p5) not expressible via factor-1 addition",
        factor1_blocked,
    );
    out.line("=> ↑C6 ⊗ ↑C6 ⊊ ↑(C6 ⊗ C6), as §6.1 claims");
    Ok(out)
}

/// §5 + Thm 6.13: the star-union sweep — all combinatorial numbers and
/// the tight bounds.
pub fn stars() -> R {
    let mut out = ExperimentOutcome::new("stars");
    out.line("Thm 6.13 — star unions: γ_dist = n−s+1, max-cov_t = t, M_t = n−t, tight bounds");
    out.line(format!(
        "{:>3} {:>3} | {:>7} {:>9} {:>11} | {:>6}",
        "n", "s", "γ_dist", "solvable", "impossible", "tight"
    ));
    for n in 3..=6usize {
        for s in 1..n {
            let model = registry_model(&format!("stars{{n={n},s={s}}}"))?;
            let gens = model.generators();
            let gd = distributed_domination_number(gens)?;
            out.check(&format!("γ_dist(n={n},s={s}) = n−s+1"), gd == n - s + 1);
            for t in 1..gd {
                let mc = max_covering_number_with(gens, t, gd)?;
                let mt = max_covering_coefficient_with(gens, t, gd)?;
                out.check(
                    &format!("max-cov_{t}(n={n},s={s}) = t and M_{t} = n−t"),
                    mc == t && mt == n - t,
                );
            }
            let b = star_family_bounds(n, s)?;
            let lower = b.lower.as_ref().map(|l| l.impossible_k);
            let tight = lower.map(|l| b.upper.k == l + 1).unwrap_or(false);
            out.line(format!(
                "{n:>3} {s:>3} | {gd:>7} {:>9} {:>11} | {:>6}",
                b.upper.k,
                lower.map(|l| l.to_string()).unwrap_or_else(|| "-".into()),
                if tight { "yes" } else { "no" }
            ));
            if n - s >= 1 {
                out.check(&format!("tight at (n={n}, s={s})"), tight);
            }
            out.check(
                &format!("S^r collapses to S (n={n}, s={s})"),
                star_set_is_product_idempotent(n, s, 2)?,
            );
        }
    }
    Ok(out)
}

/// Thm 6.7/6.9: covering sequences and the implied multi-round upper
/// bounds.
pub fn seqs() -> R {
    let mut out = ExperimentOutcome::new("seqs");
    out.line("Thm 6.7/6.9 — covering sequences: rounds until the i-th sequence reaches n");
    for (name, g) in [
        ("C4", families::cycle(4)?),
        ("C5", families::cycle(5)?),
        ("C6", families::cycle(6)?),
        ("binary tree n=7", families::binary_out_tree(7)?),
        ("star n=4", families::fig1_star()),
    ] {
        let n = g.n();
        let mut cells = Vec::new();
        for i in 1..=n {
            let seq = covering_sequence(&g, i)?;
            cells.push(match seq.reaches_n_at {
                Some(r) => r.to_string(),
                None => "∞".into(),
            });
        }
        out.line(format!(
            "{name:<16} rounds(i=1..n) = [{}]",
            cells.join(", ")
        ));
        // Monotone: larger i never needs more rounds.
        let rounds: Vec<Option<usize>> = (1..=n)
            .map(|i| covering_sequence(&g, i).expect("valid i").reaches_n_at)
            .collect();
        let monotone = rounds.windows(2).all(|w| match (w[0], w[1]) {
            (Some(a), Some(b)) => b <= a,
            (None, _) => true,
            (Some(_), None) => false,
        });
        out.check(&format!("{name}: rounds non-increasing in i"), monotone);
    }
    // Set version: cycles' symmetric closure matches the single cycle
    // (permutation invariance).
    let sym = symmetric_closure(&[families::cycle(4)?])?;
    let single = covering_sequence(&families::cycle(4)?, 1)?;
    let set = covering_sequence_of_set(&sym, 1)?;
    out.check(
        "Sym(C4) sequence equals C4 sequence (perm-invariance)",
        single.values == set.values,
    );
    // The star's sequences stall (paper's γ_eq = n discussion).
    let star_seq = covering_sequence(&families::fig1_star(), 1)?;
    out.check(
        "star sequence stalls below n",
        star_seq.reaches_n_at.is_none(),
    );
    Ok(out)
}

/// Thm 6.4/6.5/6.11: bounds across rounds for the model zoo.
pub fn multiround() -> R {
    let mut out = ExperimentOutcome::new("multiround");
    out.line("§6 — bounds across rounds (upper from Thm 6.4/6.5/6.9, lower from Thm 6.10/6.11)");
    out.line(format!(
        "{:<22} {:>3} {:>9} {:>11}",
        "model", "r", "solvable", "impossible"
    ));
    for name in [
        "ring{n=4,sym}",
        "ring{n=5,sym}",
        "ring{n=4}",
        "stars{n=5,s=2}",
        "kernel{n=4}",
    ] {
        let model = registry_model(name)?;
        let mut prev_up = usize::MAX;
        let mut prev_lo = usize::MAX;
        for r in 1..=3 {
            let rep = BoundsReport::compute(&model, r)?;
            let up = rep.best_upper().expect("exists").k;
            let lo = rep.best_lower().map(|l| l.impossible_k);
            out.line(format!(
                "{name:<22} {r:>3} {up:>9} {:>11}",
                lo.map(|l| l.to_string()).unwrap_or_else(|| "-".into())
            ));
            out.check(&format!("{name} r={r}: consistent"), rep.is_consistent());
            out.check(&format!("{name} r={r}: upper monotone"), up <= prev_up);
            let lo_v = lo.unwrap_or(0);
            out.check(&format!("{name} r={r}: lower monotone"), lo_v <= prev_lo);
            prev_up = up;
            prev_lo = lo_v;
        }
    }
    Ok(out)
}

/// Multi-round protocol complexes (extension of Thm 5.4 to the §6
/// iteration): round-sweep Betti numbers/connectivity of the
/// iterated-interpretation complexes vs the combinatorial multi-round
/// lower bounds, plus the round-1 anchor to the one-round pipeline.
pub fn rounds() -> R {
    use ksa_core::bounds::cross_check::cross_check_round_sweep;
    use ksa_topology::interpretation::protocol_complex_one_round;
    use ksa_topology::rounds::protocol_complex_rounds;

    let mut out = ExperimentOutcome::new("rounds");
    out.line(
        "rounds — iterated-interpretation protocol complexes vs Thm 6.10/6.11 (binary inputs, certified Betti path)",
    );
    out.line(format!(
        "{:<16} {:>3} {:>8} {:>7} {:>6} {:>9}  {}",
        "model", "r", "facets", "views", "conn", "predicted", "betti"
    ));
    let mut sweeps = Vec::new();
    for (name, rounds) in [
        ("ring{n=3}", 3usize),
        ("ring{n=3,sym}", 2),
        ("stars{n=3,s=1}", 2),
        ("stars{n=3,s=2}", 2),
    ] {
        let model = registry_model(name)?;
        let (sweep, certs) =
            cross_check_round_sweep(&model, 1, rounds, 100_000_000u128, Some(name))?;
        for row in &sweep.per_round {
            out.line(format!(
                "{name:<16} {:>3} {:>8} {:>7} {:>6} {:>9}  {:?}",
                row.round,
                row.facets,
                row.interned_views,
                row.measured_connectivity,
                row.predicted_l,
                row.betti
            ));
            out.check(
                &format!("{name} r={}: connectivity ≥ predicted l", row.round),
                row.is_consistent(),
            );
        }
        out.check(&format!("{name}: sweep consistent"), sweep.is_consistent());
        for cert in certs {
            out.certify(ksa_cert::Cert::Homology(cert));
        }
        sweeps.push((name, sweep));
    }

    // The worked anchors. ↑C3 at one round: γ(C3) = 2 predicts exactly
    // consensus-impossibility (l = 0), and the measured connectivity is
    // exactly 0; stars s=1 refuse to weaken with rounds (Thm 6.13): the
    // predicted l stays 1 and the measured connectivity stays exactly 1.
    let sweep_of = |wanted: &str| {
        &sweeps
            .iter()
            .find(|(name, _)| *name == wanted)
            .expect("model is in the zoo above")
            .1
    };
    let ring = sweep_of("ring{n=3}");
    out.check(
        "↑C3 r=1: predicted l = 0, measured exactly 0",
        ring.per_round[0].predicted_l == 0 && ring.per_round[0].measured_connectivity == 0,
    );
    let stars = sweep_of("stars{n=3,s=1}");
    out.check(
        "stars s=1: predicted l stays 1 across rounds (Thm 6.13)",
        stars.per_round.iter().all(|r| r.predicted_l == 1),
    );
    out.check(
        "stars s=1: measured connectivity stays exactly 1",
        stars.per_round.iter().all(|r| r.measured_connectivity == 1),
    );

    // Round-1 anchor: the interned pipeline expands to exactly the
    // one-round protocol complex of the seed implementation.
    let model = registry_model("ring{n=3,sym}")?;
    let input = ksa_core::task::input_complex(3, 1, 100_000_000)?;
    let rc = protocol_complex_rounds(model.generators(), &input, 1, 100_000_000u128)?;
    let direct = protocol_complex_one_round(model.generators(), &input, 100_000_000)?;
    out.check(
        "round-1 expansion is bit-identical to protocol_complex_one_round",
        rc.expand_round_one() == direct,
    );
    Ok(out)
}

/// §3's algorithms under execution: exhaustive + Monte-Carlo + the
/// dominating-set algorithm on supersets.
pub fn sim() -> R {
    let mut out = ExperimentOutcome::new("sim");
    out.line("simulation — algorithms vs bounds (exhaustive over generator schedules)");
    out.line(format!(
        "{:<22} {:>7} {:>10} {:>10} {:>12}",
        "model", "bound", "exh-worst", "mc-worst", "mc-mean"
    ));
    for name in [
        "kernel{n=4}",
        "stars{n=4,s=2}",
        "stars{n=5,s=2}",
        "ring{n=4,sym}",
        "fig1second{}",
    ] {
        let model = registry_model(name)?;
        let rep = BoundsReport::compute(&model, 1)?;
        let bound = rep
            .uppers
            .iter()
            .filter(|u| u.theorem != "Thm 3.2" && u.theorem != "Thm 6.3")
            .map(|u| u.k)
            .min()
            .expect("γ_eq present");
        let n = model.n();
        let exh = check_exhaustive(&MinOfAll::new(), &model, n.min(4), 1, 500_000_000)?;
        let mc = monte_carlo(&MinOfAll::new(), &model, n, 1, 1000, 42)?;
        out.line(format!(
            "{name:<22} {bound:>7} {:>10} {:>10} {:>12.2}",
            exh.worst_distinct,
            mc.worst_distinct,
            mc.mean_distinct()
        ));
        out.check(
            &format!("{name}: validity"),
            exh.validity_ok && mc.validity_ok,
        );
        out.check(
            &format!("{name}: exhaustive worst ≤ bound"),
            exh.worst_distinct <= bound,
        );
        out.check(
            &format!("{name}: Monte-Carlo worst ≤ bound"),
            mc.worst_distinct <= bound,
        );
        // Tight models: the adversary achieves the bound.
        if rep.is_tight() {
            out.check(
                &format!("{name}: bound achieved (tightness)"),
                exh.worst_distinct == bound,
            );
        }
    }
    // The dominating-set algorithm on the simple ring: γ(C4) = 2 achieved
    // and never exceeded, even on supersets.
    let simple = registry_model("ring{n=4}")?;
    let alg = MinOfDominatingSet::for_graph(&simple.generators()[0]);
    let chk = check_with_supersets(&alg, &simple, 3, 1, 10, 7, 50_000_000)?;
    out.line(format!(
        "simple ring ↑C4 + min-of-dominating-set: worst = {} (γ = {})",
        chk.worst_distinct,
        domination_number(&simple.generators()[0])
    ));
    out.check(
        "dominating-set algorithm achieves γ exactly",
        chk.worst_distinct == 2,
    );
    Ok(out)
}

/// Def 5.2 readings compared: the paper-faithful "collections of at most
/// min(i,|S|) graphs" vs the literal "exactly min(i,|S|) distinct graphs"
/// (see DESIGN.md and `ksa-graphs::dist_domination`).
pub fn def52() -> R {
    use ksa_graphs::dist_domination::distributed_domination_number_exact;
    let mut out = ExperimentOutcome::new("def52");
    out.line("Def 5.2 — two readings of the distributed domination number");
    out.line(format!(
        "{:<22} {:>9} {:>7} {:>13}",
        "model", "faithful", "exact", "paper target"
    ));
    for (name, paper) in [
        ("stars{n=3,s=1}", Some(3usize)),
        ("stars{n=4,s=1}", Some(4)),
        ("stars{n=4,s=2}", Some(3)),
        ("stars{n=5,s=2}", Some(4)),
        ("ring{n=4,sym}", None),
        ("fig1second{}", None),
    ] {
        let model = registry_model(name)?;
        let gens = model.generators();
        let faithful = distributed_domination_number(gens)?;
        let exact = distributed_domination_number_exact(gens)?;
        out.line(format!(
            "{name:<22} {faithful:>9} {exact:>7} {:>13}",
            paper.map(|p| p.to_string()).unwrap_or_else(|| "-".into())
        ));
        if let Some(p) = paper {
            out.check(
                &format!("{name}: faithful reading reproduces the paper ({p})"),
                faithful == p,
            );
        }
        out.check(&format!("{name}: exact ≤ faithful"), exact <= faithful);
    }
    // The divergence witness from the module docs.
    let sym3 = registry_model("stars{n=3,s=1}")?;
    out.check(
        "n=3 s=1: exact reading diverges (2 vs 3)",
        distributed_domination_number_exact(sym3.generators())? == 2
            && distributed_domination_number(sym3.generators())? == 3,
    );
    Ok(out)
}

/// The universal-domination extension: a one-round upper bound the paper
/// misses, machine-checked over an entire model, exposing the Thm 5.4
/// scoping issue.
pub fn extuniv() -> R {
    use ksa_core::bounds::extensions::universal_domination_upper_bound;
    use ksa_core::bounds::lower::theorem_5_4_l;
    use ksa_graphs::closure::enumerate_closure;
    use ksa_graphs::universal_domination::universal_domination_number;
    let mut out = ExperimentOutcome::new("extuniv");
    out.line("extension — the universal-domination upper bound γ_univ(S)");
    out.line(format!(
        "{:<22} {:>7} {:>7} {:>9}",
        "model", "γ_univ", "γ_eq", "improves"
    ));
    for name in [
        "stars{n=4,s=2}",
        "ring{n=4,sym}",
        "fig1second{}",
        // C4 + reversed C4, as an explicit generator-list spec.
        "up{n=4: 0>1 1>2 2>3 3>0 | 0>3 1>0 2>1 3>2}",
    ] {
        let model = registry_model(name)?;
        let univ = universal_domination_number(model.generators())?;
        let geq = equal_domination_number_of_set(model.generators())?;
        out.line(format!(
            "{name:<22} {univ:>7} {geq:>7} {:>9}",
            if univ < geq { "yes" } else { "no" }
        ));
        out.check(&format!("{name}: γ_univ ≤ γ_eq"), univ <= geq);
    }

    // The headline: {C4, rev C4} solves 2-set agreement in one round with
    // a hardcoded pair — machine-checked over EVERY graph of the model and
    // every input over 3 values — while the Thm 5.4 formula says 2-set is
    // impossible (the scoping issue documented in DESIGN.md).
    let c = families::cycle(4)?;
    let rev = Digraph::from_edges(4, &[(1, 0), (2, 1), (3, 2), (0, 3)])?;
    let model = ksa_models::ClosedAboveModel::new(vec![c, rev])?;
    let (ub, w) = universal_domination_upper_bound(&model, 1)?;
    out.check("γ_univ({C4, rev C4}) = 2", ub.k == 2);
    let alg = MinOfDominatingSet::new(w.set);
    let mut graphs: Vec<Digraph> = Vec::new();
    for g in model.generators() {
        graphs.extend(enumerate_closure(g, 1 << 13)?);
    }
    graphs.sort();
    graphs.dedup();
    out.line(format!(
        "checking the witness algorithm on all {} graphs × 81 inputs…",
        graphs.len()
    ));
    let mut worst = 0usize;
    let mut valid = true;
    let mut inputs = [0u32; 4];
    'inp: loop {
        for g in &graphs {
            let mut decisions: Vec<u32> = (0..4)
                .map(|p| {
                    let view: Vec<(usize, u32)> =
                        g.in_set(p).iter().map(|q| (q, inputs[q])).collect();
                    let d = ksa_core::algorithms::ObliviousAlgorithm::decide(&alg, p, &view);
                    valid &= inputs.contains(&d);
                    d
                })
                .collect();
            decisions.sort_unstable();
            decisions.dedup();
            worst = worst.max(decisions.len());
        }
        let mut p = 0;
        loop {
            if p == 4 {
                break 'inp;
            }
            inputs[p] += 1;
            if inputs[p] < 3 {
                break;
            }
            inputs[p] = 0;
            p += 1;
        }
    }
    out.line(format!(
        "worst distinct decisions over the whole model: {worst}"
    ));
    out.check("validity over the whole model", valid);
    out.check("2-set agreement solved on the whole model", worst <= 2);
    let l = theorem_5_4_l(model.generators())?;
    out.line(format!(
        "Thm 5.4 formula on this model: l + 1 = {} (claims impossible) — the documented overreach",
        l + 1
    ));
    out.check("the conflict is reproduced (l + 1 = 2)", l + 1 == 2);
    Ok(out)
}

/// Cor 5.5's single-graph estimate vs the direct Thm 5.4 computation on
/// the materialized symmetric closure.
pub fn cor55() -> R {
    use ksa_core::bounds::lower::{general_one_round_lower, symmetric_one_round_lower};
    let mut out = ExperimentOutcome::new("cor55");
    out.line("Cor 5.5 — single-generator estimate vs direct Thm 5.4 on Sym(↑G)");
    out.line(format!(
        "{:<18} {:>14} {:>12}",
        "generator", "cor55 imposs.", "direct imposs."
    ));
    for (name, g) in [
        ("C4", families::cycle(4)?),
        ("C5", families::cycle(5)?),
        ("star n=4", families::broadcast_star(4, 0)?),
        ("star n=5", families::broadcast_star(5, 0)?),
        ("fig1(b) graph", families::fig1_second_graph()),
    ] {
        let cor = symmetric_one_round_lower(&g)?
            .map(|b| b.impossible_k)
            .unwrap_or(0);
        let model = ksa_models::ClosedAboveModel::symmetric(vec![g.clone()])?;
        let direct = general_one_round_lower(&model)?
            .map(|b| b.impossible_k)
            .unwrap_or(0);
        out.line(format!("{name:<18} {cor:>14} {direct:>12}"));
        out.check(
            &format!("{name}: corollary never exceeds the direct bound"),
            cor <= direct,
        );
    }
    Ok(out)
}

/// The solvability decision procedure (extension): exact one-round
/// boundaries for the small zoo, agreeing with the paper's bounds from
/// both sides. Each model's boundary comes from one incremental k-sweep
/// (DESIGN.md §10.3) instead of per-(model, k) from-scratch decisions —
/// this is where the pruned search's wall-clock win lands, so the
/// timings start a fresh baseline series (see EXPERIMENTS.md).
pub fn solv() -> R {
    use ksa_core::solvability::{decide_one_round, decide_one_round_sweep, Solvability};
    let mut out = ExperimentOutcome::new("solv");
    out.line("extension — exact one-round oblivious solvability (incremental k-sweep, certified)");
    out.line(format!(
        "{:<18} {:>3} {:>12} {:>22}",
        "model", "k", "verdict", "paper prediction"
    ));
    // Per model: the k values the paper pins, each with the predicted
    // verdict. The largest k bounds that model's sweep.
    type Pins = Vec<(usize, bool, &'static str)>;
    let cases: Vec<(&str, Pins)> = vec![
        (
            "stars{n=3,s=1}",
            vec![
                (2, false, "Thm 5.4: impossible"),
                (3, true, "Thm 3.4: solvable"),
            ],
        ),
        (
            "stars{n=3,s=2}",
            vec![
                (1, false, "Thm 6.13: impossible"),
                (2, true, "Thm 3.4: solvable"),
            ],
        ),
        (
            "ring{n=3,sym}",
            vec![
                (1, false, "Thm 5.4: impossible"),
                (2, true, "Thm 3.4: solvable"),
            ],
        ),
        (
            "ring{n=3}",
            vec![
                (1, false, "Thm 5.1: impossible"),
                (2, true, "Thm 3.2: solvable"),
            ],
        ),
    ];
    let (mut searched, mut seeded, mut pruned) = (0usize, 0usize, 0usize);
    for (name, pins) in cases {
        let model = registry_model(name)?;
        let k_max = pins.iter().map(|&(k, _, _)| k).max().unwrap_or(1);
        let sweep = decide_one_round_sweep(&model, k_max, 2_000_000, 50_000_000)?;
        searched += sweep.searched;
        seeded += sweep.seeded;
        pruned += sweep.pruned;
        for (k, expect_solvable, prediction) in pins {
            let verdict = &sweep.verdicts[k - 1];
            let shown = match verdict {
                Solvability::Solvable(_) => "solvable",
                Solvability::Unsolvable => "unsolvable",
                Solvability::Unknown => "unknown",
            };
            out.line(format!("{name:<18} {k:>3} {shown:>12} {prediction:>22}"));
            out.check(
                &format!("{name} k={k}: matches the paper"),
                verdict.is_solvable() == expect_solvable,
            );
            // Re-decide this pinned (model, k) from scratch through the
            // certified path (cheap after the pruned search) and emit a
            // machine-checkable certificate for the verdict. The sweep
            // uses per-k inputs over {0, …, k}, so value_max = k.
            let (scratch, _, cert) = decide_one_round(
                &model,
                k,
                k,
                2_000_000u128,
                50_000_000,
                Some(&format!("{name} k={k}")),
            )?;
            out.check(
                &format!("{name} k={k}: certified re-decision agrees with the sweep"),
                scratch.is_solvable() == verdict.is_solvable(),
            );
            match cert {
                Some(cert) => out.certify(ksa_cert::Cert::Solvability(cert)),
                None => out.check(&format!("{name} k={k}: verdict was decided"), false),
            }
        }
    }
    out.line(format!(
        "sweep accounting: {searched} searched, {seeded} seeded by witness lift, {pruned} pruned by monotonicity"
    ));
    out.check(
        "the sweeps decided some boundary entries monotonically",
        seeded + pruned > 0,
    );
    Ok(out)
}

/// Approximate consensus on non-split rounds (§2.1's motivating predicate,
/// the paper's reference \[8\]): midpoint averaging halves the diameter each
/// round — exhaustively on n = 3, and convergence in ⌈log2(D/ε)⌉ rounds.
pub fn approx() -> R {
    use ksa_models::adversary::FixedSequence;
    use ksa_runtime::approx::{
        averaging_round, diameter, is_non_split, rounds_to_epsilon, run_approximate_consensus,
    };
    let mut out = ExperimentOutcome::new("approx");
    out.line("§2.1 context — approximate consensus on non-split models");
    // Exhaustive halving check on all non-split 3-process graphs.
    let model = registry::builtin()
        .resolve("nonsplit{n=3}", 1u128 << 18)?
        .as_explicit()
        .ok_or("nonsplit{n=3}: expected an explicit model")?
        .clone();
    let inputs_grid: Vec<Vec<f64>> = vec![
        vec![0.0, 1.0, 0.5],
        vec![-3.0, 2.0, 7.0],
        vec![0.0, 1.0, 1.0],
    ];
    let mut halves = true;
    for g in model.graphs() {
        for inputs in &inputs_grid {
            let before = diameter(inputs);
            let after = diameter(&averaging_round(g, inputs)?);
            halves &= after <= before / 2.0 + 1e-12;
        }
    }
    out.line(format!(
        "non-split graphs on 3 processes: {} (all checked × {} input vectors)",
        model.graphs().len(),
        inputs_grid.len()
    ));
    out.check("diameter halves on every non-split round", halves);
    out.check(
        "every enumerated graph is non-split",
        model.graphs().iter().all(is_non_split),
    );

    // Convergence budget on kernel schedules (kernel ⊆ non-split).
    let kernel = registry_model("kernel{n=4}")?;
    let inputs = [0.0f64, 1.0, 0.25, 0.75];
    let eps = 1e-3;
    let budget = rounds_to_epsilon(diameter(&inputs), eps);
    let mut adv = FixedSequence::new(kernel.generators().to_vec());
    let trace = run_approximate_consensus(&mut adv, &inputs, eps, budget)?;
    out.line(format!(
        "kernel n=4 schedule: D0 = {}, ε = {eps}, budget = {budget}, converged at {:?}",
        diameter(&inputs),
        trace.converged_at
    ));
    out.check(
        "ε-agreement within ⌈log2(D/ε)⌉ rounds",
        matches!(trace.converged_at, Some(r) if r <= budget),
    );
    // Split rounds stall.
    let mut lonely = FixedSequence::new(vec![Digraph::empty(4)?]);
    let stalled = run_approximate_consensus(&mut lonely, &inputs, eps, 20)?;
    out.check(
        "split schedule never converges",
        stalled.converged_at.is_none(),
    );
    Ok(out)
}

/// Counterexample hunt: drive a registry-selected seeded random ensemble
/// through the multi-round Thm 6.10/6.11 cross-check. Any violation is
/// repro-ready — its registry name carries the full recipe (`n`, `p`,
/// `seed`, `count`), so `experiments hunt --models '<name>'` replays it
/// exactly. `models` overrides the default glob (CLI `--models`).
pub fn hunt(models: Option<&str>) -> R {
    use ksa_core::bounds::cross_check::cross_check_round_sweep;
    use ksa_core::CoreError;

    /// The default selection: one density slice of the builtin seeded
    /// ensemble (8 seeds).
    const DEFAULT_GLOB: &str = "random{n=3,p=0.5*";
    /// One ceiling for materialization + every round's sweep, per model.
    /// Calibrated to the sizes the round sweep is meant for (the n = 3
    /// zoo, facet totals ≤ ~30k): closed-above closures blow up as
    /// `2^(free edges)` per generator, so an n = 4 model's round-2
    /// product runs to millions of facets — minutes of wall time that
    /// this ceiling rejects during admission instead.
    const SWEEP_BUDGET: u128 = 100_000;
    const ROUNDS: usize = 2;

    let mut out = ExperimentOutcome::new("hunt");
    let glob = models.unwrap_or(DEFAULT_GLOB);
    let reg = registry::builtin();
    out.line(format!(
        "hunt — registry selection {glob:?} vs the multi-round cross-check (Thm 6.10/6.11)"
    ));
    out.line(format!("builtin registry: {} models", reg.len()));
    out.check("builtin registry holds ≥ 100 models", reg.len() >= 100);
    let selected = reg.select(glob);
    out.line(format!("selected {} models", selected.len()));
    out.check("selection is non-empty", !selected.is_empty());

    out.line(format!(
        "{:<36} {:>3} {:>6} {:>9} {:>8}",
        "model", "r", "conn", "predicted", "facets"
    ));
    let mut violations: Vec<String> = Vec::new();
    let mut scanned = 0usize;
    let mut skipped: Vec<String> = Vec::new();
    for name in selected {
        // Deterministic admission: models whose materialization estimate
        // alone exceeds the per-model budget are skipped up front (broad
        // globs may select huge families), and sweeps that trip the
        // topology budget mid-flight are reported as skipped rather than
        // failing the hunt — both outcomes depend only on the name.
        let estimate = reg
            .spec(name)
            .map(ksa_models::ModelSpec::estimated_work)
            .unwrap_or(u128::MAX);
        if estimate > SWEEP_BUDGET {
            out.line(format!(
                "{name:<36} skipped (estimated work {estimate} over budget)"
            ));
            skipped.push(name.to_string());
            continue;
        }
        let swept = reg
            .resolve_closed_above(name, SWEEP_BUDGET)
            .map_err(CoreError::from)
            .and_then(|model| cross_check_round_sweep(&model, 1, ROUNDS, SWEEP_BUDGET, None));
        match swept {
            Ok((sweep, _)) => {
                scanned += 1;
                for row in &sweep.per_round {
                    out.line(format!(
                        "{name:<36} {:>3} {:>6} {:>9} {:>8}{}",
                        row.round,
                        row.measured_connectivity,
                        row.predicted_l,
                        row.facets,
                        if row.is_consistent() {
                            ""
                        } else {
                            "  ← VIOLATION"
                        }
                    ));
                    if !row.is_consistent() {
                        violations.push(format!("{name} at r={}", row.round));
                    }
                }
            }
            Err(e) => {
                out.line(format!("{name:<36} skipped ({e})"));
                skipped.push(name.to_string());
                continue;
            }
        }
        // Second hunt front (DESIGN.md §10.3): the *exact* one-round CSP
        // k-sweep vs the certified round-1 lower bound. The certificate
        // check in `best_lower_bound` is supposed to drop every formula
        // overclaim; a Solvable CSP verdict at a certified-impossible k
        // would be a counterexample to that scoping.
        match hunt_csp_cross_check(name) {
            Ok(line) => {
                if let Some(conflict) = &line.conflict {
                    violations.push(conflict.clone());
                }
                out.line(line.text);
            }
            Err(e) => out.line(format!("{name:<36} csp sweep skipped ({e})")),
        }
    }
    out.line(format!(
        "scanned {scanned} models, skipped {}; a violation line names its exact repro spec",
        skipped.len()
    ));
    if !skipped.is_empty() {
        out.line(format!("skipped models: {}", skipped.join(", ")));
    }
    out.check("at least one model admitted and scanned", scanned > 0);
    out.skipped_models = skipped;
    for v in &violations {
        out.check(&format!("VIOLATION {v}"), false);
    }
    out.check(
        "no violations of the multi-round lower bounds across the ensemble",
        violations.is_empty(),
    );
    Ok(out)
}

/// One `hunt` CSP-vs-certified-bound row: the rendered table line plus
/// the conflict description when the exact sweep refutes the bound.
struct HuntCspLine {
    text: String,
    conflict: Option<String>,
}

/// Runs the incremental k-sweep (k ≤ 3, the whole n = 3 range) on one
/// registry model and confronts it with `best_lower_bound(model, 1)`:
/// a certified `impossible_k = k0` and a `Solvable` sweep verdict at
/// `k0` cannot both hold — the CSP is exact on the pseudosphere
/// `Ψ(Π, [0, k0])` the impossibility argues over.
fn hunt_csp_cross_check(name: &str) -> Result<HuntCspLine, Box<dyn Error>> {
    use ksa_core::bounds::lower::best_lower_bound;
    use ksa_core::solvability::{decide_one_round_sweep, Solvability};
    const K_MAX: usize = 3;
    let model = registry_model(name)?;
    let sweep = decide_one_round_sweep(&model, K_MAX, 2_000_000, 50_000_000)?;
    let boundary = sweep
        .verdicts
        .iter()
        .position(Solvability::is_solvable)
        .map(|i| i + 1);
    let certified = best_lower_bound(&model, 1)?.map(|b| b.impossible_k);
    let conflict = match (certified, boundary) {
        (Some(k0), Some(b)) if b <= k0 && k0 <= K_MAX => Some(format!(
            "{name}: exact CSP solves k={b} but round-1 bound certifies k={k0} impossible"
        )),
        _ => None,
    };
    let text = format!(
        "{name:<36} csp boundary k*={} certified impossible k={} ({} searched, {} seeded, {} pruned){}",
        boundary.map_or("-".into(), |b| b.to_string()),
        certified.map_or("-".into(), |k| k.to_string()),
        sweep.searched,
        sweep.seeded,
        sweep.pruned,
        if conflict.is_some() {
            "  ← VIOLATION"
        } else {
            ""
        }
    );
    Ok(HuntCspLine { text, conflict })
}
