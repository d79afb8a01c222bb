//! Homology-backed cross-check of the multi-round lower bounds
//! (Thm 5.1/5.4 at one round, Thm 6.10/6.11 at `r` rounds).
//!
//! The combinatorial multi-round lower bounds say: `k`-set agreement is
//! impossible in `r` rounds because the `r`-round protocol complex is
//! `(k−1)`-connected. [`crate::verify`] checks that claim topologically
//! at one round; this module extends the confrontation to a **round
//! sweep** — it builds the iterated-interpretation complexes of
//! [`ksa_topology::rounds`] for `r = 1, 2, …` over the chromatic input
//! complex and compares each round's measured homological connectivity
//! (DESIGN.md §2.2) with the `l` implied by
//! [`simple_multi_round_lower`](crate::bounds::lower::simple_multi_round_lower)
//! / [`general_multi_round_lower`](crate::bounds::lower::general_multi_round_lower)
//! on the product generators. The `rounds` experiment (EXPERIMENTS.md)
//! tabulates the sweep for the model zoo.
//!
//! The protocol complexes grow exponentially with the round count, so
//! the sweep is budget-guarded end to end ([`Run`]) and intended
//! for the small zoo (`n ≤ 3`, a couple of rounds) — exactly the sizes
//! where the paper's worked examples live.

use crate::bounds::lower::best_lower_bound;
use crate::bounds::LowerBound;
use crate::budget::Run;
use crate::error::CoreError;
use crate::task::{input_complex, Value};
use ksa_models::ClosedAboveModel;
use ksa_topology::connectivity::Connectivity;
use ksa_topology::rounds::{protocol_complex_rounds, RoundsComplex};
use std::fmt;

/// One round of the sweep: the topological measurement next to the
/// combinatorial prediction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundCrossCheck {
    /// The round count this row is about (1-based).
    pub round: usize,
    /// The strongest combinatorial lower bound at this round, if any
    /// (`None` when no non-trivial impossibility is proved).
    pub lower: Option<LowerBound>,
    /// The connectivity the lower-bound machinery implies for the
    /// protocol complex: `impossible_k − 1`, or `−1` when no bound
    /// applies (every non-void complex is `(−1)`-connected).
    pub predicted_l: isize,
    /// The measured homological connectivity of the round's complex.
    pub measured_connectivity: isize,
    /// The reduced Z/2 Betti numbers of the round's complex.
    pub betti: Vec<usize>,
    /// Facet count of the round's complex (size indicator).
    pub facets: usize,
    /// Distinct views interned at this round (arena footprint).
    pub interned_views: usize,
}

impl RoundCrossCheck {
    /// The theory requires the measured connectivity to reach the
    /// prediction: a violation would refute the combinatorial bound.
    pub fn is_consistent(&self) -> bool {
        self.measured_connectivity >= self.predicted_l
    }
}

/// The full round sweep for one model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundSweepReport {
    /// Number of processes.
    pub n: usize,
    /// Input values ranged over `{0, …, value_max}`.
    pub value_max: usize,
    /// One row per round, round 1 first.
    pub per_round: Vec<RoundCrossCheck>,
}

impl RoundSweepReport {
    /// Whether every round's measurement supports its prediction.
    pub fn is_consistent(&self) -> bool {
        self.per_round.iter().all(RoundCrossCheck::is_consistent)
    }
}

impl fmt::Display for RoundSweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "round sweep for n = {}, values ≤ {}:",
            self.n, self.value_max
        )?;
        for row in &self.per_round {
            writeln!(
                f,
                "  r = {}: facets {:>6}, conn {} (predicted ≥ {}), betti {:?}{}",
                row.round,
                row.facets,
                row.measured_connectivity,
                row.predicted_l,
                row.betti,
                if row.is_consistent() {
                    ""
                } else {
                    "  ← VIOLATION"
                }
            )?;
        }
        Ok(())
    }
}

/// Builds the `rounds`-round iterated protocol complexes of `model` over
/// `Ψ(Π, [0, value_max])` and confronts each round's homological
/// connectivity with the combinatorial multi-round lower bound
/// ([`best_lower_bound`], i.e. Thm 5.1/6.10 on simple models and
/// Thm 5.4/6.11 on general ones, with the scoping of DESIGN.md §5.3).
///
/// `run` is the [`RunBudget`](crate::budget::RunBudget) (or a `u128`),
/// optionally with a [`CancelToken`](crate::budget::CancelToken). The
/// budget admits the input complex and every round's facet product. The
/// token is polled once per round in the construction, then per rank
/// reduction in the uncertified sweep or before each round's certified
/// reduction. A token that never fires leaves the report and the
/// certificates bit-identical to the token-free run at any
/// `KSA_THREADS`.
///
/// With `certify: None` one chain-engine sweep measures every round and
/// the certificate list is empty. With `certify: Some(label)` every row
/// is re-derived through the *certified* Betti path
/// ([`RoundsComplex::certified_betti`], which interns each round through
/// its dense view table), and one
/// [`ksa_cert::HomologyCert`] per round, labelled `"<label> r=<round>"`,
/// comes back with the report (DESIGN.md §11). The report is
/// bit-identical either way, since ranks are properties of the matrices;
/// the certified path reduces every rank, `∂_1` included, by the
/// witness-recording echelon rather than the sweep's cheaper kernels.
///
/// # Errors
///
/// [`CoreError::Topology`] when the budget is exceeded and for
/// `rounds = 0`; [`CoreError::Cancelled`] /
/// [`CoreError::DeadlineExceeded`] when the token fires; graph-layer
/// errors otherwise.
pub fn cross_check_round_sweep<'a>(
    model: &ClosedAboveModel,
    value_max: usize,
    rounds: usize,
    run: impl Into<Run<'a>>,
    certify: Option<&str>,
) -> Result<(RoundSweepReport, Vec<ksa_cert::HomologyCert>), CoreError> {
    let run = run.into();
    let rc = build_rounds(model, value_max, rounds, run)?;
    let mut per_round = Vec::with_capacity(rounds);
    let certs = match certify {
        None => {
            // One chain-engine sweep over all rounds: each round's Betti
            // numbers and connectivity share a single closure/rank pass.
            let homology = match run.cancel {
                Some(token) => rc.homology_sweep_cancellable(token)?,
                None => rc.homology_sweep(),
            };
            for (r, step) in (1..=rounds).zip(homology) {
                let measured_connectivity = match step.connectivity {
                    Connectivity::Empty => -2,
                    Connectivity::Exactly(k) | Connectivity::AtLeast(k) => k,
                };
                per_round.push(round_row(model, &rc, r, step.betti, measured_connectivity)?);
            }
            Vec::new()
        }
        Some(label) => {
            let mut certs = Vec::with_capacity(rounds);
            for r in 1..=rounds {
                run.checkpoint()?;
                let (betti, cert) = rc
                    .certified_betti(r, &format!("{label} r={r}"))
                    .expect("protocol complexes are never void");
                // `HomologyCert::connectivity` uses the same convention as
                // `Connectivity::from_reduced_betti`: first nonzero index
                // minus one, or the dimension when the table vanishes.
                let measured_connectivity = cert.connectivity as isize;
                per_round.push(round_row(model, &rc, r, betti, measured_connectivity)?);
                certs.push(cert);
            }
            certs
        }
    };
    let report = RoundSweepReport {
        n: ksa_models::ObliviousModel::n(model),
        value_max,
        per_round,
    };
    Ok((report, certs))
}

/// The input complex `Ψ(Π, [0, value_max])` of `model` and its
/// `rounds`-round protocol complexes, polling the run's token once per
/// round.
fn build_rounds(
    model: &ClosedAboveModel,
    value_max: usize,
    rounds: usize,
    run: Run<'_>,
) -> Result<RoundsComplex<Value>, CoreError> {
    let n = ksa_models::ObliviousModel::n(model);
    let input = input_complex(n, value_max, run.budget.max_executions)?;
    Ok(protocol_complex_rounds(
        model.generators(),
        &input,
        rounds,
        run,
    )?)
}

/// Round `r`'s row: its measured homology next to the combinatorial
/// bound's prediction.
fn round_row(
    model: &ClosedAboveModel,
    rc: &RoundsComplex<Value>,
    r: usize,
    betti: Vec<usize>,
    measured_connectivity: isize,
) -> Result<RoundCrossCheck, CoreError> {
    let lower = best_lower_bound(model, r)?;
    let predicted_l = lower
        .as_ref()
        .map(|b| b.impossible_k as isize - 1)
        .unwrap_or(-1);
    Ok(RoundCrossCheck {
        round: r,
        lower,
        predicted_l,
        measured_connectivity,
        betti,
        facets: rc.facet_count_at(r).expect("round was materialized"),
        interned_views: rc.table_at(r).expect("round was materialized").len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{CancelToken, Deadline, RunBudget};
    use ksa_models::named;

    /// The uncertified sweep's report.
    fn sweep(m: &ClosedAboveModel, rounds: usize, budget: u128) -> RoundSweepReport {
        let (report, certs) = cross_check_round_sweep(m, 1, rounds, budget, None).unwrap();
        assert!(certs.is_empty());
        report
    }

    fn texts(certs: &[ksa_cert::HomologyCert]) -> Vec<String> {
        certs
            .iter()
            .map(|c| ksa_cert::Cert::Homology(c.clone()).to_text())
            .collect()
    }

    fn with_token(token: &CancelToken) -> Run<'_> {
        Run {
            budget: RunBudget::new(10_000_000),
            cancel: Some(token),
        }
    }

    #[test]
    fn by_name_matches_direct_call() {
        // The `hunt` experiment and the server's `rounds` query resolve a
        // name first, then sweep.
        let reg = ksa_models::registry::builtin();
        let direct = sweep(&named::simple_ring(3).unwrap(), 2, 1_000_000);
        let resolved = reg
            .resolve_closed_above("ring{n=3}", 1_000_000u128)
            .unwrap();
        assert_eq!(direct, sweep(&resolved, 2, 1_000_000));
        assert!(reg
            .resolve_closed_above("no such model", 1_000u128)
            .is_err());
        // Explicit models are rejected with a model error, not a panic.
        assert!(reg
            .resolve_closed_above("nonsplit{n=3}", 1_000_000u128)
            .is_err());
    }

    #[test]
    fn silent_token_matches_plain_sweep() {
        let model = named::simple_ring(3).unwrap();
        let plain = sweep(&model, 2, 10_000_000);
        let token = CancelToken::new();
        let (tokened, certs) =
            cross_check_round_sweep(&model, 1, 2, with_token(&token), None).unwrap();
        assert_eq!(plain, tokened);
        assert!(certs.is_empty());
    }

    #[test]
    fn fired_token_interrupts_the_sweep() {
        let model = named::simple_ring(3).unwrap();
        let token = CancelToken::new();
        token.cancel();
        for certify in [None, Some("ring{n=3}")] {
            let err =
                cross_check_round_sweep(&model, 1, 2, with_token(&token), certify).unwrap_err();
            assert!(matches!(err, CoreError::Cancelled), "{certify:?}: {err:?}");
        }
    }

    #[test]
    fn certified_sweep_matches_and_certs_check() {
        let m = named::simple_ring(3).unwrap();
        let plain = sweep(&m, 2, 1_000_000);
        let (certified, certs) =
            cross_check_round_sweep(&m, 1, 2, 1_000_000u128, Some("ring{n=3}")).unwrap();
        // The certified path must reproduce the sweep bit-identically.
        assert_eq!(plain, certified);
        assert_eq!(certs.len(), 2);
        for (r, cert) in (1..=2usize).zip(&certs) {
            assert_eq!(cert.label, format!("ring{{n=3}} r={r}"));
            ksa_cert::check_homology(cert).unwrap();
            // Round-trip through the textual format.
            let text = ksa_cert::Cert::Homology(cert.clone()).to_text();
            ksa_cert::Cert::parse(&text).unwrap().check().unwrap();
        }
    }

    #[test]
    fn certified_sweep_honors_an_expired_deadline() {
        let model = named::simple_ring(3).unwrap();
        let token = CancelToken::with_deadline(Deadline::in_millis(0));
        for certify in [None, Some("ring{n=3}")] {
            let err =
                cross_check_round_sweep(&model, 1, 2, with_token(&token), certify).unwrap_err();
            assert!(
                matches!(err, CoreError::DeadlineExceeded),
                "{certify:?}: {err:?}"
            );
        }
    }

    #[test]
    fn certified_sweep_with_silent_token_matches_none() {
        let m = named::star_unions(3, 1).unwrap();
        let label = Some("stars{n=3,s=1}");
        let (plain, plain_certs) =
            cross_check_round_sweep(&m, 1, 2, 10_000_000u128, label).unwrap();
        let token = CancelToken::new();
        let (tokened, tokened_certs) =
            cross_check_round_sweep(&m, 1, 2, with_token(&token), label).unwrap();
        assert_eq!(plain, tokened);
        assert_eq!(plain, sweep(&m, 2, 10_000_000));
        assert_eq!(texts(&plain_certs), texts(&tokened_certs));
    }

    #[test]
    fn simple_ring_sweep_is_consistent() {
        // ↑C3: γ(C3) = 2 ⇒ consensus impossible at r = 1 (predicted
        // l = 0); γ(C3²) = 1 ⇒ no bound at r = 2 (predicted l = −1).
        let m = named::simple_ring(3).unwrap();
        let sweep = sweep(&m, 2, 1_000_000);
        assert_eq!(sweep.per_round.len(), 2);
        assert_eq!(sweep.per_round[0].predicted_l, 0);
        assert!(sweep.is_consistent(), "{sweep}");
        // The display names violations only when they happen.
        assert!(!sweep.to_string().contains("VIOLATION"));
    }

    #[test]
    fn star_unions_sweep_is_consistent() {
        // Stars n = 3, s = 1: the bound refuses to weaken with rounds
        // (Thm 6.13) — predicted l = 1 at both rounds.
        let m = named::star_unions(3, 1).unwrap();
        let sweep = sweep(&m, 2, 10_000_000);
        assert_eq!(sweep.per_round[0].predicted_l, 1);
        assert_eq!(sweep.per_round[1].predicted_l, 1);
        assert!(sweep.is_consistent(), "{sweep}");
        // Facets grow with the round count; the arena keeps the views
        // interned rather than nested.
        assert!(sweep.per_round[1].facets >= sweep.per_round[0].facets);
        assert!(sweep.per_round[1].interned_views > 0);
    }

    #[test]
    fn budget_and_rounds_validated() {
        let m = named::simple_ring(3).unwrap();
        for certify in [None, Some("ring{n=3}")] {
            assert!(cross_check_round_sweep(&m, 1, 1, 5u128, certify).is_err());
            assert!(cross_check_round_sweep(&m, 1, 0, 1_000u128, certify).is_err());
        }
    }
}
