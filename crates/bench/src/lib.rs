//! Shared experiment logic for the `experiments` binary and the criterion
//! benches.
//!
//! Each function runs one experiment of the EXPERIMENTS.md index, returns
//! a rendered report plus a pass/fail verdict of its *shape assertions*
//! (the orderings/values the paper states; see DESIGN.md §3).

pub mod experiments;

/// Outcome of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// Experiment id (matches EXPERIMENTS.md).
    pub id: &'static str,
    /// Human-readable report (tables included).
    pub report: String,
    /// Whether every shape assertion held.
    pub passed: bool,
    /// Every shape assertion, in order: `(description, held)`. The
    /// machine-readable mirror of the `[ok]`/`[FAIL]` report lines, used
    /// by `experiments --json` (and the CI determinism diff).
    pub checks: Vec<(String, bool)>,
    /// Models the experiment selected but did not scan because their
    /// admission estimate exceeded the per-model budget. Empty for
    /// experiments without budgeted model sweeps; `hunt` fills it so
    /// coverage gaps are visible in the table and `--json`.
    pub skipped_models: Vec<String>,
    /// Certificate verdict of the experiment (DESIGN.md §11): `None`
    /// when the experiment emits no certificates, `Some(true)` when
    /// every emitted certificate was re-verified in-run by the
    /// standalone `ksa-cert` checker, `Some(false)` when any was
    /// rejected. Deterministic at any `KSA_THREADS` (part of the CI
    /// determinism diff as the `--json` `certified` field).
    pub certified: Option<bool>,
    /// The emitted certificates as `(label, textual form)` pairs, in
    /// emission order — `experiments --certs <dir>` writes each to a
    /// `.cert` file for the out-of-process `cert-check` pass. Like every
    /// other field, the texts are identical at any `KSA_THREADS`.
    pub certs: Vec<(String, String)>,
}

impl ExperimentOutcome {
    pub(crate) fn new(id: &'static str) -> Self {
        ExperimentOutcome {
            id,
            report: String::new(),
            passed: true,
            checks: Vec::new(),
            skipped_models: Vec::new(),
            certified: None,
            certs: Vec::new(),
        }
    }

    pub(crate) fn line(&mut self, s: impl AsRef<str>) {
        self.report.push_str(s.as_ref());
        self.report.push('\n');
    }

    pub(crate) fn check(&mut self, what: &str, ok: bool) {
        self.line(format!("  [{}] {}", if ok { "ok" } else { "FAIL" }, what));
        self.checks.push((what.to_string(), ok));
        self.passed &= ok;
    }

    /// Re-verifies `cert` with its standalone checker, records the
    /// result both as a shape assertion and in the `certified` verdict,
    /// and stores the textual form for `--certs` export.
    pub(crate) fn certify(&mut self, cert: ksa_cert::Cert) {
        let verdict = cert.check();
        let ok = verdict.is_ok();
        self.check(
            &format!(
                "certificate re-verified: {} `{}`",
                cert.kind(),
                cert.label()
            ),
            ok,
        );
        if let Err(e) = verdict {
            self.line(format!("    checker said: {e}"));
        }
        self.certified = Some(self.certified.unwrap_or(true) && ok);
        let text = {
            let _span = ksa_obs::span("cert", || "serialize");
            cert.to_text()
        };
        self.certs.push((cert.label().to_string(), text));
    }
}

/// All experiment ids, in presentation order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "lemma46",
    "thm412",
    "thm54",
    "sec61",
    "stars",
    "seqs",
    "multiround",
    "rounds",
    "sim",
    "def52",
    "cor55",
    "extuniv",
    "solv",
    "approx",
    "hunt",
];

/// Runs one experiment by id.
///
/// # Errors
///
/// Returns an error string for unknown ids or computation failures.
pub fn run_experiment(id: &str) -> Result<ExperimentOutcome, String> {
    run_experiment_with_models(id, None)
}

/// [`run_experiment`] with an optional registry selection glob (the CLI
/// `--models` flag). Only registry-driven experiments consume it — today
/// that is `hunt`, which scans the selected models instead of its default
/// ensemble; every other experiment has a fixed model table and ignores
/// the override.
///
/// # Errors
///
/// Returns an error string for unknown ids or computation failures.
pub fn run_experiment_with_models(
    id: &str,
    models: Option<&str>,
) -> Result<ExperimentOutcome, String> {
    let result = match id {
        "fig1" => experiments::fig1(),
        "fig2" => experiments::fig2(),
        "fig3" => experiments::fig3(),
        "fig4" => experiments::fig4(),
        "lemma46" => experiments::lemma46(),
        "thm412" => experiments::thm412(),
        "thm54" => experiments::thm54(),
        "sec61" => experiments::sec61(),
        "stars" => experiments::stars(),
        "seqs" => experiments::seqs(),
        "multiround" => experiments::multiround(),
        "rounds" => experiments::rounds(),
        "sim" => experiments::sim(),
        "def52" => experiments::def52(),
        "cor55" => experiments::cor55(),
        "extuniv" => experiments::extuniv(),
        "solv" => experiments::solv(),
        "approx" => experiments::approx(),
        "hunt" => experiments::hunt(models),
        other => return Err(format!("unknown experiment id: {other}")),
    };
    result.map_err(|e| e.to_string())
}

/// Wall-clock measurements of one experiment inside the fan-out (see
/// DESIGN.md §9.4). Both are perf-tier values: nondeterministic,
/// stripped before any cross-thread determinism diff.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentTiming {
    /// Queued-to-complete: from the batch being dispatched to this
    /// experiment finishing, so it includes the time the experiment
    /// waited for a free worker. It is the latency a caller of the batch
    /// observes.
    pub queued_ms: f64,
    /// On-task elapsed: from the experiment starting on its worker to its
    /// completion. The experiment's kernels run on that worker and
    /// nothing else does meanwhile, so this is the experiment's own cost.
    /// `BENCH_results.json` tracks it across PRs.
    pub wall_ms: f64,
}

/// Runs the given experiments and returns `(outcome-or-error, timing)`
/// per id, **in input order**.
///
/// Whole experiments are the one unit of parallelism
/// ([`ksa_exec::map_in_order`], `KSA_THREADS` workers); each runs its
/// kernels on its own worker. Results come back in input order and every
/// experiment is deterministic given its id, so reports, exit codes and
/// `--json` payloads are identical at any `KSA_THREADS`; only the
/// timings move.
///
/// # Examples
///
/// ```
/// let results = ksa_bench::run_experiments(&["fig2", "fig3"]);
/// assert_eq!(results.len(), 2);
/// assert!(results.iter().all(|(r, _)| r.as_ref().is_ok_and(|o| o.passed)));
/// assert_eq!(results[0].0.as_ref().unwrap().id, "fig2"); // input order
/// ```
pub fn run_experiments(ids: &[&str]) -> Vec<(Result<ExperimentOutcome, String>, ExperimentTiming)> {
    run_experiments_with_models(ids, None)
}

/// [`run_experiments`] with the registry selection override of
/// [`run_experiment_with_models`] threaded through to every experiment.
pub fn run_experiments_with_models(
    ids: &[&str],
    models: Option<&str>,
) -> Vec<(Result<ExperimentOutcome, String>, ExperimentTiming)> {
    // Dispatch back to front: the heavy extension sweeps (`rounds`,
    // `sim`, `solv`, `hunt`) sit late in the presentation order, and
    // starting them first leaves the quick figure checks to fill the
    // tail of a multi-worker run.
    let backwards: Vec<&str> = ids.iter().rev().copied().collect();
    let dispatched = std::time::Instant::now();
    let mut results = ksa_exec::map_in_order(&backwards, |id| {
        let _span = ksa_obs::span("experiment", || (*id).to_string());
        let start = std::time::Instant::now();
        let result = run_experiment_with_models(id, models);
        let timing = ExperimentTiming {
            queued_ms: dispatched.elapsed().as_secs_f64() * 1e3,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
        };
        (result, timing)
    });
    results.reverse();
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_runs_and_passes() {
        for id in ALL_EXPERIMENTS {
            let out = run_experiment(id).unwrap_or_else(|e| panic!("{id}: {e}"));
            assert!(out.passed, "{id} failed:\n{}", out.report);
        }
    }

    #[test]
    fn unknown_id_rejected() {
        assert!(run_experiment("nope").is_err());
    }

    #[test]
    fn hunt_is_deterministic_for_a_pinned_seed() {
        // The regression contract of the hunt: for a fixed registry
        // selection (seed included in the name) the whole report — rows,
        // check strings, verdict — is reproducible, so any violation it
        // ever prints is a replayable recipe.
        let glob = "random{n=3,p=0.5,seed=7,count=4}";
        let a = run_experiment_with_models("hunt", Some(glob)).unwrap();
        let b = run_experiment_with_models("hunt", Some(glob)).unwrap();
        assert!(a.passed, "hunt failed:\n{}", a.report);
        assert_eq!(a.report, b.report);
        assert_eq!(a.checks, b.checks);
        assert!(a.report.contains(glob), "rows are labeled by spec name");
    }

    #[test]
    fn hunt_respects_model_overrides() {
        // An empty selection is a failed check, not a panic.
        let none = run_experiment_with_models("hunt", Some("nomatch*")).unwrap();
        assert!(!none.passed);
        // Non-registry experiments ignore the override.
        let fig2 = run_experiment_with_models("fig2", Some("nomatch*")).unwrap();
        assert!(fig2.passed);
    }
}
