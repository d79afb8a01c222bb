//! The in-process workloads: `rounds_certified` (the `rounds` experiment)
//! and `hunt_ensemble` (the `hunt` experiment with its default model
//! selection).
//!
//! An untraced pass is one `ksa_bench::run_experiment` call installed on a
//! 1-worker or a 2-worker `ksa_exec` pool. A traced pass is the replay of
//! the same experiment through [`crate::layers`], with a span around every
//! layer call.

use std::time::{Duration, Instant};

use ksa_exec::ThreadPool;
use ksa_graphs::budget::RunBudget;
use ksa_obs::{Counter, PerfCounter};

use crate::hostref::HostRef;
use crate::layers::{self, Recorder, Site};
use crate::report::{Ctx, Outcome, PassTiming, TracedLayers};

/// The `hunt` experiment's default selection and budget.
const HUNT_GLOB: &str = "random{n=3,p=0.5*";
const HUNT_BUDGET: u128 = 100_000;

/// The `rounds` experiment's model table: `(name, rounds)`.
const ROUNDS_TABLE: [(&str, usize); 4] = [
    ("ring{n=3}", 3),
    ("ring{n=3,sym}", 2),
    ("stars{n=3,s=1}", 2),
    ("stars{n=3,s=2}", 2),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Rounds,
    Hunt,
}

impl Kind {
    fn experiment_id(self) -> &'static str {
        match self {
            Kind::Rounds => "rounds",
            Kind::Hunt => "hunt",
        }
    }

    fn models(self) -> Vec<&'static str> {
        match self {
            Kind::Rounds => ROUNDS_TABLE.iter().map(|&(name, _)| name).collect(),
            Kind::Hunt => ksa_models::registry::builtin().select(HUNT_GLOB),
        }
    }
}

/// What every pass must reproduce: the warm-up pass's check list,
/// certificates, skipped models and deterministic work counts.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    checks: Vec<(String, bool)>,
    certs: Vec<String>,
    skipped: Vec<String>,
    det: Vec<(&'static str, u64)>,
}

/// The warmed-up workload: its models resolved, both pools started and
/// one pass run.
pub struct Setup {
    kind: Kind,
    pools: [ThreadPool; 2],
    reference: Fingerprint,
}

/// Resolves the workload's models, starts the pools and runs the warm-up
/// pass, which fixes the fingerprint every later pass must match.
pub fn setup(kind: Kind) -> Result<Setup, String> {
    for name in kind.models() {
        layers::resolve(name, RunBudget::DEFAULT)?;
    }
    let pools = [ThreadPool::new(1), ThreadPool::new(2)];
    let pass = experiment_pass(kind, &pools[0]);
    let reference = pass.fingerprint?;
    if kind == Kind::Hunt && reference.skipped.len() == kind.models().len() {
        return Err("hunt skipped every model".into());
    }
    Ok(Setup {
        kind,
        pools,
        reference,
    })
}

struct Pass {
    ms: f64,
    fingerprint: Result<Fingerprint, String>,
    steals: u64,
    parks: u64,
}

fn experiment_pass(kind: Kind, pool: &ThreadPool) -> Pass {
    let mut rec = Recorder::default();
    let before = ksa_obs::snapshot();
    let outcome = pool.install(|| layers::experiment(&mut rec, kind.experiment_id()));
    let after = ksa_obs::snapshot();
    let perf = |p: PerfCounter| {
        let value = |s: &ksa_obs::MetricsSnapshot| {
            s.perf
                .iter()
                .find(|(name, _)| *name == p.name())
                .map_or(0, |&(_, v)| v)
        };
        value(&after) - value(&before)
    };
    let fingerprint = outcome.and_then(|out| {
        if !out.passed {
            return Err(format!("{} failed:\n{}", out.id, out.report));
        }
        if kind == Kind::Rounds && out.certified != Some(true) {
            return Err("rounds: certificates were not all re-verified".into());
        }
        Ok(Fingerprint {
            checks: out.checks,
            certs: out.certs.into_iter().map(|(_, text)| text).collect(),
            skipped: out.skipped_models,
            det: after.det_delta(&before),
        })
    });
    Pass {
        ms: rec.ms(Site::Experiment),
        fingerprint,
        steals: perf(PerfCounter::ExecSteals),
        parks: perf(PerfCounter::ExecParks),
    }
}

/// Checks a pass against the warm-up pass; a mismatch is a failed pass.
fn verify(setup: &Setup, pass: &Pass) -> Result<(), String> {
    let fp = pass.fingerprint.as_ref()?;
    let want = &setup.reference;
    if fp.checks != want.checks {
        return Err("check list differs from the warm-up pass".into());
    }
    if fp.certs != want.certs || fp.skipped != want.skipped {
        return Err("certificates or skipped models differ from the warm-up pass".into());
    }
    if fp.det != want.det {
        return Err(format!(
            "deterministic work counts differ from the warm-up pass: {:?} vs {:?}",
            fp.det, want.det
        ));
    }
    Ok(())
}

/// The untraced run: passes alternate between the 1- and 2-worker pools,
/// each preceded by one run of the host reference kernel.
pub fn run(ctx: &Ctx, setup: &Setup, host: &HostRef) -> Outcome {
    let mut timing = PassTiming::default();
    let mut outcome = Outcome::default();
    let first = (ctx.seed % 2) as usize;
    let deadline = Instant::now() + Duration::from_secs(ctx.seconds);
    while Instant::now() < deadline || timing.is_empty() {
        for slot in [first, 1 - first] {
            let ref_ms = setup.pools[slot].install(|| host.run_ms());
            let pass = experiment_pass(setup.kind, &setup.pools[slot]);
            outcome.record(verify(setup, &pass));
            timing.push(slot, pass.ms, ref_ms);
        }
    }
    outcome.timing = timing;
    outcome
}

/// The traced run. First untraced passes on both pools (the overhead
/// baseline and the pool statistics), then replay passes on the 1-worker
/// pool with spans on, then the stage split of the chain engine on the
/// replay's complexes.
pub fn run_traced(ctx: &Ctx, setup: &Setup, host: &HostRef) -> (Outcome, TracedLayers) {
    let mut outcome = Outcome::default();
    let mut traced = TracedLayers::default();
    let half = Duration::from_secs(ctx.seconds) / 2;

    let phase = Instant::now();
    while phase.elapsed() < half || traced.untraced_pass_ms[1].is_empty() {
        for slot in [0, 1] {
            traced
                .ref_ms
                .push(setup.pools[slot].install(|| host.run_ms()));
            let pass = experiment_pass(setup.kind, &setup.pools[slot]);
            outcome.record(verify(setup, &pass));
            traced.untraced_pass_ms[slot].push(pass.ms);
            if slot == 1 {
                traced.steals.push(pass.steals as f64);
                traced.parks.push(pass.parks as f64);
            }
        }
    }
    traced.det = setup.reference.det.clone();

    let mut materialize = Recorder::default();
    for _ in 0..MATERIALIZE_REPEATS {
        let mut rec = Recorder::default();
        outcome.record(layers::materialize_all(
            &mut rec,
            &setup.kind.models(),
            RunBudget::DEFAULT,
        ));
        traced.push_site(&rec, Site::Materialize);
        materialize = rec;
    }
    traced.materializations = materialize.calls(Site::Materialize);

    ksa_obs::trace_start();
    let phase = Instant::now();
    while phase.elapsed() < half || traced.passes.is_empty() {
        traced.ref_ms.push(setup.pools[0].install(|| host.run_ms()));
        let mut rec = Recorder::default();
        let before = ksa_obs::snapshot();
        let start = Instant::now();
        let replay = setup.pools[0].install(|| {
            let _span = ksa_obs::span("perfbench", || "pass");
            replay(setup, &mut rec)
        });
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let det = ksa_obs::snapshot().det_delta(&before);
        let checked = replay.and_then(|replay| {
            if det != setup.reference.det {
                return Err("replay did different work from the experiment pass".into());
            }
            Ok(replay)
        });
        match checked {
            Ok(replay) => {
                outcome.record(Ok(()));
                let mut chain = Recorder::default();
                setup.pools[0].install(|| {
                    layers::chain_split(
                        &mut chain,
                        replay.complexes.iter().flat_map(|rc| rc.complexes()),
                    )
                });
                traced.push_site(&chain, Site::ChainClosure);
                traced.push_site(&chain, Site::ChainRank);
                traced.csp = replay.csp;
                traced.push_pass(&rec, wall_ms);
            }
            Err(e) => outcome.record::<()>(Err(e)),
        }
    }
    traced.chrome_trace = ksa_obs::trace_stop();
    (outcome, traced)
}

/// How often the models layer is timed in a traced run (one call takes
/// microseconds, so a single timing is mostly clock noise).
const MATERIALIZE_REPEATS: usize = 25;

struct Replay {
    complexes: Vec<ksa_topology::rounds::RoundsComplex<ksa_core::task::Value>>,
    /// Summed (searched, seeded, pruned) over the CSP sweeps.
    csp: (usize, usize, usize),
}

/// The experiment's layer calls, in its order, with the same checks.
fn replay(setup: &Setup, rec: &mut Recorder) -> Result<Replay, String> {
    match setup.kind {
        Kind::Rounds => replay_rounds(setup, rec),
        Kind::Hunt => replay_hunt(setup, rec),
    }
}

fn replay_rounds(setup: &Setup, rec: &mut Recorder) -> Result<Replay, String> {
    let budget = RunBudget::DEFAULT;
    let mut certs = Vec::new();
    let mut complexes = Vec::new();
    for (name, rounds) in ROUNDS_TABLE {
        let model = layers::resolve(name, budget)?;
        let (rows, texts, rc) = layers::certified_round_sweep(rec, &model, name, rounds, budget)?;
        if !rows.iter().all(layers::Row::consistent) {
            return Err(format!(
                "{name}: measured connectivity below the prediction"
            ));
        }
        certs.extend(texts);
        complexes.push(rc);
    }
    let anchor = layers::resolve("ring{n=3,sym}", budget)?;
    if !layers::round_one_anchor(rec, &anchor, budget)? {
        return Err("round-1 expansion differs from protocol_complex_one_round".into());
    }
    if certs != setup.reference.certs {
        return Err("replayed certificates differ from the experiment's".into());
    }
    Ok(Replay {
        complexes,
        csp: (0, 0, 0),
    })
}

fn replay_hunt(setup: &Setup, rec: &mut Recorder) -> Result<Replay, String> {
    let reg = ksa_models::registry::builtin();
    let budget = RunBudget::new(HUNT_BUDGET);
    let mut skipped = Vec::new();
    let mut complexes = Vec::new();
    let mut csp = (0, 0, 0);
    for name in reg.select(HUNT_GLOB) {
        let estimate = reg
            .spec(name)
            .map_or(u128::MAX, ksa_models::ModelSpec::estimated_work);
        if estimate > HUNT_BUDGET {
            skipped.push(name.to_string());
            continue;
        }
        let model = layers::resolve(name, budget)?;
        match layers::round_sweep(rec, &model, 1, 2, budget) {
            Ok((rows, rc)) => {
                if !rows.iter().all(layers::Row::consistent) {
                    return Err(format!(
                        "{name}: measured connectivity below the prediction"
                    ));
                }
                complexes.push(rc);
            }
            Err(_) => {
                skipped.push(name.to_string());
                continue;
            }
        }
        let model = layers::resolve(name, RunBudget::DEFAULT)?;
        let sweep = layers::csp_sweep(rec, &model, 3, 2_000_000, 50_000_000)?;
        let certified = layers::lower_bound_k(rec, &model, 1)?;
        if let (Some(k0), Some(b)) = (certified, layers::solvable_boundary(&sweep)) {
            if b <= k0 && k0 <= 3 {
                return Err(format!(
                    "{name}: CSP solves k={b} but k={k0} is certified impossible"
                ));
            }
        }
        csp.0 += sweep.searched;
        csp.1 += sweep.seeded;
        csp.2 += sweep.pruned;
    }
    if skipped != setup.reference.skipped {
        return Err("replay skipped other models than the experiment".into());
    }
    Ok(Replay { complexes, csp })
}

/// The per-layer counts of one pass, taken from its deterministic tier.
pub fn det_value(det: &[(&'static str, u64)], c: Counter) -> u64 {
    det.iter()
        .find(|(name, _)| *name == c.name())
        .map_or(0, |&(_, v)| v)
}
