//! Every call the benchmark makes into the workspace crates, and the
//! timers around them.
//!
//! Each layer call goes through [`Recorder::time`], which adds its wall
//! time to the layer's per-pass total and, while a trace is being
//! collected, opens a `ksa_obs` span named after the layer. Keeping the
//! calls in this one module means a change to a crate's entry points
//! edits the benchmark in one place.
//!
//! The replays below repeat, call for call, what the `rounds` and `hunt`
//! experiments and the server's `solv`/`rounds` queries do, so a traced
//! pass can split their time by layer from outside the crates.

use std::io;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use ksa_bench::ExperimentOutcome;
use ksa_cert::Cert;
use ksa_core::bounds::lower::best_lower_bound;
use ksa_core::solvability::{decide_one_round_sweep, KSweep, Solvability};
use ksa_core::task::{input_complex, Value};
use ksa_graphs::budget::RunBudget;
use ksa_models::{registry, ClosedAboveModel, ModelSpec, ObliviousModel};
use ksa_server::cache::Cache;
use ksa_topology::chain::{reduced_betti_certified, ChainComplex};
use ksa_topology::complex::Complex;
use ksa_topology::connectivity::Connectivity;
use ksa_topology::interpretation::protocol_complex_one_round;
use ksa_topology::rounds::{protocol_complex_rounds, RoundsComplex};

/// A timed layer call. The name is the per-layer metric's stem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// `ModelSpec::materialize`.
    Materialize,
    /// `protocol_complex_rounds` (and the round-1 anchor's rebuild).
    RoundsBuild,
    /// `ChainComplex::from_complex`.
    ChainClosure,
    /// `ChainComplex::reduced_betti`.
    ChainRank,
    /// `RoundsComplex::homology_sweep`.
    ChainSweep,
    /// `reduced_betti_certified`.
    CertProduce,
    /// `Cert::check`.
    CertCheck,
    /// `best_lower_bound`.
    BoundsLower,
    /// `decide_one_round_sweep`.
    CspSweep,
    /// `client::connect_with_retry`.
    ServerConnect,
    /// `client::roundtrip`.
    ServerRoundtrip,
    /// `Cache::get`.
    CacheGet,
    /// `Cache::put`.
    CachePut,
    /// `ksa_bench::run_experiment`, the whole untraced pass.
    Experiment,
}

impl Site {
    pub const ALL: [Site; 14] = [
        Site::Materialize,
        Site::RoundsBuild,
        Site::ChainClosure,
        Site::ChainRank,
        Site::ChainSweep,
        Site::CertProduce,
        Site::CertCheck,
        Site::BoundsLower,
        Site::CspSweep,
        Site::ServerConnect,
        Site::ServerRoundtrip,
        Site::CacheGet,
        Site::CachePut,
        Site::Experiment,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Site::Materialize => "models.materialize",
            Site::RoundsBuild => "rounds.build",
            Site::ChainClosure => "chain.closure",
            Site::ChainRank => "chain.rank",
            Site::ChainSweep => "chain.sweep",
            Site::CertProduce => "cert.produce",
            Site::CertCheck => "cert.check",
            Site::BoundsLower => "bounds.lower",
            Site::CspSweep => "csp.sweep",
            Site::ServerConnect => "server.connect",
            Site::ServerRoundtrip => "server.roundtrip",
            Site::CacheGet => "server.cache_get",
            Site::CachePut => "server.cache_put",
            Site::Experiment => "experiment",
        }
    }
}

/// Per-pass wall time and call count of every [`Site`].
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    total: [Duration; Site::ALL.len()],
    calls: [u64; Site::ALL.len()],
}

impl Recorder {
    /// Runs `f` as one call of `site`.
    pub fn time<R>(&mut self, site: Site, f: impl FnOnce() -> R) -> R {
        let _span = ksa_obs::span("perfbench", || site.name());
        let start = Instant::now();
        let out = f();
        self.total[site as usize] += start.elapsed();
        self.calls[site as usize] += 1;
        out
    }

    /// Total milliseconds spent in `site`.
    pub fn ms(&self, site: Site) -> f64 {
        self.total[site as usize].as_secs_f64() * 1e3
    }

    /// Calls made to `site`.
    pub fn calls(&self, site: Site) -> u64 {
        self.calls[site as usize]
    }

    /// Milliseconds spent in every site but [`Site::Experiment`]: the
    /// attributed part of a replay pass.
    pub fn attributed_ms(&self) -> f64 {
        Site::ALL
            .iter()
            .filter(|&&s| s != Site::Experiment)
            .map(|&s| self.ms(s))
            .sum()
    }

    /// Adds another recorder's totals to this one.
    pub fn merge(&mut self, other: &Recorder) {
        for i in 0..Site::ALL.len() {
            self.total[i] += other.total[i];
            self.calls[i] += other.calls[i];
        }
    }
}

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One untraced pass: the experiment exactly as `experiments <id>` runs it.
pub fn experiment(rec: &mut Recorder, id: &str) -> Res<ExperimentOutcome> {
    rec.time(Site::Experiment, || ksa_bench::run_experiment(id))
}

/// Resolves a closed-above model through the builtin registry (a cache
/// lookup once the model has been materialized in this process).
pub fn resolve(name: &str, budget: RunBudget) -> Res<ClosedAboveModel> {
    registry::builtin()
        .resolve_closed_above(name, budget)
        .map_err(err)
}

/// Materializes each named model from its spec, bypassing the registry
/// cache, so the cost is paid on every call.
pub fn materialize_all(rec: &mut Recorder, names: &[&str], budget: RunBudget) -> Res<()> {
    for name in names {
        let spec: ModelSpec = match registry::builtin().spec(name) {
            Some(spec) => spec.clone(),
            None => name.parse().map_err(err)?,
        };
        rec.time(Site::Materialize, || spec.materialize(budget))
            .map_err(err)?;
    }
    Ok(())
}

/// One round of a sweep, as the cross-check reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    pub round: usize,
    pub predicted_l: isize,
    pub measured_connectivity: isize,
    pub betti: Vec<usize>,
}

impl Row {
    pub fn consistent(&self) -> bool {
        self.measured_connectivity >= self.predicted_l
    }
}

fn predicted_l(rec: &mut Recorder, model: &ClosedAboveModel, r: usize) -> Res<isize> {
    let lower = rec
        .time(Site::BoundsLower, || best_lower_bound(model, r))
        .map_err(err)?;
    Ok(lower.map_or(-1, |b| b.impossible_k as isize - 1))
}

fn build_rounds(
    rec: &mut Recorder,
    model: &ClosedAboveModel,
    value_max: usize,
    rounds: usize,
    budget: RunBudget,
) -> Res<RoundsComplex<Value>> {
    let input = input_complex(model.n(), value_max, budget.max_executions).map_err(err)?;
    rec.time(Site::RoundsBuild, || {
        protocol_complex_rounds(model.generators(), &input, rounds, budget)
    })
    .map_err(err)
}

/// The uncertified round sweep (`cross_check_round_sweep`): one chain
/// sweep over all rounds, then the lower bound per round. Returns the
/// rows and the round complexes.
pub fn round_sweep(
    rec: &mut Recorder,
    model: &ClosedAboveModel,
    value_max: usize,
    rounds: usize,
    budget: RunBudget,
) -> Res<(Vec<Row>, RoundsComplex<Value>)> {
    let rc = build_rounds(rec, model, value_max, rounds, budget)?;
    let steps = rec.time(Site::ChainSweep, || rc.homology_sweep());
    let mut rows = Vec::with_capacity(rounds);
    for (r, step) in (1..=rounds).zip(steps) {
        let measured_connectivity = match step.connectivity {
            Connectivity::Empty => -2,
            Connectivity::Exactly(k) | Connectivity::AtLeast(k) => k,
        };
        rows.push(Row {
            round: r,
            predicted_l: predicted_l(rec, model, r)?,
            measured_connectivity,
            betti: step.betti,
        });
    }
    Ok((rows, rc))
}

/// The certified round sweep (`cross_check_round_sweep_certified`) plus
/// the in-run check of every certificate, as the `rounds` experiment
/// does it. Returns the rows, the certificate texts and the complexes.
pub fn certified_round_sweep(
    rec: &mut Recorder,
    model: &ClosedAboveModel,
    label: &str,
    rounds: usize,
    budget: RunBudget,
) -> Res<(Vec<Row>, Vec<String>, RoundsComplex<Value>)> {
    let rc = build_rounds(rec, model, 1, rounds, budget)?;
    let mut rows = Vec::with_capacity(rounds);
    let mut certs = Vec::with_capacity(rounds);
    for r in 1..=rounds {
        let complex = rc.complex_at(r).ok_or("round was not materialized")?;
        let predicted_l = predicted_l(rec, model, r)?;
        let (betti, cert) = rec
            .time(Site::CertProduce, || {
                reduced_betti_certified(complex, &format!("{label} r={r}"))
            })
            .ok_or("protocol complex is void")?;
        rows.push(Row {
            round: r,
            predicted_l,
            measured_connectivity: cert.connectivity as isize,
            betti,
        });
        certs.push(Cert::Homology(cert));
    }
    let mut texts = Vec::with_capacity(certs.len());
    for cert in certs {
        rec.time(Site::CertCheck, || cert.check())
            .map_err(|e| format!("certificate `{}` rejected: {e}", cert.label()))?;
        texts.push(cert.to_text());
    }
    Ok((rows, texts, rc))
}

/// The `rounds` experiment's round-1 anchor: the interned round-1
/// complex expands to exactly the one-round protocol complex.
pub fn round_one_anchor(
    rec: &mut Recorder,
    model: &ClosedAboveModel,
    budget: RunBudget,
) -> Res<bool> {
    let input = input_complex(3, 1, budget.max_executions).map_err(err)?;
    rec.time(Site::RoundsBuild, || {
        let rc = protocol_complex_rounds(model.generators(), &input, 1, budget).map_err(err)?;
        let direct = protocol_complex_one_round(model.generators(), &input, budget.max_executions)
            .map_err(err)?;
        Ok(rc.expand_round_one() == direct)
    })
}

/// The one-round CSP k-sweep. Returns the verdict names and the sweep's
/// (searched, seeded, pruned) accounting.
pub fn csp_sweep(
    rec: &mut Recorder,
    model: &ClosedAboveModel,
    k_max: usize,
    exec_limit: usize,
    node_budget: usize,
) -> Res<KSweep> {
    rec.time(Site::CspSweep, || {
        decide_one_round_sweep(model, k_max, exec_limit, node_budget)
    })
    .map_err(err)
}

/// The lower bound at one round, as `hunt` confronts it with the CSP.
pub fn lower_bound_k(rec: &mut Recorder, model: &ClosedAboveModel, r: usize) -> Res<Option<usize>> {
    rec.time(Site::BoundsLower, || best_lower_bound(model, r))
        .map(|b| b.map(|b| b.impossible_k))
        .map_err(err)
}

/// The smallest solvable `k` of a sweep, if any.
pub fn solvable_boundary(sweep: &KSweep) -> Option<usize> {
    sweep
        .verdicts
        .iter()
        .position(Solvability::is_solvable)
        .map(|i| i + 1)
}

/// Splits the chain engine's work on `complexes` into face closure and
/// rank reduction by calling the two stages separately.
pub fn chain_split<'a>(
    rec: &mut Recorder,
    complexes: impl IntoIterator<Item = &'a Complex<u32>>,
) -> Vec<Vec<usize>> {
    complexes
        .into_iter()
        .map(|complex| {
            let mut cc = rec.time(Site::ChainClosure, || ChainComplex::from_complex(complex));
            rec.time(Site::ChainRank, || cc.reduced_betti())
        })
        .collect()
}

/// Connects to the server socket (bounded retry, as the `ksa` client).
pub fn connect(rec: &mut Recorder, socket: &Path) -> io::Result<UnixStream> {
    rec.time(Site::ServerConnect, || {
        ksa_server::client::connect_with_retry(socket, 50, 10)
    })
}

/// Sends one request and collects every response frame.
pub fn roundtrip(
    rec: &mut Recorder,
    stream: UnixStream,
    request: &[u8],
) -> io::Result<Vec<Vec<u8>>> {
    rec.time(Site::ServerRoundtrip, || {
        ksa_server::client::roundtrip(stream, request)
    })
}

/// Opens a response cache directory.
pub fn open_cache(dir: &Path) -> io::Result<Cache> {
    Cache::open(dir)
}

/// A checksummed cache read.
pub fn cache_get(rec: &mut Recorder, cache: &Cache, key: &str) -> Option<String> {
    rec.time(Site::CacheGet, || cache.get(key))
}

/// A crash-safe cache write (temp file, fsync, rename).
pub fn cache_put(rec: &mut Recorder, cache: &Cache, key: &str, payload: &str) -> io::Result<()> {
    rec.time(Site::CachePut, || cache.put(key, payload))
}

/// The server's canonical cache key for a request (the format of
/// `ksa_server::server`, which keeps it private).
pub fn server_cache_key(query: &Query) -> String {
    use ksa_server::server::{EXEC_LIMIT, NODE_BUDGET};
    match query {
        Query::Solv { model, k_max } => {
            format!("solv|{model}|k_max={k_max}|exec={EXEC_LIMIT}|node={NODE_BUDGET}")
        }
        Query::Rounds { model, rounds } => {
            format!("rounds|{model}|value_max=1|rounds={rounds}|exec={EXEC_LIMIT}")
        }
    }
}

/// A server query of the `serve_mix` key set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    Solv { model: String, k_max: usize },
    Rounds { model: String, rounds: usize },
}

impl Query {
    /// The request frame payload.
    pub fn request_json(&self) -> String {
        match self {
            Query::Solv { model, k_max } => {
                format!(r#"{{"query":"solv","model":"{model}","k_max":{k_max}}}"#)
            }
            Query::Rounds { model, rounds } => {
                format!(r#"{{"query":"rounds","model":"{model}","value_max":1,"rounds":{rounds}}}"#)
            }
        }
    }

    /// Replays in-process what the server computes on a miss for this
    /// query, under the server's budgets.
    pub fn compute(&self, rec: &mut Recorder) -> Res<Computed> {
        use ksa_server::server::{EXEC_LIMIT, NODE_BUDGET};
        let budget = RunBudget::new(EXEC_LIMIT as u128);
        match self {
            Query::Solv { model, k_max } => {
                let model = resolve(model, budget)?;
                csp_sweep(rec, &model, *k_max, EXEC_LIMIT, NODE_BUDGET).map(Computed::Sweep)
            }
            Query::Rounds { model, rounds } => {
                let model = resolve(model, budget)?;
                let (_, rc) = round_sweep(rec, &model, 1, *rounds, budget)?;
                Ok(Computed::Rounds(rc))
            }
        }
    }
}

/// What a miss computes: a `solv` k-sweep or a `rounds` query's complexes.
pub enum Computed {
    Sweep(KSweep),
    Rounds(RoundsComplex<Value>),
}
