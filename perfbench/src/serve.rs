//! The `serve_mix` workload: a closed loop of in-process clients against a
//! `ksa-server` child process over its unix socket.
//!
//! A pass starts a fresh server with an empty cache directory and sends
//! the run's request sequence in two phases. The cold phase requests
//! every key of the key set once, in a seeded order: each is a miss that
//! computes, writes the cache entry with an fsync and renames it. The
//! warm phase repeats seeded keys: each is a hit, a checksummed read.
//! The phases are separated so that two clients never race on a key's
//! first request, which keeps the hit/miss split deterministic.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ksa_exec::ThreadPool;
use ksa_graphs::budget::RunBudget;
use ksa_obs::Counter;

use crate::hostref::HostRef;
use crate::inproc::det_value;
use crate::layers::{self, Computed, Query, Recorder, Site};
use crate::report::{Ctx, Outcome, PassTiming, TracedLayers};
use crate::stats::{median, percentile};

/// The n = 3 closed-above models of the builtin registry whose queries
/// all finish in well under a second.
const MODELS: [&str; 29] = [
    "kernel{n=3}",
    "path{n=3}",
    "path{n=3,sym}",
    "product(ring{n=3},ring{n=3})",
    "random{n=3,p=0.5,seed=0,count=4}",
    "random{n=3,p=0.5,seed=1,count=4}",
    "random{n=3,p=0.5,seed=2,count=4}",
    "random{n=3,p=0.5,seed=3,count=4}",
    "random{n=3,p=0.5,seed=4,count=4}",
    "random{n=3,p=0.5,seed=5,count=4}",
    "random{n=3,p=0.5,seed=6,count=4}",
    "random{n=3,p=0.5,seed=7,count=4}",
    "random{n=3,p=0.75,seed=0,count=4}",
    "random{n=3,p=0.75,seed=1,count=4}",
    "random{n=3,p=0.75,seed=2,count=4}",
    "random{n=3,p=0.75,seed=3,count=4}",
    "random{n=3,p=0.75,seed=4,count=4}",
    "random{n=3,p=0.75,seed=5,count=4}",
    "random{n=3,p=0.75,seed=6,count=4}",
    "random{n=3,p=0.75,seed=7,count=4}",
    "ring{n=3,sym}",
    "ring{n=3}",
    "stars{n=3,s=1}",
    "stars{n=3,s=2}",
    "stars{n=3,s=3}",
    "tournament{n=3}",
    "tree{n=3,sym}",
    "tree{n=3}",
    "union(ring{n=3},stars{n=3,s=2})",
];

/// Models whose two-round sweep takes 200 ms or more; only their
/// one-round sweep is in the key set.
const SLOW_ROUND_TWO: [&str; 3] = [
    "kernel{n=3}",
    "path{n=3,sym}",
    "random{n=3,p=0.5,seed=2,count=4}",
];

/// Warm-phase requests per key.
const HITS_PER_KEY: usize = 16;

/// The fixed key set: `solv` at k_max 2 and 3 and `rounds` at one and two
/// rounds (binary inputs) for every model.
pub fn key_set() -> Vec<Query> {
    let mut keys = Vec::new();
    for model in MODELS {
        for k_max in [2, 3] {
            keys.push(Query::Solv {
                model: model.to_string(),
                k_max,
            });
        }
        for rounds in [1, 2] {
            if rounds == 2 && SLOW_ROUND_TWO.contains(&model) {
                continue;
            }
            keys.push(Query::Rounds {
                model: model.to_string(),
                rounds,
            });
        }
    }
    keys
}

/// A pass's request order, as indices into [`key_set`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sequence {
    pub cold: Vec<usize>,
    pub warm: Vec<usize>,
}

/// The request sequence for `seed`: a shuffle of the key set, then
/// `HITS_PER_KEY` seeded repeats per key on average.
pub fn sequence(seed: u64, keys: usize) -> Sequence {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut cold: Vec<usize> = (0..keys).collect();
    for i in (1..keys).rev() {
        cold.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    let warm = (0..keys * HITS_PER_KEY)
        .map(|_| (next() % keys as u64) as usize)
        .collect();
    Sequence { cold, warm }
}

/// A `ksa-server` child with its own socket and cache directory. Dropping
/// it kills the child if it is still running and removes both paths.
struct Server {
    child: Option<Child>,
    socket: PathBuf,
    cache_dir: PathBuf,
}

impl Server {
    /// Starts the server and waits for its `listening` line.
    fn start(bin: &Path, run_dir: &Path, tag: &str) -> Result<Server, String> {
        let socket = run_dir.join(format!("{tag}.sock"));
        let cache_dir = run_dir.join(format!("{tag}-cache"));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let mut child = Command::new(bin)
            .arg("--socket")
            .arg(&socket)
            .arg("--cache-dir")
            .arg(&cache_dir)
            .args(["--workers", "2"])
            .env("KSA_THREADS", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let server = Server {
            child: Some(child),
            socket,
            cache_dir,
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("server output: {e}"))?;
        if !line.starts_with("listening on") {
            return Err(format!("server did not start: {line:?}"));
        }
        Ok(server)
    }

    /// The child's peak resident set (VmHWM) in MB.
    fn peak_rss_mb(&self) -> Option<f64> {
        let pid = self.child.as_ref()?.id();
        crate::peak_rss_mb(&format!("/proc/{pid}/status"))
    }

    /// Sends `shutdown` and waits for the child to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let reply = ksa_server::client::request(&self.socket, br#"{"query":"shutdown"}"#)
            .map_err(|e| format!("shutdown: {e}"));
        let status = self.child.take().map(|mut c| c.wait());
        reply?;
        match status {
            Some(Ok(s)) if s.success() => Ok(()),
            other => Err(format!("server exited badly: {other:?}")),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

/// One request's result as a client saw it.
struct Reply {
    key: usize,
    ms: f64,
    frames: Result<Vec<Vec<u8>>, String>,
}

/// Sends `order` from `clients` closed-loop client threads and returns
/// the replies in completion order with each client's recorder.
fn send_all(
    socket: &Path,
    payloads: &[String],
    order: &[usize],
    clients: usize,
) -> (Vec<Reply>, Recorder) {
    let next = AtomicUsize::new(0);
    let per_client: Vec<(Vec<Reply>, Recorder)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut rec = Recorder::default();
                    let mut replies = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&key) = order.get(i) else {
                            break;
                        };
                        let start = Instant::now();
                        let frames = layers::connect(&mut rec, socket)
                            .and_then(|stream| {
                                layers::roundtrip(&mut rec, stream, payloads[key].as_bytes())
                            })
                            .map_err(|e| e.to_string());
                        replies.push(Reply {
                            key,
                            ms: start.elapsed().as_secs_f64() * 1e3,
                            frames,
                        });
                    }
                    (replies, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    let mut rec = Recorder::default();
    for (replies, r) in per_client {
        all.extend(replies);
        rec.merge(&r);
    }
    (all, rec)
}

/// The terminal frame of a reply, checked to be a `result`.
fn result_frame(reply: &Reply) -> Result<&[u8], String> {
    let frames = reply.frames.as_ref().map_err(Clone::clone)?;
    let last = frames
        .last()
        .ok_or("connection closed without a response")?;
    let value = ksa_server::json::parse(last)?;
    match value.get("event").and_then(|v| v.as_str()) {
        Some("result") => Ok(last),
        other => Err(format!(
            "terminal frame is {other:?}: {}",
            String::from_utf8_lossy(last)
        )),
    }
}

/// One pass's measurements.
#[derive(Default)]
struct PassStats {
    ms: f64,
    miss_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    connect_ms: Vec<f64>,
    roundtrip_ms: Vec<f64>,
    response_bytes: u64,
    shed: u64,
    peak_rss_mb: f64,
    /// Each key's miss response, byte for byte.
    responses: BTreeMap<usize, Vec<u8>>,
}

/// Everything a `serve_mix` run shares between passes.
pub struct Setup {
    bin: PathBuf,
    run_dir: PathBuf,
    keys: Vec<Query>,
    payloads: Vec<String>,
    seq: Sequence,
    /// Each key's response in the warm-up pass.
    reference: BTreeMap<usize, Vec<u8>>,
    /// The server's peak resident set in the warm-up pass.
    warm_up_rss_mb: f64,
    passes: usize,
}

impl Setup {
    pub fn warm_up_rss_mb(&self) -> f64 {
        self.warm_up_rss_mb
    }
}

/// Starts a server, runs the warm-up pass with one client and keeps its
/// responses as the reference every later pass must reproduce. (One
/// client keeps the server's memory peak repeatable.)
pub fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let bin = ctx
        .server_bin
        .clone()
        .ok_or("serve_mix needs --server-bin")?;
    let keys = key_set();
    let payloads = keys.iter().map(Query::request_json).collect();
    let mut setup = Setup {
        bin,
        run_dir: ctx.run_dir.clone(),
        // Set-up sends the seed-0 sequence: the same work under every seed.
        seq: sequence(0, keys.len()),
        keys,
        payloads,
        reference: BTreeMap::new(),
        warm_up_rss_mb: 0.0,
        passes: 0,
    };
    let mut outcome = Outcome::default();
    let warm_up = run_pass(&mut setup, 1, &mut outcome)?;
    if let Some(e) = outcome.first_error {
        return Err(format!("warm-up pass failed: {e}"));
    }
    setup.reference = warm_up.responses;
    setup.warm_up_rss_mb = warm_up.peak_rss_mb;
    setup.seq = sequence(ctx.seed, setup.keys.len());
    Ok(setup)
}

/// Runs one pass on a fresh server. Request failures are recorded in
/// `outcome`; an error return means the server itself misbehaved.
fn run_pass(setup: &mut Setup, clients: usize, outcome: &mut Outcome) -> Result<PassStats, String> {
    setup.passes += 1;
    let tag = format!("s{}-{}", std::process::id(), setup.passes);
    let server = Server::start(&setup.bin, &setup.run_dir, &tag)?;
    let mut stats = PassStats::default();
    let start = Instant::now();
    let (cold, cold_rec) = send_all(&server.socket, &setup.payloads, &setup.seq.cold, clients);
    let (warm, warm_rec) = send_all(&server.socket, &setup.payloads, &setup.seq.warm, clients);
    stats.ms = start.elapsed().as_secs_f64() * 1e3;
    stats.peak_rss_mb = server
        .peak_rss_mb()
        .ok_or("cannot read the server's VmHWM")?;
    server.shutdown()?;

    let mut rec = cold_rec;
    rec.merge(&warm_rec);
    let per_call = |site: Site| rec.ms(site) / rec.calls(site).max(1) as f64;
    stats.connect_ms.push(per_call(Site::ServerConnect));
    stats.roundtrip_ms.push(per_call(Site::ServerRoundtrip));
    for reply in &cold {
        let checked = result_frame(reply).map(|frame| {
            stats.responses.insert(reply.key, frame.to_vec());
        });
        account(&mut stats, reply, &checked);
        stats.miss_ms.push(reply.ms);
        outcome.record(
            checked.and_then(|()| match setup.reference.get(&reply.key) {
                Some(want) if *want != stats.responses[&reply.key] => Err(format!(
                    "key {} answered differently than in the warm-up pass",
                    reply.key
                )),
                _ => Ok(()),
            }),
        );
    }
    for reply in &warm {
        let checked = result_frame(reply).and_then(|frame| {
            if Some(frame) != stats.responses.get(&reply.key).map(Vec::as_slice) {
                return Err(format!("hit on key {} differs from its miss", reply.key));
            }
            if reply.frames.as_ref().map_or(0, Vec::len) != 1 {
                return Err(format!(
                    "repeat of key {} was recomputed, not a cache hit",
                    reply.key
                ));
            }
            Ok(())
        });
        account(&mut stats, reply, &checked);
        stats.hit_ms.push(reply.ms);
        outcome.record(checked);
    }
    Ok(stats)
}

fn account(stats: &mut PassStats, reply: &Reply, checked: &Result<(), String>) {
    if let Ok(frames) = &reply.frames {
        stats.response_bytes += frames.iter().map(|f| f.len() as u64).sum::<u64>();
        if checked.is_err()
            && frames
                .last()
                .is_some_and(|f| f.starts_with(br#"{"event":"overloaded""#))
        {
            stats.shed += 1;
        }
    }
}

/// The untraced run: passes alternate between one and two clients, each
/// preceded by one run of the host reference kernel.
pub fn run(ctx: &Ctx, setup: &mut Setup, host: &HostRef) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut timing = PassTiming::default();
    let first = (ctx.seed % 2) as usize;
    let deadline = Instant::now() + Duration::from_secs(ctx.seconds);
    while Instant::now() < deadline || timing.is_empty() {
        for slot in [first, 1 - first] {
            let ref_ms = host.run_ms();
            let stats = run_pass(setup, slot + 1, &mut outcome)?;
            timing.push(slot, stats.ms, ref_ms);
        }
    }
    outcome.timing = timing;
    Ok(outcome)
}

/// The traced run: client passes with spans on, the cache layer timed
/// directly on the pass's payloads, and an in-process replay of every
/// miss's computation split by layer.
pub fn run_traced(
    ctx: &Ctx,
    setup: &mut Setup,
    host: &HostRef,
) -> Result<(Outcome, TracedLayers), String> {
    let mut outcome = Outcome::default();
    let mut traced = TracedLayers::default();
    let third = Duration::from_secs(ctx.seconds) / 3;

    // Untraced passes: raw pass times and the overhead baseline.
    let phase = Instant::now();
    while phase.elapsed() < third || traced.untraced_pass_ms[1].is_empty() {
        for clients in [1, 2] {
            traced.ref_ms.push(host.run_ms());
            traced.untraced_pass_ms[clients - 1].push(run_pass(setup, clients, &mut outcome)?.ms);
        }
    }

    ksa_obs::trace_start();
    let mut all = PassStats::default();
    let mut traced_single = Vec::new();
    let mut throughput = Vec::new();
    let mut shed = Vec::new();
    let mut bytes = Vec::new();
    let phase = Instant::now();
    while phase.elapsed() < third || throughput.is_empty() {
        for clients in [1, 2] {
            traced.ref_ms.push(host.run_ms());
            let stats = run_pass(setup, clients, &mut outcome)?;
            let requests = (setup.seq.cold.len() + setup.seq.warm.len()) as f64;
            if clients == 1 {
                traced_single.push(stats.ms);
            } else {
                throughput.push(requests / (stats.ms / 1e3));
            }
            shed.push(stats.shed as f64);
            bytes.push(stats.response_bytes as f64);
            all.miss_ms.extend(stats.miss_ms);
            all.hit_ms.extend(stats.hit_ms);
            all.connect_ms.extend(stats.connect_ms);
            all.roundtrip_ms.extend(stats.roundtrip_ms);
        }
    }
    let tail = |xs: &[f64], p: f64| {
        percentile(xs, p).ok_or_else(|| format!("too few samples for p{p} ({})", xs.len()))
    };
    let server = &mut traced.server;
    server.insert("server.miss_ms_p50", tail(&all.miss_ms, 50.0)?);
    server.insert("server.miss_ms_p90", tail(&all.miss_ms, 90.0)?);
    server.insert("server.hit_ms_p50", tail(&all.hit_ms, 50.0)?);
    server.insert("server.hit_ms_p90", tail(&all.hit_ms, 90.0)?);
    server.insert("server.connect_ms", median(&all.connect_ms).unwrap_or(0.0));
    server.insert(
        "server.roundtrip_ms",
        median(&all.roundtrip_ms).unwrap_or(0.0),
    );
    server.insert("server.requests_per_s", median(&throughput).unwrap_or(0.0));
    server.insert("server.requests_shed", median(&shed).unwrap_or(0.0));
    server.insert("server.response_bytes", median(&bytes).unwrap_or(0.0));

    cache_probe(setup, &mut traced, &mut outcome)?;
    miss_replay(setup, &mut traced, &mut outcome, third);
    traced.chrome_trace = ksa_obs::trace_stop();
    traced.traced_pass_ms = traced_single;
    Ok((outcome, traced))
}

/// Replays the pass's request order against a benchmark-owned cache:
/// each miss writes the server's response for that key, each hit reads
/// it back. Times `Cache::get` on hits and `Cache::put` on misses.
fn cache_probe(
    setup: &Setup,
    traced: &mut TracedLayers,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let mut get_ms = Vec::new();
    let mut put_ms = Vec::new();
    let mut det = Vec::new();
    for round in 0..CACHE_PROBE_ROUNDS {
        let dir = setup
            .run_dir
            .join(format!("probe-{}-{round}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = layers::open_cache(&dir).map_err(|e| format!("probe cache: {e}"))?;
        let before = ksa_obs::snapshot();
        let (mut gets, mut puts) = (Recorder::default(), Recorder::default());
        for &key in setup.seq.cold.iter().chain(&setup.seq.warm) {
            let name = layers::server_cache_key(&setup.keys[key]);
            let payload = String::from_utf8_lossy(&setup.reference[&key]).into_owned();
            let mut get = Recorder::default();
            match layers::cache_get(&mut get, &cache, &name) {
                Some(hit) => {
                    gets.merge(&get);
                    outcome.record(if hit == payload {
                        Ok(())
                    } else {
                        Err(format!("cache returned another payload for key {key}"))
                    });
                }
                None => outcome.record(
                    layers::cache_put(&mut puts, &cache, &name, &payload)
                        .map_err(|e| e.to_string()),
                ),
            }
        }
        det = ksa_obs::snapshot().det_delta(&before);
        let _ = std::fs::remove_dir_all(&dir);
        get_ms.push(gets.ms(Site::CacheGet) / gets.calls(Site::CacheGet).max(1) as f64);
        put_ms.push(puts.ms(Site::CachePut) / puts.calls(Site::CachePut).max(1) as f64);
    }
    let hits = det_value(&det, Counter::CacheHits) as f64;
    let misses = det_value(&det, Counter::CacheMisses) as f64;
    let server = &mut traced.server;
    server.insert("server.cache_get_ms", median(&get_ms).unwrap_or(0.0));
    server.insert("server.cache_put_ms", median(&put_ms).unwrap_or(0.0));
    server.insert("server.cache_hit_ratio", hits / (hits + misses).max(1.0));
    server.insert(
        "server.cache_writes",
        det_value(&det, Counter::CacheWrites) as f64,
    );
    Ok(())
}

/// Fresh cache directories the cache layer is timed on per traced run.
const CACHE_PROBE_ROUNDS: usize = 3;

/// Replays each key's miss computation in-process on a one-worker pool
/// (the server runs with `KSA_THREADS=1`), with a span per layer call.
fn miss_replay(setup: &Setup, traced: &mut TracedLayers, outcome: &mut Outcome, budget: Duration) {
    let pool = ThreadPool::new(1);
    let budget_of_server = RunBudget::new(ksa_server::server::EXEC_LIMIT as u128);
    for model in MODELS {
        outcome.record(layers::resolve(model, budget_of_server));
    }
    let mut materialize = Recorder::default();
    outcome.record(layers::materialize_all(
        &mut materialize,
        &MODELS,
        budget_of_server,
    ));
    traced.push_site(&materialize, Site::Materialize);
    traced.materializations = materialize.calls(Site::Materialize);
    let phase = Instant::now();
    while phase.elapsed() < budget || traced.passes.is_empty() {
        let mut rec = Recorder::default();
        let before = ksa_obs::snapshot();
        let start = Instant::now();
        let result: Result<Vec<_>, String> = pool.install(|| {
            let _span = ksa_obs::span("perfbench", || "pass");
            setup
                .seq
                .cold
                .iter()
                .map(|&key| setup.keys[key].compute(&mut rec))
                .collect()
        });
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let det = ksa_obs::snapshot().det_delta(&before);
        match result {
            Ok(computed) => {
                let mut complexes = Vec::new();
                traced.csp = (0, 0, 0);
                for c in &computed {
                    match c {
                        Computed::Sweep(sweep) => {
                            traced.csp.0 += sweep.searched;
                            traced.csp.1 += sweep.seeded;
                            traced.csp.2 += sweep.pruned;
                        }
                        Computed::Rounds(rc) => complexes.extend(rc.complexes()),
                    }
                }
                let mut chain = Recorder::default();
                pool.install(|| layers::chain_split(&mut chain, complexes));
                traced.push_site(&chain, Site::ChainClosure);
                traced.push_site(&chain, Site::ChainRank);
                if !traced.det.is_empty() && traced.det != det {
                    outcome
                        .record::<()>(Err("miss replay did different work across passes".into()));
                } else {
                    outcome.record(Ok(()));
                }
                traced.det = det;
                traced.push_pass(&rec, wall_ms);
            }
            Err(e) => outcome.record::<()>(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_request_sequence() {
        let keys = key_set().len();
        assert_eq!(sequence(11, keys), sequence(11, keys));
        assert_ne!(sequence(11, keys), sequence(12, keys));
    }

    #[test]
    fn cold_phase_requests_every_key_once_and_warm_phase_only_repeats() {
        let keys = key_set().len();
        let seq = sequence(3, keys);
        let mut cold = seq.cold.clone();
        cold.sort_unstable();
        assert_eq!(cold, (0..keys).collect::<Vec<_>>());
        assert_eq!(seq.warm.len(), keys * HITS_PER_KEY);
        assert!(seq.warm.iter().all(|&k| k < keys));
    }

    #[test]
    fn key_set_requests_parse_and_keys_are_distinct() {
        let keys = key_set();
        for query in &keys {
            let value =
                ksa_server::json::parse(query.request_json().as_bytes()).expect("valid JSON");
            ksa_server::protocol::Request::from_json(&value).expect("a request the server accepts");
        }
        let mut cache_keys: Vec<String> = keys.iter().map(layers::server_cache_key).collect();
        cache_keys.sort();
        cache_keys.dedup();
        assert_eq!(cache_keys.len(), keys.len());
    }
}
