//! The analysis server: acceptor threads, bounded queue, worker pool
//! (DESIGN.md §12.1).
//!
//! Life of a request: one of [`FRONT_THREADS`] long-lived acceptor
//! threads accepts the connection and reads the single request frame,
//! which must arrive within [`REQUEST_READ_TIMEOUT`]. Bad frames and
//! `shutdown` are answered right there. A cacheable `solv`/`rounds`
//! request is looked up in the cache once, on the acceptor, and a hit
//! is replayed from it without touching the queue. Misses, `no_cache`
//! requests and `ping` go to the bounded job queue, and a miss carries
//! the key it missed on, so the worker computes and publishes without
//! a second lookup. A full queue sheds the request immediately with an
//! `overloaded` frame (`requests_shed` perf counter) — the server
//! prefers fast refusal over unbounded memory. The thread count is
//! fixed: acceptors plus workers, however many connections are open.
//! A failed `accept` (`accept_failures` perf counter) puts its acceptor
//! to sleep for [`ACCEPT_RETRY_DELAY`] before it retries.
//!
//! Acceptors handle each connection, and workers each job, under
//! `catch_unwind`: a panic produces a structured `error` frame
//! (`kind: "panic"`, `requests_panicked` perf counter) and the thread
//! keeps serving.
//!
//! Deadlines become [`CancelToken`]s threaded through the whole compute
//! pipeline; a failed progress write (the client hung up mid-stream)
//! cancels the token so the computation stops instead of finishing for
//! nobody.

use std::collections::VecDeque;
use std::io::{self, Read};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ksa_core::budget::{CancelToken, Deadline, Run, RunBudget};
use ksa_core::error::CoreError;
use ksa_obs as obs;

use crate::cache::Cache;
use crate::framing::{read_frame, write_frame};
use crate::json::{obj, parse, Value};
use crate::protocol::{error_frame, overloaded_frame, progress_frame, ErrorKind, Request};

/// The execution budget every query runs under. Fixed server-side so
/// cache keys are canonical: the same request always means the same
/// computation.
pub const EXEC_LIMIT: usize = 2_000_000;
/// CSP node budget, fixed like [`EXEC_LIMIT`].
pub const NODE_BUDGET: usize = 50_000_000;
/// `retry_after_ms` hint carried by `overloaded` frames.
pub const RETRY_AFTER_MS: u64 = 50;
/// Acceptor threads: each accepts connections, reads their request
/// frame and answers cache hits itself.
pub const FRONT_THREADS: usize = 4;
/// How long an acceptor waits for a connection's whole request frame
/// before it answers `bad_request` and drops the connection, so a
/// silent or trickling client cannot hold an acceptor. It also bounds
/// how long shutdown waits for a busy acceptor.
pub const REQUEST_READ_TIMEOUT: Duration = Duration::from_secs(2);
/// How long an acceptor sleeps after a failed `accept` before it tries
/// again, so a persistent failure such as `EMFILE` (out of file
/// descriptors) does not spin every acceptor at full CPU.
pub const ACCEPT_RETRY_DELAY: Duration = Duration::from_millis(50);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Unix socket path to listen on.
    pub socket: PathBuf,
    /// Response cache directory.
    pub cache_dir: PathBuf,
    /// Bounded job-queue capacity; a full queue sheds requests.
    pub queue_cap: usize,
    /// Worker threads. `0` is allowed (useful in tests: nothing drains
    /// the queue, so shedding is deterministic).
    pub workers: usize,
}

/// A request bound for the worker pool.
struct Job {
    request: Request,
    /// The cache key this request already missed on; the worker
    /// publishes a successful result under it. `None` for `ping` and
    /// `no_cache` requests.
    key: Option<String>,
    stream: UnixStream,
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    stop: AtomicBool,
    queue_cap: usize,
    cache: Cache,
    socket: PathBuf,
}

/// A running server. Dropping the handle does not stop the server; call
/// [`Handle::shutdown`] (or send a `shutdown` request).
pub struct Handle {
    shared: Arc<Shared>,
    acceptors: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Handle {
    /// The socket path the server is listening on.
    #[must_use]
    pub fn socket(&self) -> &PathBuf {
        &self.shared.socket
    }

    /// Current job-queue depth. A test helper: with `workers: 0`
    /// nothing drains the queue, so tests can fill it to capacity and
    /// observe deterministic shedding.
    #[doc(hidden)]
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.shared.queue.lock().unwrap().len()
    }

    /// Stop the server and join all its threads.
    pub fn shutdown(self) {
        request_stop(&self.shared);
        self.join();
    }

    /// Block until the server stops (via a `shutdown` request), then
    /// join all threads.
    pub fn wait(self) {
        self.join();
    }

    fn join(self) {
        for thread in self.acceptors.into_iter().chain(self.workers) {
            let _ = thread.join();
        }
        let _ = std::fs::remove_file(&self.shared.socket);
    }
}

fn request_stop(shared: &Shared) {
    {
        // Under the queue lock, so no worker sits between its stop
        // check and its wait while the notification goes out.
        let _queue = shared.queue.lock().unwrap();
        shared.stop.store(true, Ordering::SeqCst);
        shared.available.notify_all();
    }
    // Acceptors block in `accept`; poke each with a throwaway
    // connection so it observes the stop flag. One busy reading a
    // request sees the flag once that read ends.
    for _ in 0..FRONT_THREADS {
        let _ = UnixStream::connect(&shared.socket);
    }
}

/// Bind the socket and start the acceptors and worker pool.
///
/// # Errors
///
/// Any I/O error binding the socket or opening the cache directory.
pub fn start(config: Config) -> std::io::Result<Handle> {
    let _ = std::fs::remove_file(&config.socket);
    let listener = UnixListener::bind(&config.socket)?;
    let listeners = (0..FRONT_THREADS)
        .map(|_| listener.try_clone())
        .collect::<io::Result<Vec<_>>>()?;
    drop(listener);
    let cache = Cache::open(&config.cache_dir)?;
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        stop: AtomicBool::new(false),
        queue_cap: config.queue_cap.max(1),
        cache,
        socket: config.socket.clone(),
    });

    let workers = (0..config.workers)
        .map(|i| spawn_thread(format!("ksa-worker-{i}"), &shared, worker_loop))
        .collect();
    let acceptors = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            spawn_thread(format!("ksa-accept-{i}"), &shared, move |shared| {
                acceptor_loop(&listener, shared);
            })
        })
        .collect();

    Ok(Handle {
        shared,
        acceptors,
        workers,
    })
}

fn spawn_thread(
    name: String,
    shared: &Arc<Shared>,
    body: impl FnOnce(&Shared) + Send + 'static,
) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(name)
        .spawn(move || body(&shared))
        .expect("spawn server thread")
}

fn acceptor_loop(listener: &UnixListener, shared: &Shared) {
    while !shared.stop.load(Ordering::SeqCst) {
        let accepted =
            ksa_faults::maybe_io_error(ksa_faults::Site::AcceptIo).and_then(|()| listener.accept());
        let Ok((mut stream, _)) = accepted else {
            obs::perf_count(obs::PerfCounter::AcceptFailures, 1);
            std::thread::sleep(ACCEPT_RETRY_DELAY);
            continue;
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let routed = isolated(&mut stream, |stream| route(stream, shared)).flatten();
        if let Some((request, key)) = routed {
            enqueue(
                Job {
                    request,
                    key,
                    stream,
                },
                shared,
            );
        }
    }
}

/// Reads from a stream with every `read` timing out at one instant, so
/// a whole frame, not each read, is bounded.
struct ReadBy<'a> {
    stream: &'a mut UnixStream,
    by: Instant,
}

impl Read for ReadBy<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.by.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Read the one request frame, parse it, and route it. Every failure
/// mode, `shutdown` and every cache hit are answered here; the request
/// and the key it missed on come back only when a worker must run it.
fn route(stream: &mut UnixStream, shared: &Shared) -> Option<(Request, Option<String>)> {
    let by = Instant::now() + REQUEST_READ_TIMEOUT;
    let frame = match read_frame(&mut ReadBy { stream, by }) {
        Ok(Some(frame)) => frame,
        Ok(None) => return None, // connected and hung up; nothing to answer
        Err(e) => {
            let message = if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) {
                format!(
                    "no request frame within {} ms",
                    REQUEST_READ_TIMEOUT.as_millis()
                )
            } else {
                e.to_string()
            };
            let _ = send(stream, &error_frame(ErrorKind::BadRequest, &message));
            return None;
        }
    };
    let request = match parse(&frame).and_then(|v| Request::from_json(&v)) {
        Ok(request) => request,
        Err(message) => {
            let _ = send(stream, &error_frame(ErrorKind::BadRequest, &message));
            return None;
        }
    };
    if request == Request::Shutdown {
        let _ = send(
            stream,
            &obj(vec![
                ("event", Value::Str("result".to_string())),
                ("query", Value::Str("shutdown".to_string())),
            ]),
        );
        request_stop(shared);
        return None;
    }
    // The request's only lookup: a miss travels with its key.
    let key = cache_key(&request);
    if let Some(payload) = key.as_deref().and_then(|key| shared.cache.get(key)) {
        ksa_faults::maybe_panic(ksa_faults::Site::HitPanic);
        let _ = write_frame(stream, payload.as_bytes());
        return None;
    }
    Some((request, key))
}

fn enqueue(mut job: Job, shared: &Shared) {
    let mut queue = shared.queue.lock().unwrap();
    if queue.len() >= shared.queue_cap {
        drop(queue);
        obs::perf_count(obs::PerfCounter::RequestsShed, 1);
        let _ = send(&mut job.stream, &overloaded_frame(RETRY_AFTER_MS));
        return;
    }
    queue.push_back(job);
    drop(queue);
    shared.available.notify_one();
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.available.wait(queue).unwrap();
            }
        };
        let Job {
            request,
            key,
            mut stream,
        } = job;
        isolated(&mut stream, |stream| {
            ksa_faults::maybe_panic(ksa_faults::Site::WorkerPanic);
            serve_job(&request, key.as_deref(), stream, shared);
        });
        if shared.stop.load(Ordering::SeqCst) {
            // Drain nothing further; shutdown wins over queued work.
            return;
        }
    }
}

/// Run `serve` on `stream` under panic isolation: a panic becomes an
/// `error{kind:"panic"}` frame and a `requests_panicked` count, and the
/// calling acceptor or worker lives on. `None` when it panicked.
fn isolated<T>(stream: &mut UnixStream, serve: impl FnOnce(&mut UnixStream) -> T) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(|| serve(&mut *stream))) {
        Ok(value) => Some(value),
        Err(payload) => {
            obs::perf_count(obs::PerfCounter::RequestsPanicked, 1);
            let message = panic_message(payload.as_ref());
            let _ = send(stream, &error_frame(ErrorKind::Panic, &message));
            None
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "request panicked".to_string()
    }
}

fn send(stream: &mut UnixStream, value: &Value) -> std::io::Result<()> {
    write_frame(stream, value.to_json().as_bytes())
}

fn cancel_token_for(deadline_ms: Option<u64>) -> CancelToken {
    match deadline_ms {
        Some(ms) => CancelToken::with_deadline(Deadline::in_millis(ms)),
        None => CancelToken::new(),
    }
}

/// The canonical form of a model reference: its parsed spec's canonical
/// name when it parses, the raw string otherwise (registered aliases).
fn canonical_model(model: &str) -> String {
    model
        .parse::<ksa_models::ModelSpec>()
        .map_or_else(|_| model.to_string(), |spec| spec.name())
}

/// The cache key of a `solv`/`rounds` request: the query kind, the
/// canonical model and the server's fixed budgets. `None` for `ping`,
/// `shutdown` and `no_cache` requests, which never touch the cache.
fn cache_key(request: &Request) -> Option<String> {
    match request {
        Request::Solv {
            model,
            k_max,
            no_cache: false,
            ..
        } => Some(format!(
            "solv|{}|k_max={k_max}|exec={EXEC_LIMIT}|node={NODE_BUDGET}",
            canonical_model(model)
        )),
        Request::Rounds {
            model,
            value_max,
            rounds,
            no_cache: false,
            ..
        } => Some(format!(
            "rounds|{}|value_max={value_max}|rounds={rounds}|exec={EXEC_LIMIT}",
            canonical_model(model)
        )),
        _ => None,
    }
}

/// Compute a queued request and send its response. A successful result
/// is published under `key` first (a failed write degrades to
/// "computed but not cached"); error frames are never cached — a
/// deadline trip must not poison the key.
fn serve_job(request: &Request, key: Option<&str>, stream: &mut UnixStream, shared: &Shared) {
    let outcome = match request {
        Request::Ping => Ok(obj(vec![
            ("event", Value::Str("result".to_string())),
            ("query", Value::Str("ping".to_string())),
        ])),
        Request::Shutdown => unreachable!("shutdown is answered on the acceptor"),
        Request::Solv {
            model,
            k_max,
            deadline_ms,
            ..
        } => compute_solv(model, *k_max, *deadline_ms, stream.try_clone().ok()),
        Request::Rounds {
            model,
            value_max,
            rounds,
            deadline_ms,
            ..
        } => compute_rounds(model, *value_max, *rounds, *deadline_ms),
    };
    match outcome {
        Ok(result) => {
            let payload = result.to_json();
            if let Some(key) = key {
                let _ = shared.cache.put(key, &payload);
            }
            let _ = write_frame(stream, payload.as_bytes());
        }
        Err(error) => {
            let _ = send(stream, &error);
        }
    }
}

fn error_for(e: &CoreError) -> Value {
    let kind = match e {
        CoreError::Cancelled => ErrorKind::Cancelled,
        CoreError::DeadlineExceeded => ErrorKind::Deadline,
        CoreError::Model(_) | CoreError::BadParameter { .. } => ErrorKind::BadRequest,
        _ => ErrorKind::Internal,
    };
    error_frame(kind, &e.to_string())
}

fn compute_solv(
    model_name: &str,
    k_max: usize,
    deadline_ms: Option<u64>,
    mut progress_stream: Option<UnixStream>,
) -> Result<Value, Value> {
    // The deadline clock starts before the injected stall, so a
    // `compute_stall` fault longer than the deadline reliably trips it.
    let cancel = cancel_token_for(deadline_ms);
    ksa_faults::maybe_stall(ksa_faults::Site::ComputeStall);
    let model = ksa_models::registry::builtin()
        .resolve_closed_above(model_name, EXEC_LIMIT as u128)
        .map_err(|e| error_for(&e.into()))?;
    let cancel_for_progress = cancel.clone();
    let mut progress = |p: ksa_core::solvability::SweepProgress| {
        if let Some(s) = progress_stream.as_mut() {
            if send(s, &progress_frame(p.k, p.decided, p.total)).is_err() {
                // The client hung up mid-stream: stop computing for
                // nobody. The token is shared, so the sweep sees it.
                cancel_for_progress.cancel();
                progress_stream = None;
            }
        }
    };
    let sweep = ksa_core::solvability::decide_one_round_sweep_cancellable(
        &model,
        k_max,
        EXEC_LIMIT,
        NODE_BUDGET,
        &cancel,
        &mut progress,
    )
    .map_err(|e| error_for(&e))?;
    let verdicts = sweep
        .verdicts
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let (name, witness_views) = match v {
                ksa_core::solvability::Solvability::Solvable(map) => ("solvable", map.len() as i64),
                ksa_core::solvability::Solvability::Unsolvable => ("unsolvable", 0),
                ksa_core::solvability::Solvability::Unknown => ("unknown", 0),
            };
            obj(vec![
                ("k", Value::Int((i + 1) as i64)),
                ("verdict", Value::Str(name.to_string())),
                ("witness_views", Value::Int(witness_views)),
            ])
        })
        .collect();
    Ok(obj(vec![
        ("event", Value::Str("result".to_string())),
        ("query", Value::Str("solv".to_string())),
        ("model", Value::Str(canonical_model(model_name))),
        ("k_max", Value::Int(k_max as i64)),
        ("verdicts", Value::Arr(verdicts)),
        ("searched", Value::Int(sweep.searched as i64)),
        ("seeded", Value::Int(sweep.seeded as i64)),
        ("pruned", Value::Int(sweep.pruned as i64)),
    ]))
}

fn compute_rounds(
    model_name: &str,
    value_max: usize,
    rounds: usize,
    deadline_ms: Option<u64>,
) -> Result<Value, Value> {
    let cancel = cancel_token_for(deadline_ms);
    ksa_faults::maybe_stall(ksa_faults::Site::ComputeStall);
    let budget = RunBudget::new(EXEC_LIMIT as u128);
    let model = ksa_models::registry::builtin()
        .resolve_closed_above(model_name, budget)
        .map_err(|e| error_for(&e.into()))?;
    let run = Run {
        budget,
        cancel: Some(&cancel),
    };
    let (report, _) = ksa_core::bounds::cross_check::cross_check_round_sweep(
        &model, value_max, rounds, run, None,
    )
    .map_err(|e| error_for(&e))?;
    let per_round = report
        .per_round
        .iter()
        .map(|row| {
            let lower = match &row.lower {
                Some(lb) => obj(vec![
                    ("impossible_k", Value::Int(lb.impossible_k as i64)),
                    ("theorem", Value::Str(lb.theorem.to_string())),
                    ("rounds", Value::Int(lb.rounds as i64)),
                ]),
                None => Value::Null,
            };
            obj(vec![
                ("round", Value::Int(row.round as i64)),
                ("predicted_l", Value::Int(row.predicted_l as i64)),
                (
                    "measured_connectivity",
                    Value::Int(row.measured_connectivity as i64),
                ),
                (
                    "betti",
                    Value::Arr(row.betti.iter().map(|&b| Value::Int(b as i64)).collect()),
                ),
                ("facets", Value::Int(row.facets as i64)),
                ("interned_views", Value::Int(row.interned_views as i64)),
                ("consistent", Value::Bool(row.is_consistent())),
                ("lower", lower),
            ])
        })
        .collect();
    Ok(obj(vec![
        ("event", Value::Str("result".to_string())),
        ("query", Value::Str("rounds".to_string())),
        ("model", Value::Str(canonical_model(model_name))),
        ("n", Value::Int(report.n as i64)),
        ("value_max", Value::Int(report.value_max as i64)),
        ("rounds", Value::Int(rounds as i64)),
        ("consistent", Value::Bool(report.is_consistent())),
        ("per_round", Value::Arr(per_round)),
    ]))
}
