//! The analysis server: accept loop, bounded queue, worker pool
//! (DESIGN.md §12.1).
//!
//! Life of a request: a connection handler thread reads the single
//! request frame, parses it, and tries to enqueue it on the bounded job
//! queue. A full queue sheds the request immediately with an
//! `overloaded` frame (`requests_shed` perf counter) — the server
//! prefers fast refusal over unbounded memory. Worker threads pop jobs
//! and run them under `catch_unwind`: a panicking request produces a
//! structured `error` frame (`kind: "panic"`, `requests_panicked` perf
//! counter) and the worker keeps serving.
//!
//! Deadlines become [`CancelToken`]s threaded through the whole compute
//! pipeline; a failed progress write (the client hung up mid-stream)
//! cancels the token so the computation stops instead of finishing for
//! nobody.

use std::collections::VecDeque;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

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

struct Job {
    request: Request,
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
    accept: Option<JoinHandle<()>>,
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

    /// Stop the server and join all its threads. Idempotent.
    pub fn shutdown(mut self) {
        request_stop(&self.shared);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let _ = std::fs::remove_file(&self.shared.socket);
    }

    /// Block until the server stops (via a `shutdown` request), then
    /// join all threads.
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let _ = std::fs::remove_file(&self.shared.socket);
    }
}

fn request_stop(shared: &Shared) {
    shared.stop.store(true, Ordering::SeqCst);
    shared.available.notify_all();
    // The accept loop is blocked in `accept`; poke it with a throwaway
    // connection so it observes the stop flag.
    let _ = UnixStream::connect(&shared.socket);
}

/// Bind the socket and start the accept loop and worker pool.
///
/// # Errors
///
/// Any I/O error binding the socket or opening the cache directory.
pub fn start(config: Config) -> std::io::Result<Handle> {
    let _ = std::fs::remove_file(&config.socket);
    let listener = UnixListener::bind(&config.socket)?;
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
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("ksa-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker")
        })
        .collect();

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("ksa-accept".to_string())
            .spawn(move || accept_loop(&listener, &shared))
            .expect("spawn accept loop")
    };

    Ok(Handle {
        shared,
        accept: Some(accept),
        workers,
    })
}

fn accept_loop(listener: &UnixListener, shared: &Arc<Shared>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let shared = Arc::clone(shared);
        // One short-lived thread per connection: it only reads and
        // routes the single request frame; the heavy work happens on
        // the bounded worker pool.
        let _ = std::thread::Builder::new()
            .name("ksa-conn".to_string())
            .spawn(move || handle_connection(stream, &shared));
    }
}

/// Read the one request frame, parse it, and route it. Every failure
/// mode answers on this thread; only well-formed work reaches the
/// queue.
fn handle_connection(mut stream: UnixStream, shared: &Arc<Shared>) {
    let frame = match read_frame(&mut stream) {
        Ok(Some(frame)) => frame,
        Ok(None) => return, // connected and hung up; nothing to answer
        Err(e) => {
            let _ = send(
                &mut stream,
                &error_frame(ErrorKind::BadRequest, &e.to_string()),
            );
            return;
        }
    };
    let request = match parse(&frame).and_then(|v| Request::from_json(&v)) {
        Ok(request) => request,
        Err(message) => {
            let _ = send(&mut stream, &error_frame(ErrorKind::BadRequest, &message));
            return;
        }
    };
    match request {
        Request::Shutdown => {
            let _ = send(
                &mut stream,
                &obj(vec![
                    ("event", Value::Str("result".to_string())),
                    ("query", Value::Str("shutdown".to_string())),
                ]),
            );
            request_stop(shared);
        }
        request => {
            let mut queue = shared.queue.lock().unwrap();
            if queue.len() >= shared.queue_cap {
                drop(queue);
                obs::perf_count(obs::PerfCounter::RequestsShed, 1);
                let _ = send(&mut stream, &overloaded_frame(RETRY_AFTER_MS));
                return;
            }
            queue.push_back(Job { request, stream });
            drop(queue);
            shared.available.notify_one();
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
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
        run_job(job, shared);
        if shared.stop.load(Ordering::SeqCst) {
            // Drain nothing further; shutdown wins over queued work.
            return;
        }
    }
}

/// Run one job under panic isolation. The worker thread itself never
/// dies: a panic inside the request becomes an `error` frame.
fn run_job(job: Job, shared: &Shared) {
    let Job { request, stream } = job;
    let mut stream_for_panic = stream.try_clone().ok();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut stream = stream;
        ksa_faults::maybe_panic(ksa_faults::Site::WorkerPanic);
        serve_request(&request, &mut stream, shared);
    }));
    if let Err(payload) = outcome {
        obs::perf_count(obs::PerfCounter::RequestsPanicked, 1);
        let message = panic_message(payload.as_ref());
        if let Some(stream) = stream_for_panic.as_mut() {
            let _ = send(stream, &error_frame(ErrorKind::Panic, &message));
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

fn serve_request(request: &Request, stream: &mut UnixStream, shared: &Shared) {
    match request {
        Request::Ping => {
            let _ = send(
                stream,
                &obj(vec![
                    ("event", Value::Str("result".to_string())),
                    ("query", Value::Str("ping".to_string())),
                ]),
            );
        }
        Request::Shutdown => unreachable!("shutdown handled on the connection thread"),
        Request::Solv {
            model,
            k_max,
            deadline_ms,
            no_cache,
        } => {
            let key = format!(
                "solv|{}|k_max={k_max}|exec={EXEC_LIMIT}|node={NODE_BUDGET}",
                canonical_model(model)
            );
            let progress_stream = stream.try_clone().ok();
            serve_cached(stream, shared, &key, *no_cache, move || {
                compute_solv(model, *k_max, *deadline_ms, progress_stream)
            });
        }
        Request::Rounds {
            model,
            value_max,
            rounds,
            deadline_ms,
            no_cache,
        } => {
            let key = format!(
                "rounds|{}|value_max={value_max}|rounds={rounds}|exec={EXEC_LIMIT}",
                canonical_model(model)
            );
            serve_cached(stream, shared, &key, *no_cache, || {
                compute_rounds(model, *value_max, *rounds, *deadline_ms)
            });
        }
    }
}

/// Cache-through wrapper: replay a verified entry byte-for-byte, or
/// compute, publish (only successful results), and send. Error frames
/// are never cached — a deadline trip must not poison the key.
fn serve_cached(
    stream: &mut UnixStream,
    shared: &Shared,
    key: &str,
    no_cache: bool,
    compute: impl FnOnce() -> Result<Value, Value>,
) {
    if !no_cache {
        if let Some(payload) = shared.cache.get(key) {
            let _ = write_frame(stream, payload.as_bytes());
            return;
        }
    }
    match compute() {
        Ok(result) => {
            let payload = result.to_json();
            if !no_cache {
                // A failed write degrades to "computed but not cached";
                // the response is unaffected.
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
