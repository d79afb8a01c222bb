//! Deterministic fault-injection suite (`cargo test -p ksa-server
//! --features faults`): each test arms a seeded schedule, drives the
//! in-process server into the fault, and asserts it degrades exactly as
//! documented — then serves the next request as if nothing happened.
//!
//! The fault schedule and the obs counters are process-global, so every
//! test serializes on one mutex and disarms on the way out.

#![cfg(feature = "faults")]

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ksa_server::client;
use ksa_server::json::{parse, Value};
use ksa_server::server::{start, Config, Handle, FRONT_THREADS};

static SERIAL: Mutex<()> = Mutex::new(());

struct Rig {
    handle: Option<Handle>,
    dir: PathBuf,
}

impl Rig {
    fn new(name: &str) -> Rig {
        let dir = std::env::temp_dir().join(format!("ksa-faults-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let handle = start(Config {
            socket: dir.join("sock"),
            cache_dir: dir.join("cache"),
            queue_cap: 8,
            workers: 1,
        })
        .unwrap();
        Rig {
            handle: Some(handle),
            dir,
        }
    }

    fn request(&self, payload: &[u8]) -> Vec<Vec<u8>> {
        client::request(self.handle.as_ref().unwrap().socket(), payload).unwrap()
    }

    fn terminal_event_kind(&self, payload: &[u8]) -> (String, Option<String>) {
        let frames = self.request(payload);
        let v = parse(frames.last().expect("terminal frame")).unwrap();
        (
            v.get("event").and_then(Value::as_str).unwrap().to_string(),
            v.get("kind").and_then(Value::as_str).map(str::to_string),
        )
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        ksa_faults::disarm();
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

const SOLV: &[u8] = br#"{"query":"solv","model":"ring{n=3}","k_max":2}"#;

fn perf_value(name: &str) -> u64 {
    let snapshot = ksa_obs::snapshot();
    snapshot
        .perf
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, v)| *v)
}

#[test]
fn worker_panic_is_absorbed_and_server_keeps_serving() {
    let _guard = SERIAL.lock().unwrap();
    let rig = Rig::new("panic");
    let panicked_before = perf_value("requests_panicked");
    ksa_faults::arm("worker_panic@1").unwrap();

    let (event, kind) = rig.terminal_event_kind(SOLV);
    assert_eq!(event, "error");
    assert_eq!(kind.as_deref(), Some("panic"));
    assert_eq!(perf_value("requests_panicked"), panicked_before + 1);

    // The worker survived; the very next request computes normally.
    let (event, _) = rig.terminal_event_kind(SOLV);
    assert_eq!(event, "result");
}

#[test]
fn accept_failure_backs_off_and_server_keeps_serving() {
    let _guard = SERIAL.lock().unwrap();
    let rig = Rig::new("accept-io");
    let failures_before = perf_value("accept_failures");
    // Every acceptor is already blocked in `accept`, past the fault
    // site, so the first request is served and its acceptor's next
    // arrival at the site fails.
    ksa_faults::arm("accept_io@1").unwrap();
    let (event, _) = rig.terminal_event_kind(SOLV);
    assert_eq!(event, "result");
    let deadline = Instant::now() + Duration::from_secs(10);
    while perf_value("accept_failures") == failures_before {
        assert!(
            Instant::now() < deadline,
            "the injected accept failure never fired"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(perf_value("accept_failures"), failures_before + 1);
    // The failed acceptor backs off; the next request is still answered.
    let (event, _) = rig.terminal_event_kind(SOLV);
    assert_eq!(event, "result");
}

#[test]
fn hit_panic_is_absorbed_on_the_acceptor() {
    let _guard = SERIAL.lock().unwrap();
    let rig = Rig::new("hit-panic");
    let cold = rig.request(SOLV);
    let panicked_before = perf_value("requests_panicked");
    // One more panic than there are acceptors: had a panic killed its
    // acceptor, the last request would find none left.
    let spec: Vec<String> = (1..=FRONT_THREADS + 1)
        .map(|i| format!("hit_panic@{i}"))
        .collect();
    ksa_faults::arm(&spec.join(",")).unwrap();
    for _ in 0..=FRONT_THREADS {
        let (event, kind) = rig.terminal_event_kind(SOLV);
        assert_eq!(event, "error");
        assert_eq!(kind.as_deref(), Some("panic"));
    }
    assert_eq!(
        perf_value("requests_panicked"),
        panicked_before + FRONT_THREADS as u64 + 1
    );
    let hit = rig.request(SOLV);
    assert_eq!(hit, vec![cold.last().unwrap().clone()]);
}

#[test]
fn cache_write_failure_degrades_to_uncached_but_identical() {
    let _guard = SERIAL.lock().unwrap();
    let rig = Rig::new("write-io");
    ksa_faults::arm("cache_write_io@1").unwrap();

    let first = rig.request(SOLV);
    let second = rig.request(SOLV);
    // The first write failed, so the second request is also a cold
    // compute (it streams progress frames again) — but the result bytes
    // are identical, and the second run's write succeeds.
    assert!(second.len() > 1, "second run recomputed (write had failed)");
    assert_eq!(first.last().unwrap(), second.last().unwrap());
    let third = rig.request(SOLV);
    assert_eq!(third.len(), 1, "third run is a genuine cache hit");
    assert_eq!(first.last().unwrap(), &third[0]);
}

#[test]
fn cache_read_failure_degrades_to_recompute_with_identical_bytes() {
    let _guard = SERIAL.lock().unwrap();
    let rig = Rig::new("read-io");
    let cold = rig.request(SOLV);

    ksa_faults::arm("cache_read_io@1").unwrap();
    let recomputed = rig.request(SOLV);
    assert!(
        recomputed.len() > 1,
        "injected read error forces a recompute"
    );
    assert_eq!(cold.last().unwrap(), recomputed.last().unwrap());

    ksa_faults::disarm();
    let cached = rig.request(SOLV);
    assert_eq!(cached.len(), 1, "cache serves hits again once disarmed");
    assert_eq!(cold.last().unwrap(), &cached[0]);
}

#[test]
fn compute_stall_trips_a_deadline() {
    let _guard = SERIAL.lock().unwrap();
    let rig = Rig::new("stall");
    // The stall (400 ms) dwarfs the deadline (50 ms); the deadline
    // clock starts before the stall, so the first checkpoint after it
    // must trip.
    ksa_faults::arm("compute_stall@1:400").unwrap();
    let deadlines_before = perf_value("deadlines_tripped");
    let (event, kind) = rig
        .terminal_event_kind(br#"{"query":"solv","model":"ring{n=3}","k_max":2,"deadline_ms":50}"#);
    assert_eq!(event, "error");
    assert_eq!(kind.as_deref(), Some("deadline"));
    assert_eq!(perf_value("deadlines_tripped"), deadlines_before + 1);

    // Disarmed, the same request (no deadline) completes and caches.
    ksa_faults::disarm();
    let (event, _) = rig.terminal_event_kind(SOLV);
    assert_eq!(event, "result");
}

#[test]
fn faults_disarmed_cold_and_cached_are_byte_identical() {
    let _guard = SERIAL.lock().unwrap();
    let rig = Rig::new("disarmed");
    assert!(!ksa_faults::armed());
    for req in [
        SOLV,
        br#"{"query":"rounds","model":"ring{n=3}","value_max":1,"rounds":2}"#.as_slice(),
    ] {
        let cold = rig.request(req);
        let cached = rig.request(req);
        assert_eq!(cached.len(), 1);
        assert_eq!(cold.last().unwrap(), &cached[0]);
    }
}
