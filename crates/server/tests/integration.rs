//! End-to-end tests against an in-process server: the happy paths, the
//! cache byte-identity guarantee, deadlines, overload shedding,
//! mid-stream disconnects, and the acceptors' contract (hits answered
//! without the queue, silent clients timed out).

use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ksa_server::client;
use ksa_server::framing::{read_frame, write_frame};
use ksa_server::json::{parse, Value};
use ksa_server::server::{start, Config, Handle, FRONT_THREADS, REQUEST_READ_TIMEOUT};

/// Servers in this binary share the process-global obs counters and, in
/// the faults configuration, the fault schedule — serialize them.
static SERIAL: Mutex<()> = Mutex::new(());

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ksa-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spawn(name: &str, queue_cap: usize, workers: usize) -> (Handle, PathBuf) {
    let dir = scratch(name);
    let handle = start(Config {
        socket: dir.join("sock"),
        cache_dir: dir.join("cache"),
        queue_cap,
        workers,
    })
    .unwrap();
    (handle, dir)
}

fn terminal(frames: &[Vec<u8>]) -> &[u8] {
    frames.last().expect("at least one response frame")
}

fn event_of(frame: &[u8]) -> String {
    parse(frame)
        .unwrap()
        .get("event")
        .and_then(Value::as_str)
        .unwrap()
        .to_string()
}

#[test]
fn ping_and_shutdown() {
    let _guard = SERIAL.lock().unwrap();
    let (handle, dir) = spawn("ping", 8, 1);
    let frames = client::request(handle.socket(), br#"{"query":"ping"}"#).unwrap();
    assert_eq!(
        frames,
        vec![br#"{"event":"result","query":"ping"}"#.to_vec()]
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn solv_cold_then_cached_byte_identical() {
    let _guard = SERIAL.lock().unwrap();
    let (handle, dir) = spawn("solv-cache", 8, 1);
    let req = br#"{"query":"solv","model":"ring{n=3}","k_max":3}"#;
    let cold = client::request(handle.socket(), req).unwrap();
    assert!(
        cold.len() > 1,
        "cold run streams progress before the result"
    );
    for frame in &cold[..cold.len() - 1] {
        assert_eq!(event_of(frame), "progress");
    }
    assert_eq!(event_of(terminal(&cold)), "result");

    let cached = client::request(handle.socket(), req).unwrap();
    assert_eq!(
        cached.len(),
        1,
        "cache hits replay the result with no progress"
    );
    assert_eq!(
        terminal(&cold),
        terminal(&cached),
        "cold and cached results are byte-identical"
    );

    // Bypassing the cache recomputes, and the bytes still match.
    let no_cache = client::request(
        handle.socket(),
        br#"{"query":"solv","model":"ring{n=3}","k_max":3,"no_cache":true}"#,
    )
    .unwrap();
    assert_eq!(terminal(&cold), terminal(&no_cache));

    // Sanity on the payload itself.
    let result = parse(terminal(&cold)).unwrap();
    assert_eq!(
        result.get("model").and_then(Value::as_str),
        Some("ring{n=3}")
    );
    let Some(Value::Arr(verdicts)) = result.get("verdicts") else {
        panic!("verdicts array");
    };
    assert_eq!(verdicts.len(), 3);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn rounds_cold_then_cached_byte_identical() {
    let _guard = SERIAL.lock().unwrap();
    let (handle, dir) = spawn("rounds-cache", 8, 1);
    let req = br#"{"query":"rounds","model":"ring{n=3}","value_max":1,"rounds":2}"#;
    let cold = client::request(handle.socket(), req).unwrap();
    assert_eq!(event_of(terminal(&cold)), "result");
    let cached = client::request(handle.socket(), req).unwrap();
    assert_eq!(terminal(&cold), terminal(&cached));
    let result = parse(terminal(&cold)).unwrap();
    assert_eq!(
        result.get("consistent").and_then(Value::as_bool),
        Some(true)
    );
    let Some(Value::Arr(per_round)) = result.get("per_round") else {
        panic!("per_round array");
    };
    assert_eq!(per_round.len(), 2);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn bad_requests_get_structured_errors() {
    let _guard = SERIAL.lock().unwrap();
    let (handle, dir) = spawn("bad-req", 8, 1);
    for (payload, expect_kind) in [
        (&br#"not json at all"#[..], "bad_request"),
        (br#"{"query":"frobnicate"}"#, "bad_request"),
        (
            br#"{"query":"solv","model":"ring{n=3}","k_max":0}"#,
            "bad_request",
        ),
        (
            br#"{"query":"solv","model":"no such model","k_max":2}"#,
            "bad_request",
        ),
    ] {
        let frames = client::request(handle.socket(), payload).unwrap();
        assert_eq!(frames.len(), 1);
        let v = parse(terminal(&frames)).unwrap();
        assert_eq!(v.get("event").and_then(Value::as_str), Some("error"));
        assert_eq!(
            v.get("kind").and_then(Value::as_str),
            Some(expect_kind),
            "payload: {}",
            String::from_utf8_lossy(payload)
        );
    }
    // The server is still healthy after all of that.
    let frames = client::request(handle.socket(), br#"{"query":"ping"}"#).unwrap();
    assert_eq!(event_of(terminal(&frames)), "result");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn expired_deadline_trips_deterministically() {
    let _guard = SERIAL.lock().unwrap();
    let (handle, dir) = spawn("deadline", 8, 1);
    // deadline_ms 0 is already past when the token is created, so the
    // very first checkpoint fires regardless of machine speed.
    let frames = client::request(
        handle.socket(),
        br#"{"query":"solv","model":"ring{n=3}","k_max":3,"deadline_ms":0}"#,
    )
    .unwrap();
    let v = parse(terminal(&frames)).unwrap();
    assert_eq!(v.get("event").and_then(Value::as_str), Some("error"));
    assert_eq!(v.get("kind").and_then(Value::as_str), Some("deadline"));
    // A deadline failure never poisons the cache: the same query
    // without a deadline computes fresh and succeeds.
    let frames = client::request(
        handle.socket(),
        br#"{"query":"solv","model":"ring{n=3}","k_max":3}"#,
    )
    .unwrap();
    assert_eq!(event_of(terminal(&frames)), "result");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn rounds_expired_deadline_trips_deterministically() {
    let _guard = SERIAL.lock().unwrap();
    let (handle, dir) = spawn("rounds-deadline", 8, 1);
    let frames = client::request(
        handle.socket(),
        br#"{"query":"rounds","model":"ring{n=3}","value_max":1,"rounds":2,"deadline_ms":0}"#,
    )
    .unwrap();
    let v = parse(terminal(&frames)).unwrap();
    assert_eq!(v.get("event").and_then(Value::as_str), Some("error"));
    assert_eq!(v.get("kind").and_then(Value::as_str), Some("deadline"));
    let frames = client::request(
        handle.socket(),
        br#"{"query":"rounds","model":"ring{n=3}","value_max":1,"rounds":2}"#,
    )
    .unwrap();
    assert_eq!(event_of(terminal(&frames)), "result");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn rounds_on_an_explicit_model_is_a_bad_request() {
    let _guard = SERIAL.lock().unwrap();
    let (handle, dir) = spawn("rounds-explicit", 8, 1);
    // The round sweep needs generators; an explicit model has none.
    let frames = client::request(
        handle.socket(),
        br#"{"query":"rounds","model":"nonsplit{n=3}","value_max":1,"rounds":1}"#,
    )
    .unwrap();
    assert_eq!(frames.len(), 1);
    let v = parse(terminal(&frames)).unwrap();
    assert_eq!(v.get("event").and_then(Value::as_str), Some("error"));
    assert_eq!(v.get("kind").and_then(Value::as_str), Some("bad_request"));
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn full_queue_sheds_with_overloaded() {
    let _guard = SERIAL.lock().unwrap();
    // No workers: nothing drains the queue, so filling it is
    // deterministic.
    let (handle, dir) = spawn("overload", 2, 0);
    let mut parked = Vec::new();
    for i in 0..2 {
        let mut stream = UnixStream::connect(handle.socket()).unwrap();
        write_frame(&mut stream, br#"{"query":"ping"}"#).unwrap();
        parked.push(stream);
        // Wait until an acceptor has actually enqueued it.
        while handle.queue_len() < i + 1 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    let frames = client::request(handle.socket(), br#"{"query":"ping"}"#).unwrap();
    assert_eq!(frames.len(), 1);
    let v = parse(terminal(&frames)).unwrap();
    assert_eq!(v.get("event").and_then(Value::as_str), Some("overloaded"));
    assert!(v.get("retry_after_ms").and_then(Value::as_i64).unwrap() > 0);
    drop(parked);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn mid_stream_disconnect_leaves_server_healthy() {
    let _guard = SERIAL.lock().unwrap();
    let (handle, dir) = spawn("disconnect", 8, 1);
    {
        let mut stream = UnixStream::connect(handle.socket()).unwrap();
        write_frame(
            &mut stream,
            br#"{"query":"solv","model":"ring{n=4}","k_max":4,"no_cache":true}"#,
        )
        .unwrap();
        // Hang up without reading anything: the worker discovers the
        // dead stream at its next progress write and cancels the
        // computation instead of finishing it for nobody.
    }
    // The server keeps serving; a full query still completes.
    let frames = client::request(
        handle.socket(),
        br#"{"query":"solv","model":"ring{n=3}","k_max":2}"#,
    )
    .unwrap();
    assert_eq!(event_of(terminal(&frames)), "result");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn shutdown_request_stops_the_server() {
    let _guard = SERIAL.lock().unwrap();
    let (handle, dir) = spawn("shutdown-req", 8, 1);
    let frames = client::request(handle.socket(), br#"{"query":"shutdown"}"#).unwrap();
    let v = parse(terminal(&frames)).unwrap();
    assert_eq!(v.get("event").and_then(Value::as_str), Some("result"));
    // wait() returns because every acceptor observed the stop flag.
    handle.wait();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn cached_key_is_answered_while_the_queue_is_full() {
    let _guard = SERIAL.lock().unwrap();
    let dir = scratch("hit-under-load");
    let config = |workers| Config {
        socket: dir.join("sock"),
        cache_dir: dir.join("cache"),
        queue_cap: 1,
        workers,
    };
    let req = br#"{"query":"solv","model":"ring{n=3}","k_max":2}"#;
    let filler = start(config(1)).unwrap();
    let cold = client::request(filler.socket(), req).unwrap();
    filler.shutdown();

    // No workers and one parked ping: the queue is full from here on.
    let handle = start(config(0)).unwrap();
    let mut parked = UnixStream::connect(handle.socket()).unwrap();
    write_frame(&mut parked, br#"{"query":"ping"}"#).unwrap();
    while handle.queue_len() < 1 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let cached = client::request(handle.socket(), req).unwrap();
    assert_eq!(
        cached,
        vec![terminal(&cold).to_vec()],
        "a hit is replayed by the acceptor, never shed"
    );
    // A miss still needs the queue, and is shed.
    let missed = client::request(
        handle.socket(),
        br#"{"query":"solv","model":"ring{n=3}","k_max":3}"#,
    )
    .unwrap();
    assert_eq!(event_of(terminal(&missed)), "overloaded");
    drop(parked);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn silent_connections_below_the_acceptor_count_do_not_delay_a_hit() {
    let _guard = SERIAL.lock().unwrap();
    let (handle, dir) = spawn("silent-few", 8, 1);
    let req = br#"{"query":"solv","model":"ring{n=3}","k_max":2}"#;
    let cold = client::request(handle.socket(), req).unwrap();
    let silent: Vec<UnixStream> = (0..FRONT_THREADS - 1)
        .map(|_| UnixStream::connect(handle.socket()).unwrap())
        .collect();
    let started = Instant::now();
    let cached = client::request(handle.socket(), req).unwrap();
    let waited = started.elapsed();
    assert_eq!(cached, vec![terminal(&cold).to_vec()]);
    assert!(
        waited < REQUEST_READ_TIMEOUT / 2,
        "a free acceptor answers at once, not after the silent ones: {waited:?}"
    );
    drop(silent);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn silent_connections_are_dropped_after_the_read_timeout() {
    let _guard = SERIAL.lock().unwrap();
    let (handle, dir) = spawn("silent-all", 8, 1);
    // One silent client per acceptor, queued ahead of the ping.
    let mut silent: Vec<UnixStream> = (0..FRONT_THREADS)
        .map(|_| UnixStream::connect(handle.socket()).unwrap())
        .collect();
    let started = Instant::now();
    let frames = client::request(handle.socket(), br#"{"query":"ping"}"#).unwrap();
    let waited = started.elapsed();
    assert_eq!(event_of(terminal(&frames)), "result");
    assert!(
        waited >= REQUEST_READ_TIMEOUT / 2,
        "every acceptor was held until its read timed out: {waited:?}"
    );
    for stream in &mut silent {
        stream
            .set_read_timeout(Some(REQUEST_READ_TIMEOUT * 4))
            .unwrap();
        let frame = read_frame(stream).unwrap().expect("a bad_request frame");
        let v = parse(&frame).unwrap();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("bad_request"));
        assert!(read_frame(stream).unwrap().is_none(), "then the close");
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_trickled_request_is_cut_off_at_the_read_timeout() {
    let _guard = SERIAL.lock().unwrap();
    let (handle, dir) = spawn("trickle", 8, 1);
    let payload = br#"{"query":"ping"}"#;
    let mut stream = UnixStream::connect(handle.socket()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    // Each byte arrives well inside the timeout, the whole frame well
    // after it: the timeout bounds the frame, not each read.
    let step = REQUEST_READ_TIMEOUT / 8;
    let trickle = std::thread::spawn(move || {
        use std::io::Write;
        let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(payload);
        for byte in frame {
            if writer.write_all(&[byte]).is_err() {
                return; // the server hung up
            }
            std::thread::sleep(step);
        }
    });
    stream
        .set_read_timeout(Some(REQUEST_READ_TIMEOUT * 4))
        .unwrap();
    let frame = read_frame(&mut stream).unwrap().expect("a terminal frame");
    let v = parse(&frame).unwrap();
    assert_eq!(v.get("kind").and_then(Value::as_str), Some("bad_request"));
    trickle.join().unwrap();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn one_miss_then_hits_look_the_cache_up_once_each() {
    use ksa_obs::Counter;
    let _guard = SERIAL.lock().unwrap();
    let (handle, dir) = spawn("lookups", 8, 1);
    let req = br#"{"query":"rounds","model":"ring{n=3}","value_max":1,"rounds":1}"#;
    let before = ksa_obs::snapshot();
    let cold = client::request(handle.socket(), req).unwrap();
    const HITS: u64 = 5;
    for _ in 0..HITS {
        assert_eq!(
            client::request(handle.socket(), req).unwrap(),
            vec![terminal(&cold).to_vec()]
        );
    }
    let after = ksa_obs::snapshot();
    let moved = |c| after.det_value(c) - before.det_value(c);
    assert_eq!(moved(Counter::CacheMisses), 1);
    assert_eq!(moved(Counter::CacheHits), HITS);
    assert_eq!(moved(Counter::CacheWrites), 1);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}
