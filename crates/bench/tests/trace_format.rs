//! Well-formedness of the `--trace` export: the document a real
//! experiment run produces must parse as JSON (chrome://tracing rejects
//! anything else silently) and carry the span structure the acceptance
//! contract names — experiment, round (and its interpretation, interning
//! and materialization steps), rank-reduction and solvability-CSP
//! (enumeration, symmetry detection and witness lifting) spans.
//!
//! The validator is a minimal recursive-descent JSON syntax checker
//! (the build environment has no serde): it accepts exactly the JSON
//! grammar, so a stray comma or an unescaped quote in a span name fails
//! the test the same way it would fail the trace viewer.
//!
//! The trace collector is process-global, so each test holds a
//! test-binary-wide lock while it uses it: one test's `trace_stop` would
//! otherwise end and drain the other's trace.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes the tests' use of the global trace collector. The guarded
/// data is `()`, so a guard poisoned by a failing test is recovered.
fn trace_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Parses one JSON value starting at `i`; returns the index past it.
fn parse_value(s: &[u8], i: usize) -> Result<usize, String> {
    let i = skip_ws(s, i);
    match s.get(i) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(s, i),
        Some(b'[') => parse_array(s, i),
        Some(b'"') => parse_string(s, i),
        Some(b't') => parse_lit(s, i, b"true"),
        Some(b'f') => parse_lit(s, i, b"false"),
        Some(b'n') => parse_lit(s, i, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(s, i),
        Some(c) => Err(format!("unexpected byte {:?} at {i}", *c as char)),
    }
}

fn skip_ws(s: &[u8], mut i: usize) -> usize {
    while matches!(s.get(i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        i += 1;
    }
    i
}

fn parse_lit(s: &[u8], i: usize, lit: &[u8]) -> Result<usize, String> {
    if s[i..].starts_with(lit) {
        Ok(i + lit.len())
    } else {
        Err(format!("bad literal at {i}"))
    }
}

fn parse_string(s: &[u8], mut i: usize) -> Result<usize, String> {
    i += 1; // opening quote
    loop {
        match s.get(i) {
            None => return Err("unterminated string".into()),
            Some(b'"') => return Ok(i + 1),
            Some(b'\\') => match s.get(i + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => i += 2,
                Some(b'u') => {
                    if s.len() < i + 6 || !s[i + 2..i + 6].iter().all(u8::is_ascii_hexdigit) {
                        return Err(format!("bad \\u escape at {i}"));
                    }
                    i += 6;
                }
                _ => return Err(format!("bad escape at {i}")),
            },
            Some(c) if *c < 0x20 => return Err(format!("raw control byte at {i}")),
            Some(_) => i += 1,
        }
    }
}

fn parse_number(s: &[u8], mut i: usize) -> Result<usize, String> {
    let start = i;
    if s.get(i) == Some(&b'-') {
        i += 1;
    }
    while matches!(s.get(i), Some(c) if c.is_ascii_digit()) {
        i += 1;
    }
    if s.get(i) == Some(&b'.') {
        i += 1;
        while matches!(s.get(i), Some(c) if c.is_ascii_digit()) {
            i += 1;
        }
    }
    if matches!(s.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(s.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        while matches!(s.get(i), Some(c) if c.is_ascii_digit()) {
            i += 1;
        }
    }
    if i == start || (i == start + 1 && s[start] == b'-') {
        Err(format!("bad number at {start}"))
    } else {
        Ok(i)
    }
}

fn parse_object(s: &[u8], mut i: usize) -> Result<usize, String> {
    i = skip_ws(s, i + 1);
    if s.get(i) == Some(&b'}') {
        return Ok(i + 1);
    }
    loop {
        i = skip_ws(s, i);
        if s.get(i) != Some(&b'"') {
            return Err(format!("expected key at {i}"));
        }
        i = skip_ws(s, parse_string(s, i)?);
        if s.get(i) != Some(&b':') {
            return Err(format!("expected ':' at {i}"));
        }
        i = skip_ws(s, parse_value(s, i + 1)?);
        match s.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => return Ok(i + 1),
            _ => return Err(format!("expected ',' or '}}' at {i}")),
        }
    }
}

fn parse_array(s: &[u8], mut i: usize) -> Result<usize, String> {
    i = skip_ws(s, i + 1);
    if s.get(i) == Some(&b']') {
        return Ok(i + 1);
    }
    loop {
        i = skip_ws(s, parse_value(s, i)?);
        match s.get(i) {
            Some(b',') => i += 1,
            Some(b']') => return Ok(i + 1),
            _ => return Err(format!("expected ',' or ']' at {i}")),
        }
    }
}

/// Asserts `s` is exactly one JSON document.
fn assert_valid_json(s: &str) {
    let bytes = s.as_bytes();
    let end = parse_value(bytes, 0).unwrap_or_else(|e| panic!("{e}\n---\n{s}"));
    assert_eq!(
        skip_ws(bytes, end),
        bytes.len(),
        "trailing garbage after the JSON document"
    );
}

#[test]
fn trace_of_a_real_run_is_wellformed_trace_event_json() {
    let _guard = trace_lock();
    ksa_obs::trace_start();
    let results = ksa_bench::run_experiments(&["rounds", "hunt"]);
    let doc = ksa_obs::trace_stop();
    for (result, _) in &results {
        assert!(result.as_ref().is_ok_and(|o| o.passed));
    }

    assert_valid_json(&doc);
    assert!(doc.contains("\"traceEvents\""), "missing traceEvents array");
    // The span layers the rounds and hunt experiments cross:
    // experiment, round construction (interpretation, interning,
    // facet materialization), face closure, rank reduction,
    // certificate production, checking and serialization, and the
    // solvability CSP's enumeration, symmetry detection and witness
    // lifts.
    for needle in [
        "\"cat\": \"experiment\"",
        "\"name\": \"round\"",
        "\"name\": \"interpret\", \"cat\": \"topology\"",
        "\"name\": \"intern\", \"cat\": \"topology\"",
        "\"name\": \"materialize\", \"cat\": \"topology\"",
        "\"name\": \"closure\"",
        "\"name\": \"rank_reduce\"",
        "\"name\": \"produce\", \"cat\": \"cert\"",
        "\"name\": \"check\", \"cat\": \"cert\"",
        "\"name\": \"serialize\", \"cat\": \"cert\"",
        "\"name\": \"csp_enumerate\", \"cat\": \"core\"",
        "\"name\": \"csp_symmetry\", \"cat\": \"core\"",
        "\"name\": \"csp_lift\", \"cat\": \"core\"",
    ] {
        assert!(doc.contains(needle), "trace lacks {needle}:\n{doc}");
    }
}

/// The `tid` of every complete (`"ph": "X"`) span event in `doc`.
fn span_tids(doc: &str) -> Vec<u32> {
    const KEY: &str = "\"ph\": \"X\", \"pid\": 1, \"tid\": ";
    doc.match_indices(KEY)
        .map(|(at, _)| {
            let digits: String = doc[at + KEY.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().expect("a numeric tid")
        })
        .collect()
}

#[test]
fn single_experiment_spans_stay_on_one_thread() {
    // At width 1 every kernel runs on the thread that started the
    // experiment, so the experiment span and every span inside it (all
    // of hunt's rank reductions included) carry one tid.
    let _guard = trace_lock();
    ksa_obs::trace_start();
    let results = ksa_exec::ThreadPool::new(1).install(|| ksa_bench::run_experiments(&["hunt"]));
    let doc = ksa_obs::trace_stop();
    assert!(results[0].0.as_ref().is_ok_and(|o| o.passed));
    let tids = span_tids(&doc);
    assert!(
        doc.contains("\"name\": \"rank_reduce\""),
        "hunt reduces ranks"
    );
    assert!(tids.len() > 1, "hunt records spans: {doc}");
    assert!(
        tids.iter().all(|&t| t == tids[0]),
        "spans on several threads: {tids:?}"
    );
}

#[test]
fn empty_trace_is_wellformed_too() {
    // Without trace_start the export is still a valid, loadable
    // document.
    let _guard = trace_lock();
    assert_valid_json(&ksa_obs::trace_stop());
}
