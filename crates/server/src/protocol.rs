//! Request/response vocabulary of the analysis service (DESIGN.md §12.3).
//!
//! Every connection carries exactly one request frame followed by the
//! server's response frames: zero or more `progress` events, then a
//! terminal `result`, `error`, or `overloaded` frame, after which the
//! server closes the connection.
//!
//! Result frames contain only deterministic fields (no timestamps,
//! request ids, or timing), so a cached replay of a response is
//! byte-identical to computing it fresh — the property the cache tests
//! and the CI integration job diff for.

use crate::json::{obj, Value};

/// Queries a client can send. One request per connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe. Unlike a cache hit it is queued and answered by
    /// a worker, so it also probes queue capacity and worker liveness.
    Ping,
    /// Orderly shutdown of the server.
    Shutdown,
    /// One-round solvability k-sweep for a model (the `solv`
    /// experiment's convention: per-k inputs over `{0, …, k}`).
    Solv {
        /// Model name or canonical spec string.
        model: String,
        /// Sweep ceiling (`k ∈ {1, …, k_max}`).
        k_max: usize,
        /// Client deadline; `None` runs to completion.
        deadline_ms: Option<u64>,
        /// Bypass the response cache for this request.
        no_cache: bool,
    },
    /// Multi-round lower-bound/topology cross-check sweep.
    Rounds {
        /// Model name or canonical spec string.
        model: String,
        /// Inputs over `{0, …, value_max}`.
        value_max: usize,
        /// Rounds to sweep.
        rounds: usize,
        /// Client deadline; `None` runs to completion.
        deadline_ms: Option<u64>,
        /// Bypass the response cache for this request.
        no_cache: bool,
    },
}

fn usize_field(v: &Value, key: &str) -> Result<usize, String> {
    let raw = v
        .get(key)
        .ok_or_else(|| format!("missing field `{key}`"))?
        .as_i64()
        .ok_or_else(|| format!("field `{key}` must be an integer"))?;
    usize::try_from(raw).map_err(|_| format!("field `{key}` must be non-negative"))
}

fn optional_u64_field(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(raw) => {
            let i = raw
                .as_i64()
                .ok_or_else(|| format!("field `{key}` must be an integer"))?;
            u64::try_from(i)
                .map(Some)
                .map_err(|_| format!("field `{key}` must be non-negative"))
        }
    }
}

fn bool_field_or_false(v: &Value, key: &str) -> Result<bool, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(false),
        Some(raw) => raw
            .as_bool()
            .ok_or_else(|| format!("field `{key}` must be a boolean")),
    }
}

fn model_field(v: &Value) -> Result<String, String> {
    let model = v
        .get("model")
        .ok_or("missing field `model`")?
        .as_str()
        .ok_or("field `model` must be a string")?;
    if model.is_empty() || model.len() > 4096 {
        return Err("field `model` must be 1–4096 bytes".to_string());
    }
    Ok(model.to_string())
}

impl Request {
    /// Parse a request from its decoded JSON frame.
    ///
    /// # Errors
    ///
    /// A `bad_request` message describing the first problem.
    pub fn from_json(v: &Value) -> Result<Request, String> {
        let query = v
            .get("query")
            .ok_or("missing field `query`")?
            .as_str()
            .ok_or("field `query` must be a string")?;
        match query {
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            "solv" => {
                let k_max = usize_field(v, "k_max")?;
                if k_max == 0 || k_max > 16 {
                    return Err("field `k_max` must be in 1–16".to_string());
                }
                Ok(Request::Solv {
                    model: model_field(v)?,
                    k_max,
                    deadline_ms: optional_u64_field(v, "deadline_ms")?,
                    no_cache: bool_field_or_false(v, "no_cache")?,
                })
            }
            "rounds" => {
                let value_max = usize_field(v, "value_max")?;
                let rounds = usize_field(v, "rounds")?;
                if rounds == 0 || rounds > 8 {
                    return Err("field `rounds` must be in 1–8".to_string());
                }
                if value_max > 8 {
                    return Err("field `value_max` must be at most 8".to_string());
                }
                Ok(Request::Rounds {
                    model: model_field(v)?,
                    value_max,
                    rounds,
                    deadline_ms: optional_u64_field(v, "deadline_ms")?,
                    no_cache: bool_field_or_false(v, "no_cache")?,
                })
            }
            other => Err(format!("unknown query `{other}`")),
        }
    }

    /// The deadline for this request, if any.
    #[must_use]
    pub fn deadline_ms(&self) -> Option<u64> {
        match self {
            Request::Solv { deadline_ms, .. } | Request::Rounds { deadline_ms, .. } => *deadline_ms,
            _ => None,
        }
    }
}

/// Error kinds a terminal `error` frame can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request was malformed or named an unknown model.
    BadRequest,
    /// The request was cancelled (e.g. the client disconnected).
    Cancelled,
    /// The request's deadline fired before the result was ready.
    Deadline,
    /// The worker running the request panicked; the server absorbed it.
    Panic,
    /// Anything else (budget exhaustion, internal invariant).
    Internal,
}

impl ErrorKind {
    /// The wire name of this kind.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Cancelled => "cancelled",
            ErrorKind::Deadline => "deadline",
            ErrorKind::Panic => "panic",
            ErrorKind::Internal => "internal",
        }
    }
}

/// Build a terminal `error` frame.
#[must_use]
pub fn error_frame(kind: ErrorKind, message: &str) -> Value {
    obj(vec![
        ("event", Value::Str("error".to_string())),
        ("kind", Value::Str(kind.name().to_string())),
        ("message", Value::Str(message.to_string())),
    ])
}

/// Build a terminal `overloaded` frame (request shed, try again).
#[must_use]
pub fn overloaded_frame(retry_after_ms: u64) -> Value {
    obj(vec![
        ("event", Value::Str("overloaded".to_string())),
        (
            "retry_after_ms",
            Value::Int(i64::try_from(retry_after_ms).unwrap_or(i64::MAX)),
        ),
    ])
}

/// Build a streamed `progress` frame for a running sweep.
#[must_use]
pub fn progress_frame(k: usize, decided: usize, total: usize) -> Value {
    obj(vec![
        ("event", Value::Str("progress".to_string())),
        ("k", Value::Int(k as i64)),
        ("decided", Value::Int(decided as i64)),
        ("total", Value::Int(total as i64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn parses_each_query() {
        let ping = parse(br#"{"query":"ping"}"#).unwrap();
        assert_eq!(Request::from_json(&ping).unwrap(), Request::Ping);
        let solv = parse(
            br#"{"query":"solv","model":"ring{n=3}","k_max":3,"deadline_ms":250,"no_cache":true}"#,
        )
        .unwrap();
        assert_eq!(
            Request::from_json(&solv).unwrap(),
            Request::Solv {
                model: "ring{n=3}".to_string(),
                k_max: 3,
                deadline_ms: Some(250),
                no_cache: true,
            }
        );
        let rounds =
            parse(br#"{"query":"rounds","model":"ring{n=3}","value_max":1,"rounds":2}"#).unwrap();
        assert_eq!(
            Request::from_json(&rounds).unwrap(),
            Request::Rounds {
                model: "ring{n=3}".to_string(),
                value_max: 1,
                rounds: 2,
                deadline_ms: None,
                no_cache: false,
            }
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            r#"{}"#,
            r#"{"query":"frobnicate"}"#,
            r#"{"query":"solv"}"#,
            r#"{"query":"solv","model":"ring{n=3}","k_max":0}"#,
            r#"{"query":"solv","model":"ring{n=3}","k_max":999}"#,
            r#"{"query":"solv","model":"","k_max":2}"#,
            r#"{"query":"solv","model":"ring{n=3}","k_max":2,"deadline_ms":-5}"#,
            r#"{"query":"rounds","model":"ring{n=3}","value_max":1,"rounds":0}"#,
            r#"{"query":"rounds","model":"ring{n=3}","value_max":99,"rounds":1}"#,
            r#"{"query":"solv","model":"ring{n=3}","k_max":2,"no_cache":"yes"}"#,
        ] {
            let v = parse(bad.as_bytes()).unwrap();
            assert!(Request::from_json(&v).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn frames_serialize_stably() {
        assert_eq!(
            error_frame(ErrorKind::Deadline, "too slow").to_json(),
            r#"{"event":"error","kind":"deadline","message":"too slow"}"#
        );
        assert_eq!(
            overloaded_frame(50).to_json(),
            r#"{"event":"overloaded","retry_after_ms":50}"#
        );
        assert_eq!(
            progress_frame(2, 1, 3).to_json(),
            r#"{"event":"progress","k":2,"decided":1,"total":3}"#
        );
    }
}
