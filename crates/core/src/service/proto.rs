//! Typed requests and responses over the hand-rolled
//! [`campaign::value`](crate::campaign::value) JSON layer.
//!
//! One request or response is exactly one JSON object on one line
//! (line-delimited JSON). The request envelope carries three transport
//! fields — `id` (echoed verbatim in the response), `priority` (higher
//! dequeues earlier) and `deadline_ms` (queue-residency budget) — plus
//! the verb and its flattened parameters:
//!
//! ```json
//! {"id":"r1","verb":"map","priority":1,"model":"rn-50","batch":4,"iters":150}
//! ```
//!
//! Responses echo `id` and `verb`, carry `ok`, and split their content
//! deliberately: `payload` is a *pure deterministic function of the
//! request* (safe to diff against a one-shot CLI run byte for byte),
//! while the `service` section carries the volatile daemon state —
//! cache hit/miss counters, queue depth, totals — that legitimately
//! differs between a cold CLI run and a warm daemon.
//!
//! Malformed input never panics the daemon: every decode failure maps
//! to an `ok:false` response with a stable [`ErrorCode`]. A request's
//! worker counts (`threads`, `sa_threads`) are clamped to the host's
//! available parallelism as it is decoded.

use crate::campaign::value::{parse_json, Value};
use std::collections::BTreeMap;

/// Hard cap on one request line (bytes, newline excluded). A line that
/// grows past this is refused with [`ErrorCode::Oversized`] and the
/// connection is dropped — the daemon never buffers unbounded input.
pub const MAX_LINE_BYTES: usize = 256 * 1024;

/// Stable machine-readable failure categories, serialized as the
/// `error.code` response field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request was syntactically or semantically invalid.
    BadRequest,
    /// The request line exceeded [`MAX_LINE_BYTES`].
    Oversized,
    /// The bounded queue is full — explicit backpressure; retry later.
    Busy,
    /// The request spent longer queued than its `deadline_ms` allowed;
    /// it was dropped without being evaluated.
    Expired,
    /// The daemon is draining and admits no new work.
    ShuttingDown,
    /// The handler failed (e.g. campaign I/O error).
    Internal,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::BadRequest => "bad_request",
            Self::Oversized => "oversized",
            Self::Busy => "busy",
            Self::Expired => "expired",
            Self::ShuttingDown => "shutting_down",
            Self::Internal => "internal",
        }
    }
}

/// A decode failure, carrying whatever envelope identity could still be
/// recovered so the error response can echo it.
#[derive(Debug, Clone)]
pub struct ProtoError {
    /// Failure category (always [`ErrorCode::BadRequest`] from the
    /// decoder; the transport layers produce the other codes).
    pub code: ErrorCode,
    /// Human-readable detail.
    pub detail: String,
    /// The request `id`, when the envelope parsed far enough to read
    /// it.
    pub id: String,
    /// The request `verb`, when readable.
    pub verb: String,
}

/// `gemini map` parameters (defaults match the CLI flags).
#[derive(Debug, Clone, PartialEq)]
pub struct MapParams {
    /// Workload zoo abbreviation (`rn-50`, `tf`, ...).
    pub model: String,
    /// Architecture preset name.
    pub arch: String,
    /// Total batch size.
    pub batch: u32,
    /// SA iteration budget.
    pub iters: u32,
    /// SA seed.
    pub seed: u64,
    /// SA chain threads (0 = all cores). Results are bit-identical at
    /// any value, so this is excluded from the memo key.
    pub threads: usize,
    /// Append the per-group utilization / fidelity-ladder table.
    pub stats: bool,
}

/// `gemini dse` parameters (defaults match the CLI flags).
#[derive(Debug, Clone, PartialEq)]
pub struct DseParams {
    /// Accelerator budget for the Table-I grid (TOPS).
    pub tops: f64,
    /// Candidate stride (1 = full grid).
    pub stride: usize,
    /// Batch size.
    pub batch: u32,
    /// SA iteration budget per candidate.
    pub iters: u32,
    /// SA seed.
    pub seed: u64,
    /// Fidelity policy: `analytic`, `rerank` or `validate`.
    pub fidelity: String,
    /// Survivors re-scored by the fluid rung.
    pub rerank_k: usize,
    /// Candidate-sweep workers (`None` = the option was not given; SA
    /// chain threads then follow `sa_threads`). Results are identical
    /// at any setting.
    pub threads: Option<usize>,
    /// SA chain threads when `threads` is absent (the CLI resolves
    /// `GEMINI_SA_THREADS` into this field so the daemon never reads
    /// the environment per request).
    pub sa_threads: usize,
    /// Objective spelling ([`crate::objective::VALID_FORMS`]):
    /// `mc-e-d` (default), `e-d`, `d`, `e`, `p99@500`,
    /// `goodput@500:25ms`, ….
    pub objective: String,
}

/// `gemini campaign` parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignParams {
    /// Manifest path (TOML or JSON), as seen by the serving process.
    pub manifest: String,
    /// Resume from the existing journal.
    pub resume: bool,
    /// Cell fan-out workers (0 = all cores).
    pub threads: usize,
    /// Output-root override.
    pub out: Option<String>,
    /// Merge shard journals instead of evaluating.
    pub merge: bool,
    /// Shard partition width (with `shard_index`).
    pub shards: Option<usize>,
    /// This process's shard (with `shards`).
    pub shard_index: Option<usize>,
    /// Also claim cells no sibling journal recorded.
    pub steal: bool,
}

/// The verb-specific body of a request.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// T-Map vs. G-Map comparison on one (model, arch, batch).
    Map(MapParams),
    /// Table-I architecture DSE.
    Dse(DseParams),
    /// Manifest-driven campaign run / shard run / merge.
    Campaign(CampaignParams),
    /// Liveness probe, answered inline.
    Ping,
    /// Daemon counters snapshot, answered inline.
    Stats,
    /// Graceful drain-then-exit.
    Shutdown,
}

impl RequestBody {
    /// The wire verb.
    pub fn verb(&self) -> &'static str {
        match self {
            Self::Map(_) => "map",
            Self::Dse(_) => "dse",
            Self::Campaign(_) => "campaign",
            Self::Ping => "ping",
            Self::Stats => "stats",
            Self::Shutdown => "shutdown",
        }
    }
}

/// One decoded request: transport envelope plus verb body.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response (responses
    /// on a pipelined connection arrive in completion order, not
    /// submission order).
    pub id: String,
    /// Dequeue priority: higher values are served earlier; equal
    /// priorities are FIFO. Defaults to 0.
    pub priority: i64,
    /// Queue-residency budget in milliseconds: a request still queued
    /// past this deadline is answered `expired` instead of evaluated.
    /// Absent = no deadline.
    pub deadline_ms: Option<u64>,
    /// The verb and its parameters.
    pub body: RequestBody,
}

fn field_err(id: &str, verb: &str, detail: String) -> ProtoError {
    ProtoError {
        code: ErrorCode::BadRequest,
        detail,
        id: id.to_string(),
        verb: verb.to_string(),
    }
}

/// Reads an optional string field.
fn get_str(
    t: &BTreeMap<String, Value>,
    key: &str,
    id: &str,
    verb: &str,
) -> Result<Option<String>, ProtoError> {
    match t.get(key) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(field_err(
            id,
            verb,
            format!("field '{key}' must be a string"),
        )),
    }
}

/// Reads an optional boolean field.
fn get_bool(
    t: &BTreeMap<String, Value>,
    key: &str,
    id: &str,
    verb: &str,
) -> Result<Option<bool>, ProtoError> {
    match t.get(key) {
        None => Ok(None),
        Some(Value::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(field_err(
            id,
            verb,
            format!("field '{key}' must be a boolean"),
        )),
    }
}

/// Reads an optional finite number field.
fn get_num(
    t: &BTreeMap<String, Value>,
    key: &str,
    id: &str,
    verb: &str,
) -> Result<Option<f64>, ProtoError> {
    match t.get(key) {
        None => Ok(None),
        Some(Value::Num(n)) => Ok(Some(*n)),
        Some(_) => Err(field_err(
            id,
            verb,
            format!("field '{key}' must be a number"),
        )),
    }
}

/// Reads an optional non-negative integer field (rejects fractions and
/// values past `u64` range).
fn get_uint(
    t: &BTreeMap<String, Value>,
    key: &str,
    id: &str,
    verb: &str,
) -> Result<Option<u64>, ProtoError> {
    match get_num(t, key, id, verb)? {
        None => Ok(None),
        Some(n) if n >= 0.0 && n <= u64::MAX as f64 && n.trunc() == n => Ok(Some(n as u64)),
        Some(n) => Err(field_err(
            id,
            verb,
            format!("field '{key}' must be a non-negative integer, got {n}"),
        )),
    }
}

/// Narrows a `u64` field to `u32`.
fn get_u32(
    t: &BTreeMap<String, Value>,
    key: &str,
    id: &str,
    verb: &str,
) -> Result<Option<u32>, ProtoError> {
    match get_uint(t, key, id, verb)? {
        None => Ok(None),
        Some(n) if n <= u32::MAX as u64 => Ok(Some(n as u32)),
        Some(n) => Err(field_err(id, verb, format!("field '{key}' too large: {n}"))),
    }
}

/// Reads an optional worker-count field, clamped to the host's available
/// parallelism; 0 ("all cores") stays 0. Payloads do not depend on
/// thread counts, so the clamp moves no bytes, and no request can ask
/// for more threads than the host runs at once.
fn get_threads(
    t: &BTreeMap<String, Value>,
    key: &str,
    id: &str,
    verb: &str,
) -> Result<Option<usize>, ProtoError> {
    Ok(get_uint(t, key, id, verb)?.map(|n| match n {
        // Any host runs one thread. The parallelism query reads cgroup
        // files on Linux (about 20 us), so 0 and 1 skip it.
        0 | 1 => n as usize,
        _ => n.min(crate::pool::host_threads() as u64) as usize,
    }))
}

impl Request {
    /// Decodes one request line.
    ///
    /// # Errors
    ///
    /// Every malformed input — bad JSON, a non-object document, a
    /// missing or unknown verb, a wrongly-typed field — returns a
    /// [`ProtoError`] carrying whatever `id`/`verb` could be
    /// recovered, so the transport can answer a well-formed error
    /// response instead of dropping or crashing.
    pub fn from_json(line: &str) -> Result<Self, ProtoError> {
        let doc = parse_json(line).map_err(|e| ProtoError {
            code: ErrorCode::BadRequest,
            detail: format!("invalid JSON: {e}"),
            id: String::new(),
            verb: String::new(),
        })?;
        let Some(t) = doc.as_table() else {
            return Err(field_err("", "", "request must be a JSON object".into()));
        };
        let id = get_str(t, "id", "", "")?.unwrap_or_default();
        let Some(verb) = get_str(t, "verb", &id, "")? else {
            return Err(field_err(&id, "", "missing 'verb'".into()));
        };
        let priority = match t.get("priority") {
            None => 0,
            Some(Value::Num(n)) if n.trunc() == *n && n.abs() <= i64::MAX as f64 => *n as i64,
            Some(_) => {
                return Err(field_err(
                    &id,
                    &verb,
                    "field 'priority' must be an integer".into(),
                ))
            }
        };
        let deadline_ms = get_uint(t, "deadline_ms", &id, &verb)?;

        let body = match verb.as_str() {
            "ping" => RequestBody::Ping,
            "stats" => RequestBody::Stats,
            "shutdown" => RequestBody::Shutdown,
            "map" => {
                let Some(model) = get_str(t, "model", &id, &verb)? else {
                    return Err(field_err(&id, &verb, "map requires 'model'".into()));
                };
                RequestBody::Map(MapParams {
                    model,
                    arch: get_str(t, "arch", &id, &verb)?.unwrap_or_else(|| "g-arch".into()),
                    batch: get_u32(t, "batch", &id, &verb)?.unwrap_or(16),
                    iters: get_u32(t, "iters", &id, &verb)?.unwrap_or(1000),
                    seed: get_uint(t, "seed", &id, &verb)?.unwrap_or(0xC0FFEE),
                    threads: get_threads(t, "threads", &id, &verb)?.unwrap_or(0),
                    stats: get_bool(t, "stats", &id, &verb)?.unwrap_or(false),
                })
            }
            "dse" => RequestBody::Dse(DseParams {
                tops: get_num(t, "tops", &id, &verb)?.unwrap_or(72.0),
                stride: get_uint(t, "stride", &id, &verb)?.unwrap_or(29) as usize,
                batch: get_u32(t, "batch", &id, &verb)?.unwrap_or(64),
                iters: get_u32(t, "iters", &id, &verb)?.unwrap_or(300),
                seed: get_uint(t, "seed", &id, &verb)?.unwrap_or(0xC0FFEE),
                fidelity: get_str(t, "fidelity", &id, &verb)?.unwrap_or_else(|| "analytic".into()),
                rerank_k: get_uint(t, "rerank_k", &id, &verb)?.unwrap_or(8) as usize,
                threads: get_threads(t, "threads", &id, &verb)?,
                sa_threads: get_threads(t, "sa_threads", &id, &verb)?.unwrap_or(0),
                objective: get_str(t, "objective", &id, &verb)?.unwrap_or_else(|| "mc-e-d".into()),
            }),
            "campaign" => {
                let Some(manifest) = get_str(t, "manifest", &id, &verb)? else {
                    return Err(field_err(&id, &verb, "campaign requires 'manifest'".into()));
                };
                RequestBody::Campaign(CampaignParams {
                    manifest,
                    resume: get_bool(t, "resume", &id, &verb)?.unwrap_or(false),
                    threads: get_threads(t, "threads", &id, &verb)?.unwrap_or(0),
                    out: get_str(t, "out", &id, &verb)?,
                    merge: get_bool(t, "merge", &id, &verb)?.unwrap_or(false),
                    shards: get_uint(t, "shards", &id, &verb)?.map(|n| n as usize),
                    shard_index: get_uint(t, "shard_index", &id, &verb)?.map(|n| n as usize),
                    steal: get_bool(t, "steal", &id, &verb)?.unwrap_or(false),
                })
            }
            other => {
                return Err(field_err(
                    &id,
                    other,
                    format!(
                        "unknown verb '{other}'; expected map|dse|campaign|ping|stats|shutdown"
                    ),
                ))
            }
        };
        Ok(Self {
            id,
            priority,
            deadline_ms,
            body,
        })
    }
}

/// One response: the echoed envelope plus either a deterministic
/// payload or an error.
#[derive(Debug, Clone)]
pub struct Response {
    /// Echoed request id.
    pub id: String,
    /// Echoed verb (empty when the verb itself was unreadable).
    pub verb: String,
    /// `Ok(payload)` or `Err((code, detail))`.
    pub outcome: Result<Value, (ErrorCode, String)>,
}

impl Response {
    /// A success response.
    pub fn ok(id: impl Into<String>, verb: impl Into<String>, payload: Value) -> Self {
        Self {
            id: id.into(),
            verb: verb.into(),
            outcome: Ok(payload),
        }
    }

    /// A failure response.
    pub fn err(
        id: impl Into<String>,
        verb: impl Into<String>,
        code: ErrorCode,
        detail: impl Into<String>,
    ) -> Self {
        Self {
            id: id.into(),
            verb: verb.into(),
            outcome: Err((code, detail.into())),
        }
    }

    /// A failure response from a decode error.
    pub fn from_proto_err(e: &ProtoError) -> Self {
        Self::err(e.id.clone(), e.verb.clone(), e.code, e.detail.clone())
    }

    /// Serializes to one JSON line (no trailing newline), attaching the
    /// volatile `service` section when given.
    pub fn to_json_line(&self, service: Option<Value>) -> String {
        let mut t = BTreeMap::new();
        t.insert("id".to_string(), Value::from(self.id.as_str()));
        t.insert("verb".to_string(), Value::from(self.verb.as_str()));
        match &self.outcome {
            Ok(payload) => {
                t.insert("ok".to_string(), Value::Bool(true));
                t.insert("payload".to_string(), payload.clone());
            }
            Err((code, detail)) => {
                t.insert("ok".to_string(), Value::Bool(false));
                let mut e = BTreeMap::new();
                e.insert("code".to_string(), Value::from(code.as_str()));
                e.insert("detail".to_string(), Value::from(detail.as_str()));
                t.insert("error".to_string(), Value::Table(e));
            }
        }
        if let Some(s) = service {
            t.insert("service".to_string(), s);
        }
        Value::Table(t).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_request_decodes_with_defaults() {
        let r = Request::from_json(r#"{"id":"a","verb":"map","model":"rn-50"}"#).unwrap();
        assert_eq!(r.id, "a");
        assert_eq!(r.priority, 0);
        assert_eq!(r.deadline_ms, None);
        let RequestBody::Map(p) = r.body else {
            panic!("map body");
        };
        assert_eq!(p.model, "rn-50");
        assert_eq!(p.arch, "g-arch");
        assert_eq!((p.batch, p.iters), (16, 1000));
        assert_eq!(p.seed, 0xC0FFEE);
        assert!(!p.stats);
    }

    #[test]
    fn envelope_fields_decode() {
        let r = Request::from_json(
            r#"{"verb":"dse","priority":-2,"deadline_ms":1500,"stride":400,"fidelity":"rerank"}"#,
        )
        .unwrap();
        assert_eq!(r.id, "");
        assert_eq!(r.priority, -2);
        assert_eq!(r.deadline_ms, Some(1500));
        let RequestBody::Dse(p) = r.body else {
            panic!("dse body");
        };
        assert_eq!(p.stride, 400);
        assert_eq!(p.fidelity, "rerank");
        assert_eq!(p.threads, None);
    }

    #[test]
    fn thread_counts_are_clamped_to_the_host_at_decode() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let decode = |line: &str| Request::from_json(line).unwrap().body;
        let RequestBody::Map(m) = decode(r#"{"verb":"map","model":"rn-50","threads":1000000}"#)
        else {
            panic!("map body");
        };
        assert_eq!(m.threads, cores);
        let RequestBody::Dse(d) =
            decode(r#"{"verb":"dse","threads":1000000,"sa_threads":1000000}"#)
        else {
            panic!("dse body");
        };
        assert_eq!((d.threads, d.sa_threads), (Some(cores), cores));
        let RequestBody::Campaign(c) =
            decode(r#"{"verb":"campaign","manifest":"m.toml","threads":1000000}"#)
        else {
            panic!("campaign body");
        };
        assert_eq!(c.threads, cores);
        // 0 keeps meaning "all cores", and 1 fits any host.
        let RequestBody::Dse(d) = decode(r#"{"verb":"dse","threads":0,"sa_threads":1}"#) else {
            panic!("dse body");
        };
        assert_eq!((d.threads, d.sa_threads), (Some(0), 1));
    }

    #[test]
    fn malformed_requests_refuse_with_context() {
        // Bad JSON: no id recoverable.
        let e = Request::from_json("{nope").unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        assert_eq!(e.id, "");
        // Valid JSON, bad shape: id recovered for the error response.
        let e = Request::from_json(r#"{"id":"x","verb":"map"}"#).unwrap_err();
        assert_eq!(e.id, "x");
        assert!(e.detail.contains("model"), "{}", e.detail);
        let e = Request::from_json(r#"{"id":"y","verb":"frobnicate"}"#).unwrap_err();
        assert!(e.detail.contains("unknown verb"), "{}", e.detail);
        let e = Request::from_json(r#"{"verb":"map","model":"rn-50","batch":1.5}"#).unwrap_err();
        assert!(e.detail.contains("batch"), "{}", e.detail);
        let e = Request::from_json(r#"{"verb":"map","model":"rn-50","batch":-4}"#).unwrap_err();
        assert!(e.detail.contains("non-negative"), "{}", e.detail);
        let e = Request::from_json("[1,2,3]").unwrap_err();
        assert!(e.detail.contains("object"), "{}", e.detail);
    }

    #[test]
    fn response_lines_round_trip_through_the_value_layer() {
        let ok = Response::ok("a", "ping", Value::Table(BTreeMap::new()));
        let line = ok.to_json_line(None);
        let v = parse_json(&line).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("id").unwrap().as_str(), Some("a"));

        let err = Response::err("b", "map", ErrorCode::Busy, "queue full");
        let mut svc = BTreeMap::new();
        svc.insert("queue_depth".to_string(), Value::from(3usize));
        let line = err.to_json_line(Some(Value::Table(svc)));
        let v = parse_json(&line).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(
            v.get("error").unwrap().get("code").unwrap().as_str(),
            Some("busy")
        );
        assert_eq!(
            v.get("service")
                .unwrap()
                .get("queue_depth")
                .unwrap()
                .as_num(),
            Some(3.0)
        );
    }
}
