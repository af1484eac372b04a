//! The `wlp-serve` wire protocol: newline-delimited JSON requests and
//! responses.
//!
//! One request per line, one response line per request, in order. The
//! schema is documented (with the exact examples the CI smoke job
//! replays) in `docs/PROTOCOL.md`; this module is the executable side of
//! that contract: [`parse_request`] validates an incoming line into a
//! typed [`Request`], and the error vocabulary ([`codes`]) is the single
//! source of truth for the `error.code` field.

use serde::json::{self, Kind, Number, Reader};
use serde::Value;
use std::borrow::Cow;

/// The protocol version this build speaks. Requests may carry a `"v"`
/// field; omitted means current, anything else is rejected with
/// [`codes::UNSUPPORTED_VERSION`].
pub const PROTOCOL_VERSION: u64 = 1;

/// Error codes a response's `error.code` field can carry.
///
/// Codes marked *retriable* come with a `retry_after_ms` hint: the
/// request was well-formed but the service is momentarily unwilling;
/// resubmitting after the hint is the expected client behavior.
pub mod codes {
    /// Malformed JSON, missing/mistyped fields, unknown `op`.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The request's `"v"` is not a version this build speaks.
    pub const UNSUPPORTED_VERSION: &str = "unsupported_version";
    /// The WHILE program failed to parse or lower; `error.detail`
    /// carries the rendered span.
    pub const PARSE_ERROR: &str = "parse_error";
    /// The program parsed but execution failed (out-of-bounds access,
    /// unbound name, division by zero).
    pub const EXEC_ERROR: &str = "exec_error";
    /// Retriable: the tenant already has its maximum admitted regions
    /// in flight.
    pub const TENANT_BUSY: &str = "tenant_busy";
    /// Retriable: the shared region queue is too deep to admit more
    /// work from anyone.
    pub const OVERLOADED: &str = "overloaded";
    /// Retriable: the tenant's speculation write-budget credits are
    /// exhausted — its speculative regions are running hot.
    pub const BUDGET_EXHAUSTED: &str = "budget_exhausted";
    /// Retriable: the request missed its end-to-end deadline
    /// (`deadline_ms`) — while queued for a lane, during execution, or
    /// because its client vanished — and its region was aborted.
    pub const TIMEOUT: &str = "timeout";
    /// Retriable: the tenant's circuit breaker is open after a run of
    /// consecutive timeouts/aborts; `retry_after_ms` is the remaining
    /// open interval.
    pub const TENANT_CIRCUIT_OPEN: &str = "tenant_circuit_open";
    /// Retriable (against a peer, not this process): the service is
    /// draining for shutdown and admits no new work.
    pub const DRAINING: &str = "draining";
}

/// How much state a `run` response carries back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplyMode {
    /// Array digests only (cheapest; for replay gating).
    Digest,
    /// Final scalars plus array digests (the default).
    #[default]
    Scalars,
    /// Scalars, digests, and full array contents.
    Full,
}

impl ReplyMode {
    fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "digest" => ReplyMode::Digest,
            "scalars" => ReplyMode::Scalars,
            "full" => ReplyMode::Full,
            _ => return None,
        })
    }
}

/// A `run` request: execute a WHILE program against supplied state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRequest {
    /// Client-chosen correlation id, echoed verbatim.
    pub id: Option<String>,
    /// Tenant the request is accounted to.
    pub tenant: String,
    /// WHILE source text.
    pub source: String,
    /// Initial arrays, name → contents.
    pub arrays: Vec<(String, Vec<i64>)>,
    /// Initial scalars, name → value.
    pub scalars: Vec<(String, i64)>,
    /// Iteration bound override (service default when absent).
    pub max_iters: Option<usize>,
    /// End-to-end deadline in milliseconds, measured from the moment the
    /// service was handed the line (so parsing it counts): the request
    /// must be granted a lane *and* finish executing before it expires, or it is aborted with a retriable [`codes::TIMEOUT`].
    /// Clamped by the service's configured maximum.
    pub deadline_ms: Option<u64>,
    /// Response verbosity.
    pub reply: ReplyMode,
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Execute a program.
    Run(RunRequest),
    /// Analyze only: return the certificate without executing.
    Certify {
        /// Correlation id.
        id: Option<String>,
        /// Tenant (accounting only; certify is not admission-controlled).
        tenant: String,
        /// WHILE source text.
        source: String,
    },
    /// Service counters snapshot.
    Stats {
        /// Correlation id.
        id: Option<String>,
    },
    /// Liveness probe.
    Ping {
        /// Correlation id.
        id: Option<String>,
    },
    /// Graceful drain: stop admitting new work, finish what is in
    /// flight, then exit (the SIGTERM handler issues the same
    /// transition).
    Shutdown {
        /// Correlation id.
        id: Option<String>,
    },
}

/// A request rejection: the error code plus a human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// One of the [`codes`] constants.
    pub code: &'static str,
    /// What went wrong, for humans.
    pub detail: String,
    /// Correlation id if one was recovered before the failure.
    pub id: Option<String>,
}

fn bad<T>(id: Option<String>, detail: impl Into<String>) -> Result<T, ProtoError> {
    Err(ProtoError {
        code: codes::BAD_REQUEST,
        detail: detail.into(),
        id,
    })
}

/// The tenant name used when a request does not name one.
pub const DEFAULT_TENANT: &str = "anon";

/// [`RunRequest::arrays`] while it is being read.
type Arrays = Vec<(String, Vec<i64>)>;

/// The request's top-level fields as one pass over the line leaves
/// them. The outer `Option` is "the key occurred" (only its first
/// occurrence is read; later ones are validated and ignored); what is
/// inside is the field's typed value, or the mark that it had the wrong
/// type. Nothing is judged until the whole line has been validated: a
/// syntax error anywhere wins over a field error, and field errors are
/// reported in a fixed order, not in the order the line happens to list
/// its fields.
#[derive(Default)]
struct Fields<'a> {
    id: Option<Option<String>>,
    /// `Err` carries the offending value, rendered for the detail.
    version: Option<Result<(), String>>,
    op: Option<Option<Cow<'a, str>>>,
    tenant: Option<Option<String>>,
    program: Option<Option<String>>,
    arrays: Option<Result<Arrays, String>>,
    scalars: Option<Result<Vec<(String, i64)>, String>>,
    max_iters: Option<Option<u64>>,
    deadline_ms: Option<Option<u64>>,
    reply: Option<Option<ReplyMode>>,
}

/// Parses one NDJSON request line into a typed [`Request`] in a single
/// pass over [`json::Reader`]: array elements go straight into their
/// `Vec<i64>`, and no [`Value`] tree is built.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let fields = read_fields(line).map_err(|e| ProtoError {
        code: codes::BAD_REQUEST,
        detail: format!("invalid JSON at byte {}: {}", e.at, e.msg),
        id: None,
    })?;
    let Some(f) = fields else {
        return bad(None, "request must be a JSON object");
    };
    let id = f.id.flatten();
    if let Some(Err(got)) = f.version {
        return Err(ProtoError {
            code: codes::UNSUPPORTED_VERSION,
            detail: format!("this build speaks protocol v{PROTOCOL_VERSION}; got {got}"),
            id,
        });
    }
    let Some(op) = f.op.flatten() else {
        return bad(id, "missing string field `op`");
    };
    let tenant = f
        .tenant
        .flatten()
        .unwrap_or_else(|| DEFAULT_TENANT.to_string());
    match &*op {
        "ping" => Ok(Request::Ping { id }),
        "stats" => Ok(Request::Stats { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        "certify" => {
            let Some(source) = f.program.flatten() else {
                return bad(id, "`certify` needs a string field `program`");
            };
            Ok(Request::Certify { id, tenant, source })
        }
        "run" => {
            let Some(source) = f.program.flatten() else {
                return bad(id, "`run` needs a string field `program`");
            };
            let arrays = match f.arrays.unwrap_or_else(|| Ok(Vec::new())) {
                Ok(arrays) => arrays,
                Err(detail) => return bad(id, detail),
            };
            let scalars = match f.scalars.unwrap_or_else(|| Ok(Vec::new())) {
                Ok(scalars) => scalars,
                Err(detail) => return bad(id, detail),
            };
            let max_iters = match f.max_iters {
                None => None,
                Some(Some(n)) => Some(n as usize),
                Some(None) => return bad(id, "`max_iters` must be a non-negative integer"),
            };
            let deadline_ms = match f.deadline_ms {
                None => None,
                Some(Some(ms)) if ms > 0 => Some(ms),
                Some(_) => return bad(id, "`deadline_ms` must be a positive integer"),
            };
            let reply = match f.reply {
                None => ReplyMode::default(),
                Some(Some(mode)) => mode,
                Some(None) => {
                    return bad(
                        id,
                        "`reply` must be one of \"digest\", \"scalars\", \"full\"",
                    )
                }
            };
            Ok(Request::Run(RunRequest {
                id,
                tenant,
                source,
                arrays,
                scalars,
                max_iters,
                deadline_ms,
                reply,
            }))
        }
        other => bad(
            id,
            format!("unknown op `{other}` (expected run, certify, stats, ping, or shutdown)"),
        ),
    }
}

/// The one pass: every byte of `line` is validated as JSON, and the
/// fields a request can carry are kept. `None` when the line is valid
/// JSON but not an object.
fn read_fields(line: &str) -> Result<Option<Fields<'_>>, json::ParseError> {
    let mut r = Reader::new(line);
    if r.peek_kind()? != Kind::Object {
        r.skip_value()?;
        r.finish()?;
        return Ok(None);
    }
    let mut f = Fields::default();
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "id" if f.id.is_none() => f.id = Some(string(&mut r)?.map(Cow::into_owned)),
            "v" if f.version.is_none() => f.version = Some(version(&mut r)?),
            "op" if f.op.is_none() => f.op = Some(string(&mut r)?),
            "tenant" if f.tenant.is_none() => {
                f.tenant = Some(string(&mut r)?.map(Cow::into_owned));
            }
            "program" if f.program.is_none() => {
                f.program = Some(string(&mut r)?.map(Cow::into_owned));
            }
            "arrays" if f.arrays.is_none() => f.arrays = Some(arrays(&mut r)?),
            "scalars" if f.scalars.is_none() => f.scalars = Some(scalars(&mut r)?),
            "max_iters" if f.max_iters.is_none() => {
                f.max_iters = Some(number(&mut r)?.and_then(Number::as_u64));
            }
            "deadline_ms" if f.deadline_ms.is_none() => {
                f.deadline_ms = Some(number(&mut r)?.and_then(Number::as_u64));
            }
            "reply" if f.reply.is_none() => {
                f.reply = Some(string(&mut r)?.and_then(|s| ReplyMode::from_name(&s)));
            }
            _ => r.skip_value()?,
        }
    }
    r.finish()?;
    Ok(Some(f))
}

/// The value if it is a string; any other value is validated and passed
/// over.
fn string<'a>(r: &mut Reader<'a>) -> Result<Option<Cow<'a, str>>, json::ParseError> {
    if r.peek_kind()? == Kind::Str {
        return r.str().map(Some);
    }
    r.skip_value().map(|()| None)
}

/// The value if it is a number; any other value is validated and passed
/// over.
fn number(r: &mut Reader<'_>) -> Result<Option<Number>, json::ParseError> {
    if r.peek_kind()? == Kind::Number {
        return r.number().map(Some);
    }
    r.skip_value().map(|()| None)
}

/// The `"v"` field: fine when it reads as [`PROTOCOL_VERSION`], else the
/// value rendered back as JSON for the rejection's detail.
fn version(r: &mut Reader<'_>) -> Result<Result<(), String>, json::ParseError> {
    if r.peek_kind()? == Kind::Number {
        let n = r.number()?;
        return Ok(match n.as_u64() {
            Some(PROTOCOL_VERSION) => Ok(()),
            _ => Err(json::to_string(&Value::from(n))),
        });
    }
    // no version is spelled as a string or a container: the rejection
    // path can afford the tree its detail is rendered from
    r.value().map(|v| Err(json::to_string(&v)))
}

/// The `arrays` field, name → integers, duplicates kept in line order.
/// The first ill-typed member decides the error; everything after it is
/// still validated, but no longer kept.
fn arrays(r: &mut Reader<'_>) -> Result<Result<Arrays, String>, json::ParseError> {
    if r.peek_kind()? != Kind::Object {
        r.skip_value()?;
        return Ok(Err("`arrays` must be an object of name → [integers]".into()));
    }
    let mut out = Vec::new();
    let mut wrong: Option<String> = None;
    r.begin_object()?;
    while let Some(name) = r.next_key()? {
        if wrong.is_some() {
            r.skip_value()?;
        } else if r.peek_kind()? != Kind::Array {
            r.skip_value()?;
            wrong = Some(format!("array `{name}` must be a JSON array"));
        } else {
            let mut data = Vec::new();
            r.begin_array()?;
            // The tokenizer takes every run of plain integers itself and
            // stops in front of anything else, which is read and judged
            // here. (Once `wrong` is set `data` is dropped with `out`, so
            // what a run still adds to it is never seen.)
            r.integers(&mut data);
            while r.next_element()? {
                match number(r)?.and_then(Number::as_i64) {
                    Some(x) if wrong.is_none() => data.push(x),
                    Some(_) => {}
                    None => {
                        wrong.get_or_insert_with(|| {
                            format!("array `{name}` holds a non-integer element")
                        });
                    }
                }
                r.integers(&mut data);
            }
            out.push((name.into_owned(), data));
        }
    }
    Ok(wrong.map_or(Ok(out), Err))
}

/// The `scalars` field, name → integer, by the rules of [`arrays`].
fn scalars(r: &mut Reader<'_>) -> Result<Result<Vec<(String, i64)>, String>, json::ParseError> {
    if r.peek_kind()? != Kind::Object {
        r.skip_value()?;
        return Ok(Err("`scalars` must be an object of name → integer".into()));
    }
    let mut out = Vec::new();
    let mut wrong: Option<String> = None;
    r.begin_object()?;
    while let Some(name) = r.next_key()? {
        match number(r)?.and_then(Number::as_i64) {
            Some(x) if wrong.is_none() => out.push((name.into_owned(), x)),
            Some(_) => {}
            None => {
                wrong.get_or_insert_with(|| format!("scalar `{name}` must be an integer"));
            }
        }
    }
    Ok(wrong.map_or(Ok(out), Err))
}

/// Builds the error-response line for a rejection (shared by the service
/// and the binary so every error has the same shape).
pub fn error_line(err: &ProtoError, retry_after_ms: Option<u64>) -> String {
    let mut error = vec![
        ("code".to_string(), Value::Str(err.code.to_string())),
        ("detail".to_string(), Value::Str(err.detail.clone())),
    ];
    if let Some(ms) = retry_after_ms {
        error.push(("retry_after_ms".to_string(), Value::UInt(ms)));
    }
    let mut fields = vec![
        ("v".to_string(), Value::UInt(PROTOCOL_VERSION)),
        ("ok".to_string(), Value::Bool(false)),
    ];
    if let Some(id) = &err.id {
        fields.push(("id".to_string(), Value::Str(id.clone())));
    }
    fields.push(("error".to_string(), Value::Object(error)));
    json::to_string(&Value::Object(fields))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `Value`-tree route [`parse_request`] took before it read the
    /// line through [`json::Reader`] directly: parse the whole line into a
    /// tree, then destructure it. Kept as the differential oracle — the
    /// typed single pass must accept and reject exactly what this does,
    /// with the same `Request` or the same `ProtoError`.
    fn parse_request_via_value(line: &str) -> Result<Request, ProtoError> {
        let v = json::parse(line).map_err(|e| ProtoError {
            code: codes::BAD_REQUEST,
            detail: format!("invalid JSON at byte {}: {}", e.at, e.msg),
            id: None,
        })?;
        if v.as_object().is_none() {
            return bad(None, "request must be a JSON object");
        }
        let id = v.get("id").and_then(Value::as_str).map(str::to_string);
        if let Some(ver) = v.get("v") {
            match ver.as_u64() {
                Some(PROTOCOL_VERSION) => {}
                _ => {
                    return Err(ProtoError {
                        code: codes::UNSUPPORTED_VERSION,
                        detail: format!(
                            "this build speaks protocol v{PROTOCOL_VERSION}; got {}",
                            json::to_string(ver)
                        ),
                        id,
                    })
                }
            }
        }
        let Some(op) = v.get("op").and_then(Value::as_str) else {
            return bad(id, "missing string field `op`");
        };
        let tenant = v
            .get("tenant")
            .and_then(Value::as_str)
            .unwrap_or(DEFAULT_TENANT)
            .to_string();
        match op {
            "ping" => Ok(Request::Ping { id }),
            "stats" => Ok(Request::Stats { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            "certify" => {
                let Some(source) = v.get("program").and_then(Value::as_str) else {
                    return bad(id, "`certify` needs a string field `program`");
                };
                Ok(Request::Certify {
                    id,
                    tenant,
                    source: source.to_string(),
                })
            }
            "run" => {
                let Some(source) = v.get("program").and_then(Value::as_str) else {
                    return bad(id, "`run` needs a string field `program`");
                };
                let arrays = match v.get("arrays") {
                    None => Vec::new(),
                    Some(a) => value_arrays(a).map_err(|detail| ProtoError {
                        code: codes::BAD_REQUEST,
                        detail,
                        id: id.clone(),
                    })?,
                };
                let scalars = match v.get("scalars") {
                    None => Vec::new(),
                    Some(s) => value_scalars(s).map_err(|detail| ProtoError {
                        code: codes::BAD_REQUEST,
                        detail,
                        id: id.clone(),
                    })?,
                };
                let max_iters = match v.get("max_iters") {
                    None => None,
                    Some(m) => match m.as_u64() {
                        Some(n) => Some(n as usize),
                        None => return bad(id, "`max_iters` must be a non-negative integer"),
                    },
                };
                let deadline_ms = match v.get("deadline_ms") {
                    None => None,
                    Some(d) => match d.as_u64() {
                        Some(ms) if ms > 0 => Some(ms),
                        _ => return bad(id, "`deadline_ms` must be a positive integer"),
                    },
                };
                let reply = match v.get("reply") {
                    None => ReplyMode::default(),
                    Some(r) => match r.as_str().and_then(ReplyMode::from_name) {
                        Some(m) => m,
                        None => {
                            return bad(
                                id,
                                "`reply` must be one of \"digest\", \"scalars\", \"full\"",
                            )
                        }
                    },
                };
                Ok(Request::Run(RunRequest {
                    id,
                    tenant,
                    source: source.to_string(),
                    arrays,
                    scalars,
                    max_iters,
                    deadline_ms,
                    reply,
                }))
            }
            other => bad(
                id,
                format!("unknown op `{other}` (expected run, certify, stats, ping, or shutdown)"),
            ),
        }
    }

    fn value_arrays(v: &Value) -> Result<Vec<(String, Vec<i64>)>, String> {
        let Some(obj) = v.as_object() else {
            return Err("`arrays` must be an object of name → [integers]".into());
        };
        let mut out = Vec::with_capacity(obj.len());
        for (name, val) in obj {
            let Some(items) = val.as_array() else {
                return Err(format!("array `{name}` must be a JSON array"));
            };
            let mut data = Vec::with_capacity(items.len());
            for item in items {
                match item.as_i64() {
                    Some(x) => data.push(x),
                    None => return Err(format!("array `{name}` holds a non-integer element")),
                }
            }
            out.push((name.clone(), data));
        }
        Ok(out)
    }

    fn value_scalars(v: &Value) -> Result<Vec<(String, i64)>, String> {
        let Some(obj) = v.as_object() else {
            return Err("`scalars` must be an object of name → integer".into());
        };
        let mut out = Vec::with_capacity(obj.len());
        for (name, val) in obj {
            match val.as_i64() {
                Some(x) => out.push((name.clone(), x)),
                None => return Err(format!("scalar `{name}` must be an integer")),
            }
        }
        Ok(out)
    }

    #[test]
    fn parses_a_full_run_request() {
        let line = r#"{"v":1,"op":"run","id":"r-1","tenant":"acme","program":"integer i = 0\nwhile (i < n) { A[i] = 2 * A[i]\n i = i + 1 }","arrays":{"A":[1,2,3]},"scalars":{"n":3},"max_iters":100,"reply":"full"}"#;
        let Request::Run(r) = parse_request(line).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(r.id.as_deref(), Some("r-1"));
        assert_eq!(r.tenant, "acme");
        assert_eq!(r.arrays, vec![("A".to_string(), vec![1, 2, 3])]);
        assert_eq!(r.scalars, vec![("n".to_string(), 3)]);
        assert_eq!(r.max_iters, Some(100));
        assert_eq!(r.reply, ReplyMode::Full);
    }

    #[test]
    fn defaults_are_applied() {
        let Request::Run(r) =
            parse_request(r#"{"op":"run","program":"integer i = 0\nwhile (i < n) { i = i + 1 }"}"#)
                .unwrap()
        else {
            panic!("expected run");
        };
        assert_eq!(r.tenant, DEFAULT_TENANT);
        assert!(r.arrays.is_empty() && r.scalars.is_empty());
        assert_eq!(r.max_iters, None);
        assert_eq!(r.reply, ReplyMode::Scalars);
    }

    #[test]
    fn rejects_garbage_and_unknown_ops() {
        assert_eq!(
            parse_request("not json").unwrap_err().code,
            codes::BAD_REQUEST
        );
        assert_eq!(parse_request("[1,2]").unwrap_err().code, codes::BAD_REQUEST);
        assert_eq!(
            parse_request(r#"{"op":"teleport"}"#).unwrap_err().code,
            codes::BAD_REQUEST
        );
        assert_eq!(
            parse_request(r#"{"op":"run"}"#).unwrap_err().code,
            codes::BAD_REQUEST
        );
    }

    #[test]
    fn rejects_future_versions_but_echoes_the_id() {
        let err = parse_request(r#"{"v":2,"op":"ping","id":"p-9"}"#).unwrap_err();
        assert_eq!(err.code, codes::UNSUPPORTED_VERSION);
        assert_eq!(err.id.as_deref(), Some("p-9"));
        let line = error_line(&err, None);
        assert!(line.contains("\"ok\":false") && line.contains("p-9"));
    }

    #[test]
    fn parses_deadline_and_shutdown() {
        let Request::Run(r) = parse_request(
            r#"{"op":"run","program":"integer i = 0\nwhile (i < n) { i = i + 1 }","deadline_ms":250}"#,
        )
        .unwrap() else {
            panic!("expected run");
        };
        assert_eq!(r.deadline_ms, Some(250));

        let Request::Shutdown { id } = parse_request(r#"{"op":"shutdown","id":"s-1"}"#).unwrap()
        else {
            panic!("expected shutdown");
        };
        assert_eq!(id.as_deref(), Some("s-1"));
    }

    #[test]
    fn rejects_nonpositive_deadlines() {
        for line in [
            r#"{"op":"run","program":"x","deadline_ms":0}"#,
            r#"{"op":"run","program":"x","deadline_ms":-5}"#,
            r#"{"op":"run","program":"x","deadline_ms":"soon"}"#,
        ] {
            assert_eq!(parse_request(line).unwrap_err().code, codes::BAD_REQUEST);
        }
    }

    #[test]
    fn integral_floats_from_two_to_the_64th_are_rejected_not_saturated() {
        let line = |field: &str, value: &str| {
            format!(r#"{{"op":"run","id":"f","program":"x","{field}":{value}}}"#)
        };
        for parse in [parse_request, parse_request_via_value] {
            for value in ["1.85e19", "18446744073709551616.0", "1e400"] {
                let err = parse(&line("max_iters", value)).unwrap_err();
                assert_eq!(err.detail, "`max_iters` must be a non-negative integer");
                let err = parse(&line("deadline_ms", value)).unwrap_err();
                assert_eq!(err.detail, "`deadline_ms` must be a positive integer");
                let err = parse(&format!(r#"{{"op":"ping","v":{value}}}"#)).unwrap_err();
                assert_eq!(err.code, codes::UNSUPPORTED_VERSION);
            }
            // the largest integral float below the bound still converts
            let Ok(Request::Run(r)) = parse(&line("max_iters", "1.8446744073709550e19")) else {
                panic!("expected run");
            };
            assert_eq!(r.max_iters, Some(18_446_744_073_709_549_568));
        }
        assert_eq!(Value::Float(1.85e19).as_u64(), None);
        assert_eq!(
            Value::Float(1.8e19).as_u64(),
            Some(18_000_000_000_000_000_000)
        );
    }

    #[test]
    fn retriable_errors_carry_the_hint() {
        let err = ProtoError {
            code: codes::TENANT_BUSY,
            detail: "2 regions in flight".into(),
            id: None,
        };
        let line = error_line(&err, Some(25));
        assert!(line.contains("\"retry_after_ms\":25"), "{line}");
    }

    /// The generator's choices, drawn from a proptest vector and read
    /// off one after another (wrapping, so no draw runs dry).
    struct Tape {
        draws: Vec<u32>,
        at: usize,
        /// How often a field gets a value of the wrong type: never (the
        /// line parses, whatever its order, duplicates and spelling),
        /// rarely, often.
        noise: usize,
    }

    impl Tape {
        fn new(draws: Vec<u32>) -> Tape {
            let mut tape = Tape {
                draws,
                at: 0,
                noise: 0,
            };
            tape.noise = tape.below(3);
            tape
        }

        fn below(&mut self, n: usize) -> usize {
            let d = self.draws[self.at % self.draws.len()];
            self.at += 1;
            d as usize % n
        }

        fn pick<'a>(&mut self, of: &[&'a str]) -> &'a str {
            of[self.below(of.len())]
        }

        fn misfit(&mut self) -> bool {
            self.noise > 0 && self.below(24 / (self.noise * self.noise)) == 0
        }
    }

    /// JSON string spellings with an escape or raw multi-byte text in
    /// every position: what `id`, `tenant`, `program`, keys and array
    /// names are drawn from.
    const STRINGS: &[&str] = &[
        r#""plain""#,
        r#""""#,
        r#""tab\tnl\nquote\"slash\/back\\""#,
        r#""\u0041\u00e9""#,
        r#""\ud83d\ude00""#,
        r#""lone \ud83d half""#,
        r#""\ude00\ud83d""#,
        r#""raw é 😀""#,
        r#""integer i = 0\nwhile (i < n) { A[i] = 2 * A[i]\n i = i + 1 }""#,
    ];

    /// Array elements and scalar values: the first [`INTEGRAL`] read as
    /// an `i64` (the edges and integral floats among them), the rest do
    /// not — past the `i64` range, fractional, or not a number at all.
    const ELEMENTS: &[&str] = &[
        "0",
        "7",
        "-3",
        "9223372036854775807",
        "-9223372036854775808",
        "2.0",
        "1e3",
        "9223372036854775808",
        "18446744073709551615",
        "1.5",
        "9e18",
        "1e400",
        r#""7""#,
        "null",
        "true",
        "[1]",
        r#"{"x":1}"#,
    ];
    const INTEGRAL: usize = 7;

    /// Values a field that wants an object, a number or a name can be
    /// handed instead; unknown fields carry them too.
    const MISFITS: &[&str] = &[
        "[1,2]",
        r#""x""#,
        "3",
        "-5",
        "0",
        "2.5",
        "null",
        "false",
        "{}",
        r#"{"a":[1,{"b":null}],"c":"\u00e9"}"#,
    ];

    fn spaced(tape: &mut Tape, s: &str) -> String {
        let (before, after) = (tape.pick(&["", "", " ", "\t "]), tape.pick(&["", "", " "]));
        format!("{before}{s}{after}")
    }

    fn element(tape: &mut Tape) -> &'static str {
        let of = if tape.misfit() {
            ELEMENTS.len()
        } else {
            INTEGRAL
        };
        ELEMENTS[tape.below(of)]
    }

    /// The elements of one array: a few of any kind, each spaced its own
    /// way, and one time in four a run long enough for the tokenizer's
    /// integer-run step to get going — single digits (four to a load) or
    /// widths and signs mixed, written with one separator throughout as a
    /// client's encoder would — then one element the step has to leave to
    /// the general path, then a run it must pick up again.
    fn array_items(tape: &mut Tape) -> Vec<String> {
        let mut items: Vec<String> = (0..tape.below(6))
            .map(|_| {
                let item = element(tape);
                spaced(tape, item)
            })
            .collect();
        if tape.below(4) > 0 {
            return items;
        }
        let widest = [1, 1, 2, 4, 7][tape.below(5)];
        let space = tape.pick(&["", "", " "]);
        let hinge = if tape.misfit() {
            tape.pick(&["-", "x", "1.5", r#""s""#, "[2]"])
        } else if tape.below(2) == 0 {
            element(tape)
        } else {
            tape.pick(&["-0", "007", "12345678", "  5", "\t5", "5 ", "1.0", "1e2"])
        };
        for (second, len) in [(false, 64 + tape.below(8)), (true, 9 + tape.below(8))] {
            if second {
                items.push(hinge.to_string());
            }
            for _ in 0..len {
                let sign = if widest > 1 && tape.below(8) == 0 {
                    "-"
                } else {
                    ""
                };
                let width = 1 + tape.below(widest) as u32;
                let magnitude = tape.below(10usize.pow(width));
                items.push(format!("{space}{sign}{magnitude}"));
            }
        }
        items
    }

    /// An `arrays` (or `scalars`) object; names repeat, escaped or not.
    fn int_map(tape: &mut Tape, array_valued: bool) -> String {
        let members: Vec<String> = (0..tape.below(4))
            .map(|_| {
                let name = tape.pick(&[r#""A""#, r#""B""#, r#""A""#, r#""\u0041""#, r#""é""#]);
                let value = if !array_valued {
                    element(tape).to_string()
                } else if tape.misfit() {
                    tape.pick(MISFITS).to_string()
                } else {
                    format!("[{}]", array_items(tape).join(","))
                };
                format!("{}:{}", spaced(tape, name), spaced(tape, &value))
            })
            .collect();
        format!("{{{}}}", members.join(","))
    }

    /// A value for `key`: of the type the protocol wants, or not.
    fn value_for(tape: &mut Tape, key: &str) -> String {
        if tape.misfit() {
            return tape.pick(MISFITS).to_string();
        }
        match key {
            "op" => tape.pick(&[
                r#""run""#,
                r#""run""#,
                r#""r\u0075n""#,
                r#""certify""#,
                r#""ping""#,
                r#""stats""#,
                r#""shutdown""#,
            ]),
            "v" => tape.pick(&["1", "1", "1.0", "1e0"]),
            "id" | "tenant" | "program" => tape.pick(STRINGS),
            "arrays" => return int_map(tape, true),
            "scalars" => return int_map(tape, false),
            "max_iters" | "deadline_ms" => tape.pick(&["100", "250", "2e2", "1"]),
            "reply" => tape.pick(&[r#""digest""#, r#""scalars""#, r#""full""#]),
            // an unknown field is validated, then ignored — so a nesting
            // bomb in one must still sink the line
            _ if tape.misfit() => return format!("{}0{}", "[".repeat(200), "]".repeat(200)),
            _ if tape.below(4) == 0 => return format!("{}0{}", "[".repeat(100), "]".repeat(100)),
            _ => tape.pick(MISFITS),
        }
        .to_string()
    }

    /// One request line: the fields of a run / certify / ping request,
    /// each present or not, well-typed or not, in any order, with
    /// duplicate keys and unknown fields mixed in.
    fn request_line(tape: &mut Tape) -> String {
        const KEYS: &[&str] = &[
            "op",
            "v",
            "id",
            "tenant",
            "program",
            "arrays",
            "scalars",
            "max_iters",
            "deadline_ms",
            "reply",
            "extra",
            "x-trace",
        ];
        let mut fields: Vec<(&str, String)> = Vec::new();
        for &key in KEYS {
            let required = matches!(key, "op" | "program");
            if tape.below(3) > 0 || (required && !tape.misfit()) {
                fields.push((key, value_for(tape, key)));
            }
        }
        // a second occurrence of a key already there: the first wins
        for _ in 0..tape.below(3) {
            if !fields.is_empty() {
                let key = fields[tape.below(fields.len())].0;
                fields.push((key, value_for(tape, key)));
            }
        }
        // any order
        for k in (1..fields.len()).rev() {
            let with = tape.below(k + 1);
            fields.swap(k, with);
        }
        let members: Vec<String> = fields
            .iter()
            .map(|(key, v)| {
                let key = match tape.below(6) {
                    // the same key spelled with an escape
                    0 => format!("\"\\u{:04x}{}\"", key.as_bytes()[0], &key[1..]),
                    _ => format!("\"{key}\""),
                };
                format!("{}:{}", spaced(tape, &key), spaced(tape, v))
            })
            .collect();
        spaced(tape, &format!("{{{}}}", members.join(",")))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The typed single pass and the `Value` route agree on every
        /// generated line, on every prefix of it (truncation at every
        /// byte), and on it with garbage appended: equal `Request`, or
        /// equal `ProtoError` — code, detail (byte offset included) and
        /// recovered id.
        #[test]
        fn typed_parse_agrees_with_the_value_route(draws in prop::collection::vec(0u32..1 << 30, 96)) {
            let mut tape = Tape::new(draws);
            let line = request_line(&mut tape);
            let mut variants = vec![line.clone()];
            variants.extend(
                (0..line.len())
                    .filter(|&k| line.is_char_boundary(k))
                    .map(|k| line[..k].to_string()),
            );
            for tail in ["x", " {}", "]", ",", " \n", "\"", "\\"] {
                variants.push(format!("{line}{tail}"));
                // not an object at the top, and then not even one value
                variants.push(format!("[{line}]{tail}"));
            }
            for v in &variants {
                prop_assert_eq!(parse_request(v), parse_request_via_value(v), "line: {}", v);
            }
        }
    }

    #[test]
    fn the_generator_reaches_accepted_runs_and_every_kind_of_rejection() {
        // the differential property is only as good as what it is fed:
        // over its own seeds the generator must produce accepted `run`
        // requests with data in them, and both families of rejection
        let (mut runs_with_data, mut bad_json, mut bad_field) = (0, 0, 0);
        // ...and accepted arrays the tokenizer's integer-run step works
        // on in each of its ways, told by what the line spells (`d` any
        // digit): eight single digits in a row cannot pass without one
        // four-per-load compare, a wider element between commas is taken
        // from a load's digit mask, and a float or an eight-digit number
        // between two runs makes the step stop, leave one element to the
        // general path, and start again inside the same array
        let spells = |line: &str, pattern: &str| {
            line.as_bytes().windows(pattern.len()).any(|w| {
                w.iter().zip(pattern.bytes()).all(|(&b, p)| match p {
                    b'd' => b.is_ascii_digit(),
                    _ => b == p,
                })
            })
        };
        let (mut four_per_load, mut by_digit_mask, mut re_entered) = (0, 0, 0);
        for seed in 0..400u32 {
            let draws = (0..96)
                .map(|k| seed.wrapping_mul(2654435761).rotate_left(k) ^ k)
                .collect();
            let line = request_line(&mut Tape::new(draws));
            match parse_request(&line) {
                Ok(Request::Run(r)) if r.arrays.iter().any(|(_, a)| !a.is_empty()) => {
                    runs_with_data += 1;
                    if r.arrays.iter().all(|(_, a)| a.len() < 64) {
                        continue;
                    }
                    four_per_load += usize::from(spells(&line, "d,d,d,d,d,d,d,d,"));
                    by_digit_mask += usize::from(
                        [",dd,dd,d", ",-d,dd,d", ", dd, d, d"]
                            .iter()
                            .any(|mixed| spells(&line, mixed)),
                    );
                    let hinges = [
                        "2.0",
                        "1e3",
                        "1.0",
                        "1e2",
                        "12345678",
                        "-9223372036854775808",
                    ];
                    re_entered += usize::from(hinges.iter().any(|hinge| {
                        spells(&line, &format!("d,d,d,d,d,d,d,d,{hinge},d,d,d,d,d,d,d,d,"))
                    }));
                }
                Ok(_) => {}
                Err(e) if e.detail.starts_with("invalid JSON") => bad_json += 1,
                Err(_) => bad_field += 1,
            }
        }
        assert!(
            runs_with_data >= 10,
            "{runs_with_data} accepted runs carrying arrays"
        );
        assert!(bad_json >= 10, "{bad_json} syntax rejections");
        assert!(bad_field >= 10, "{bad_field} field rejections");
        assert!(four_per_load >= 5, "{four_per_load} four-per-load runs");
        assert!(by_digit_mask >= 5, "{by_digit_mask} mixed-width runs");
        assert!(re_entered >= 3, "{re_entered} runs re-entered");
    }

    #[test]
    fn a_syntax_error_after_a_field_error_still_wins() {
        // `arrays` is ill-typed at byte 20, the line breaks at its end
        let err = parse_request(r#"{"op":"run","arrays":7,"program":"x""#).unwrap_err();
        assert!(
            err.detail.starts_with("invalid JSON at byte 36"),
            "{}",
            err.detail
        );
        assert_eq!(err.id, None);
    }

    #[test]
    fn escaped_surrogate_pairs_reach_the_request_as_one_scalar() {
        let Request::Ping { id } = parse_request(r#"{"op":"ping","id":"\ud83d\ude00"}"#).unwrap()
        else {
            panic!("expected ping");
        };
        assert_eq!(id.as_deref(), Some("😀"));
    }
}
