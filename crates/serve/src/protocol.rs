//! The serve wire protocol: line-delimited JSON over TCP.
//!
//! One request object per line, one response per line. Every response
//! is the workspace-wide versioned envelope
//! (`{"schema_version": 1, "kind": K, "payload": …}`,
//! [`typefuse_obs::envelope()`]); clients reject unknown
//! `schema_version`s with [`typefuse_json::parse_envelope`].
//!
//! Request grammar (field order free, unknown fields rejected by
//! ignoring — the `op` decides everything):
//!
//! ```text
//! {"op": "schema",  "source": NAME}
//! {"op": "profile", "source": NAME}
//! {"op": "explain", "source": NAME, "path": PATH}
//! {"op": "health"}
//! {"op": "diff",    "source": NAME, "from": V, "to": V}
//! {"op": "metrics"}
//! {"op": "metrics", "format": "prometheus"}
//! {"op": "watch",   "interval_ms": N}
//! {"op": "shutdown"}
//! ```
//!
//! Responses carry `kind` equal to the op (errors use `"error"` with a
//! `message` payload; `shutdown` acknowledges with `"ok"`). Metrics
//! snapshots use kind `"telemetry"`; the Prometheus variant uses kind
//! `"prometheus"` with the multi-line exposition carried as a JSON
//! string payload (`{"content_type":…,"text":…}`) so every response
//! stays one line. `watch` is the one *streaming* op: the session keeps
//! writing one `"telemetry"` envelope per interval until the client
//! disconnects or the daemon stops.

use crate::fold::{SourceState, SourceStatus};
use typefuse_json::Value;
use typefuse_obs::{envelope, JsonWriter};

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// The current fused schema of a source.
    Schema {
        /// Source name.
        source: String,
    },
    /// The full per-path profile report of a source.
    Profile {
        /// Source name.
        source: String,
    },
    /// Presence/provenance detail at one path of a source.
    Explain {
        /// Source name.
        source: String,
        /// Rendered path, e.g. `$.user.url`.
        path: String,
    },
    /// Daemon-wide health: every source's records, version and status.
    Health,
    /// Registry changes between two published versions of a source.
    Diff {
        /// Source name.
        source: String,
        /// Older version.
        from: u64,
        /// Newer version.
        to: u64,
    },
    /// One live telemetry snapshot.
    Metrics {
        /// Rendering of the snapshot.
        format: MetricsFormat,
    },
    /// Stream telemetry snapshots until the client disconnects.
    Watch {
        /// Milliseconds between snapshots.
        interval_ms: u64,
    },
    /// Stop the daemon.
    Shutdown,
}

/// How a `metrics` response renders the snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// The JSON snapshot envelope (kind `telemetry`).
    Json,
    /// Prometheus text exposition 0.0.4 (kind `prometheus`).
    Prometheus,
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = typefuse_json::parse_value(line).map_err(|e| format!("malformed request: {e}"))?;
    let op = value
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| "request needs a string `op`".to_string())?;
    let source = |value: &Value| -> Result<String, String> {
        value
            .get("source")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("op `{op}` needs a string `source`"))
    };
    match op {
        "schema" => Ok(Request::Schema {
            source: source(&value)?,
        }),
        "profile" => Ok(Request::Profile {
            source: source(&value)?,
        }),
        "explain" => {
            let path = value
                .get("path")
                .and_then(Value::as_str)
                .ok_or_else(|| "op `explain` needs a string `path`".to_string())?
                .to_string();
            Ok(Request::Explain {
                source: source(&value)?,
                path,
            })
        }
        "health" => Ok(Request::Health),
        "diff" => {
            let version = |key: &str| -> Result<u64, String> {
                value
                    .get(key)
                    .and_then(Value::as_i64)
                    .filter(|v| *v >= 0)
                    .map(|v| v as u64)
                    .ok_or_else(|| format!("op `diff` needs a non-negative `{key}`"))
            };
            Ok(Request::Diff {
                source: source(&value)?,
                from: version("from")?,
                to: version("to")?,
            })
        }
        "metrics" => {
            let format = match value.get("format").and_then(Value::as_str) {
                None | Some("json") => MetricsFormat::Json,
                Some("prometheus") => MetricsFormat::Prometheus,
                Some(other) => {
                    return Err(format!(
                        "unknown metrics format `{other}` (expected json or prometheus)"
                    ))
                }
            };
            Ok(Request::Metrics { format })
        }
        "watch" => {
            let interval_ms = match value.get("interval_ms") {
                None => 1000,
                Some(v) => v
                    .as_i64()
                    .filter(|ms| *ms > 0)
                    .ok_or_else(|| "op `watch` needs a positive `interval_ms`".to_string())?
                    as u64,
            };
            Ok(Request::Watch { interval_ms })
        }
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown op `{other}` (expected schema, profile, explain, health, diff, metrics, \
             watch or shutdown)"
        )),
    }
}

/// An error response envelope.
pub fn error_response(message: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("message").string(message);
    w.end_object();
    envelope("error", &w.finish())
}

/// The `schema` response payload for one source.
pub(crate) fn schema_response(state: &mut SourceState) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("source").string(&state.name);
    w.key("schema").string(state.schema_text());
    w.key("records").number(state.records());
    w.key("version");
    match state.version {
        Some(v) => w.number(v),
        None => w.raw("null"),
    }
    w.key("skipped").number(state.report().skipped());
    w.end_object();
    envelope("schema", &w.finish())
}

/// The `profile` response: the full per-path report, or why the source
/// keeps none.
pub(crate) fn profile_response(state: &SourceState) -> Result<String, String> {
    Ok(envelope("profile", &state.profile_report()?.to_json()))
}

/// The `explain` response: presence, optionality and union-branch
/// provenance at one path.
pub(crate) fn explain_response(state: &SourceState, path: &str) -> Result<String, String> {
    let report = state.profile_report()?;
    let profile = report.get(path).ok_or_else(|| {
        format!(
            "path {path} does not occur in source {} ({} records, {} paths)",
            state.name,
            report.records,
            report.paths.len()
        )
    })?;
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("source").string(&state.name);
    w.key("path").string(path);
    w.key("records").number(report.records);
    w.key("count").number(profile.count);
    w.key("optional").bool_value(profile.is_optional());
    w.key("first_line");
    match profile.first_line() {
        Some(line) => w.number(line),
        None => w.raw("null"),
    }
    w.key("branches");
    w.begin_array();
    for (kind, count, first_line) in profile.branches() {
        w.begin_object();
        w.key("kind").string(&kind.to_string());
        w.key("count").number(count);
        w.key("first_line").number(first_line);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    Ok(envelope("explain", &w.finish()))
}

/// One source's entry in the `health` payload.
pub(crate) fn write_source_health(w: &mut JsonWriter, state: &SourceState) {
    w.begin_object();
    w.key("source").string(&state.name);
    w.key("records").number(state.records());
    w.key("skipped").number(state.report().skipped());
    w.key("quarantined").number(state.quarantined());
    w.key("version");
    match state.version {
        Some(v) => w.number(v),
        None => w.raw("null"),
    }
    w.key("last_activity_ms");
    match state.last_activity_ms {
        Some(ms) => w.number(ms),
        None => w.raw("null"),
    }
    w.key("drift");
    w.begin_array();
    for alert in &state.drift {
        w.string(alert);
    }
    w.end_array();
    if state.drift_total > state.drift.len() as u64 {
        w.key("drift_total").number(state.drift_total);
    }
    w.key("status");
    match &state.status {
        SourceStatus::Active => w.string("active"),
        SourceStatus::Failed(reason) => {
            w.string(&format!("failed: {reason}"));
        }
    }
    w.end_object();
}

/// The `diff` response: rendered registry changes between versions.
pub(crate) fn diff_response(
    source: &str,
    from: u64,
    to: u64,
    changes: &[typefuse_types::diff::SchemaChange],
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("source").string(source);
    w.key("from").number(from);
    w.key("to").number(to);
    w.key("changes");
    w.begin_array();
    for change in changes {
        w.string(&change.to_string());
    }
    w.end_array();
    w.end_object();
    envelope("diff", &w.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        assert_eq!(
            parse_request(r#"{"op":"schema","source":"s"}"#).unwrap(),
            Request::Schema { source: "s".into() }
        );
        assert_eq!(
            parse_request(r#"{"op":"explain","source":"s","path":"$.a"}"#).unwrap(),
            Request::Explain {
                source: "s".into(),
                path: "$.a".into()
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"health"}"#).unwrap(),
            Request::Health
        );
        assert_eq!(
            parse_request(r#"{"op":"diff","source":"s","from":1,"to":2}"#).unwrap(),
            Request::Diff {
                source: "s".into(),
                from: 1,
                to: 2
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn parses_metrics_and_watch() {
        assert_eq!(
            parse_request(r#"{"op":"metrics"}"#).unwrap(),
            Request::Metrics {
                format: MetricsFormat::Json
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"metrics","format":"json"}"#).unwrap(),
            Request::Metrics {
                format: MetricsFormat::Json
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"metrics","format":"prometheus"}"#).unwrap(),
            Request::Metrics {
                format: MetricsFormat::Prometheus
            }
        );
        assert!(
            parse_request(r#"{"op":"metrics","format":"xml"}"#).is_err(),
            "unknown format"
        );
        assert_eq!(
            parse_request(r#"{"op":"watch"}"#).unwrap(),
            Request::Watch { interval_ms: 1000 }
        );
        assert_eq!(
            parse_request(r#"{"op":"watch","interval_ms":250}"#).unwrap(),
            Request::Watch { interval_ms: 250 }
        );
        assert!(
            parse_request(r#"{"op":"watch","interval_ms":0}"#).is_err(),
            "zero interval"
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("not json").is_err());
        assert!(
            parse_request(r#"{"op":"schema"}"#).is_err(),
            "missing source"
        );
        assert!(parse_request(r#"{"op":"launch"}"#).is_err(), "unknown op");
        assert!(parse_request(r#"{"source":"s"}"#).is_err(), "missing op");
        assert!(
            parse_request(r#"{"op":"diff","source":"s","from":-1,"to":2}"#).is_err(),
            "negative version"
        );
    }

    proptest::proptest! {
        /// A request line comes off a socket: any text, and any one-byte
        /// change of a valid request, is a request or an `Err`.
        #[test]
        fn parse_request_is_total(
            request in proptest::sample::select(vec![
                r#"{"op":"schema","source":"s"}"#,
                r#"{"op":"explain","source":"s","path":"$.a"}"#,
                r#"{"op":"diff","source":"s","from":1,"to":2}"#,
                r#"{"op":"metrics","format":"prometheus"}"#,
                r#"{"op":"watch","interval_ms":250}"#,
            ]),
            at in proptest::prelude::any::<proptest::sample::Index>(),
            byte in 0x20u8..0x7f,
            noise in "\\PC{0,40}",
        ) {
            let mut mutant = request.as_bytes().to_vec();
            let at = at.index(mutant.len());
            mutant[at] = byte;
            let _ = parse_request(std::str::from_utf8(&mutant).expect("ASCII"));
            let _ = parse_request(&noise);
        }
    }

    #[test]
    fn error_responses_are_valid_envelopes() {
        let text = error_response("nope");
        let parsed = typefuse_json::Envelope::expect_kind(&text, "error").unwrap();
        assert_eq!(
            parsed.payload.get("message").and_then(Value::as_str),
            Some("nope")
        );
    }
}
