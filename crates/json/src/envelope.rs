//! Reader for the shared versioned JSON response envelope.
//!
//! The writer lives in `typefuse-obs` ([`typefuse_obs::envelope()`]),
//! next to the byte-deterministic [`JsonWriter`](typefuse_obs::JsonWriter)
//! every report serializes with; this module is the parsing side, used
//! by everything that reads a typefuse-emitted document back (the serve
//! protocol client, round-trip tests).
//!
//! An envelope is
//!
//! ```json
//! {"schema_version": 1, "kind": "<kind>", "payload": <value>}
//! ```
//!
//! and [`parse_envelope`] rejects any `schema_version` other than the
//! one this build writes — a future layout must never be silently
//! misread as the current one.

use crate::{parse_value, Value};
use typefuse_obs::ENVELOPE_VERSION;

/// A parsed response envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Envelope layout version (always [`ENVELOPE_VERSION`] after a
    /// successful parse).
    pub schema_version: u64,
    /// Payload shape name (`"metrics"`, `"profile"`, `"telemetry"`, …).
    pub kind: String,
    /// The wrapped document, unchanged.
    pub payload: Value,
}

impl Envelope {
    /// Parse and check the `kind`, in one step.
    ///
    /// Convenience for readers that only accept one payload shape.
    pub fn expect_kind(text: &str, kind: &str) -> Result<Envelope, String> {
        let env = parse_envelope(text)?;
        if env.kind != kind {
            return Err(format!(
                "unexpected envelope kind `{}` (expected `{kind}`)",
                env.kind
            ));
        }
        Ok(env)
    }
}

/// Parse a versioned envelope, rejecting unknown `schema_version`s.
pub fn parse_envelope(text: &str) -> Result<Envelope, String> {
    let value = parse_value(text).map_err(|e| format!("invalid envelope JSON: {e}"))?;
    let obj = value
        .as_object()
        .ok_or_else(|| "envelope must be a JSON object".to_string())?;
    let version = obj
        .get("schema_version")
        .and_then(|v| v.as_i64())
        .ok_or_else(|| "envelope is missing a numeric `schema_version`".to_string())?;
    if version != ENVELOPE_VERSION as i64 {
        return Err(format!(
            "unsupported schema_version {version} (this build reads version {ENVELOPE_VERSION})"
        ));
    }
    let kind = obj
        .get("kind")
        .and_then(|v| v.as_str())
        .ok_or_else(|| "envelope is missing a string `kind`".to_string())?
        .to_string();
    let payload = obj
        .get("payload")
        .cloned()
        .ok_or_else(|| "envelope is missing `payload`".to_string())?;
    Ok(Envelope {
        schema_version: version as u64,
        kind,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_written_envelope() {
        let text = typefuse_obs::envelope("metrics", r#"{"counters":{"records":3}}"#);
        let env = parse_envelope(&text).unwrap();
        assert_eq!(env.schema_version, ENVELOPE_VERSION);
        assert_eq!(env.kind, "metrics");
        assert_eq!(
            env.payload.get("counters").and_then(|c| c.get("records")),
            Some(&Value::from(3))
        );
    }

    #[test]
    fn rejects_unknown_versions() {
        let err =
            parse_envelope(r#"{"schema_version":99,"kind":"metrics","payload":{}}"#).unwrap_err();
        assert!(err.contains("unsupported schema_version 99"), "{err}");
    }

    #[test]
    fn rejects_missing_fields() {
        assert!(parse_envelope(r#"{"kind":"metrics","payload":{}}"#).is_err());
        assert!(parse_envelope(r#"{"schema_version":1,"payload":{}}"#).is_err());
        assert!(parse_envelope(r#"{"schema_version":1,"kind":"metrics"}"#).is_err());
        assert!(parse_envelope("[1]").is_err());
        assert!(parse_envelope("not json").is_err());
    }

    #[test]
    fn expect_kind_gates_on_kind() {
        let text = typefuse_obs::envelope("bench", "{}");
        assert!(Envelope::expect_kind(&text, "bench").is_ok());
        let err = Envelope::expect_kind(&text, "metrics").unwrap_err();
        assert!(err.contains("unexpected envelope kind `bench`"), "{err}");
    }
}
