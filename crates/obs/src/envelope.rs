//! The shared versioned JSON response envelope.
//!
//! Every JSON document typefuse emits — `--metrics-json`,
//! `--profile-json` and the `typefuse serve` wire protocol — is wrapped
//! in the same top level:
//!
//! ```json
//! {"schema_version": 1, "kind": "<kind>", "payload": { ... }}
//! ```
//!
//! `schema_version` versions the envelope itself (readers reject
//! unknown versions instead of misreading a future layout), `kind`
//! names the payload shape, and `payload` carries the actual document
//! unchanged. The writer lives here because this crate owns the
//! byte-deterministic [`crate::JsonWriter`] every report
//! already serializes with; the parsing side lives in `typefuse-json`
//! (which sits above this crate in the dependency graph).

use crate::JsonWriter;

/// Current envelope layout version. Readers must reject anything else.
pub const ENVELOPE_VERSION: u64 = 1;

/// Wrap a pre-serialized JSON payload in the versioned envelope.
///
/// `payload_json` must be a complete JSON value (object, array, …); it
/// is spliced in verbatim so byte-deterministic payloads stay
/// byte-deterministic inside the envelope.
///
/// ```
/// use typefuse_obs::envelope::envelope;
/// assert_eq!(
///     envelope("metrics", r#"{"counters":{}}"#),
///     r#"{"schema_version":1,"kind":"metrics","payload":{"counters":{}}}"#
/// );
/// ```
pub fn envelope(kind: &str, payload_json: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema_version").number(ENVELOPE_VERSION);
    w.key("kind").string(kind);
    w.key("payload").raw(payload_json);
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_objects_arrays_and_scalars() {
        assert_eq!(
            envelope("bench", "[1,2]"),
            r#"{"schema_version":1,"kind":"bench","payload":[1,2]}"#
        );
        assert_eq!(
            envelope("error", r#""boom""#),
            r#"{"schema_version":1,"kind":"error","payload":"boom"}"#
        );
    }

    #[test]
    fn kind_is_escaped() {
        assert_eq!(
            envelope("a\"b", "{}"),
            "{\"schema_version\":1,\"kind\":\"a\\\"b\",\"payload\":{}}"
        );
    }
}
