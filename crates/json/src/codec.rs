//! Exact JSON encodings for checkpoint payloads.
//!
//! Checkpoint files (the serve daemon's crash-recovery state) are JSON
//! for debuggability, but JSON numbers travel through `f64` in this
//! workspace — fine for telemetry, not for state that must survive a
//! crash *byte-identically*. The helpers here route every integer
//! through decimal strings and every error through a tagged encoding
//! that round-trips the [`ErrorKind`] variant (unlike `to_string()`,
//! which collapses kinds into prose).

use crate::error::{Error, ErrorKind, Position, Span};
use crate::value::Value;
use typefuse_obs::JsonWriter;

/// Decode a `u64` written as a decimal string ([`JsonWriter::decimal`]).
pub fn u64_from_value(v: &Value) -> Result<u64, String> {
    v.as_str()
        .ok_or_else(|| "expected a decimal string".to_string())?
        .parse()
        .map_err(|e| format!("bad u64: {e}"))
}

/// Decode an optional field: absent or `null` → `None`.
pub fn opt_u64_from_value(v: Option<&Value>) -> Result<Option<u64>, String> {
    match v {
        None | Some(Value::Null) => Ok(None),
        Some(v) => u64_from_value(v).map(Some),
    }
}

/// Write a parse [`Error`] losslessly, as an object: variant tag,
/// payload, and the full span.
pub fn write_error(w: &mut JsonWriter, error: &Error) {
    let (kind, arg) = match error.kind() {
        ErrorKind::UnexpectedEof => ("UnexpectedEof", None),
        ErrorKind::UnexpectedByte(b) => ("UnexpectedByte", Some(b.to_string())),
        ErrorKind::InvalidLiteral => ("InvalidLiteral", None),
        ErrorKind::InvalidNumber => ("InvalidNumber", None),
        ErrorKind::NumberOutOfRange => ("NumberOutOfRange", None),
        ErrorKind::InvalidEscape => ("InvalidEscape", None),
        ErrorKind::InvalidUnicodeEscape => ("InvalidUnicodeEscape", None),
        ErrorKind::ControlCharacterInString => ("ControlCharacterInString", None),
        ErrorKind::InvalidUtf8 => ("InvalidUtf8", None),
        ErrorKind::DuplicateKey(k) => ("DuplicateKey", Some(k.clone())),
        ErrorKind::RecursionLimitExceeded => ("RecursionLimitExceeded", None),
        ErrorKind::TrailingCharacters => ("TrailingCharacters", None),
        ErrorKind::TrailingComma => ("TrailingComma", None),
        ErrorKind::ExpectedSeparator(c) => ("ExpectedSeparator", Some(c.to_string())),
        ErrorKind::ExpectedKey => ("ExpectedKey", None),
        ErrorKind::Io(msg) => ("Io", Some(msg.clone())),
        ErrorKind::RecordTooLarge(cap) => ("RecordTooLarge", Some(cap.to_string())),
    };
    let span = error.span();
    w.begin_object();
    w.key("kind").string(kind);
    if let Some(arg) = arg {
        w.key("arg").string(&arg);
    }
    let fields = [
        ("offset", span.start.offset as u64),
        ("line", u64::from(span.start.line)),
        ("col", u64::from(span.start.column)),
        ("end", span.end as u64),
    ];
    for (name, n) in fields {
        w.key(name).decimal(n);
    }
    w.end_object();
}

/// Decode a [`write_error`] encoding back to the exact [`Error`].
pub fn error_from_value(v: &Value) -> Result<Error, String> {
    let kind_name = v
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| "error encoding missing `kind`".to_string())?;
    let arg = || {
        v.get("arg")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("error kind {kind_name} missing `arg`"))
    };
    let kind = match kind_name {
        "UnexpectedEof" => ErrorKind::UnexpectedEof,
        "UnexpectedByte" => {
            ErrorKind::UnexpectedByte(arg()?.parse().map_err(|e| format!("bad byte: {e}"))?)
        }
        "InvalidLiteral" => ErrorKind::InvalidLiteral,
        "InvalidNumber" => ErrorKind::InvalidNumber,
        "NumberOutOfRange" => ErrorKind::NumberOutOfRange,
        "InvalidEscape" => ErrorKind::InvalidEscape,
        "InvalidUnicodeEscape" => ErrorKind::InvalidUnicodeEscape,
        "ControlCharacterInString" => ErrorKind::ControlCharacterInString,
        "InvalidUtf8" => ErrorKind::InvalidUtf8,
        "DuplicateKey" => ErrorKind::DuplicateKey(arg()?.to_string()),
        "RecursionLimitExceeded" => ErrorKind::RecursionLimitExceeded,
        "TrailingCharacters" => ErrorKind::TrailingCharacters,
        "TrailingComma" => ErrorKind::TrailingComma,
        "ExpectedSeparator" => ErrorKind::ExpectedSeparator(
            arg()?
                .chars()
                .next()
                .ok_or_else(|| "empty separator".to_string())?,
        ),
        "ExpectedKey" => ErrorKind::ExpectedKey,
        "Io" => ErrorKind::Io(arg()?.to_string()),
        "RecordTooLarge" => {
            ErrorKind::RecordTooLarge(arg()?.parse().map_err(|e| format!("bad cap: {e}"))?)
        }
        other => return Err(format!("unknown error kind {other:?}")),
    };
    let field = |name: &str| {
        v.get(name)
            .ok_or_else(|| format!("error encoding missing `{name}`"))
            .and_then(u64_from_value)
    };
    Ok(Error::new(
        kind,
        Span {
            start: Position {
                offset: field("offset")? as usize,
                line: field("line")? as u32,
                column: field("col")? as u32,
            },
            end: field("end")? as usize,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_value;

    fn error_text(error: &Error) -> String {
        let mut w = JsonWriter::new();
        write_error(&mut w, error);
        w.finish()
    }

    #[test]
    fn u64_round_trips_above_f64_precision() {
        let decimal = |n| {
            let mut w = JsonWriter::new();
            w.decimal(n);
            parse_value(&w.finish()).unwrap()
        };
        for n in [0, 1, u64::MAX, (1 << 53) + 1] {
            assert_eq!(u64_from_value(&decimal(n)).unwrap(), n);
        }
        assert!(u64_from_value(&Value::from(5)).is_err());
        assert_eq!(opt_u64_from_value(None).unwrap(), None);
        assert_eq!(opt_u64_from_value(Some(&Value::Null)).unwrap(), None);
        assert_eq!(opt_u64_from_value(Some(&decimal(9))).unwrap(), Some(9));
    }

    #[test]
    fn every_error_kind_round_trips() {
        let span = Span {
            start: Position {
                offset: 17,
                line: 3,
                column: 9,
            },
            end: 21,
        };
        let kinds = [
            ErrorKind::UnexpectedEof,
            ErrorKind::UnexpectedByte(0x07),
            ErrorKind::InvalidLiteral,
            ErrorKind::InvalidNumber,
            ErrorKind::NumberOutOfRange,
            ErrorKind::InvalidEscape,
            ErrorKind::InvalidUnicodeEscape,
            ErrorKind::ControlCharacterInString,
            ErrorKind::InvalidUtf8,
            ErrorKind::DuplicateKey("id".into()),
            ErrorKind::RecursionLimitExceeded,
            ErrorKind::TrailingCharacters,
            ErrorKind::TrailingComma,
            ErrorKind::ExpectedSeparator(':'),
            ErrorKind::ExpectedKey,
            ErrorKind::Io("disk on fire".into()),
            ErrorKind::RecordTooLarge(65536),
        ];
        for kind in kinds {
            let original = Error::new(kind, span);
            let reparsed = parse_value(&error_text(&original)).unwrap();
            assert_eq!(error_from_value(&reparsed).unwrap(), original);
        }
    }

    #[test]
    fn real_parser_errors_round_trip() {
        for input in ["{broken", "[1,]", "nul", "{\"a\":1,\"a\":2}"] {
            let original = parse_value(input).unwrap_err();
            let back = error_from_value(&parse_value(&error_text(&original)).unwrap()).unwrap();
            assert_eq!(back, original);
        }
    }

    #[test]
    fn malformed_encodings_error_out() {
        for bad in ["{}", "{\"kind\":\"Nope\"}", "{\"kind\":\"Io\"}"] {
            let v = parse_value(bad).unwrap();
            assert!(error_from_value(&v).is_err(), "{bad}");
        }
    }
}
