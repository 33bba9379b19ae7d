//! JSON serialization: compact (one line, no spaces) and pretty (indented).
//!
//! The compact form is what the dataset generators emit as NDJSON; the
//! pretty form is for human inspection in examples and the CLI.

use crate::value::Value;
use std::fmt;
use typefuse_obs::json::write_escaped;

/// Serialize a value compactly: `{"a":1,"b":[true,null]}`.
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    // Writing to a String cannot fail.
    let _ = write_value(&mut out, value);
    out
}

/// Serialize a value with 2-space indentation.
pub fn to_string_pretty(value: &Value) -> String {
    let mut out = String::new();
    let _ = write_pretty(&mut out, value, 0);
    out
}

/// Write the compact form into any formatter (used by `Display for Value`).
pub(crate) fn write_compact(value: &Value, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write_value(f, value)
}

fn write_value<W: fmt::Write>(w: &mut W, value: &Value) -> fmt::Result {
    match value {
        Value::Null => w.write_str("null"),
        Value::Bool(true) => w.write_str("true"),
        Value::Bool(false) => w.write_str("false"),
        Value::Number(n) => write!(w, "{n}"),
        Value::String(s) => write_escaped(w, s),
        Value::Array(elems) => {
            w.write_char('[')?;
            for (i, e) in elems.iter().enumerate() {
                if i > 0 {
                    w.write_char(',')?;
                }
                write_value(w, e)?;
            }
            w.write_char(']')
        }
        Value::Object(map) => {
            w.write_char('{')?;
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    w.write_char(',')?;
                }
                write_escaped(w, k)?;
                w.write_char(':')?;
                write_value(w, v)?;
            }
            w.write_char('}')
        }
    }
}

fn write_pretty<W: fmt::Write>(w: &mut W, value: &Value, indent: usize) -> fmt::Result {
    const STEP: usize = 2;
    match value {
        Value::Array(elems) if !elems.is_empty() => {
            w.write_str("[\n")?;
            for (i, e) in elems.iter().enumerate() {
                if i > 0 {
                    w.write_str(",\n")?;
                }
                write_indent(w, indent + STEP)?;
                write_pretty(w, e, indent + STEP)?;
            }
            w.write_char('\n')?;
            write_indent(w, indent)?;
            w.write_char(']')
        }
        Value::Object(map) if !map.is_empty() => {
            w.write_str("{\n")?;
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    w.write_str(",\n")?;
                }
                write_indent(w, indent + STEP)?;
                write_escaped(w, k)?;
                w.write_str(": ")?;
                write_pretty(w, v, indent + STEP)?;
            }
            w.write_char('\n')?;
            write_indent(w, indent)?;
            w.write_char('}')
        }
        other => write_value(w, other),
    }
}

fn write_indent<W: fmt::Write>(w: &mut W, n: usize) -> fmt::Result {
    for _ in 0..n {
        w.write_char(' ')?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json, parse_value};

    #[test]
    fn compact_output() {
        let v = json!({"a": 1, "b": [true, null, "x"], "c": {}});
        assert_eq!(to_string(&v), r#"{"a":1,"b":[true,null,"x"],"c":{}}"#);
    }

    #[test]
    fn display_matches_to_string() {
        let v = json!([1, {"k": "v"}]);
        assert_eq!(v.to_string(), to_string(&v));
    }

    #[test]
    fn escaping_round_trips() {
        let tricky = "quote\" back\\slash /slash \n\t\r\u{8}\u{c} ctrl\u{1} é 😀";
        let v = json!({"s": tricky});
        let text = to_string(&v);
        assert_eq!(parse_value(&text).unwrap(), v);
    }

    #[test]
    fn both_writers_escape_every_ascii_char_alike() {
        let strings = (0u8..0x80)
            .map(|b| char::from(b).to_string())
            .chain(["é 😀 ü\u{7f}\u{80}\u{2028}".to_string()]);
        for s in strings {
            let mut w = typefuse_obs::JsonWriter::new();
            w.string(&s);
            let text = w.finish();
            assert_eq!(text, to_string(&Value::String(s.clone())), "{s:?}");
            assert_eq!(parse_value(&text).unwrap(), Value::String(s));
        }
        assert_eq!(to_string(&json!("\u{8}\u{c}")), r#""\b\f""#);
    }

    #[test]
    fn control_chars_use_unicode_escape() {
        let v = json!("\u{1}");
        assert_eq!(to_string(&v), r#""\u0001""#);
    }

    #[test]
    fn pretty_output_shape() {
        let v = json!({"a": [1, 2], "b": {}});
        let p = to_string_pretty(&v);
        assert_eq!(p, "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {}\n}");
        // Pretty output re-parses to the same value.
        assert_eq!(parse_value(&p).unwrap(), v);
    }

    #[test]
    fn empty_containers_stay_inline_in_pretty() {
        assert_eq!(to_string_pretty(&json!([])), "[]");
        assert_eq!(to_string_pretty(&json!({})), "{}");
    }

    #[test]
    fn numbers_round_trip() {
        for text in ["0", "-1", "3.5", "1e30", "9007199254740993"] {
            let v = parse_value(text).unwrap();
            assert_eq!(parse_value(&to_string(&v)).unwrap(), v, "for {text}");
        }
    }
}
