//! Minimal JSON writer used by [`crate::report`], [`crate::trace`] and
//! downstream report emitters (e.g. the profiler's dataset report).
//!
//! This crate must not depend on anything (including the workspace's
//! own `typefuse-json`, which sits *above* it in the dependency graph
//! once instrumented), so serialization is a small comma-tracking
//! string builder with correct string escaping. The writer is public so
//! reports built elsewhere serialize with the exact same number and
//! float formatting as [`RunReport`](crate::RunReport) —
//! byte-determinism of those reports rests on this single formatter.

use std::fmt::Write;

/// Streaming JSON writer over a growing `String`.
///
/// The caller is responsible for structural validity (matching
/// `begin_*`/`end_*`, keys only inside objects); the writer handles
/// commas and escaping.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the next value at the current nesting level needs a
    /// leading comma, one entry per open container.
    needs_comma: Vec<bool>,
}

impl JsonWriter {
    /// A writer with empty output.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// A writer over `out`, emptied first, so a caller that writes one
    /// document after another reuses one allocation ([`finish`](Self::finish)
    /// hands it back).
    pub fn with_buffer(mut out: String) -> Self {
        out.clear();
        JsonWriter {
            out,
            needs_comma: Vec::new(),
        }
    }

    fn before_value(&mut self) {
        if let Some(needs) = self.needs_comma.last_mut() {
            if *needs {
                self.out.push(',');
            }
            *needs = true;
        }
    }

    /// Open a `{`.
    pub fn begin_object(&mut self) {
        self.before_value();
        self.out.push('{');
        self.needs_comma.push(false);
    }

    /// Close the current object.
    pub fn end_object(&mut self) {
        self.needs_comma.pop();
        self.out.push('}');
    }

    /// Open a `[`.
    pub fn begin_array(&mut self) {
        self.before_value();
        self.out.push('[');
        self.needs_comma.push(false);
    }

    /// Close the current array.
    pub fn end_array(&mut self) {
        self.needs_comma.pop();
        self.out.push(']');
    }

    /// Write an object key; the following call writes its value
    /// (`w.key("n").number(1)`).
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.before_value();
        let _ = write_escaped(&mut self.out, key);
        self.out.push(':');
        // The value that follows must not get its own comma.
        if let Some(needs) = self.needs_comma.last_mut() {
            *needs = false;
        }
        self
    }

    /// Write an escaped string value.
    pub fn string(&mut self, value: &str) {
        self.before_value();
        let _ = write_escaped(&mut self.out, value);
    }

    /// Write a boolean literal.
    pub fn bool_value(&mut self, value: bool) {
        self.before_value();
        self.out.push_str(if value { "true" } else { "false" });
    }

    /// Write an unsigned integer value.
    pub fn number(&mut self, value: u64) {
        self.before_value();
        let _ = write!(self.out, "{value}");
    }

    /// Write an unsigned integer as a decimal string value: exact for
    /// every `u64`, where a JSON number reads back through `f64` and
    /// rounds above 2⁵³.
    pub fn decimal(&mut self, value: u64) {
        self.before_value();
        let _ = write!(self.out, "\"{value}\"");
    }

    /// Write a float; non-finite values become `null` since JSON has no
    /// representation for them.
    pub fn float(&mut self, value: f64) {
        self.before_value();
        if value.is_finite() {
            let start = self.out.len();
            let _ = write!(self.out, "{value}");
            // Keep output unambiguous as a float for readers that care.
            if !self.out[start..].contains(['.', 'e', 'E']) {
                self.out.push_str(".0");
            }
        } else {
            self.out.push_str("null");
        }
    }

    /// Splice pre-serialized JSON in as a value.
    ///
    /// The caller guarantees `json` is a complete, valid JSON value;
    /// the writer only handles the surrounding comma. This is how the
    /// versioned response envelope embeds payloads that were serialized
    /// elsewhere (reports, schemas) without re-parsing them.
    pub fn raw(&mut self, json: &str) {
        self.before_value();
        self.out.push_str(json);
    }

    /// Consume the writer, returning the JSON text.
    pub fn finish(self) -> String {
        debug_assert!(self.needs_comma.is_empty(), "unclosed JSON container");
        self.out
    }
}

/// Write `s` as a JSON string with RFC 8259 escaping: the mandatory
/// escapes only (`"`, `\`, control characters, with the short forms
/// `\b \f \n \r \t`), everything else raw UTF-8. The one escaper of the
/// workspace: [`JsonWriter`] and `typefuse_json`'s serializer both call it.
pub fn write_escaped<W: Write>(w: &mut W, s: &str) -> std::fmt::Result {
    w.write_char('"')?;
    let mut plain_start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape: Option<&str> = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            0x08 => Some("\\b"),
            0x0c => Some("\\f"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x00..=0x1f => None, // \uXXXX, handled below
            _ => continue,
        };
        w.write_str(&s[plain_start..i])?;
        match escape {
            Some(e) => w.write_str(e)?,
            None => write!(w, "\\u{:04x}", b)?,
        }
        plain_start = i + 1;
    }
    w.write_str(&s[plain_start..])?;
    w.write_char('"')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_structures_and_commas() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("a").number(1);
        w.key("b");
        w.begin_array();
        w.number(2);
        w.string("three");
        w.begin_object();
        w.end_object();
        w.end_array();
        w.key("c").float(0.5);
        w.end_object();
        assert_eq!(w.finish(), r#"{"a":1,"b":[2,"three",{}],"c":0.5}"#);
    }

    #[test]
    fn escaping_controls_and_quotes() {
        let mut w = JsonWriter::new();
        w.string("a\"b\\c\n\u{1}");
        assert_eq!(w.finish(), concat!(r#""a\"b\\c\n"#, r#"\u0001""#));
    }

    #[test]
    fn floats_stay_floats_and_nan_is_null() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.float(2.0);
        w.float(f64::NAN);
        w.end_array();
        assert_eq!(w.finish(), "[2.0,null]");
    }
}
