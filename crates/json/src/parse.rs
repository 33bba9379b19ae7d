//! A strict, span-carrying recursive-descent parser for RFC 8259 JSON.
//!
//! Design notes:
//!
//! * **Byte-level.** The hot loop operates on `&[u8]`; UTF-8 validation is
//!   confined to string contents, which is where non-ASCII bytes can occur.
//! * **Strictness.** Duplicate keys are errors by default because the
//!   paper's data model requires well-formed records; see
//!   [`ParserOptions::allow_duplicate_keys`].
//! * **Bounded recursion.** Nesting depth is limited (default 512) so a
//!   hostile input cannot overflow the stack — the paper's pipelines ingest
//!   uncontrolled remote data (Section 1).

use crate::error::{Error, ErrorKind, Position, Result, Span};
use crate::number;
use crate::value::{Map, Value};
use std::borrow::Cow;

/// Knobs for the parser.
#[derive(Debug, Clone)]
pub struct ParserOptions {
    /// Maximum nesting depth of arrays/objects. Default 512; values
    /// above [`ParserOptions::MAX_DEPTH_LIMIT`] act as the limit.
    pub max_depth: usize,
    /// Keep the last binding instead of erroring when an object repeats a
    /// key. Default `false` (strict).
    pub allow_duplicate_keys: bool,
}

impl ParserOptions {
    /// The deepest nesting any caller can ask for: [`depth_limit`] never
    /// exceeds it, whatever `max_depth` says. Everything that walks a
    /// value or the type inferred from it recurses once per level, on
    /// threads with the default 2 MiB stack, and a stack overflow aborts
    /// the process — no error policy or supervisor sees it.
    ///
    /// Deepest level each walker survives on a 2 MiB thread, debug build,
    /// the weakest of `[[…]]`, `{"a":{"a":…}}` and the two alternating:
    ///
    /// | walker | levels |
    /// |---|---|
    /// | `fuse` (out of place) | 592 |
    /// | `parse_type` / `from_wire` | 704 / 1 592 |
    /// | `Parser` | 784 |
    /// | JSON Schema export | 840 |
    /// | `EventParser` + `fold_value` | 872 |
    /// | `Typer`, alone or with the profile observer | 880 |
    /// | `diff` | 1 008 |
    /// | `infer_type`, profile `observe_value` | 1 312 |
    /// | `TypeInterner::intern` + `resolve` | 1 328 |
    /// | `fuse_into` | 1 568 |
    /// | `Clone`, profile merge + report | 1 792 |
    /// | `is_subtype`, `find_map_like` | 1 936 |
    /// | `Display` / `pretty`, `size`, `Hash`, `admits` | 3 488 – 4 160 |
    /// | `to_wire` | 6 784 |
    /// | `Drop` (`Type`, `Value`) | 8 576 |
    ///
    /// A whole job (`events`/`value`/`shape` × batch / `--streaming` /
    /// profiled, 1 and 2 workers) survives 768. Half the weakest walker
    /// is 296, below the default, so the limit is the default: 512. A
    /// release build goes deeper (`fuse` 1 968, a whole job 3 520), but
    /// the limit has to hold in the build the tests run.
    ///
    /// `from_wire` decodes schemas read back from disk, so it counts its
    /// own nesting instead and fails past 2 × (512 + 1) = 1 026
    /// productions (`typefuse_types::wire::MAX_NESTING`), within the
    /// 1 592 it survives. Every schema fused from input within this
    /// limit fits: a container level adds at most two productions to it
    /// — a union (unions never nest directly) and the level's own record,
    /// array or `[T*]` — and the leaf at most two more, a union of
    /// scalars and a scalar.
    ///
    /// [`depth_limit`]: ParserOptions::depth_limit
    pub const MAX_DEPTH_LIMIT: usize = 512;

    /// The nesting depth enforced: `max_depth`, clamped to
    /// [`MAX_DEPTH_LIMIT`](Self::MAX_DEPTH_LIMIT).
    pub fn depth_limit(&self) -> usize {
        self.max_depth.min(Self::MAX_DEPTH_LIMIT)
    }
}

impl Default for ParserOptions {
    fn default() -> Self {
        ParserOptions {
            max_depth: Self::MAX_DEPTH_LIMIT,
            allow_duplicate_keys: false,
        }
    }
}

/// Parse a complete JSON text into a [`Value`].
///
/// The entire input must be consumed (modulo trailing whitespace).
pub fn parse_value(input: &str) -> Result<Value> {
    Parser::new(input.as_bytes()).parse_complete()
}

/// The parser state over a byte slice.
pub struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    line: u32,
    line_start: usize,
    depth: usize,
    options: ParserOptions,
    /// Scratch buffer reused across string parses to avoid re-allocation.
    scratch: Vec<u8>,
}

impl<'a> Parser<'a> {
    /// Create a parser with default options.
    pub fn new(input: &'a [u8]) -> Self {
        Self::with_options(input, ParserOptions::default())
    }

    /// Create a parser with explicit options.
    pub fn with_options(input: &'a [u8], options: ParserOptions) -> Self {
        Parser {
            input,
            pos: 0,
            line: 1,
            line_start: 0,
            depth: 0,
            options,
            scratch: Vec::new(),
        }
    }

    /// Parse one value and require that only whitespace follows.
    pub fn parse_complete(mut self) -> Result<Value> {
        let v = self.parse_one()?;
        self.skip_whitespace();
        if self.pos < self.input.len() {
            return Err(self.err_here(ErrorKind::TrailingCharacters));
        }
        Ok(v)
    }

    /// Parse one value, leaving the cursor after it (used by NDJSON and by
    /// concatenated-JSON streams).
    pub fn parse_one(&mut self) -> Result<Value> {
        self.skip_whitespace();
        self.parse_value_inner()
    }

    /// Current position (for error reporting by callers).
    pub fn position(&self) -> Position {
        Position {
            offset: self.pos,
            line: self.line,
            column: (self.pos - self.line_start + 1) as u32,
        }
    }

    // ---- crate-internal hooks for the event parser ---------------------

    /// Skip whitespace (event-parser hook).
    pub(crate) fn skip_ws_public(&mut self) {
        self.skip_whitespace();
    }

    /// Peek the next byte (event-parser hook).
    pub(crate) fn peek_public(&self) -> Option<u8> {
        self.peek()
    }

    /// Consume one byte (event-parser hook).
    pub(crate) fn bump_public(&mut self) -> Option<u8> {
        self.bump()
    }

    /// Whether the cursor is at the end of input.
    pub(crate) fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    /// Parse a string token, borrowing from the input when it contains no
    /// escapes (event-parser hook); cursor must be on `"`.
    ///
    /// This is the event fast path's edge over the tree parser: string
    /// *contents* are only copied when an escape forces unescaping, so a
    /// type fold that discards them never pays for the allocation.
    #[inline]
    pub(crate) fn parse_string_raw(&mut self) -> Result<Cow<'a, str>> {
        let start = self.position();
        self.bump(); // opening quote
        let run_start = self.pos;
        // Fast path: scan for the closing quote; no escape means the raw
        // slice is the string.
        loop {
            match self.peek() {
                Some(b'"') => {
                    let raw = &self.input[run_start..self.pos];
                    self.pos += 1; // closing quote (never a newline)
                    return match std::str::from_utf8(raw) {
                        Ok(s) => Ok(Cow::Borrowed(s)),
                        Err(_) => Err(self.err_span(ErrorKind::InvalidUtf8, start)),
                    };
                }
                Some(b'\\') => break,
                Some(0x00..=0x1f) => return Err(self.err_here(ErrorKind::ControlCharacterInString)),
                Some(_) => self.pos += 1,
                None => return Err(self.err_here(ErrorKind::UnexpectedEof)),
            }
        }
        // Slow path: an escape — copy the clean prefix and continue with
        // the unescaping loop of `parse_string`.
        self.scratch.clear();
        self.scratch
            .extend_from_slice(&self.input[run_start..self.pos]);
        self.pos += 1; // the backslash
        self.parse_escape(start)?;
        loop {
            let run = self.pos;
            while let Some(&b) = self.input.get(self.pos) {
                match b {
                    b'"' | b'\\' => break,
                    0x00..=0x1f => return Err(self.err_here(ErrorKind::ControlCharacterInString)),
                    _ => self.pos += 1,
                }
            }
            self.scratch.extend_from_slice(&self.input[run..self.pos]);
            match self.bump() {
                Some(b'"') => break,
                Some(b'\\') => self.parse_escape(start)?,
                Some(_) => unreachable!("loop breaks only on quote or backslash"),
                None => return Err(self.err_here(ErrorKind::UnexpectedEof)),
            }
        }
        match std::str::from_utf8(&self.scratch) {
            Ok(s) => Ok(Cow::Owned(s.to_owned())),
            Err(_) => Err(self.err_span(ErrorKind::InvalidUtf8, start)),
        }
    }

    /// Parse a scalar value (literal, number or string) into an event
    /// (event-parser hook). The cursor must not be on `{` or `[`.
    pub(crate) fn parse_scalar_public(&mut self) -> Result<crate::events::Event<'a>> {
        use crate::events::Event;
        match self.peek() {
            None => Err(self.err_here(ErrorKind::UnexpectedEof)),
            Some(b'"') => Ok(Event::String(self.parse_string_raw()?)),
            Some(b'n') => {
                self.parse_literal(b"null", Value::Null)?;
                Ok(Event::Null)
            }
            Some(b't') => {
                self.parse_literal(b"true", Value::Bool(true))?;
                Ok(Event::Bool(true))
            }
            Some(b'f') => {
                self.parse_literal(b"false", Value::Bool(false))?;
                Ok(Event::Bool(false))
            }
            Some(b'-' | b'0'..=b'9') => match self.parse_number()? {
                Value::Number(n) => Ok(Event::Number(n)),
                _ => unreachable!("parse_number returns a number"),
            },
            Some(b'{' | b'[') => unreachable!("parse_scalar_public called on a container"),
            Some(b) => Err(self.err_here(ErrorKind::UnexpectedByte(b))),
        }
    }

    fn err_here(&self, kind: ErrorKind) -> Error {
        Error::at(kind, self.position())
    }

    fn err_span(&self, kind: ErrorKind, start: Position) -> Error {
        Error::new(
            kind,
            Span {
                start,
                end: self.pos,
            },
        )
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.line_start = self.pos;
        }
        Some(b)
    }

    fn skip_whitespace(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'\n' => {
                    self.pos += 1;
                    self.line += 1;
                    self.line_start = self.pos;
                }
                _ => break,
            }
        }
    }

    fn parse_value_inner(&mut self) -> Result<Value> {
        match self.peek() {
            None => Err(self.err_here(ErrorKind::UnexpectedEof)),
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_literal(b"true", Value::Bool(true)),
            Some(b'f') => self.parse_literal(b"false", Value::Bool(false)),
            Some(b'n') => self.parse_literal(b"null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(b) => Err(self.err_here(ErrorKind::UnexpectedByte(b))),
        }
    }

    fn parse_literal(&mut self, word: &[u8], value: Value) -> Result<Value> {
        let start = self.position();
        for &expected in word {
            match self.bump() {
                Some(b) if b == expected => {}
                Some(_) => return Err(self.err_span(ErrorKind::InvalidLiteral, start)),
                None => return Err(self.err_here(ErrorKind::UnexpectedEof)),
            }
        }
        Ok(value)
    }

    fn enter(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > self.options.depth_limit() {
            return Err(self.err_here(ErrorKind::RecursionLimitExceeded));
        }
        Ok(())
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.enter()?;
        self.bump(); // '{'
        let mut map = Map::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.bump();
            self.depth -= 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_whitespace();
            let key_start = self.position();
            if self.peek() != Some(b'"') {
                return Err(match self.peek() {
                    None => self.err_here(ErrorKind::UnexpectedEof),
                    Some(_) => self.err_here(ErrorKind::ExpectedKey),
                });
            }
            let key = self.parse_string()?;
            self.skip_whitespace();
            match self.bump() {
                Some(b':') => {}
                Some(_) => return Err(self.err_here(ErrorKind::ExpectedSeparator(':'))),
                None => return Err(self.err_here(ErrorKind::UnexpectedEof)),
            }
            self.skip_whitespace();
            let value = self.parse_value_inner()?;
            if map.contains_key(&key) {
                if !self.options.allow_duplicate_keys {
                    return Err(self.err_span(ErrorKind::DuplicateKey(key), key_start));
                }
                map.insert(key, value);
            } else {
                map.insert_unchecked(key, value);
            }
            self.skip_whitespace();
            match self.bump() {
                Some(b',') => {
                    self.skip_whitespace();
                    if self.peek() == Some(b'}') {
                        return Err(self.err_here(ErrorKind::TrailingComma));
                    }
                }
                Some(b'}') => break,
                Some(_) => return Err(self.err_here(ErrorKind::ExpectedSeparator(','))),
                None => return Err(self.err_here(ErrorKind::UnexpectedEof)),
            }
        }
        self.depth -= 1;
        Ok(Value::Object(map))
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.enter()?;
        self.bump(); // '['
        let mut elems = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.bump();
            self.depth -= 1;
            return Ok(Value::Array(elems));
        }
        loop {
            self.skip_whitespace();
            elems.push(self.parse_value_inner()?);
            self.skip_whitespace();
            match self.bump() {
                Some(b',') => {
                    self.skip_whitespace();
                    if self.peek() == Some(b']') {
                        return Err(self.err_here(ErrorKind::TrailingComma));
                    }
                }
                Some(b']') => break,
                Some(_) => return Err(self.err_here(ErrorKind::ExpectedSeparator(','))),
                None => return Err(self.err_here(ErrorKind::UnexpectedEof)),
            }
        }
        self.depth -= 1;
        Ok(Value::Array(elems))
    }

    fn parse_string(&mut self) -> Result<String> {
        let start = self.position();
        self.bump(); // opening quote
        self.scratch.clear();
        // Fast path: scan a run of plain bytes, copy in one go.
        loop {
            let run_start = self.pos;
            while let Some(&b) = self.input.get(self.pos) {
                match b {
                    b'"' | b'\\' => break,
                    0x00..=0x1f => return Err(self.err_here(ErrorKind::ControlCharacterInString)),
                    _ => self.pos += 1,
                }
            }
            self.scratch
                .extend_from_slice(&self.input[run_start..self.pos]);
            match self.bump() {
                Some(b'"') => break,
                Some(b'\\') => self.parse_escape(start)?,
                Some(_) => unreachable!("loop breaks only on quote or backslash"),
                None => return Err(self.err_here(ErrorKind::UnexpectedEof)),
            }
        }
        match std::str::from_utf8(&self.scratch) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => Err(self.err_span(ErrorKind::InvalidUtf8, start)),
        }
    }

    fn parse_escape(&mut self, string_start: Position) -> Result<()> {
        match self.bump() {
            Some(b'"') => self.scratch.push(b'"'),
            Some(b'\\') => self.scratch.push(b'\\'),
            Some(b'/') => self.scratch.push(b'/'),
            Some(b'b') => self.scratch.push(0x08),
            Some(b'f') => self.scratch.push(0x0c),
            Some(b'n') => self.scratch.push(b'\n'),
            Some(b'r') => self.scratch.push(b'\r'),
            Some(b't') => self.scratch.push(b'\t'),
            Some(b'u') => {
                let cp = self.parse_hex4(string_start)?;
                let ch = if (0xD800..=0xDBFF).contains(&cp) {
                    // High surrogate: a low surrogate must follow.
                    if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                        return Err(self.err_span(ErrorKind::InvalidUnicodeEscape, string_start));
                    }
                    let low = self.parse_hex4(string_start)?;
                    if !(0xDC00..=0xDFFF).contains(&low) {
                        return Err(self.err_span(ErrorKind::InvalidUnicodeEscape, string_start));
                    }
                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                    char::from_u32(combined).ok_or_else(|| {
                        self.err_span(ErrorKind::InvalidUnicodeEscape, string_start)
                    })?
                } else if (0xDC00..=0xDFFF).contains(&cp) {
                    // Lone low surrogate.
                    return Err(self.err_span(ErrorKind::InvalidUnicodeEscape, string_start));
                } else {
                    char::from_u32(cp).ok_or_else(|| {
                        self.err_span(ErrorKind::InvalidUnicodeEscape, string_start)
                    })?
                };
                let mut buf = [0u8; 4];
                self.scratch
                    .extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
            }
            Some(_) => return Err(self.err_span(ErrorKind::InvalidEscape, string_start)),
            None => return Err(self.err_here(ErrorKind::UnexpectedEof)),
        }
        Ok(())
    }

    fn parse_hex4(&mut self, string_start: Position) -> Result<u32> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                Some(_) => return Err(self.err_span(ErrorKind::InvalidUnicodeEscape, string_start)),
                None => return Err(self.err_here(ErrorKind::UnexpectedEof)),
            };
            cp = cp * 16 + d;
        }
        Ok(cp)
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.position();
        let begin = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(self.err_span(ErrorKind::InvalidNumber, start));
                }
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err_span(ErrorKind::InvalidNumber, start)),
        }
        // Fraction.
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err_span(ErrorKind::InvalidNumber, start));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // Exponent.
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err_span(ErrorKind::InvalidNumber, start));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.input[begin..self.pos]).expect("number bytes are ASCII");
        match number::parse_decimal(text) {
            Some(n) => Ok(Value::Number(n)),
            None => Err(self.err_span(ErrorKind::NumberOutOfRange, start)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn kind_of(input: &str) -> ErrorKind {
        parse_value(input).unwrap_err().kind().clone()
    }

    #[test]
    fn scalars() {
        assert_eq!(parse_value("null").unwrap(), Value::Null);
        assert_eq!(parse_value("true").unwrap(), Value::Bool(true));
        assert_eq!(parse_value("false").unwrap(), Value::Bool(false));
        assert_eq!(parse_value("0").unwrap(), json!(0));
        assert_eq!(parse_value("-12").unwrap(), json!(-12));
        assert_eq!(parse_value("1.5e2").unwrap(), json!(150.0));
        assert_eq!(parse_value("\"hi\"").unwrap(), json!("hi"));
    }

    #[test]
    fn nested_structure() {
        let v = parse_value(r#"{"a": [1, {"b": null}], "c": {"d": [true, false]}}"#).unwrap();
        assert_eq!(v, json!({"a": [1, {"b": null}], "c": {"d": [true, false]}}));
    }

    #[test]
    fn whitespace_everywhere() {
        let v = parse_value(" \t\r\n { \"a\" : [ 1 , 2 ] } \n").unwrap();
        assert_eq!(v, json!({"a": [1, 2]}));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse_value("{}").unwrap(), json!({}));
        assert_eq!(parse_value("[]").unwrap(), json!([]));
        assert_eq!(parse_value("[{}]").unwrap(), json!([{}]));
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            parse_value(r#""a\"b\\c\/d\b\f\n\r\t""#).unwrap(),
            json!("a\"b\\c/d\u{8}\u{c}\n\r\t")
        );
        assert_eq!(parse_value(r#""A""#).unwrap(), json!("A"));
        assert_eq!(parse_value(r#""é""#).unwrap(), json!("é"));
        // Surrogate pair: U+1F600.
        assert_eq!(parse_value(r#""😀""#).unwrap(), json!("😀"));
    }

    #[test]
    fn raw_utf8_in_strings() {
        assert_eq!(parse_value("\"caffè\"").unwrap(), json!("caffè"));
    }

    #[test]
    fn lone_surrogates_rejected() {
        assert_eq!(kind_of(r#""\ud800""#), ErrorKind::InvalidUnicodeEscape);
        assert_eq!(kind_of(r#""\udc00""#), ErrorKind::InvalidUnicodeEscape);
        assert_eq!(kind_of(r#""\ud800A""#), ErrorKind::InvalidUnicodeEscape);
    }

    #[test]
    fn control_chars_rejected() {
        assert_eq!(kind_of("\"a\x01b\""), ErrorKind::ControlCharacterInString);
    }

    #[test]
    fn bad_escapes_rejected() {
        assert_eq!(kind_of(r#""\x""#), ErrorKind::InvalidEscape);
        assert_eq!(kind_of(r#""\u00g0""#), ErrorKind::InvalidUnicodeEscape);
    }

    #[test]
    fn number_grammar_enforced() {
        assert_eq!(kind_of("01"), ErrorKind::InvalidNumber);
        assert_eq!(kind_of("-"), ErrorKind::InvalidNumber);
        assert_eq!(kind_of("1."), ErrorKind::InvalidNumber);
        assert_eq!(kind_of("1e"), ErrorKind::InvalidNumber);
        assert_eq!(kind_of("1e+"), ErrorKind::InvalidNumber);
        assert_eq!(kind_of("+5"), ErrorKind::UnexpectedByte(b'+'));
        assert_eq!(kind_of(".5"), ErrorKind::UnexpectedByte(b'.'));
    }

    #[test]
    fn huge_exponent_out_of_range() {
        assert_eq!(kind_of("1e999"), ErrorKind::NumberOutOfRange);
    }

    #[test]
    fn misspelt_literals() {
        assert_eq!(kind_of("nul"), ErrorKind::UnexpectedEof);
        assert_eq!(kind_of("nulL"), ErrorKind::InvalidLiteral);
        assert_eq!(kind_of("truth"), ErrorKind::InvalidLiteral);
    }

    #[test]
    fn structural_errors() {
        assert_eq!(kind_of("{"), ErrorKind::UnexpectedEof);
        assert_eq!(kind_of("{\"a\" 1}"), ErrorKind::ExpectedSeparator(':'));
        assert_eq!(kind_of("[1 2]"), ErrorKind::ExpectedSeparator(','));
        assert_eq!(kind_of("[1,]"), ErrorKind::TrailingComma);
        assert_eq!(kind_of("{\"a\":1,}"), ErrorKind::TrailingComma);
        assert_eq!(kind_of("{1: 2}"), ErrorKind::ExpectedKey);
        assert_eq!(kind_of("[1] x"), ErrorKind::TrailingCharacters);
        assert_eq!(kind_of(""), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn duplicate_keys_strict_by_default() {
        assert_eq!(
            kind_of(r#"{"a": 1, "a": 2}"#),
            ErrorKind::DuplicateKey("a".to_string())
        );
    }

    #[test]
    fn duplicate_keys_lenient_mode() {
        let opts = ParserOptions {
            allow_duplicate_keys: true,
            ..Default::default()
        };
        let v = Parser::with_options(br#"{"a": 1, "a": 2}"#, opts)
            .parse_complete()
            .unwrap();
        assert_eq!(v, json!({"a": 2}));
    }

    #[test]
    fn recursion_limit() {
        let deep: String = std::iter::repeat_n('[', 600)
            .chain(std::iter::repeat_n(']', 600))
            .collect();
        assert_eq!(kind_of(&deep), ErrorKind::RecursionLimitExceeded);

        let opts = ParserOptions {
            max_depth: 8,
            ..Default::default()
        };
        let shallow = "[[[[[[[[[0]]]]]]]]]"; // depth 9
        assert!(Parser::with_options(shallow.as_bytes(), opts)
            .parse_complete()
            .is_err());
    }

    #[test]
    fn error_positions_are_accurate() {
        let err = parse_value("{\n  \"a\": tru\n}").unwrap_err();
        assert_eq!(err.span().start.line, 2);
        assert_eq!(err.span().start.column, 8);
    }

    #[test]
    fn parse_one_leaves_cursor_for_streams() {
        let mut p = Parser::new(b"{\"a\":1} {\"b\":2}");
        assert_eq!(p.parse_one().unwrap(), json!({"a": 1}));
        assert_eq!(p.parse_one().unwrap(), json!({"b": 2}));
        assert!(matches!(
            p.parse_one().unwrap_err().kind(),
            ErrorKind::UnexpectedEof
        ));
    }

    #[test]
    fn integer_precision_preserved() {
        let v = parse_value("9007199254740993").unwrap(); // 2^53 + 1
        assert_eq!(v.as_i64(), Some(9007199254740993));
    }
}
