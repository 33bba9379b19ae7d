//! A pull-based (SAX-style) JSON event parser.
//!
//! The tree parser in [`crate::parse`] materialises a [`Value`]
//! per record; for schema inference that tree is immediately folded into a
//! type and thrown away. The event parser lets the inference layer build
//! the type *directly* from the token stream, skipping the intermediate
//! tree entirely — the `parsing` bench quantifies the savings.
//!
//! The grammar, strictness (duplicate keys, trailing commas, recursion
//! limit) and error reporting match the tree parser exactly; a property
//! test in this module replays the event stream into a tree and checks it
//! equals the tree parser's output.

use crate::error::{Error, ErrorKind, Position, Result};
use crate::number::Number;
use crate::parse::{Parser, ParserOptions};
use crate::value::{Map, Value};
use std::borrow::Cow;

/// One parse event.
///
/// Strings and keys borrow from the input whenever they contain no
/// escape sequences (the overwhelmingly common case), so consumers that
/// discard string contents — type inference folds `String` straight to
/// `Str` — never pay for an allocation. Call
/// [`Cow::into_owned`] when the text must outlive the input.
#[derive(Debug, Clone, PartialEq)]
pub enum Event<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string value.
    String(Cow<'a, str>),
    /// `{` — an object begins.
    ObjectStart,
    /// An object key; always followed by that key's value events.
    Key(Cow<'a, str>),
    /// `}`.
    ObjectEnd,
    /// `[`.
    ArrayStart,
    /// `]`.
    ArrayEnd,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Container {
    Object,
    Array,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    /// Expecting a value (top level, after a key, or after `[`/`,` in an
    /// array — for arrays, `]` is also allowed when `allow_end` is set).
    AwaitValue { allow_end: bool },
    /// Expecting a key or `}` in an object.
    AwaitKey { allow_end: bool },
    /// A value just finished; expecting `,`/`}`/`]` or end of input.
    AfterValue,
    /// The top-level value completed.
    Done,
}

/// The pull parser. Iterate to receive [`Event`]s for exactly one
/// top-level JSON value; afterwards the iterator yields `None`. For
/// NDJSON streams, construct one `EventParser` per line (the layout used
/// by all the paper's datasets).
pub struct EventParser<'a> {
    parser: Parser<'a>,
    stack: Vec<Container>,
    /// Keys of every open object, flattened; a linear scan over the
    /// current object's suffix mirrors the tree parser's
    /// `Map::contains_key`, and borrowed keys make the retained copies
    /// allocation-free. One buffer for the whole record keeps it to a
    /// single growth chain instead of an alloc/free per object.
    seen_keys: Vec<Cow<'a, str>>,
    /// Index into `seen_keys` where each open object's keys begin.
    seen_starts: Vec<usize>,
    state: State,
    options: ParserOptions,
    failed: bool,
}

impl<'a> EventParser<'a> {
    /// Create with default options.
    pub fn new(input: &'a [u8]) -> Self {
        Self::with_options(input, ParserOptions::default())
    }

    /// Create with explicit options.
    pub fn with_options(input: &'a [u8], options: ParserOptions) -> Self {
        EventParser {
            parser: Parser::with_options(input, options.clone()),
            stack: Vec::new(),
            seen_keys: Vec::new(),
            seen_starts: Vec::new(),
            state: State::AwaitValue { allow_end: false },
            options,
            failed: false,
        }
    }

    /// The options this parser runs with.
    pub fn options(&self) -> &ParserOptions {
        &self.options
    }

    /// Current input position (for stream chaining and error reports).
    /// Named to avoid clashing with [`Iterator::position`].
    pub fn source_position(&self) -> Position {
        self.parser.position()
    }

    /// Require only whitespace after the value (call once done).
    pub fn finish(&mut self) -> Result<()> {
        self.parser.skip_ws_public();
        if self.parser.at_end() {
            Ok(())
        } else {
            Err(Error::at(
                ErrorKind::TrailingCharacters,
                self.parser.position(),
            ))
        }
    }

    fn push_container(&mut self, c: Container) -> Result<()> {
        self.stack.push(c);
        if self.stack.len() > self.options.depth_limit() {
            return Err(Error::at(
                ErrorKind::RecursionLimitExceeded,
                self.parser.position(),
            ));
        }
        if c == Container::Object {
            self.seen_starts.push(self.seen_keys.len());
        }
        Ok(())
    }

    fn pop_container(&mut self) -> Option<Container> {
        let c = self.stack.pop();
        if c == Some(Container::Object) {
            let start = self.seen_starts.pop().expect("object start recorded");
            self.seen_keys.truncate(start);
        }
        self.state = if self.stack.is_empty() {
            State::Done
        } else {
            State::AfterValue
        };
        c
    }

    /// Pull the next event directly, without the [`Iterator`] adapter's
    /// per-call fuse check and `Option<Result>` rewrap. `Ok(None)` means
    /// the top-level value is complete. The hot path of the event fold.
    #[inline]
    pub fn next_event(&mut self) -> Result<Option<Event<'a>>> {
        loop {
            match self.state {
                State::Done => return Ok(None),
                State::AwaitValue { allow_end } => {
                    self.parser.skip_ws_public();
                    match self.parser.peek_public() {
                        Some(b']') if allow_end => {
                            self.parser.bump_public();
                            self.pop_container();
                            return Ok(Some(Event::ArrayEnd));
                        }
                        Some(b'{') => {
                            self.parser.bump_public();
                            self.push_container(Container::Object)?;
                            self.state = State::AwaitKey { allow_end: true };
                            return Ok(Some(Event::ObjectStart));
                        }
                        Some(b'[') => {
                            self.parser.bump_public();
                            self.push_container(Container::Array)?;
                            self.state = State::AwaitValue { allow_end: true };
                            return Ok(Some(Event::ArrayStart));
                        }
                        _ => {
                            let scalar = self.parser.parse_scalar_public()?;
                            self.state = if self.stack.is_empty() {
                                State::Done
                            } else {
                                State::AfterValue
                            };
                            return Ok(Some(scalar));
                        }
                    }
                }
                State::AwaitKey { allow_end } => {
                    self.parser.skip_ws_public();
                    match self.parser.peek_public() {
                        Some(b'}') if allow_end => {
                            self.parser.bump_public();
                            self.pop_container();
                            return Ok(Some(Event::ObjectEnd));
                        }
                        Some(b'"') => {
                            let key_start = self.parser.position();
                            let key = self.parser.parse_string_raw()?;
                            let start = *self.seen_starts.last().expect("inside an object");
                            if self.seen_keys[start..].contains(&key) {
                                if !self.options.allow_duplicate_keys {
                                    return Err(Error::at(
                                        ErrorKind::DuplicateKey(key.into_owned()),
                                        key_start,
                                    ));
                                }
                            } else {
                                self.seen_keys.push(key.clone());
                            }
                            self.parser.skip_ws_public();
                            match self.parser.bump_public() {
                                Some(b':') => {}
                                Some(_) => {
                                    return Err(Error::at(
                                        ErrorKind::ExpectedSeparator(':'),
                                        self.parser.position(),
                                    ))
                                }
                                None => {
                                    return Err(Error::at(
                                        ErrorKind::UnexpectedEof,
                                        self.parser.position(),
                                    ))
                                }
                            }
                            self.state = State::AwaitValue { allow_end: false };
                            return Ok(Some(Event::Key(key)));
                        }
                        Some(_) => {
                            return Err(Error::at(ErrorKind::ExpectedKey, self.parser.position()))
                        }
                        None => {
                            return Err(Error::at(ErrorKind::UnexpectedEof, self.parser.position()))
                        }
                    }
                }
                State::AfterValue => {
                    self.parser.skip_ws_public();
                    let top = *self.stack.last().expect("AfterValue implies container");
                    match (self.parser.bump_public(), top) {
                        (Some(b','), Container::Object) => {
                            self.state = State::AwaitKey { allow_end: false };
                            // Strictness: `{"a":1,}` is an error; the
                            // AwaitKey state with allow_end=false rejects
                            // `}` as ExpectedKey — map to TrailingComma.
                            self.parser.skip_ws_public();
                            if self.parser.peek_public() == Some(b'}') {
                                return Err(Error::at(
                                    ErrorKind::TrailingComma,
                                    self.parser.position(),
                                ));
                            }
                        }
                        (Some(b','), Container::Array) => {
                            self.state = State::AwaitValue { allow_end: false };
                            self.parser.skip_ws_public();
                            if self.parser.peek_public() == Some(b']') {
                                return Err(Error::at(
                                    ErrorKind::TrailingComma,
                                    self.parser.position(),
                                ));
                            }
                        }
                        (Some(b'}'), Container::Object) => {
                            self.pop_container();
                            return Ok(Some(Event::ObjectEnd));
                        }
                        (Some(b']'), Container::Array) => {
                            self.pop_container();
                            return Ok(Some(Event::ArrayEnd));
                        }
                        (Some(_), _) => {
                            return Err(Error::at(
                                ErrorKind::ExpectedSeparator(','),
                                self.parser.position(),
                            ))
                        }
                        (None, _) => {
                            return Err(Error::at(ErrorKind::UnexpectedEof, self.parser.position()))
                        }
                    }
                }
            }
        }
    }
}

impl<'a> Iterator for EventParser<'a> {
    type Item = Result<Event<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        match self.next_event() {
            Ok(Some(e)) => Some(Ok(e)),
            Ok(None) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

/// Rebuild a [`Value`] from an event stream — used by tests to prove the
/// two parsers agree, and handy for consumers that filter events before
/// materialising.
pub fn build_value<'a, I: Iterator<Item = Result<Event<'a>>>>(events: &mut I) -> Result<Value> {
    enum Frame<'a> {
        Object(Map, Option<Cow<'a, str>>),
        Array(Vec<Value>),
    }
    let mut stack: Vec<Frame<'a>> = Vec::new();
    loop {
        let event = match events.next() {
            Some(e) => e?,
            None => return Err(Error::at(ErrorKind::UnexpectedEof, Position::start())),
        };
        let completed: Option<Value> = match event {
            Event::Null => Some(Value::Null),
            Event::Bool(b) => Some(Value::Bool(b)),
            Event::Number(n) => Some(Value::Number(n)),
            Event::String(s) => Some(Value::String(s.into_owned())),
            Event::ObjectStart => {
                stack.push(Frame::Object(Map::new(), None));
                None
            }
            Event::ArrayStart => {
                stack.push(Frame::Array(Vec::new()));
                None
            }
            Event::Key(k) => {
                match stack.last_mut() {
                    Some(Frame::Object(_, pending)) => *pending = Some(k),
                    _ => unreachable!("Key outside object"),
                }
                None
            }
            Event::ObjectEnd => match stack.pop() {
                Some(Frame::Object(map, _)) => Some(Value::Object(map)),
                _ => unreachable!("unbalanced ObjectEnd"),
            },
            Event::ArrayEnd => match stack.pop() {
                Some(Frame::Array(elems)) => Some(Value::Array(elems)),
                _ => unreachable!("unbalanced ArrayEnd"),
            },
        };
        if let Some(value) = completed {
            match stack.last_mut() {
                None => return Ok(value),
                Some(Frame::Array(elems)) => elems.push(value),
                Some(Frame::Object(map, pending)) => {
                    let key = pending.take().expect("value follows a key");
                    // Duplicate keys were already policed by the parser;
                    // `insert` keeps last-wins semantics for lenient mode.
                    map.insert(key.into_owned(), value);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_value;

    fn events_of(text: &str) -> Vec<Event<'_>> {
        EventParser::new(text.as_bytes())
            .collect::<Result<Vec<_>>>()
            .unwrap()
    }

    fn error_of(text: &str) -> ErrorKind {
        EventParser::new(text.as_bytes())
            .collect::<Result<Vec<_>>>()
            .unwrap_err()
            .kind()
            .clone()
    }

    #[test]
    fn scalar_streams() {
        assert_eq!(events_of("null"), vec![Event::Null]);
        assert_eq!(events_of("true"), vec![Event::Bool(true)]);
        assert_eq!(events_of("3.5"), vec![Event::Number(Number::Float(3.5))]);
        assert_eq!(events_of("\"s\""), vec![Event::String("s".into())]);
    }

    #[test]
    fn object_stream() {
        assert_eq!(
            events_of(r#"{"a": 1, "b": [true]}"#),
            vec![
                Event::ObjectStart,
                Event::Key("a".into()),
                Event::Number(Number::Int(1)),
                Event::Key("b".into()),
                Event::ArrayStart,
                Event::Bool(true),
                Event::ArrayEnd,
                Event::ObjectEnd,
            ]
        );
    }

    #[test]
    fn empty_containers() {
        assert_eq!(events_of("{}"), vec![Event::ObjectStart, Event::ObjectEnd]);
        assert_eq!(events_of("[]"), vec![Event::ArrayStart, Event::ArrayEnd]);
        assert_eq!(
            events_of("[{}]"),
            vec![
                Event::ArrayStart,
                Event::ObjectStart,
                Event::ObjectEnd,
                Event::ArrayEnd
            ]
        );
    }

    #[test]
    fn strictness_matches_tree_parser() {
        assert_eq!(error_of("[1,]"), ErrorKind::TrailingComma);
        assert_eq!(error_of("{\"a\":1,}"), ErrorKind::TrailingComma);
        assert_eq!(
            error_of("{\"a\":1,\"a\":2}"),
            ErrorKind::DuplicateKey("a".into())
        );
        assert_eq!(error_of("{\"a\" 1}"), ErrorKind::ExpectedSeparator(':'));
        assert_eq!(error_of("[1 2]"), ErrorKind::ExpectedSeparator(','));
        assert_eq!(error_of("{1: 2}"), ErrorKind::ExpectedKey);
        assert_eq!(error_of("["), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn recursion_limit_applies() {
        let deep: String = std::iter::repeat_n('[', 600)
            .chain(std::iter::repeat_n(']', 600))
            .collect();
        assert_eq!(error_of(&deep), ErrorKind::RecursionLimitExceeded);
    }

    #[test]
    fn lenient_duplicate_keys() {
        let opts = ParserOptions {
            allow_duplicate_keys: true,
            ..Default::default()
        };
        let mut p = EventParser::with_options(br#"{"a":1,"a":2}"#, opts);
        let v = build_value(&mut p).unwrap();
        assert_eq!(v, parse_value(r#"{"a":2}"#).unwrap());
    }

    #[test]
    fn iterator_stops_after_error() {
        let mut p = EventParser::new(b"[1,]");
        assert!(p.next().unwrap().is_ok()); // ArrayStart
        assert!(p.next().unwrap().is_ok()); // 1
        assert!(p.next().unwrap().is_err());
        assert!(p.next().is_none(), "fused after error");
    }

    #[test]
    fn finish_rejects_trailing_garbage() {
        let mut p = EventParser::new(b"{} x");
        for e in &mut p {
            e.unwrap();
        }
        assert!(matches!(
            p.finish().unwrap_err().kind(),
            ErrorKind::TrailingCharacters
        ));

        let mut clean = EventParser::new(b"{}  ");
        for e in &mut clean {
            e.unwrap();
        }
        clean.finish().unwrap();
    }

    #[test]
    fn replay_equals_tree_parser() {
        for text in [
            "null",
            r#"{"a": [1, {"b": null}], "c": {"d": [true, false]}}"#,
            r#"[[], {}, "x", -2.5e3]"#,
            r#"{"unicode": "é😀"}"#,
        ] {
            let mut p = EventParser::new(text.as_bytes());
            let via_events = build_value(&mut p).unwrap();
            p.finish().unwrap();
            assert_eq!(via_events, parse_value(text).unwrap(), "for {text}");
        }
    }
}
