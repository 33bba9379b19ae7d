//! The direct typer: JSON text to its Figure 4 type in one validating
//! recursive descent — the Map phase's hot path.
//!
//! [`Typer::type_line`] reads bytes and builds the [`Type`]: no event,
//! no borrowed-or-owned string, no per-record scratch allocation (its two
//! stacks are reused across lines), every record and array gets a
//! vector of exactly its size, and a key the typer has seen recently is
//! shared, not copied (see [`Typer`]). An [`Observer`] rides the same walk — the
//! profile trie is one, `()` is the one that compiles to nothing.
//!
//! # The contract
//!
//! `Some(ty)` is returned only where the event fold
//! ([`streaming::event_fold`](crate::streaming::event_fold)) returns
//! `Ok(ty)` — the same type,
//! the same observer facts, the same event and frame counts. Every check
//! of that route is kept: the strict RFC 8259 grammar, the parser's
//! whitespace set, raw control bytes, every escape with surrogate
//! pairing, UTF-8, `parse_decimal`'s range, duplicate keys, `max_depth`,
//! trailing characters.
//!
//! `None` means *declined*, not *malformed*: the input is malformed, or
//! it holds an escaped key or a duplicate key (under either duplicate-key
//! option), which this walk does not settle. The typer reports nothing
//! about why. The caller replays the line through the event fold (or the
//! value tree), which yields the error — kind, span, line — or the
//! lenient last-wins type. That is why the event fold stays: it is the
//! replay path and the reference the differential tests hold this walk
//! to (`tests/typer_differential.rs`).

use std::collections::HashSet;
use std::sync::Arc;
use typefuse_json::number::parse_decimal;
use typefuse_json::ParserOptions;
use typefuse_types::{ArrayType, Field, Name, RecordType, Type};

/// The name table is cleared when it holds this many names.
pub const NAMES_MAX: usize = 4096;
/// Keys longer than this many bytes are typed but never kept.
pub const NAME_BYTES_MAX: usize = 256;

/// What an [`Observer`] is told about one value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fact {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool,
    /// A number, as the `f64` the parser's `Number` converts to.
    Num(f64),
    /// A string, with its *unescaped* length in bytes.
    Str(u64),
    /// An array, with its element count.
    Array(u64),
    /// An object, with its key count.
    Record(u64),
}

/// A consumer of per-value facts along [`Typer::type_line`]'s walk.
/// Nodes are the observer's own handles: the walk asks for the node of
/// each key and element before walking the value there, and reports one
/// fact per value once the value is complete (children first). A walk
/// that ends in `None` has reported a prefix of the facts; the observer
/// must be able to forget them.
pub trait Observer {
    /// The node of `key` under the object at `parent`.
    fn kid(&mut self, parent: u32, key: &str) -> u32;
    /// The node of the elements of the array at `parent`.
    fn elem(&mut self, parent: u32) -> u32;
    /// The value at `node` is complete.
    fn fact(&mut self, node: u32, fact: Fact);
}

/// Observe nothing: plain typing.
impl Observer for () {
    #[inline]
    fn kid(&mut self, _: u32, _: &str) -> u32 {
        0
    }
    #[inline]
    fn elem(&mut self, _: u32) -> u32 {
        0
    }
    #[inline]
    fn fact(&mut self, _: u32, _: Fact) {}
}

/// Reusable scratch for [`type_line`](Self::type_line): keep one per
/// partition, split or source. What it keeps between lines is a table of
/// recent key names, so a key seen before costs a reference count, not
/// an allocation. [`NAMES_MAX`] and [`NAME_BYTES_MAX`] bound it to about
/// 1 MiB whatever the input; no type depends on it.
#[derive(Debug, Clone, Default)]
pub struct Typer {
    /// The name table, from the typer's second line on: a one-shot typer
    /// never builds it and pays one fresh name per key, no more. Its keys
    /// come from the input, so it keeps std's randomly keyed hasher: a
    /// crafted set of colliding keys cannot turn each lookup into a scan.
    names: Option<HashSet<Name>>,
    /// Completed fields of every open object, innermost last.
    fields: Vec<Field>,
    /// Completed element types of every open array, innermost last.
    elems: Vec<Type>,
    pos: usize,
    max_depth: usize,
    events: u64,
    frames: u64,
}

impl Typer {
    /// Type one complete JSON text (surrounding whitespace allowed) with
    /// at most `max_depth` nested containers — never more than
    /// [`ParserOptions::MAX_DEPTH_LIMIT`] — reporting to `obs` from
    /// its node `root`. See the [module docs](self) for what `Some` and
    /// `None` promise.
    pub fn type_line<O: Observer>(
        &mut self,
        line: &[u8],
        max_depth: usize,
        obs: &mut O,
        root: u32,
    ) -> Option<Type> {
        let ty = self.walk(line, max_depth, obs, root);
        self.names.get_or_insert_with(HashSet::default);
        ty
    }

    fn walk<O: Observer>(
        &mut self,
        line: &[u8],
        max_depth: usize,
        obs: &mut O,
        root: u32,
    ) -> Option<Type> {
        // A declined line leaves its completed prefix on the stacks.
        self.fields.clear();
        self.elems.clear();
        let max_depth = max_depth.min(ParserOptions::MAX_DEPTH_LIMIT);
        (self.pos, self.max_depth, self.events, self.frames) = (0, max_depth, 0, 0);
        self.skip_ws(line);
        let ty = self.value(line, 0, obs, root)?;
        self.skip_ws(line);
        (self.pos == line.len()).then_some(ty)
    }

    /// Events the pull parser would have emitted for the line just typed
    /// (`infer.events`).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Deepest container nesting of the line just typed (`infer.frames`).
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Names the table holds now: never more than [`NAMES_MAX`].
    pub fn names_held(&self) -> usize {
        self.names.as_ref().map_or(0, HashSet::len)
    }

    /// The shared name of `key`: the table's if it has one, else a new
    /// one, kept unless the key is too long.
    fn name(&mut self, key: &str) -> Name {
        let Some(names) = &mut self.names else {
            return Name::from(key);
        };
        if let Some(name) = names.get(key) {
            return Arc::clone(name);
        }
        let name = Name::from(key);
        if key.len() <= NAME_BYTES_MAX {
            if names.len() == NAMES_MAX {
                names.clear();
            }
            names.insert(Arc::clone(&name));
        }
        name
    }

    #[inline]
    fn skip_ws(&mut self, s: &[u8]) {
        while let Some(b' ' | b'\t' | b'\r' | b'\n') = s.get(self.pos) {
            self.pos += 1;
        }
    }

    /// Type the value the cursor is on, inside `depth` open containers.
    fn value<O: Observer>(
        &mut self,
        s: &[u8],
        depth: usize,
        obs: &mut O,
        node: u32,
    ) -> Option<Type> {
        let rest = s.get(self.pos..)?;
        let (ty, fact) = match *rest.first()? {
            b'"' => {
                let string = scan_string(s, self.pos + 1)?;
                self.pos = string.end;
                (Type::Str, Fact::Str(string.unescaped_len))
            }
            b'{' => {
                let record = self.object(s, depth + 1, obs, node)?;
                let width = record.len() as u64;
                (Type::Record(record), Fact::Record(width))
            }
            b'[' => {
                let elems = self.array(s, depth + 1, obs, node)?;
                let len = elems.len() as u64;
                (Type::Array(ArrayType::new(elems)), Fact::Array(len))
            }
            b'-' | b'0'..=b'9' => {
                let (end, value) = scan_number(s, self.pos)?;
                self.pos = end;
                (Type::Num, Fact::Num(value))
            }
            b'n' if rest.starts_with(b"null") => {
                self.pos += 4;
                (Type::Null, Fact::Null)
            }
            b't' if rest.starts_with(b"true") => {
                self.pos += 4;
                (Type::Bool, Fact::Bool)
            }
            b'f' if rest.starts_with(b"false") => {
                self.pos += 5;
                (Type::Bool, Fact::Bool)
            }
            _ => return None,
        };
        self.events += 1;
        obs.fact(node, fact);
        Some(ty)
    }

    /// The `depth`-th nested container opens, if the limit allows: count
    /// its start event and its frame, and step over the bracket.
    fn open(&mut self, depth: usize) -> Option<()> {
        if depth > self.max_depth {
            return None;
        }
        self.events += 1;
        self.frames = self.frames.max(depth as u64);
        self.pos += 1;
        Some(())
    }

    /// The cursor is on `{`.
    fn object<O: Observer>(
        &mut self,
        s: &[u8],
        depth: usize,
        obs: &mut O,
        node: u32,
    ) -> Option<RecordType> {
        self.open(depth)?;
        let start = self.fields.len();
        self.skip_ws(s);
        if s.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Some(RecordType::empty());
        }
        loop {
            if s.get(self.pos) != Some(&b'"') {
                return None;
            }
            let key = scan_string_grammar(s, self.pos + 1)?;
            if key.escaped {
                return None;
            }
            let key_text = std::str::from_utf8(&s[self.pos + 1..key.end - 1]).ok()?;
            let name = self.name(key_text);
            self.pos = key.end;
            self.skip_ws(s);
            if s.get(self.pos) != Some(&b':') {
                return None;
            }
            self.pos += 1;
            self.skip_ws(s);
            self.events += 1;
            let kid = obs.kid(node, &name);
            let ty = self.value(s, depth, obs, kid)?;
            self.fields.push(Field::required(name, ty));
            self.skip_ws(s);
            match *s.get(self.pos)? {
                // A `}` after the comma fails the next round's key test.
                b',' => {
                    self.pos += 1;
                    self.skip_ws(s);
                }
                b'}' => {
                    self.pos += 1;
                    break;
                }
                _ => return None,
            }
        }
        // Keys are unique iff they are strictly ascending once sorted, so
        // the sort a record type needs anyway is the duplicate check.
        self.fields[start..].sort_unstable_by(|a, b| a.name.cmp(&b.name));
        RecordType::from_sorted(self.fields.drain(start..).collect()).ok()
    }

    /// The cursor is on `[`.
    fn array<O: Observer>(
        &mut self,
        s: &[u8],
        depth: usize,
        obs: &mut O,
        node: u32,
    ) -> Option<Vec<Type>> {
        self.open(depth)?;
        let start = self.elems.len();
        self.skip_ws(s);
        if s.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Some(Vec::new());
        }
        loop {
            let elem = obs.elem(node);
            // A `]` after a comma is no value: declined there.
            let ty = self.value(s, depth, obs, elem)?;
            self.elems.push(ty);
            self.skip_ws(s);
            match *s.get(self.pos)? {
                b',' => {
                    self.pos += 1;
                    self.skip_ws(s);
                }
                b']' => {
                    self.pos += 1;
                    break;
                }
                _ => return None,
            }
        }
        Some(self.elems.drain(start..).collect())
    }
}

/// One scanned string token.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StringScan {
    /// Index just past the closing quote.
    pub(crate) end: usize,
    /// Byte length of the text the escapes stand for.
    pub(crate) unescaped_len: u64,
    escaped: bool,
    non_ascii: bool,
}

/// Scan the string whose opening quote sits just before `at`: exactly
/// the parser's acceptance — no raw control bytes, only legal escapes
/// with surrogate pairing, valid UTF-8. Validating the raw bytes equals
/// validating the unescaped text, because escape sequences are ASCII and
/// stand for whole characters at character boundaries.
pub(crate) fn scan_string(s: &[u8], at: usize) -> Option<StringScan> {
    let string = scan_string_grammar(s, at)?;
    if string.non_ascii {
        std::str::from_utf8(&s[at..string.end - 1]).ok()?;
    }
    Some(string)
}

/// [`scan_string`] without the UTF-8 check (a key's `&str` makes it).
fn scan_string_grammar(s: &[u8], at: usize) -> Option<StringScan> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let mut i = at;
    // Bytes the escapes take beyond the text they stand for.
    let mut shrink = 0usize;
    let mut non_ascii = 0u64;
    loop {
        // Skip clean words: no quote, no backslash, no control byte. The
        // subtract-based detectors can borrow across lanes, but only
        // above a true positive, so the lowest set bit is exact.
        while let Some(word) = s.get(i..i + 8) {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            let control = w.wrapping_sub(ONES * 0x20) & !w & HIGH;
            let q = w ^ (ONES * u64::from(b'"'));
            let b = w ^ (ONES * u64::from(b'\\'));
            let stop = control | ((q.wrapping_sub(ONES) & !q) | (b.wrapping_sub(ONES) & !b)) & HIGH;
            if stop != 0 {
                let clean = stop.trailing_zeros() as usize / 8;
                non_ascii |= w & ((1u64 << (8 * clean)) - 1);
                i += clean;
                break;
            }
            non_ascii |= w;
            i += 8;
        }
        match *s.get(i)? {
            b'"' => {
                return Some(StringScan {
                    end: i + 1,
                    unescaped_len: (i - at - shrink) as u64,
                    escaped: shrink > 0,
                    non_ascii: non_ascii & HIGH != 0,
                })
            }
            b'\\' => match *s.get(i + 1)? {
                b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => {
                    shrink += 1;
                    i += 2;
                }
                b'u' => match hex4(s, i + 2)? {
                    // A high surrogate needs its `\u`-escaped low half.
                    0xD800..=0xDBFF => {
                        if s.get(i + 6..i + 8) != Some(b"\\u") {
                            return None;
                        }
                        if !(0xDC00..=0xDFFF).contains(&hex4(s, i + 8)?) {
                            return None;
                        }
                        shrink += 8;
                        i += 12;
                    }
                    0xDC00..=0xDFFF => return None,
                    cp => {
                        let ch = char::from_u32(cp).expect("not a surrogate");
                        shrink += 6 - ch.len_utf8();
                        i += 6;
                    }
                },
                _ => return None,
            },
            0x00..=0x1f => return None,
            b => {
                non_ascii |= u64::from(b);
                i += 1;
            }
        }
    }
}

fn hex4(s: &[u8], at: usize) -> Option<u32> {
    s.get(at..at + 4)?
        .iter()
        .try_fold(0u32, |cp, &b| Some(cp * 16 + char::from(b).to_digit(16)?))
}

/// Scan the number token starting at `at`: the strict RFC 8259 grammar,
/// and `parse_decimal`'s range for every token that is not an integer of
/// at most 18 bytes (which always fits an `i64`). Returns the index just
/// past the token and the value as `Number::as_f64` would give it.
pub(crate) fn scan_number(s: &[u8], at: usize) -> Option<(usize, f64)> {
    let digits = |mut i: usize| {
        while matches!(s.get(i), Some(b'0'..=b'9')) {
            i += 1;
        }
        i
    };
    let negative = s.get(at) == Some(&b'-');
    let int_start = at + usize::from(negative);
    // A digit after a leading `0` ends the token here and fails whatever
    // the caller expects next, which is all `01` needs.
    let mut i = match *s.get(int_start)? {
        b'0' => int_start + 1,
        b'1'..=b'9' => digits(int_start + 1),
        _ => return None,
    };
    let int_end = i;
    if s.get(i) == Some(&b'.') {
        i = digits(i + 1);
        if i == int_end + 1 {
            return None;
        }
    }
    if matches!(s.get(i), Some(b'e' | b'E')) {
        let exp_start = i + 1 + usize::from(matches!(s.get(i + 1), Some(b'+' | b'-')));
        i = digits(exp_start);
        if i == exp_start {
            return None;
        }
    }
    let value = if i == int_end && i - at <= 18 {
        let magnitude = s[int_start..i]
            .iter()
            .fold(0i64, |n, d| n * 10 + i64::from(d - b'0'));
        (if negative { -magnitude } else { magnitude }) as f64
    } else {
        let text = std::str::from_utf8(&s[at..i]).expect("number grammar is ASCII");
        parse_decimal(text)?.as_f64()
    };
    Some((i, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::event_fold;

    fn typed(text: &str) -> Option<Type> {
        Typer::default().type_line(text.as_bytes(), 512, &mut (), 0)
    }

    fn reference(text: &str) -> Option<Type> {
        event_fold(text.as_bytes(), &Default::default()).ok()
    }

    #[test]
    fn types_what_the_event_fold_types() {
        for text in [
            "null",
            " 0 ",
            r#""s""#,
            "{}",
            "[ ]",
            r#"{"b": 1, "a": ["x", {"c": null}], "d": {"e": [[true, false]]}}"#,
            "\t[1, \"a\", {\"k\": []}]\r\n",
            r#"{"é": "\u00e9\ud83d\ude00\n"}"#,
            "-0",
            "1e308",
            "123456789012345678",
            "12345678901234567890",
        ] {
            assert_eq!(typed(text), reference(text), "for {text}");
            assert!(typed(text).is_some(), "for {text}");
        }
    }

    #[test]
    fn declines_what_it_does_not_settle() {
        for text in [
            "",
            "  ",
            "{oops",
            "[1,]",
            r#"{"a":1,}"#,
            "{} trailing",
            r#"{"a":1,"a":2}"#,
            "{\"\\u0061\": 1}",
            "01",
            "1e309",
            "-",
            "nul",
            "nullx",
            r#""\ud800""#,
            r#""\ude00""#,
            "\"a\u{1}b\"",
            "\"\u{7f}\"x",
        ] {
            assert_eq!(typed(text), None, "for {text:?}");
        }
        assert_eq!(
            typed("\"\u{7f}\""),
            Some(Type::Str),
            "0x7f is not a control byte here"
        );
        assert_eq!(
            Typer::default().type_line(b"\"\xff\"", 512, &mut (), 0),
            None
        );
    }

    #[test]
    fn depth_limit_is_the_parsers() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let mut typer = Typer::default();
        assert!(typer.type_line(nest(8).as_bytes(), 8, &mut (), 0).is_some());
        assert_eq!(typer.frames(), 8);
        assert_eq!(typer.events(), 16);
        assert_eq!(typer.type_line(nest(9).as_bytes(), 8, &mut (), 0), None);
        // A declined line leaves nothing behind for the next one.
        assert_eq!(typer.type_line(b"[[1, 2], [3,", 8, &mut (), 0), None);
        assert_eq!(
            typer.type_line(b"[4]", 8, &mut (), 0).unwrap().to_string(),
            "[Num]"
        );
    }

    #[test]
    fn vectors_are_exactly_sized() {
        let Some(Type::Record(record)) = typed(r#"{"a":[1,2,3],"b":{"c":1,"d":2,"e":3}}"#) else {
            panic!("a record");
        };
        let fields = record.into_fields();
        assert_eq!(fields.capacity(), 2);
        let Type::Array(a) = &fields[0].ty else {
            panic!("an array")
        };
        assert_eq!(a.clone().into_elems().len(), 3);
    }

    /// An observer that writes its facts down.
    #[derive(Default)]
    struct Log(Vec<String>);

    impl Observer for Log {
        fn kid(&mut self, parent: u32, key: &str) -> u32 {
            self.0.push(format!("kid {parent} {key}"));
            parent + 1
        }
        fn elem(&mut self, parent: u32) -> u32 {
            self.0.push(format!("elem {parent}"));
            parent + 10
        }
        fn fact(&mut self, node: u32, fact: Fact) {
            self.0.push(format!("{node} {fact:?}"));
        }
    }

    #[test]
    fn observer_sees_children_first_and_unescaped_lengths() {
        let mut log = Log::default();
        let text = r#"{"a": [-0, 2.5], "s": "x\n\u00e9\ud83d\ude00é"}"#;
        Typer::default()
            .type_line(text.as_bytes(), 512, &mut log, 0)
            .unwrap();
        assert_eq!(
            log.0,
            [
                "kid 0 a",
                "elem 1",
                "11 Num(0.0)",
                "elem 1",
                "11 Num(2.5)",
                "1 Array(2)",
                "kid 0 s",
                "1 Str(10)",
                "0 Record(2)",
            ]
        );
    }
}
