//! A parser for the schema notation printed by [`crate::print`].
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! type    := term ('+' term)*
//! term    := 'Null' | 'Bool' | 'Num' | 'Str' | 'ε' | 'Empty'
//!          | record | array | '(' type ')'
//! record  := '{' (field (',' field)*)? '}'
//! field   := key ':' type '?'?
//! key     := identifier | json-string
//! array   := '[' ']'                      empty positional array
//!          | '[' type '*' ']'             starred array
//!          | '[' '(' type ')' '*' ']'     starred array, union body
//!          | '[' type (',' type)* ']'     positional array
//! ```
//!
//! `parse_type ∘ to_string` is the identity on normal types, except that
//! `[ε*]` prints as `[]` and therefore re-parses as the (semantically
//! equal) empty positional array type — tested in the crate's round-trip
//! suite. Unions are normalised through [`Type::union`], so a kind clash
//! in the input (e.g. `Str + Str` is fine, but `{} + {a: Num}` is not) is
//! reported as an error. Schemas arrive from files and sockets, so the
//! parser is total: containers nest at most [`MAX_NESTING`] deep, and
//! deeper input is a [`NotationError::Syntax`], not a stack overflow.

use crate::ty::{Field, Name, RecordType, Type, TypeError};
use crate::wire::MAX_NESTING;
use std::fmt;

/// Errors from the notation parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NotationError {
    /// Unexpected character or end of input, with byte offset.
    Syntax {
        /// Byte offset of the problem.
        offset: usize,
        /// Human-readable description.
        message: String,
    },
    /// The parsed union or record violates the type invariants.
    Invalid(TypeError),
}

impl fmt::Display for NotationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NotationError::Syntax { offset, message } => {
                write!(f, "{message} at byte {offset}")
            }
            NotationError::Invalid(e) => write!(f, "invalid type: {e}"),
        }
    }
}

impl std::error::Error for NotationError {}

impl From<TypeError> for NotationError {
    fn from(e: TypeError) -> Self {
        NotationError::Invalid(e)
    }
}

/// Parse a type from the paper's notation.
///
/// ```
/// use typefuse_types::parse_type;
/// let t = parse_type("{a: Str?, b: Num + Bool}").unwrap();
/// assert_eq!(t.to_string(), "{a: Str?, b: Bool + Num}");
/// ```
pub fn parse_type(input: &str) -> Result<Type, NotationError> {
    let mut p = Cursor {
        input,
        pos: 0,
        depth: 0,
    };
    let t = p.parse_union()?;
    p.skip_ws();
    if p.pos < p.input.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(t)
}

struct Cursor<'a> {
    input: &'a str,
    pos: usize,
    /// Unions being parsed: one per open `{`, `[` or `(`, plus the
    /// outermost.
    depth: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, message: &str) -> NotationError {
        NotationError::Syntax {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn too_deep(&self) -> NotationError {
        self.err(&format!("schema nests deeper than {MAX_NESTING} levels"))
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn skip_ws(&mut self) {
        let trimmed = self.rest().trim_start();
        self.pos = self.input.len() - trimmed.len();
    }

    fn eat(&mut self, c: char) -> bool {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += c.len_utf8();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), NotationError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{c}`")))
        }
    }

    fn eat_word(&mut self, word: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(word) {
            // The next char must not extend the identifier.
            let after = self.rest()[word.len()..].chars().next();
            if !matches!(after, Some(c) if c.is_ascii_alphanumeric() || c == '_') {
                self.pos += word.len();
                return true;
            }
        }
        false
    }

    /// Every nested type is a union, so the nesting limit is checked
    /// here. An error ends the whole parse, so only success unwinds
    /// `depth`.
    fn parse_union(&mut self) -> Result<Type, NotationError> {
        if self.depth == MAX_NESTING {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let mut addends = Vec::new();
        loop {
            addends.push(self.parse_term()?);
            if !self.eat('+') {
                break;
            }
        }
        self.depth -= 1;
        union_of(addends)
    }

    // The recursive productions keep their frames small (scalars and
    // error text are built in leaf calls), so `MAX_NESTING` levels fit a
    // 2 MiB thread in a debug build.
    fn parse_term(&mut self) -> Result<Type, NotationError> {
        self.skip_ws();
        match self.peek() {
            Some('{') => self.parse_record(),
            Some('[') => self.parse_array(),
            Some('(') => self.parse_group(),
            _ => self.parse_scalar(),
        }
    }

    fn parse_group(&mut self) -> Result<Type, NotationError> {
        self.expect('(')?;
        let t = self.parse_union();
        t.and_then(|t| self.expect(')').map(|()| t))
    }

    fn parse_scalar(&mut self) -> Result<Type, NotationError> {
        if self.eat_word("Null") {
            return Ok(Type::Null);
        }
        if self.eat_word("Bool") || self.eat_word("Boolean") {
            return Ok(Type::Bool);
        }
        if self.eat_word("Num") || self.eat_word("Number") {
            return Ok(Type::Num);
        }
        if self.eat_word("Str") || self.eat_word("String") {
            return Ok(Type::Str);
        }
        if self.eat_word("Empty") || self.eat('ε') {
            return Ok(Type::Bottom);
        }
        match self.peek() {
            Some(_) => Err(self.err("expected a type")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_record(&mut self) -> Result<Type, NotationError> {
        self.expect('{')?;
        let mut fields = Vec::new();
        while !self.eat('}') {
            let name = self.parse_field_name(fields.is_empty())?;
            let ty = self.parse_union()?;
            fields.push(Field {
                name,
                ty,
                optional: self.eat('?'),
            });
        }
        Ok(Type::Record(RecordType::new(fields)?))
    }

    /// `key ':'`, after a `,` unless it is the first field.
    fn parse_field_name(&mut self, first: bool) -> Result<Name, NotationError> {
        if !first && !self.eat(',') {
            return Err(self.err("expected `}`"));
        }
        let name = self.parse_key()?;
        self.expect(':')?;
        Ok(name)
    }

    fn parse_key(&mut self) -> Result<Name, NotationError> {
        self.skip_ws();
        match self.peek() {
            Some('"') => self.parse_quoted_key(),
            Some(c) if c.is_ascii_alphabetic() || c == '_' || c == '$' => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(c) if c.is_ascii_alphanumeric() || c == '_' || c == '$' || c == '-'
                ) {
                    self.pos += 1;
                }
                Ok(self.input[start..self.pos].into())
            }
            _ => Err(self.err("expected a field key")),
        }
    }

    fn parse_quoted_key(&mut self) -> Result<Name, NotationError> {
        let rest = self.rest();
        // A key with no escape and no control character is its own text.
        let body = &rest[1..];
        if let Some(end) = body.find(|c: char| c == '"' || c == '\\' || c < ' ') {
            if body.as_bytes()[end] == b'"' {
                self.pos += end + 2;
                return Ok(body[..end].into());
            }
        }
        // Delegate the rest to the JSON string parser for full escape support.
        let mut parser = typefuse_json::Parser::new(rest.as_bytes());
        match parser.parse_one() {
            Ok(typefuse_json::Value::String(s)) => {
                self.pos += parser.position().offset;
                Ok(s.into())
            }
            _ => Err(self.err("invalid quoted key")),
        }
    }

    fn parse_array(&mut self) -> Result<Type, NotationError> {
        self.expect('[')?;
        if self.eat(']') {
            return Ok(Type::empty_array());
        }
        let mut elems = Vec::new();
        loop {
            elems.push(self.parse_union()?);
            if !self.eat(',') {
                break;
            }
        }
        self.close_array(elems)
    }

    /// `*]` after a single element, else `]`.
    fn close_array(&mut self, mut elems: Vec<Type>) -> Result<Type, NotationError> {
        if elems.len() == 1 && self.eat('*') {
            self.expect(']')?;
            return Ok(Type::star(elems.pop().expect("one element")));
        }
        self.expect(']')?;
        Ok(Type::Array(crate::ty::ArrayType::new(elems)))
    }
}

fn union_of(mut addends: Vec<Type>) -> Result<Type, NotationError> {
    if addends.len() == 1 {
        Ok(addends.pop().expect("one addend"))
    } else {
        Ok(Type::union(addends)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ty::{ArrayType, RecordBuilder};

    fn round_trip(text: &str) {
        let t = parse_type(text).unwrap();
        assert_eq!(t.to_string(), text, "print(parse({text:?}))");
        // And idempotent: parse(print(t)) == t.
        assert_eq!(parse_type(&t.to_string()).unwrap(), t);
    }

    #[test]
    fn scalars_and_aliases() {
        assert_eq!(parse_type("Null").unwrap(), Type::Null);
        assert_eq!(parse_type("Boolean").unwrap(), Type::Bool);
        assert_eq!(parse_type("Number").unwrap(), Type::Num);
        assert_eq!(parse_type("String").unwrap(), Type::Str);
        assert_eq!(parse_type("ε").unwrap(), Type::Bottom);
        assert_eq!(parse_type("Empty").unwrap(), Type::Bottom);
    }

    #[test]
    fn records() {
        let t = parse_type("{a: Str?, b: Num + Bool}").unwrap();
        let expected = RecordBuilder::new()
            .optional("a", Type::Str)
            .required("b", Type::Num.plus(Type::Bool))
            .into_type();
        assert_eq!(t, expected);
    }

    #[test]
    fn arrays() {
        assert_eq!(parse_type("[]").unwrap(), Type::empty_array());
        assert_eq!(parse_type("[Num*]").unwrap(), Type::star(Type::Num));
        assert_eq!(
            parse_type("[Str, Num]").unwrap(),
            Type::Array(ArrayType::new(vec![Type::Str, Type::Num]))
        );
        assert_eq!(
            parse_type("[(Str + Num)*]").unwrap(),
            Type::star(Type::Str.plus(Type::Num))
        );
    }

    #[test]
    fn quoted_keys() {
        let t = parse_type(r#"{"has space": Num, "é": Str}"#).unwrap();
        match t {
            Type::Record(rt) => {
                assert!(rt.field("has space").is_some());
                assert!(rt.field("é").is_some());
            }
            other => panic!("expected record, got {other}"),
        }
    }

    #[test]
    fn round_trips() {
        for text in [
            "Null",
            "{}",
            "[]",
            "[Num*]",
            "{a: Str?, b: Bool + Num, c: {d: [Null*]}?}",
            "[Str, Num, {x: Bool}]",
            "[(Null + Bool + Num + Str + {} + [])*]",
            "{\"1\": Num}",
            "{\"\": Bool, \"a\\\"b\": Num, \"café\": Str, \"has space\": Null}",
        ] {
            round_trip(text);
        }
    }

    #[test]
    fn union_normalisation_on_parse() {
        // Printed sorted by kind regardless of input order; duplicates fold.
        assert_eq!(
            parse_type("Str + Null + Str").unwrap().to_string(),
            "Null + Str"
        );
    }

    #[test]
    fn errors() {
        assert!(matches!(parse_type(""), Err(NotationError::Syntax { .. })));
        assert!(matches!(
            parse_type("{a Num}"),
            Err(NotationError::Syntax { .. })
        ));
        assert!(matches!(
            parse_type("{a: Num"),
            Err(NotationError::Syntax { .. })
        ));
        assert!(matches!(
            parse_type("Num Str"),
            Err(NotationError::Syntax { .. })
        ));
        assert!(matches!(
            parse_type("[Num*"),
            Err(NotationError::Syntax { .. })
        ));
        assert!(matches!(
            parse_type("{a: Num, a: Str}"),
            Err(NotationError::Invalid(TypeError::DuplicateField(_)))
        ));
        assert!(matches!(
            parse_type("{} + {a: Num}"),
            Err(NotationError::Invalid(TypeError::KindClash(_)))
        ));
    }

    #[test]
    fn keyword_prefix_keys_parse() {
        // `Null`-prefixed identifiers must not be eaten as the keyword.
        let t = parse_type("{Nullable: Num}").unwrap();
        assert_eq!(t.to_string(), "{Nullable: Num}");
    }
}
