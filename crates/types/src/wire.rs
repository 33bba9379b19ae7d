//! Exact, self-delimiting wire encoding for [`Type`].
//!
//! The human notation ([`crate::notation`]) is *canonical up to
//! semantic equivalence*, not injective: `[ε*]` (the collapse of the
//! empty array) and `[]` (the empty positional array type) both print
//! as `[]`. A batch report never cares, but a crash-safe service does —
//! a checkpointed running schema must reload as the *same
//! representation*, or the next fusion steps could diverge from the
//! uninterrupted run. This module is the lossless twin of the notation:
//! every constructor gets its own production, so
//! `from_wire(to_wire(t)) == t` structurally, for every `t` (property
//! tested).
//!
//! Grammar (byte-oriented, no whitespace, field names length-prefixed
//! so no escaping is ever needed):
//!
//! ```text
//! type   := '_'                    ε (Bottom)
//!         | 'n' | 'b' | 'm' | 's'  Null, Bool, Num, Str
//!         | '{' field* '}'         record, fields in stored (sorted) order
//!         | '[' type* ']'          positional array
//!         | '*' type               simplified array [T*]
//!         | '(' type type+ ')'     union, addends in stored (kind) order
//! field  := ('!' | '?') len '=' name-bytes type      ! mandatory, ? optional
//! len    := decimal byte length of name
//! ```
//!
//! The decoder reads bytes from disk (checkpoints), so it is total: any
//! input is a type or an `Err`, never a panic. Its recursion is bounded
//! by [`MAX_NESTING`].

use crate::ty::{ArrayType, Field, RecordType, Type};
use typefuse_json::ParserOptions;

/// The deepest nesting of productions [`from_wire`] decodes: two per
/// container level the parser admits, plus two for the leaf. Every
/// schema fused from admitted input fits (`ParserOptions::MAX_DEPTH_LIMIT`
/// explains why); anything deeper is an `Err`, not a stack overflow.
pub const MAX_NESTING: usize = 2 * (ParserOptions::MAX_DEPTH_LIMIT + 1);

/// Serialize a type losslessly. See the [module docs](self) for the
/// grammar.
pub fn to_wire(ty: &Type) -> String {
    let mut out = String::new();
    write_type(ty, &mut out);
    out
}

fn write_type(ty: &Type, out: &mut String) {
    match ty {
        Type::Bottom => out.push('_'),
        Type::Null => out.push('n'),
        Type::Bool => out.push('b'),
        Type::Num => out.push('m'),
        Type::Str => out.push('s'),
        Type::Record(rt) => {
            out.push('{');
            for field in rt.fields() {
                out.push(if field.optional { '?' } else { '!' });
                out.push_str(&field.name.len().to_string());
                out.push('=');
                out.push_str(&field.name);
                write_type(&field.ty, out);
            }
            out.push('}');
        }
        Type::Array(at) => {
            out.push('[');
            for elem in at.elems() {
                write_type(elem, out);
            }
            out.push(']');
        }
        Type::Star(body) => {
            out.push('*');
            write_type(body, out);
        }
        Type::Union(u) => {
            out.push('(');
            for addend in u.addends() {
                write_type(addend, out);
            }
            out.push(')');
        }
    }
}

/// Parse a wire-encoded type back to the exact [`Type`] it came from.
pub fn from_wire(text: &str) -> Result<Type, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let ty = parse_type_at(bytes, &mut pos, 1)?;
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(ty)
}

// Recursion is one small frame per production plus one per container,
// so `MAX_NESTING` levels fit a 2 MiB thread in a debug build; error
// text is formatted in `error`, never in these frames.
fn parse_type_at(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Type, String> {
    let at = *pos;
    if depth > MAX_NESTING {
        return Err(error("wire type nests too deep", at));
    }
    let lead = *bytes
        .get(at)
        .ok_or_else(|| error("unexpected end of wire type", at))?;
    *pos += 1;
    match lead {
        b'_' => Ok(Type::Bottom),
        b'n' => Ok(Type::Null),
        b'b' => Ok(Type::Bool),
        b'm' => Ok(Type::Num),
        b's' => Ok(Type::Str),
        b'*' => parse_type_at(bytes, pos, depth + 1).map(Type::star),
        b'{' => parse_record(bytes, pos, depth),
        b'[' => parse_seq(bytes, pos, depth, b']').map(|elems| Type::Array(ArrayType::new(elems))),
        // `Type::union` re-establishes the flat/kind-unique/sorted
        // invariants; a valid encoding reconstructs identically.
        b'(' => parse_seq(bytes, pos, depth, b')')
            .and_then(|addends| Type::union(addends).map_err(|e| format!("bad union: {e}"))),
        _ => Err(error("bad type lead byte", at)),
    }
}

/// Array elements or union addends, up to the `close` byte.
fn parse_seq(bytes: &[u8], pos: &mut usize, depth: usize, close: u8) -> Result<Vec<Type>, String> {
    let mut items = Vec::new();
    loop {
        match bytes.get(*pos) {
            Some(&next) if next == close => {
                *pos += 1;
                return Ok(items);
            }
            Some(_) => items.push(parse_type_at(bytes, pos, depth + 1)?),
            None => return Err(error("unterminated array or union", *pos)),
        }
    }
}

fn parse_record(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Type, String> {
    let mut fields = Vec::new();
    loop {
        let optional = match bytes.get(*pos) {
            Some(b'}') => break,
            Some(b'?') => true,
            Some(b'!') => false,
            Some(_) => return Err(error("bad field lead byte", *pos)),
            None => return Err(error("unterminated record", *pos)),
        };
        *pos += 1;
        let name = parse_name(bytes, pos)?;
        let ty = parse_type_at(bytes, pos, depth + 1)?;
        fields.push(match optional {
            true => Field::optional(name, ty),
            false => Field::required(name, ty),
        });
    }
    *pos += 1;
    // Fields were written in stored order, which is strictly sorted;
    // `from_sorted` re-verifies in O(n).
    RecordType::from_sorted(fields)
        .map(Type::Record)
        .map_err(|e| format!("bad record: {e}"))
}

#[cold]
fn error(what: &str, at: usize) -> String {
    format!("{what} at offset {at}")
}

fn parse_name<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<&'a str, String> {
    let start = *pos;
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    let len: usize = std::str::from_utf8(&bytes[start..*pos])
        .expect("digits are UTF-8")
        .parse()
        .map_err(|_| format!("missing field-name length at offset {start}"))?;
    if bytes.get(*pos) != Some(&b'=') {
        return Err(format!("expected `=` after name length at offset {}", *pos));
    }
    *pos += 1;
    let end = pos
        .checked_add(len)
        .filter(|&end| end <= bytes.len())
        .ok_or("field name runs past end of input")?;
    let name = std::str::from_utf8(&bytes[*pos..end])
        .map_err(|_| "field name is not valid UTF-8".to_string())?;
    *pos = end;
    Ok(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RecordBuilder;

    #[test]
    fn scalars_round_trip() {
        for ty in [Type::Bottom, Type::Null, Type::Bool, Type::Num, Type::Str] {
            assert_eq!(from_wire(&to_wire(&ty)).unwrap(), ty);
        }
    }

    #[test]
    fn star_bottom_and_empty_array_stay_distinct() {
        let star = Type::star(Type::Bottom);
        let empty = Type::Array(ArrayType::empty());
        // The human notation collapses these to the same "[]" —
        // precisely why the wire codec exists.
        assert_eq!(star.to_string(), empty.to_string());
        assert_ne!(to_wire(&star), to_wire(&empty));
        assert_eq!(from_wire(&to_wire(&star)).unwrap(), star);
        assert_eq!(from_wire(&to_wire(&empty)).unwrap(), empty);
    }

    #[test]
    fn records_unions_and_nesting_round_trip() {
        let ty = RecordBuilder::new()
            .required("id", Type::Num)
            .optional("tags", Type::star(Type::Str))
            .required(
                "meta",
                RecordBuilder::new()
                    .optional("深い", Type::union([Type::Null, Type::Num]).unwrap())
                    .into_type(),
            )
            .into_type();
        let wire = to_wire(&ty);
        assert_eq!(from_wire(&wire).unwrap(), ty);
    }

    #[test]
    fn field_names_with_grammar_bytes_round_trip() {
        // Length-prefixing means names never need escaping, even when
        // they contain the grammar's own bytes.
        let ty = RecordBuilder::new()
            .required("a{]}=*!?(3=x", Type::Bool)
            .into_type();
        assert_eq!(from_wire(&to_wire(&ty)).unwrap(), ty);
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in ["", "z", "{", "{!3=abn", "[", "(", "*", "{x", "nn", "{!9=a}"] {
            assert!(from_wire(bad).is_err(), "{bad:?} should fail");
        }
        // A name length that overflows the offset arithmetic.
        assert!(from_wire("{!18446744073709551615=").is_err());
        assert!(from_wire("{!99999999999999999999999=").is_err());
    }

    /// A union of `Num` and an array of the level below, `levels` deep
    /// over `Bool + Str`: two productions per level plus two for the
    /// leaf, the most a schema fused from `levels`-deep input can nest.
    fn widest_nesting(levels: usize) -> Type {
        let leaf = Type::union([Type::Bool, Type::Str]).unwrap();
        (0..levels).fold(leaf, |t, _| {
            Type::union([Type::Num, Type::star(t)]).unwrap()
        })
    }

    #[test]
    fn nesting_is_bounded_where_fused_schemas_end() {
        let limit = ParserOptions::MAX_DEPTH_LIMIT;
        let deepest = widest_nesting(limit);
        assert_eq!(from_wire(&to_wire(&deepest)).unwrap(), deepest);
        assert!(from_wire(&to_wire(&widest_nesting(limit + 1))).is_err());
        for (open, close) in [("[", "]"), ("*", "m"), ("{!1=a", "}")] {
            let hostile = format!("{}{}", open.repeat(200_000), close.repeat(200_000));
            let err = from_wire(&hostile).unwrap_err();
            assert!(err.contains("nests too deep"), "{err}");
        }
    }

    mod props {
        use super::*;
        use crate::testkit::arb_type;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn wire_round_trip_is_exact(ty in arb_type()) {
                let wire = to_wire(&ty);
                prop_assert_eq!(from_wire(&wire).unwrap(), ty);
            }

            // Total: arbitrary bytes, and an encoding with bytes
            // overwritten, inserted or cut, decode or fail — never panic.
            #[test]
            fn decoding_is_total(
                junk in prop::collection::vec(any::<u8>(), 0..64),
                ty in arb_type(),
                edits in prop::collection::vec(
                    (any::<prop::sample::Index>(), any::<u8>(), 0u8..3),
                    1..4,
                ),
            ) {
                let _ = from_wire(&String::from_utf8_lossy(&junk));
                let mut bytes = to_wire(&ty).into_bytes();
                for (at, byte, op) in edits {
                    let at = at.index(bytes.len() + 1);
                    match op {
                        0 if at < bytes.len() => bytes[at] = byte,
                        1 => bytes.insert(at, byte),
                        _ => bytes.truncate(at),
                    }
                }
                let _ = from_wire(&String::from_utf8_lossy(&bytes));
            }
        }
    }
}
