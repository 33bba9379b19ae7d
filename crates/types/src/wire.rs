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

use crate::ty::{ArrayType, Field, RecordType, Type};

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
    let ty = parse_type_at(bytes, &mut pos)?;
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(ty)
}

fn parse_type_at(bytes: &[u8], pos: &mut usize) -> Result<Type, String> {
    let lead = *bytes
        .get(*pos)
        .ok_or_else(|| format!("unexpected end of wire type at offset {pos}", pos = *pos))?;
    *pos += 1;
    match lead {
        b'_' => Ok(Type::Bottom),
        b'n' => Ok(Type::Null),
        b'b' => Ok(Type::Bool),
        b'm' => Ok(Type::Num),
        b's' => Ok(Type::Str),
        b'{' => {
            let mut fields = Vec::new();
            loop {
                match bytes.get(*pos) {
                    Some(b'}') => {
                        *pos += 1;
                        break;
                    }
                    Some(&card @ (b'!' | b'?')) => {
                        *pos += 1;
                        let name = parse_name(bytes, pos)?;
                        let ty = parse_type_at(bytes, pos)?;
                        fields.push(if card == b'?' {
                            Field::optional(name, ty)
                        } else {
                            Field::required(name, ty)
                        });
                    }
                    Some(other) => {
                        return Err(format!("bad field lead byte 0x{other:02x} at {}", *pos))
                    }
                    None => return Err("unterminated record".to_string()),
                }
            }
            // Fields were written in stored order, which is strictly
            // sorted; `from_sorted` re-verifies in O(n).
            RecordType::from_sorted(fields)
                .map(Type::Record)
                .map_err(|e| format!("bad record: {e}"))
        }
        b'[' => {
            let mut elems = Vec::new();
            loop {
                match bytes.get(*pos) {
                    Some(b']') => {
                        *pos += 1;
                        break;
                    }
                    Some(_) => elems.push(parse_type_at(bytes, pos)?),
                    None => return Err("unterminated array".to_string()),
                }
            }
            Ok(Type::Array(ArrayType::new(elems)))
        }
        b'*' => Ok(Type::star(parse_type_at(bytes, pos)?)),
        b'(' => {
            let mut addends = Vec::new();
            loop {
                match bytes.get(*pos) {
                    Some(b')') => {
                        *pos += 1;
                        break;
                    }
                    Some(_) => addends.push(parse_type_at(bytes, pos)?),
                    None => return Err("unterminated union".to_string()),
                }
            }
            // `Type::union` re-establishes the flat/kind-unique/sorted
            // invariants; a valid encoding reconstructs identically.
            Type::union(addends).map_err(|e| format!("bad union: {e}"))
        }
        other => Err(format!(
            "bad type lead byte 0x{other:02x} at offset {}",
            *pos - 1
        )),
    }
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
    let end = *pos + len;
    if end > bytes.len() {
        return Err("field name runs past end of input".to_string());
    }
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
        }
    }
}
