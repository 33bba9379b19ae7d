//! The decoders that read schemas and envelopes back from files and
//! sockets are total: any input is a value or an `Err`, never a panic
//! or a stack overflow. (The wire decoder and the checkpoint readers
//! are held to the same law in `typefuse-infer`'s `acc_laws`; the serve
//! request parser in its own module's tests.)

use proptest::prelude::*;
use typefuse_infer::{fuse, infer_type};
use typefuse_json::{parse_envelope, parse_value, ParserOptions, Value};
use typefuse_types::parse_type;
use typefuse_types::testkit::arb_type;
use typefuse_types::wire::MAX_NESTING;

/// Text drawn from the notation's own tokens, so most draws reach deep
/// into the grammar before they go wrong.
fn arb_notation() -> impl Strategy<Value = String> {
    let tokens = r#"{|}|[|]|(|)|*|+|,|:|?|"|\| |a|Num|Str|Null|Boolean|ε|é|"k"|"\u00e9""#;
    let tokens: Vec<&str> = tokens.split('|').collect();
    prop::collection::vec(prop::sample::select(tokens), 0..48).prop_map(|t| t.concat())
}

/// Non-empty `text` with the byte at `at` replaced, when the result is
/// still a string.
fn mutate(text: &str, at: prop::sample::Index, byte: u8) -> Option<String> {
    let mut bytes = text.as_bytes().to_vec();
    let at = at.index(bytes.len());
    bytes[at] = byte;
    String::from_utf8(bytes).ok()
}

/// One printable ASCII byte or one byte of the notation's non-ASCII
/// spellings, so a mutant is usually still UTF-8.
fn arb_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        0x20u8..0x7f,
        prop::sample::select(vec![0u8, b'\n', 0xce, 0xb5])
    ]
}

proptest! {
    #[test]
    fn parse_type_is_total_on_token_soup(text in arb_notation()) {
        let _ = parse_type(&text);
    }

    #[test]
    fn parse_type_is_total_on_arbitrary_text(text in "\\PC{0,40}") {
        let _ = parse_type(&text);
    }

    #[test]
    fn parse_type_is_total_on_one_byte_mutations(
        ty in arb_type(),
        at in any::<prop::sample::Index>(),
        byte in arb_byte(),
    ) {
        if let Some(text) = mutate(&ty.to_string(), at, byte) {
            let _ = parse_type(&text);
        }
    }

    #[test]
    fn parse_envelope_is_total(
        ty in arb_type(),
        at in any::<prop::sample::Index>(),
        byte in arb_byte(),
        noise in "\\PC{0,40}",
    ) {
        let payload = typefuse_json::to_string(&Value::String(ty.to_string()));
        let text = format!(r#"{{"schema_version":1,"kind":"schema","payload":{payload}}}"#);
        prop_assert_eq!(parse_envelope(&text).map(|e| e.kind), Ok("schema".to_string()));
        if let Some(mutant) = mutate(&text, at, byte) {
            let _ = parse_envelope(&mutant);
        }
        let _ = parse_envelope(&noise);
    }
}

/// Every nested type is a union, so `MAX_NESTING - 1` containers inside
/// the outermost union are the deepest input that parses; one more is a
/// syntax error, not a stack overflow.
#[test]
fn nesting_is_capped_not_a_stack_overflow() {
    for (open, close) in [("[", "]"), ("{a: ", "}"), ("(", ")"), ("[(", ")*]")] {
        let nest = |n: usize| open.repeat(n) + "Num" + &close.repeat(n);
        let err = parse_type(&nest(20_000)).unwrap_err().to_string();
        let limit = format!("deeper than {MAX_NESTING} levels");
        assert!(err.contains(&limit), "{open}: {err}");
        let per_level = if open == "[(" { 2 } else { 1 };
        let edge = (MAX_NESTING - 1) / per_level;
        assert!(parse_type(&nest(edge)).is_ok(), "{open}");
        assert!(parse_type(&nest(edge + 1)).is_err(), "{open}");
    }
}

/// The deepest record the JSON parser admits, each level an array that
/// fuses to `[(… + Num)*]`: the notation nests two levels per JSON level,
/// the most any fused schema can, and still re-parses on a test thread.
#[test]
fn the_schema_of_the_deepest_admitted_record_reparses() {
    let depth = ParserOptions::MAX_DEPTH_LIMIT;
    let text = "[".repeat(depth - 1) + "{}" + &",1]".repeat(depth - 1);
    let ty = infer_type(&parse_value(&text).expect("within the depth limit"));
    let fused = fuse(&ty, &ty);
    assert_eq!(fused.depth(), depth);
    let printed = fused.to_string();
    assert!(
        printed.starts_with("[(Num + [(Num + "),
        "{}",
        &printed[..40]
    );
    assert_eq!(parse_type(&printed).expect("re-parses"), fused);
}
