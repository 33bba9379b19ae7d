//! The direct typer against its reference, the event fold.
//!
//! `Typer::type_line` may decline (`None`) whatever it likes, but where
//! it answers, the answer is the event fold's; and `infer_with_options`
//! — typer first, event fold as replay — is indistinguishable from the
//! pure event fold: the same type, the same error (kind and span), the
//! same recorder counters. On generated texts, on the same texts broken
//! by a few bytes, and on a hand list of everything the grammar forbids.
//! A typer kept across lines — its table of recent key names warm, full,
//! cleared — answers what a fresh one does.

use proptest::prelude::*;
use std::sync::Arc;
use typefuse_infer::streaming::{
    event_fold, infer_line, infer_with_options, infer_with_options_recorded,
};
use typefuse_infer::typer::{NAMES_MAX, NAME_BYTES_MAX};
use typefuse_infer::{infer_type, Typer};
use typefuse_json::events::{Event, EventParser};
use typefuse_json::{parse_value, to_string, to_string_pretty, ParserOptions};
use typefuse_obs::Recorder;
use typefuse_types::testkit::arb_value;
use typefuse_types::{Field, Type};

fn options(allow_duplicate_keys: bool, max_depth: usize) -> ParserOptions {
    ParserOptions {
        max_depth,
        allow_duplicate_keys,
    }
}

/// `(infer.events, infer.frames)` of a well-formed input, counted off
/// the pull parser itself.
fn event_counts(input: &[u8], options: &ParserOptions) -> (u64, u64) {
    let (mut events, mut depth, mut peak) = (0u64, 0u64, 0u64);
    for event in EventParser::with_options(input, options.clone()) {
        events += 1;
        match event.expect("a well-formed input") {
            Event::ObjectStart | Event::ArrayStart => {
                depth += 1;
                peak = peak.max(depth);
            }
            Event::ObjectEnd | Event::ArrayEnd => depth -= 1,
            _ => {}
        }
    }
    (events, peak)
}

/// Every promise at once, for one input under one set of options.
/// Returns whether the typer answered.
fn check(input: &[u8], options: &ParserOptions) -> std::result::Result<bool, TestCaseError> {
    // The pure event fold: what `infer_with_options` was before the typer.
    let reference = event_fold(input, options);
    let typed = Typer::default().type_line(input, options.max_depth, &mut (), 0);
    if let Some(ty) = &typed {
        prop_assert_eq!(Ok(ty), reference.as_ref(), "typer answered on {:?}", input);
    }
    prop_assert_eq!(
        &infer_with_options(input, options.clone()),
        &reference,
        "type or error (kind, span) on {:?}",
        input
    );

    let rec = Recorder::enabled();
    let recorded = infer_with_options_recorded(input, options.clone(), &rec);
    prop_assert_eq!(&recorded, &reference);
    let report = rec.snapshot();
    match &reference {
        Err(_) => prop_assert!(report.counters.is_empty(), "a bad line counts nothing"),
        Ok(ty) => {
            let (events, frames) = event_counts(input, options);
            prop_assert_eq!(report.counters["infer.events"], events, "on {:?}", input);
            prop_assert_eq!(report.histograms["infer.frames"].sum, frames);
            prop_assert_eq!(report.counters["infer.types"], 1);
            prop_assert_eq!(report.gauges["infer.max_depth"], ty.depth() as u64);
            let width = report.histograms.get("infer.record_width").map(|h| h.sum);
            let expected = match ty {
                Type::Record(r) => Some(r.len() as u64),
                _ => None,
            };
            prop_assert_eq!(width, expected);
        }
    }
    Ok(typed.is_some())
}

/// [`check`] under strict and lenient keys, at the default depth and a
/// shallow one.
fn check_all(input: &[u8]) -> std::result::Result<(), TestCaseError> {
    for lenient in [false, true] {
        for max_depth in [512, 3] {
            check(input, &options(lenient, max_depth))?;
        }
    }
    Ok(())
}

/// A byte likelier than chance to matter to the grammar.
fn arb_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        1 => any::<u8>(),
        3 => prop::sample::select(b"\"\\{}[],:01289eE.+-utfn \t\n\r\x00\x1f\x7f\x80\xc3\xff".to_vec()),
    ]
}

#[derive(Debug, Clone)]
enum Edit {
    Replace(prop::sample::Index, u8),
    Insert(prop::sample::Index, u8),
    Remove(prop::sample::Index),
    Truncate(prop::sample::Index),
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (any::<prop::sample::Index>(), arb_byte()).prop_map(|(i, b)| Edit::Replace(i, b)),
        (any::<prop::sample::Index>(), arb_byte()).prop_map(|(i, b)| Edit::Insert(i, b)),
        any::<prop::sample::Index>().prop_map(Edit::Remove),
        any::<prop::sample::Index>().prop_map(Edit::Truncate),
    ]
}

fn apply(mut text: Vec<u8>, edits: &[Edit]) -> Vec<u8> {
    for edit in edits {
        let len = text.len();
        match *edit {
            Edit::Insert(at, byte) => text.insert(at.index(len + 1), byte),
            _ if len == 0 => {}
            Edit::Replace(at, byte) => text[at.index(len)] = byte,
            Edit::Remove(at) => drop(text.remove(at.index(len))),
            Edit::Truncate(at) => text.truncate(at.index(len)),
        }
    }
    text
}

/// A key as it is written in the text: an id drawn from three times as
/// many as the name table holds, one around the length cap, non-ASCII,
/// escaped, or the one key likely to repeat within an object.
fn arb_key_text() -> impl Strategy<Value = String> {
    prop_oneof![
        8 => (0..3 * NAMES_MAX).prop_map(|id| format!("id{id}")),
        1 => (NAME_BYTES_MAX - 2..NAME_BYTES_MAX + 40).prop_map(|n| "k".repeat(n)),
        1 => prop::sample::select(vec!["é", "日本", "ключ", "a\u{1F600}b"]).prop_map(String::from),
        1 => prop::sample::select(vec![r"\u0061", r#"a\"b"#, r"\n", r"\u00e9", r"\ud83d\ude00"])
            .prop_map(String::from),
        1 => Just("dup".to_string()),
    ]
}

/// A well-formed JSON text over [`arb_key_text`] keys.
fn arb_text() -> impl Strategy<Value = String> {
    let leaf = prop::sample::select(vec!["1", "-2.5e3", "\"s\"", "null", "true", "[]", "{}"])
        .prop_map(String::from);
    leaf.prop_recursive(3, 0, 0, |inner| {
        let field = (arb_key_text(), inner.clone()).prop_map(|(k, v)| format!("\"{k}\":{v}"));
        prop_oneof![
            3 => prop::collection::vec(field, 0..6).prop_map(|f| format!("{{{}}}", f.join(","))),
            1 => prop::collection::vec(inner, 0..4).prop_map(|e| format!("[{}]", e.join(","))),
        ]
    })
}

/// An object of `n` id keys from `from` on, each bound to its id.
fn ids_line(from: usize, n: usize) -> String {
    let keys: Vec<String> = (from..from + n)
        .map(|id| format!("\"id{id}\":{id}"))
        .collect();
    format!("{{{}}}", keys.join(","))
}

/// One line of a stream: a text, a run of ids, or a malformed line the
/// typer declines and the replay refuses.
fn arb_stream_line() -> impl Strategy<Value = String> {
    prop_oneof![
        8 => arb_text(),
        2 => (0..3 * NAMES_MAX, 0..256usize).prop_map(|(from, n)| ids_line(from, n)),
        2 => arb_text().prop_map(|t| format!("{t},")),
        1 => arb_text().prop_map(|t| format!("{{\"a\":{t}")),
    ]
}

/// A typer that has seen two and a half times as many distinct ids as
/// its table holds, in lines of 1 000 — cleared twice, mid-line, and 64
/// names short of clearing again — each line typed as the value tree
/// types it.
fn warm_typer() -> &'static Typer {
    static WARM: std::sync::OnceLock<Typer> = std::sync::OnceLock::new();
    WARM.get_or_init(|| {
        let seen = 3 * NAMES_MAX - 64;
        let mut typer = running_typer();
        for from in (0..seen).step_by(1_000) {
            let line = ids_line(3 * NAMES_MAX + from, (seen - from).min(1_000));
            let ty = typer.type_line(line.as_bytes(), 512, &mut (), 0);
            assert_eq!(ty, Some(infer_type(&parse_value(&line).unwrap())));
        }
        assert_eq!(typer.names_held(), NAMES_MAX - 64);
        typer
    })
}

/// One typer across `lines`, starting from [`warm_typer`]'s, so the
/// stream clears its table again: each line is typed exactly as the
/// event fold and the value tree type it, or refused as the event fold
/// refuses it, and the table never holds more than its bound.
fn check_stream(lines: &[String], options: &ParserOptions) -> Result<(), TestCaseError> {
    let mut typer = warm_typer().clone();
    for line in lines {
        let reference = event_fold(line.as_bytes(), options);
        let by_value = parse_value(line).map(|v| infer_type(&v));
        if !options.allow_duplicate_keys {
            prop_assert_eq!(
                reference.as_ref().ok(),
                by_value.as_ref().ok(),
                "on {}",
                line
            );
        }
        if let Some(ty) = typer.type_line(line.as_bytes(), options.max_depth, &mut (), 0) {
            prop_assert_eq!(Ok(&ty), reference.as_ref(), "typer answered on {}", line);
        }
        let typed = infer_line(&mut typer, line.as_bytes(), options, &Recorder::disabled());
        prop_assert_eq!(&typed, &reference, "type or error on {}", line);
        prop_assert!(typer.names_held() <= NAMES_MAX);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // A stream through one typer: ids past the table's bound, keys past
    // its length cap, non-ASCII, escaped and duplicate keys, declined
    // lines between typed ones.
    #[test]
    fn a_warm_typer_types_what_the_references_type(
        lines in prop::collection::vec(arb_stream_line(), 1..8)
    ) {
        for lenient in [false, true] {
            check_stream(&lines, &options(lenient, 512))?;
        }
    }

    // Well-formed, plain-keyed texts: the typer must answer (or the fast
    // path is not one), and answer what the event fold answers.
    #[test]
    fn generated_texts_are_typed_identically(v in arb_value()) {
        for text in [to_string(&v), to_string_pretty(&v)] {
            for lenient in [false, true] {
                let answered = check(text.as_bytes(), &options(lenient, 512))?;
                prop_assert!(answered, "declined the well-formed {}", text);
            }
            check(text.as_bytes(), &options(false, 3))?;
        }
    }

    // The same texts a few bytes off: mostly malformed, sometimes still
    // well-formed, now and then an escaped or a duplicate key.
    #[test]
    fn broken_texts_fail_identically(
        v in arb_value(),
        pretty in any::<bool>(),
        edits in prop::collection::vec(arb_edit(), 1..=3),
    ) {
        let text = if pretty { to_string_pretty(&v) } else { to_string(&v) };
        check_all(&apply(text.into_bytes(), &edits))?;
    }

    // Totality: bytes that were never JSON. No panic, and still the
    // event fold's verdict.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(arb_byte(), 0..64)) {
        check_all(&bytes)?;
    }
}

/// Everything the grammar forbids or the typer leaves to the replay,
/// beside its well-formed neighbours, one text per line: escaped and
/// duplicate keys, depth 3 and 4, numbers at every edge, every escape,
/// surrogates, control bytes, broken UTF-8, literals, structure,
/// trailing characters. CI feeds the same file to the CLI's routes.
const HAND_LIST: &[u8] = include_bytes!("fixtures/hand_list.ndjson");

/// What that file cannot hold: texts with newlines in them, and a text
/// the event and tree parsers refuse for different reasons (the first
/// stops at the duplicate key, the second at the trailing comma), over
/// which CI could not diff the two routes' quarantine files.
const OFF_FILE: &[&[u8]] = &[
    br#"{"a": 1, "a": [1,]}"#,
    b"\n",
    b" \t\r\n",
    b" \n{\"a\" : [ 1 , \"x\" ] }\r\n",
    b"[1,\n2\n]\n",
    b"[1,\n2\n]\nx",
];

#[test]
fn hand_list_is_typed_or_refused_identically() {
    let lines: Vec<&[u8]> = HAND_LIST.split(|&b| b == b'\n').collect();
    assert!(lines.len() > 100, "the fixture is read whole");
    for input in lines.iter().chain(OFF_FILE) {
        check_all(input).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn the_typer_declines_exactly_what_it_should() {
    let typed = |input: &[u8], lenient: bool| {
        Typer::default()
            .type_line(input, 512, &mut (), 0)
            .or_else(|| {
                // Declined: the replay settles it.
                event_fold(input, &options(lenient, 512)).ok()
            })
            .map(|ty| ty.to_string())
    };
    // An escaped key unescapes to a duplicate: strict refuses, lenient
    // keeps the last binding.
    let input = br#"{"a": 1, "\u0061": "x"}"#;
    assert_eq!(typed(input, false), None);
    assert_eq!(typed(input, true).as_deref(), Some("{a: Str}"));
    // A plain duplicate is declined under either option.
    let input = br#"{"a": 1, "a": "x"}"#;
    assert_eq!(Typer::default().type_line(input, 512, &mut (), 0), None);
    assert_eq!(typed(input, true).as_deref(), Some("{a: Str}"));
}

/// 10 000 arbitrary byte strings: no panic, and time linear in the
/// input — a string of nothing but openers, quotes or backslashes costs
/// per byte what a short one does.
#[test]
fn totality_and_linear_time() {
    let mut rng = proptest::test_runner::rng_for_test("totality_and_linear_time");
    let lines = prop::collection::vec(arb_byte(), 0..48);
    let mut typer = Typer::default();
    let mut answered = 0;
    for _ in 0..10_000 {
        let bytes = lines.sample(&mut rng);
        let typed = typer.type_line(&bytes, 512, &mut (), 0);
        assert_eq!(
            typed.is_some(),
            event_fold(&bytes, &options(false, 512)).is_ok()
        );
        answered += usize::from(typed.is_some());
    }
    assert!(answered > 0, "the generator never produced JSON");

    // Pathological shapes, each 1 MB: one pass, not one pass per byte.
    let n = 1 << 20;
    let wide = format!("[{}1]", "1,".repeat(n / 2));
    let long_string = format!("\"{}\"", "\\\\".repeat(n / 2));
    let many_keys = format!(
        "{{{}\"z\":1}}",
        (0..n / 16)
            .map(|i| format!("\"k{i:08}\":1,"))
            .collect::<String>()
    );
    let start = std::time::Instant::now();
    for (text, ok) in [
        ("[".repeat(n), false),
        ("{\"a\":".repeat(n / 5), false),
        ("\"".repeat(n), false),
        ("\\".repeat(n), false),
        (wide, true),
        (long_string, true),
        (many_keys, true),
    ] {
        let typed = typer.type_line(text.as_bytes(), 512, &mut (), 0);
        assert_eq!(typed.is_some(), ok, "{}…", &text[..16]);
    }
    assert!(
        start.elapsed() < std::time::Duration::from_secs(20),
        "7 MB took {:?}: not linear",
        start.elapsed()
    );
}

/// A typer past its first line: its table is on. (A typer keeps no
/// name from its first line, so a one-shot typer never builds a table.)
fn running_typer() -> Typer {
    let mut typer = Typer::default();
    typer
        .type_line(br#"{"first": 1}"#, 512, &mut (), 0)
        .unwrap();
    assert_eq!(typer.names_held(), 0, "nothing kept from the first line");
    typer
}

fn field<'a>(ty: &'a Type, key: &str) -> &'a Field {
    let Type::Record(r) = ty else {
        panic!("a record: {ty}")
    };
    r.field(key).expect("the key")
}

#[test]
fn a_key_seen_before_is_shared_not_copied() {
    let mut typer = running_typer();
    let first = typer
        .type_line(br#"{"login": 1, "id": 2}"#, 512, &mut (), 0)
        .unwrap();
    let second = typer
        .type_line(br#"{"id": [{"login": null}]}"#, 512, &mut (), 0)
        .unwrap();
    let id = &field(&second, "id");
    assert!(Arc::ptr_eq(&field(&first, "id").name, &id.name));
    let Type::Array(inner) = &id.ty else {
        panic!("an array")
    };
    let login = &field(&inner.elems()[0], "login").name;
    assert!(Arc::ptr_eq(&field(&first, "login").name, login));
    // A fresh typer shares nothing with it.
    let cold = Typer::default()
        .type_line(br#"{"id": 3}"#, 512, &mut (), 0)
        .unwrap();
    assert!(!Arc::ptr_eq(
        &field(&first, "id").name,
        &field(&cold, "id").name
    ));
}

#[test]
fn a_key_past_the_length_cap_is_typed_but_not_kept() {
    let mut typer = Typer::default();
    typer.type_line(br#"{"a": 1}"#, 512, &mut (), 0).unwrap();
    let key = "k".repeat(1 << 20);
    let line = format!("{{\"{key}\": 1, \"a\": 2}}");
    let ty = typer.type_line(line.as_bytes(), 512, &mut (), 0).unwrap();
    assert_eq!(
        Ok(&ty),
        event_fold(line.as_bytes(), &options(false, 512)).as_ref()
    );
    assert_eq!(typer.names_held(), 1, "only `a`");
    let again = typer.type_line(line.as_bytes(), 512, &mut (), 0).unwrap();
    assert!(!Arc::ptr_eq(
        &field(&ty, &key).name,
        &field(&again, &key).name
    ));
    let cap = "k".repeat(NAME_BYTES_MAX);
    typer
        .type_line(format!("{{\"{cap}\": 1}}").as_bytes(), 512, &mut (), 0)
        .unwrap();
    assert_eq!(typer.names_held(), 2, "a key of exactly the cap is kept");
}

#[test]
fn the_table_never_holds_more_than_its_bound() {
    let mut typer = running_typer();
    for from in (0..10_000).step_by(1_000) {
        let line = ids_line(from, 1_000);
        let ty = typer.type_line(line.as_bytes(), 512, &mut (), 0).unwrap();
        assert_eq!(ty, infer_type(&parse_value(&line).unwrap()));
        assert!(typer.names_held() <= NAMES_MAX, "{}", typer.names_held());
    }
    // 10 000 distinct keys: cleared twice, at 4 096 and at 8 192.
    assert_eq!(typer.names_held(), 10_000 - 2 * NAMES_MAX);
}
