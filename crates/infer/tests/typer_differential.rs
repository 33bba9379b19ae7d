//! The direct typer against its reference, the event fold.
//!
//! `Typer::type_line` may decline (`None`) whatever it likes, but where
//! it answers, the answer is the event fold's; and `infer_with_options`
//! — typer first, event fold as replay — is indistinguishable from the
//! pure event fold: the same type, the same error (kind and span), the
//! same recorder counters. On generated texts, on the same texts broken
//! by a few bytes, and on a hand list of everything the grammar forbids.

use proptest::prelude::*;
use typefuse_infer::streaming::{event_fold, infer_with_options, infer_with_options_recorded};
use typefuse_infer::Typer;
use typefuse_json::events::{Event, EventParser};
use typefuse_json::{to_string, to_string_pretty, ParserOptions};
use typefuse_obs::Recorder;
use typefuse_types::testkit::arb_value;
use typefuse_types::Type;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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
