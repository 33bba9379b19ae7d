//! Property tests for the profiling accumulator's monoid laws.
//!
//! The profiler rides the same parallel reduce as fusion, so its merge
//! must satisfy the same algebra (the profile analogue of Theorems
//! 5.4/5.5), and the two Map routes must observe identically:
//!
//! * **commutativity** — `merge(a, b) = merge(b, a)`;
//! * **associativity** — `merge(merge(a, b), c) = merge(a, merge(b, c))`;
//! * **identity** — merging an empty accumulator changes nothing;
//! * **partition invariance** — any split of the input into contiguous
//!   partitions, merged in any association, equals sequential
//!   absorption (this is what makes provenance lines exact under
//!   `--workers N`);
//! * **route equivalence** — the text walk (the direct typer with the
//!   trie as its observer) and the tree walk produce byte-identical
//!   profiles for the same lines, whatever way their strings, numbers
//!   and keys are spelled.
//!
//! Equality is checked on the finished [`ProfileReport`] (structural)
//! and on its serialized JSON (byte-level, what CI diffs).

use proptest::prelude::*;
use typefuse_infer::{ProfileAcc, ProfileReport};
use typefuse_json::Value;
use typefuse_types::testkit::arb_value;
use typefuse_types::Type;

/// A string body out of every way to spell a character.
fn arb_spelled_string() -> impl Strategy<Value = String> {
    let pieces = vec![
        "a",
        "xyz",
        " ",
        "/",
        "é",
        "€",
        "😀",
        "caffè",
        r#"\""#,
        r"\\",
        r"\/",
        r"\b",
        r"\f",
        r"\n",
        r"\r",
        r"\t",
        r"\u0041",
        r"\u00e9",
        r"\u00E9",
        r"\u20ac",
        r"\uffff",
        r"\u0000",
        r"\u001f",
        r"\ud83d\ude00",
        r"\uD83D\uDE00",
        r"\udbff\udfff",
        "12345678",
        "1234567",
    ];
    prop::collection::vec(prop::sample::select(pieces), 0..7).prop_map(|p| p.concat())
}

/// One record's text: spelled strings and edge-case numbers under plain,
/// nested and (sometimes) escaped keys.
fn arb_spelled_record() -> impl Strategy<Value = String> {
    let numbers = vec![
        "0",
        "-0",
        "-0.0",
        "7",
        "-12",
        "2.5",
        "1e3",
        "1E-3",
        "-1.5e+10",
        "1e308",
        "5e-324",
        "123456789012345678",
        "-12345678901234567",
        "-123456789012345678",
        "1234567890123456789",
        "9223372036854775807",
        "9223372036854775808",
        "-9223372036854775808",
        "12345678901234567890",
        "0.1",
        "100000000000000000000000",
    ];
    let keys = vec!["k", "k2", r"\u006b3", r"k\n", "é"];
    (
        arb_spelled_string(),
        prop::sample::select(numbers.clone()),
        arb_spelled_string(),
        prop::sample::select(numbers),
        prop::sample::select(keys),
        arb_spelled_string(),
    )
        .prop_map(|(s, n, e, m, key, v)| {
            format!(
                r#"{{"s": "{s}", "n": {n}, "arr": ["{e}", {m}, {{"in": "{s}"}}], "{key}": "{v}"}}"#
            )
        })
}

/// Observe `values` as records numbered from `first_line`.
fn acc_from(first_line: u64, values: &[Value]) -> ProfileAcc {
    let mut acc = ProfileAcc::new();
    for (i, v) in values.iter().enumerate() {
        acc.observe_value(first_line + i as u64, v);
    }
    acc
}

/// The tree walk over one line's text, as the value routes observe it.
fn observe_as_value(acc: &mut ProfileAcc, line: u64, text: &str) {
    let value = typefuse_json::parse_value(text).expect("well-formed");
    acc.observe_value(line, &value);
}

fn merged(a: &ProfileAcc, b: &ProfileAcc) -> ProfileAcc {
    let mut out = a.clone();
    out.merge(b);
    out
}

/// The report, beside no schema: the schema is the record fold's.
fn finish(acc: &ProfileAcc) -> ProfileReport {
    acc.clone().finish(Type::Bottom)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn merge_is_commutative(
        a in prop::collection::vec(arb_value(), 0..8),
        b in prop::collection::vec(arb_value(), 0..8),
    ) {
        // Distinct line ranges, as partitions of one input would have.
        let a = acc_from(1, &a);
        let b = acc_from(100, &b);
        let ab = finish(&merged(&a, &b));
        let ba = finish(&merged(&b, &a));
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.to_json(), ba.to_json());
    }

    #[test]
    fn merge_is_associative(
        a in prop::collection::vec(arb_value(), 0..6),
        b in prop::collection::vec(arb_value(), 0..6),
        c in prop::collection::vec(arb_value(), 0..6),
    ) {
        let a = acc_from(1, &a);
        let b = acc_from(100, &b);
        let c = acc_from(200, &c);
        let left = finish(&merged(&merged(&a, &b), &c));
        let right = finish(&merged(&a, &merged(&b, &c)));
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(left.to_json(), right.to_json());
    }

    #[test]
    fn empty_acc_is_identity(values in prop::collection::vec(arb_value(), 0..8)) {
        let acc = acc_from(1, &values);
        let empty = ProfileAcc::new();
        prop_assert_eq!(finish(&merged(&acc, &empty)), finish(&acc));
        prop_assert_eq!(finish(&merged(&empty, &acc)), finish(&acc));
    }

    #[test]
    fn partitioned_merge_equals_sequential(
        values in prop::collection::vec(arb_value(), 1..14),
        raw_splits in prop::collection::vec(0usize..14, 0..3),
    ) {
        let sequential = finish(&acc_from(1, &values));
        // Split the record stream at arbitrary (deduped, sorted)
        // boundaries, preserving each record's global line number.
        let mut splits: Vec<usize> = raw_splits
            .into_iter()
            .map(|s| s % (values.len() + 1))
            .collect();
        splits.sort_unstable();
        splits.dedup();
        splits.push(values.len());
        let mut parts: Vec<ProfileAcc> = Vec::new();
        let mut start = 0usize;
        for end in splits {
            if end > start {
                parts.push(acc_from(start as u64 + 1, &values[start..end]));
                start = end;
            }
        }
        let mut combined = ProfileAcc::new();
        for part in &parts {
            combined.merge(part);
        }
        let combined = finish(&combined);
        prop_assert_eq!(&combined, &sequential);
        prop_assert_eq!(combined.to_json(), sequential.to_json());
    }

    #[test]
    fn event_and_value_routes_produce_identical_profiles(
        values in prop::collection::vec(arb_value(), 1..10),
    ) {
        let mut via_events = ProfileAcc::new();
        let mut via_values = ProfileAcc::new();
        for (i, v) in values.iter().enumerate() {
            let line = i as u64 + 1;
            let text = v.to_string();
            via_events.absorb_line(line, &text);
            observe_as_value(&mut via_values, line, &text);
        }
        let a = finish(&via_events);
        let b = finish(&via_values);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.to_json(), b.to_json());
    }

    // The spellings a serializer never picks: every escape form (a
    // string's length is its *unescaped* one), numbers at the edges of
    // the integer fast path, keys the typer declines.
    #[test]
    fn text_walk_matches_tree_walk_on_every_spelling(
        lines in prop::collection::vec(arb_spelled_record(), 1..6),
    ) {
        let mut via_text = ProfileAcc::new();
        let mut via_values = ProfileAcc::new();
        for (i, text) in lines.iter().enumerate() {
            let line = i as u64 + 1;
            via_text.absorb_line(line, text);
            observe_as_value(&mut via_values, line, text);
        }
        prop_assert_eq!(via_text.records(), lines.len() as u64, "all well-formed: {:?}", lines);
        prop_assert!(via_text == via_values);
        prop_assert_eq!(
            via_text.checkpoint_value().to_string(),
            via_values.checkpoint_value().to_string()
        );
        prop_assert_eq!(finish(&via_text).to_json(), finish(&via_values).to_json());
    }

    // What a profiled fold fuses is what the text walk hands back.
    #[test]
    fn profiled_schema_matches_plain_fusion(
        values in prop::collection::vec(arb_value(), 1..10),
    ) {
        use typefuse_infer::{fuse_all, infer_type};
        let types: Vec<_> = values.iter().map(infer_type).collect();
        let options = typefuse_json::ParserOptions::default();
        let mut acc = ProfileAcc::new();
        let observed: Vec<_> = (1..)
            .zip(&values)
            .map(|(line, v)| acc.observe_line(line, v.to_string().as_bytes(), &options).unwrap())
            .collect();
        prop_assert_eq!(fuse_all(&observed), fuse_all(&types));
        prop_assert_eq!(finish(&acc).records, values.len() as u64);
    }
}

/// The text walk declines a duplicate key; under lenient options the
/// replay settles last-wins through the value walk.
#[test]
fn lenient_duplicate_keys_are_folded_not_a_panic() {
    let options = typefuse_json::ParserOptions {
        allow_duplicate_keys: true,
        ..Default::default()
    };
    let mut acc = ProfileAcc::new();
    let ty = acc
        .observe_line(1, br#"{"a": 1, "a": "x"}"#, &options)
        .unwrap();
    assert_eq!(ty.to_string(), "{a: Str}");
    assert_eq!(finish(&acc).get("$.a").unwrap().count, 1);
}

/// Every strict prefix of a record fails to parse somewhere mid-stream —
/// after the observer has walked (and, for new keys, grown) part of the
/// trie. None of it may stay behind.
#[test]
fn a_record_that_fails_mid_stream_leaves_the_accumulator_untouched() {
    let options = typefuse_json::ParserOptions::default();
    let record = r#"{"id": 7, "user": {"name": "x", "tags": ["a", {"k": null}], "geo": {"lat": 1.5}}, "new": {"deep": [[1, {}]]}, "id.x": []}"#;
    // Cold, then warm on a record that knows `id`, `user.name` and
    // `user.tags` but none of `user.tags[]`, `user.geo`, `new`, `id.x`.
    for warm in [
        None,
        Some(r#"{"id": 1, "user": {"name": "y", "tags": []}}"#),
    ] {
        let mut acc = ProfileAcc::new();
        if let Some(line) = warm {
            acc.absorb_line(1, line);
        }
        let mut clean = acc.clone();
        for cut in 0..record.len() {
            // Cut short there, and whole but for a control byte there.
            let mut spoiled = record.as_bytes().to_vec();
            spoiled[cut] = 0x01;
            for bad in [&record.as_bytes()[..cut], &spoiled[..]] {
                let before = acc.clone();
                let outcome = acc.observe_line(9, bad, &options);
                assert!(outcome.is_err(), "broken at byte {cut}, yet parsed");
                assert!(acc == before, "broken at byte {cut}: left a trace");
                assert_eq!(
                    acc.checkpoint_value().to_string(),
                    before.checkpoint_value().to_string(),
                    "broken at byte {cut}"
                );
            }
        }
        // Nor does a failure change what the next good record does.
        acc.absorb_line(9, record);
        clean.absorb_line(9, record);
        assert!(acc == clean);
        assert_eq!(finish(&acc).to_json(), finish(&clean).to_json());
    }
}

/// A node is its *rendered* path: the key `a.b` under `$` and the key
/// `b` under `$.a` are one line of the report, as are the key `x[]` and
/// the elements of `x`. Every route has to alias them the same way.
#[test]
fn keys_that_render_like_nested_paths_alias_identically_on_every_route() {
    let lines = [
        r#"{"a.b": 1, "a": {"b": 2}}"#,
        r#"{"x[]": 1, "x": [2]}"#,
        r#"{"a": {"b": "s"}, "x": []}"#,
        r#"{"a.b": null, "x[]": {"y": true}, "x": [{"y": 1}, {}]}"#,
    ];
    let fold = |range: std::ops::Range<usize>, events: bool| {
        let mut acc = ProfileAcc::new();
        for i in range {
            match events {
                true => acc.absorb_line(i as u64 + 1, lines[i]),
                false => observe_as_value(&mut acc, i as u64 + 1, lines[i]),
            }
        }
        acc
    };
    let via_events = fold(0..lines.len(), true);
    let observed = |acc: &ProfileAcc| (acc.checkpoint_value().to_string(), finish(acc).to_json());
    assert!(fold(0..lines.len(), false) == via_events);
    assert_eq!(
        observed(&fold(0..lines.len(), false)),
        observed(&via_events)
    );
    for cut in 0..=lines.len() {
        for events in [true, false] {
            let (left, right) = (fold(0..cut, events), fold(cut..lines.len(), !events));
            assert!(merged(&left, &right) == via_events, "cut {cut}");
            assert_eq!(observed(&merged(&right, &left)), observed(&via_events));
        }
    }
    let report = finish(&via_events);
    let aliased = report.get("$.a.b").unwrap();
    assert_eq!((aliased.count, aliased.first_absent_line), (3, Some(2)));
    assert_eq!(aliased.kind_count(typefuse_types::TypeKind::Num), 2);
    let elems = report.get("$.x[]").unwrap();
    assert_eq!(elems.kind_count(typefuse_types::TypeKind::Num), 2);
    assert_eq!(elems.kind_count(typefuse_types::TypeKind::Record), 3);
    assert_eq!(report.get("$.x[].y").unwrap().first_absent_line, Some(4));
}
