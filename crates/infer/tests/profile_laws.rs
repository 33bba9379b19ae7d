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
//! * **route equivalence** — the event fold and the tree walk produce
//!   byte-identical profiles for the same lines.
//!
//! Equality is checked on the finished [`ProfileReport`] (structural)
//! and on its serialized JSON (byte-level, what CI diffs).

use proptest::prelude::*;
use typefuse_infer::{ProfileAcc, ProfileReport};
use typefuse_json::Value;
use typefuse_types::testkit::arb_value;

/// Absorb `values` as records numbered from `first_line`.
fn acc_from(first_line: u64, values: &[Value]) -> ProfileAcc {
    let mut acc = ProfileAcc::new();
    for (i, v) in values.iter().enumerate() {
        acc.absorb_value_at(first_line + i as u64, v);
    }
    acc
}

fn merged(a: &ProfileAcc, b: &ProfileAcc) -> ProfileAcc {
    let mut out = a.clone();
    out.merge(b);
    out
}

fn finish(acc: &ProfileAcc) -> ProfileReport {
    acc.clone().finish()
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
            via_values.absorb_line_as_value(line, &text);
        }
        let a = finish(&via_events);
        let b = finish(&via_values);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn profiled_schema_matches_plain_fusion(
        values in prop::collection::vec(arb_value(), 1..10),
    ) {
        use typefuse_infer::{fuse_all, infer_type};
        let types: Vec<_> = values.iter().map(infer_type).collect();
        let profile = finish(&acc_from(1, &values));
        prop_assert_eq!(profile.schema, fuse_all(&types));
        prop_assert_eq!(profile.records, values.len() as u64);
    }
}

/// The event observer assumes strict keys; under lenient options the
/// typed fold must settle last-wins through the value walk instead.
#[test]
fn lenient_duplicate_keys_are_folded_not_a_panic() {
    let options = typefuse_json::ParserOptions {
        allow_duplicate_keys: true,
        ..Default::default()
    };
    let mut acc = ProfileAcc::new();
    let ty = acc
        .absorb_line_typed(1, br#"{"a": 1, "a": "x"}"#, &options)
        .unwrap();
    assert_eq!(ty.to_string(), "{a: Str}");
    assert_eq!(acc.finish().get("$.a").unwrap().count, 1);
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
            let before = acc.clone();
            let outcome = acc.absorb_line_typed(9, &record.as_bytes()[..cut], &options);
            assert!(outcome.is_err(), "prefix of {cut} bytes parsed");
            assert!(acc == before, "prefix of {cut} bytes left a trace");
            assert_eq!(
                acc.checkpoint_value().to_string(),
                before.checkpoint_value().to_string(),
                "prefix of {cut} bytes"
            );
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
                false => acc.absorb_line_as_value(i as u64 + 1, lines[i]),
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
