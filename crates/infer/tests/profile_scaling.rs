//! The profile trie pays per record, not per known key.
//!
//! Absence rule 1 visits only the child edges that can still be noted
//! absent, so a feed that keeps introducing keys — one new key per
//! record, or a Wikidata-shaped node whose keys are identifiers — costs
//! the absence rules O(record width) per record. Four times the input
//! must ask at most 4.5 times the edge visits, counted by the
//! accumulator itself ([`ProfileAcc::absence_visits`]): counts are
//! deterministic where times are not. Visiting every known child, as
//! rule 1 once did, makes the one-new-key corpus quadratic (16×).

use typefuse::fold::{Origin, RecordFold};
use typefuse::JobConfig;
use typefuse_infer::{Acc, ProfileAcc};

const N: usize = 500;

/// Line `i` of a corpus whose every record brings one key no earlier
/// record had, beside one every record has.
fn one_new_key(i: usize) -> String {
    format!(r#"{{"id": {i}, "k{i}": "v"}}"#)
}

/// Line `i` of a Wikidata-shaped corpus: `claims` is keyed by property
/// ids, some recurring and some new, each holding statements of a fixed
/// shape with qualifiers keyed by ids too.
fn wikidata_shaped(i: usize) -> String {
    format!(
        r#"{{"id": "Q{i}", "labels": {{"en": "item {i}"}}, "claims": {{"P31": [{{"rank": "normal", "value": "Q5"}}], "P{new}": [{{"rank": "preferred", "qualifiers": {{"P{q}": [{i}]}}}}], "P{old}": [{{"rank": "normal", "value": {i}}}, {{"rank": "deprecated"}}]}}}}"#,
        new = 1000 + i,
        q = i % 50,
        old = 100 + i / 3,
    )
}

/// Rule-1 and rule-2 edge visits of a bare profile over `n` lines.
fn profile_visits(corpus: fn(usize) -> String, n: usize) -> u64 {
    let mut acc = ProfileAcc::new();
    for i in 0..n {
        acc.absorb_line(i as u64 + 1, &corpus(i));
    }
    assert_eq!(acc.records(), n as u64);
    acc.absence_visits()
}

/// The same through the profiled record fold, as `infer --profile-json`
/// and `serve` run it.
fn fold_visits(corpus: fn(usize) -> String, n: usize) -> u64 {
    let mut fold = RecordFold::new(&JobConfig::new(), true);
    for i in 0..n {
        let line = corpus(i);
        let origin = Origin::Line(i as u64 + 1);
        fold.absorb((origin, line.as_bytes(), false)).unwrap();
    }
    assert_eq!(fold.records(), n as u64);
    fold.profile().expect("a profiled fold").absence_visits()
}

fn assert_linear(name: &str, visits: impl Fn(usize) -> u64) {
    let (small, large) = (visits(N), visits(4 * N));
    let ratio = large as f64 / small as f64;
    assert!(
        ratio <= 4.5,
        "{name}: {small} edge visits at {N} records, {large} at {} ({ratio:.1}×)",
        4 * N
    );
}

#[test]
fn one_new_key_per_record_costs_the_absence_rules_linear_visits() {
    assert_linear("profile", |n| profile_visits(one_new_key, n));
    assert_linear("fold", |n| fold_visits(one_new_key, n));
}

#[test]
fn identifier_keys_cost_the_absence_rules_linear_visits() {
    assert_linear("profile", |n| profile_visits(wikidata_shaped, n));
    assert_linear("fold", |n| fold_visits(wikidata_shaped, n));
}
