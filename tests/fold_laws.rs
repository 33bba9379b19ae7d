//! The record fold is a commutative monoid.
//!
//! The batch Reduce folds each partition into a [`RecordFold`] and merges
//! the folds in whatever tree the partition count and worker count make;
//! splits and serve merge them too. That any bracketing gives the same
//! answer is the paper's Theorems 5.4 / 5.5 lifted to everything a fold
//! carries — schema, record and line counts, the error report and the
//! path profile — and this suite checks it: identity, commutativity,
//! associativity, any cut of the input, and absorb ≡ merge of a
//! one-line fold, with profile on and off, dedup on and off, and bad and
//! blank lines judged (and skipped) along the way.

use proptest::prelude::*;
use typefuse::fold::{Origin, RecordFold};
use typefuse::pipeline::DedupMode;
use typefuse::{ErrorPolicy, JobConfig};
use typefuse_json::testkit::arb_value;

/// A numbered input line; its number travels with it, as through any
/// partitioning of one input.
type Line = (u64, String);

fn empty(profile: bool, dedup: DedupMode) -> RecordFold {
    let job = JobConfig::new().dedup(dedup).on_error(ErrorPolicy::skip());
    RecordFold::new(&job, profile)
}

fn fold(empty: &RecordFold, lines: &[Line]) -> RecordFold {
    let mut acc = empty.clone();
    for (n, text) in lines {
        acc.absorb_line(Origin::Line(*n), text.as_bytes(), false)
            .expect("skip never stops a fold");
    }
    acc
}

fn merged(a: &RecordFold, b: &RecordFold) -> RecordFold {
    let mut out = a.clone();
    out.merge(b);
    out
}

/// Everything a driver can read off a fold, rendered canonically.
fn observe(fold: &RecordFold) -> String {
    let profile = fold.profile_report().map(|p| p.to_json());
    format!(
        "{} × {} in {} lines\n{}\n{profile:?}",
        fold.schema(),
        fold.records(),
        fold.lines(),
        fold.report().checkpoint_value(),
    )
}

/// The monoid laws over `lines` cut into three runs at `i ≤ j`.
fn assert_fold_laws(
    empty: &RecordFold,
    lines: &[Line],
    i: usize,
    j: usize,
) -> Result<(), TestCaseError> {
    let (i, j) = (i.min(j), i.max(j));
    let (a, b, c) = (
        fold(empty, &lines[..i]),
        fold(empty, &lines[i..j]),
        fold(empty, &lines[j..]),
    );
    let whole = observe(&fold(empty, lines));
    // Identity.
    prop_assert_eq!(observe(&merged(empty, &a)), observe(&a));
    prop_assert_eq!(observe(&merged(&a, empty)), observe(&a));
    // Commutativity (Theorem 5.4).
    prop_assert_eq!(observe(&merged(&a, &b)), observe(&merged(&b, &a)));
    // Associativity (Theorem 5.5).
    let left = merged(&merged(&a, &b), &c);
    let right = merged(&a, &merged(&b, &c));
    prop_assert_eq!(observe(&left), observe(&right));
    // Any cut of the input folds to the same state as no cut.
    prop_assert_eq!(observe(&left), whole.clone());
    // absorb ≡ merge(singleton).
    let mut singles = empty.clone();
    for line in lines {
        singles.merge(&fold(empty, std::slice::from_ref(line)));
    }
    prop_assert_eq!(observe(&singles), whole);
    Ok(())
}

/// A record's text; one time in eight cut short (usually malformed
/// then), one in eight blank.
fn arb_line() -> impl Strategy<Value = String> {
    (arb_value(), any::<prop::sample::Index>(), 0u8..8).prop_map(|(value, cut, roll)| {
        let text = value.to_string();
        match roll {
            0 => text.chars().take(cut.index(text.chars().count())).collect(),
            1 => " \t".to_string(),
            _ => text,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn record_fold_is_a_commutative_monoid(
        texts in prop::collection::vec(arb_line(), 0..12),
        i in any::<prop::sample::Index>(),
        j in any::<prop::sample::Index>(),
    ) {
        let (i, j) = (i.index(texts.len() + 1), j.index(texts.len() + 1));
        let lines: Vec<Line> = (1..).zip(texts).collect();
        for profile in [false, true] {
            for dedup in [DedupMode::Off, DedupMode::On] {
                assert_fold_laws(&empty(profile, dedup), &lines, i, j)?;
            }
        }
    }
}
