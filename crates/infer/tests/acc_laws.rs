//! The accumulator laws, stated once.
//!
//! Every accumulator a record fold can carry is a commutative monoid
//! (the paper's Theorems 5.4 / 5.5 lifted from `Fuse` to the state that
//! rides along with it), and that is the whole reason batch, split,
//! streaming and resident folds agree. [`assert_acc_laws`] checks the
//! monoid laws for anything that implements [`LawAcc`]; it is
//! instantiated here for [`SchemaAcc`] on every reduce route and for
//! [`ProfileAcc`] on both of its observers.
//!
//! On top of the generic laws, `SchemaAcc` promises that its routes are
//! indistinguishable: plain ≡ dedup ≡ auto byte for byte (including an
//! `auto` that switches mid-stream), and `resume(schema, n)` followed by
//! the rest of a stream ≡ never having stopped.

use proptest::prelude::*;
use typefuse_infer::{infer_type, ArrayFusion, DedupMode, FuseConfig, ProfileAcc, SchemaAcc};
use typefuse_types::testkit::arb_value;
use typefuse_types::Type;

/// What the law suite needs from an accumulator.
trait LawAcc: Clone {
    type Item;
    fn absorb(&mut self, item: &Self::Item);
    fn merge(&mut self, other: &Self);
    /// Everything a caller can observe, rendered canonically.
    fn observe(&self) -> String;
}

fn fold<A: LawAcc>(empty: &A, items: &[A::Item]) -> A {
    let mut acc = empty.clone();
    items.iter().for_each(|item| acc.absorb(item));
    acc
}

fn merged<A: LawAcc>(a: &A, b: &A) -> A {
    let mut out = a.clone();
    out.merge(b);
    out
}

/// The monoid laws over `items` cut into three runs at `i ≤ j`.
fn assert_acc_laws<A: LawAcc>(
    empty: &A,
    items: &[A::Item],
    i: usize,
    j: usize,
) -> Result<(), TestCaseError> {
    let (i, j) = (i.min(j), i.max(j));
    let (a, b, c) = (
        fold(empty, &items[..i]),
        fold(empty, &items[i..j]),
        fold(empty, &items[j..]),
    );
    let whole = fold(empty, items).observe();
    // Identity.
    prop_assert_eq!(merged(empty, &a).observe(), a.observe());
    prop_assert_eq!(merged(&a, empty).observe(), a.observe());
    // Commutativity (Theorem 5.4).
    prop_assert_eq!(merged(&a, &b).observe(), merged(&b, &a).observe());
    // Associativity (Theorem 5.5).
    let left = merged(&merged(&a, &b), &c);
    let right = merged(&a, &merged(&b, &c));
    prop_assert_eq!(left.observe(), right.observe());
    // Any cut of the stream folds to the same state as no cut.
    prop_assert_eq!(left.observe(), whole.clone());
    // absorb ≡ merge(singleton).
    let mut singles = empty.clone();
    for item in items {
        singles.merge(&fold(empty, std::slice::from_ref(item)));
    }
    prop_assert_eq!(singles.observe(), whole);
    Ok(())
}

impl LawAcc for SchemaAcc {
    type Item = Type;
    fn absorb(&mut self, item: &Type) {
        self.absorb_type(item);
    }
    fn merge(&mut self, other: &Self) {
        SchemaAcc::merge(self, other);
    }
    fn observe(&self) -> String {
        format!("{} × {}", self.schema(), self.records())
    }
}

/// A numbered input line for the text walk (`true`) or the value walk.
/// Its number travels with it, as through any partitioning of one input;
/// a malformed one leaves no trace on either walk.
impl LawAcc for ProfileAcc {
    type Item = (u64, String, bool);
    fn absorb(&mut self, (line, text, text_walk): &Self::Item) {
        match (text_walk, typefuse_json::parse_value(text)) {
            (true, _) => self.absorb_line(*line, text),
            (false, Ok(value)) => drop(self.observe_value(*line, &value)),
            (false, Err(_)) => {}
        }
    }
    fn merge(&mut self, other: &Self) {
        ProfileAcc::merge(self, other);
    }
    /// The checkpoint shows everything kept (child indexes, every
    /// statistic), the report what is served.
    fn observe(&self) -> String {
        let report = self.clone().finish(Type::Bottom).to_json();
        format!("{}\n{report}", self.checkpoint_value())
    }
}

/// A record's text, one time in eight cut short (usually malformed then).
fn arb_line() -> impl Strategy<Value = String> {
    (arb_value(), any::<prop::sample::Index>(), 0u8..8).prop_map(|(value, cut, roll)| {
        let text = value.to_string();
        match roll {
            0 => text.chars().take(cut.index(text.chars().count())).collect(),
            _ => text,
        }
    })
}

const MODES: [DedupMode; 3] = [DedupMode::Off, DedupMode::On, DedupMode::Auto];

fn configs() -> [FuseConfig; 2] {
    [
        FuseConfig::default(),
        FuseConfig {
            array_fusion: ArrayFusion::PositionalWhenAligned,
        },
    ]
}

fn arb_shape() -> impl Strategy<Value = Type> {
    arb_value().prop_map(|v| infer_type(&v))
}

/// A stream long enough that `auto` fills its 512-record sample, drawn
/// from a small pool so the sample comes out redundant (or, with a pool
/// of distinct shapes, sometimes not).
fn arb_long_stream() -> impl Strategy<Value = Vec<Type>> {
    (
        prop::collection::vec(arb_shape(), 1..6),
        prop::collection::vec(any::<prop::sample::Index>(), 520..640),
    )
        .prop_map(|(pool, picks)| {
            picks
                .iter()
                .map(|pick| pool[pick.index(pool.len())].clone())
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn schema_acc_is_a_commutative_monoid(
        types in prop::collection::vec(arb_shape(), 0..12),
        i in any::<prop::sample::Index>(),
        j in any::<prop::sample::Index>(),
    ) {
        let (i, j) = (i.index(types.len() + 1), j.index(types.len() + 1));
        for config in configs() {
            for mode in MODES {
                assert_acc_laws(&SchemaAcc::new(mode, config), &types, i, j)?;
            }
        }
    }

    #[test]
    fn profile_acc_is_a_commutative_monoid(
        lines in prop::collection::vec((arb_line(), any::<bool>()), 0..12),
        i in any::<prop::sample::Index>(),
        j in any::<prop::sample::Index>(),
    ) {
        let (i, j) = (i.index(lines.len() + 1), j.index(lines.len() + 1));
        let items: Vec<(u64, String, bool)> = lines
            .into_iter()
            .enumerate()
            .map(|(n, (text, events))| (n as u64 + 1, text, events))
            .collect();
        assert_acc_laws(&ProfileAcc::new(), &items, i, j)?;
    }

    #[test]
    fn routes_and_resume_are_invisible_on_short_streams(
        types in prop::collection::vec(arb_shape(), 0..12),
        cut in any::<prop::sample::Index>(),
    ) {
        let cut = cut.index(types.len() + 1);
        for config in configs() {
            let plain = fold(&SchemaAcc::new(DedupMode::Off, config), &types).observe();
            for mode in MODES {
                let full = fold(&SchemaAcc::new(mode, config), &types);
                prop_assert_eq!(full.observe(), plain.clone(), "{:?}", mode);
                let head = fold(&SchemaAcc::new(mode, config), &types[..cut]);
                let resumed = SchemaAcc::resume(mode, config, head.schema(), head.records());
                prop_assert_eq!(fold(&resumed, &types[cut..]).observe(), plain.clone());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn auto_switching_mid_stream_is_invisible(
        types in arb_long_stream(),
        i in any::<prop::sample::Index>(),
        j in any::<prop::sample::Index>(),
    ) {
        let config = FuseConfig::default();
        let plain = fold(&SchemaAcc::new(DedupMode::Off, config), &types).observe();
        let auto = fold(&SchemaAcc::new(DedupMode::Auto, config), &types);
        prop_assert!(auto.is_dedup(), "a pool of ≤ 5 shapes is redundant");
        prop_assert_eq!(auto.observe(), plain.clone());
        // Cut anywhere: the runs resolve `auto` independently (short ones
        // stay plain), so the merges mix routes.
        let (i, j) = (i.index(types.len() + 1), j.index(types.len() + 1));
        assert_acc_laws(&SchemaAcc::new(DedupMode::Auto, config), &types, i, j)?;
        // Stop and resume on either side of the switch.
        for cut in [i.min(j), i.max(j)] {
            let head = fold(&SchemaAcc::new(DedupMode::Auto, config), &types[..cut]);
            let resumed =
                SchemaAcc::resume(DedupMode::Auto, config, head.schema(), head.records());
            prop_assert_eq!(fold(&resumed, &types[cut..]).observe(), plain.clone());
        }
    }
}

/// `--dedup auto`'s verdict is a property of the data, not of the hash
/// the sample keeps its distinct shapes by: on the four datagen
/// profiles it is what exact counting says, and what it has always been.
#[test]
fn auto_verdict_on_the_datagen_profiles_is_pinned() {
    use std::collections::HashSet;
    use typefuse_datagen::{DatasetProfile, Profile};
    use typefuse_infer::dedup_auto_sample;
    for (profile, expected) in [
        (Profile::GitHub, true),
        (Profile::Twitter, false),
        (Profile::Wikidata, false),
        (Profile::NYTimes, false),
    ] {
        let types: Vec<Type> = profile.generate(7, 600).map(|v| infer_type(&v)).collect();
        let distinct: HashSet<&Type> = types[..512].iter().collect();
        assert_eq!(distinct.len() * 2 <= 512, expected, "{}", profile.name());
        assert_eq!(
            dedup_auto_sample(types.iter()),
            expected,
            "{}",
            profile.name()
        );
    }
}
