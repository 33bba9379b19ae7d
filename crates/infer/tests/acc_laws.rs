//! The accumulator laws, stated once.
//!
//! Every fold state is an [`Acc`]: the paper's Theorems 5.4 / 5.5 lifted
//! from `Fuse` to the state that rides along with it, and the whole
//! reason batch, split, streaming and resident folds agree.
//! [`assert_acc_laws`] checks them for any implementor: identity,
//! associativity, commutativity where the type claims it, any cut of the
//! input ≡ no cut, absorb ≡ merge of singletons — and, for a
//! [`Checkpoint`], the checkpoint law: `restore(cp(a)) ≡ a`,
//! `merge(restore(cp(a)), restore(cp(b))) ≡ merge(a, b)`, and a
//! restored fold absorbing the rest ≡ one that never stopped. It is
//! instantiated for [`SchemaAcc`] on every reduce route, [`ProfileAcc`] on
//! both of its walks, [`Incremental`], [`ErrorReport`], [`BadLines`] and
//! [`RecordFold`] under skip, quarantine and a budget that stops, and
//! bench's [`PartitionAcc`]. Every checkpoint decoder is also fed
//! truncated and byte-mutated payloads ([`assert_restore_total`]).
//!
//! Beside the laws, the properties that are not monoid laws but about
//! the same states: `SchemaAcc`'s routes are indistinguishable (plain ≡
//! dedup ≡ auto byte for byte, including an `auto` that switches
//! mid-stream), and the profile's two walks observe identically, in any
//! line order, however a record is spelled.

use proptest::prelude::*;
use typefuse::faults::BadLines;
use typefuse::fold::{Origin, RecordFold};
use typefuse::pipeline::MapPath;
use typefuse::{BadRecord, ErrorPolicy, ErrorReport, JobConfig};
use typefuse_bench::{PartitionAcc, ScaleConfig};
use typefuse_infer::{
    infer_type, Acc, ArrayFusion, Checkpoint, DedupMode, FuseConfig, Incremental, ProfileAcc,
    ProfileReport, SchemaAcc, Walk,
};
use typefuse_json::{parse_value, ErrorKind, Position, Value};
use typefuse_obs::Recorder;
use typefuse_types::testkit::arb_value;
use typefuse_types::Type;

/// What the suite needs to know of an implementor beside its [`Acc`].
struct Law<A> {
    /// Everything a caller can read off a state, rendered canonically.
    observe: fn(&A) -> String,
    /// Whether `merge` is commutative.
    commutative: bool,
    /// For a [`Checkpoint`]: [`reload`].
    reload: Option<fn(&A, &A) -> A>,
}

/// `a` through its checkpoint's text and back, restored on `empty`.
fn reload<A: Checkpoint>(empty: &A, a: &A) -> A {
    let text = a.checkpoint().to_string();
    empty.restore(&parse_value(&text).unwrap()).unwrap()
}

fn fold<'a, A: Acc>(empty: &A, items: &[A::Item<'a>]) -> A
where
    A::Item<'a>: Copy,
{
    let mut acc = empty.clone();
    items.iter().for_each(|&item| _ = acc.absorb(item));
    acc
}

fn merged<A: Acc>(a: &A, b: &A) -> A {
    let mut out = a.clone();
    out.merge(b);
    out
}

/// The laws over `items` cut into three runs at `i ≤ j`.
fn assert_acc_laws<'a, A: Acc>(
    law: &Law<A>,
    empty: &A,
    items: &[A::Item<'a>],
    i: usize,
    j: usize,
) -> Result<(), TestCaseError>
where
    A::Item<'a>: Copy,
{
    let observe = law.observe;
    let (i, j) = (i.min(j), i.max(j));
    let (a, b, c) = (
        fold(empty, &items[..i]),
        fold(empty, &items[i..j]),
        fold(empty, &items[j..]),
    );
    let whole = observe(&fold(empty, items));
    // Identity.
    prop_assert_eq!(observe(&merged(empty, &a)), observe(&a));
    prop_assert_eq!(observe(&merged(&a, empty)), observe(&a));
    // Commutativity (Theorem 5.4), where the type claims it.
    if law.commutative {
        prop_assert_eq!(observe(&merged(&a, &b)), observe(&merged(&b, &a)));
    }
    // Associativity (Theorem 5.5).
    let left = merged(&merged(&a, &b), &c);
    let right = merged(&a, &merged(&b, &c));
    prop_assert_eq!(observe(&left), observe(&right));
    // Any cut of the input folds to the same state as no cut.
    prop_assert_eq!(observe(&left), whole.clone());
    // absorb ≡ merge(singleton).
    let mut singles = empty.clone();
    for item in items {
        singles.merge(&fold(empty, std::slice::from_ref(item)));
    }
    prop_assert_eq!(observe(&singles), whole.clone());
    // The checkpoint law, and resuming from a checkpoint ≡ never stopping.
    if let Some(reload) = law.reload {
        for part in [&a, &b, &c] {
            prop_assert_eq!(observe(&reload(empty, part)), observe(part));
        }
        let (ra, rb) = (reload(empty, &a), reload(empty, &b));
        prop_assert_eq!(observe(&merged(&ra, &rb)), observe(&merged(&a, &b)));
        let mut resumed = ra;
        items[i..].iter().for_each(|&item| _ = resumed.absorb(item));
        prop_assert_eq!(observe(&resumed), whole);
    }
    Ok(())
}

/// Spoiled checkpoints of `a` come back from `restore` as an `Err` or a
/// state, never a panic:
/// - cut short (a few hundred of [`cuts_of`]): an `Err`, or a state whose
///   checkpoint is the cut payload exactly. A shorter decimal, list or
///   sidecar is a well-formed payload (only the checkpoint file's frame
///   checksum tells it was cut); a cut the format can tell — a kind slot
///   short, a wire schema cut, a path or child index the other names
///   missing, a child listed twice, a required field gone — is an `Err`,
///   and at least one cut must be;
/// - missing any of its top-level fields: an `Err`;
/// - a one-byte mutation of its text, a few hundred spread over it: no
///   panic (a mutation that still parses may restore).
fn assert_restore_total<A: Checkpoint>(empty: &A, a: &A) {
    let payload = parse_value(&a.checkpoint()).unwrap();
    let cuts = cuts_of(&payload);
    let mut rejected = 0;
    for cut in cuts.iter().step_by(cuts.len() / 256 + 1) {
        match empty.restore(cut) {
            Err(_) => rejected += 1,
            Ok(state) => assert!(
                state.checkpoint() == cut.to_string(),
                "{cut} restored as another"
            ),
        }
    }
    assert!(rejected > 0, "no cut of {payload} rejected");
    let Value::Object(fields) = &payload else {
        panic!("a checkpoint is an object")
    };
    for key in fields.keys() {
        let mut fewer = fields.clone();
        fewer.remove(key);
        assert!(
            empty.restore(&Value::Object(fewer)).is_err(),
            "without `{key}`"
        );
    }
    let text = payload.to_string();
    for at in (0..text.len()).step_by(text.len() / 256 + 1) {
        for &with in b"0x\"{}[],:-" {
            let mut mutated = text.clone().into_bytes();
            mutated[at] = with;
            let parsed = String::from_utf8(mutated).map(|text| parse_value(&text));
            if let Ok(Ok(value)) = parsed {
                let _ = empty.restore(&value);
            }
        }
    }
}

/// `v` cut short once per string, array and object in it (itself
/// included): each, in turn, cut to a strict prefix of its characters,
/// elements or fields — half of them, and all but the last.
fn cuts_of(v: &Value) -> Vec<Value> {
    fn prefixes(len: usize) -> Vec<usize> {
        let mut at = vec![len / 2, len.saturating_sub(1)];
        at.dedup();
        at.into_iter().filter(|&n| n < len).collect()
    }
    let mut out = Vec::new();
    match v {
        Value::String(s) => {
            let chars: Vec<char> = s.chars().collect();
            for n in prefixes(chars.len()) {
                out.push(Value::from(chars[..n].iter().collect::<String>()));
            }
        }
        Value::Array(xs) => {
            for n in prefixes(xs.len()) {
                out.push(Value::Array(xs[..n].to_vec()));
            }
            for (i, x) in xs.iter().enumerate() {
                for cut in cuts_of(x) {
                    let mut xs = xs.clone();
                    xs[i] = cut;
                    out.push(Value::Array(xs));
                }
            }
        }
        Value::Object(m) => {
            let fields: Vec<(String, Value)> =
                m.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
            for n in prefixes(fields.len()) {
                out.push(Value::Object(fields[..n].iter().cloned().collect()));
            }
            for (i, (_, x)) in fields.iter().enumerate() {
                for cut in cuts_of(x) {
                    let mut fields = fields.clone();
                    fields[i].1 = cut;
                    out.push(Value::Object(fields.into_iter().collect()));
                }
            }
        }
        _ => {}
    }
    out
}

// ---- The instances ------------------------------------------------------

fn schema_law() -> Law<SchemaAcc> {
    Law {
        observe: |acc| format!("{} × {}", acc.schema(), acc.records()),
        commutative: true,
        reload: Some(reload::<SchemaAcc>),
    }
}

/// The checkpoint shows everything kept (child indexes, every
/// statistic), the report what is served.
fn profile_law() -> Law<ProfileAcc> {
    Law {
        observe: |acc| format!("{}\n{}", acc.checkpoint(), finish(acc).to_json()),
        commutative: true,
        reload: Some(reload::<ProfileAcc>),
    }
}

/// The report, beside no schema: the schema is the record fold's.
fn finish(acc: &ProfileAcc) -> ProfileReport {
    acc.clone().finish(Type::Bottom)
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

/// A record fold's input: [`arb_line`], and one time in eight blank.
fn arb_fold_line() -> impl Strategy<Value = String> {
    (arb_line(), 0u8..8).prop_map(|(text, roll)| match roll {
        0 => " \t".to_string(),
        _ => text,
    })
}

/// Numbered records as the profile takes them: the tree walk where
/// asked and the text parses, the text walk otherwise.
fn walks<'a>(lines: &'a [(u64, String, Option<Value>)]) -> Vec<(u64, Walk<'a>)> {
    lines
        .iter()
        .map(|(n, text, tree)| match tree {
            Some(value) => (*n, Walk::Tree(value)),
            None => (*n, Walk::Text(text.as_bytes())),
        })
        .collect()
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

/// A bad record at input position `at`; `tag` breaks ties at one
/// position, as the error text does.
fn bad_record(at: u64, tag: u8) -> BadRecord {
    BadRecord {
        at,
        error: typefuse_json::Error::at(
            ErrorKind::RecordTooLarge(tag as usize),
            Position {
                offset: at as usize,
                line: at as u32,
                column: 1,
            },
        ),
        text: Some(format!("line-{at}-{tag}")),
    }
}

/// The three policies a fold runs under, and whether merge commutes
/// under each: skip; quarantine, whose sidecar keeps input order (the
/// sink is never written: the laws observe the entries not yet flushed);
/// and a budget of two, which stops.
fn policies() -> [(ErrorPolicy, bool); 3] {
    let sink = std::env::temp_dir().join("typefuse-acc-laws-never-flushed.ndjson");
    let budget = ErrorPolicy::Skip {
        max_errors: Some(2),
    };
    [
        (ErrorPolicy::skip(), true),
        (ErrorPolicy::quarantine(sink), false),
        (budget, false),
    ]
}

/// What a run shows once settled. Where a verdict stops it, the law
/// holds on the verdict and its earliest record, not on the unsettled
/// state (a merge past a stop takes nothing, a cut one fold may not have
/// stopped); a run the verdict lets through shows everything, `full`.
fn settled<A: Clone>(
    acc: &A,
    settle: fn(&mut A) -> Result<(), typefuse::Error>,
    full: fn(&A) -> String,
) -> String {
    match settle(&mut acc.clone()) {
        Ok(()) => full(acc),
        Err(verdict) => format!("stopped: {verdict}"),
    }
}

/// Everything a driver can read off a fold: schema and counts, the
/// bad lines with the sidecar entries not yet flushed, and the profile.
fn observe_fold(fold: &RecordFold) -> String {
    format!(
        "{} × {} in {} lines\n{:?}\n{:?}",
        fold.schema(),
        fold.records(),
        fold.lines(),
        fold.bad_lines(),
        fold.profile().map(profile_law().observe),
    )
}

/// The map routes a record fold runs on, and whether it carries a profile.
const ROUTES: [(MapPath, bool); 3] = [
    (MapPath::Events, false),
    (MapPath::Events, true),
    (MapPath::Shape, false),
];

fn fold_law(policy: &ErrorPolicy, commutative: bool) -> Law<RecordFold> {
    let stops: fn(&RecordFold) -> String = |f| settled(f, RecordFold::settle, observe_fold);
    Law {
        observe: if policy.max_errors().is_some() {
            stops
        } else {
            observe_fold
        },
        commutative,
        reload: Some(reload::<RecordFold>),
    }
}

fn bad_lines_law(policy: &ErrorPolicy, commutative: bool) -> Law<BadLines> {
    let full: fn(&BadLines) -> String = |lines| format!("{lines:?}");
    let stops: fn(&BadLines) -> String = |lines| {
        let settle = |l: &mut BadLines| l.settle(&Recorder::disabled());
        settled(lines, settle, |lines| format!("{lines:?}"))
    };
    Law {
        observe: if policy.max_errors().is_some() {
            stops
        } else {
            full
        },
        commutative,
        reload: Some(reload::<BadLines>),
    }
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
        let items: Vec<&Type> = types.iter().collect();
        for config in configs() {
            for mode in MODES {
                let empty = SchemaAcc::new(mode, config);
                assert_acc_laws(&schema_law(), &empty, &items, i, j)?;
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
        let numbered: Vec<(u64, String, Option<Value>)> = (1..)
            .zip(lines)
            .map(|(n, (text, tree))| {
                let value = parse_value(&text).ok().filter(|_| tree);
                (n, text, value)
            })
            .collect();
        assert_acc_laws(&profile_law(), &ProfileAcc::new(), &walks(&numbered), i, j)?;
    }

    #[test]
    fn incremental_is_a_commutative_monoid(
        values in prop::collection::vec(arb_value(), 0..12),
        i in any::<prop::sample::Index>(),
        j in any::<prop::sample::Index>(),
    ) {
        let (i, j) = (i.index(values.len() + 1), j.index(values.len() + 1));
        let law = Law {
            observe: |acc: &Incremental| format!("{} × {}", acc.schema(), acc.count()),
            commutative: true,
            reload: None,
        };
        let items: Vec<&Value> = values.iter().collect();
        for config in configs() {
            assert_acc_laws(&law, &Incremental::with_config(config), &items, i, j)?;
        }
    }

    #[test]
    fn error_report_and_bad_lines_are_monoids(
        entries in prop::collection::vec((0u64..500, 0u8..4), 0..12),
        i in any::<prop::sample::Index>(),
        j in any::<prop::sample::Index>(),
    ) {
        let (i, j) = (i.index(entries.len() + 1), j.index(entries.len() + 1));
        let records: Vec<BadRecord> =
            entries.iter().map(|&(at, tag)| bad_record(at, tag)).collect();
        let items: Vec<&BadRecord> = records.iter().collect();
        let law = Law {
            observe: |report: &ErrorReport| format!("{report:?}"),
            commutative: true,
            reload: Some(reload::<ErrorReport>),
        };
        assert_acc_laws(&law, &ErrorReport::new(), &items, i, j)?;
        // A fold judges its bad lines in input order.
        let mut records = records;
        records.sort_by_key(|record| record.at);
        let items: Vec<&BadRecord> = records.iter().collect();
        for (policy, commutative) in policies() {
            let law = bad_lines_law(&policy, commutative);
            assert_acc_laws(&law, &BadLines::new(policy), &items, i, j)?;
        }
    }

    #[test]
    fn partition_acc_is_a_commutative_monoid(
        values in prop::collection::vec(arb_value(), 0..12),
        i in any::<prop::sample::Index>(),
        j in any::<prop::sample::Index>(),
    ) {
        let (i, j) = (i.index(values.len() + 1), j.index(values.len() + 1));
        let law = Law {
            // The Tables 2–5 columns: everything but the timings.
            observe: |acc: &PartitionAcc| {
                let r = acc.result();
                let sizes = (r.min_size, r.max_size, r.avg_size);
                format!(
                    "{} records, {} bytes, {} distinct, sizes {sizes:?}, {}",
                    r.records, r.bytes, r.distinct_types, r.schema,
                )
            },
            commutative: true,
            reload: None,
        };
        let items: Vec<&Value> = values.iter().collect();
        let config = ScaleConfig::new(typefuse_datagen::Profile::GitHub, 0).measure_bytes();
        assert_acc_laws(&law, &PartitionAcc::empty(&config), &items, i, j)?;
    }

    #[test]
    fn routes_and_resume_are_invisible_on_short_streams(
        types in prop::collection::vec(arb_shape(), 0..12),
        cut in any::<prop::sample::Index>(),
    ) {
        let cut = cut.index(types.len() + 1);
        let items: Vec<&Type> = types.iter().collect();
        let observe = schema_law().observe;
        for config in configs() {
            let plain = observe(&fold(&SchemaAcc::new(DedupMode::Off, config), &items));
            for mode in MODES {
                let empty = SchemaAcc::new(mode, config);
                prop_assert_eq!(observe(&fold(&empty, &items)), plain.clone(), "{:?}", mode);
                let mut resumed = reload(&empty, &fold(&empty, &items[..cut]));
                items[cut..].iter().for_each(|ty| resumed.absorb(ty));
                prop_assert_eq!(observe(&resumed), plain.clone());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The record fold under every policy, dedup on and off, on the
    /// events route with profile on and off and on the shape route (which
    /// reads no values, so carries no profile, as in serve), and bad and
    /// blank lines along the way.
    #[test]
    fn record_fold_is_a_monoid_under_every_policy(
        texts in prop::collection::vec(arb_fold_line(), 0..12),
        i in any::<prop::sample::Index>(),
        j in any::<prop::sample::Index>(),
    ) {
        let (i, j) = (i.index(texts.len() + 1), j.index(texts.len() + 1));
        let items: Vec<(Origin, &[u8], bool)> = (1..)
            .zip(&texts)
            .map(|(n, text)| (Origin::Line(n), text.as_bytes(), false))
            .collect();
        for (policy, commutative) in policies() {
            let law = fold_law(&policy, commutative);
            for dedup in [DedupMode::Off, DedupMode::On] {
                for (map_path, profile) in ROUTES {
                    let job = JobConfig::new().dedup(dedup).map_path(map_path);
                    let empty = RecordFold::new(&job.on_error(policy.clone()), profile);
                    assert_acc_laws(&law, &empty, &items, i, j)?;
                }
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
        let items: Vec<&Type> = types.iter().collect();
        let observe = schema_law().observe;
        let plain = observe(&fold(&SchemaAcc::new(DedupMode::Off, config), &items));
        let empty = SchemaAcc::new(DedupMode::Auto, config);
        let auto = fold(&empty, &items);
        prop_assert!(auto.is_dedup(), "a pool of ≤ 5 shapes is redundant");
        prop_assert_eq!(observe(&auto), plain);
        // Cut anywhere: the runs resolve `auto` independently (short ones
        // stay plain), so the merges mix routes, and the checkpoints
        // restore on either side of the switch.
        let (i, j) = (i.index(types.len() + 1), j.index(types.len() + 1));
        assert_acc_laws(&schema_law(), &empty, &items, i, j)?;
    }

    /// Every checkpoint decoder, fed truncated and byte-mutated payloads.
    #[test]
    fn checkpoint_decoders_are_total(
        texts in prop::collection::vec(arb_fold_line(), 1..4),
    ) {
        let sink = std::env::temp_dir().join("typefuse-acc-laws-never-flushed.ndjson");
        let job = JobConfig::new().on_error(ErrorPolicy::quarantine(sink));
        let mut fold = RecordFold::new(&job, true);
        for (n, text) in (1..).zip(&texts) {
            let _ = fold.absorb((Origin::Line(n), text.as_bytes(), false));
        }
        assert_restore_total(&RecordFold::new(&job, true), &fold);
        let payload = parse_value(&fold.checkpoint()).unwrap();
        let part = |name: &str| payload.get(name).unwrap().clone();
        let empty = ErrorReport::new();
        assert_restore_total(&empty, &empty.restore(&part("report")).unwrap());
        let empty = ProfileAcc::new();
        assert_restore_total(&empty, &empty.restore(&part("profile")).unwrap());
        let empty = SchemaAcc::new(DedupMode::Auto, FuseConfig::default());
        assert_restore_total(&empty, &empty.restore(&payload).unwrap());
    }
}

/// The profile's child index against its path map: a path that was a
/// record must have an entry, and an entry lists each child once — or
/// the restored trie would skip or double-count absences.
#[test]
fn a_profile_child_index_that_disagrees_with_its_paths_is_rejected() {
    let mut acc = ProfileAcc::new();
    acc.observe_value(1, &parse_value(r#"{"a": {"b": 1}, "c": 2}"#).unwrap());
    let Value::Object(mut payload) = parse_value(&acc.checkpoint()).unwrap() else {
        panic!("a checkpoint is an object")
    };
    let Some(Value::Object(index)) = payload.remove("children") else {
        panic!("a profile checkpoint has a child index")
    };
    let (mut doubled, mut short) = (index.clone(), index);
    let Some(Value::Array(names)) = doubled.get_mut("$") else {
        panic!("the root was a record")
    };
    names.push(Value::from("c"));
    short.remove("$.a");
    for (index, broken) in [(doubled, "`c` twice"), (short, "no `$.a`")] {
        payload.insert("children", Value::Object(index));
        let restored = ProfileAcc::new().restore(&Value::Object(payload.clone()));
        assert!(restored.is_err(), "a child index with {broken} restored");
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

// ---- The profile's walks ------------------------------------------------

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Rule 1 skips the children already noted absent only while lines
    // grow: a line at or below the highest one committed visits them
    // all. So any absorption order is the merge of one-record folds.
    #[test]
    fn absorbing_in_any_line_order_equals_merging_single_records(
        values in prop::collection::vec(arb_value(), 1..10),
        keys in prop::collection::vec(0u32..1000, 10),
    ) {
        let mut order: Vec<usize> = (0..values.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        let mut absorbed = ProfileAcc::new();
        for &i in &order {
            absorbed.observe_value(i as u64 + 1, &values[i]);
        }
        let mut singles = ProfileAcc::new();
        for (i, value) in values.iter().enumerate() {
            singles.merge(&acc_from(i as u64 + 1, std::slice::from_ref(value)));
        }
        prop_assert!(absorbed == singles, "order {:?}", order);
        prop_assert_eq!(finish(&absorbed).to_json(), finish(&singles).to_json());
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
            via_text.checkpoint().to_string(),
            via_values.checkpoint().to_string()
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
                    acc.checkpoint().to_string(),
                    before.checkpoint().to_string(),
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
    let observed = |acc: &ProfileAcc| (acc.checkpoint().to_string(), finish(acc).to_json());
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
