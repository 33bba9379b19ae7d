//! Integration tests for the feature modules layered on top of the core
//! pipeline: paths/completeness, schema diffing, streaming
//! inference and per-path presence counts — all exercised on the
//! realistic dataset profiles.

use typefuse::infer::streaming::infer_type_from_str;
use typefuse::prelude::*;
use typefuse::types::diff::{diff, SchemaChange};
use typefuse::types::paths::{covers_value_paths, type_paths, value_paths};

const SEED: u64 = 424242;

fn schema_of(profile: Profile, n: usize) -> (Vec<Value>, Type) {
    let values: Vec<Value> = profile.generate(SEED, n).collect();
    let schema = JobConfig::new()
        .without_type_stats()
        .build()
        .run_values(values.clone())
        .schema;
    (values, schema)
}

#[test]
fn completeness_on_every_profile() {
    // Section 1's headline property on realistic data: every traversable
    // value path is a traversable schema path, and vice versa every
    // schema path is witnessed by at least one record.
    for profile in Profile::ALL {
        let (values, schema) = schema_of(profile, 200);
        for v in &values {
            assert!(
                covers_value_paths(&schema, v),
                "{profile}: paths not covered"
            );
        }
        let sp = type_paths(&schema);
        let mut witnessed = std::collections::BTreeSet::new();
        for v in &values {
            witnessed.extend(value_paths(v));
        }
        assert_eq!(
            sp, witnessed,
            "{profile}: schema paths must be exactly the witnessed paths"
        );
    }
}

#[test]
fn diff_detects_profile_parameter_drift() {
    use typefuse::datagen::nytimes::NYTimesProfile;
    use typefuse::datagen::DatasetProfile;

    // Same profile, but the producer stops emitting the kicker variant:
    // the kicker fields must show up as removed.
    let before: Vec<Value> = NYTimesProfile::default().generate(SEED, 300).collect();
    let after_profile = NYTimesProfile {
        kicker_variant_prob: 0.0,
        ..Default::default()
    };
    let after: Vec<Value> = after_profile.generate(SEED, 300).collect();

    let old = JobConfig::new()
        .without_type_stats()
        .build()
        .run_values(before)
        .schema;
    let new = JobConfig::new()
        .without_type_stats()
        .build()
        .run_values(after)
        .schema;
    let changes = diff(&old, &new);
    let removed: Vec<&str> = changes
        .iter()
        .filter_map(|c| match c {
            SchemaChange::Removed { path } => Some(path.as_str()),
            _ => None,
        })
        .collect();
    assert!(
        removed.contains(&"$.headline.kicker"),
        "changes: {changes:?}"
    );
    assert!(removed.contains(&"$.headline.content_kicker"));
    // print_headline flips from optional to mandatory (it is now the only
    // variant).
    assert!(changes.iter().any(|c| matches!(
        c,
        SchemaChange::OptionalityChanged { path, was_optional: true } if path == "$.headline.print_headline"
    )));
}

#[test]
fn streaming_inference_matches_tree_on_profiles() {
    for profile in Profile::ALL {
        for v in profile.generate(SEED, 60) {
            let text = v.to_string();
            let direct = infer_type_from_str(&text).unwrap();
            assert_eq!(direct, typefuse::infer::infer_type(&v), "{profile}");
        }
    }
}

#[test]
fn profile_exposes_the_twitter_split() {
    let values: Vec<Value> = Profile::Twitter.generate(SEED, 2000).collect();
    let profile = JobConfig::new()
        .build()
        .run_profiled(Source::values(values))
        .unwrap()
        .profile;

    let count = |path| profile.get(path).map_or(0, |p| p.count);
    let (delete_count, text_count) = (count("$.delete"), count("$.text"));
    assert!(delete_count > 0, "deletes present");
    assert!(
        delete_count * 10 < text_count,
        "deletes ({delete_count}) are a small fraction of tweets ({text_count})"
    );
    // A tweet path and a delete path never co-occur, so no field spans
    // all records.
    let rows = profile.field_rows();
    assert!(rows.iter().all(|(_, p)| p.count < profile.records));
}

#[test]
fn summary_explains_wikidata_blowup() {
    let (_, github) = schema_of(Profile::GitHub, 300);
    let (_, wikidata) = schema_of(Profile::Wikidata, 300);
    let (g, w) = (RecordCounts::of(&github), RecordCounts::of(&wikidata));

    // Wikidata's fused size is dominated by record fields coming from
    // ids-as-keys: an order of magnitude more fields, more optional
    // fields and more record nodes (one per keyed entry) than the
    // homogeneous GitHub schema.
    assert!(
        w.fields > g.fields * 5,
        "wikidata fields {} vs github {}",
        w.fields,
        g.fields
    );
    assert!(
        w.optional_fields > g.optional_fields * 5,
        "wikidata optional fields {} vs github {}",
        w.optional_fields,
        g.optional_fields
    );
    assert!(
        w.records > g.records * 5,
        "wikidata records {} vs github {}",
        w.records,
        g.records
    );
    let optional_ratio = g.optional_fields as f64 / g.fields as f64;
    assert!(
        optional_ratio < 0.5,
        "github optional ratio {optional_ratio}"
    );
}

/// Record nodes, fields and optional fields anywhere in a schema.
#[derive(Default)]
struct RecordCounts {
    records: usize,
    fields: usize,
    optional_fields: usize,
}

impl RecordCounts {
    fn of(t: &Type) -> RecordCounts {
        let mut counts = RecordCounts::default();
        counts.add(t);
        counts
    }

    fn add(&mut self, t: &Type) {
        match t {
            Type::Record(rt) => {
                self.records += 1;
                self.fields += rt.len();
                self.optional_fields += rt.optional_fields().count();
                rt.fields().iter().for_each(|f| self.add(&f.ty));
            }
            Type::Array(at) => at.elems().iter().for_each(|e| self.add(e)),
            Type::Star(body) => self.add(body),
            Type::Union(u) => u.addends().iter().for_each(|a| self.add(a)),
            _ => {}
        }
    }
}

#[test]
fn json_schema_export_is_valid_json_for_all_profiles() {
    for profile in Profile::ALL {
        let (_, schema) = schema_of(profile, 100);
        let doc = typefuse::types::export::to_json_schema_document(&schema);
        let text = typefuse::json::to_string_pretty(&doc);
        let back = parse_value(&text).expect("export emits valid JSON");
        assert_eq!(
            back.get("$schema").and_then(Value::as_str),
            Some("https://json-schema.org/draft/2020-12/schema")
        );
    }
}

#[test]
fn incremental_plus_diff_gives_change_feed() {
    // Maintain a schema over a stream; each time it changes, the diff
    // against the previous snapshot is non-empty and anchored at real
    // paths.
    let values: Vec<Value> = Profile::Twitter.generate(SEED, 400).collect();
    let mut inc = Incremental::new();
    let mut snapshot = Type::Bottom;
    let mut change_events = 0;
    for v in &values {
        inc.absorb(v);
        if inc.schema() != &snapshot {
            // Note: some syntactic changes are invisible to `diff` by
            // design — a positional array widening to its starred form
            // keeps the same paths and kinds — so the diff may be empty
            // even though the schema changed syntactically.
            let changes = diff(&snapshot, inc.schema());
            for c in &changes {
                assert!(c.path().starts_with('$'), "malformed path in {c}");
            }
            if !changes.is_empty() {
                change_events += 1;
            }
            snapshot = inc.schema().clone();
        }
    }
    assert!(
        change_events > 3,
        "the stream should widen the schema a few times"
    );
    assert!(
        change_events < 100,
        "the schema must stabilise, not churn ({change_events} changes)"
    );
}

#[test]
fn wikidata_sites_are_detected_as_map_like() {
    use typefuse::infer::{find_map_like, MapLikeConfig};

    let (_, schema) = schema_of(Profile::Wikidata, 400);
    let sites = find_map_like(&schema, MapLikeConfig::default());
    let paths: Vec<&str> = sites.iter().map(|s| s.path.as_str()).collect();
    // The ids-as-keys sites the paper blames for Wikidata's bad fusion.
    assert!(paths.contains(&"$.claims"), "sites: {paths:?}");
    assert!(paths.contains(&"$.labels"), "sites: {paths:?}");
    let claims = sites.iter().find(|s| s.path == "$.claims").unwrap();
    assert!(claims.keys > 100, "claims keys {}", claims.keys);
    assert!(
        claims.compression() > 20.0,
        "compression {}",
        claims.compression()
    );

    // GitHub has no such pathology.
    let (_, github) = schema_of(Profile::GitHub, 400);
    assert!(find_map_like(&github, MapLikeConfig::default()).is_empty());
}
