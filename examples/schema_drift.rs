//! Data-contract monitoring with schema diffing.
//!
//! A feed you consume changes silently: a numeric field starts arriving
//! as a string, a sub-record grows a field, a mandatory field becomes
//! occasional. Inferring a schema per batch and diffing consecutive
//! schemas turns that silence into an actionable report — the capability
//! the paper's related-work section says base-type checkers (Scherzinger
//! et al. [21]) lack.
//!
//! ```sh
//! cargo run --example schema_drift
//! ```

use typefuse::prelude::*;
use typefuse::types::diff::diff;

fn main() {
    // Yesterday's batch: a stable keyword feed.
    let yesterday: Vec<Value> = [
        r#"{"id": 1, "name": "alpha", "rank": 3, "meta": {"source": "crawl"}}"#,
        r#"{"id": 2, "name": "beta", "rank": 1, "meta": {"source": "api"}}"#,
        r#"{"id": 3, "name": "gamma", "rank": 2, "meta": {"source": "crawl"}}"#,
    ]
    .iter()
    .map(|l| parse_value(l).unwrap())
    .collect();

    // Today's batch: the producer shipped three silent changes.
    let today: Vec<Value> = [
        // rank became a string, meta grew a `ts`, id sometimes missing
        r#"{"id": 4, "name": "delta", "rank": "4", "meta": {"source": "api", "ts": "2016-07-01"}}"#,
        r#"{"name": "epsilon", "rank": "2", "meta": {"source": "crawl", "ts": "2016-07-01"}}"#,
    ]
    .iter()
    .map(|l| parse_value(l).unwrap())
    .collect();

    let old_schema = JobConfig::new().build().run_values(yesterday).schema;
    let new_schema = JobConfig::new().build().run_values(today).schema;

    println!("yesterday: {old_schema}");
    println!("today:     {new_schema}\n");

    println!("=== drift report ===");
    let changes = diff(&old_schema, &new_schema);
    for change in &changes {
        println!("{change}");
    }
    assert!(!changes.is_empty());

    // The checks a contract gate would run:
    let rank_changed = changes
        .iter()
        .any(|c| c.path() == "$.rank" && c.to_string().contains("Num → Str"));
    let id_now_optional = changes
        .iter()
        .any(|c| c.path() == "$.id" && c.to_string().contains("mandatory → optional"));
    let meta_grew = changes.iter().any(|c| c.path() == "$.meta.ts");
    assert!(rank_changed && id_now_optional && meta_grew);
    println!("\nall three silent changes detected ✓");

    // Field counts and schema sizes contextualise the drift.
    let (before, after) = (field_counts(&old_schema), field_counts(&new_schema));
    println!(
        "\nfields {} → {}   optional {} → {}   size {} → {}",
        before.0,
        after.0,
        before.1,
        after.1,
        old_schema.size(),
        new_schema.size()
    );
}

/// Record fields anywhere in a schema, and how many of them are optional.
fn field_counts(t: &Type) -> (usize, usize) {
    let sum = |kids: &mut dyn Iterator<Item = &Type>| {
        kids.map(field_counts)
            .fold((0, 0), |(f, o), (kf, ko)| (f + kf, o + ko))
    };
    match t {
        Type::Record(rt) => {
            let (f, o) = sum(&mut rt.fields().iter().map(|f| &f.ty));
            (f + rt.len(), o + rt.optional_fields().count())
        }
        Type::Array(at) => sum(&mut at.elems().iter()),
        Type::Star(body) => field_counts(body),
        Type::Union(u) => sum(&mut u.addends().iter()),
        _ => (0, 0),
    }
}
