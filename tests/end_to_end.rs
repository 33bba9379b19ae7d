//! End-to-end integration tests spanning all crates: datagen → json →
//! infer → engine → types.

use typefuse::infer::fuse;
use typefuse::pipeline::SchemaJob;
use typefuse::prelude::*;
use typefuse::types::is_subtype;

const N: usize = 400;
const SEED: u64 = 20170321; // EDBT 2017 :-)

fn run_profile(profile: Profile) -> (Vec<Value>, typefuse::pipeline::SchemaResult) {
    let values: Vec<Value> = profile.generate(SEED, N).collect();
    let result = JobConfig::new()
        .partitions(8)
        .build()
        .run_values(values.clone());
    (values, result)
}

#[test]
fn every_profile_schema_admits_every_record() {
    for profile in Profile::ALL {
        let (values, result) = run_profile(profile);
        for (i, v) in values.iter().enumerate() {
            assert!(
                result.schema.admits(v),
                "{profile}: record {i} not admitted by fused schema"
            );
        }
        result.schema.check_invariants().unwrap();
    }
}

#[test]
fn schemas_survive_the_text_round_trip() {
    for profile in Profile::ALL {
        let (_, result) = run_profile(profile);
        let printed = result.schema.to_string();
        let reparsed = typefuse::types::parse_type(&printed)
            .unwrap_or_else(|e| panic!("{profile}: cannot reparse schema: {e}"));
        assert_eq!(reparsed.to_string(), printed, "{profile}");
    }
}

#[test]
fn partition_count_never_changes_the_schema() {
    let values: Vec<Value> = Profile::Twitter.generate(SEED, 300).collect();
    let reference = JobConfig::new()
        .partitions(1)
        .build()
        .run_values(values.clone())
        .schema;
    for partitions in [2, 3, 16, 301] {
        let schema = JobConfig::new()
            .partitions(partitions)
            .build()
            .run_values(values.clone())
            .schema;
        assert_eq!(schema, reference, "partitions = {partitions}");
    }
}

#[test]
fn worker_count_never_changes_the_schema() {
    let values: Vec<Value> = Profile::Wikidata.generate(SEED, 200).collect();
    let reference = JobConfig::new()
        .workers(1)
        .build()
        .run_values(values.clone())
        .schema;
    for workers in [2, 4, 8] {
        let schema = JobConfig::new()
            .workers(workers)
            .build()
            .run_values(values.clone())
            .schema;
        assert_eq!(schema, reference, "workers = {workers}");
    }
}

#[test]
fn compaction_profile_shapes_match_the_paper() {
    // Table 2 vs Table 4: homogeneous GitHub compacts near 1x; Wikidata's
    // ids-as-keys blow the fused type up well past the average input type.
    let (_, github) = run_profile(Profile::GitHub);
    let (_, wikidata) = run_profile(Profile::Wikidata);

    assert!(
        github.compaction_ratio() < 2.0,
        "github ratio {:.2} should be small",
        github.compaction_ratio()
    );
    assert!(
        wikidata.compaction_ratio() > github.compaction_ratio() * 2.0,
        "wikidata ({:.2}) should compact much worse than github ({:.2})",
        wikidata.compaction_ratio(),
        github.compaction_ratio()
    );
}

#[test]
fn distinct_type_counts_reflect_heterogeneity() {
    let (_, github) = run_profile(Profile::GitHub);
    let (_, wikidata) = run_profile(Profile::Wikidata);
    // GitHub: slow distinct-type growth. Wikidata: nearly all distinct.
    assert!(
        github.type_stats.distinct < N / 2,
        "github distinct = {}",
        github.type_stats.distinct
    );
    assert!(
        wikidata.type_stats.distinct > (N * 9) / 10,
        "wikidata distinct = {}",
        wikidata.type_stats.distinct
    );
}

#[test]
fn twitter_min_type_is_the_delete_envelope() {
    let (_, twitter) = run_profile(Profile::Twitter);
    // Deletes dominate the min column (Table 3 reports 7; our value model
    // counts field nodes, giving 10-11 for the same envelope).
    assert!(
        twitter.type_stats.min_size <= 12,
        "min type size {} too large — deletes missing?",
        twitter.type_stats.min_size
    );
    assert!(twitter.type_stats.max_size > 100);
}

#[test]
fn growing_a_dataset_only_widens_the_schema() {
    // More data can only move the schema up the subtype order.
    let all: Vec<Value> = Profile::NYTimes.generate(SEED, 300).collect();
    let small = SchemaJob::new().run_values(all[..100].to_vec()).schema;
    let large = SchemaJob::new().run_values(all.clone()).schema;
    let merged = fuse(&small, &large);
    assert_eq!(merged, large, "small ⊔ large must equal large");
    assert!(is_subtype(&small, &large));
}

#[test]
fn ndjson_files_round_trip_through_the_pipeline() {
    // Serialize a generated dataset to NDJSON text, read it back through
    // the real parser, and check the schema matches the in-memory run.
    let values: Vec<Value> = Profile::GitHub.generate(SEED, 100).collect();
    let mut ndjson = Vec::new();
    typefuse::json::ndjson::write_ndjson(&mut ndjson, &values).unwrap();

    let from_text = SchemaJob::new().run_ndjson(&ndjson[..]).unwrap();
    let from_memory = SchemaJob::new().run_values(values);
    assert_eq!(from_text.schema, from_memory.schema);
    assert_eq!(from_text.records, from_memory.records);
}

#[test]
fn map_paths_are_byte_identical_on_every_profile() {
    // The acceptance bar for the event fast path: on all four workload
    // profiles, the default event route and the tree route produce
    // byte-identical schemas and the same statistics.
    for profile in Profile::ALL {
        let values: Vec<Value> = profile.generate(SEED, 200).collect();
        let mut ndjson = Vec::new();
        typefuse::json::ndjson::write_ndjson(&mut ndjson, &values).unwrap();

        let via_events = JobConfig::new()
            .map_path(MapPath::Events)
            .build()
            .run_ndjson(&ndjson[..])
            .unwrap();
        let via_values = JobConfig::new()
            .map_path(MapPath::Values)
            .build()
            .run_ndjson(&ndjson[..])
            .unwrap();
        assert_eq!(
            via_events.schema.to_string(),
            via_values.schema.to_string(),
            "{profile}: schemas must render identically"
        );
        assert_eq!(via_events.schema, via_values.schema, "{profile}");
        assert_eq!(via_events.records, via_values.records, "{profile}");
        assert_eq!(via_events.type_stats, via_values.type_stats, "{profile}");
        assert_eq!(via_events.fused_size, via_values.fused_size, "{profile}");
    }
}

#[test]
fn source_api_routes_agree() {
    // One job, two sources: values and an NDJSON stream land on the
    // same schema.
    let values: Vec<Value> = Profile::Twitter.generate(SEED, 120).collect();
    let mut ndjson = Vec::new();
    typefuse::json::ndjson::write_ndjson(&mut ndjson, &values).unwrap();
    let job = JobConfig::new().partitions(6).build();

    let via_values = job.run(Source::values(values)).unwrap();
    let via_ndjson = job.run(Source::ndjson(&ndjson[..])).unwrap();

    assert_eq!(via_values.schema, via_ndjson.schema);
    assert_eq!(via_ndjson.records, via_values.records);
}

#[test]
fn mixed_profile_stream_fuses_into_a_union_free_top_record() {
    // Records from different sources still fuse into one record type
    // (all profiles emit records, so the top level is a single record
    // with everything optional that is not shared).
    let mut values: Vec<Value> = Profile::GitHub.generate(SEED, 50).collect();
    values.extend(Profile::Twitter.generate(SEED, 50));
    let result = SchemaJob::new().run_values(values.clone());
    assert!(matches!(result.schema, Type::Record(_)));
    for v in &values {
        assert!(result.schema.admits(v));
    }
}

#[test]
fn incremental_maintenance_matches_batch_on_real_profiles() {
    for profile in [Profile::GitHub, Profile::NYTimes] {
        let values: Vec<Value> = profile.generate(SEED, 150).collect();
        let mut inc = Incremental::new();
        for v in &values {
            inc.absorb(v);
        }
        let batch = SchemaJob::new().run_values(values);
        assert_eq!(inc.schema(), &batch.schema, "{profile}");
    }
}
