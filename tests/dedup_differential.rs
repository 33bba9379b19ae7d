//! Route-differential test for the shape-dedup reduce: over every
//! synthetic profile, the dedup route must be byte-identical to the
//! plain reduce on both Map paths.

use typefuse::pipeline::{DedupMode, MapPath, Source};
use typefuse::JobConfig;
use typefuse_datagen::{DatasetProfile, Profile};
use typefuse_json::Value;
use typefuse_obs::Recorder;

const RECORDS: usize = 1000;
const SEED: u64 = 20170321;

fn dataset(profile: Profile) -> String {
    let values: Vec<Value> = profile.generate(SEED, RECORDS).collect();
    let mut buf = Vec::new();
    typefuse_json::ndjson::write_ndjson(&mut buf, &values).unwrap();
    String::from_utf8(buf).unwrap()
}

#[test]
fn dedup_event_and_value_routes_are_byte_identical() {
    for profile in Profile::ALL {
        let text = dataset(profile);
        let baseline = JobConfig::new()
            .dedup(DedupMode::Off)
            .map_path(MapPath::Values)
            .build()
            .run(Source::ndjson(text.as_bytes()))
            .unwrap();
        for mode in [DedupMode::On, DedupMode::Auto] {
            for path in [MapPath::Events, MapPath::Values] {
                let run = JobConfig::new()
                    .dedup(mode)
                    .map_path(path)
                    .partitions(3)
                    .build()
                    .run(Source::ndjson(text.as_bytes()))
                    .unwrap();
                assert_eq!(
                    run.schema.to_string(),
                    baseline.schema.to_string(),
                    "{profile} {mode:?} {path:?}: schema text diverged"
                );
                assert_eq!(run.schema, baseline.schema, "{profile} {mode:?} {path:?}");
                assert_eq!(run.records, baseline.records, "{profile}");
            }
        }
    }
}

#[test]
fn dedup_route_surfaces_its_counters() {
    // GitHub is the high-redundancy profile: far fewer shapes than
    // records, so Auto must pick the dedup route and the cache must hit.
    let text = dataset(Profile::GitHub);
    let rec = Recorder::enabled();
    let run = JobConfig::new()
        .dedup(DedupMode::Auto)
        .recorder(rec.clone())
        .build()
        .run(Source::ndjson(text.as_bytes()))
        .unwrap();
    let report = run.run_report(&rec);
    assert_eq!(report.counters["records"], RECORDS as u64);
    assert_eq!(report.counters["infer.dedup"], 1, "auto must pick dedup");
    let distinct = report.counters["infer.distinct_shapes"];
    assert!(
        distinct > 0 && distinct < RECORDS as u64 / 2,
        "github shapes should repeat (distinct = {distinct})"
    );
    assert!(report.counters["fuse.cache_hits"] > 0);
    assert_eq!(
        report.counters["fuse.calls"],
        report.counters["fuse.cache_misses"]
    );
}
