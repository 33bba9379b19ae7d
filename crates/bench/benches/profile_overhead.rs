//! Cost of the data-plane profiler: the profiled pipeline
//! (`SchemaJob::run_profiled` — per-path presence, kind/length
//! histograms, provenance lines) versus plain fusion over the same
//! NDJSON input. Both run end to end through `Source::ndjson`, so the
//! overhead number is the real per-ingest cost a `--profile-json` user
//! pays, not just the accumulator's.
//!
//! Every measurement first asserts the profiled run reproduces the
//! plain run's schema and that the text walk's profile is byte-identical
//! to the tree walk's (`parse_value` per line, then
//! `run_profiled(Source::values(..))`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use typefuse::pipeline::{SchemaJob, Source};
use typefuse::JobConfig;
use typefuse_datagen::{DatasetProfile, Profile};
use typefuse_json::parse_value;

fn corpus(profile: Profile, n: usize) -> String {
    let values: Vec<_> = profile.generate(7, n).collect();
    let mut text = Vec::new();
    typefuse_json::ndjson::write_ndjson(&mut text, &values).unwrap();
    String::from_utf8(text).unwrap()
}

fn job() -> SchemaJob {
    JobConfig::new().without_type_stats().build()
}

fn run_plain(text: &str) -> typefuse_types::Type {
    job()
        .run(Source::ndjson(text.as_bytes()))
        .expect("generated corpus is valid NDJSON")
        .schema
}

fn run_profiled(source: Source<'_>) -> typefuse_infer::ProfileReport {
    job()
        .run_profiled(source)
        .expect("generated corpus is valid NDJSON")
        .profile
}

fn bench_profile_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("profile_overhead");
    for profile in Profile::ALL {
        let n = 200usize;
        let text = corpus(profile, n);

        // Differential guards before anything is timed: the profiled
        // run fuses the same schema, and the text and tree walks produce
        // the same profile bytes.
        let plain = run_plain(&text);
        let via_events = run_profiled(Source::ndjson(text.as_bytes()));
        let values = text.lines().map(|line| parse_value(line).unwrap());
        let via_values = run_profiled(Source::values(values.collect()));
        assert_eq!(
            via_events.schema, plain,
            "profiled schema drifts on {profile}"
        );
        assert_eq!(
            via_events.to_json(),
            via_values.to_json(),
            "profile bytes differ between the text and tree walks on {profile}"
        );

        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(BenchmarkId::new("plain", profile), |b| {
            b.iter(|| run_plain(black_box(&text)).size())
        });
        group.bench_function(BenchmarkId::new("profiled", profile), |b| {
            b.iter(|| {
                run_profiled(Source::ndjson(black_box(&text).as_bytes()))
                    .paths
                    .len()
            })
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(15)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_profile_overhead
}
criterion_main!(benches);
