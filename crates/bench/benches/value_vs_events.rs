//! The paper's literal reading against the text route: tree inference
//! (parse each line into a `Value` with `parse_value`, then run the
//! values through `SchemaJob::run(Source::values(..))`, i.e. Figure 4 and
//! the Reduce) versus the default events route
//! (`SchemaJob::run(Source::ndjson(..))`, which types each line straight
//! from its bytes). Both include partitioning, Map and Reduce — the
//! numbers are records/s of the whole ingest, not just the inference
//! kernel.
//!
//! Beside them, the typing layer alone, line by line with nothing
//! around it: `direct` is the validating typer the events route runs
//! (`Typer` with the `()` observer), `direct+profile` the same walk with
//! the profile trie observing, `event_fold` the pull-parser fold the
//! typer replaced on the hot path and still replays declined lines
//! through — the in-repo reproduction of `perf/`'s
//! `infer.streaming` / `infer.profile` layer numbers.
//!
//! Every measurement first asserts the two arms produce byte-identical
//! schemas on the profile.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use typefuse::pipeline::{SchemaJob, Source};
use typefuse::JobConfig;
use typefuse_datagen::{DatasetProfile, Profile};
use typefuse_infer::streaming::event_fold;
use typefuse_infer::{Incremental, ProfileAcc, Typer};
use typefuse_json::{parse_value, ParserOptions};

fn corpus(profile: Profile, n: usize) -> String {
    let values: Vec<_> = profile.generate(7, n).collect();
    let mut text = Vec::new();
    typefuse_json::ndjson::write_ndjson(&mut text, &values).unwrap();
    String::from_utf8(text).unwrap()
}

fn job() -> SchemaJob {
    JobConfig::new().without_type_stats().build()
}

/// The events route over the NDJSON text.
fn run_events(text: &str) -> typefuse_types::Type {
    job()
        .run(Source::ndjson(text.as_bytes()))
        .expect("generated corpus is valid NDJSON")
        .schema
}

/// The tree route: `parse_value` per line, then the value pipeline.
fn run_values(text: &str) -> typefuse_types::Type {
    let values = text.lines().map(|line| parse_value(line).unwrap());
    job()
        .run(Source::values(values.collect()))
        .expect("in-memory sources cannot fail")
        .schema
}

fn bench_value_vs_events(c: &mut Criterion) {
    let mut group = c.benchmark_group("value_vs_events");
    for profile in Profile::ALL {
        let n = 200usize;
        let text = corpus(profile, n);

        // Differential guard: identical schemas before anything is timed.
        let via_events = run_events(&text);
        let via_values = run_values(&text);
        assert_eq!(
            via_events, via_values,
            "the events and tree routes disagree on {profile}: {via_events} vs {via_values}"
        );

        let lines: Vec<&[u8]> = text.lines().map(str::as_bytes).collect();
        let options = ParserOptions::default();
        let mut typer = Typer::default();
        let mut fused = Incremental::new();
        for line in &lines {
            let ty = typer.type_line(line, 512, &mut (), 0);
            fused.absorb_type(ty.expect("the typer answers on generated lines"));
        }
        assert_eq!(
            fused.into_schema(),
            via_events,
            "the typer alone on {profile}"
        );

        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(BenchmarkId::new("events", profile), |b| {
            b.iter(|| run_events(black_box(&text)).size())
        });
        group.bench_function(BenchmarkId::new("value", profile), |b| {
            b.iter(|| run_values(black_box(&text)).size())
        });
        group.bench_function(BenchmarkId::new("direct", profile), |b| {
            b.iter(|| {
                for line in black_box(&lines) {
                    black_box(typer.type_line(line, 512, &mut (), 0));
                }
            })
        });
        group.bench_function(BenchmarkId::new("direct+profile", profile), |b| {
            b.iter(|| {
                let mut acc = ProfileAcc::new();
                for (i, line) in black_box(&lines).iter().enumerate() {
                    let ty = acc.observe_line(i as u64 + 1, line, &options);
                    black_box(ty.expect("generated lines are well-formed"));
                }
                acc
            })
        });
        group.bench_function(BenchmarkId::new("event_fold", profile), |b| {
            b.iter(|| {
                for line in black_box(&lines) {
                    black_box(event_fold(line, &options).ok());
                }
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
    targets = bench_value_vs_events
}
criterion_main!(benches);
