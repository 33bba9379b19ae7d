//! The Reduce phase head to head: the plain fold (every record's type
//! fused into the running schema) versus the shape-dedup route (types
//! hash-consed into ids, each distinct `schema ⊔ shape` step computed
//! once and replayed from the memo cache).
//!
//! Both fold the same pre-inferred types on one thread — a
//! plain [`SchemaAcc`] and a [`DedupAcc`] — so the numbers isolate the
//! Reduce: the Map cost is identical by construction. GitHub is the
//! high-redundancy profile (hundreds of records per shape: dedup should
//! win big); Wikidata's entity records are mostly distinct (the dedup
//! route degenerates to the plain fold plus interning overhead — the
//! honest lower bound).
//!
//! Every measurement first asserts the two routes produce byte-identical
//! schemas, so a run of this bench doubles as a differential check.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use typefuse_datagen::{DatasetProfile, Profile};
use typefuse_infer::{infer_type, Acc, DedupAcc, DedupMode, FuseConfig, SchemaAcc};
use typefuse_types::Type;

fn inferred(profile: Profile, n: usize) -> Vec<Type> {
    profile.generate(7, n).map(|v| infer_type(&v)).collect()
}

fn plain(types: &[Type]) -> Type {
    let mut acc = SchemaAcc::new(DedupMode::Off, FuseConfig::default());
    for ty in types {
        acc.absorb(ty);
    }
    acc.schema()
}

fn dedup(types: &[Type]) -> Type {
    let mut acc = DedupAcc::new();
    for ty in types {
        acc.absorb_type(FuseConfig::default(), ty);
    }
    acc.schema()
}

fn bench_dedup_speedup(c: &mut Criterion) {
    let mut group = c.benchmark_group("dedup_speedup");
    for (profile, n) in [(Profile::GitHub, 100_000), (Profile::Wikidata, 20_000)] {
        let data = inferred(profile, n);

        // Differential guard: identical schemas before anything is timed.
        let (plain_schema, dedup_schema) = (plain(&data), dedup(&data));
        assert_eq!(
            plain_schema, dedup_schema,
            "reduce routes disagree on {profile}: {plain_schema} vs {dedup_schema}"
        );

        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(BenchmarkId::new("plain", profile), |b| {
            b.iter(|| plain(black_box(&data)).size())
        });
        group.bench_function(BenchmarkId::new("dedup", profile), |b| {
            b.iter(|| dedup(black_box(&data)).size())
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
    targets = bench_dedup_speedup
}
criterion_main!(benches);
