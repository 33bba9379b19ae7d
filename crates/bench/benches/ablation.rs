//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Array collapse on/off** — the paper trades array positional
//!    precision for succinctness (Section 2); the variant keeps aligned
//!    positional arrays. We measure both time and resulting schema size.
//! 2. **Reduce topology** — sequential driver fold vs parallel tree
//!    reduce over per-partition schemas (associativity makes them
//!    equivalent in output; Theorem 5.5).
//! 3. **Fusion accumulation order** — absorbing record types one at a
//!    time vs pre-fusing in pairs (tree) on one thread.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use typefuse_datagen::{DatasetProfile, Profile};
use typefuse_engine::{Dataset, ReducePlan, Runtime};
use typefuse_infer::{fuse, fuse_into, fuse_with, infer_type, ArrayFusion, FuseConfig};
use typefuse_types::Type;

/// The engine's combine operator as the pipeline runs it: the left
/// partial is owned and widened in place.
fn merge(mut acc: Type, other: &Type) -> Type {
    fuse_into(FuseConfig::default(), &mut acc, other);
    acc
}

fn twitter_types(n: usize) -> Vec<Type> {
    Profile::Twitter
        .generate(5, n)
        .map(|v| infer_type(&v))
        .collect()
}

fn bench_array_collapse(c: &mut Criterion) {
    let types = twitter_types(1_000);
    let mut group = c.benchmark_group("ablation_array_fusion");
    for (name, mode) in [
        ("collapse_paper", ArrayFusion::Collapse),
        (
            "positional_when_aligned",
            ArrayFusion::PositionalWhenAligned,
        ),
    ] {
        let cfg = FuseConfig { array_fusion: mode };
        group.bench_function(name, |b| {
            b.iter(|| {
                types
                    .iter()
                    .fold(Type::Bottom, |acc, t| fuse_with(cfg, black_box(&acc), t))
                    .size()
            })
        });
    }
    group.finish();

    // Also report (once) the schema-size consequence of the ablation,
    // which is the real trade-off the paper discusses.
    let collapse = types.iter().fold(Type::Bottom, |a, t| {
        fuse_with(
            FuseConfig {
                array_fusion: ArrayFusion::Collapse,
            },
            &a,
            t,
        )
    });
    let positional = types.iter().fold(Type::Bottom, |a, t| {
        fuse_with(
            FuseConfig {
                array_fusion: ArrayFusion::PositionalWhenAligned,
            },
            &a,
            t,
        )
    });
    eprintln!(
        "[ablation] fused schema size — collapse: {}, positional-when-aligned: {}",
        collapse.size(),
        positional.size()
    );
}

fn bench_reduce_topology(c: &mut Criterion) {
    // Per-partition schemas of a 64-partition Wikidata job: the partials
    // whose combination topology Table 8 is about.
    let partials: Vec<Type> = (0..64u64)
        .map(|p| {
            Profile::Wikidata
                .generate(p, 40)
                .map(|v| infer_type(&v))
                .fold(Type::Bottom, |a, t| fuse(&a, &t))
        })
        .collect();
    let rt = Runtime::default();
    let mut group = c.benchmark_group("ablation_reduce_topology");
    for (name, plan) in [
        ("sequential", ReducePlan::Sequential),
        ("tree_arity2", ReducePlan::Tree { arity: 2 }),
        ("tree_arity8", ReducePlan::Tree { arity: 8 }),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &plan, |b, &plan| {
            b.iter(|| plan.combine(&rt, partials.clone(), merge).unwrap().size())
        });
    }
    group.finish();
}

fn bench_dataset_reduce_vs_aggregate(c: &mut Criterion) {
    // Spark idiom comparison: map-then-reduce materialises the types;
    // aggregate folds them into the accumulator as they are produced.
    let values: Vec<_> = Profile::GitHub.generate(9, 1_000).collect();
    let rt = Runtime::default();
    let dataset = Dataset::from_vec(values, rt.workers() * 4);
    let mut group = c.benchmark_group("ablation_reduce_vs_aggregate");
    group.bench_function("map_then_reduce", |b| {
        b.iter(|| {
            dataset
                .map(&rt, infer_type)
                .reduce(&rt, ReducePlan::default(), merge)
                .unwrap()
                .size()
        })
    });
    group.bench_function("aggregate_fused", |b| {
        b.iter(|| {
            dataset
                .aggregate(
                    &rt,
                    ReducePlan::default(),
                    || Type::Bottom,
                    |acc, v| merge(acc, &infer_type(v)),
                    merge,
                )
                .size()
        })
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_array_collapse, bench_reduce_topology, bench_dataset_reduce_vs_aggregate
}
criterion_main!(benches);
