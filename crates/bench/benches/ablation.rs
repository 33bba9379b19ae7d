//! The array-collapse ablation DESIGN.md calls out: the paper trades
//! array positional precision for succinctness (Section 2); the variant
//! keeps aligned positional arrays. We measure both time and resulting
//! schema size.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use typefuse_datagen::{DatasetProfile, Profile};
use typefuse_infer::{fuse_with, infer_type, ArrayFusion, FuseConfig};
use typefuse_types::Type;

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

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_array_collapse
}
criterion_main!(benches);
