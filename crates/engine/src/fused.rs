//! Trait-driven Reduce phase: the engine's reduce written once against
//! [`Fuser`].
//!
//! Every fusion strategy — plain [`FuseConfig`](typefuse_infer::FuseConfig)
//! fusion, recorded fusion, shape dedup, profiling — has the same shape
//! (identity / absorb / merge / extract), captured by the [`Fuser`]
//! trait, and goes through one of two dataset entry points:
//!
//! * [`Dataset::reduce_fused`] — over already inferred types;
//! * [`Dataset::reduce_items`] — over any item with a caller-supplied
//!   absorb step (the profiled pipeline's `(line, value)` pairs, where
//!   absorb needs the input line for provenance).
//!
//! Both run partition-local folds on the [`Runtime`], drop identity
//! partials (empty partitions — the `ε` of Theorem 5.4), and combine the
//! rest with [`ReducePlan::combine_recorded`], so reduce topology,
//! per-level spans and fan-in histograms work identically for every
//! strategy.

use crate::dataset::Dataset;
use crate::metrics::StageMetrics;
use crate::reduce::ReducePlan;
use crate::runtime::{Runtime, WorkerPanic};
use typefuse_infer::Fuser;
use typefuse_obs::Recorder;
use typefuse_types::Type;

/// Fold one partition into a strategy accumulator.
fn fold_partition<T, F, A>(fuser: &F, part: &[T], absorb: A) -> F::Acc
where
    F: Fuser,
    A: Fn(&F, &mut F::Acc, &T),
{
    let mut acc = fuser.empty();
    for item in part {
        absorb(fuser, &mut acc, item);
    }
    acc
}

/// Combine per-partition partials under `plan`, dropping identities.
fn combine_partials<F: Fuser>(
    rt: &Runtime,
    plan: ReducePlan,
    fuser: &F,
    partials: Vec<F::Acc>,
    rec: &Recorder,
) -> Result<Option<F::Acc>, WorkerPanic> {
    let partials: Vec<F::Acc> = partials
        .into_iter()
        .filter(|acc| !fuser.is_empty_acc(acc))
        .collect();
    plan.try_combine_recorded(
        rt,
        partials,
        |mut acc, other| {
            fuser.merge(&mut acc, other);
            acc
        },
        rec,
    )
}

impl<T: Send + Sync> Dataset<T> {
    /// The fully generic reduce: fold every partition with a
    /// caller-supplied absorb step, then combine the non-identity
    /// partials under `plan`. [`Dataset::reduce_fused`] is a thin
    /// wrapper; callers with richer items — e.g. the profiled pipeline's
    /// `(line, value)` pairs, where absorb needs the input line for
    /// provenance — use this directly.
    pub fn reduce_items<F, A>(
        &self,
        rt: &Runtime,
        plan: ReducePlan,
        fuser: &F,
        rec: &Recorder,
        absorb: A,
    ) -> (Option<F::Acc>, StageMetrics)
    where
        F: Fuser,
        A: Fn(&F, &mut F::Acc, &T) + Sync,
    {
        let (acc, metrics) = self.try_reduce_items(rt, plan, fuser, rec, absorb);
        match acc {
            Ok(acc) => (acc, metrics),
            Err(p) => panic!("{p}"),
        }
    }

    /// [`Dataset::reduce_items`] with panic isolation: a panic in the
    /// absorb step or in the strategy's `merge` surfaces as a
    /// [`WorkerPanic`] instead of aborting the process.
    pub fn try_reduce_items<F, A>(
        &self,
        rt: &Runtime,
        plan: ReducePlan,
        fuser: &F,
        rec: &Recorder,
        absorb: A,
    ) -> (Result<Option<F::Acc>, WorkerPanic>, StageMetrics)
    where
        F: Fuser,
        A: Fn(&F, &mut F::Acc, &T) + Sync,
    {
        let (partials, metrics) = rt.try_run_indexed(self.partitions(), |_, part: &Vec<T>| {
            fold_partition(fuser, part, &absorb)
        });
        let acc = partials.and_then(|partials| combine_partials(rt, plan, fuser, partials, rec));
        (acc, metrics)
    }
}

impl Dataset<Type> {
    /// Reduce a dataset of inferred types to one fused schema with the
    /// given strategy. Returns `None` for an empty dataset (the paper's
    /// fusion has no bottom-free answer for zero records).
    pub fn reduce_fused<F: Fuser>(
        &self,
        rt: &Runtime,
        plan: ReducePlan,
        fuser: &F,
        rec: &Recorder,
    ) -> (Option<Type>, StageMetrics) {
        let (acc, metrics) =
            self.reduce_items(rt, plan, fuser, rec, |f, acc, ty| f.absorb_type(acc, ty));
        (acc.map(|acc| fuser.finish_schema(acc)), metrics)
    }

    /// [`Dataset::reduce_fused`] with panic isolation.
    pub fn try_reduce_fused<F: Fuser>(
        &self,
        rt: &Runtime,
        plan: ReducePlan,
        fuser: &F,
        rec: &Recorder,
    ) -> (Result<Option<Type>, WorkerPanic>, StageMetrics) {
        let (acc, metrics) =
            self.try_reduce_items(rt, plan, fuser, rec, |f, acc, ty| f.absorb_type(acc, ty));
        (
            acc.map(|acc| acc.map(|acc| fuser.finish_schema(acc))),
            metrics,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typefuse_infer::{fuse_all, infer_type, FuseConfig, RecordedFuser};
    use typefuse_json::json;
    use typefuse_json::Value;

    fn values() -> Vec<Value> {
        vec![
            json!({"a": 1, "b": "x"}),
            json!({"a": null}),
            json!({"a": 1, "c": [true]}),
            json!({"a": "s"}),
        ]
    }

    #[test]
    fn reduce_fused_matches_fuse_all() {
        let rt = Runtime::new(4);
        let types: Vec<Type> = values().iter().map(infer_type).collect();
        let expected = fuse_all(&types);
        for parts in 1..=5 {
            let d = Dataset::from_vec(types.clone(), parts);
            let (fused, _) = d.reduce_fused(
                &rt,
                ReducePlan::default(),
                &FuseConfig::default(),
                &Recorder::disabled(),
            );
            assert_eq!(fused, Some(expected.clone()), "{parts} partitions");
        }
    }

    #[test]
    fn empty_partitions_are_identity() {
        let rt = Runtime::new(2);
        let ty = infer_type(&json!({"k": 0}));
        let d = Dataset::from_partitions(vec![vec![], vec![ty.clone()], vec![]]);
        let (fused, _) = d.reduce_fused(
            &rt,
            ReducePlan::default(),
            &FuseConfig::default(),
            &Recorder::disabled(),
        );
        assert_eq!(fused, Some(ty));
    }

    #[test]
    fn empty_dataset_reduces_to_none() {
        let rt = Runtime::sequential();
        let d: Dataset<Type> = Dataset::from_partitions(vec![vec![], vec![]]);
        let (fused, _) = d.reduce_fused(
            &rt,
            ReducePlan::default(),
            &FuseConfig::default(),
            &Recorder::disabled(),
        );
        assert_eq!(fused, None);
    }

    #[test]
    fn recorded_fuser_counts_fusions_not_moves() {
        let rt = Runtime::new(2);
        let rec = Recorder::enabled();
        let types: Vec<Type> = values().iter().map(infer_type).collect();
        let d = Dataset::from_vec(types.clone(), 2);
        let fuser = RecordedFuser::new(FuseConfig::default(), rec.clone());
        let (fused, _) = d.reduce_fused(&rt, ReducePlan::default(), &fuser, &rec);
        assert_eq!(fused, Some(fuse_all(&types)));
        // 4 records in 2 partitions: one in-partition fusion each (the
        // first absorb is a move into ε), plus one cross-partition merge.
        assert_eq!(rec.counter_value("fuse.calls"), 3);
    }

    #[test]
    fn reduce_items_profiles_with_line_provenance() {
        use typefuse_infer::Profiling;
        let lines: Vec<(u64, Value)> = values()
            .into_iter()
            .enumerate()
            .map(|(i, v)| (i as u64 + 1, v))
            .collect();
        let fuser = Profiling::default();
        let baseline = {
            let d = Dataset::from_vec(lines.clone(), 1);
            d.reduce_items(
                &Runtime::sequential(),
                ReducePlan::Sequential,
                &fuser,
                &Recorder::disabled(),
                |_, acc, (line, v): &(u64, Value)| acc.absorb_value_at(*line, v),
            )
            .0
            .expect("non-empty")
            .finish()
        };
        // b appears only at line 1, so line 2 demoted it.
        assert_eq!(baseline.get("$.b").unwrap().first_absent_line, Some(2));
        assert_eq!(baseline.get("$.a").unwrap().first_absent_line, None);
        let rt = Runtime::new(4);
        for parts in 2..=5 {
            for plan in [ReducePlan::Sequential, ReducePlan::Tree { arity: 2 }] {
                let d = Dataset::from_vec(lines.clone(), parts);
                let (acc, _) = d.reduce_items(
                    &rt,
                    plan,
                    &fuser,
                    &Recorder::disabled(),
                    |_, acc, (line, v): &(u64, Value)| acc.absorb_value_at(*line, v),
                );
                let profile = acc.expect("non-empty").finish();
                assert_eq!(profile, baseline, "{parts} partitions, {plan:?}");
                assert_eq!(profile.to_json(), baseline.to_json());
            }
        }
    }

    #[test]
    fn dedup_fuser_rides_reduce_fused_unchanged() {
        use typefuse_infer::DedupFuser;
        let rt = Runtime::new(4);
        // Repeat the values so shapes actually dedup.
        let types: Vec<Type> = values().iter().cycle().take(20).map(infer_type).collect();
        let expected = fuse_all(&types);
        let fuser = DedupFuser::plain(FuseConfig::default());
        for parts in 1..=5 {
            for plan in [ReducePlan::Sequential, ReducePlan::Tree { arity: 2 }] {
                let d = Dataset::from_vec(types.clone(), parts);
                let (fused, _) = d.reduce_fused(&rt, plan, &fuser, &Recorder::disabled());
                assert_eq!(
                    fused,
                    Some(expected.clone()),
                    "{parts} partitions, {plan:?}"
                );
            }
        }
    }

    #[test]
    fn dedup_fuser_emits_cache_and_shape_counters() {
        use typefuse_infer::DedupFuser;
        let rt = Runtime::new(2);
        let rec = Recorder::enabled();
        let types: Vec<Type> = values().iter().cycle().take(20).map(infer_type).collect();
        let d = Dataset::from_vec(types, 2);
        let fuser = DedupFuser::new(FuseConfig::default(), rec.clone());
        let (fused, _) = d.reduce_fused(&rt, ReducePlan::default(), &fuser, &rec);
        assert!(fused.is_some());
        assert_eq!(rec.counter_value("infer.distinct_shapes"), 4);
        assert!(rec.counter_value("fuse.cache_hits") > 0, "repeats hit");
        assert!(rec.counter_value("fuse.calls") > 0);
    }
}
