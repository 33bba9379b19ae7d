//! Combine topologies for the Reduce phase.
//!
//! With an associative operator every topology yields the same result
//! (Theorem 5.5 is exactly what licenses this); they differ only in
//! wall-clock behaviour:
//!
//! * [`ReducePlan::Sequential`] — fold the partials left to right on the
//!   driver, like Spark's `reduce` action collecting to the driver.
//! * [`ReducePlan::Tree`] — combine in parallel rounds of arity `k`, like
//!   Spark's `treeReduce`. With many per-partition partials this keeps
//!   the driver from becoming the bottleneck.
//!
//! The `reduce_topology` ablation bench measures the difference on real
//! fused types.

use crate::runtime::{Runtime, WorkerPanic};
use parking_lot::Mutex;
use typefuse_obs::{span, Recorder};

/// How partial results are combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReducePlan {
    /// Left fold on the calling thread.
    Sequential,
    /// Parallel rounds; each round combines groups of `arity` partials.
    Tree {
        /// Group size per round (values < 2 are clamped to 2).
        arity: usize,
    },
}

impl Default for ReducePlan {
    fn default() -> Self {
        ReducePlan::Tree { arity: 2 }
    }
}

impl ReducePlan {
    /// Combine the partials with the associative `op` according to this
    /// plan. Partials keep their left-to-right order within every group,
    /// so the plan is order-correct even for non-commutative associative
    /// operators. Returns `None` on empty input.
    ///
    /// The plan owns the partials: `op` is handed its left operand by
    /// value and returns it merged, so an accumulator is never copied —
    /// `A` need not be `Clone`.
    pub fn combine<A, F>(self, rt: &Runtime, partials: Vec<A>, op: F) -> Option<A>
    where
        A: Send,
        F: Fn(A, &A) -> A + Sync,
    {
        self.combine_recorded(rt, partials, op, &Recorder::disabled())
    }

    /// [`ReducePlan::combine`] with per-level instrumentation.
    ///
    /// When `rec` is enabled, each combine round is wrapped in a
    /// `reduce.level.N` span (level 0 is the first round over the raw
    /// partials) and the `reduce.fan_in` histogram records the number of
    /// partials entering every level. A `Sequential` plan is one level.
    /// With a disabled recorder this is exactly [`ReducePlan::combine`].
    pub fn combine_recorded<A, F>(
        self,
        rt: &Runtime,
        partials: Vec<A>,
        op: F,
        rec: &Recorder,
    ) -> Option<A>
    where
        A: Send,
        F: Fn(A, &A) -> A + Sync,
    {
        match self.try_combine_recorded(rt, partials, op, rec) {
            Ok(r) => r,
            Err(p) => panic!("{p}"),
        }
    }

    /// [`ReducePlan::combine_recorded`] with panic isolation: a panic in
    /// the combine operator surfaces as a [`WorkerPanic`] instead of
    /// aborting the process.
    pub fn try_combine_recorded<A, F>(
        self,
        rt: &Runtime,
        partials: Vec<A>,
        op: F,
        rec: &Recorder,
    ) -> Result<Option<A>, WorkerPanic>
    where
        A: Send,
        F: Fn(A, &A) -> A + Sync,
    {
        // A sequential fold is one group — one level, reported even when
        // it has nothing to combine — on the driver thread; a tree
        // re-groups `arity` partials at a time until one is left.
        let (arity, sequential) = match self {
            ReducePlan::Sequential => (usize::MAX, true),
            ReducePlan::Tree { arity } => (arity.max(2), false),
        };
        let mut partials = partials;
        let mut level = 0u32;
        while partials.len() > 1 || (sequential && level == 0) {
            rec.record("reduce.fan_in", partials.len() as u64);
            let _level = span!(rec, "reduce.level", level);
            // The runtime lends each task its item; a group is taken out
            // of its slot so the fold can own (and drop) its partials.
            let mut groups: Vec<Mutex<Vec<A>>> = Vec::new();
            let mut rest = partials.into_iter().peekable();
            while rest.peek().is_some() {
                groups.push(Mutex::new(rest.by_ref().take(arity).collect()));
            }
            let (combined, _) = rt.try_run_indexed(&groups, |_, group| {
                let mut group = std::mem::take(&mut *group.lock()).into_iter();
                let first = group.next().expect("groups are non-empty");
                group.fold(first, |acc, item| op(acc, &item))
            });
            partials = combined?;
            level += 1;
        }
        Ok(partials.pop())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_fold() {
        let rt = Runtime::sequential();
        let r = ReducePlan::Sequential.combine(&rt, vec![1, 2, 3, 4], |a, b| a + b);
        assert_eq!(r, Some(10));
    }

    #[test]
    fn tree_matches_sequential_for_associative_ops() {
        let rt = Runtime::new(4);
        let partials: Vec<u64> = (1..=100).collect();
        let seq = ReducePlan::Sequential.combine(&rt, partials.clone(), |a, b| a + b);
        for arity in [2, 3, 4, 8, 100] {
            let tree = ReducePlan::Tree { arity }.combine(&rt, partials.clone(), |a, b| a + b);
            assert_eq!(tree, seq, "arity {arity}");
        }
    }

    #[test]
    fn empty_and_singleton() {
        let rt = Runtime::new(2);
        assert_eq!(
            ReducePlan::default().combine(&rt, Vec::<u32>::new(), |a, b| a + b),
            None
        );
        assert_eq!(
            ReducePlan::default().combine(&rt, vec![7u32], |a, b| a + b),
            Some(7)
        );
    }

    #[test]
    fn arity_is_clamped() {
        let rt = Runtime::new(2);
        let r = ReducePlan::Tree { arity: 0 }.combine(&rt, vec![1, 2, 3], |a, b| a + b);
        assert_eq!(r, Some(6));
    }

    #[test]
    fn string_concat_respects_group_order() {
        // Concatenation is associative but not commutative: tree reduce
        // must preserve the left-to-right order of partials.
        let rt = Runtime::new(4);
        let parts: Vec<String> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let out = ReducePlan::Tree { arity: 2 }.combine(&rt, parts, |a, b| format!("{a}{b}"));
        assert_eq!(out.as_deref(), Some("abcde"));
    }

    #[test]
    fn combine_recorded_emits_per_level_spans() {
        let rt = Runtime::new(2);
        let rec = Recorder::enabled();
        // 8 partials at arity 2: levels of 8, 4, 2 partials → 3 rounds.
        let partials: Vec<u64> = (1..=8).collect();
        let r = ReducePlan::Tree { arity: 2 }.combine_recorded(&rt, partials, |a, b| a + b, &rec);
        assert_eq!(r, Some(36));
        let report = rec.snapshot();
        assert!(report.spans.contains_key("reduce.level.0"));
        assert!(report.spans.contains_key("reduce.level.1"));
        assert!(report.spans.contains_key("reduce.level.2"));
        assert!(!report.spans.contains_key("reduce.level.3"));
        let fan_in = &report.histograms["reduce.fan_in"];
        assert_eq!(fan_in.count, 3);
        assert_eq!(fan_in.sum, 8 + 4 + 2);
    }

    #[test]
    fn combine_recorded_sequential_is_one_level() {
        let rt = Runtime::sequential();
        let rec = Recorder::enabled();
        let r = ReducePlan::Sequential.combine_recorded(&rt, vec![1u64, 2, 3], |a, b| a + b, &rec);
        assert_eq!(r, Some(6));
        let report = rec.snapshot();
        assert_eq!(report.spans["reduce.level.0"].count, 1);
        assert_eq!(report.histograms["reduce.fan_in"].sum, 3);
    }

    /// An accumulator that cannot be copied: that `combine` compiles over
    /// it is the proof that no plan clones a partial.
    struct Owned(Vec<u32>);

    #[test]
    fn combine_owns_partials_that_are_not_clone() {
        let rt = Runtime::new(3);
        for plan in [
            ReducePlan::Sequential,
            ReducePlan::Tree { arity: 2 },
            ReducePlan::Tree { arity: 3 },
        ] {
            let partials: Vec<Owned> = (0..7).map(|i| Owned(vec![i])).collect();
            let merged = plan.combine(&rt, partials, |mut acc: Owned, other| {
                acc.0.extend(&other.0);
                acc
            });
            assert_eq!(merged.expect("non-empty").0, (0..7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_panicking_operator_is_a_worker_panic_and_other_groups_still_run() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let rt = Runtime::new(2);
        let rec = Recorder::disabled();
        for plan in [ReducePlan::Sequential, ReducePlan::Tree { arity: 2 }] {
            let merges = AtomicUsize::new(0);
            let partials: Vec<Owned> = (0..8).map(|i| Owned(vec![i])).collect();
            let outcome = plan.try_combine_recorded(
                &rt,
                partials,
                |mut acc: Owned, other| {
                    if other.0 == [3] {
                        panic!("poisoned partial");
                    }
                    merges.fetch_add(1, Ordering::Relaxed);
                    acc.0.extend(&other.0);
                    acc
                },
                &rec,
            );
            let panic = outcome.err().expect("the panic surfaces as a value");
            assert!(panic.message.contains("poisoned partial"), "{panic}");
            match plan {
                // One group: the fold stops at the poisoned partial.
                ReducePlan::Sequential => {
                    assert_eq!((panic.partition, merges.into_inner()), (0, 2))
                }
                // Four pairs: (2, 3) panics, the other three still merge.
                ReducePlan::Tree { .. } => {
                    assert_eq!((panic.partition, merges.into_inner()), (1, 3))
                }
            }
        }
    }

    #[test]
    fn deep_tree_with_many_partials() {
        let rt = Runtime::new(8);
        let partials: Vec<u64> = vec![1; 10_000];
        let r = ReducePlan::Tree { arity: 2 }.combine(&rt, partials, |a, b| a + b);
        assert_eq!(r, Some(10_000));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        // Every topology computes the same result for an associative,
        // non-commutative operator (string concat), over any partials.
        #[test]
        fn all_plans_agree(
            partials in prop::collection::vec("[a-c]{0,3}", 0..40),
            arity in 0usize..10,
        ) {
            let rt = Runtime::new(3);
            let seq = ReducePlan::Sequential.combine(
                &rt,
                partials.clone(),
                |a: String, b: &String| a + b,
            );
            let tree = ReducePlan::Tree { arity }.combine(
                &rt,
                partials.clone(),
                |a: String, b: &String| a + b,
            );
            prop_assert_eq!(&tree, &seq);
            prop_assert_eq!(seq, (!partials.is_empty()).then(|| partials.concat()));
        }

        // Dataset::reduce is invariant under the partition count.
        #[test]
        fn dataset_reduce_is_partition_invariant(
            items in prop::collection::vec(0u64..1000, 0..60),
            parts in 1usize..12,
        ) {
            let rt = Runtime::new(4);
            let expected = items.iter().copied().reduce(u64::wrapping_add);
            let d = crate::Dataset::from_vec(items, parts);
            let got = d.reduce(&rt, ReducePlan::default(), |a, b| a.wrapping_add(*b));
            prop_assert_eq!(got, expected);
        }

        // aggregate == map-then-reduce for a homomorphic accumulator.
        #[test]
        fn aggregate_matches_map_reduce(
            items in prop::collection::vec("[a-z]{0,5}", 1..40),
            parts in 1usize..6,
        ) {
            let rt = Runtime::new(2);
            let d = crate::Dataset::from_vec(items, parts);
            let via_aggregate = d.aggregate(
                &rt,
                ReducePlan::default(),
                || 0usize,
                |acc, s| acc + s.len(),
                |a, b| a + b,
            );
            let via_map = d
                .map(&rt, |s| s.len())
                .reduce(&rt, ReducePlan::default(), |a, b| a + b)
                .unwrap_or(0);
            prop_assert_eq!(via_aggregate, via_map);
        }
    }
}
