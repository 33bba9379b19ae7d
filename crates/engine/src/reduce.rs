//! The combine step of the Reduce phase: per-partition partials fused
//! pairwise in parallel rounds, like Spark's `treeReduce`.
//!
//! Fusion is associative and commutative (Theorems 5.4/5.5), so every
//! bracketing of the partials yields the same schema; the law suites
//! check that for every accumulator. The tree is the bracketing that
//! keeps one thread from combining them all, and the only one a run
//! takes.

use crate::runtime::{Runtime, WorkerPanic};
use parking_lot::Mutex;
use typefuse_obs::{span, Recorder};

/// Combine `partials` with the associative `op`, two at a time, in
/// parallel rounds until one is left; `None` on empty input.
///
/// Each pair keeps its left-to-right order, so the result is the left
/// fold's even for an operator that is associative but not commutative.
/// `op` is handed its left operand by value and returns it merged, so a
/// partial is never copied — `A` need not be `Clone`. A panic in `op`
/// surfaces as a [`WorkerPanic`] (the pair's index in its round) once
/// the round's other pairs have run.
///
/// With `rec` enabled, each round is wrapped in a `reduce.level.N` span
/// (level 0 combines the raw partials) and the `reduce.fan_in` histogram
/// records the number of partials entering it.
pub fn combine<A, F>(
    rt: &Runtime,
    mut partials: Vec<A>,
    op: F,
    rec: &Recorder,
) -> Result<Option<A>, WorkerPanic>
where
    A: Send,
    F: Fn(A, &A) -> A + Sync,
{
    let mut level = 0u32;
    while partials.len() > 1 {
        rec.record("reduce.fan_in", partials.len() as u64);
        let _level = span!(rec, "reduce.level", level);
        // The runtime lends each task its item; a pair is taken out of
        // its slot so the task can own (and drop) its partials.
        let mut pairs = Vec::new();
        let mut rest = partials.into_iter();
        while let Some(left) = rest.next() {
            pairs.push(Mutex::new(Some((left, rest.next()))));
        }
        let (combined, _) = rt.try_run_indexed(&pairs, |_, pair| {
            match pair.lock().take().expect("each pair is combined once") {
                (left, Some(right)) => op(left, &right),
                (left, None) => left,
            }
        });
        partials = combined?;
        level += 1;
    }
    Ok(partials.pop())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum(rt: &Runtime, partials: Vec<u64>) -> Option<u64> {
        combine(rt, partials, |a, b| a + b, &Recorder::disabled()).unwrap()
    }

    #[test]
    fn sequential_fold() {
        assert_eq!(sum(&Runtime::sequential(), vec![1, 2, 3, 4]), Some(10));
    }

    #[test]
    fn tree_matches_sequential_for_associative_ops() {
        let rt = Runtime::new(4);
        for n in [2u64, 3, 7, 8, 100] {
            assert_eq!(sum(&rt, (1..=n).collect()), Some(n * (n + 1) / 2), "{n}");
        }
    }

    #[test]
    fn empty_and_singleton() {
        let rt = Runtime::new(2);
        assert_eq!(sum(&rt, Vec::new()), None);
        assert_eq!(sum(&rt, vec![7]), Some(7));
    }

    #[test]
    fn string_concat_respects_group_order() {
        // Concatenation is associative but not commutative: the tree
        // must preserve the left-to-right order of partials.
        let rt = Runtime::new(4);
        let parts: Vec<String> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let out = combine(&rt, parts, |a, b| format!("{a}{b}"), &Recorder::disabled());
        assert_eq!(out.unwrap().as_deref(), Some("abcde"));
    }

    #[test]
    fn combine_recorded_emits_per_level_spans() {
        let rt = Runtime::new(2);
        let rec = Recorder::enabled();
        // 8 partials: levels of 8, 4, 2 partials → 3 rounds.
        let partials: Vec<u64> = (1..=8).collect();
        let r = combine(&rt, partials, |a, b| a + b, &rec);
        assert_eq!(r, Ok(Some(36)));
        let report = rec.snapshot();
        assert!(report.spans.contains_key("reduce.level.0"));
        assert!(report.spans.contains_key("reduce.level.1"));
        assert!(report.spans.contains_key("reduce.level.2"));
        assert!(!report.spans.contains_key("reduce.level.3"));
        let fan_in = &report.histograms["reduce.fan_in"];
        assert_eq!(fan_in.count, 3);
        assert_eq!(fan_in.sum, 8 + 4 + 2);
    }

    /// An accumulator that cannot be copied: that `combine` compiles over
    /// it is the proof that no round clones a partial.
    struct Owned(Vec<u32>);

    #[test]
    fn combine_owns_partials_that_are_not_clone() {
        let rt = Runtime::new(3);
        for n in [1, 2, 7] {
            let partials: Vec<Owned> = (0..n).map(|i| Owned(vec![i])).collect();
            let merged = combine(
                &rt,
                partials,
                |mut acc: Owned, other| {
                    acc.0.extend(&other.0);
                    acc
                },
                &Recorder::disabled(),
            );
            assert_eq!(
                merged.unwrap().expect("non-empty").0,
                (0..n).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn a_panicking_operator_is_a_worker_panic_and_other_groups_still_run() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let rt = Runtime::new(2);
        let merges = AtomicUsize::new(0);
        let partials: Vec<Owned> = (0..8).map(|i| Owned(vec![i])).collect();
        let outcome = combine(
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
            &Recorder::disabled(),
        );
        let panic = outcome.err().expect("the panic surfaces as a value");
        assert!(panic.message.contains("poisoned partial"), "{panic}");
        // Four pairs: (2, 3) panics, the other three still merge.
        assert_eq!((panic.partition, merges.into_inner()), (1, 3));
    }

    #[test]
    fn deep_tree_with_many_partials() {
        assert_eq!(sum(&Runtime::new(8), vec![1; 10_000]), Some(10_000));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        // The tree computes the left fold for an associative,
        // non-commutative operator (string concat), over any partials.
        #[test]
        fn combine_is_the_left_fold(
            partials in prop::collection::vec("[a-c]{0,3}", 0..40),
            workers in 1usize..4,
        ) {
            let tree = combine(
                &Runtime::new(workers),
                partials.clone(),
                |a: String, b: &String| a + b,
                &Recorder::disabled(),
            );
            prop_assert_eq!(tree.unwrap(), (!partials.is_empty()).then(|| partials.concat()));
        }
    }
}
