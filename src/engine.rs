//! The execution substrate standing in for Apache Spark.
//!
//! The paper (Section 5.2) needs two things from Spark: a parallel map
//! and an associative reduce over a partitioned collection. [`Runtime`]
//! runs one task per partition with panic isolation, and [`combine`]
//! merges the per-partition partials in parallel rounds of pairs, like
//! Spark's `treeReduce`. Associativity of the reduce operator is what
//! makes every bracketing equivalent, so the pipeline folds and merges
//! its accumulators directly on these two (see [`crate::pipeline`]).
//!
//! Each parallel operation runs inside [`std::thread::scope`], so task
//! closures may borrow the caller's data — no `Arc` plumbing, no
//! `'static` bounds, no unsafe. Workers claim the next partition index
//! from one shared counter until none is left, which balances the load
//! when partitions are skewed (the NYTimes profile produces very uneven
//! record sizes). Every stage reports per-task timings as a
//! [`StageReport`].

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use typefuse_obs::{span, Recorder, StageReport, TaskReport};

/// A task closure panicked on a worker thread.
///
/// Returned by [`Runtime::try_run_indexed`] so that one poisoned record
/// or a bug in a map closure surfaces as an error value instead of
/// tearing down the whole process. When several tasks panic in the same
/// stage, the one with the lowest partition index is reported (results
/// are deterministic across worker counts) and `panics` carries the
/// total count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Partition index of the reported (lowest-index) panicking task.
    pub partition: usize,
    /// The panic payload, rendered to a string.
    pub message: String,
    /// Total number of tasks that panicked in this stage.
    pub panics: usize,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker panicked on partition {}: {}",
            self.partition, self.message
        )?;
        if self.panics > 1 {
            write!(f, " ({} tasks panicked in total)", self.panics)?;
        }
        Ok(())
    }
}

impl std::error::Error for WorkerPanic {}

/// Render a caught panic payload as a string.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A parallel execution context with a fixed worker count.
#[derive(Debug, Clone)]
pub struct Runtime {
    workers: usize,
}

impl Default for Runtime {
    fn default() -> Self {
        Self::new(available_workers())
    }
}

/// Number of workers used by [`Runtime::default`]: the machine's
/// available parallelism, or 1 if it cannot be determined.
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

impl Runtime {
    /// A runtime with exactly `workers` worker threads (minimum 1).
    pub fn new(workers: usize) -> Self {
        Runtime {
            workers: workers.max(1),
        }
    }

    /// A single-threaded runtime, for baselines and deterministic tests.
    pub fn sequential() -> Self {
        Runtime { workers: 1 }
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `task(i, &items[i])` for every index in parallel and collect
    /// the results in input order, together with per-task timings.
    ///
    /// `task` is shared by all workers, hence `Fn + Sync`. A panicking
    /// task re-raises the panic on the caller's thread; use
    /// [`try_run_indexed`](Runtime::try_run_indexed) to get it as an
    /// error value instead.
    pub fn run_indexed<T, R, F>(&self, items: &[T], task: F) -> (Vec<R>, StageReport)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let (result, stage) = self.try_run_indexed(items, task);
        match result {
            Ok(out) => (out, stage),
            Err(p) => panic!("{p}"),
        }
    }

    /// Like [`run_indexed`](Runtime::run_indexed), but with panic
    /// isolation: each task runs under [`std::panic::catch_unwind`], so
    /// a poisoned task surfaces as [`WorkerPanic`] instead of aborting
    /// the process. All remaining tasks still run to completion, the
    /// panic on the lowest partition index wins, and the timings cover
    /// every task.
    ///
    /// The returned [`StageReport`] is unnamed; its tasks are in
    /// partition order. Every task counts as submitted at stage start,
    /// so a task's queue wait is its start offset within the stage.
    pub fn try_run_indexed<T, R, F>(
        &self,
        items: &[T],
        task: F,
    ) -> (Result<Vec<R>, WorkerPanic>, StageReport)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let stage_start = Instant::now();
        let n = items.len();
        let run = |i: usize, worker: usize| {
            let t0 = Instant::now();
            let outcome =
                catch_unwind(AssertUnwindSafe(|| task(i, &items[i]))).map_err(panic_message);
            let timing = TaskReport {
                partition: i,
                worker,
                queue_wait_ns: t0.saturating_duration_since(stage_start).as_nanos() as u64,
                execute_ns: t0.elapsed().as_nanos() as u64,
            };
            (outcome, timing)
        };

        let entries: Vec<(Result<R, String>, TaskReport)> = if self.workers == 1 || n <= 1 {
            // Fast path: no threads.
            (0..n).map(|i| run(i, 0)).collect()
        } else {
            // The claim counter publishes no data (results come back
            // through `join`), so `Relaxed` suffices.
            let next = AtomicUsize::new(0);
            let mut slots: Vec<Option<_>> = (0..n).map(|_| None).collect();
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..self.workers.min(n))
                    .map(|worker| {
                        let (next, run) = (&next, &run);
                        scope.spawn(move || {
                            let mut done = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= n {
                                    return done;
                                }
                                done.push(run(i, worker));
                            }
                        })
                    })
                    .collect();
                for handle in handles {
                    let done = handle.join().expect("tasks catch their own panics");
                    for (outcome, timing) in done {
                        slots[timing.partition] = Some((outcome, timing));
                    }
                }
            });
            slots
                .into_iter()
                .map(|slot| slot.expect("every task ran to completion"))
                .collect()
        };

        let (outcomes, tasks): (Vec<_>, Vec<_>) = entries.into_iter().unzip();
        let stage = StageReport {
            name: String::new(),
            wall_ns: stage_start.elapsed().as_nanos() as u64,
            tasks,
        };
        let panics = outcomes.iter().filter(|r| r.is_err()).count();
        let results = outcomes
            .into_iter()
            .enumerate()
            .map(|(partition, outcome)| {
                outcome.map_err(|message| WorkerPanic {
                    partition,
                    message,
                    panics,
                })
            })
            .collect();
        (results, stage)
    }
}

/// Combine `partials` with the associative `op`, two at a time, in
/// parallel rounds until one is left; `None` on empty input.
///
/// Fusion is associative and commutative (Theorems 5.4/5.5), so every
/// bracketing of the partials yields the same schema; the law suites
/// check that for every accumulator. The tree is the bracketing that
/// keeps one thread from combining them all, and the only one a run
/// takes.
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
            let taken = pair
                .lock()
                .expect("a pair is locked only to take it")
                .take();
            match taken.expect("each pair is combined once") {
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
    use std::time::Duration;

    #[test]
    fn results_preserve_input_order() {
        let rt = Runtime::new(4);
        let items: Vec<usize> = (0..100).collect();
        let (out, _) = rt.run_indexed(&items, |_, &x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let rt = Runtime::new(8);
        let counter = AtomicUsize::new(0);
        let items: Vec<u32> = (0..1000).collect();
        let (out, stage) = rt.run_indexed(&items, |i, _| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
        assert_eq!(stage.tasks.len(), 1000);
    }

    #[test]
    fn each_task_runs_once_under_skew() {
        // More tasks than workers, and uneven costs: the claim counter
        // hands each index out exactly once however the workers race.
        let rt = Runtime::new(3);
        let runs: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let (out, stage) = rt.run_indexed(&runs, |i, runs| {
            std::thread::sleep(Duration::from_micros(if i % 8 == 0 { 2_000 } else { 50 }));
            runs.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        let parts: Vec<usize> = stage.tasks.iter().map(|t| t.partition).collect();
        assert_eq!(parts, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_runtime_has_one_worker() {
        assert_eq!(Runtime::sequential().workers(), 1);
        assert_eq!(Runtime::new(0).workers(), 1, "clamped to 1");
    }

    #[test]
    fn empty_input() {
        let rt = Runtime::new(4);
        let (out, stage) = rt.run_indexed(&Vec::<u8>::new(), |_, &x| x);
        assert!(out.is_empty());
        assert!(stage.tasks.is_empty());
    }

    #[test]
    fn empty_stage() {
        // A stage with no tasks runs nothing, fails nothing and reports
        // an unnamed stage with no task timings.
        let (out, stage) =
            Runtime::sequential().try_run_indexed(&Vec::<u8>::new(), |_, _| -> u8 {
                panic!("no task to run")
            });
        assert_eq!(out.expect("no task can panic"), Vec::<u8>::new());
        assert_eq!((stage.name.as_str(), stage.tasks.len()), ("", 0));
    }

    #[test]
    fn tasks_can_borrow_caller_state() {
        let rt = Runtime::new(3);
        let shared = [10, 20, 30];
        let items = vec![0usize, 1, 2];
        let (out, _) = rt.run_indexed(&items, |_, &i| shared[i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let items: Vec<u64> = (0..500).collect();
        let seq = Runtime::sequential().run_indexed(&items, |_, &x| x * x).0;
        let par = Runtime::new(7).run_indexed(&items, |_, &x| x * x).0;
        assert_eq!(seq, par);
    }

    #[test]
    fn metrics_cover_all_partitions() {
        let rt = Runtime::new(4);
        let items = vec![1u32; 16];
        let (_, stage) = rt.run_indexed(&items, |_, &x| x);
        let parts: Vec<usize> = stage.tasks.iter().map(|t| t.partition).collect();
        assert_eq!(parts, (0..16).collect::<Vec<_>>(), "in partition order");
    }

    #[test]
    fn stage_report_preserves_queue_wait_and_execute_split() {
        // Sequentially, a task waits behind its predecessors: its queue
        // wait covers their execute times.
        let items = [30u64, 10];
        let (_, stage) = Runtime::sequential().run_indexed(&items, |_, &ms| {
            std::thread::sleep(Duration::from_millis(ms));
        });
        assert_eq!(stage.name, "", "named by the caller");
        let [first, second] = [stage.tasks[0], stage.tasks[1]];
        assert_eq!((first.partition, second.partition), (0, 1));
        assert!(first.execute_ns >= 30_000_000 && second.execute_ns >= 10_000_000);
        assert!(second.queue_wait_ns >= first.queue_wait_ns + first.execute_ns);
        assert!(stage.wall_ns >= second.queue_wait_ns + second.execute_ns);
    }

    #[test]
    fn worker_ids_are_within_pool_and_cover_each_task() {
        // Sequential path: everything on worker 0.
        let items = vec![1u32; 8];
        let (_, stage) = Runtime::sequential().run_indexed(&items, |_, &x| x);
        assert!(stage.tasks.iter().all(|t| t.worker == 0));
        // Parallel path: ids stay within the pool, and with more slow
        // tasks than workers every id shows up under contention.
        let rt = Runtime::new(3);
        let many = vec![1u32; 64];
        let (_, stage) = rt.run_indexed(&many, |_, &x| {
            std::thread::sleep(Duration::from_micros(200));
            x
        });
        assert_eq!(stage.tasks.len(), 64);
        assert!(stage.tasks.iter().all(|t| t.worker < 3));
        let used: std::collections::HashSet<usize> = stage.tasks.iter().map(|t| t.worker).collect();
        assert!(!used.is_empty());
    }

    #[test]
    fn default_uses_available_parallelism() {
        assert_eq!(Runtime::default().workers(), available_workers());
        assert!(available_workers() >= 1);
    }

    #[test]
    fn try_run_indexed_succeeds_like_run_indexed() {
        for workers in [1, 4] {
            let rt = Runtime::new(workers);
            let items: Vec<usize> = (0..50).collect();
            let (out, stage) = rt.try_run_indexed(&items, |_, &x| x + 1);
            assert_eq!(out.unwrap(), (1..=50).collect::<Vec<_>>());
            assert_eq!(stage.tasks.len(), 50);
        }
    }

    #[test]
    fn panic_is_isolated_and_lowest_partition_wins() {
        for workers in [1, 4] {
            let rt = Runtime::new(workers);
            let done = AtomicUsize::new(0);
            let items: Vec<usize> = (0..20).collect();
            let (result, stage) = rt.try_run_indexed(&items, |i, &x| {
                if i == 7 || i == 13 {
                    panic!("poisoned record {i}");
                }
                done.fetch_add(1, Ordering::Relaxed);
                x
            });
            let p = result.unwrap_err();
            assert_eq!(p.partition, 7, "workers={workers}");
            assert_eq!(p.panics, 2);
            assert!(p.message.contains("poisoned record 7"));
            assert!(p.to_string().contains("partition 7"));
            assert!(p.to_string().contains("2 tasks"));
            // The workers are not cut short: every healthy task ran.
            assert_eq!(done.load(Ordering::Relaxed), 18);
            assert_eq!(stage.tasks.len(), 20);
        }
    }

    #[test]
    #[should_panic(expected = "worker panicked on partition 0")]
    fn run_indexed_reraises_the_panic() {
        let rt = Runtime::new(2);
        let items = vec![1u32, 2];
        rt.run_indexed(&items, |_, _| -> u32 { panic!("boom") });
    }

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
