//! Partitioned in-memory datasets — the RDD analogue.
//!
//! A [`Dataset<T>`] is a list of partitions, each a `Vec<T>`. Operations
//! mirror the Spark API surface the paper's implementation uses:
//! `map`, `mapPartitions`, `reduce`, `aggregate`, `count`, `collect`,
//! `repartition`. Transformations execute eagerly on a [`Runtime`]
//! (the paper's pipeline is a single map + single reduce, so laziness
//! would buy nothing but complexity).

use crate::metrics::StageMetrics;
use crate::reduce::ReducePlan;
use crate::runtime::Runtime;

/// A partitioned collection of `T`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dataset<T> {
    partitions: Vec<Vec<T>>,
}

impl<T> Dataset<T> {
    /// Build from explicit partitions (empty partitions are kept: Spark
    /// does the same, and they exercise the `ε` identity of fusion).
    pub fn from_partitions(partitions: Vec<Vec<T>>) -> Self {
        Dataset { partitions }
    }

    /// Distribute `items` over `num_partitions` contiguous chunks (min 1),
    /// like Spark's `parallelize`: concatenating the partitions in order
    /// reproduces the input order, so `reduce` with any *associative*
    /// operator (commutative or not) matches the sequential fold.
    pub fn from_vec(items: Vec<T>, num_partitions: usize) -> Self {
        let n = num_partitions.max(1);
        let len = items.len();
        let base = len / n;
        let rem = len % n;
        let mut partitions: Vec<Vec<T>> = Vec::with_capacity(n);
        let mut iter = items.into_iter();
        for p in 0..n {
            let take = base + usize::from(p < rem);
            partitions.push(iter.by_ref().take(take).collect());
        }
        Dataset { partitions }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Total number of items.
    pub fn count(&self) -> usize {
        self.partitions.iter().map(Vec::len).sum()
    }

    /// Items per partition.
    pub fn partition_sizes(&self) -> Vec<usize> {
        self.partitions.iter().map(Vec::len).collect()
    }

    /// Borrow the partitions.
    pub fn partitions(&self) -> &[Vec<T>] {
        &self.partitions
    }

    /// Flatten into a single `Vec`, partition by partition.
    pub fn collect(self) -> Vec<T> {
        self.partitions.into_iter().flatten().collect()
    }

    /// Iterate over all items, partition by partition.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.partitions.iter().flatten()
    }

    /// Re-distribute into `num_partitions` contiguous partitions.
    pub fn repartition(self, num_partitions: usize) -> Self {
        Dataset::from_vec(self.collect(), num_partitions)
    }
}

impl<T: Send + Sync> Dataset<T> {
    /// Parallel element-wise map.
    pub fn map<U, F>(&self, rt: &Runtime, f: F) -> Dataset<U>
    where
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.map_metered(rt, f).0
    }

    /// Parallel map, returning per-partition metrics.
    pub fn map_metered<U, F>(&self, rt: &Runtime, f: F) -> (Dataset<U>, StageMetrics)
    where
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        let (parts, metrics) = rt.run_indexed(&self.partitions, |_, part: &Vec<T>| {
            part.iter().map(&f).collect::<Vec<U>>()
        });
        (Dataset::from_partitions(parts), metrics)
    }

    /// [`Dataset::map_metered`] with panic isolation: a panic in `f`
    /// surfaces as a [`crate::runtime::WorkerPanic`] instead of aborting
    /// the process.
    pub fn try_map_metered<U, F>(
        &self,
        rt: &Runtime,
        f: F,
    ) -> (
        Result<Dataset<U>, crate::runtime::WorkerPanic>,
        StageMetrics,
    )
    where
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        let (parts, metrics) = rt.try_run_indexed(&self.partitions, |_, part: &Vec<T>| {
            part.iter().map(&f).collect::<Vec<U>>()
        });
        (parts.map(Dataset::from_partitions), metrics)
    }

    /// Parallel filter: keep items satisfying the predicate, preserving
    /// partitioning.
    pub fn filter<F>(&self, rt: &Runtime, f: F) -> Dataset<T>
    where
        T: Clone,
        F: Fn(&T) -> bool + Sync,
    {
        let (parts, _) = rt.run_indexed(&self.partitions, |_, part: &Vec<T>| {
            part.iter()
                .filter(|item| f(item))
                .cloned()
                .collect::<Vec<T>>()
        });
        Dataset::from_partitions(parts)
    }

    /// Parallel flat-map: each item expands to zero or more outputs.
    pub fn flat_map<U, I, F>(&self, rt: &Runtime, f: F) -> Dataset<U>
    where
        U: Send,
        I: IntoIterator<Item = U>,
        F: Fn(&T) -> I + Sync,
    {
        let (parts, _) = rt.run_indexed(&self.partitions, |_, part: &Vec<T>| {
            part.iter().flat_map(&f).collect::<Vec<U>>()
        });
        Dataset::from_partitions(parts)
    }

    /// Parallel whole-partition map (Spark `mapPartitions`): `f` sees the
    /// partition index and its items.
    pub fn map_partitions<U, F>(&self, rt: &Runtime, f: F) -> Dataset<U>
    where
        U: Send,
        F: Fn(usize, &[T]) -> Vec<U> + Sync,
    {
        let (parts, _) = rt.run_indexed(&self.partitions, |i, part: &Vec<T>| f(i, part));
        Dataset::from_partitions(parts)
    }

    /// [`Dataset::map_partitions`] with panic isolation and per-partition
    /// metrics — the whole-partition analogue of
    /// [`Dataset::try_map_metered`]. Used by map routes that carry
    /// partition-local state (e.g. the shape-signature cache), which an
    /// element-wise closure cannot hold.
    pub fn try_map_partitions_metered<U, F>(
        &self,
        rt: &Runtime,
        f: F,
    ) -> (
        Result<Dataset<U>, crate::runtime::WorkerPanic>,
        StageMetrics,
    )
    where
        U: Send,
        F: Fn(usize, &[T]) -> Vec<U> + Sync,
    {
        let (parts, metrics) = rt.try_run_indexed(&self.partitions, |i, part: &Vec<T>| f(i, part));
        (parts.map(Dataset::from_partitions), metrics)
    }

    /// Parallel reduce with an associative operator: partition-local
    /// folds, then combination according to `plan`. `None` if the dataset
    /// is empty. `op` owns its left operand (see
    /// [`ReducePlan::combine`]); the dataset is borrowed, so the one
    /// clone is of each partition's first item.
    pub fn reduce<F>(&self, rt: &Runtime, plan: ReducePlan, op: F) -> Option<T>
    where
        T: Clone,
        F: Fn(T, &T) -> T + Sync,
    {
        self.reduce_metered(rt, plan, op).0
    }

    /// [`Dataset::reduce`] with per-partition metrics for the local-fold
    /// stage.
    pub fn reduce_metered<F>(
        &self,
        rt: &Runtime,
        plan: ReducePlan,
        op: F,
    ) -> (Option<T>, StageMetrics)
    where
        T: Clone,
        F: Fn(T, &T) -> T + Sync,
    {
        self.reduce_recorded(rt, plan, op, &typefuse_obs::Recorder::disabled())
    }

    /// [`Dataset::reduce_metered`] with observability: the per-level
    /// combine spans and fan-in histogram of
    /// [`ReducePlan::combine_recorded`]. A disabled recorder makes this
    /// identical to `reduce_metered`.
    pub fn reduce_recorded<F>(
        &self,
        rt: &Runtime,
        plan: ReducePlan,
        op: F,
        rec: &typefuse_obs::Recorder,
    ) -> (Option<T>, StageMetrics)
    where
        T: Clone,
        F: Fn(T, &T) -> T + Sync,
    {
        let (partials, metrics) = rt.run_indexed(&self.partitions, |_, part: &Vec<T>| {
            let (first, rest) = part.split_first()?;
            Some(rest.iter().fold(first.clone(), &op))
        });
        let partials: Vec<T> = partials.into_iter().flatten().collect();
        (plan.combine_recorded(rt, partials, op, rec), metrics)
    }

    /// Spark-style `aggregate`: fold each partition from `zero()` with
    /// `seq`, then combine the partials with `comb` under `plan`.
    pub fn aggregate<A, Z, S, C>(
        &self,
        rt: &Runtime,
        plan: ReducePlan,
        zero: Z,
        seq: S,
        comb: C,
    ) -> A
    where
        A: Send,
        Z: Fn() -> A + Sync,
        S: Fn(A, &T) -> A + Sync,
        C: Fn(A, &A) -> A + Sync,
    {
        let (partials, _) = rt.run_indexed(&self.partitions, |_, part: &Vec<T>| {
            part.iter().fold(zero(), &seq)
        });
        plan.combine(rt, partials, comb).unwrap_or_else(zero)
    }
}

impl<T> FromIterator<T> for Dataset<T> {
    /// Collect into a single-partition dataset.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Dataset::from_partitions(vec![iter.into_iter().collect()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt() -> Runtime {
        Runtime::new(4)
    }

    #[test]
    fn from_vec_contiguous_chunks() {
        let d = Dataset::from_vec((0..10).collect(), 3);
        assert_eq!(d.num_partitions(), 3);
        assert_eq!(d.partition_sizes(), vec![4, 3, 3]);
        assert_eq!(d.count(), 10);
        // Concatenated partitions reproduce the input order.
        assert_eq!(d.collect(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn reduce_matches_sequential_fold_for_noncommutative_ops() {
        let parts: Vec<String> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let d = Dataset::from_vec(parts.clone(), 2);
        let reduced = d.reduce(&rt(), ReducePlan::default(), |a, b| format!("{a}{b}"));
        assert_eq!(reduced.as_deref(), Some("abcde"));
    }

    #[test]
    fn zero_partitions_clamped() {
        let d = Dataset::from_vec(vec![1, 2], 0);
        assert_eq!(d.num_partitions(), 1);
    }

    #[test]
    fn map_preserves_partitioning() {
        let d = Dataset::from_vec((0..10).collect::<Vec<i64>>(), 4);
        let m = d.map(&rt(), |&x| x * 10);
        assert_eq!(m.num_partitions(), 4);
        assert_eq!(m.partition_sizes(), d.partition_sizes());
        let mut all = m.collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn filter_preserves_partitioning() {
        let d = Dataset::from_vec((0..20).collect::<Vec<i32>>(), 4);
        let f = d.filter(&rt(), |&x| x % 2 == 0);
        assert_eq!(f.num_partitions(), 4);
        assert_eq!(f.count(), 10);
        assert!(f.iter().all(|&x| x % 2 == 0));
    }

    #[test]
    fn flat_map_expands_and_drops() {
        let d = Dataset::from_vec(vec![1usize, 0, 3], 2);
        let m = d.flat_map(&rt(), |&n| vec![n; n]);
        let mut all = m.collect();
        all.sort_unstable();
        assert_eq!(all, vec![1, 3, 3, 3]);
    }

    #[test]
    fn map_partitions_sees_indices() {
        let d = Dataset::from_partitions(vec![vec![1], vec![2, 3]]);
        let m = d.map_partitions(&rt(), |i, part| vec![(i, part.len())]);
        assert_eq!(m.collect(), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn reduce_sums() {
        let d = Dataset::from_vec((1..=100).collect::<Vec<u64>>(), 7);
        for plan in [ReducePlan::Sequential, ReducePlan::Tree { arity: 3 }] {
            assert_eq!(d.reduce(&rt(), plan, |a, b| a + b), Some(5050));
        }
    }

    #[test]
    fn reduce_empty_dataset() {
        let d: Dataset<u32> = Dataset::from_partitions(vec![]);
        assert_eq!(d.reduce(&rt(), ReducePlan::default(), |a, b| a + b), None);
    }

    #[test]
    fn reduce_skips_empty_partitions() {
        let d = Dataset::from_partitions(vec![vec![], vec![5u32], vec![], vec![7]]);
        assert_eq!(
            d.reduce(&rt(), ReducePlan::default(), |a, b| a + b),
            Some(12)
        );
    }

    #[test]
    fn aggregate_counts_lengths() {
        let d = Dataset::from_vec(vec!["a", "bb", "ccc"], 2);
        let total = d.aggregate(
            &rt(),
            ReducePlan::default(),
            || 0usize,
            |acc, s| acc + s.len(),
            |a, b| a + b,
        );
        assert_eq!(total, 6);
    }

    #[test]
    fn aggregate_empty_returns_zero() {
        let d: Dataset<&str> = Dataset::from_partitions(vec![vec![], vec![]]);
        let total = d.aggregate(
            &rt(),
            ReducePlan::default(),
            || 42usize,
            |acc, s| acc + s.len(),
            |a, b| a + b,
        );
        // Two empty partitions each contribute zero() = 42; combined 84.
        assert_eq!(total, 84);
    }

    #[test]
    fn repartition_preserves_multiset() {
        let d = Dataset::from_vec((0..17).collect::<Vec<i32>>(), 5);
        let r = d.clone().repartition(2);
        assert_eq!(r.num_partitions(), 2);
        let mut a = d.collect();
        let mut b = r.collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn metered_map_reports_all_partitions() {
        let d = Dataset::from_vec((0..100).collect::<Vec<i32>>(), 8);
        let (_, metrics) = d.map_metered(&rt(), |&x| x + 1);
        assert_eq!(metrics.tasks.len(), 8);
    }

    #[test]
    fn from_iterator_single_partition() {
        let d: Dataset<i32> = (0..5).collect();
        assert_eq!(d.num_partitions(), 1);
        assert_eq!(d.count(), 5);
    }
}
