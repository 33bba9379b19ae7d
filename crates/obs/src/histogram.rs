//! Log₂-bucketed histograms over `u64` samples.
//!
//! Bucket 0 holds the value 0; bucket `i ≥ 1` holds values in
//! `[2^(i-1), 2^i - 1]` (the top bucket is clipped to `u64::MAX`). With
//! [`BUCKETS`] = 65 slots a histogram covers the full `u64` range with
//! relative error bounded by 2×, which is plenty for union widths,
//! record widths and nanosecond timings.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of buckets: one for zero plus one per bit position.
pub const BUCKETS: usize = 65;

/// Bucket index for a sample value.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive `(low, high)` value bounds of a bucket index.
///
/// Panics when `index >= BUCKETS`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < BUCKETS, "bucket index {index} out of range");
    match index {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        i => (1 << (i - 1), (1 << i) - 1),
    }
}

/// Shared histogram state: per-bucket counts plus sum/count/min/max.
#[derive(Debug)]
pub(crate) struct HistogramCore {
    pub(crate) buckets: Vec<AtomicU64>,
    pub(crate) count: AtomicU64,
    pub(crate) sum: AtomicU64,
    pub(crate) min: AtomicU64,
    pub(crate) max: AtomicU64,
}

impl HistogramCore {
    pub(crate) fn new() -> Self {
        HistogramCore {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    pub(crate) fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Fold `other` into `self`: bucket-wise and moment-wise addition,
    /// min/max by comparison. Associative and commutative because every
    /// component operation is.
    pub(crate) fn merge_from(&self, other: &HistogramCore) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// A plain, mergeable log₂ histogram for embedding inside data-plane
/// accumulators (per-path profiles, partition-local statistics).
///
/// Unlike the recorder-owned [`Histogram`] handle this is a value type:
/// no atomics, no sharing, `Clone`/`PartialEq`, and a by-`&mut`
/// [`record`](LogHistogram::record). It uses the same bucket layout as
/// the recorder histograms ([`bucket_index`] / [`bucket_bounds`]), so
/// both convert to the same
/// [`HistogramReport`](crate::HistogramReport) shape. Merging is
/// bucket-wise and moment-wise addition with min/max comparison —
/// associative and commutative, which is what lets accumulators
/// carrying these merge in any partition order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram (the merge identity).
    pub const fn new() -> Self {
        LogHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Fold `other` in. Associative and commutative with
    /// [`LogHistogram::new`] as identity.
    pub fn merge_from(&mut self, other: &LogHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Serialize to the compact checkpoint form:
    /// `count,sum,min,max;idx:n,idx:n,…` with sparse buckets, all
    /// fields exact decimal `u64`. [`LogHistogram::from_compact`]
    /// restores the identical value, including the `u64::MAX` min
    /// sentinel of an empty histogram.
    pub fn to_compact(&self) -> String {
        let mut out = format!("{},{},{},{};", self.count, self.sum, self.min, self.max);
        let mut first = true;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{i}:{n}"));
        }
        out
    }

    /// Parse a [`LogHistogram::to_compact`] encoding.
    pub fn from_compact(text: &str) -> Result<Self, String> {
        let (moments, buckets) = text
            .split_once(';')
            .ok_or_else(|| "histogram encoding missing `;`".to_string())?;
        let parts: Vec<&str> = moments.split(',').collect();
        let [count, sum, min, max] = parts[..] else {
            return Err(format!("expected 4 moments, got {}", parts.len()));
        };
        let parse =
            |s: &str| -> Result<u64, String> { s.parse().map_err(|e| format!("bad u64: {e}")) };
        let mut hist = LogHistogram {
            buckets: [0; BUCKETS],
            count: parse(count)?,
            sum: parse(sum)?,
            min: parse(min)?,
            max: parse(max)?,
        };
        for pair in buckets.split(',').filter(|p| !p.is_empty()) {
            let (idx, n) = pair
                .split_once(':')
                .ok_or_else(|| format!("bad bucket pair {pair:?}"))?;
            let idx: usize = idx.parse().map_err(|e| format!("bad bucket index: {e}"))?;
            if idx >= BUCKETS {
                return Err(format!("bucket index {idx} out of range"));
            }
            hist.buckets[idx] = parse(n)?;
        }
        Ok(hist)
    }

    /// Snapshot as a [`HistogramReport`](crate::HistogramReport) —
    /// identical shape to the recorder histograms, so the same
    /// serialization and quantile estimation apply.
    pub fn report(&self) -> crate::HistogramReport {
        crate::HistogramReport {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n > 0)
                .map(|(i, &n)| {
                    let (lo, hi) = bucket_bounds(i);
                    crate::BucketCount { lo, hi, count: n }
                })
                .collect(),
        }
    }
}

/// Hot-loop handle to a named histogram; no-op when the recorder that
/// produced it is disabled.
#[derive(Debug, Clone)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCore>>);

impl Histogram {
    /// Record one sample.
    pub fn record(&self, value: u64) {
        if let Some(core) = &self.0 {
            core.record(value);
        }
    }

    /// Number of samples recorded so far.
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_gets_its_own_bucket() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_bounds(0), (0, 0));
    }

    #[test]
    fn power_of_two_boundaries() {
        // Each bucket i >= 1 covers [2^(i-1), 2^i - 1]: the boundary
        // values must land exactly on bucket edges.
        for i in 1..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i, "low edge of bucket {i}");
            assert_eq!(bucket_index(hi), i, "high edge of bucket {i}");
            if lo > 0 {
                assert_eq!(bucket_index(lo - 1), i - 1, "below bucket {i}");
            }
        }
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bounds_tile_the_u64_range() {
        let mut expected_lo = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expected_lo, "bucket {i} leaves a gap");
            assert!(hi >= lo);
            if hi == u64::MAX {
                assert_eq!(i, BUCKETS - 1);
                return;
            }
            expected_lo = hi + 1;
        }
        panic!("buckets never reached u64::MAX");
    }

    #[test]
    fn log_histogram_records_and_merges() {
        let mut a = LogHistogram::new();
        assert!(a.is_empty());
        for v in [0, 1, 5, 1000] {
            a.record(v);
        }
        let mut b = LogHistogram::new();
        b.record(7);

        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab, ba, "merge is commutative");

        let mut with_identity = ab.clone();
        with_identity.merge_from(&LogHistogram::new());
        assert_eq!(with_identity, ab, "empty is the identity");

        let report = ab.report();
        assert_eq!(report.count, 5);
        assert_eq!(report.sum, 1013);
        assert_eq!(report.min, 0);
        assert_eq!(report.max, 1000);
        assert_eq!(
            report.buckets.iter().map(|b| b.count).sum::<u64>(),
            report.count
        );
    }

    #[test]
    fn compact_encoding_round_trips_exactly() {
        let mut h = LogHistogram::new();
        for v in [0, 1, 5, 1000, 1 << 62] {
            h.record(v);
        }
        assert_eq!(LogHistogram::from_compact(&h.to_compact()).unwrap(), h);
        // The empty histogram keeps its u64::MAX min sentinel so that
        // later merges stay correct.
        let empty = LogHistogram::new();
        let back = LogHistogram::from_compact(&empty.to_compact()).unwrap();
        assert_eq!(back, empty);
        let mut merged = back;
        merged.record(3);
        assert_eq!(merged.report().min, 3);
        for bad in ["", "1,2,3;", "1,2,3,4", "1,2,3,4;x", "1,2,3,4;99:1"] {
            assert!(LogHistogram::from_compact(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn empty_log_histogram_reports_zero_min() {
        let report = LogHistogram::new().report();
        assert_eq!((report.count, report.min, report.max), (0, 0, 0));
        assert!(report.buckets.is_empty());
    }

    #[test]
    fn core_tracks_moments() {
        let core = HistogramCore::new();
        for v in [0, 1, 5, 1000] {
            core.record(v);
        }
        assert_eq!(core.count.load(Ordering::Relaxed), 4);
        assert_eq!(core.sum.load(Ordering::Relaxed), 1006);
        assert_eq!(core.min.load(Ordering::Relaxed), 0);
        assert_eq!(core.max.load(Ordering::Relaxed), 1000);
    }
}
