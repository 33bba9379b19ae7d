//! Structured end-of-run reports.
//!
//! [`RunReport`] is the single report shape shared by the CLI
//! (`--metrics-json`), the bench harness, and tests: recorder metrics
//! plus per-stage task timings and free-form metadata, serialized with
//! [`RunReport::to_json`].

use crate::histogram::{bucket_bounds, HistogramCore};
use crate::json::JsonWriter;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

/// Snapshot of one named histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramReport {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Non-empty log₂ buckets, ascending.
    pub buckets: Vec<BucketCount>,
}

/// One non-empty histogram bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketCount {
    /// Inclusive lower value bound.
    pub lo: u64,
    /// Inclusive upper value bound.
    pub hi: u64,
    /// Samples in `[lo, hi]`.
    pub count: u64,
}

impl HistogramReport {
    pub(crate) fn from_core(core: &HistogramCore) -> Self {
        let count = core.count.load(Ordering::Relaxed);
        let buckets = core
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, cell)| {
                let n = cell.load(Ordering::Relaxed);
                (n > 0).then(|| {
                    let (lo, hi) = bucket_bounds(i);
                    BucketCount { lo, hi, count: n }
                })
            })
            .collect();
        HistogramReport {
            count,
            sum: core.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                core.min.load(Ordering::Relaxed)
            },
            max: core.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Arithmetic mean of the samples, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`), 0.0 when empty.
    ///
    /// The log₂ buckets only bound each sample within a factor of two,
    /// so the estimate interpolates linearly inside the bucket holding
    /// the target rank and is clamped to the exact `[min, max]` the
    /// histogram tracked. For a single-bucket histogram this collapses
    /// to the true value range.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0.0;
        for bucket in &self.buckets {
            let n = bucket.count as f64;
            if cum + n >= target {
                let frac = if n == 0.0 {
                    0.0
                } else {
                    ((target - cum) / n).clamp(0.0, 1.0)
                };
                let estimate = bucket.lo as f64 + frac * (bucket.hi - bucket.lo) as f64;
                return estimate.clamp(self.min as f64, self.max as f64);
            }
            cum += n;
        }
        self.max as f64
    }

    /// Estimated median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// Estimated 90th percentile.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Write this histogram as a JSON object into `w` (the shape used
    /// by [`RunReport::to_json`] and the profiler's report).
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("count");
        w.number(self.count);
        w.key("sum");
        w.number(self.sum);
        w.key("min");
        w.number(self.min);
        w.key("max");
        w.number(self.max);
        w.key("mean");
        w.float(self.mean());
        w.key("p50");
        w.float(self.p50());
        w.key("p90");
        w.float(self.p90());
        w.key("p99");
        w.float(self.p99());
        w.key("buckets");
        w.begin_array();
        for bucket in &self.buckets {
            w.begin_object();
            w.key("lo");
            w.number(bucket.lo);
            w.key("hi");
            w.number(bucket.hi);
            w.key("count");
            w.number(bucket.count);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
}

/// Aggregate statistics for one span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanReport {
    /// Times the span was entered.
    pub count: u64,
    /// Total nanoseconds across all entries.
    pub total_ns: u64,
    /// Longest single entry, in nanoseconds.
    pub max_ns: u64,
}

/// Timings of one task within a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TaskReport {
    /// Partition index the task processed.
    pub partition: usize,
    /// Worker thread that executed the task. Tasks enqueue at stage
    /// start, so the task occupied this worker over
    /// `[queue_wait_ns, queue_wait_ns + execute_ns]` of the stage.
    pub worker: usize,
    /// Nanoseconds between stage submission and task pickup.
    pub queue_wait_ns: u64,
    /// Nanoseconds spent executing the task body.
    pub execute_ns: u64,
}

/// Per-stage timing summary: a named collection of task timings plus
/// the stage's wall-clock time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StageReport {
    /// Stage name, e.g. `map` or `reduce`.
    pub name: String,
    /// Wall-clock nanoseconds for the whole stage.
    pub wall_ns: u64,
    /// Per-task timings, in partition order.
    pub tasks: Vec<TaskReport>,
}

/// Busy rollup for one worker.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkerSlice {
    /// Worker index.
    pub worker: usize,
    /// Tasks the worker executed.
    pub tasks: u64,
    /// Total nanoseconds the worker spent executing tasks.
    pub busy_ns: u64,
    /// Distribution of the queue waits of this worker's tasks.
    pub queue_wait: HistogramReport,
}

/// Per-worker utilization of one stage of the engine thread pool, so the
/// paper's Table 7/8 under-utilisation story can be read off a live run.
///
/// Workers that never picked up a task are listed with zero busy time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UtilizationReport {
    /// Wall-clock nanoseconds of the stage (the makespan).
    pub wall_ns: u64,
    /// One slice per worker, in worker order, idle workers included.
    pub workers: Vec<WorkerSlice>,
}

impl UtilizationReport {
    /// Build from a stage's task timings. `workers` is the configured
    /// pool size; a task whose worker id exceeds it still gets a slice,
    /// so the report never drops work.
    pub fn from_stage(stage: &StageReport, workers: usize) -> Self {
        let slots = stage
            .tasks
            .iter()
            .map(|t| t.worker + 1)
            .max()
            .unwrap_or(0)
            .max(workers);
        let mut slices: Vec<WorkerSlice> = (0..slots)
            .map(|worker| WorkerSlice {
                worker,
                ..WorkerSlice::default()
            })
            .collect();
        let mut waits: Vec<crate::LogHistogram> = vec![crate::LogHistogram::new(); slots];
        for task in &stage.tasks {
            let slice = &mut slices[task.worker];
            slice.tasks += 1;
            slice.busy_ns += task.execute_ns;
            waits[task.worker].record(task.queue_wait_ns);
        }
        for (slice, wait) in slices.iter_mut().zip(&waits) {
            slice.queue_wait = wait.report();
        }
        UtilizationReport {
            wall_ns: stage.wall_ns,
            workers: slices,
        }
    }

    /// Mean worker utilization over the stage wall, in `[0, 1]`:
    /// `total busy / (wall x workers)`. Mirrors the simulator's
    /// core-utilization formula.
    pub fn utilization(&self) -> f64 {
        if self.wall_ns == 0 || self.workers.is_empty() {
            return 0.0;
        }
        let busy: u64 = self.workers.iter().map(|w| w.busy_ns).sum();
        busy as f64 / (self.wall_ns as f64 * self.workers.len() as f64)
    }
}

/// The full structured run report.
///
/// `counters`/`gauges`/`histograms`/`spans` come from
/// [`Recorder::snapshot`](crate::Recorder::snapshot); `stages`,
/// `values` (derived floats such as records-per-second) and `meta`
/// (free-form strings such as the input path) are filled by the caller
/// that owns that context.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Monotonic event counts, e.g. `fuse.calls`.
    pub counters: BTreeMap<String, u64>,
    /// Maximum-value gauges, e.g. `infer.max_depth`.
    pub gauges: BTreeMap<String, u64>,
    /// Value distributions, e.g. `fuse.union_width`.
    pub histograms: BTreeMap<String, HistogramReport>,
    /// Timed span aggregates keyed by span name.
    pub spans: BTreeMap<String, SpanReport>,
    /// Per-stage task timings (map, reduce, …).
    pub stages: Vec<StageReport>,
    /// Derived floating-point values, e.g. `records_per_sec`.
    pub values: BTreeMap<String, f64>,
    /// Free-form metadata, e.g. `input` → path.
    pub meta: BTreeMap<String, String>,
}

impl RunReport {
    /// Serialize as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();

        w.key("counters");
        w.begin_object();
        for (name, value) in &self.counters {
            w.key(name);
            w.number(*value);
        }
        w.end_object();

        w.key("gauges");
        w.begin_object();
        for (name, value) in &self.gauges {
            w.key(name);
            w.number(*value);
        }
        w.end_object();

        w.key("histograms");
        w.begin_object();
        for (name, hist) in &self.histograms {
            w.key(name);
            hist.write_json(&mut w);
        }
        w.end_object();

        w.key("spans");
        w.begin_object();
        for (name, span) in &self.spans {
            w.key(name);
            w.begin_object();
            w.key("count");
            w.number(span.count);
            w.key("total_ns");
            w.number(span.total_ns);
            w.key("max_ns");
            w.number(span.max_ns);
            w.end_object();
        }
        w.end_object();

        w.key("stages");
        w.begin_array();
        for stage in &self.stages {
            w.begin_object();
            w.key("name");
            w.string(&stage.name);
            w.key("wall_ns");
            w.number(stage.wall_ns);
            w.key("tasks");
            w.begin_array();
            for task in &stage.tasks {
                w.begin_object();
                w.key("partition");
                w.number(task.partition as u64);
                w.key("worker");
                w.number(task.worker as u64);
                w.key("queue_wait_ns");
                w.number(task.queue_wait_ns);
                w.key("execute_ns");
                w.number(task.execute_ns);
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();

        w.key("values");
        w.begin_object();
        for (name, value) in &self.values {
            w.key(name);
            w.float(*value);
        }
        w.end_object();

        w.key("meta");
        w.begin_object();
        for (name, value) in &self.meta {
            w.key(name);
            w.string(value);
        }
        w.end_object();

        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_serializes_to_stable_shape() {
        assert_eq!(
            RunReport::default().to_json(),
            r#"{"counters":{},"gauges":{},"histograms":{},"spans":{},"stages":[],"values":{},"meta":{}}"#
        );
    }

    #[test]
    fn full_report_round_trips_through_the_workspace_parser() {
        let mut report = RunReport::default();
        report.counters.insert("records".into(), 1000);
        report.counters.insert("fuse.calls".into(), 999);
        report.gauges.insert("infer.max_depth".into(), 4);
        report.histograms.insert(
            "fuse.union_width".into(),
            HistogramReport {
                count: 2,
                sum: 5,
                min: 1,
                max: 4,
                buckets: vec![
                    BucketCount {
                        lo: 1,
                        hi: 1,
                        count: 1,
                    },
                    BucketCount {
                        lo: 4,
                        hi: 7,
                        count: 1,
                    },
                ],
            },
        );
        report.spans.insert(
            "reduce.level.0".into(),
            SpanReport {
                count: 1,
                total_ns: 42,
                max_ns: 42,
            },
        );
        report.stages.push(StageReport {
            name: "map".into(),
            wall_ns: 1234,
            tasks: vec![TaskReport {
                partition: 0,
                worker: 2,
                queue_wait_ns: 10,
                execute_ns: 90,
            }],
        });
        report.values.insert("records_per_sec".into(), 1.5e6);
        report.meta.insert("input".into(), "data.ndjson".into());

        let json = report.to_json();
        for needle in [
            r#""records":1000"#,
            r#""fuse.calls":999"#,
            r#""infer.max_depth":4"#,
            r#""lo":4,"hi":7"#,
            r#""reduce.level.0""#,
            r#""worker":2"#,
            r#""queue_wait_ns":10"#,
            r#""records_per_sec":1500000.0"#,
            r#""input":"data.ndjson""#,
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn mean_handles_empty() {
        assert_eq!(HistogramReport::default().mean(), 0.0);
    }

    #[test]
    fn quantiles_handle_empty() {
        let h = HistogramReport::default();
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.p99(), 0.0);
    }

    #[test]
    fn single_value_quantiles_collapse_to_that_value() {
        // One sample of 5 lands in bucket [4, 7]; clamping to the exact
        // min/max recovers the value for every quantile.
        let mut h = HistogramReport {
            count: 1,
            sum: 5,
            min: 5,
            max: 5,
            buckets: vec![BucketCount {
                lo: 4,
                hi: 7,
                count: 1,
            }],
        };
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 5.0, "q = {q}");
        }
        // Two spread buckets: the quantiles are ordered and bounded.
        h.count = 100;
        h.min = 1;
        h.max = 1000;
        h.buckets = vec![
            BucketCount {
                lo: 1,
                hi: 1,
                count: 90,
            },
            BucketCount {
                lo: 512,
                hi: 1023,
                count: 10,
            },
        ];
        assert!(h.p50() <= h.p90() && h.p90() <= h.p99());
        assert_eq!(h.p50(), 1.0);
        assert!(h.p99() >= 512.0 && h.p99() <= 1000.0);
    }

    #[test]
    fn json_includes_quantile_estimates() {
        let mut report = RunReport::default();
        report.histograms.insert(
            "lat".into(),
            HistogramReport {
                count: 1,
                sum: 5,
                min: 5,
                max: 5,
                buckets: vec![BucketCount {
                    lo: 4,
                    hi: 7,
                    count: 1,
                }],
            },
        );
        let json = report.to_json();
        for needle in [r#""p50":5.0"#, r#""p90":5.0"#, r#""p99":5.0"#] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    fn stage_with_two_workers() -> StageReport {
        StageReport {
            name: "map".into(),
            wall_ns: 100,
            tasks: vec![
                TaskReport {
                    partition: 0,
                    worker: 0,
                    queue_wait_ns: 5,
                    execute_ns: 40,
                },
                TaskReport {
                    partition: 1,
                    worker: 0,
                    queue_wait_ns: 45,
                    execute_ns: 30,
                },
                TaskReport {
                    partition: 2,
                    worker: 1,
                    queue_wait_ns: 7,
                    execute_ns: 60,
                },
            ],
        }
    }

    #[test]
    fn utilization_groups_tasks_by_worker_and_lists_idle_slices() {
        let u = UtilizationReport::from_stage(&stage_with_two_workers(), 4);
        assert_eq!(u.wall_ns, 100);
        assert_eq!(u.workers.len(), 4);
        assert_eq!(u.workers[0].busy_ns, 70);
        assert_eq!(u.workers[0].tasks, 2);
        assert_eq!(u.workers[1].busy_ns, 60);
        assert_eq!(u.workers[2].tasks, 0);
        let busy = |u: &UtilizationReport| u.workers.iter().map(|w| w.busy_ns).sum::<u64>();
        assert_eq!(busy(&u), 130);
        assert_eq!(u.workers.iter().filter(|w| w.tasks == 0).count(), 2);
        assert!((u.utilization() - 130.0 / 400.0).abs() < 1e-12);
        assert_eq!(u.workers[0].queue_wait.count, 2);
        // A worker id beyond the pool size still gets a slice.
        let mut stage = stage_with_two_workers();
        stage.tasks[2].worker = 9;
        let wide = UtilizationReport::from_stage(&stage, 2);
        assert_eq!(wide.workers.len(), 10);
        assert_eq!(busy(&wide), 130, "no work dropped");
        assert_eq!(UtilizationReport::default().utilization(), 0.0);
    }
}
