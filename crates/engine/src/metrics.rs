//! Per-task and per-stage execution metrics.
//!
//! The paper reports per-partition object counts, distinct-type counts and
//! processing times (Table 8); these structures carry the raw measurements
//! out of the engine so the bench harness can print such rows.

use std::time::Duration;

/// Timing for one task (one partition of one stage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskMetrics {
    /// Index of the partition the task processed.
    pub partition: usize,
    /// Index of the worker thread that executed the task (0 on the
    /// sequential fast path). Grouping tasks by worker yields each
    /// worker's busy timeline — the per-worker utilization report.
    pub worker: usize,
    /// Wall-clock time the task spent executing.
    pub duration: Duration,
    /// Time the task spent queued before a worker picked it up: the gap
    /// between stage submission (all tasks enqueue at stage start) and
    /// execution start. Large queue waits with short durations mean the
    /// stage is worker-bound, not work-bound. Because every task
    /// enqueues at stage start, this is also the task's start offset
    /// within the stage: the task was busy on its worker over
    /// `[queue_wait, queue_wait + duration]`.
    pub queue_wait: Duration,
}

/// Aggregated metrics for one parallel stage.
#[derive(Debug, Clone, Default)]
pub struct StageMetrics {
    /// One entry per task, in partition order.
    pub tasks: Vec<TaskMetrics>,
    /// Wall-clock time of the whole stage (queueing + execution).
    pub wall: Duration,
}

impl StageMetrics {
    /// Build from task entries and the stage wall time.
    pub fn new(mut tasks: Vec<TaskMetrics>, wall: Duration) -> Self {
        tasks.sort_by_key(|t| t.partition);
        StageMetrics { tasks, wall }
    }

    /// Merge the metrics of a stage that ran **after** this one into
    /// this one (multi-stage pipelines). Partition indices are kept
    /// as-is.
    ///
    /// This is a *sequential-stage* merge: `wall` is the sum of both
    /// stages' wall times, which is correct when the stages ran
    /// back-to-back (map then reduce) and an overstatement if they
    /// overlapped. Stages that run concurrently should be reported
    /// separately (see [`StageMetrics::stage_report`]) rather than
    /// merged.
    pub fn merge(&mut self, other: &StageMetrics) {
        self.tasks.extend(other.tasks.iter().cloned());
        self.wall += other.wall;
    }

    /// Convert to the serializable [`typefuse_obs::StageReport`] shape
    /// consumed by `RunReport` (per-task queue-wait vs execute time).
    pub fn stage_report(&self, name: &str) -> typefuse_obs::StageReport {
        typefuse_obs::StageReport {
            name: name.to_string(),
            wall_ns: self.wall.as_nanos() as u64,
            tasks: self
                .tasks
                .iter()
                .map(|t| typefuse_obs::TaskReport {
                    partition: t.partition,
                    worker: t.worker,
                    queue_wait_ns: t.queue_wait.as_nanos() as u64,
                    execute_ns: t.duration.as_nanos() as u64,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(partition: usize, millis: u64) -> TaskMetrics {
        TaskMetrics {
            partition,
            worker: partition % 2,
            duration: Duration::from_millis(millis),
            queue_wait: Duration::from_millis(millis / 10),
        }
    }

    #[test]
    fn empty_stage() {
        let report = StageMetrics::default().stage_report("idle");
        assert_eq!((report.wall_ns, report.tasks.len()), (0, 0));
    }

    #[test]
    fn merge_concatenates() {
        let mut a = StageMetrics::new(vec![task(0, 5)], Duration::from_millis(5));
        let b = StageMetrics::new(vec![task(1, 7)], Duration::from_millis(7));
        a.merge(&b);
        assert_eq!(a.tasks.len(), 2);
        assert_eq!(a.wall, Duration::from_millis(12));
    }

    /// Regression test pinning the documented sequential-stage merge
    /// semantics: `wall` is additive, so merging N stages reports the
    /// sum of their walls — an overstatement for concurrent stages,
    /// which must be reported separately instead of merged.
    #[test]
    fn merge_wall_is_sequential_sum_not_max() {
        let mut a = StageMetrics::new(vec![task(0, 10)], Duration::from_millis(10));
        let b = StageMetrics::new(vec![task(1, 10)], Duration::from_millis(10));
        a.merge(&b);
        assert_eq!(
            a.wall,
            Duration::from_millis(20),
            "merge must keep summing walls (sequential-stage semantics); \
             if this changed, update the merge docs and every caller \
             that reports merged walls"
        );
        assert_ne!(a.wall, Duration::from_millis(10), "not max-semantics");
    }

    #[test]
    fn stage_report_preserves_queue_wait_and_execute_split() {
        let m = StageMetrics::new(vec![task(1, 30), task(0, 10)], Duration::from_millis(35));
        let report = m.stage_report("map");
        assert_eq!(report.name, "map");
        assert_eq!(report.wall_ns, 35_000_000);
        assert_eq!(report.tasks.len(), 2);
        assert_eq!(report.tasks[0].partition, 0);
        assert_eq!(report.tasks[0].execute_ns, 10_000_000);
        assert_eq!(report.tasks[0].queue_wait_ns, 1_000_000);
        assert_eq!(report.tasks[1].partition, 1);
        assert_eq!(report.tasks[1].queue_wait_ns, 3_000_000);
        assert_eq!(report.tasks[0].worker, 0);
        assert_eq!(report.tasks[1].worker, 1);
    }
}
