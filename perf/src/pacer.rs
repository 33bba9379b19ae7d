//! Open-loop accounting for the paced serve phase. The appender writes
//! batch `k` when it is *due*, on a schedule fixed before the phase
//! starts; every latency is measured from that due time, so a stall
//! charges the batches queued behind it too.

use std::time::Duration;

/// The fixed append schedule: batch `k` (0-based) is due `k × interval`
/// after the phase's origin and brings the visible line count to
/// `cumulative(k)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Lines already in the file when the phase starts.
    pub start_lines: u64,
    /// Lines per batch.
    pub per_batch: u64,
    /// Number of batches.
    pub batches: usize,
    /// Time between due times.
    pub interval: Duration,
}

impl Schedule {
    /// Due time of batch `k`, as an offset from the phase origin.
    pub fn due(&self, k: usize) -> Duration {
        self.interval * k as u32
    }

    /// Lines in the file once batch `k` is written.
    pub fn cumulative(&self, k: usize) -> u64 {
        self.start_lines + self.per_batch * (k as u64 + 1)
    }

    /// Lines in the file once every batch is written.
    pub fn final_lines(&self) -> u64 {
        self.start_lines + self.per_batch * self.batches as u64
    }
}

/// Due-time → visible latency of every batch. `observations` are the
/// watcher's `(offset from origin, visible line count)` readings in time
/// order; batch `k` became visible at the first reading whose count
/// reaches `cumulative(k)`. `None` marks a batch no reading ever showed.
pub fn visible_latencies(
    schedule: &Schedule,
    observations: &[(Duration, u64)],
) -> Vec<Option<Duration>> {
    let mut next = 0usize;
    (0..schedule.batches)
        .map(|k| {
            let need = schedule.cumulative(k);
            while next < observations.len() && observations[next].1 < need {
                next += 1;
            }
            observations
                .get(next)
                .map(|(seen, _)| seen.saturating_sub(schedule.due(k)))
        })
        .collect()
}

/// Whether the backlog grew over the phase: even the fastest batch of
/// the last quarter took more than twice the median of the first quarter
/// — and more than five batch intervals. A backlog that grows delays
/// every later batch; a hiccup of the box delays some and lets the next
/// ones through, and a latency of a few poll intervals doubles with no
/// backlog behind it.
pub fn backlog_grew(latencies_ms: &[f64], interval_ms: f64) -> bool {
    let quarter = latencies_ms.len() / 4;
    if quarter == 0 {
        return false;
    }
    let first = crate::stats::median(&latencies_ms[..quarter]);
    let last = latencies_ms[latencies_ms.len() - quarter..]
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    last > 2.0 * first && last > 5.0 * interval_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    fn schedule(batches: usize) -> Schedule {
        Schedule {
            start_lines: 100,
            per_batch: 20,
            batches,
            interval: 10 * MS,
        }
    }

    #[test]
    fn schedule_is_fixed_before_the_phase() {
        let s = schedule(3);
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(2), 20 * MS);
        assert_eq!(s.cumulative(0), 120);
        assert_eq!(s.cumulative(2), 160);
        assert_eq!(s.final_lines(), 160);
    }

    #[test]
    fn latency_runs_from_the_due_time_not_the_write() {
        // One reading at 25 ms shows batches 0 and 1 at once (the reader
        // was stalled): batch 0 waited 25 ms, batch 1 waited 15 ms.
        let obs = [(25 * MS, 140), (31 * MS, 160)];
        assert_eq!(
            visible_latencies(&schedule(3), &obs),
            vec![Some(25 * MS), Some(15 * MS), Some(11 * MS)]
        );
    }

    #[test]
    fn a_batch_no_reading_shows_is_never_visible() {
        let obs = [(12 * MS, 120)];
        assert_eq!(
            visible_latencies(&schedule(2), &obs),
            vec![Some(12 * MS), None]
        );
    }

    #[test]
    fn backlog_growth_compares_the_outer_quarters() {
        let flat: Vec<f64> = (0..40).map(|i| 10.0 + f64::from(i % 3)).collect();
        assert!(!backlog_grew(&flat, 10.0));
        let growing: Vec<f64> = (0..40).map(|i| 10.0 + 3.0 * f64::from(i)).collect();
        assert!(backlog_grew(&growing, 10.0));
        // Doubling within a few intervals is no backlog.
        let jitter: Vec<f64> = (0..40).map(|i| if i < 30 { 6.0 } else { 14.0 }).collect();
        assert!(!backlog_grew(&jitter, 10.0));
        // Nor is a stall the later batches recover from.
        let hiccup: Vec<f64> = (0..40)
            .map(|i| if (32..36).contains(&i) { 300.0 } else { 6.0 })
            .collect();
        assert!(!backlog_grew(&hiccup, 10.0));
    }
}
