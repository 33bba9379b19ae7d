//! Order statistics for the reported metrics.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of the fastest quarter of the repetitions (at least one). What
/// disturbs a repetition only ever adds time, and the probes around it
/// (see `cpus`) do not see all of it, so the slower three quarters say more about the
/// neighbours than about the program; a mean of six moves less than any
/// single one of them.
pub fn fastest_quarter_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "mean of no samples");
    v.truncate((v.len() / 4).max(1));
    v.iter().sum::<f64>() / v.len() as f64
}

/// Nearest-rank percentile `p` (0..=1) of an ascending slice.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile the sample supports: `wanted` (e.g. 0.95) when at
/// least ten samples lie beyond it, otherwise the highest percentile
/// that still has ten samples beyond, and the median when the sample is
/// too small for any tail. Returns `(percentile used, value)`.
pub fn tail_percentile(values: &[f64], wanted: f64) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "percentile of no samples");
    let supported = 1.0 - 10.0 / n as f64;
    let p = if supported < 0.5 {
        0.5
    } else {
        wanted.min(supported)
    };
    if p == 0.5 {
        (p, median(&v))
    } else {
        (p, nearest_rank(&v, p))
    }
}

/// `(min, median, max)` of a non-empty slice.
pub fn min_median_max(values: &[f64]) -> (f64, f64, f64) {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (min, median(values), max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fastest_quarter_mean_ignores_the_slower_three_quarters() {
        let v: Vec<f64> = (1..=24).rev().map(f64::from).collect();
        // 1..=6
        assert_eq!(fastest_quarter_mean(&v), 3.5);
        assert_eq!(fastest_quarter_mean(&[9.0, 7.0, 8.0]), 7.0);
        let mut disturbed = v.clone();
        disturbed[..18].iter_mut().for_each(|x| *x *= 3.0);
        assert_eq!(fastest_quarter_mean(&disturbed), 3.5);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        // 200 samples: exactly ten lie beyond the 95th percentile.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.95), (0.95, 190.0));
        // 100 samples support only the 90th.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.95), (0.9, 90.0));
        // Fewer than twenty samples support no tail at all.
        let v: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.95), (0.5, 8.0));
    }

    #[test]
    fn min_median_max_of_unsorted_input() {
        assert_eq!(min_median_max(&[5.0, 1.0, 3.0]), (1.0, 3.0, 5.0));
    }
}
