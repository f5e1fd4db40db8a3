//! Statistics helpers: running means, confidence intervals, time series.
//!
//! The paper repeats every experiment at least three times and reports means
//! with 90% confidence intervals; [`SampleStats`] reproduces that
//! methodology. [`TimeSeries`] implements the external throughput probe that
//! samples operations per second on a fixed wall-clock grid.

use crate::time::{SimDuration, SimTime};

/// Running sample statistics (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use simkit::stats::SampleStats;
///
/// let mut s = SampleStats::new();
/// for x in [2.0, 4.0, 6.0] {
///     s.add(x);
/// }
/// assert_eq!(s.mean(), 4.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SampleStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl SampleStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Returns the number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns the sample mean, or zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Returns the smallest observation, or zero when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Returns the largest observation, or zero when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Returns the unbiased sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Returns the half-width of the 90% confidence interval of the mean.
    ///
    /// Uses Student's t critical values for small samples, matching how the
    /// paper reports its ≥3-run experiments.
    pub fn ci90_half_width(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let t = t_critical_90(self.count - 1);
        t * self.std_dev() / (self.count as f64).sqrt()
    }
}

/// Two-sided 90% Student's t critical value for `df` degrees of freedom.
fn t_critical_90(df: u64) -> f64 {
    // Table values for alpha = 0.10 two-sided.
    const TABLE: [f64; 30] = [
        6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812, 1.796, 1.782, 1.771,
        1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706,
        1.703, 1.701, 1.699, 1.697,
    ];
    if df == 0 {
        f64::INFINITY
    } else if df <= 30 {
        TABLE[(df - 1) as usize]
    } else {
        1.645
    }
}

/// Nearest-rank percentile of an ascending-sorted sample.
///
/// Uses the classic nearest-rank definition (`rank = ceil(p/100 * n)`), so
/// the result is always an observed sample — appropriate for the small
/// per-phase latency populations the telemetry span table summarises.
/// Returns `f64::NAN` for an empty slice: a percentile of nothing is not a
/// number, and `NAN` propagates loudly instead of masquerading as a real
/// zero-latency observation.
///
/// # Panics
///
/// Panics if `p` is outside `(0, 100]`.
///
/// # Examples
///
/// ```
/// use simkit::stats::percentile_nearest_rank;
///
/// let sorted = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile_nearest_rank(&sorted, 50.0), 2.0);
/// assert_eq!(percentile_nearest_rank(&sorted, 95.0), 4.0);
/// assert!(percentile_nearest_rank(&[], 95.0).is_nan());
/// ```
pub fn percentile_nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
    if sorted.is_empty() {
        return f64::NAN;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// A fixed-interval time series sampled on an external clock.
///
/// This mirrors the paper's analyzer, which reports the number of operations
/// completed once every second using a time source unaffected by VM pauses:
/// values accumulated while the VM is suspended land in the bucket covering
/// the suspension, producing the characteristic throughput gap.
///
/// # Examples
///
/// ```
/// use simkit::stats::TimeSeries;
/// use simkit::time::{SimDuration, SimTime};
///
/// let mut ts = TimeSeries::new(SimDuration::from_secs(1));
/// ts.record(SimTime::from_nanos(200_000_000), 5.0);
/// ts.record(SimTime::from_nanos(1_200_000_000), 7.0);
/// assert_eq!(ts.bucket_values(), vec![5.0, 7.0]);
/// ```
#[derive(Debug, Clone)]
pub struct TimeSeries {
    interval: SimDuration,
    buckets: Vec<f64>,
}

impl TimeSeries {
    /// Creates a series with the given sampling interval.
    ///
    /// # Panics
    ///
    /// Panics if the interval is zero.
    pub fn new(interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        Self {
            interval,
            buckets: Vec::new(),
        }
    }

    /// Adds `value` to the bucket containing instant `at`.
    pub fn record(&mut self, at: SimTime, value: f64) {
        let idx = (at.as_nanos() / self.interval.as_nanos()) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0.0);
        }
        self.buckets[idx] += value;
    }

    /// Returns the sampling interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Returns the accumulated value per bucket.
    pub fn bucket_values(&self) -> Vec<f64> {
        self.buckets.clone()
    }

    /// Returns `(bucket_start_seconds, value)` pairs.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let step = self.interval.as_secs_f64();
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as f64 * step, v))
            .collect()
    }

    /// Ensures buckets exist up to the one containing `until` so trailing
    /// idle periods appear as explicit zeros.
    pub fn extend_to(&mut self, until: SimTime) {
        let idx = (until.as_nanos() / self.interval.as_nanos()) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_mean_and_stddev() {
        let mut s = SampleStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.138089935).abs() < 1e-6);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = SampleStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.ci90_half_width(), 0.0);
    }

    #[test]
    fn ci_uses_t_table_for_three_runs() {
        let mut s = SampleStats::new();
        for x in [10.0, 12.0, 14.0] {
            s.add(x);
        }
        // df = 2 -> t = 2.920; sd = 2; ci = 2.920 * 2 / sqrt(3).
        let expected = 2.920 * 2.0 / 3.0f64.sqrt();
        assert!((s.ci90_half_width() - expected).abs() < 1e-9);
    }

    #[test]
    fn t_critical_large_df_is_normal() {
        assert_eq!(t_critical_90(1000), 1.645);
    }

    #[test]
    fn percentile_nearest_rank_matches_definition() {
        let sorted = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile_nearest_rank(&sorted, 20.0), 10.0);
        assert_eq!(percentile_nearest_rank(&sorted, 50.0), 30.0);
        assert_eq!(percentile_nearest_rank(&sorted, 95.0), 50.0);
        assert_eq!(percentile_nearest_rank(&sorted, 100.0), 50.0);
    }

    #[test]
    fn percentile_nearest_rank_edge_cases() {
        // Empty: NaN, not a fake zero observation.
        assert!(percentile_nearest_rank(&[], 95.0).is_nan());
        assert!(percentile_nearest_rank(&[], 100.0).is_nan());
        // A single element is every percentile of itself.
        assert_eq!(percentile_nearest_rank(&[7.5], 0.1), 7.5);
        assert_eq!(percentile_nearest_rank(&[7.5], 95.0), 7.5);
        assert_eq!(percentile_nearest_rank(&[7.5], 100.0), 7.5);
        // p = 100 always returns the maximum.
        assert_eq!(percentile_nearest_rank(&[1.0, 2.0], 100.0), 2.0);
    }

    #[test]
    fn timeseries_buckets_by_interval() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1));
        ts.record(SimTime::from_nanos(100), 1.0);
        ts.record(SimTime::from_nanos(999_999_999), 2.0);
        ts.record(SimTime::from_nanos(1_000_000_000), 4.0);
        assert_eq!(ts.bucket_values(), vec![3.0, 4.0]);
        let pts = ts.points();
        assert_eq!(pts[1], (1.0, 4.0));
    }

    #[test]
    fn timeseries_extend_fills_zeros() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1));
        ts.record(SimTime::from_nanos(0), 1.0);
        ts.extend_to(SimTime::from_nanos(3_500_000_000));
        assert_eq!(ts.bucket_values(), vec![1.0, 0.0, 0.0, 0.0]);
    }
}
