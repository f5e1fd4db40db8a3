//! The external throughput analyzer.
//!
//! The paper runs, alongside each workload, "a custom analyzer that sends
//! out the number of operations completed by the workload once every
//! second", observed from *outside* the VM with a time source unaffected by
//! VM suspension (§5.1). [`Analyzer`] reproduces that probe: it samples a
//! monotone operation counter on a fixed grid of simulation time; while the
//! VM is suspended the counter cannot advance, so the suspension shows up
//! as empty buckets — exactly the throughput gap of Figure 11.

use simkit::stats::TimeSeries;
use simkit::{SimDuration, SimTime};

/// Samples a monotone ops counter into per-interval throughput buckets.
#[derive(Debug, Clone)]
pub struct Analyzer {
    series: TimeSeries,
    last_ops: u64,
}

impl Analyzer {
    /// Creates an analyzer with a 1-second sampling grid.
    pub fn new() -> Self {
        Self::with_interval(SimDuration::from_secs(1))
    }

    /// Creates an analyzer with a custom grid.
    pub fn with_interval(interval: SimDuration) -> Self {
        Self {
            series: TimeSeries::new(interval),
            last_ops: 0,
        }
    }

    /// Records progress: `total_ops` is the workload's cumulative counter.
    ///
    /// Call as often as convenient (every simulation quantum); deltas are
    /// attributed to the bucket containing `now`.
    pub fn observe(&mut self, now: SimTime, total_ops: u64) {
        let delta = total_ops.saturating_sub(self.last_ops);
        self.last_ops = total_ops;
        if delta > 0 {
            self.series.record(now, delta as f64);
        } else {
            self.series.extend_to(now);
        }
    }

    /// Ensures trailing zero buckets exist up to `now`.
    pub fn finish(&mut self, now: SimTime) {
        self.series.extend_to(now);
    }

    /// Returns `(second, ops_in_that_second)` points.
    pub fn points(&self) -> Vec<(f64, f64)> {
        self.series.points()
    }

    /// Mean throughput over `[from, to)` seconds, in ops/second.
    pub fn mean_between(&self, from: f64, to: f64) -> f64 {
        let pts: Vec<f64> = self
            .points()
            .into_iter()
            .filter(|(t, _)| *t >= from && *t < to)
            .map(|(_, v)| v)
            .collect();
        if pts.is_empty() {
            0.0
        } else {
            pts.iter().sum::<f64>() / pts.len() as f64
        }
    }
}

impl Default for Analyzer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn deltas_land_in_their_seconds() {
        let mut a = Analyzer::new();
        a.observe(t(100), 5);
        a.observe(t(600), 9);
        a.observe(t(1500), 15);
        let pts = a.points();
        assert_eq!(pts[0].1, 9.0);
        assert_eq!(pts[1].1, 6.0);
    }

    #[test]
    fn suspension_creates_a_gap() {
        let mut a = Analyzer::new();
        for s in 0..3u64 {
            a.observe(t(s * 1000 + 500), (s + 1) * 10);
        }
        // 4 seconds of suspension: no observations, then a burst.
        a.observe(t(7500), 40);
        a.finish(t(8000));
        let gap: Vec<f64> = a.points()[3..8].iter().map(|&(_, v)| v).collect();
        assert_eq!(gap, vec![0.0, 0.0, 0.0, 0.0, 10.0]);
        assert!(a.mean_between(0.0, 3.0) > 0.0);
    }

    #[test]
    fn mean_between_windows() {
        let mut a = Analyzer::new();
        for s in 0..10u64 {
            a.observe(t(s * 1000 + 500), (s + 1) * 10);
        }
        assert!((a.mean_between(0.0, 10.0) - 10.0).abs() < 1e-9);
        assert_eq!(a.mean_between(20.0, 30.0), 0.0, "empty window");
    }
}
