//! Migration reports: per-iteration statistics and end-to-end metrics.

use crate::assist::ColdReport;
use crate::destination::VerifyReport;
use crate::error::MigrationOutcome;
use guestos::lkm::LkmStats;
use simkit::{RunTelemetry, SimDuration, SimTime};
use vmem::{PageClass, PAGE_SIZE};

/// Why the engine left the live pre-copy phase (Xen's three exits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The iteration cap was reached (Figure 1's forced stop).
    MaxIterations,
    /// Total traffic exceeded `max_factor` x RAM.
    TrafficCap,
    /// Few enough transferable dirty pages remained (convergence).
    DirtyThreshold,
}

/// Wire bytes broken down by the content class of the pages sent.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrafficByClass {
    bytes: [u64; PageClass::ALL.len()],
}

impl TrafficByClass {
    /// Adds `bytes` of traffic for `class`.
    pub fn add(&mut self, class: PageClass, bytes: u64) {
        self.bytes[class.index()] += bytes;
    }

    /// Returns the bytes sent for `class`.
    pub fn get(&self, class: PageClass) -> u64 {
        self.bytes[class.index()]
    }

    /// Iterates `(class, bytes)` pairs with non-zero traffic, largest first.
    pub fn sorted(&self) -> Vec<(PageClass, u64)> {
        let mut v: Vec<(PageClass, u64)> = PageClass::ALL
            .iter()
            .map(|&c| (c, self.get(c)))
            .filter(|&(_, b)| b > 0)
            .collect();
        v.sort_by_key(|&(_, b)| core::cmp::Reverse(b));
        v
    }

    /// Total bytes across all classes.
    pub fn total(&self) -> u64 {
        self.bytes.iter().sum()
    }
}

/// What one pre-copy iteration did (one box of the paper's Figure 8).
#[derive(Debug, Clone)]
pub struct IterationStats {
    /// 1-based iteration index; the last (stop-and-copy) iteration carries
    /// the highest index.
    pub index: u32,
    /// Iteration start time.
    pub start: SimTime,
    /// Iteration duration.
    pub duration: SimDuration,
    /// Pages in the to-send set at iteration start.
    pub pages_to_send: u64,
    /// Pages actually transferred.
    pub pages_sent: u64,
    /// Bytes put on the wire (page data + headers, after compression).
    pub bytes_sent: u64,
    /// Pages skipped because they were re-dirtied during the iteration
    /// (Xen's skip heuristic).
    pub pages_skipped_dirty: u64,
    /// Pages skipped because their transfer bit was cleared (skip-over
    /// areas; zero for vanilla migration).
    pub pages_skipped_transfer: u64,
    /// Pages newly dirtied while this iteration ran.
    pub pages_dirtied_during: u64,
}

impl IterationStats {
    /// Achieved transfer rate in pages/second.
    pub fn transfer_rate_pps(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs > 0.0 {
            self.pages_sent as f64 / secs
        } else {
            0.0
        }
    }

    /// Memory dirtying rate in pages/second during this iteration.
    pub fn dirtying_rate_pps(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs > 0.0 {
            self.pages_dirtied_during as f64 / secs
        } else {
            0.0
        }
    }

    /// Bytes of memory processed, by disposition: (transferred,
    /// skipped-already-dirtied, skipped-by-transfer-bitmap) — the three
    /// stackings of Figure 9.
    pub fn processed_bytes(&self) -> (u64, u64, u64) {
        (
            self.pages_sent * PAGE_SIZE,
            self.pages_skipped_dirty * PAGE_SIZE,
            self.pages_skipped_transfer * PAGE_SIZE,
        )
    }
}

/// Where the workload-perceived downtime went.
#[derive(Debug, Clone, Copy, Default)]
pub struct DowntimeBreakdown {
    /// Time for Java threads to reach the safepoint (not part of downtime —
    /// the workload keeps running — reported for completeness).
    pub safepoint_wait: SimDuration,
    /// The enforced minor GC (JAVMM only).
    pub enforced_gc: SimDuration,
    /// The final transfer-bitmap update (JAVMM only; paper: ≤300 µs).
    pub final_update: SimDuration,
    /// The stop-and-copy transfer.
    pub last_iteration: SimDuration,
    /// Device reconnection and activation at the destination.
    pub resume: SimDuration,
}

impl DowntimeBreakdown {
    /// Workload-perceived downtime: enforced GC + final update +
    /// stop-and-copy + resumption (the paper's Figure 10c metric).
    pub fn workload_downtime(&self) -> SimDuration {
        self.enforced_gc + self.final_update + self.last_iteration + self.resume
    }

    /// VM downtime: pause-to-resume (stop-and-copy + resumption).
    pub fn vm_downtime(&self) -> SimDuration {
        self.last_iteration + self.resume
    }
}

/// The complete outcome of one migration.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// Per-iteration statistics, including the final stop-and-copy.
    pub iterations: Vec<IterationStats>,
    /// Wall-clock time from invocation to VM activation at the destination.
    pub total_duration: SimDuration,
    /// Total network traffic (bytes on the wire).
    pub total_bytes: u64,
    /// Downtime breakdown.
    pub downtime: DowntimeBreakdown,
    /// Migration daemon CPU time consumed.
    pub cpu_time: SimDuration,
    /// Source/destination memory comparison at pause time.
    pub verification: VerifyReport,
    /// Wire traffic broken down by page content class.
    pub traffic_by_class: TrafficByClass,
    /// Why live iteration ended.
    pub stop_reason: StopReason,
    /// Whether the requested protocol completed or degraded to vanilla
    /// pre-copy mid-run (with the triggering fault).
    pub outcome: MigrationOutcome,
    /// What the cold-page assist did. `None` unless the run was configured
    /// with [`crate::assist::ColdAssistConfig`] enabled — the digest only
    /// emits its cold section (and bumps its schema) when this is present.
    pub cold: Option<ColdReport>,
    /// LKM statistics (assisted runs only).
    pub lkm: Option<LkmStats>,
    /// Stragglers forcibly un-skipped (assisted runs only).
    pub stragglers: u32,
    /// Cross-layer flight-recorder snapshot. Empty (with `enabled ==
    /// false`) unless the run was started through
    /// [`crate::precopy::PrecopyEngine::migrate_recorded`].
    pub telemetry: RunTelemetry,
}

impl MigrationReport {
    /// Number of iterations performed (including the stop-and-copy).
    pub fn iteration_count(&self) -> u32 {
        self.iterations.len() as u32
    }

    /// The stop-and-copy iteration.
    ///
    /// # Panics
    ///
    /// Panics if the report is empty (never produced by the engine).
    pub fn last_iteration(&self) -> &IterationStats {
        self.iterations.last().expect("report has iterations")
    }

    /// Total pages transferred.
    pub fn pages_sent(&self) -> u64 {
        self.iterations.iter().map(|i| i.pages_sent).sum()
    }

    /// Total pages skipped because of skip-over areas.
    pub fn pages_skipped_transfer(&self) -> u64 {
        self.iterations
            .iter()
            .map(|i| i.pages_skipped_transfer)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_and_processed() {
        let it = IterationStats {
            index: 1,
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(2),
            pages_to_send: 1000,
            pages_sent: 800,
            bytes_sent: 800 * PAGE_SIZE,
            pages_skipped_dirty: 150,
            pages_skipped_transfer: 50,
            pages_dirtied_during: 400,
        };
        assert_eq!(it.transfer_rate_pps(), 400.0);
        assert_eq!(it.dirtying_rate_pps(), 200.0);
        let (t, d, s) = it.processed_bytes();
        assert_eq!(t, 800 * PAGE_SIZE);
        assert_eq!(d, 150 * PAGE_SIZE);
        assert_eq!(s, 50 * PAGE_SIZE);
    }

    #[test]
    fn downtime_composition() {
        let d = DowntimeBreakdown {
            safepoint_wait: SimDuration::from_millis(700),
            enforced_gc: SimDuration::from_millis(900),
            final_update: SimDuration::from_micros(300),
            last_iteration: SimDuration::from_millis(100),
            resume: SimDuration::from_millis(170),
        };
        assert_eq!(d.vm_downtime(), SimDuration::from_millis(270));
        // Safepoint wait is excluded: the workload still runs.
        assert_eq!(
            d.workload_downtime(),
            SimDuration::from_micros(900_000 + 300 + 100_000 + 170_000)
        );
    }
}
