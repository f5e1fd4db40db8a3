//! Per-migration SLA cost accounting.
//!
//! Voorsluys et al. ("Cost of Virtual Machine Live Migration in Clouds")
//! measured that a migrating VM hurts its tenants twice: a short, total
//! outage around the stop-and-copy, and a longer *brownout* — degraded
//! application throughput — for the whole live phase while the migration
//! steals CPU and network from the workload. [`SlaModel`] turns both into
//! a single comparable cost figure per migration, which is what the fleet
//! scheduler's policy comparison ranks on: an ordering policy that halves
//! aggregate downtime but doubles everyone's time-in-migration is not
//! obviously a win, and the cost model makes that trade explicit.
//!
//! Costs are plain `f64` arithmetic over the deterministic
//! [`MigrationReport`] durations, so same report ⇒ same cost, bit for bit.

use crate::report::MigrationReport;
use simkit::SimDuration;

/// Cost-rate model for one VM's service-level agreement.
#[derive(Debug, Clone, Copy)]
pub struct SlaModel {
    /// Cost per second of full workload outage (the paper's application
    /// downtime: safepoint + enforced GC + final update + stop-and-copy +
    /// resume).
    pub downtime_cost_per_sec: f64,
    /// Cost per second of degraded service during the live phase.
    pub brownout_cost_per_sec: f64,
    /// Fraction of service lost during the live phase (Voorsluys measured
    /// roughly a 10–20 % throughput dip while a migration is in flight).
    pub brownout_factor: f64,
    /// Downtime budget; exceeding it incurs the flat violation penalty.
    pub downtime_budget: SimDuration,
    /// Flat penalty charged once if workload downtime exceeds the budget.
    pub violation_penalty: f64,
}

impl SlaModel {
    /// A latency-sensitive service: expensive downtime, a tight 3-second
    /// budget, and a noticeable brownout charge.
    pub fn default_web() -> Self {
        Self {
            downtime_cost_per_sec: 10.0,
            brownout_cost_per_sec: 1.0,
            brownout_factor: 0.15,
            downtime_budget: SimDuration::from_secs(3),
            violation_penalty: 25.0,
        }
    }

    /// A throughput-oriented batch service: downtime is cheap, but
    /// long-running degradation still costs.
    pub fn default_batch() -> Self {
        Self {
            downtime_cost_per_sec: 1.0,
            brownout_cost_per_sec: 0.5,
            brownout_factor: 0.15,
            downtime_budget: SimDuration::from_secs(30),
            violation_penalty: 5.0,
        }
    }

    /// The cost of one finished migration under this model.
    pub fn cost(&self, report: &MigrationReport) -> SlaCost {
        let downtime = report.downtime.workload_downtime();
        // The live phase is everything before the workload went dark.
        let live = report.total_duration.saturating_sub(downtime);
        let downtime_cost = downtime.as_secs_f64() * self.downtime_cost_per_sec;
        let brownout_cost = live.as_secs_f64() * self.brownout_cost_per_sec * self.brownout_factor;
        let penalty = if downtime > self.downtime_budget {
            self.violation_penalty
        } else {
            0.0
        };
        SlaCost {
            downtime: downtime_cost,
            brownout: brownout_cost,
            penalty,
        }
    }
}

/// One migration's cost, broken down by source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaCost {
    /// Cost attributed to full workload outage.
    pub downtime: f64,
    /// Cost attributed to degraded throughput during the live phase.
    pub brownout: f64,
    /// Flat violation penalty, if the downtime budget was blown.
    pub penalty: f64,
}

impl SlaCost {
    /// A zero cost (no migration happened).
    pub const ZERO: SlaCost = SlaCost {
        downtime: 0.0,
        brownout: 0.0,
        penalty: 0.0,
    };

    /// Total cost across all sources.
    pub fn total(&self) -> f64 {
        self.downtime + self.brownout + self.penalty
    }

    /// Accumulates another migration's cost (fleet aggregation).
    pub fn add(&mut self, other: &SlaCost) {
        self.downtime += other.downtime;
        self.brownout += other.brownout;
        self.penalty += other.penalty;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::destination::VerifyReport;
    use crate::error::MigrationOutcome;
    use crate::report::{DowntimeBreakdown, StopReason, TrafficByClass};
    use simkit::telemetry::Recorder;

    fn report(total_secs: u64, downtime_ms: u64) -> MigrationReport {
        MigrationReport {
            iterations: Vec::new(),
            total_duration: SimDuration::from_secs(total_secs),
            total_bytes: 0,
            downtime: DowntimeBreakdown {
                safepoint_wait: SimDuration::ZERO,
                enforced_gc: SimDuration::ZERO,
                final_update: SimDuration::ZERO,
                last_iteration: SimDuration::from_millis(downtime_ms),
                resume: SimDuration::ZERO,
            },
            cpu_time: SimDuration::ZERO,
            verification: VerifyReport::default(),
            traffic_by_class: TrafficByClass::default(),
            stop_reason: StopReason::DirtyThreshold,
            outcome: MigrationOutcome::Completed,
            cold: None,
            lkm: None,
            stragglers: 0,
            telemetry: Recorder::disabled().snapshot(),
        }
    }

    #[test]
    fn cost_splits_downtime_and_brownout() {
        let model = SlaModel {
            downtime_cost_per_sec: 10.0,
            brownout_cost_per_sec: 1.0,
            brownout_factor: 0.5,
            downtime_budget: SimDuration::from_secs(3),
            violation_penalty: 100.0,
        };
        // 10 s total, 2 s down -> 8 s live.
        let c = model.cost(&report(10, 2000));
        assert!((c.downtime - 20.0).abs() < 1e-9);
        assert!((c.brownout - 4.0).abs() < 1e-9);
        assert_eq!(c.penalty, 0.0);
        assert!((c.total() - 24.0).abs() < 1e-9);
    }

    #[test]
    fn budget_violation_charges_penalty_once() {
        let model = SlaModel {
            downtime_budget: SimDuration::from_secs(1),
            ..SlaModel::default_web()
        };
        let c = model.cost(&report(10, 1500));
        assert_eq!(c.penalty, model.violation_penalty);
        let ok = model.cost(&report(10, 500));
        assert_eq!(ok.penalty, 0.0);
    }

    #[test]
    fn aggregation_adds_componentwise() {
        let model = SlaModel::default_batch();
        let mut acc = SlaCost::ZERO;
        acc.add(&model.cost(&report(10, 1000)));
        acc.add(&model.cost(&report(20, 2000)));
        let direct = model.cost(&report(10, 1000)).total() + model.cost(&report(20, 2000)).total();
        assert!((acc.total() - direct).abs() < 1e-9);
    }
}
