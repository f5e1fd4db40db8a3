//! Ordering policies: who migrates next when uplink capacity frees up.
//!
//! All policies are deterministic functions of the roster and the
//! simulated guests' own state — no wall clock, no randomness — so a drain
//! under any policy is exactly reproducible from its seed.
//!
//! * [`FleetPolicy::Fifo`] admits in roster order with head-of-line
//!   blocking, the baseline every real orchestrator starts from.
//! * [`FleetPolicy::SmallestWorkingSetFirst`] probes each tenant's heap
//!   once at drain start and admits ascending by resident working set —
//!   the live-migration analogue of shortest-job-first.
//! * [`FleetPolicy::CycleAware`] defers tenants the *workload
//!   observatory* ([`detect`](mod@crate::detect)) predicts are at a dirty-rate peak
//!   of their own detected cycle, after Baruchi et al., who showed that
//!   migrating a VM during its write-quiet phase can cut transferred
//!   bytes by a third or more. The policy sees only what the scheduler
//!   *senses* — the per-VM dirty-rate ring and the estimates the
//!   detector derives from it. Estimates below
//!   [`crate::detect::CONFIDENCE_GATE`] score exactly 1.0, where the
//!   working-set tie-break takes over: when the detector is unsure the
//!   policy *is* smallest-working-set-first, never a guess.
//! * [`FleetPolicy::CycleDeclared`] is the oracle the observatory is
//!   measured against: the same peak-ratio deferral computed from the
//!   tenant's *declared* phase cycle (the application-assisted route —
//!   the same philosophy as the paper's JVMTI agent, one level up).
//!   Real tenants never provide this; it exists so `detect` accuracy has
//!   a ground-truth run to be compared with.

/// An ordering policy for the fleet scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetPolicy {
    /// Roster order, head-of-line blocking.
    Fifo,
    /// One-time working-set probe at drain start, ascending.
    SmallestWorkingSetFirst,
    /// Defer tenants whose *detected* cycle predicts a dirty peak now.
    CycleAware,
    /// Defer tenants whose *declared* cycle says they are at a peak —
    /// the ground-truth oracle for detected-vs-declared accuracy.
    CycleDeclared,
}

impl FleetPolicy {
    /// Every policy, in the order benches and tables report them.
    pub const ALL: [FleetPolicy; 4] = [
        FleetPolicy::Fifo,
        FleetPolicy::SmallestWorkingSetFirst,
        FleetPolicy::CycleAware,
        FleetPolicy::CycleDeclared,
    ];

    /// Stable name used in digests, files and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            FleetPolicy::Fifo => "fifo",
            FleetPolicy::SmallestWorkingSetFirst => "swsf",
            FleetPolicy::CycleAware => "cycle",
            FleetPolicy::CycleDeclared => "cycle-declared",
        }
    }

    /// Parses a policy name as accepted by the bench CLI.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fifo" => Some(FleetPolicy::Fifo),
            "swsf" | "smallest-working-set-first" => Some(FleetPolicy::SmallestWorkingSetFirst),
            "cycle" | "cycle-aware" => Some(FleetPolicy::CycleAware),
            "cycle-declared" | "declared" => Some(FleetPolicy::CycleDeclared),
            _ => None,
        }
    }
}

/// Time-weighted average dirty rate of a declared phase cycle — the
/// denominator of the declared peak ratio, and the threshold below which
/// an instant counts as a declared trough for window-hit accounting.
pub fn cycle_average_rate(phases: &[jheap::mutator::Phase]) -> f64 {
    let total: f64 = phases.iter().map(|p| p.duration.as_secs_f64()).sum();
    if total <= 0.0 {
        return 1.0;
    }
    let weighted: f64 = phases
        .iter()
        .map(|p| (p.profile.alloc_rate + p.profile.old_write_rate) * p.duration.as_secs_f64())
        .sum();
    (weighted / total).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for p in FleetPolicy::ALL {
            assert_eq!(FleetPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(
            FleetPolicy::parse("declared"),
            Some(FleetPolicy::CycleDeclared)
        );
        assert_eq!(FleetPolicy::parse("lifo"), None);
    }

    #[test]
    fn cycle_average_is_time_weighted() {
        use jheap::mutator::{MutatorProfile, Phase};
        use simkit::SimDuration;
        let phases = vec![
            Phase {
                duration: SimDuration::from_secs(2),
                profile: MutatorProfile {
                    alloc_rate: 90e6,
                    old_write_rate: 10e6,
                    ..MutatorProfile::quiet()
                },
            },
            Phase {
                duration: SimDuration::from_secs(6),
                profile: MutatorProfile {
                    alloc_rate: 10e6,
                    old_write_rate: 10e6,
                    ..MutatorProfile::quiet()
                },
            },
        ];
        // (100e6 * 2 + 20e6 * 6) / 8 = 40e6.
        let avg = cycle_average_rate(&phases);
        assert!((avg - 40e6).abs() < 1.0, "got {avg}");
    }
}
