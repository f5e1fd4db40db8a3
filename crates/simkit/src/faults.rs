//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] is a declarative, seeded description of everything that
//! may go wrong during one migration: coordination messages dropped,
//! delayed or duplicated on either hop (event channel, netlink), the JVM
//! agent stalling at any state of the LKM's five-state machine, the
//! enforced minor GC overrunning its budget, and the migration link
//! degrading mid-iteration.
//!
//! The plan itself holds no randomness — components that enact it fork
//! [`crate::rng::DetRng`] streams from [`FaultPlan::seed`], so a given plan
//! misbehaves *identically* on every run. An all-zero plan
//! ([`FaultPlan::none`]) is inert by construction: no component draws a
//! single random number for it and behaviour is bit-for-bit identical to a
//! run without fault injection.

use crate::time::SimDuration;

/// Per-hop message-fault probabilities (one lane = one transport). The
/// coordination transports draw each message copy's fate from these.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneFaults {
    /// Probability a message is silently dropped.
    pub drop: f64,
    /// Probability a message is delayed by up to [`LaneFaults::delay_max`].
    pub delay: f64,
    /// Upper bound of the (uniform) extra delivery delay.
    pub delay_max: SimDuration,
    /// Probability a message is delivered twice (same sequence number, so
    /// receivers can detect the duplicate).
    pub duplicate: f64,
}

impl LaneFaults {
    /// A lane with no faults.
    pub const NONE: LaneFaults = LaneFaults {
        drop: 0.0,
        delay: 0.0,
        delay_max: SimDuration::ZERO,
        duplicate: 0.0,
    };

    /// Returns whether any fault on this lane can fire.
    pub fn is_active(&self) -> bool {
        self.drop > 0.0 || self.delay > 0.0 || self.duplicate > 0.0
    }

    /// Returns whether every probability lies in `[0, 1]`.
    pub fn is_valid(&self) -> bool {
        let ok = |p: f64| (0.0..=1.0).contains(&p);
        ok(self.drop) && ok(self.delay) && ok(self.duplicate)
    }
}

impl Default for LaneFaults {
    fn default() -> Self {
        Self::NONE
    }
}

/// Where the JVM agent freezes. The points mirror the LKM's five operating
/// states: the agent stops responding upon entering the mirrored phase of
/// the protocol, before sending the reply that would advance it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallPoint {
    /// Frozen from the start: no message is ever answered.
    Initialized,
    /// Receives `QuerySkipOver` but never reports skip-over areas.
    MigrationStarted,
    /// Receives `PrepareSuspension` but never starts the enforced GC.
    EnteringLastIter,
    /// Runs the enforced GC but never reports `SuspensionReady`.
    SuspensionReady,
    /// The deepest failure: frozen from the start *and* deaf to the abort
    /// handshake — the run must still terminate via the degraded path.
    Degraded,
}

impl StallPoint {
    /// All stall points, one per LKM state.
    pub const ALL: [StallPoint; 5] = [
        StallPoint::Initialized,
        StallPoint::MigrationStarted,
        StallPoint::EnteringLastIter,
        StallPoint::SuspensionReady,
        StallPoint::Degraded,
    ];

    /// Stable name for reports and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            StallPoint::Initialized => "INITIALIZED",
            StallPoint::MigrationStarted => "MIGRATION_STARTED",
            StallPoint::EnteringLastIter => "ENTERING_LAST_ITER",
            StallPoint::SuspensionReady => "SUSPENSION_READY",
            StallPoint::Degraded => "DEGRADED",
        }
    }
}

/// The enforced minor GC overruns its natural duration by `extra`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcOverrun {
    /// Extra wall time added to the enforced GC. When this pushes the
    /// `SuspensionReady` reply past the LKM's straggler deadline, the run
    /// degrades exactly as for a stalled agent.
    pub extra: SimDuration,
}

/// The migration link degrades mid-migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDegrade {
    /// When the degradation strikes, relative to migration start.
    pub after: SimDuration,
    /// Bandwidth multiplier from that point on. `0.0` models a dead link
    /// (the engine reports `LinkDown` rather than crawling forever).
    pub factor: f64,
}

/// The application's workload cycle jumps phase mid-run: after `after`
/// of mutator running time, the phase clock is advanced by `jump` in one
/// step. Models a tenant whose periodic behavior shifts (a batch job
/// rescheduled, a cache flushed) — exactly the adversary an online cycle
/// detector must notice and distrust instead of scheduling on a stale
/// estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseShift {
    /// Mutator running time before the shift fires.
    pub after: SimDuration,
    /// How far the phase clock jumps when it does.
    pub jump: SimDuration,
}

/// A complete, seeded fault plan for one migration.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed all fault randomness forks from (lane RNGs use distinct
    /// sub-streams, so plans compose deterministically).
    pub seed: u64,
    /// Faults on the daemon ↔ LKM event-channel hop.
    pub evtchn: LaneFaults,
    /// Faults on the LKM ↔ application netlink hop.
    pub netlink: LaneFaults,
    /// Freeze the JVM agent at a protocol point.
    pub agent_stall: Option<StallPoint>,
    /// Overrun the enforced minor GC.
    pub gc_overrun: Option<GcOverrun>,
    /// Degrade the migration link mid-iteration.
    pub link: Option<LinkDegrade>,
    /// Jump the workload's phase clock mid-run.
    pub phase_shift: Option<PhaseShift>,
}

impl FaultPlan {
    /// The inert plan: nothing fails. Guaranteed not to perturb a run in
    /// any way (no RNG draws, no timing changes).
    pub fn none() -> Self {
        Self {
            seed: 0,
            evtchn: LaneFaults::NONE,
            netlink: LaneFaults::NONE,
            agent_stall: None,
            gc_overrun: None,
            link: None,
            phase_shift: None,
        }
    }

    /// Returns whether any fault in the plan can fire.
    pub fn is_active(&self) -> bool {
        self.evtchn.is_active()
            || self.netlink.is_active()
            || self.agent_stall.is_some()
            || self.gc_overrun.is_some()
            || self.link.is_some()
            || self.phase_shift.is_some()
    }

    /// Returns whether all probabilities are well-formed.
    pub fn is_valid(&self) -> bool {
        self.evtchn.is_valid()
            && self.netlink.is_valid()
            && !self.link.is_some_and(|l| l.factor < 0.0)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// The proximate fault that pushed a migration off the assisted path.
///
/// Carried in `DegradedVanilla` outcomes, engine timelines and telemetry so
/// every injected fault surfaces as a typed, testable value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The LKM never acknowledged `MigrationBegin` within the retry budget.
    BeginAckTimeout,
    /// `ReadyToSuspend` never arrived within the retry budget after
    /// `EnteringLastIter`.
    ReadyTimeout,
    /// `ReadyToSuspend` arrived reporting stragglers and policy demands
    /// degradation rather than partial assistance.
    AgentStraggler,
    /// The migration link collapsed.
    LinkDegraded,
}

impl FaultKind {
    /// Stable name for reports and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::BeginAckTimeout => "begin_ack_timeout",
            FaultKind::ReadyTimeout => "ready_timeout",
            FaultKind::AgentStraggler => "agent_straggler",
            FaultKind::LinkDegraded => "link_degraded",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_is_inactive_and_valid() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        assert!(plan.is_valid());
        assert_eq!(plan, FaultPlan::default());
    }

    #[test]
    fn lane_probabilities_validate() {
        let mut lane = LaneFaults::NONE;
        assert!(lane.is_valid());
        lane.drop = 1.5;
        assert!(!lane.is_valid());
    }

    #[test]
    fn stall_points_cover_all_five_states() {
        assert_eq!(StallPoint::ALL.len(), 5);
        let names: std::collections::BTreeSet<_> =
            StallPoint::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 5);
    }
}
