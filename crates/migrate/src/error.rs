//! Typed errors and outcomes for the migration engine.
//!
//! The engine's entry points return `Result<MigrationReport, MigrateError>`:
//! unrecoverable conditions (a missing LKM for an assisted run, a dead link,
//! an exhausted coordination handshake with [`FallbackPolicy::Fail`]) are
//! errors; recoverable ones degrade the run to vanilla pre-copy and surface
//! as [`MigrationOutcome::DegradedVanilla`] in the report instead.
//!
//! [`FallbackPolicy::Fail`]: crate::config::FallbackPolicy::Fail

use simkit::{FaultKind, SimDuration};

/// A rejected [`MigrationConfig`](crate::config::MigrationConfig) field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The co-simulation quantum must be non-zero.
    ZeroQuantum,
    /// The link bandwidth must be positive.
    NonPositiveBandwidth,
    /// The stop policy needs at least one live iteration.
    ZeroIterations,
    /// The traffic cap multiple must be positive.
    NonPositiveTrafficFactor,
    /// Coordination timeouts must be non-zero.
    ZeroCoordTimeout,
    /// The retry backoff multiplier must be at least 1.
    BackoffBelowOne,
    /// The fault plan is self-contradictory (e.g. a negative link factor
    /// or an out-of-range probability).
    InvalidFaultPlan,
    /// The cold assist needs the assisted protocol: the cold-region map
    /// arrives through the LKM.
    ColdRequiresAssist,
    /// The delta action needs a page cache of at least one entry.
    ZeroDeltaCache,
    /// A host drain needs at least one tenant.
    EmptyRoster,
    /// The guest tick must be non-zero.
    ZeroTick,
    /// The dirty-rate sensing cadence must be a non-zero multiple of the
    /// guest tick (sensing must never change the guest's stepping).
    SenseCadenceMisaligned,
    /// Admission control needs room for at least one in-flight migration.
    ZeroConcurrency,
    /// A tenant's fair-share weight must be positive and finite.
    NonPositiveWeight,
    /// A destination host must offer at least one placement slot.
    ZeroDestinationSlots,
    /// The destination pool is smaller than the evacuating VM population,
    /// so some VM could never be placed and the drain would deadlock.
    InsufficientDestinationCapacity,
    /// Pinned placement names a destination index the plan does not have.
    PinnedDestinationOutOfRange,
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let msg = match self {
            Self::ZeroQuantum => "co-simulation quantum must be non-zero",
            Self::NonPositiveBandwidth => "link bandwidth must be positive",
            Self::ZeroIterations => "stop policy needs at least one live iteration",
            Self::NonPositiveTrafficFactor => "traffic cap multiple must be positive",
            Self::ZeroCoordTimeout => "coordination timeouts must be non-zero",
            Self::BackoffBelowOne => "retry backoff multiplier must be >= 1",
            Self::InvalidFaultPlan => "fault plan is invalid",
            Self::ColdRequiresAssist => "cold assist requires the assisted protocol",
            Self::ZeroDeltaCache => "delta page cache needs at least one entry",
            Self::EmptyRoster => "host drain needs at least one tenant",
            Self::ZeroTick => "guest tick must be non-zero",
            Self::SenseCadenceMisaligned => {
                "sense cadence must be a non-zero multiple of the guest tick"
            }
            Self::ZeroConcurrency => "admission control needs max_concurrent >= 1",
            Self::NonPositiveWeight => "tenant fair-share weight must be positive and finite",
            Self::ZeroDestinationSlots => "destination host needs at least one slot",
            Self::InsufficientDestinationCapacity => {
                "destination slots cannot hold the evacuating VM population"
            }
            Self::PinnedDestinationOutOfRange => {
                "pinned placement names no destination of the plan"
            }
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ConfigError {}

/// The coordination phase a timeout fired in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordPhase {
    /// Waiting for the LKM to acknowledge `MigrationBegin`.
    BeginAck,
    /// Waiting for `ReadyToSuspend` after `EnteringLastIter`.
    Ready,
}

impl CoordPhase {
    /// Stable lower-case name for telemetry and reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::BeginAck => "begin_ack",
            Self::Ready => "ready",
        }
    }
}

/// Why a migration could not produce a report.
#[derive(Debug, Clone, PartialEq)]
pub enum MigrateError {
    /// Assisted migration was requested but the guest has no LKM loaded.
    MissingLkm,
    /// The migration link went down (fault-injected zero bandwidth).
    LinkDown,
    /// A coordination handshake exhausted its retries and the fallback
    /// policy forbids degradation.
    CoordTimeout {
        /// The phase whose deadline expired.
        phase: CoordPhase,
        /// Total time spent waiting, including all retries.
        waited: SimDuration,
    },
    /// The configuration was rejected.
    Config(ConfigError),
}

impl core::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::MissingLkm => f.write_str("assisted migration requires a loaded LKM"),
            Self::LinkDown => f.write_str("migration link is down"),
            Self::CoordTimeout { phase, waited } => write!(
                f,
                "coordination timeout in {} phase after {waited}",
                phase.name()
            ),
            Self::Config(e) => write!(f, "invalid migration config: {e}"),
        }
    }
}

impl std::error::Error for MigrateError {}

impl From<ConfigError> for MigrateError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

/// How a completed migration ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationOutcome {
    /// The requested protocol ran to completion.
    Completed,
    /// The assisted protocol was abandoned mid-run — skip-over areas were
    /// dropped and the migration completed as vanilla Xen pre-copy.
    DegradedVanilla {
        /// The fault that triggered the fallback.
        fault: FaultKind,
    },
}

impl MigrationOutcome {
    /// `true` when the run fell back to vanilla pre-copy.
    pub fn is_degraded(self) -> bool {
        matches!(self, Self::DegradedVanilla { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        let e = MigrateError::CoordTimeout {
            phase: CoordPhase::BeginAck,
            waited: SimDuration::from_millis(350),
        };
        let s = format!("{e}");
        assert!(s.contains("begin_ack"), "{s}");
        assert!(format!("{}", MigrateError::MissingLkm).contains("LKM"));
        assert_eq!(
            format!("{}", MigrateError::Config(ConfigError::ZeroQuantum)),
            "invalid migration config: co-simulation quantum must be non-zero"
        );
    }

    #[test]
    fn outcome_degraded_flag() {
        assert!(!MigrationOutcome::Completed.is_degraded());
        assert!(MigrationOutcome::DegradedVanilla {
            fault: FaultKind::ReadyTimeout
        }
        .is_degraded());
    }
}
