//! Migration engine configuration.
//!
//! [`MigrationConfig`] carries everything one run needs: link and quantum
//! parameters, the Xen stop policy, the coordination-timeout policy
//! ([`CoordPolicy`]), the fallback behaviour when coordination fails
//! ([`FallbackPolicy`]) and the fault plan driving deterministic fault
//! injection ([`simkit::FaultPlan`]). Construct it from a preset
//! ([`MigrationConfig::xen_default`], [`MigrationConfig::javmm_default`])
//! with struct-update syntax; [`MigrationConfig::validate`] checks it, and
//! the engine runs that check on entry.

use crate::assist::ColdAssistConfig;
use crate::error::ConfigError;
use netsim::CompressionMethod;
use simkit::units::Bandwidth;
use simkit::{FaultPlan, SimDuration};

/// How the engine decides when to stop iterating (Xen's policy).
///
/// Xen's `xc_domain_save` enters the stop-and-copy phase when any of three
/// conditions holds: few enough dirty pages remain for a short last
/// iteration, the iteration cap is reached, or the traffic cap (a multiple
/// of the VM's RAM) is exceeded. The paper's derby run hits the iteration
/// cap after sending ~3.5× the VM size.
#[derive(Debug, Clone, Copy)]
pub struct StopPolicy {
    /// Maximum number of live (pre-copy) iterations; Xen defaults to 30.
    pub max_iterations: u32,
    /// Stop once total traffic exceeds this multiple of VM RAM.
    pub max_factor: f64,
    /// Enter the last iteration when fewer dirty pages than this remain.
    pub dirty_threshold_pages: u64,
}

impl Default for StopPolicy {
    fn default() -> Self {
        Self {
            max_iterations: 30,
            max_factor: 3.0,
            dirty_threshold_pages: 50,
        }
    }
}

/// Per-page compression selection for the §6 extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressionPolicy {
    /// Vanilla behaviour: raw pages.
    Off,
    /// Compress every transferred page with one method.
    Uniform(CompressionMethod),
    /// Choose the method by each sent page's class: highly compressible
    /// classes get the strong method, code-like pages the fast one.
    PerClass,
}

/// Coordination timeouts and retry policy for the daemon↔LKM handshakes.
///
/// `MigrationBegin` and `EnteringLastIter` are idempotent (the LKM gates on
/// sequence numbers), so the daemon retries them with exponential backoff;
/// when the retry budget is exhausted the [`FallbackPolicy`] decides between
/// degrading to vanilla pre-copy and failing the migration.
#[derive(Debug, Clone, Copy)]
pub struct CoordPolicy {
    /// How long to wait for the LKM's `BeginAck` before resending
    /// `MigrationBegin`.
    pub begin_ack_timeout: SimDuration,
    /// How long to wait for `ReadyToSuspend` before resending
    /// `EnteringLastIter`. Must exceed the LKM's own straggler timeout or
    /// the daemon gives up before the LKM's policy has a chance to act.
    pub ready_timeout: SimDuration,
    /// How many resends are attempted after the first timeout.
    pub retry_limit: u32,
    /// Each successive wait is the previous one times this factor (≥ 1).
    pub retry_backoff: f64,
    /// Treat a `ReadyToSuspend` reporting stragglers as a coordination
    /// failure and degrade, instead of trusting the LKM's forcible
    /// un-skipping of the stragglers' areas (the paper's behaviour).
    pub degrade_on_stragglers: bool,
}

impl Default for CoordPolicy {
    fn default() -> Self {
        Self {
            begin_ack_timeout: SimDuration::from_millis(50),
            ready_timeout: SimDuration::from_secs(15),
            retry_limit: 3,
            retry_backoff: 2.0,
            degrade_on_stragglers: false,
        }
    }
}

/// What to do when a coordination handshake exhausts its retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FallbackPolicy {
    /// Abandon the assisted protocol and complete as vanilla Xen pre-copy
    /// (the run reports [`MigrationOutcome::DegradedVanilla`]).
    ///
    /// [`MigrationOutcome::DegradedVanilla`]: crate::error::MigrationOutcome::DegradedVanilla
    #[default]
    DegradeToVanilla,
    /// Abort the migration with [`MigrateError::CoordTimeout`].
    ///
    /// [`MigrateError::CoordTimeout`]: crate::error::MigrateError::CoordTimeout
    Fail,
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct MigrationConfig {
    /// Use the application-assisted protocol (requires an LKM in the guest).
    pub assisted: bool,
    /// Link bandwidth.
    pub bandwidth: Bandwidth,
    /// Co-simulation quantum.
    pub quantum: SimDuration,
    /// Stop policy.
    pub stop: StopPolicy,
    /// Device reconnection + activation time at the destination (the paper
    /// measures ≈170 ms).
    pub resume_time: SimDuration,
    /// §3.3.4 alternative: in the last iteration, consider every page
    /// dirtied at any point during migration (required for correctness when
    /// the LKM uses the re-walk final-update strategy).
    pub last_iter_considers_all_dirtied: bool,
    /// Compression extension.
    pub compression: CompressionPolicy,
    /// Daemon CPU cost per byte copied/sent.
    pub cpu_cost_per_byte: f64,
    /// Daemon CPU cost per page examined during scans.
    pub cpu_cost_per_page_scan: SimDuration,
    /// The cold-page assist (defer / delta actions). Off by default; the
    /// zero-config path is locked byte-identical by the inertness goldens.
    pub cold: ColdAssistConfig,
    /// Coordination timeouts and retries.
    pub coord: CoordPolicy,
    /// Behaviour when coordination fails for good.
    pub fallback: FallbackPolicy,
    /// Deterministic fault-injection plan. [`FaultPlan::none`] (the preset
    /// default) leaves every code path bit-for-bit identical to a build
    /// without the harness.
    pub faults: FaultPlan,
}

impl MigrationConfig {
    /// Vanilla Xen live migration over the paper's testbed link.
    pub fn xen_default() -> Self {
        Self {
            assisted: false,
            bandwidth: Bandwidth::gigabit_ethernet(),
            quantum: SimDuration::from_millis(1),
            stop: StopPolicy::default(),
            resume_time: SimDuration::from_millis(170),
            last_iter_considers_all_dirtied: false,
            compression: CompressionPolicy::Off,
            cpu_cost_per_byte: 1.1e-9,
            cpu_cost_per_page_scan: SimDuration::from_nanos(250),
            cold: ColdAssistConfig::off(),
            coord: CoordPolicy::default(),
            fallback: FallbackPolicy::default(),
            faults: FaultPlan::none(),
        }
    }

    /// JAVMM: the assisted protocol on the same link.
    pub fn javmm_default() -> Self {
        Self {
            assisted: true,
            ..Self::xen_default()
        }
    }

    /// Checks the config's invariants; the engine calls this on entry, so
    /// an invalid config never starts a migration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.quantum.is_zero() {
            return Err(ConfigError::ZeroQuantum);
        }
        if self.bandwidth.bytes_per_sec() <= 0.0 {
            return Err(ConfigError::NonPositiveBandwidth);
        }
        if self.stop.max_iterations == 0 {
            return Err(ConfigError::ZeroIterations);
        }
        if self.stop.max_factor <= 0.0 {
            return Err(ConfigError::NonPositiveTrafficFactor);
        }
        if self.coord.begin_ack_timeout.is_zero() || self.coord.ready_timeout.is_zero() {
            return Err(ConfigError::ZeroCoordTimeout);
        }
        if self.coord.retry_backoff < 1.0 {
            return Err(ConfigError::BackoffBelowOne);
        }
        if !self.faults.is_valid() {
            return Err(ConfigError::InvalidFaultPlan);
        }
        self.cold.validate(self.assisted)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_xen() {
        let c = MigrationConfig::xen_default();
        assert!(!c.assisted);
        assert_eq!(c.stop.max_iterations, 30);
        assert_eq!(c.stop.max_factor, 3.0);
        assert_eq!(c.compression, CompressionPolicy::Off);
        assert!(!c.faults.is_active());
        assert_eq!(c.fallback, FallbackPolicy::DegradeToVanilla);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn javmm_only_differs_in_assistance() {
        let x = MigrationConfig::xen_default();
        let j = MigrationConfig::javmm_default();
        assert!(j.assisted);
        assert_eq!(j.stop.max_iterations, x.stop.max_iterations);
        assert_eq!(j.resume_time, x.resume_time);
    }

    #[test]
    fn validate_rejects_invalid() {
        let zero_quantum = MigrationConfig {
            quantum: SimDuration::ZERO,
            ..MigrationConfig::xen_default()
        };
        assert_eq!(zero_quantum.validate(), Err(ConfigError::ZeroQuantum));
        let bad_coord = MigrationConfig {
            coord: CoordPolicy {
                retry_backoff: 0.5,
                ..CoordPolicy::default()
            },
            ..MigrationConfig::xen_default()
        };
        assert_eq!(bad_coord.validate(), Err(ConfigError::BackoffBelowOne));
        let bad_plan = MigrationConfig {
            faults: FaultPlan {
                link: Some(simkit::LinkDegrade {
                    after: SimDuration::ZERO,
                    factor: -1.0,
                }),
                ..FaultPlan::none()
            },
            ..MigrationConfig::xen_default()
        };
        assert_eq!(bad_plan.validate(), Err(ConfigError::InvalidFaultPlan));
    }
}
