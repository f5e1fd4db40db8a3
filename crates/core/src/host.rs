//! Multi-VM host model: the tenants of one physical machine being drained.
//!
//! The paper migrates one VM at a time; a real consolidation or
//! maintenance event drains a whole host, and the interesting systems
//! questions — who shares the uplink, who goes first, who must wait so
//! everyone can converge — live at that level. This module holds the
//! *model*: a [`VmTenant`] is one guest plus the scheduling contract the
//! host operator attached to it (bandwidth weight, minimum convergence
//! rate, SLA cost rates), and a [`HostSpec`] is the full drain problem
//! (tenants, shared uplink, admission limits, timing). The scheduler that
//! solves it lives in the `cluster` crate; this split keeps the model
//! reusable (benches, tests and examples all build rosters from it)
//! without `core` depending on the scheduler.

use crate::vm::{JavaVm, JavaVmConfig};
use jheap::mutator::{Phase, PhasedMutator};
use migrate::config::MigrationConfig;
use migrate::error::ConfigError;
use migrate::sla::SlaModel;
use simkit::units::Bandwidth;
use simkit::SimDuration;

/// One guest VM on the host, with its scheduling contract.
#[derive(Debug, Clone)]
pub struct VmTenant {
    /// Stable tenant name; becomes the per-VM digest key.
    pub name: String,
    /// The guest configuration (workload, seed, assist, collector).
    pub vm: JavaVmConfig,
    /// The migration engine configuration for this tenant's migration.
    pub migration: MigrationConfig,
    /// Overrides the workload's steady mutator with a phase cycle (e.g. a
    /// batch job alternating bursty parsing with quiet crunching); `None`
    /// keeps the workload's own profile.
    pub phases: Option<Vec<Phase>>,
    /// Weighted-fair share weight on the shared uplink.
    pub weight: f64,
    /// Minimum link rate below which this tenant's pre-copy cannot
    /// converge; admission control refuses any split that would push a
    /// tenant under its own minimum.
    pub min_rate: Bandwidth,
    /// SLA cost rates for this tenant.
    pub sla: SlaModel,
}

impl VmTenant {
    /// A tenant with neutral scheduling defaults: unit weight, a 10 MB/s
    /// convergence floor, and batch-grade SLA rates.
    pub fn new(name: impl Into<String>, vm: JavaVmConfig, migration: MigrationConfig) -> Self {
        Self {
            name: name.into(),
            vm,
            migration,
            phases: None,
            weight: 1.0,
            min_rate: Bandwidth::from_mbytes_per_sec(10.0),
            sla: SlaModel::default_batch(),
        }
    }

    /// Replaces the workload's steady profile with a phase cycle.
    pub fn with_phases(mut self, phases: Vec<Phase>) -> Self {
        self.phases = Some(phases);
        self
    }

    /// Sets the weighted-fair share weight.
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Sets the minimum convergence rate consulted by admission control.
    pub fn with_min_rate(mut self, min_rate: Bandwidth) -> Self {
        self.min_rate = min_rate;
        self
    }

    /// Sets the SLA cost model.
    pub fn with_sla(mut self, sla: SlaModel) -> Self {
        self.sla = sla;
        self
    }

    /// Boots this tenant's guest: the workload's own mutator, or the
    /// tenant's phase cycle when one is configured.
    pub fn launch(&self) -> JavaVm {
        match &self.phases {
            None => JavaVm::launch(self.vm.clone()),
            Some(phases) => JavaVm::launch_with_mutator(
                self.vm.clone(),
                Box::new(PhasedMutator::new(
                    format!("{}-phased", self.vm.workload.name),
                    phases.clone(),
                )),
            ),
        }
    }
}

/// A whole-host drain problem: every tenant plus the shared resources and
/// limits the fleet scheduler must respect.
#[derive(Debug, Clone)]
pub struct HostSpec {
    /// Stable roster name; becomes the fleet digest's drain key.
    pub name: String,
    /// Root seed of the drain (per-tenant seeds derive from it when the
    /// roster is built; kept here for the digest metadata).
    pub seed: u64,
    /// Tenants in roster order (the FIFO order).
    pub tenants: Vec<VmTenant>,
    /// Shared migration uplink capacity.
    pub uplink: Bandwidth,
    /// Admission control: at most this many migrations in flight.
    pub max_concurrent: u32,
    /// Admission control: refuse admissions that would push any active
    /// migration (or the candidate) below its tenant's `min_rate`. Turning
    /// this off reproduces naive drains where concurrent migrations starve
    /// each other out of convergence.
    pub enforce_min_rate: bool,
    /// Workload runtime before the drain begins.
    pub warmup: SimDuration,
    /// Per-VM workload runtime after its own migration completes.
    pub tail: SimDuration,
    /// Guest tick outside of migration.
    pub tick: SimDuration,
    /// Dirty-rate sensing cadence: the scheduler samples every queued
    /// tenant's page-write rate once per this much guest time. Must be a
    /// multiple of `tick` so sensing never changes the guest's stepping.
    pub sense_cadence: SimDuration,
    /// Ring capacity of each tenant's dirty-rate sample series. The cycle
    /// detector needs at least 16 retained samples and roughly two full
    /// workload periods in the window to produce a confident estimate;
    /// shrinking this below that deliberately blinds the observatory
    /// (used by regression drills).
    pub sense_capacity: usize,
}

impl HostSpec {
    /// An empty host with the paper's gigabit uplink, a 3-migration
    /// admission cap with min-rate enforcement, and the shortened
    /// warmup/tail used by the repo's quick scenarios.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        Self {
            name: name.into(),
            seed,
            tenants: Vec::new(),
            uplink: Bandwidth::gigabit_ethernet(),
            max_concurrent: 3,
            enforce_min_rate: true,
            warmup: SimDuration::from_secs(20),
            tail: SimDuration::from_secs(5),
            tick: SimDuration::from_millis(2),
            sense_cadence: SimDuration::from_millis(500),
            sense_capacity: 256,
        }
    }

    /// Appends a tenant (roster order is admission order under FIFO).
    pub fn tenant(mut self, tenant: VmTenant) -> Self {
        self.tenants.push(tenant);
        self
    }

    /// Checks every invariant the fleet scheduler relies on. This is the
    /// *single* home of host validation: the scheduler checks it on entry
    /// (through `EvacuationPlan::validate`) instead of asserting piecemeal.
    ///
    /// # Errors
    ///
    /// The first violated invariant: an empty roster, a non-positive
    /// uplink, a zero concurrency cap or tick, a sensing cadence that is
    /// not a non-zero multiple of the tick, a scan pool without workers,
    /// or a tenant with a non-positive weight or min-rate floor.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.tenants.is_empty() {
            return Err(ConfigError::EmptyRoster);
        }
        if self.max_concurrent == 0 {
            return Err(ConfigError::ZeroConcurrency);
        }
        if self.tick.is_zero() {
            return Err(ConfigError::ZeroTick);
        }
        if self.sense_cadence.is_zero()
            || !self
                .sense_cadence
                .as_nanos()
                .is_multiple_of(self.tick.as_nanos())
        {
            return Err(ConfigError::SenseCadenceMisaligned);
        }
        // `Bandwidth` is positive by construction, so uplink and min-rate
        // floors need no re-check here; weights are plain f64s and do.
        for tenant in &self.tenants {
            if !(tenant.weight.is_finite() && tenant.weight > 0.0) {
                return Err(ConfigError::NonPositiveWeight);
            }
        }
        Ok(())
    }
}

/// A destination host an evacuation may place VMs onto: its ingress NIC
/// and how many incoming VMs it can hold.
///
/// Destinations are capacity, not simulation: a placed VM's migration
/// traffic contends on the destination's ingress link (and the core
/// switch in between), and the VM permanently occupies one slot once
/// placed — evacuations move VMs *off* sources, they never re-balance
/// destinations.
#[derive(Debug, Clone)]
pub struct DestSpec {
    /// Stable destination name, surfaced in placement reports.
    pub name: String,
    /// Ingress NIC capacity.
    pub ingress: Bandwidth,
    /// How many incoming VMs this host can hold.
    pub slots: u32,
    /// Whether the path to this host crosses a WAN (a slow, long-haul
    /// last resort for placement).
    pub wan: bool,
}

impl DestSpec {
    /// A LAN destination with a gigabit ingress NIC.
    pub fn new(name: impl Into<String>, slots: u32) -> Self {
        Self {
            name: name.into(),
            ingress: Bandwidth::gigabit_ethernet(),
            slots,
            wan: false,
        }
    }

    /// Sets the ingress NIC capacity.
    pub fn with_ingress(mut self, ingress: Bandwidth) -> Self {
        self.ingress = ingress;
        self
    }

    /// Marks the destination as WAN-attached.
    pub fn with_wan(mut self) -> Self {
        self.wan = true;
        self
    }

    /// Checks the destination's own invariants.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroDestinationSlots`] for a slotless host (the
    /// ingress NIC needs no check — [`Bandwidth`] is positive by
    /// construction).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.slots == 0 {
            return Err(ConfigError::ZeroDestinationSlots);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jheap::mutator::MutatorProfile;
    use workloads::catalog;

    #[test]
    fn tenant_defaults_are_neutral() {
        let t = VmTenant::new(
            "vm0",
            JavaVmConfig::paper(catalog::derby(), true, 1),
            MigrationConfig::javmm_default(),
        );
        assert_eq!(t.weight, 1.0);
        assert!(t.phases.is_none());
        assert!(t.min_rate.bytes_per_sec() > 0.0);
    }

    #[test]
    fn phased_tenant_launches_with_cycle() {
        let phases = vec![
            Phase {
                duration: SimDuration::from_secs(5),
                profile: MutatorProfile::quiet(),
            },
            Phase {
                duration: SimDuration::from_secs(5),
                profile: MutatorProfile {
                    alloc_rate: 200e6,
                    ..MutatorProfile::quiet()
                },
            },
        ];
        let t = VmTenant::new(
            "vm1",
            JavaVmConfig::paper(catalog::mpeg(), true, 2),
            MigrationConfig::javmm_default(),
        )
        .with_phases(phases);
        let vm = t.launch();
        // The phased mutator is live: the VM boots and runs.
        assert_eq!(vm.jvm().heap().young_used(), 0);
    }

    #[test]
    fn validate_checks_every_scheduler_invariant() {
        let tenant = || {
            VmTenant::new(
                "t",
                JavaVmConfig::paper(catalog::derby(), true, 1),
                MigrationConfig::javmm_default(),
            )
        };
        let empty = HostSpec::new("h", 1).validate().unwrap_err();
        assert_eq!(empty, ConfigError::EmptyRoster);
        assert_eq!(empty.to_string(), "host drain needs at least one tenant");
        let mut capped = HostSpec::new("h", 1).tenant(tenant());
        capped.max_concurrent = 0;
        assert_eq!(capped.validate().unwrap_err(), ConfigError::ZeroConcurrency);
        let mut misaligned = HostSpec::new("h", 1).tenant(tenant());
        misaligned.sense_cadence = SimDuration::from_millis(3);
        assert_eq!(
            misaligned.validate().unwrap_err(),
            ConfigError::SenseCadenceMisaligned,
            "cadence must align to the 2 ms tick"
        );
        assert_eq!(
            HostSpec::new("h", 1)
                .tenant(tenant().with_weight(0.0))
                .validate()
                .unwrap_err(),
            ConfigError::NonPositiveWeight
        );
        HostSpec::new("h", 1)
            .tenant(tenant())
            .validate()
            .expect("valid spec");
    }

    #[test]
    fn dest_spec_validates_slots_and_ingress() {
        assert_eq!(
            DestSpec::new("d", 0).validate().unwrap_err(),
            ConfigError::ZeroDestinationSlots
        );
        let wan = DestSpec::new("edge", 8)
            .with_ingress(Bandwidth::from_mbytes_per_sec(40.0))
            .with_wan();
        assert!(wan.wan);
        wan.validate().expect("valid destination");
    }

    #[test]
    fn host_spec_collects_tenants_in_order() {
        let host = HostSpec::new("drain2", 7)
            .tenant(VmTenant::new(
                "a",
                JavaVmConfig::paper(catalog::derby(), true, 8),
                MigrationConfig::javmm_default(),
            ))
            .tenant(VmTenant::new(
                "b",
                JavaVmConfig::paper(catalog::crypto(), true, 9),
                MigrationConfig::javmm_default(),
            ));
        assert_eq!(host.tenants.len(), 2);
        assert_eq!(host.tenants[0].name, "a");
        assert_eq!(host.tenants[1].name, "b");
        assert!(host.enforce_min_rate);
    }
}
