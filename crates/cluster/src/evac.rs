//! The event-driven evacuation core: drain hosts H₁..Hₙ onto destinations
//! D₁..Dₘ over topology T. [`evacuate`] is the one way to run a drain; a
//! single host is the degenerate plan [`EvacuationPlan::single_host`]
//! (one source, no destinations, no core switch).
//!
//! Each guest runs as an independent simulation on its own [`SimClock`].
//! The scheduler keeps a binary heap of session-ready times keyed by
//! `(SimTime, VmId)`: pop the minimum, step that session once, push it
//! back at its new clock. O(log active) per step, and the key order makes
//! tie-breaking explicit — equal clocks resolve by `VmId` (host-major,
//! then roster slot).
//!
//! # Why the heap pops the laggard
//!
//! The drain must step the in-flight session with the smallest local
//! clock, ties by `(host, slot)`. The heap pops exactly that minimum
//! provided every active session has exactly one entry carrying its
//! *current* clock. That invariant holds by construction: an entry is
//! pushed at admission (with the post-`begin` clock) and re-pushed after
//! every yielded step (with the post-step clock); nothing else advances an
//! active session's clock — the catch-up/sensing path only ever touches
//! *pending* slots, and a completed session leaves the heap by simply not
//! being re-pushed. `tests/evacuation.rs` locks the resulting interleaving
//! byte for byte against the committed drain12 digest.
//!
//! The admission sweep runs once at drain start and again after every
//! completion — the only two moments its outcome can change, since
//! feasibility is a function of link subscriptions alone, and the fleet
//! clock only advances on completion. Each tenant folds into its per-VM
//! digest row the moment its migration (plus tail) finishes; the row and
//! the migration report are both kept to the end of the drain.
//!
//! # Topology and placement
//!
//! Flows ride a [`Topology`]: the source host's NIC, an optional contended
//! core switch, and — when the plan has destinations — the chosen
//! destination's ingress NIC. A flow's rate is its bottleneck pipe's fair
//! share; over the degenerate one-host, no-core, no-destination topology
//! that is the NIC share bit for bit. Destinations are chosen at admission
//! by the plan's [`PlacementPolicy`] and consumed permanently (a placed VM
//! stays placed).
//!
//! A drain must never deadlock, and an evacuation must never deadlock on
//! placement either: [`EvacuationPlan::validate`] requires destination
//! slots for the whole evacuating population, so whenever the fabric goes
//! idle there is both a feasible path (the idle-path clause) and a free
//! slot — every pending VM is eventually admitted, and the event loop
//! terminates.
//!
//! # Scheduling only
//!
//! The loop schedules and nothing else: it fires the plan's seeded
//! [`PipeFault`]s (re-rating the pipe itself), re-rates each waking
//! session to its flow's share, steps it, folds a completed tenant and
//! re-runs admission. Mission control — ETA projection, causal events,
//! watchdog rules and pipe sampling — lives in [`crate::eta`]; the loop
//! hands that observer shared references at each admission, wakeup,
//! completion and fired fault, and reads nothing back until the drain
//! ends and the observer becomes [`EvacOutcome::mission`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use javmm::host::HostSpec;
use javmm::vm::JavaVm;
use migrate::digest::{DigestMeta, FleetDigest, FleetMeta, FleetVmEntry, HistMerger, RunDigest};
use migrate::error::{ConfigError, MigrateError};
use migrate::precopy::{MigrationSession, PrecopyEngine, SessionStep};
use migrate::report::MigrationReport;
use migrate::sla::SlaCost;
use netsim::topology::{LinkSpec, PipeSel, Topology};
use netsim::FlowId;
use simkit::telemetry::{Recorder, SampleSeries, Subsystem};
use simkit::units::Bandwidth;
use simkit::{SimClock, SimDuration, SimTime};

use crate::detect::{detect, CONFIDENCE_GATE};
use crate::eta::{Mission, MissionControl};
use crate::place::{self, DestState, PlacementPolicy, PlacementRationale};
use crate::policy::{cycle_average_rate, FleetPolicy};

pub use javmm::host::DestSpec;

/// Identifies one VM in an evacuation: host index, then roster slot.
///
/// The derived order is the ready heap's tie-break: sessions whose clocks
/// collide step in host-major, then roster order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct VmId {
    pub(crate) host: u32,
    pub(crate) slot: u32,
}

/// A whole evacuation: which hosts drain, where their VMs may land, and
/// what fabric the traffic crosses.
#[derive(Debug, Clone)]
pub struct EvacuationPlan {
    /// Plan name, used in bench output.
    pub name: String,
    /// Hosts being drained, each a complete single-host drain problem.
    pub sources: Vec<HostSpec>,
    /// Destination pool; empty means "drain into the void" (the
    /// degenerate single-host mode, where only the egress NIC exists).
    pub destinations: Vec<DestSpec>,
    /// The core switch every flow crosses, or `None` for an uncontended
    /// fabric (and always `None` in degenerate mode).
    pub core: Option<LinkSpec>,
    /// How destinations are chosen at admission.
    pub placement: PlacementPolicy,
    /// CI drill switch: when set, the ETA estimator re-serves each VM's
    /// admission-time projection at every wakeup instead of re-projecting,
    /// so the calibration numbers in the eta digest degrade and the gate
    /// must trip. Never affects the drain itself.
    pub freeze_eta: bool,
    /// Seeded mid-drain pipe degrades, in schedule order. Empty for a
    /// fault-free fabric; entries naming pipes the fabric does not have
    /// (no core, NIC index out of range) are inert.
    pub pipe_faults: Vec<PipeFault>,
}

/// A seeded mid-drain degrade of one fabric pipe — a source NIC, the core
/// trunk, or a destination ingress NIC (WAN or LAN): `after` into the
/// drain (measured from the earliest host's drain start), the selected
/// pipe's rate is multiplied by `factor`. In-flight flows crossing the
/// pipe see the new bottleneck at their next wakeup through the ordinary
/// re-grant path — no special casing, and an empty schedule changes
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipeFault {
    /// Which pipe of the plan's topology degrades.
    pub pipe: PipeSel,
    /// Delay from the earliest drain start to the degrade.
    pub after: SimDuration,
    /// Multiplier applied to the pipe's rate (e.g. `0.25`).
    pub factor: f64,
}

impl EvacuationPlan {
    /// A destination-less plan draining `sources` with greedy placement
    /// (irrelevant until destinations are added).
    pub fn new(name: impl Into<String>, sources: Vec<HostSpec>) -> Self {
        Self {
            name: name.into(),
            sources,
            destinations: Vec::new(),
            core: None,
            placement: PlacementPolicy::Greedy,
            freeze_eta: false,
            pipe_faults: Vec::new(),
        }
    }

    /// The degenerate plan that drains one host: one source, no
    /// destinations, no core switch.
    pub fn single_host(host: HostSpec) -> Self {
        Self::new(host.name.clone(), vec![host])
    }

    /// Adds the destination pool.
    pub fn destinations(mut self, destinations: Vec<DestSpec>) -> Self {
        self.destinations = destinations;
        self
    }

    /// Adds a contended core switch.
    pub fn core(mut self, core: LinkSpec) -> Self {
        self.core = Some(core);
        self
    }

    /// Sets the placement policy.
    pub fn placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Freezes ETA projections at admission (the CI calibration drill).
    pub fn freeze_eta(mut self, freeze: bool) -> Self {
        self.freeze_eta = freeze;
        self
    }

    /// Appends a mid-drain pipe degrade to the fault schedule.
    pub fn pipe_fault(mut self, fault: PipeFault) -> Self {
        self.pipe_faults.push(fault);
        self
    }

    /// Total VMs across all source hosts.
    pub fn population(&self) -> usize {
        self.sources.iter().map(|h| h.tenants.len()).sum()
    }

    /// Checks the whole plan: every source host's invariants
    /// ([`HostSpec::validate`]), every destination's, and — when a
    /// destination pool exists — that its slots can hold the entire
    /// evacuating population (otherwise the drain would deadlock with
    /// unplaceable VMs) and that a pinned placement names one of its
    /// destinations.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.sources.is_empty() {
            return Err(ConfigError::EmptyRoster);
        }
        for host in &self.sources {
            host.validate()?;
        }
        for dest in &self.destinations {
            dest.validate()?;
        }
        if !self.destinations.is_empty() {
            let slots: u64 = self.destinations.iter().map(|d| u64::from(d.slots)).sum();
            if slots < self.population() as u64 {
                return Err(ConfigError::InsufficientDestinationCapacity);
            }
            if let PlacementPolicy::Pinned(d) = self.placement {
                if d >= self.destinations.len() {
                    return Err(ConfigError::PinnedDestinationOutOfRange);
                }
            }
        }
        Ok(())
    }

    /// The fabric this plan's flows cross.
    fn topology(&self) -> Topology {
        Topology::new(
            self.sources
                .iter()
                .map(|h| LinkSpec::lan(h.name.clone(), h.uplink))
                .collect(),
            self.core.clone(),
            self.destinations
                .iter()
                .map(|d| {
                    if d.wan {
                        LinkSpec::wan(d.name.clone(), d.ingress)
                    } else {
                        LinkSpec::lan(d.name.clone(), d.ingress)
                    }
                })
                .collect(),
        )
    }
}

/// Where one VM ended up, in fleet-wide admission order.
#[derive(Debug, Clone)]
pub struct VmPlacement {
    /// Source host index in the plan.
    pub source: usize,
    /// Roster slot on the source host.
    pub slot: usize,
    /// Tenant name.
    pub vm: String,
    /// Destination index, `None` in degenerate (destination-less) mode.
    pub dest: Option<usize>,
    /// Destination name, `None` in degenerate mode.
    pub dest_name: Option<String>,
    /// The chosen destination's estimated SLA cost at decision time
    /// ([`place::sla_score`], lower is better); `None` in degenerate mode.
    pub chosen_score: Option<f64>,
    /// Name of the cheapest feasible alternative at decision time, when
    /// another candidate existed.
    pub runner_up: Option<String>,
    /// The runner-up's estimated SLA cost.
    pub runner_up_score: Option<f64>,
}

/// Everything one evacuation produces.
#[derive(Debug)]
pub struct EvacOutcome {
    /// One byte-deterministic digest per source host, in plan order.
    pub hosts: Vec<FleetDigest>,
    /// Placement decisions in fleet-wide admission order.
    pub placements: Vec<VmPlacement>,
    /// Fleet-wide eviction time: from the earliest host's drain start to
    /// the last migration's end, in nanoseconds.
    pub eviction_ns: u64,
    /// Summed SLA cost across every migrated VM.
    pub sla_total: SlaCost,
    /// Per-VM reports in roster order, one vector per source host.
    pub reports: Vec<Vec<MigrationReport>>,
    /// The drain's mission-control record: the causal flow trace, pipe
    /// timelines, ETA calibration and watchdog findings. Derived state
    /// only — nothing in here feeds the host digests, so the committed
    /// digest baselines are untouched by its existence.
    pub mission: MissionControl,
}

/// One guest's slot in the drain.
struct Slot {
    tenant: javmm::host::VmTenant,
    vm: JavaVm,
    clock: SimClock,
    active: Option<Active>,
    admitted_at: Option<SimTime>,
    /// The dirty-rate sensor: pages/second sampled on the sense cadence
    /// while the tenant waits for admission.
    sensor: SampleSeries,
    sensor_last_pages: u64,
    sensor_next_at: SimTime,
    /// Detection facts frozen at admission (digest fields).
    detected_period_ns: u64,
    detected_confidence: f64,
    detect_confident: bool,
    declared_period_ns: u64,
    window_hit: Option<bool>,
    entry: Option<FleetVmEntry>,
    report: Option<MigrationReport>,
}

struct Active {
    session: MigrationSession,
    flow: FlowId,
    /// Rate last applied to the session's link; re-rating is skipped when
    /// the flow rate is unchanged so a sole flow's link state is never
    /// touched (golden equivalence).
    applied: Bandwidth,
}

impl Slot {
    /// The guest's heap working set: committed Young plus used Old bytes.
    fn working_set(&self) -> u64 {
        let heap = self.vm.jvm().heap();
        heap.young_committed() + heap.old_used()
    }

    /// Runs the guest up to `target` fleet time (workloads keep executing
    /// — and dirtying — while they wait for admission), sampling the
    /// page-write rate into the sensor at every cadence crossing.
    fn catch_up(&mut self, target: SimTime, tick: SimDuration, cadence: SimDuration) {
        while self.clock.now() < target {
            let until = self.sensor_next_at.min(target);
            let lag = until.saturating_since(self.clock.now());
            if !lag.is_zero() {
                self.vm.run_for(&mut self.clock, lag, tick);
            }
            if self.clock.now() >= self.sensor_next_at {
                let now = self.clock.now();
                let pages = self.vm.jvm().stats().pages_written;
                let rate = (pages - self.sensor_last_pages) as f64 / cadence.as_secs_f64();
                self.sensor.push(now.as_nanos(), rate);
                self.sensor_last_pages = pages;
                self.sensor_next_at = now + cadence;
            }
        }
    }
}

/// One source host's drain state.
struct HostState {
    spec: HostSpec,
    slots: Vec<Slot>,
    /// Admission queue in the policy's static order.
    pending: Vec<usize>,
    drain_start: SimTime,
    /// Per-tenant histograms merged into the digest, plus the fleet lane:
    /// `fleet/migration_ns`, `fleet/downtime_ns` and `fleet/queue_wait_ns`.
    merger: HistMerger,
}

/// The drain-wide state every admission reads or extends.
struct Drain<'p> {
    plan: &'p EvacuationPlan,
    policy: FleetPolicy,
    topo: Topology,
    dests: Vec<DestState>,
    /// The fleet-wide clock: admissions are stamped with it, and it only
    /// advances when a migration completes.
    fleet_now: SimTime,
    /// Placement decisions in fleet-wide admission order.
    placements: Vec<VmPlacement>,
    /// Session-ready times; the minimum steps next.
    ready: BinaryHeap<Reverse<(SimTime, VmId)>>,
    mission: Mission<'p>,
}

/// Runs an evacuation under `policy` (the per-host admission-order
/// policy; destination choice is the plan's placement policy).
///
/// # Errors
///
/// An invalid plan ([`EvacuationPlan::validate`], which runs
/// [`HostSpec::validate`] on every source) or the first [`MigrateError`]
/// any tenant's engine raises (missing LKM, exhausted coordination under
/// the `Fail` fallback). Degraded-but-completed migrations are not
/// errors; they show up in the digests' `degraded` counts.
pub fn evacuate(plan: &EvacuationPlan, policy: FleetPolicy) -> Result<EvacOutcome, MigrateError> {
    plan.validate().map_err(MigrateError::Config)?;

    // Boot every host: warm its guests on their own clocks, stamp its
    // drain-begin instant, seed its admission queue.
    let mut hosts: Vec<HostState> = plan
        .sources
        .iter()
        .map(|spec| boot_host(spec, policy))
        .collect();
    let starts = || hosts.iter().map(|h| h.drain_start);
    let global_start = starts().min().expect("validated plan has sources");
    let topo = plan.topology();
    let mut drain = Drain {
        plan,
        policy,
        mission: Mission::new(plan, &topo, starts()),
        topo,
        dests: plan
            .destinations
            .iter()
            .cloned()
            .map(DestState::new)
            .collect(),
        // Starts at the latest host's drain start.
        fleet_now: starts().max().expect("validated plan has sources"),
        placements: Vec::new(),
        ready: BinaryHeap::new(),
    };
    let mut sla_total = SlaCost::ZERO;
    let mut last_end = global_start;
    // Pending pipe degrades in schedule order; each is consumed when it
    // fires.
    let mut pipe_faults: Vec<&PipeFault> = plan.pipe_faults.iter().collect();

    // Initial admission sweep, hosts in plan order.
    for (h, host) in hosts.iter_mut().enumerate() {
        drain.admit_host(h, host)?;
    }

    while let Some(Reverse((at, vmid))) = drain.ready.pop() {
        // Seeded pipe degrades fire at the first wakeup past their
        // trigger, in schedule order; in-flight flows pick the new
        // bottleneck up through the ordinary re-grant below. A fault on a
        // pipe the fabric does not have is consumed silently.
        for fault in pipe_faults.extract_if(.., |f| at >= global_start + f.after) {
            if let Some(base) = drain.topo.pipe_rate(fault.pipe) {
                let degraded = Bandwidth::from_bytes_per_sec(base.bytes_per_sec() * fault.factor);
                drain.topo.set_pipe_rate(fault.pipe, degraded);
                drain.mission.fault(at, &drain.topo, fault);
            }
        }

        let host = &mut hosts[vmid.host as usize];
        let slot = &mut host.slots[vmid.slot as usize];
        let active = slot.active.as_mut().expect("a ready session is active");

        // Re-rate to the flow's current bottleneck share; skipped when
        // unchanged so a sole flow's link is never touched.
        let share = drain.topo.flow_rate(active.flow);
        drain.mission.wakeup(
            vmid,
            at,
            &drain.topo,
            &active.session,
            &slot.vm,
            &slot.sensor,
            share,
            active.applied,
        );
        if share != active.applied {
            active.session.set_bandwidth(share);
            active.applied = share;
        }

        match active.session.step(&mut slot.vm, &mut slot.clock)? {
            SessionStep::Complete(report) => {
                let ended = slot.clock.now();
                drain.topo.close_flow(active.flow);
                slot.active = None;
                drain.fleet_now = drain.fleet_now.max(ended);
                last_end = last_end.max(ended);
                drain.mission.complete(vmid, ended, &report);

                let admitted = slot.admitted_at.expect("completed slot was admitted");
                let migration = ended.saturating_since(admitted).as_nanos();
                host.merger
                    .record(Subsystem::Fleet, "migration_ns", migration);
                let downtime = report.downtime.workload_downtime().as_nanos();
                host.merger
                    .record(Subsystem::Fleet, "downtime_ns", downtime);

                // Fold this tenant now: its tail runs on its own clock,
                // its digest row is scored, and its histograms merge into
                // the host's.
                slot.vm
                    .run_for(&mut slot.clock, host.spec.tail, host.spec.tick);
                let tail_end = slot.clock.now();
                slot.vm.finish_analyzer(tail_end);
                let meta = DigestMeta {
                    name: slot.tenant.name.clone(),
                    workload: slot.tenant.vm.workload.name.to_string(),
                    assisted: slot.tenant.vm.assisted,
                    seed: slot.tenant.vm.seed,
                };
                let entry = FleetVmEntry {
                    digest: RunDigest::from_report(meta, &report),
                    admitted_at_ns: admitted.saturating_since(host.drain_start).as_nanos(),
                    ended_at_ns: ended.saturating_since(host.drain_start).as_nanos(),
                    detected_period_ns: slot.detected_period_ns,
                    detected_confidence: slot.detected_confidence,
                    detect_confident: slot.detect_confident,
                    declared_period_ns: slot.declared_period_ns,
                    window_hit: slot.window_hit,
                    sla: slot.tenant.sla.cost(&report),
                };
                sla_total.add(&entry.sla);
                host.merger.add(&report.telemetry);
                slot.entry = Some(entry);
                slot.report = Some(*report);

                // A completion is the only event that can unblock
                // admission anywhere: it freed a concurrency slot on this
                // host and link capacity on every pipe its flow crossed.
                for (h, host) in hosts.iter_mut().enumerate() {
                    drain.admit_host(h, host)?;
                }
            }
            _ => drain.ready.push(Reverse((slot.clock.now(), vmid))),
        }
    }
    for host in &hosts {
        debug_assert!(
            host.pending.is_empty(),
            "idle scheduler with pending tenants on {}",
            host.spec.name
        );
    }

    let mut digests = Vec::with_capacity(hosts.len());
    let mut reports = Vec::with_capacity(hosts.len());
    for (host, spec) in hosts.iter_mut().zip(&plan.sources) {
        let histograms = std::mem::take(&mut host.merger).finish();
        let vms: Vec<FleetVmEntry> = host
            .slots
            .iter_mut()
            .map(|s| s.entry.take().expect("every tenant migrated"))
            .collect();
        digests.push(FleetDigest::new(
            FleetMeta {
                name: spec.name.clone(),
                policy: policy.name().to_string(),
                seed: spec.seed,
                uplink_bytes_per_sec: spec.uplink.bytes_per_sec(),
                max_concurrent: spec.max_concurrent,
            },
            vms,
            histograms,
        ));
        reports.push(
            host.slots
                .iter_mut()
                .map(|s| s.report.take().expect("every tenant migrated"))
                .collect(),
        );
    }
    Ok(EvacOutcome {
        hosts: digests,
        placements: drain.placements,
        eviction_ns: last_end.saturating_since(global_start).as_nanos(),
        sla_total,
        reports,
        mission: drain.mission.finish(),
    })
}

/// Boots one host: launches and warms every guest through the sensing
/// loop, stamps the drain-begin instant, seeds the admission queue in the
/// policy's static order.
fn boot_host(spec: &HostSpec, policy: FleetPolicy) -> HostState {
    let cadence = spec.sense_cadence;
    let slots: Vec<Slot> = spec
        .tenants
        .iter()
        .map(|tenant| {
            let mut vm = tenant.launch();
            // Arm only the phase-shift fault at boot: its countdown must
            // span warmup and queueing, where the sensor watches. The
            // engine re-installs the identical value at migration start,
            // which is a no-op (a fired shift stays fired). Other fault
            // lanes keep their migration-start semantics.
            vm.set_phase_shift(tenant.migration.faults.phase_shift);
            let mut slot = Slot {
                tenant: tenant.clone(),
                vm,
                clock: SimClock::new(),
                active: None,
                admitted_at: None,
                sensor: SampleSeries::new(cadence.as_nanos(), spec.sense_capacity),
                sensor_last_pages: 0,
                sensor_next_at: SimTime::ZERO + cadence,
                detected_period_ns: 0,
                detected_confidence: 0.0,
                detect_confident: false,
                declared_period_ns: 0,
                window_hit: None,
                entry: None,
                report: None,
            };
            slot.catch_up(SimTime::ZERO + spec.warmup, spec.tick, cadence);
            slot
        })
        .collect();

    let drain_start = slots[0].clock.now();

    let mut pending: Vec<usize> = (0..slots.len()).collect();
    if policy == FleetPolicy::SmallestWorkingSetFirst {
        pending.sort_by_key(|&i| (slots[i].working_set(), i));
    }

    HostState {
        spec: spec.clone(),
        slots,
        pending,
        drain_start,
        merger: HistMerger::new(),
    }
}

/// Ranks the pending queue for the next admission, exactly as the
/// single-host scheduler did.
///
/// The static policies consider only the queue head — head-of-line
/// blocking is the price of a fixed order. The cycle policies rank the
/// whole queue by peak ratio (deepest in its write-quiet trough first)
/// and may admit *around* an infeasible candidate: a dynamic policy is
/// not queue-bound.
///
/// CycleAware sees only what the observatory senses: the detected
/// estimate's rate ratio at this instant, when the detector clears the
/// confidence gate. Below the gate a tenant scores exactly 1.0 — the same
/// score every steady workload gets — so the ranking degrades to the
/// working-set tie-break and the policy *is* smallest-working-set-first
/// until the detector is sure.
///
/// CycleDeclared is the oracle: the declared dirty-rate hint over the
/// declared cycle average (the application-assisted route, one level up
/// from the paper's JVMTI agent). It exists so detection accuracy has a
/// ground-truth run to be measured against.
fn rank_candidates(policy: FleetPolicy, slots: &[Slot], pending: &[usize]) -> Vec<usize> {
    let peak_ratio: fn(&Slot) -> f64 = match policy {
        FleetPolicy::Fifo | FleetPolicy::SmallestWorkingSetFirst => return vec![0],
        FleetPolicy::CycleAware => |slot| {
            let now_ns = slot.clock.now().as_nanos();
            match detect(&slot.sensor, now_ns) {
                Some(est) if est.confidence >= CONFIDENCE_GATE => est.rate_ratio_at(now_ns),
                _ => 1.0,
            }
        },
        FleetPolicy::CycleDeclared => |slot| {
            let average = match &slot.tenant.phases {
                Some(phases) => cycle_average_rate(phases),
                None => {
                    let w = &slot.tenant.vm.workload;
                    (w.alloc_rate + w.old_write_rate).max(1.0)
                }
            };
            slot.vm.dirty_rate_hint() / average
        },
    };
    let mut ranked: Vec<(f64, u64, usize)> = pending
        .iter()
        .enumerate()
        .map(|(pos, &i)| (peak_ratio(&slots[i]), slots[i].working_set(), pos))
        .collect();
    // Ties on the peak ratio — every steady tenant sits at exactly 1.0 —
    // break smallest-working-set-first, then by queue position.
    ranked.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("peak ratios are finite")
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
    });
    ranked.into_iter().map(|(_, _, pos)| pos).collect()
}

impl Drain<'_> {
    /// Admits tenants on host `h` until the concurrency cap, path
    /// feasibility, or placement capacity stops us; every admission
    /// schedules the new session on the ready heap.
    fn admit_host(&mut self, h: usize, host: &mut HostState) -> Result<(), MigrateError> {
        let spec = &host.spec;
        let now = self.fleet_now;
        while !host.pending.is_empty() && self.topo.host_active(h) < spec.max_concurrent as usize {
            // Pending guests are live: bring them up to fleet time so the
            // sensors (and the eventual migration) see their true current
            // state.
            for &i in host.pending.iter() {
                host.slots[i].catch_up(now, spec.tick, spec.sense_cadence);
            }

            let order = rank_candidates(self.policy, &host.slots, &host.pending);

            // A candidate is admissible when its whole path is feasible (or
            // idle — a drain must never deadlock: with nothing in flight the
            // candidate gets the best path it will ever see) *and*, when the
            // plan has destinations, placement finds it a home. Placement
            // folds the per-destination path checks into its own feasibility
            // filter.
            let mut chosen: Option<(usize, Option<(usize, PlacementRationale)>)> = None;
            for pos in order {
                let slot = &host.slots[host.pending[pos]];
                let tenant = &slot.tenant;
                if self.dests.is_empty() {
                    if self.topo.admits(
                        h,
                        None,
                        tenant.weight,
                        tenant.min_rate,
                        spec.enforce_min_rate,
                    ) {
                        chosen = Some((pos, None));
                        break;
                    }
                } else if let Some(placed) = place::choose(
                    self.plan.placement,
                    &self.topo,
                    &self.dests,
                    h,
                    tenant,
                    slot.working_set(),
                    spec.enforce_min_rate,
                    self.placements.len() as u64,
                ) {
                    chosen = Some((pos, Some(placed)));
                    break;
                }
            }
            let Some((pos, placed)) = chosen else {
                // Every candidate the policy may pick is infeasible;
                // capacity frees up when an active migration completes, and
                // admission re-runs then.
                break;
            };
            let idx = host.pending.remove(pos);
            let dst = placed.map(|(d, _)| d);

            let slot = &mut host.slots[idx];
            // Freeze the observatory's view of this tenant at its admission
            // instant: the estimate the digest scores, and — when a
            // declared cycle exists as ground truth — whether a
            // gate-clearing estimate landed the admission below the
            // declared cycle-average dirty rate (a window hit). Every
            // policy records this, so detected accuracy is comparable
            // across policies.
            let estimate = detect(&slot.sensor, slot.clock.now().as_nanos());
            slot.detected_period_ns = estimate.as_ref().map_or(0, |e| e.period_ns);
            slot.detected_confidence = estimate.as_ref().map_or(0.0, |e| e.confidence);
            slot.detect_confident = slot.detected_confidence >= CONFIDENCE_GATE;
            let phases = slot.tenant.phases.as_ref();
            slot.declared_period_ns =
                phases.map_or(0, |ph| ph.iter().map(|p| p.duration.as_nanos()).sum());
            slot.window_hit = phases.map(|ph| {
                slot.detect_confident && slot.vm.dirty_rate_hint() <= cycle_average_rate(ph)
            });
            let id = VmId {
                host: h as u32,
                slot: idx as u32,
            };
            self.mission
                .admit(id, now, slot.working_set(), estimate, placed);

            let flow = self
                .topo
                .open_flow(h, dst, slot.tenant.weight, slot.tenant.min_rate);
            if let Some(d) = dst {
                self.dests[d].occupy();
            }
            let dest_name = |d: usize| self.plan.destinations[d].name.clone();
            self.placements.push(VmPlacement {
                source: h,
                slot: idx,
                vm: slot.tenant.name.clone(),
                dest: dst,
                dest_name: dst.map(dest_name),
                chosen_score: placed.map(|(_, r)| r.chosen_score),
                runner_up: placed.and_then(|(_, r)| r.runner_up.map(dest_name)),
                runner_up_score: placed.and_then(|(_, r)| r.runner_up_score),
            });
            let engine = PrecopyEngine::new(slot.tenant.migration.clone());
            let session = engine.begin(&mut slot.vm, &mut slot.clock, Recorder::new())?;
            slot.active = Some(Active {
                session,
                flow,
                applied: slot.tenant.migration.bandwidth,
            });
            slot.admitted_at = Some(now);
            let queued = now.saturating_since(SimTime::ZERO + spec.warmup);
            host.merger
                .record(Subsystem::Fleet, "queue_wait_ns", queued.as_nanos());
            // Schedule the new session at its post-begin clock: from here
            // on it owns exactly one heap entry until it completes.
            self.ready.push(Reverse((slot.clock.now(), id)));
        }
        Ok(())
    }
}
