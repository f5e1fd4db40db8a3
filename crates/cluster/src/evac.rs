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
use netsim::{FlowId, PipeTimelines};
use simkit::telemetry::{CausalId, CausalKind, CausalLog, Recorder, SampleSeries, Subsystem};
use simkit::units::Bandwidth;
use simkit::{SimClock, SimDuration, SimTime};

use crate::detect::{detect, WorkloadEstimate, CONFIDENCE_GATE};
use crate::eta::{self, EtaSummary, EtaTracker, Watchdog, WatchdogFinding, WIRE_PAGE_BYTES};
use crate::place::{self, DestState, PlacementPolicy, PlacementRationale};
use crate::policy::{cycle_average_rate, FleetPolicy};

pub use javmm::host::DestSpec;

/// Identifies one VM in an evacuation: host index, then roster slot.
///
/// The derived order is the ready heap's tie-break: sessions whose clocks
/// collide step in host-major, then roster order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct VmId {
    host: u32,
    slot: u32,
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

/// Observability record of one evacuation: everything mission control
/// needs to replay *why* the drain unfolded the way it did.
#[derive(Debug)]
pub struct MissionControl {
    /// The causal event log: admissions, placements, wakeups, re-grants,
    /// completions, faults and findings, chained parent→child.
    pub causal: CausalLog,
    /// Per-pipe utilization and queued-demand timelines.
    pub pipes: PipeTimelines,
    /// ETA calibration summary (the CI-gated numbers).
    pub eta: EtaSummary,
    /// SLO watchdog findings, in firing order.
    pub findings: Vec<WatchdogFinding>,
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
    /// Working set measured at admission; the ETA projection's remaining
    /// bytes until the first iteration reports a real dirty set.
    ws_bytes: u64,
    /// The observatory estimate frozen at admission, for the ETA
    /// projection's dirty-rate model.
    estimate: Option<WorkloadEstimate>,
    /// Index into the mission's ETA tracker and watchdog registries;
    /// `usize::MAX` until admitted.
    mission_vm: usize,
    /// The VM's newest causal event, parent of whatever happens next.
    last_causal: Option<CausalId>,
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
    /// The fleet lane: only the `fleet/migration_ns`, `fleet/downtime_ns`
    /// and `fleet/queue_wait_ns` histograms, which merge into the digest.
    rec: Recorder,
    merger: HistMerger,
}

/// Ring capacity of each pipe timeline: enough to retain a whole 48-VM
/// evacuation's wakeup-driven samples.
const PIPE_SERIES_CAP: usize = 4096;

/// The drain's live mission-control state. All of it is *derived*: it
/// observes the drain without feeding anything back into scheduling,
/// re-rating or the recorders, which is what keeps the committed digest
/// baselines byte-identical.
struct Mission {
    causal: CausalLog,
    pipes: PipeTimelines,
    eta: EtaTracker,
    watchdog: Watchdog,
    /// Instant of the newest pipe sample; `None` before the first wakeup.
    last_sample_at: Option<SimTime>,
    /// Pending pipe degrades as `(trigger instant, pipe, factor)`, in
    /// schedule order; each is consumed when it fires.
    pipe_faults: Vec<(SimTime, PipeSel, f64)>,
    /// Per-host drain-root causal events, parents of every admission.
    host_roots: Vec<CausalId>,
}

impl Mission {
    /// Emits a causal `finding` event for every watchdog finding appended
    /// since `from`, parented on the wakeup that observed it.
    fn emit_findings_since(&mut self, from: usize) {
        for i in from..self.watchdog.findings().len() {
            let f = &self.watchdog.findings()[i];
            self.causal.emit(
                f.at_ns,
                CausalKind::Finding,
                Some(f.causal),
                f.subject.clone(),
                vec![("rule", f.rule.to_string()), ("evidence", f.detail.clone())],
            );
        }
    }
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
    let mut topo = plan.topology();
    let mut dests: Vec<DestState> = plan
        .destinations
        .iter()
        .cloned()
        .map(DestState::new)
        .collect();

    // Boot every host: warm its guests on their own clocks, stamp its
    // drain-begin instant, seed its admission queue.
    let mut hosts: Vec<HostState> = plan
        .sources
        .iter()
        .map(|spec| boot_host(spec, policy))
        .collect();

    // The fleet-wide clock: admissions are stamped with it, and it only
    // advances when a migration completes. Starts at the latest host's
    // drain start (for one host: its drain start, as before).
    let mut fleet_now = hosts
        .iter()
        .map(|h| h.drain_start)
        .max()
        .expect("validated plan has sources");
    let global_start = hosts
        .iter()
        .map(|h| h.drain_start)
        .min()
        .expect("validated plan has sources");

    let mut ready: BinaryHeap<Reverse<(SimTime, VmId)>> = BinaryHeap::new();
    let mut placements: Vec<VmPlacement> = Vec::new();
    let mut sla_total = SlaCost::ZERO;
    let mut last_end = global_start;

    let mut mission = Mission {
        causal: CausalLog::new(),
        pipes: PipeTimelines::for_topology(&topo, PIPE_SERIES_CAP),
        eta: EtaTracker::new(plan.freeze_eta),
        watchdog: Watchdog::new(),
        last_sample_at: None,
        pipe_faults: plan
            .pipe_faults
            .iter()
            .map(|f| (global_start + f.after, f.pipe, f.factor))
            .collect(),
        host_roots: Vec::with_capacity(hosts.len()),
    };
    // Root every host's causal chain at its drain-begin instant.
    for host in &hosts {
        let root = mission.causal.emit(
            host.drain_start.as_nanos(),
            CausalKind::Drain,
            None,
            host.spec.name.clone(),
            vec![("tenants", host.slots.len().to_string())],
        );
        mission.host_roots.push(root);
    }

    // Initial admission sweep, hosts in plan order.
    for (h, host) in hosts.iter_mut().enumerate() {
        admit_host(
            plan,
            policy,
            h,
            host,
            &mut topo,
            &mut dests,
            fleet_now,
            &mut placements,
            &mut ready,
            &mut mission,
        )?;
    }

    while let Some(Reverse((at, vmid))) = ready.pop() {
        // Seeded pipe degrades fire at the first wakeup past their
        // trigger, in schedule order; in-flight flows pick the new
        // bottleneck up through the ordinary re-grant below. A fault on a
        // pipe the fabric does not have is consumed silently.
        while let Some(idx) = mission.pipe_faults.iter().position(|(t, _, _)| at >= *t) {
            let (_, pipe, factor) = mission.pipe_faults.remove(idx);
            let Some(base) = topo.pipe_rate(pipe) else {
                continue;
            };
            let degraded = Bandwidth::from_bytes_per_sec(base.bytes_per_sec() * factor);
            topo.set_pipe_rate(pipe, degraded);
            let pipe_name = topo.pipe_name(pipe).expect("a pipe with a rate has a name");
            mission.causal.emit(
                at.as_nanos(),
                CausalKind::Fault,
                None,
                pipe_name.to_string(),
                vec![
                    ("fault", "pipe_degrade".to_string()),
                    ("pipe", pipe.label()),
                    ("factor", format!("{factor}")),
                    ("rate_bps", format!("{:.0}", degraded.bytes_per_sec())),
                ],
            );
        }

        let host = &mut hosts[vmid.host as usize];
        let slot = &mut host.slots[vmid.slot as usize];
        let active = slot.active.as_mut().expect("a ready session is active");
        let at_ns = at.as_nanos();

        // Re-rate to the flow's current bottleneck share; skipped when
        // unchanged so a sole flow's link is never touched.
        let share = topo.flow_rate(active.flow);

        // Project this VM's landing from its current state: remaining
        // work is the newest iteration's re-dirty set (the working set
        // before the first iteration reports one), the dirty-rate model
        // is the observatory estimate when it cleared the confidence gate
        // (sensed mean modulated by the cycle's ratio at this instant),
        // else the freshest observed per-iteration rate.
        let iters = active.session.iterations();
        // Measured protocol shrink, from the newest completed iterations:
        // wire bytes per to-send page (compression and within-iteration
        // skips) and the dirty->send survival ratio (transfer-bitmap
        // consultation and re-dirty coalescing shrink the dirty set before
        // it reaches the wire). Projecting raw dirty bytes without these
        // runs 2-3x late.
        let wire_per_page = match iters.last() {
            Some(last) if last.pages_to_send > 0 => {
                last.bytes_sent as f64 / last.pages_to_send as f64
            }
            _ => WIRE_PAGE_BYTES,
        };
        let survival = match iters.len() {
            n if n >= 2 && iters[n - 2].pages_dirtied_during > 0 => {
                (iters[n - 1].pages_to_send as f64 / iters[n - 2].pages_dirtied_during as f64)
                    .clamp(0.05, 1.0)
            }
            // One completed iteration: no dirty->send pair yet, so borrow
            // that iteration's own sent fraction — the transfer-bitmap
            // skip rate is roughly stationary across iterations.
            1 if iters[0].pages_to_send > 0 => {
                (iters[0].pages_sent as f64 / iters[0].pages_to_send as f64).clamp(0.05, 1.0)
            }
            // No measurement yet (admission): fall back to the fleet
            // prior rather than charging the full raw dirty rate.
            _ => eta::ADMISSION_SHRINK_PRIOR,
        };
        // The session's own pending set (the dirty snapshot intersected
        // with the transfer bitmap) is the exact next transfer set — no
        // estimate needed. Before the first iteration that set is the
        // whole address space minus whatever the daemon has already
        // marked skippable.
        let remaining_bytes =
            active.session.pending_transferable_pages(&slot.vm) as f64 * wire_per_page;
        let est = if slot.detect_confident {
            slot.estimate.as_ref()
        } else {
            None
        };
        let dirty_pps = match (est, iters.last()) {
            (Some(est), _) => slot.sensor.mean() * est.rate_ratio_at(at_ns),
            (None, Some(last)) if !last.duration.is_zero() => {
                last.pages_dirtied_during as f64 / last.duration.as_secs_f64()
            }
            _ => slot.sensor.mean(),
        };
        let dirty_bps = dirty_pps * WIRE_PAGE_BYTES;
        let max_iters = slot.tenant.migration.stop.max_iterations;
        let iters_left = max_iters.saturating_sub(iters.len() as u32);
        // The ETA dirty term wants the mean rate the projection should
        // modulate: the observatory mean when a confident cycle estimate
        // exists (the projection applies the cycle's ratio itself), else
        // the freshest per-iteration rate — the long-run sensor mean
        // still remembers the first iteration's cold-start dirtying and
        // runs hot for workloads that have settled.
        let eta_mean_pps = match (est, iters.last()) {
            (None, Some(last)) if !last.duration.is_zero() => {
                last.pages_dirtied_during as f64 / last.duration.as_secs_f64()
            }
            _ => slot.sensor.mean(),
        };
        let eta_dirty_bps = eta_mean_pps * survival * wire_per_page;
        // The live-phase drain plus the structural epilogue the config
        // promises: the resume pause is paid by every migration and is
        // invisible to the byte-rate model. Cohort calibration in the
        // tracker covers what remains (readiness wait, final-set copy).
        let eta_secs = eta::project_eta_cycle_secs(
            remaining_bytes,
            share.bytes_per_sec(),
            eta_dirty_bps,
            est,
            at_ns,
            iters_left,
        ) + slot.tenant.migration.resume_time.as_secs_f64();
        let predicted = mission.eta.record(slot.mission_vm, at_ns, eta_secs);

        let mut detail = vec![
            ("granted_bps", format!("{:.0}", share.bytes_per_sec())),
            ("wire_bytes", active.session.wire_bytes().to_string()),
            ("remaining_bytes", format!("{remaining_bytes:.0}")),
            ("dirty_bps", format!("{dirty_bps:.0}")),
            ("eta_dirty_bps", format!("{eta_dirty_bps:.0}")),
            ("eta_secs", format!("{eta_secs:.3}")),
            ("survival", format!("{survival:.3}")),
            ("iterations", iters.len().to_string()),
        ];
        if let Some(p) = predicted {
            detail.push(("predicted_end_ns", p.to_string()));
        }
        let wake = mission.causal.emit(
            at_ns,
            CausalKind::Wakeup,
            slot.last_causal,
            mission.eta.vm_name(slot.mission_vm).to_string(),
            detail,
        );
        slot.last_causal = Some(wake);

        let before = mission.watchdog.findings().len();
        mission.watchdog.observe_vm(
            slot.mission_vm,
            at_ns,
            wake,
            active.session.wire_bytes(),
            dirty_bps,
            share.bytes_per_sec(),
            iters.len(),
            iters_left,
            max_iters,
        );
        mission.emit_findings_since(before);

        if share != active.applied {
            mission.causal.emit(
                at_ns,
                CausalKind::Regrant,
                Some(wake),
                mission.eta.vm_name(slot.mission_vm).to_string(),
                vec![
                    ("old_bps", format!("{:.0}", active.applied.bytes_per_sec())),
                    ("new_bps", format!("{:.0}", share.bytes_per_sec())),
                ],
            );
            active.session.set_bandwidth(share);
            active.applied = share;
        }

        // Sample every pipe over the window since the previous wakeup and
        // run the saturation rule over the fresh samples. Wakeup times are
        // monotone (the heap pops minima), so windows never overlap.
        match mission.last_sample_at {
            None => mission.last_sample_at = Some(at),
            Some(prev) if at > prev => {
                topo.sample_pipes(at, at.saturating_since(prev), &mut mission.pipes);
                mission.last_sample_at = Some(at);
                let before = mission.watchdog.findings().len();
                mission.watchdog.observe_pipes(at_ns, wake, &mission.pipes);
                mission.emit_findings_since(before);
            }
            Some(_) => {}
        }

        match active.session.step(&mut slot.vm, &mut slot.clock)? {
            SessionStep::Complete(report) => {
                let ended = slot.clock.now();
                topo.close_flow(active.flow);
                slot.active = None;
                fleet_now = fleet_now.max(ended);
                last_end = last_end.max(ended);

                mission.eta.complete(slot.mission_vm, ended.as_nanos());
                let done = mission.causal.emit(
                    ended.as_nanos(),
                    CausalKind::Complete,
                    slot.last_causal,
                    mission.eta.vm_name(slot.mission_vm).to_string(),
                    vec![
                        ("bytes", report.total_bytes.to_string()),
                        (
                            "downtime_ns",
                            report.downtime.workload_downtime().as_nanos().to_string(),
                        ),
                    ],
                );
                slot.last_causal = Some(done);

                let admitted = slot.admitted_at.expect("completed slot was admitted");
                host.rec.hist_dur(
                    Subsystem::Fleet,
                    "migration_ns",
                    ended.saturating_since(admitted),
                );
                host.rec.hist_dur(
                    Subsystem::Fleet,
                    "downtime_ns",
                    report.downtime.workload_downtime(),
                );

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
                    admit_host(
                        plan,
                        policy,
                        h,
                        host,
                        &mut topo,
                        &mut dests,
                        fleet_now,
                        &mut placements,
                        &mut ready,
                        &mut mission,
                    )?;
                }
            }
            _ => ready.push(Reverse((slot.clock.now(), vmid))),
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
        host.merger.add(&host.rec.snapshot());
        let histograms = std::mem::replace(&mut host.merger, HistMerger::new()).finish();
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
        placements,
        eviction_ns: last_end.saturating_since(global_start).as_nanos(),
        sla_total,
        reports,
        mission: MissionControl {
            causal: mission.causal,
            pipes: mission.pipes,
            eta: mission.eta.summary(),
            findings: mission.watchdog.into_findings(),
        },
    })
}

/// Boots one host: launches and warms every guest through the sensing
/// loop, stamps the drain-begin instant, seeds the admission queue in the
/// policy's static order.
fn boot_host(spec: &HostSpec, policy: FleetPolicy) -> HostState {
    let rec = Recorder::new();
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
                ws_bytes: 0,
                estimate: None,
                mission_vm: usize::MAX,
                last_causal: None,
            };
            slot.catch_up(SimTime::ZERO + spec.warmup, spec.tick, cadence);
            slot
        })
        .collect();

    let drain_start = slots[0].clock.now();

    let mut pending: Vec<usize> = (0..slots.len()).collect();
    if policy == FleetPolicy::SmallestWorkingSetFirst {
        pending.sort_by_key(|&i| {
            let heap = slots[i].vm.jvm().heap();
            (heap.young_committed() + heap.old_used(), i)
        });
    }

    HostState {
        spec: spec.clone(),
        slots,
        pending,
        drain_start,
        rec,
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
fn rank_candidates(policy: FleetPolicy, slots: &mut [Slot], pending: &[usize]) -> Vec<usize> {
    match policy {
        FleetPolicy::Fifo | FleetPolicy::SmallestWorkingSetFirst => vec![0],
        FleetPolicy::CycleAware => {
            let mut ranked: Vec<(f64, u64, usize)> = pending
                .iter()
                .enumerate()
                .map(|(pos, &i)| {
                    let slot = &slots[i];
                    let now_ns = slot.clock.now().as_nanos();
                    let score = match detect(&slot.sensor, now_ns) {
                        Some(est) if est.confidence >= CONFIDENCE_GATE => est.rate_ratio_at(now_ns),
                        _ => 1.0,
                    };
                    let heap = slot.vm.jvm().heap();
                    let ws = heap.young_committed() + heap.old_used();
                    (score, ws, pos)
                })
                .collect();
            ranked.sort_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .expect("rate ratios are finite")
                    .then(a.1.cmp(&b.1))
                    .then(a.2.cmp(&b.2))
            });
            ranked.into_iter().map(|(_, _, pos)| pos).collect()
        }
        FleetPolicy::CycleDeclared => {
            let mut ranked: Vec<(f64, u64, usize)> = pending
                .iter()
                .enumerate()
                .map(|(pos, &i)| {
                    let slot = &mut slots[i];
                    let average = match &slot.tenant.phases {
                        Some(phases) => cycle_average_rate(phases),
                        None => {
                            let w = &slot.tenant.vm.workload;
                            (w.alloc_rate + w.old_write_rate).max(1.0)
                        }
                    };
                    let heap = slot.vm.jvm().heap();
                    let ws = heap.young_committed() + heap.old_used();
                    (slot.vm.dirty_rate_hint() / average, ws, pos)
                })
                .collect();
            // Ties on the peak ratio — every steady tenant sits at
            // exactly 1.0 — break smallest-working-set-first, then by
            // queue position.
            ranked.sort_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .expect("peak ratios are finite")
                    .then(a.1.cmp(&b.1))
                    .then(a.2.cmp(&b.2))
            });
            ranked.into_iter().map(|(_, _, pos)| pos).collect()
        }
    }
}

/// Admits tenants on host `h` until the concurrency cap, path
/// feasibility, or placement capacity stops us; every admission schedules
/// the new session on the ready heap.
#[allow(clippy::too_many_arguments)]
fn admit_host(
    plan: &EvacuationPlan,
    policy: FleetPolicy,
    h: usize,
    host: &mut HostState,
    topo: &mut Topology,
    dests: &mut [DestState],
    fleet_now: SimTime,
    placements: &mut Vec<VmPlacement>,
    ready: &mut BinaryHeap<Reverse<(SimTime, VmId)>>,
    mission: &mut Mission,
) -> Result<(), MigrateError> {
    let spec = &host.spec;
    while !host.pending.is_empty() && topo.host_active(h) < spec.max_concurrent as usize {
        // Pending guests are live: bring them up to fleet time so the
        // sensors (and the eventual migration) see their true current
        // state.
        for &i in host.pending.iter() {
            host.slots[i].catch_up(fleet_now, spec.tick, spec.sense_cadence);
        }

        let order = rank_candidates(policy, &mut host.slots, &host.pending);

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
            if dests.is_empty() {
                if topo.admits(
                    h,
                    None,
                    tenant.weight,
                    tenant.min_rate,
                    spec.enforce_min_rate,
                ) {
                    chosen = Some((pos, None));
                    break;
                }
            } else {
                let heap = slot.vm.jvm().heap();
                let ws = heap.young_committed() + heap.old_used();
                if let Some(placed) = place::choose(
                    plan.placement,
                    topo,
                    dests,
                    h,
                    tenant,
                    ws,
                    spec.enforce_min_rate,
                    placements.len() as u64,
                ) {
                    chosen = Some((pos, Some(placed)));
                    break;
                }
            }
        }
        let Some((pos, placed)) = chosen else {
            // Every candidate the policy may pick is infeasible; capacity
            // frees up when an active migration completes, and admission
            // re-runs then.
            break;
        };
        let idx = host.pending.remove(pos);
        let dst = placed.map(|(d, _)| d);

        let slot = &mut host.slots[idx];
        // Freeze the observatory's view of this tenant at its admission
        // instant: the estimate the digest scores, and — when a declared
        // cycle exists as ground truth — whether a gate-clearing estimate
        // landed the admission below the declared cycle-average dirty
        // rate (a window hit). Every policy records this, so detected
        // accuracy is comparable across policies.
        let now_ns = slot.clock.now().as_nanos();
        let estimate = detect(&slot.sensor, now_ns);
        slot.detected_period_ns = estimate.as_ref().map_or(0, |e| e.period_ns);
        slot.detected_confidence = estimate.as_ref().map_or(0.0, |e| e.confidence);
        slot.detect_confident = estimate
            .as_ref()
            .is_some_and(|e| e.confidence >= CONFIDENCE_GATE);
        slot.declared_period_ns = slot
            .tenant
            .phases
            .as_ref()
            .map_or(0, |ph| ph.iter().map(|p| p.duration.as_nanos()).sum());
        let confident = slot.detect_confident;
        slot.window_hit = match &slot.tenant.phases {
            Some(phases) => {
                let declared_now = slot.vm.dirty_rate_hint();
                Some(confident && declared_now <= cycle_average_rate(phases))
            }
            None => None,
        };
        slot.estimate = estimate;

        // Mission control: working set for the first ETA projection, the
        // causal admit record rooted on the host's drain event, and — when
        // a destination was chosen — the placement rationale, scored when
        // the pick was made, before the flow opens.
        let heap = slot.vm.jvm().heap();
        slot.ws_bytes = heap.young_committed() + heap.old_used();
        let vm_label = format!("{}/{}", spec.name, slot.tenant.name);
        slot.mission_vm = mission.eta.admit(&vm_label, slot.tenant.vm.workload.name);
        mission.watchdog.admit(&vm_label);
        let admit_id = mission.causal.emit(
            fleet_now.as_nanos(),
            CausalKind::Admit,
            Some(mission.host_roots[h]),
            vm_label.clone(),
            vec![
                ("ws_bytes", slot.ws_bytes.to_string()),
                (
                    "min_rate_bps",
                    format!("{:.0}", slot.tenant.min_rate.bytes_per_sec()),
                ),
                (
                    "detect_confidence",
                    format!("{:.3}", slot.detected_confidence),
                ),
            ],
        );
        slot.last_causal = Some(admit_id);

        let flow = topo.open_flow(h, dst, slot.tenant.weight, slot.tenant.min_rate);
        if let Some(d) = dst {
            dests[d].occupy();
        }
        if let Some((d, r)) = placed {
            let mut detail = vec![
                ("dest", dests[d].spec.name.clone()),
                ("policy", plan.placement.name().to_string()),
                ("score", format!("{:.3}", r.chosen_score)),
                ("candidates", r.candidates.to_string()),
            ];
            if let (Some(ru), Some(rs)) = (r.runner_up, r.runner_up_score) {
                detail.push(("runner_up", dests[ru].spec.name.clone()));
                detail.push(("runner_up_score", format!("{rs:.3}")));
            }
            let place_id = mission.causal.emit(
                fleet_now.as_nanos(),
                CausalKind::Placement,
                Some(admit_id),
                vm_label,
                detail,
            );
            slot.last_causal = Some(place_id);
        }
        placements.push(VmPlacement {
            source: h,
            slot: idx,
            vm: slot.tenant.name.clone(),
            dest: dst,
            dest_name: dst.map(|d| dests[d].spec.name.clone()),
            chosen_score: placed.map(|(_, r)| r.chosen_score),
            runner_up: placed.and_then(|(_, r)| r.runner_up.map(|ru| dests[ru].spec.name.clone())),
            runner_up_score: placed.and_then(|(_, r)| r.runner_up_score),
        });
        let engine = PrecopyEngine::new(slot.tenant.migration.clone());
        let session = engine.begin(&mut slot.vm, &mut slot.clock, Recorder::new())?;
        let applied = slot.tenant.migration.bandwidth;
        slot.active = Some(Active {
            session,
            flow,
            applied,
        });
        slot.admitted_at = Some(fleet_now);
        host.rec.hist_dur(
            Subsystem::Fleet,
            "queue_wait_ns",
            fleet_now.saturating_since(SimTime::ZERO + spec.warmup),
        );
        // Schedule the new session at its post-begin clock: from here on
        // it owns exactly one heap entry until it completes.
        ready.push(Reverse((
            slot.clock.now(),
            VmId {
                host: h as u32,
                slot: idx as u32,
            },
        )));
    }
    Ok(())
}
