//! The two workloads: their inputs, one timed iteration each, and the
//! simulated outputs an iteration produces.
//!
//! Every input is built from the library crates' public API. A workload is
//! a batch job: one thread, migrations back to back, `scan_workers` at its
//! default of 1.

use std::time::Instant;

use cluster::{evacuate, roster, EvacuationPlan, FleetPolicy, PlacementPolicy};
use javmm::JavaVmConfig;
use migrate::config::MigrationConfig;
use migrate::digest::{DigestMeta, RunDigest};
use migrate::precopy::{PrecopyEngine, SessionStep};
use migrate::report::MigrationReport;
use migrate::ColdAssistConfig;
use simkit::telemetry::causal::CausalKind;
use simkit::telemetry::export::{pipes_prometheus_to_string, prometheus_to_string, PipeSeriesView};
use simkit::units::{Bandwidth, MIB};
use simkit::{Recorder, SimClock, SimDuration, SimTime};
use workloads::cacheapp::CacheAppConfig;
use workloads::catalog;

use crate::guest::{launch_java_vm, Guest, GuestSpec, PartsVm};
use crate::trace::Tracer;

/// Guest tick outside migration (the engine picks its own quantum).
pub const TICK: SimDuration = SimDuration::from_millis(2);

/// Derby warm-up before each migration.
pub const DERBY_WARMUP: SimDuration = SimDuration::from_secs(45);
/// Derby run-on after each migration starts, counted from its start.
pub const DERBY_TAIL: SimDuration = SimDuration::from_secs(45);
/// Cold-rung warm-up, as in the committed cold ladder.
pub const COLD_WARMUP: SimDuration = SimDuration::from_secs(20);
/// The cold rungs' uplink: a quarter-gigabit share of an evacuation trunk.
pub const COLD_UPLINK_MBYTES_PER_SEC: f64 = 32.0;
/// The cold rungs' delta page cache, sized to cover the whole 2 GiB guest.
pub const COLD_DELTA_CACHE_PAGES: usize = 524_288;
/// The two ends of the cold ladder `derby-cold` migrates, with the offset of
/// each rung's seed from the workload seed (the ladder's own numbering).
pub const COLD_RUNGS: [(f64, u64); 2] = [(0.0, 0), (0.8, 4)];

/// Paper Fig. 10: JAVMM's reductions against Xen on derby, in percent, for
/// total migration time, traffic and workload downtime.
pub const PAPER_DERBY_REDUCTION_PCT: [f64; 3] = [82.0, 84.0, 83.0];

/// A workload the benchmark can run.
///
/// The single-VM migrations are one workload rather than two so that each
/// run is long enough to be steady on a shared host: the benchmark's total
/// time is split across its workloads, and on a 2-vCPU host ten 60 s runs
/// spread about half as much as ten 40 s runs interleaved with them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 10's derby pair (JAVMM and its Xen twin), then two cacheapp
    /// guests at the ends of the cold ladder with the cold assist on.
    DerbyCold,
    /// The 48-VM, four-rack evacuation.
    Evacuate48,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 2] = [Workload::DerbyCold, Workload::Evacuate48];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DerbyCold => "derby-cold",
            Workload::Evacuate48 => "evacuate48",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One single-VM migration: the guest, the engine and the procedure.
#[derive(Debug, Clone)]
pub struct MigrationCase {
    /// Digest name, e.g. `derby-assisted-seed3`.
    pub label: String,
    /// Workload label carried into the digest.
    pub workload: &'static str,
    /// The guest to boot.
    pub guest: GuestSpec,
    /// The engine configuration.
    pub config: MigrationConfig,
    /// Guest runtime before the migration starts.
    pub warmup: SimDuration,
    /// Guest runtime from migration start to the end of the run.
    pub tail: SimDuration,
    /// Attach the flight recorder and export its Prometheus text.
    pub recorded: bool,
}

/// One half of the derby pair, as `bench digest` runs it.
pub fn derby_case(
    assisted: bool,
    seed: u64,
    warmup: SimDuration,
    tail: SimDuration,
) -> MigrationCase {
    let mode = if assisted { "assisted" } else { "xen" };
    MigrationCase {
        label: format!("derby-{mode}-seed{seed}"),
        workload: "derby",
        guest: GuestSpec {
            vm: JavaVmConfig::paper(catalog::derby(), assisted, seed),
            cache: None,
        },
        config: if assisted {
            MigrationConfig::javmm_default()
        } else {
            MigrationConfig::xen_default()
        },
        warmup,
        tail,
        recorded: true,
    }
}

/// One rung of the cold ladder: a quiet mpeg JVM plus a 512 MiB cache whose
/// long tail holds `cold_fraction` of it, migrated with defer + delta on.
pub fn cold_case(cold_fraction: f64, seed: u64) -> MigrationCase {
    let mut vm = JavaVmConfig::paper(catalog::mpeg(), true, seed);
    vm.young_max = Some(256 * MIB);
    let cache = CacheAppConfig {
        cache_bytes: 512 * MIB,
        skip_fraction: 0.1,
        write_rate: 30e6,
        ops_per_sec: 10_000.0,
        miss_penalty: 0.3,
        refill_secs: 30.0,
        cold_fraction,
    };
    let mut config = MigrationConfig::javmm_default();
    config.bandwidth = Bandwidth::from_mbytes_per_sec(COLD_UPLINK_MBYTES_PER_SEC);
    config.cold = ColdAssistConfig {
        delta_cache_pages: COLD_DELTA_CACHE_PAGES,
        ..ColdAssistConfig::full()
    };
    MigrationCase {
        label: format!(
            "cold{:02}-seed{seed}",
            (cold_fraction * 100.0).round() as u32
        ),
        workload: "cacheapp",
        guest: GuestSpec {
            vm,
            cache: Some((cache, seed.wrapping_mul(31) + 11)),
        },
        config,
        warmup: COLD_WARMUP,
        tail: SimDuration::ZERO,
        recorded: false,
    }
}

/// The single-VM migrations of `workload` at `seed` (empty for
/// `evacuate48`).
pub fn cases(workload: Workload, seed: u64) -> Vec<MigrationCase> {
    match workload {
        Workload::DerbyCold => [true, false]
            .into_iter()
            .map(|assisted| derby_case(assisted, seed, DERBY_WARMUP, DERBY_TAIL))
            .chain(
                COLD_RUNGS
                    .iter()
                    .map(|&(fraction, offset)| cold_case(fraction, seed + offset)),
            )
            .collect(),
        Workload::Evacuate48 => Vec::new(),
    }
}

/// The evacuate48 plan under SLA-aware placement.
pub fn evacuate48_plan(seed: u64) -> EvacuationPlan {
    EvacuationPlan::new("evacuate48", roster::evacuate48(seed))
        .destinations(roster::evacuate_destinations())
        .core(roster::evacuate_core())
        .placement(PlacementPolicy::SlaAware)
}

/// Admission order for evacuate48: cycle-aware deferral.
pub const EVACUATE_POLICY: FleetPolicy = FleetPolicy::CycleAware;

/// Simulated outputs of one migration. Two runs of the same case must
/// produce equal values, whichever guest and tracing they ran with.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MigrationOut {
    /// Digest name of the case, or the tenant name in a fleet.
    pub label: String,
    /// The engine's error, when the migration did not complete.
    pub error: Option<String>,
    /// Guest clock at migration start.
    pub start_ns: u64,
    /// Guest clock at the end of the run (tail included).
    pub guest_end_ns: u64,
    /// Guest time run outside migration (warm-up and tail).
    pub outside_ns: u64,
    /// Total migration time.
    pub total_ns: u64,
    /// Wire bytes.
    pub bytes: u64,
    /// Wire bytes of the stop-and-copy iteration.
    pub last_iter_bytes: u64,
    /// Pre-copy iterations, stop-and-copy included.
    pub iterations: u64,
    /// Pages sent.
    pub pages_sent: u64,
    /// Pages skipped (already re-dirtied, or cleared in the transfer bitmap).
    pub pages_skipped: u64,
    /// Destination pages whose content matched the source.
    pub matching: u64,
    /// Destination pages that should have matched and did not.
    pub mismatched: u64,
    /// Whether the run fell back to vanilla pre-copy.
    pub degraded: bool,
    /// Downtime parts: safepoint, enforced GC, final update, last iteration,
    /// resume.
    pub downtime_parts_ns: [u64; 5],
    /// Workload-perceived downtime.
    pub downtime_ns: u64,
    /// LKM: first-update pages, shrink events, final-update set pages.
    pub lkm: [u64; 3],
    /// What the cold assist did, when enabled.
    pub cold: Option<migrate::ColdReport>,
    /// Guest pages the JVM wrote over the whole run.
    pub pages_written: u64,
    /// Collections the JVM ran over the whole run.
    pub gcs: u64,
    /// The run digest as `bench digest` writes it.
    pub digest: String,
    /// The Prometheus exposition of the recorder (empty when unrecorded).
    pub prom: String,
}

impl MigrationOut {
    fn from_report(label: &str, report: &MigrationReport) -> Self {
        let d = &report.downtime;
        let lkm = report.lkm.clone().unwrap_or_default();
        Self {
            label: label.to_string(),
            total_ns: report.total_duration.as_nanos(),
            bytes: report.total_bytes,
            last_iter_bytes: report.last_iteration().bytes_sent,
            iterations: u64::from(report.iteration_count()),
            pages_sent: report.pages_sent(),
            pages_skipped: report
                .iterations
                .iter()
                .map(|i| i.pages_skipped_dirty + i.pages_skipped_transfer)
                .sum(),
            matching: report.verification.matching,
            mismatched: report.verification.mismatched,
            degraded: report.outcome.is_degraded(),
            downtime_parts_ns: [
                d.safepoint_wait.as_nanos(),
                d.enforced_gc.as_nanos(),
                d.final_update.as_nanos(),
                d.last_iteration.as_nanos(),
                d.resume.as_nanos(),
            ],
            downtime_ns: d.workload_downtime().as_nanos(),
            lkm: [
                lkm.first_update_pages,
                lkm.shrink_events,
                lkm.final_set_pages,
            ],
            cold: report.cold,
            ..Self::default()
        }
    }

    /// Counts against `failed_frac`: an engine error, a destination
    /// mismatch, or a fall-back to vanilla (no workload plans a fault).
    pub fn failed(&self) -> bool {
        self.error.is_some() || self.mismatched > 0 || self.degraded
    }
}

/// Outputs of one evacuate48 drain beyond its per-VM migrations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetOut {
    /// First drain start to last migration end.
    pub eviction_ns: u64,
    /// Summed workload downtime, from the host digests.
    pub downtime_ns: u64,
    /// Summed wire bytes, from the host digests.
    pub bytes: u64,
    /// Summed SLA cost.
    pub sla_cost: f64,
    /// Migrations that degraded to vanilla pre-copy.
    pub degraded: u64,
    /// Migrations stopped by the iteration cap.
    pub nonconverged: u64,
    /// VMs placed per destination, in pool order.
    pub dest_counts: Vec<(String, u64)>,
    /// VMs that got no destination.
    pub unplaced: u64,
    /// Session wakeups in the causal log.
    pub wakeups: u64,
    /// ETA predictions scored.
    pub eta_predictions: u64,
    /// SLO watchdog findings.
    pub findings: u64,
    /// Median utilization of the core switch over its samples.
    pub core_util_p50: f64,
    /// Every host's fleet digest, concatenated.
    pub digests: String,
    /// The causal log as JSON lines, then the pipe timelines as Prometheus
    /// text.
    pub mission: String,
}

/// One timed iteration of a workload.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Host time of the set-up samples taken for this iteration.
    pub setup_ns: Vec<u64>,
    /// Host time of the timed part.
    pub wall_ns: u64,
    /// Every migration attempted, in run order.
    pub migrations: Vec<MigrationOut>,
    /// Fleet outputs (`evacuate48` only).
    pub fleet: Option<FleetOut>,
    /// Simulated guest-seconds, summing every guest's own clock.
    pub guest_s: f64,
}

impl Sample {
    /// Migrations that failed.
    pub fn failed(&self) -> u64 {
        self.migrations.iter().filter(|m| m.failed()).count() as u64
    }

    /// Summed total migration time, simulated seconds.
    pub fn sim_migration_s(&self) -> f64 {
        self.migrations.iter().map(|m| m.total_ns).sum::<u64>() as f64 / 1e9
    }

    /// First migration start to last migration end, every guest clock
    /// starting at 0.
    pub fn sim_eviction_s(&self) -> f64 {
        if let Some(f) = &self.fleet {
            return f.eviction_ns as f64 / 1e9;
        }
        let start = self.migrations.iter().map(|m| m.start_ns).min();
        let end = self
            .migrations
            .iter()
            .map(|m| m.start_ns + m.total_ns)
            .max();
        match (start, end) {
            (Some(s), Some(e)) => (e - s) as f64 / 1e9,
            _ => 0.0,
        }
    }

    /// Summed wire bytes, in GB.
    pub fn sim_wire_gb(&self) -> f64 {
        self.migrations.iter().map(|m| m.bytes).sum::<u64>() as f64 / 1e9
    }

    /// Summed workload downtime, simulated seconds.
    pub fn sim_downtime_s(&self) -> f64 {
        self.migrations.iter().map(|m| m.downtime_ns).sum::<u64>() as f64 / 1e9
    }

    /// Mean absolute gap, in percentage points, between the derby pair's
    /// JAVMM-vs-Xen reductions and the paper's. `None` without a pair.
    pub fn paper_err_pp(&self) -> Option<f64> {
        let javmm = self
            .migrations
            .iter()
            .find(|m| m.label.starts_with("derby-assisted"))?;
        let xen = self
            .migrations
            .iter()
            .find(|m| m.label.starts_with("derby-xen"))?;
        let reduction = |j: u64, x: u64| 100.0 * (1.0 - j as f64 / x as f64);
        let got = [
            reduction(javmm.total_ns, xen.total_ns),
            reduction(javmm.bytes, xen.bytes),
            reduction(javmm.downtime_ns, xen.downtime_ns),
        ];
        Some(
            got.iter()
                .zip(PAPER_DERBY_REDUCTION_PCT)
                .map(|(g, p)| (g - p).abs())
                .sum::<f64>()
                / 3.0,
        )
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Moves the guest's per-quantum layer time into the innermost open span.
fn charge<G: Guest>(vm: &mut G, t: &mut Tracer) {
    for (name, ns) in vm.take_layer_ns().named() {
        if ns > 0 {
            t.add(name, ns);
        }
    }
}

fn run_guest<G: Guest>(vm: &mut G, clock: &mut SimClock, total: SimDuration, t: &mut Tracer) {
    if total.is_zero() {
        return;
    }
    let span = t.enter("core.run");
    vm.run_for(clock, total, TICK);
    charge(vm, t);
    t.exit(span);
}

/// Warms `vm` up, migrates it, runs it on and folds the report into its
/// digest: `run_scenario_recorded` followed by `bench digest`'s fold,
/// driven one engine step at a time so each step can be timed.
pub fn run_case<G: Guest>(vm: &mut G, case: &MigrationCase, t: &mut Tracer) -> MigrationOut {
    let mut clock = SimClock::new();
    run_guest(vm, &mut clock, case.warmup, t);
    let start = clock.now();
    let recorder = if case.recorded {
        Recorder::new()
    } else {
        Recorder::disabled()
    };
    let span = t.enter("migrate.begin");
    let begun = PrecopyEngine::new(case.config.clone()).begin(vm, &mut clock, recorder);
    charge(vm, t);
    t.exit(span);
    let result = begun.and_then(|mut session| loop {
        let span = t.enter("migrate.step");
        let step = session.step(vm, &mut clock);
        charge(vm, t);
        t.exit(span);
        match step {
            Ok(SessionStep::Yielded) => {}
            Ok(SessionStep::Complete(report)) => break Ok(*report),
            Err(e) => break Err(e),
        }
    });
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            return MigrationOut {
                label: case.label.clone(),
                error: Some(e.to_string()),
                start_ns: start.as_nanos(),
                ..MigrationOut::default()
            }
        }
    };
    let migrated_until = clock.now();
    let remaining =
        (case.warmup + case.tail).saturating_sub(clock.now().saturating_since(SimTime::ZERO));
    run_guest(vm, &mut clock, remaining, t);
    vm.finish_analyzer(clock.now());

    let mut out = MigrationOut::from_report(&case.label, &report);
    out.start_ns = start.as_nanos();
    out.guest_end_ns = clock.now().as_nanos();
    out.outside_ns = out.guest_end_ns - migrated_until.saturating_since(start).as_nanos();
    let stats = vm.jvm().stats();
    out.pages_written = stats.pages_written;
    out.gcs = vm.jvm().heap().gc_log().records().len() as u64;

    let span = t.enter("migrate.digest");
    let meta = DigestMeta {
        name: case.label.clone(),
        workload: case.workload.to_string(),
        assisted: case.config.assisted,
        seed: case.guest.vm.seed,
    };
    out.digest = RunDigest::from_report(meta, &report).to_json();
    t.exit(span);
    if case.recorded {
        let span = t.enter("simkit.prom_export");
        out.prom = prometheus_to_string(&report.telemetry);
        t.exit(span);
    }
    out
}

/// Which guest a single-VM iteration boots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestKind {
    /// `javmm::JavaVm`, the program as shipped.
    Shipped,
    /// [`PartsVm`], assembled from parts and timed per layer.
    Parts,
}

/// Runs the migrations of `cases` back to back: boots every guest (the
/// set-up), then times warm-up, migration, run-on and digest of each.
pub fn run_cases(cases: &[MigrationCase], kind: GuestKind, t: &mut Tracer) -> Sample {
    match kind {
        GuestKind::Shipped => run_booted(cases, launch_java_vm, t),
        GuestKind::Parts => run_booted(cases, PartsVm::launch, t),
    }
}

fn run_booted<G: Guest>(
    cases: &[MigrationCase],
    boot: fn(&GuestSpec) -> G,
    t: &mut Tracer,
) -> Sample {
    let setup = Instant::now();
    let mut guests: Vec<G> = cases.iter().map(|c| boot(&c.guest)).collect();
    let setup_ns = elapsed_ns(setup);

    let root = t.enter("bench.run");
    let timed = Instant::now();
    let migrations: Vec<MigrationOut> = cases
        .iter()
        .zip(guests.iter_mut())
        .map(|(case, vm)| run_case(vm, case, t))
        .collect();
    let wall_ns = elapsed_ns(timed);
    t.exit(root);
    drop(guests);

    let guest_s = migrations.iter().map(|m| m.guest_end_ns).sum::<u64>() as f64 / 1e9;
    Sample {
        setup_ns: vec![setup_ns],
        wall_ns,
        migrations,
        fleet: None,
        guest_s,
    }
}

/// Plan builds timed per evacuate48 iteration: building the plan takes
/// microseconds, so one sample alone would be mostly timer noise.
pub const PLAN_BUILDS: usize = 32;

/// One evacuate48 drain: plan construction (the set-up), then the drain,
/// the host digests and the mission-control export.
pub fn run_evacuate48(seed: u64, t: &mut Tracer) -> Sample {
    let mut setup_ns = Vec::with_capacity(PLAN_BUILDS);
    let mut plans = Vec::with_capacity(PLAN_BUILDS);
    for _ in 0..PLAN_BUILDS {
        let start = Instant::now();
        plans.push(std::hint::black_box(evacuate48_plan(seed)));
        setup_ns.push(elapsed_ns(start));
    }
    let plan = plans.pop().expect("PLAN_BUILDS is not zero");
    drop(plans);

    let root = t.enter("bench.run");
    let timed = Instant::now();
    let span = t.enter("cluster.evacuate");
    let result = evacuate(&plan, EVACUATE_POLICY);
    t.exit(span);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            let wall_ns = elapsed_ns(timed);
            t.exit(root);
            let migrations = (0..plan.population())
                .map(|_| MigrationOut {
                    error: Some(e.to_string()),
                    ..MigrationOut::default()
                })
                .collect();
            return Sample {
                setup_ns,
                wall_ns,
                migrations,
                ..Sample::default()
            };
        }
    };
    let span = t.enter("cluster.fleet_digest");
    let digests: String = out.hosts.iter().map(|h| h.to_json()).collect();
    t.exit(span);
    let span = t.enter("cluster.mission_export");
    let causal = simkit::telemetry::causal::jsonl_to_string(&out.mission.causal);
    let views: Vec<PipeSeriesView<'_>> = out
        .mission
        .pipes
        .pipes()
        .iter()
        .map(|p| PipeSeriesView {
            name: &p.name,
            utilization: &p.utilization,
            queued_demand: &p.queued_demand,
        })
        .collect();
    let mission = causal + &pipes_prometheus_to_string(&views);
    t.exit(span);
    let wall_ns = elapsed_ns(timed);
    t.exit(root);

    let migrations: Vec<MigrationOut> = out
        .reports
        .iter()
        .zip(&plan.sources)
        .flat_map(|(reports, host)| {
            reports
                .iter()
                .zip(&host.tenants)
                .map(|(r, tenant)| MigrationOut::from_report(&tenant.name, r))
        })
        .collect();
    let guest_s = out
        .hosts
        .iter()
        .zip(&plan.sources)
        .map(|(h, spec)| {
            h.vms
                .iter()
                .map(|v| {
                    (spec.warmup.as_nanos() + v.ended_at_ns + spec.tail.as_nanos()) as f64 / 1e9
                })
                .sum::<f64>()
        })
        .sum();
    let mut dest_counts: Vec<(String, u64)> = plan
        .destinations
        .iter()
        .map(|d| (d.name.clone(), 0))
        .collect();
    let mut unplaced = 0;
    for p in &out.placements {
        match p.dest {
            Some(d) => dest_counts[d].1 += 1,
            None => unplaced += 1,
        }
    }
    let core_name = plan.core.as_ref().map(|c| c.name.clone());
    let core_util_p50 = out
        .mission
        .pipes
        .pipes()
        .iter()
        .find(|p| Some(&p.name) == core_name.as_ref())
        .filter(|p| !p.utilization.is_empty())
        .map_or(0.0, |p| p.utilization.quantile(0.5));
    let fleet = FleetOut {
        eviction_ns: out.eviction_ns,
        downtime_ns: out.hosts.iter().map(|h| h.aggregate_downtime_ns).sum(),
        bytes: out.hosts.iter().map(|h| h.total_bytes).sum(),
        sla_cost: out.sla_total.total(),
        degraded: out.hosts.iter().map(|h| u64::from(h.degraded)).sum(),
        nonconverged: out.hosts.iter().map(|h| u64::from(h.nonconverged)).sum(),
        dest_counts,
        unplaced,
        wakeups: out
            .mission
            .causal
            .events()
            .iter()
            .filter(|e| e.kind == CausalKind::Wakeup)
            .count() as u64,
        eta_predictions: out.mission.eta.predictions,
        findings: out.mission.findings.len() as u64,
        core_util_p50,
        digests,
        mission,
    };
    Sample {
        setup_ns,
        wall_ns,
        migrations,
        fleet: Some(fleet),
        guest_s,
    }
}

/// Runs one timed iteration of `workload`.
pub fn run_iteration(workload: Workload, seed: u64, kind: GuestKind, t: &mut Tracer) -> Sample {
    match workload {
        Workload::Evacuate48 => run_evacuate48(seed, t),
        _ => run_cases(&cases(workload, seed), kind, t),
    }
}
