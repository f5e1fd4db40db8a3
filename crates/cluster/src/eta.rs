//! Mission control for an evacuation: the drain's read-only observer,
//! online ETA prediction and calibration, and the fleet SLO watchdog.
//!
//! The drain hands the crate's `Mission` shared references at three
//! per-VM moments — `admit`, `wakeup` and `complete` — plus `fault` when
//! its own pipe-fault schedule re-rates a pipe. No `Mission` method takes
//! a mutable topology, session or VM, so observation cannot steer the
//! drain; [`MissionControl`] is what it leaves behind. At every wakeup it
//! answers *when will each VM land?* and *is anything quietly going wrong?*
//!
//! [`EtaTracker`] answers the first question. At each wakeup the mission
//! projects the VM's completion time from its remaining transfer set, its
//! just-granted bandwidth share and the observatory's dirty-rate model
//! ([`project_eta_cycle_secs`]). Every projection is recorded; when the VM
//! completes, each one is scored against the actual completion instant and
//! the signed/absolute relative errors fold into a histogram. The tracker
//! also *calibrates online*: terminal costs the projection cannot see
//! (safepoint drain, the enforced GC, device resume) show up as a stable
//! signed bias on each VM's final projection, so an EWMA of that bias is
//! learned from completed migrations and folded into subsequent
//! projections. The digest surfaces p50/p90 absolute relative error and
//! the mean signed drift — the CI gate watches `eta.p90_abs_err`.
//!
//! [`Watchdog`] answers the second with three deterministic rules over the
//! same wakeup stream and the per-pipe timelines:
//!
//! * **`vm_stall`** — a VM's wire-byte counter made no progress across
//!   [`STALL_WAKEUPS`] consecutive wakeups;
//! * **`nonconvergence`** — the modelled dirty rate met or outran the
//!   granted share for [`NONCONVERGENCE_WAKEUPS`] consecutive wakeups
//!   (pre-copy is treading water long before the iteration cap trips);
//! * **`pipe_saturation`** — a topology pipe's subscribed minimum-rate
//!   demand exceeds its *current* capacity. Admission control guarantees
//!   demand fits at admission time, so this can only fire after a mid-run
//!   re-rate (a degraded core or WAN) — a fault-free drain yields zero
//!   findings by construction.
//!
//! Each finding is typed, fires at most once per subject, and carries the
//! [`CausalId`] of the wakeup that observed it, so a finding in the digest
//! links straight into the causal flow trace.
//!
//! The tracker and the watchdog are pure arithmetic over values the
//! mission computes in deterministic order: same plan, same findings, same
//! histogram bytes.

use std::collections::BTreeMap;

use crate::detect::{WorkloadEstimate, CONFIDENCE_GATE};
use crate::evac::{EvacuationPlan, PipeFault, VmId};
use crate::place::PlacementRationale;
use javmm::vm::JavaVm;
use migrate::precopy::MigrationSession;
use migrate::report::MigrationReport;
use netsim::{PipeTimelines, Topology, PAGE_HEADER_BYTES};
use simkit::telemetry::{CausalId, CausalKind, CausalLog, Histogram, SampleSeries};
use simkit::units::Bandwidth;
use simkit::SimTime;
use vmem::PAGE_SIZE;

/// Wire bytes one guest page costs (payload plus per-page header).
pub const WIRE_PAGE_BYTES: f64 = (PAGE_SIZE + PAGE_HEADER_BYTES) as f64;

/// Absolute relative errors are clamped here before folding, so one
/// pathological projection cannot dominate the histogram sum.
pub const ABS_ERR_CAP: f64 = 10.0;

/// EWMA weight of each newly observed terminal bias sample.
pub const BIAS_ALPHA: f64 = 0.2;

/// Where each cohort's terminal-bias EWMA starts (nanoseconds). The
/// structural epilogue costs (resume pause, final-set transfer) are
/// charged by the caller; what remains is workload-dependent — the
/// enforced-GC readiness wait and the stop-copy set formed during the
/// final iteration — worth a few tens of milliseconds. Seeding the EWMA
/// there keeps a cohort's first completion wave honest; afterwards the
/// calibration tracks that cohort's measured residuals.
pub const TERMINAL_COST_PRIOR_NS: f64 = 50e6;

/// The learned terminal bias is clamped to this magnitude (nanoseconds).
/// It exists to absorb sub-second terminal costs the projection cannot see
/// (safepoint drain, the enforced GC, device resume); anything larger is
/// model error on one VM's final wakeup and must not leak into every other
/// VM's projections.
pub const BIAS_CLAMP_NS: f64 = 500e6;

/// Consecutive no-progress wakeups before `vm_stall` fires.
pub const STALL_WAKEUPS: u32 = 6;

/// Consecutive dirty-rate-outruns-share wakeups before `nonconvergence`
/// fires.
pub const NONCONVERGENCE_WAKEUPS: u32 = 3;

/// Effective fraction of the raw dirty rate that survives to the wire
/// before the first iteration has measured the real ratio. Transfer-bitmap
/// consultation and re-dirty coalescing shrink the re-send stream to a
/// small fraction of raw dirtying across the roster's workloads; an
/// admission-time projection that charges the full raw rate runs 2-3x
/// late, so the prior stands in until a measurement exists.
pub const ADMISSION_SHRINK_PRIOR: f64 = 0.15;

/// Rounds the diverging-regime projection charges at most. A session whose
/// share never outruns its dirty rate re-ships a near-constant re-dirty
/// set each round, but cyclic workloads routinely *look* diverging during
/// a peak and then converge in the next trough — charging every remaining
/// iteration would push those projections hours late, so the charge is
/// bounded.
pub const DIVERGENT_ROUNDS_CAP: u32 = 4;

/// Relative errors fold into the histogram in basis points (1e-4).
const BP: f64 = 10_000.0;

/// Seconds until a migration finishes, projected from its current state.
///
/// While the granted share `bandwidth_bps` outruns the modelled dirty rate
/// `dirty_bps`, pre-copy converges geometrically and the remaining work
/// drains in `remaining / (b - d)` seconds — the classic pre-copy bound.
/// When the share does not outrun the dirty rate, iterations stop
/// shrinking and the projection charges one full `remaining / b` round
/// per remaining iteration, bounded by [`DIVERGENT_ROUNDS_CAP`].
pub fn project_eta_secs(
    remaining_bytes: f64,
    bandwidth_bps: f64,
    dirty_bps: f64,
    iters_left: u32,
) -> f64 {
    if bandwidth_bps <= 0.0 {
        return f64::INFINITY;
    }
    if bandwidth_bps > dirty_bps {
        remaining_bytes / (bandwidth_bps - dirty_bps)
    } else {
        (remaining_bytes / bandwidth_bps) * f64::from(iters_left.clamp(1, DIVERGENT_ROUNDS_CAP))
    }
}

/// Cycle-aware ETA: [`project_eta_secs`] informed by the observatory.
///
/// `mean_dirty_bps` is the sensed cycle-average dirty rate; when a
/// confident [`WorkloadEstimate`] is supplied, the instantaneous rate is
/// the mean modulated by the cycle's ratio at the projection instant. If
/// the share does not outrun that instantaneous rate — the VM is inside a
/// dirty peak — the projection does what the cycle-aware scheduler does:
/// wait out the peak. It charges the time until the next below-average
/// window and drains the remaining set against the trough rate there.
/// Only when even the trough outruns the share does it fall back to the
/// bounded diverging charge.
pub fn project_eta_cycle_secs(
    remaining_bytes: f64,
    bandwidth_bps: f64,
    mean_dirty_bps: f64,
    est: Option<&WorkloadEstimate>,
    at_ns: u64,
    iters_left: u32,
) -> f64 {
    if bandwidth_bps <= 0.0 {
        return f64::INFINITY;
    }
    let dirty_now = est.map_or(mean_dirty_bps, |e| mean_dirty_bps * e.rate_ratio_at(at_ns));
    if bandwidth_bps > dirty_now {
        let eta = remaining_bytes / (bandwidth_bps - dirty_now);
        // A drain spanning a full cycle sees peaks and troughs average
        // out: charge the cycle-mean rate instead of freezing the
        // instant's ratio over the whole horizon.
        if let Some(e) = est {
            if eta * 1e9 >= e.period_ns as f64 && bandwidth_bps > mean_dirty_bps {
                return remaining_bytes / (bandwidth_bps - mean_dirty_bps);
            }
        }
        return eta;
    }
    if let Some(e) = est {
        let wait_ns = e.ns_until_low_window(at_ns);
        let trough = mean_dirty_bps * e.rate_ratio_at(at_ns + wait_ns);
        // Demand real headroom in the trough: a denominator within 25% of
        // zero turns a small rate-model error into an hours-late ETA, at
        // which point the bounded diverging charge is the safer claim.
        if wait_ns > 0 && bandwidth_bps > 1.25 * trough {
            return wait_ns as f64 / 1e9 + remaining_bytes / (bandwidth_bps - trough);
        }
    }
    project_eta_secs(remaining_bytes, bandwidth_bps, dirty_now, iters_left)
}

/// One recorded projection: made at `at_ns`, claiming completion at
/// `predicted_end_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EtaPrediction {
    /// Wakeup instant the projection was made at.
    pub at_ns: u64,
    /// Projected completion instant (bias-calibrated).
    pub predicted_end_ns: u64,
}

#[derive(Debug)]
struct VmEta {
    cohort: usize,
    predictions: Vec<EtaPrediction>,
    completed_ns: Option<u64>,
}

/// Per-workload-cohort calibration state. Terminal residuals are
/// workload-shaped (a heap-heavy tenant's enforced GC runs longer than an
/// idle one's), so each cohort learns its own bias instead of sharing one
/// fleet-wide EWMA that whichever cohort completes last would poison.
#[derive(Debug)]
struct Cohort {
    name: String,
    bias_ns: f64,
}

/// Digest-ready calibration summary of one drain's ETA projections.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EtaSummary {
    /// VMs whose completion was scored.
    pub vms: u64,
    /// Projections folded into the error histograms.
    pub predictions: u64,
    /// Median absolute relative error, `|predicted - actual| / horizon`.
    pub p50_abs_err: f64,
    /// 90th-percentile absolute relative error — the CI-gated number.
    pub p90_abs_err: f64,
    /// Mean *signed* relative error: positive means projections run late
    /// (past the actual landing), negative means they run early.
    pub drift: f64,
}

/// Records per-VM completion projections and scores them at completion.
#[derive(Debug)]
pub struct EtaTracker {
    frozen: bool,
    vms: Vec<VmEta>,
    cohorts: Vec<Cohort>,
    abs_err_bp: Histogram,
    signed_sum: f64,
    signed_n: u64,
    calibrated: u64,
}

impl EtaTracker {
    /// A fresh tracker. `frozen` is the CI drill switch: the tracker
    /// never re-projects — every wakeup re-serves (and re-scores) each
    /// VM's admission-time ETA verbatim, so the stale estimate's error
    /// over an ever-shrinking horizon explodes and the digest gate must
    /// trip on `eta.p90_abs_err`.
    pub fn new(frozen: bool) -> Self {
        Self {
            frozen,
            vms: Vec::new(),
            cohorts: Vec::new(),
            abs_err_bp: Histogram::new(),
            signed_sum: 0.0,
            signed_n: 0,
            calibrated: 0,
        }
    }

    /// Registers a VM under a calibration cohort (typically its workload
    /// profile name) and returns its tracker index. VMs in the same cohort
    /// share one terminal-bias EWMA, seeded at [`TERMINAL_COST_PRIOR_NS`].
    pub fn admit(&mut self, cohort: &str) -> usize {
        let cohort = match self.cohorts.iter().position(|c| c.name == cohort) {
            Some(i) => i,
            None => {
                self.cohorts.push(Cohort {
                    name: cohort.to_string(),
                    bias_ns: TERMINAL_COST_PRIOR_NS,
                });
                self.cohorts.len() - 1
            }
        };
        self.vms.push(VmEta {
            cohort,
            predictions: Vec::new(),
            completed_ns: None,
        });
        self.vms.len() - 1
    }

    /// Records a projection computed by the caller (e.g. the cycle-aware
    /// [`project_eta_cycle_secs`]): folds in the VM's cohort terminal bias,
    /// stores the prediction and returns the predicted completion instant.
    /// On a frozen tracker the fresh projection is discarded and the VM's
    /// admission-time ETA is re-served — and re-recorded at `at_ns`, so
    /// every stale serving is scored against the actual landing just like
    /// a live one.
    pub fn record(&mut self, vm: usize, at_ns: u64, eta_secs: f64) -> u64 {
        if self.frozen {
            if let Some(first) = self.vms[vm].predictions.first().copied() {
                self.vms[vm].predictions.push(EtaPrediction {
                    at_ns,
                    predicted_end_ns: first.predicted_end_ns,
                });
                return first.predicted_end_ns;
            }
        }
        let bias_ns = self.cohorts[self.vms[vm].cohort].bias_ns;
        let raw = at_ns as f64 + eta_secs * 1e9;
        let predicted_end_ns = (raw + bias_ns).max(at_ns as f64).min(u64::MAX as f64) as u64;
        self.vms[vm].predictions.push(EtaPrediction {
            at_ns,
            predicted_end_ns,
        });
        predicted_end_ns
    }

    /// Scores every projection of VM `vm` against its actual completion
    /// instant and folds the VM's terminal bias into the calibration EWMA.
    pub fn complete(&mut self, vm: usize, actual_end_ns: u64) {
        let slot = &mut self.vms[vm];
        if slot.completed_ns.is_some() {
            return;
        }
        slot.completed_ns = Some(actual_end_ns);
        for p in &slot.predictions {
            let horizon = actual_end_ns.saturating_sub(p.at_ns);
            if horizon == 0 {
                continue;
            }
            let signed = (p.predicted_end_ns as f64 - actual_end_ns as f64) / horizon as f64;
            let signed = signed.clamp(-ABS_ERR_CAP, ABS_ERR_CAP);
            self.abs_err_bp.record((signed.abs() * BP).round() as u64);
            self.signed_sum += signed;
            self.signed_n += 1;
        }
        if let Some(last) = slot.predictions.last() {
            // The last projection already carried the cohort's current
            // bias, so its residual is the *correction* the bias still
            // needs — fold a fraction of it on top.
            let residual = actual_end_ns as f64 - last.predicted_end_ns as f64;
            let cohort = &mut self.cohorts[slot.cohort];
            cohort.bias_ns =
                (cohort.bias_ns + BIAS_ALPHA * residual).clamp(-BIAS_CLAMP_NS, BIAS_CLAMP_NS);
            self.calibrated += 1;
        }
    }

    /// VMs folded into the calibration EWMA so far.
    pub fn calibrated(&self) -> u64 {
        self.calibrated
    }

    /// The digest-ready summary over everything scored so far.
    pub fn summary(&self) -> EtaSummary {
        let (p50, p90) = if self.abs_err_bp.count() == 0 {
            (0.0, 0.0)
        } else {
            (
                self.abs_err_bp.quantile(0.5) as f64 / BP,
                self.abs_err_bp.quantile(0.9) as f64 / BP,
            )
        };
        EtaSummary {
            vms: self.vms.iter().filter(|v| v.completed_ns.is_some()).count() as u64,
            predictions: self.signed_n,
            p50_abs_err: p50,
            p90_abs_err: p90,
            drift: if self.signed_n == 0 {
                0.0
            } else {
                self.signed_sum / self.signed_n as f64
            },
        }
    }
}

/// One typed SLO violation, linked into the causal flow trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogFinding {
    /// Rule identifier: `vm_stall`, `nonconvergence` or `pipe_saturation`.
    pub rule: &'static str,
    /// The VM or pipe the rule fired on.
    pub subject: String,
    /// Simulated instant the rule fired.
    pub at_ns: u64,
    /// The causal event (a wakeup) whose observation triggered the rule.
    pub causal: CausalId,
    /// Human-readable evidence, deterministic formatting.
    pub detail: String,
}

#[derive(Debug, Default)]
struct VmWatch {
    last_wire: u64,
    stalled: u32,
    diverging: u32,
    stall_flagged: bool,
    diverge_flagged: bool,
}

/// Deterministic SLO rule evaluation over the wakeup stream and pipe
/// timelines. Every rule fires at most once per subject.
#[derive(Debug, Default)]
pub struct Watchdog {
    findings: Vec<WatchdogFinding>,
    vms: Vec<VmWatch>,
    flagged_pipes: Vec<String>,
}

impl Watchdog {
    /// A watchdog with no observations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a VM and returns its watch index.
    pub fn admit(&mut self) -> usize {
        self.vms.push(VmWatch::default());
        self.vms.len() - 1
    }

    /// Feeds one wakeup observation for VM `vm`, named `subject` in any
    /// finding; `causal` is the wakeup's causal event id,
    /// `iters_left`/`max_iters` the session's remaining and total iteration
    /// budget. Returns the number of findings appended.
    #[allow(clippy::too_many_arguments)]
    pub fn observe_vm(
        &mut self,
        vm: usize,
        subject: &str,
        at_ns: u64,
        causal: CausalId,
        wire_bytes: u64,
        dirty_bps: f64,
        bandwidth_bps: f64,
        iterations: usize,
        iters_left: u32,
        max_iters: u32,
    ) -> usize {
        let before = self.findings.len();
        let w = &mut self.vms[vm];
        // Stall: the wire counter froze. Only meaningful once the session
        // has moved bytes at least once.
        if iterations > 0 && wire_bytes == w.last_wire {
            w.stalled += 1;
        } else {
            w.stalled = 0;
        }
        w.last_wire = wire_bytes;
        if w.stalled >= STALL_WAKEUPS && !w.stall_flagged {
            w.stall_flagged = true;
            self.findings.push(WatchdogFinding {
                rule: "vm_stall",
                subject: subject.to_string(),
                at_ns,
                causal,
                detail: format!(
                    "no wire progress across {} wakeups at {} bytes",
                    STALL_WAKEUPS, wire_bytes
                ),
            });
        }
        // Non-convergence early warning: the modelled dirty rate has met
        // or outrun the granted share for several consecutive wakeups
        // *and* the session has burned most of its iteration budget.
        // Cyclic workloads legitimately outrun their share during peaks
        // and converge in the next trough, well inside the budget — only
        // a session still outrun with >= 3/4 of its iterations spent is
        // genuinely headed for the cap.
        let w = &mut self.vms[vm];
        let budget_thin = max_iters > 0 && iters_left.saturating_mul(4) <= max_iters;
        if iterations >= 2 && budget_thin && dirty_bps >= bandwidth_bps && bandwidth_bps > 0.0 {
            w.diverging += 1;
        } else {
            w.diverging = 0;
        }
        if w.diverging >= NONCONVERGENCE_WAKEUPS && !w.diverge_flagged {
            w.diverge_flagged = true;
            self.findings.push(WatchdogFinding {
                rule: "nonconvergence",
                subject: subject.to_string(),
                at_ns,
                causal,
                detail: format!(
                    "dirty rate {:.0} B/s >= granted {:.0} B/s for {} wakeups",
                    dirty_bps, bandwidth_bps, NONCONVERGENCE_WAKEUPS
                ),
            });
        }
        self.findings.len() - before
    }

    /// Evaluates the pipe-saturation rule over freshly sampled timelines;
    /// `causal` is the wakeup whose sampling pass observed them. Returns
    /// the number of findings appended.
    pub fn observe_pipes(&mut self, at_ns: u64, causal: CausalId, pipes: &PipeTimelines) -> usize {
        let before = self.findings.len();
        for pipe in pipes.pipes() {
            let Some(demand) = pipe.queued_demand.last() else {
                continue;
            };
            let capacity = pipe.last_capacity_bps;
            if capacity > 0.0 && demand > capacity && !self.flagged_pipes.contains(&pipe.name) {
                self.flagged_pipes.push(pipe.name.clone());
                self.findings.push(WatchdogFinding {
                    rule: "pipe_saturation",
                    subject: pipe.name.clone(),
                    at_ns,
                    causal,
                    detail: format!(
                        "subscribed min-rate demand {:.0} B/s exceeds capacity {:.0} B/s",
                        demand, capacity
                    ),
                });
            }
        }
        self.findings.len() - before
    }

    /// Findings recorded so far, in firing order.
    pub fn findings(&self) -> &[WatchdogFinding] {
        &self.findings
    }

    /// Consumes the watchdog, yielding its findings.
    pub fn into_findings(self) -> Vec<WatchdogFinding> {
        self.findings
    }
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

/// Ring capacity of each pipe timeline: enough to retain a whole 48-VM
/// evacuation's wakeup-driven samples.
const PIPE_SERIES_CAP: usize = 4096;

/// One admitted VM's mission record, from admission to completion.
struct VmMission {
    /// Index into the ETA tracker and the watchdog.
    index: usize,
    /// `host/tenant`: the subject of the VM's causal events and findings.
    name: String,
    /// The observatory estimate frozen at admission, kept only when it
    /// cleared the confidence gate: the projection's dirty-rate model.
    estimate: Option<WorkloadEstimate>,
    /// The VM's newest causal event, parent of whatever happens next.
    last: CausalId,
}

/// The drain's read-only observer. It reads the plan, the topology and
/// each VM's session, guest and dirty-rate sensor through shared
/// references, and writes only its own state: the causal log, the pipe
/// timelines, the ETA tracker and the watchdog. Nothing it computes feeds
/// back into scheduling, re-rating or the digests, which is what keeps the
/// committed digest baselines byte-identical.
pub(crate) struct Mission<'a> {
    plan: &'a EvacuationPlan,
    causal: CausalLog,
    pipes: PipeTimelines,
    eta: EtaTracker,
    watchdog: Watchdog,
    /// Instant of the newest pipe sample; `None` before the first wakeup.
    last_sample_at: Option<SimTime>,
    /// Per-host drain-root causal events, parents of every admission.
    host_roots: Vec<CausalId>,
    vms: BTreeMap<VmId, VmMission>,
}

impl<'a> Mission<'a> {
    /// Starts observing `plan` over `topo`, rooting each source host's
    /// causal chain at its drain-begin instant (`drain_starts`, in plan
    /// order).
    pub(crate) fn new(
        plan: &'a EvacuationPlan,
        topo: &Topology,
        drain_starts: impl IntoIterator<Item = SimTime>,
    ) -> Self {
        let mut causal = CausalLog::new();
        let host_roots = plan
            .sources
            .iter()
            .zip(drain_starts)
            .map(|(host, at)| {
                causal.emit(
                    at.as_nanos(),
                    CausalKind::Drain,
                    None,
                    host.name.clone(),
                    vec![("tenants", host.tenants.len().to_string())],
                )
            })
            .collect();
        Self {
            plan,
            causal,
            pipes: PipeTimelines::for_topology(topo, PIPE_SERIES_CAP),
            eta: EtaTracker::new(plan.freeze_eta),
            watchdog: Watchdog::new(),
            last_sample_at: None,
            host_roots,
            vms: BTreeMap::new(),
        }
    }

    /// Records VM `id`'s admission at `at`: its working set, the
    /// observatory's `estimate` at that instant, and — when a destination
    /// was chosen — the placement rationale, scored when the pick was made.
    pub(crate) fn admit(
        &mut self,
        id: VmId,
        at: SimTime,
        ws_bytes: u64,
        estimate: Option<WorkloadEstimate>,
        placed: Option<(usize, PlacementRationale)>,
    ) {
        let host = &self.plan.sources[id.host as usize];
        let tenant = &host.tenants[id.slot as usize];
        let name = format!("{}/{}", host.name, tenant.name);
        let index = self.eta.admit(tenant.vm.workload.name);
        self.watchdog.admit();
        let min_rate = tenant.min_rate.bytes_per_sec();
        let confidence = estimate.as_ref().map_or(0.0, |e| e.confidence);
        let mut last = self.causal.emit(
            at.as_nanos(),
            CausalKind::Admit,
            Some(self.host_roots[id.host as usize]),
            name.clone(),
            vec![
                ("ws_bytes", ws_bytes.to_string()),
                ("min_rate_bps", format!("{min_rate:.0}")),
                ("detect_confidence", format!("{confidence:.3}")),
            ],
        );
        if let Some((d, r)) = placed {
            let dests = &self.plan.destinations;
            let mut detail = vec![
                ("dest", dests[d].name.clone()),
                ("policy", self.plan.placement.name().to_string()),
                ("score", format!("{:.3}", r.chosen_score)),
                ("candidates", r.candidates.to_string()),
            ];
            if let (Some(ru), Some(rs)) = (r.runner_up, r.runner_up_score) {
                detail.push(("runner_up", dests[ru].name.clone()));
                detail.push(("runner_up_score", format!("{rs:.3}")));
            }
            last = self.causal.emit(
                at.as_nanos(),
                CausalKind::Placement,
                Some(last),
                name.clone(),
                detail,
            );
        }
        let estimate = estimate.filter(|e| e.confidence >= CONFIDENCE_GATE);
        self.vms.insert(
            id,
            VmMission {
                index,
                name,
                estimate,
                last,
            },
        );
    }

    /// Observes VM `id`'s wakeup at `at`, just before its session steps:
    /// projects and records its landing, runs the per-VM watchdog rules,
    /// notes a re-grant when the flow's share `granted` differs from the
    /// rate last `applied` to the session, and samples every pipe of
    /// `topo` over the window since the previous wakeup.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn wakeup(
        &mut self,
        id: VmId,
        at: SimTime,
        topo: &Topology,
        session: &MigrationSession,
        vm: &JavaVm,
        sensor: &SampleSeries,
        granted: Bandwidth,
        applied: Bandwidth,
    ) {
        let tenant = &self.plan.sources[id.host as usize].tenants[id.slot as usize];
        let rec = self.vms.get_mut(&id).expect("a waking VM was admitted");
        let at_ns = at.as_nanos();
        let iters = session.iterations();
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
            _ => ADMISSION_SHRINK_PRIOR,
        };
        // The session's own pending set (the dirty snapshot intersected
        // with the transfer bitmap) is the exact next transfer set — no
        // estimate needed. Before the first iteration that set is the
        // whole address space minus whatever the daemon has already
        // marked skippable.
        let remaining_bytes = session.pending_transferable_pages(vm) as f64 * wire_per_page;
        let est = rec.estimate.as_ref();
        // The mean rate the projection modulates: the observatory mean
        // when a confident cycle estimate exists (the projection applies
        // the cycle's ratio itself), else the freshest per-iteration rate
        // — the long-run sensor mean still remembers the first
        // iteration's cold-start dirtying and runs hot for workloads that
        // have settled.
        let mean_pps = match iters.last() {
            Some(last) if est.is_none() && !last.duration.is_zero() => {
                last.pages_dirtied_during as f64 / last.duration.as_secs_f64()
            }
            _ => sensor.mean(),
        };
        let dirty_bps =
            est.map_or(mean_pps, |e| mean_pps * e.rate_ratio_at(at_ns)) * WIRE_PAGE_BYTES;
        let eta_dirty_bps = mean_pps * survival * wire_per_page;
        let max_iters = tenant.migration.stop.max_iterations;
        let iters_left = max_iters.saturating_sub(iters.len() as u32);
        // The live-phase drain plus the structural epilogue the config
        // promises: the resume pause is paid by every migration and is
        // invisible to the byte-rate model. Cohort calibration in the
        // tracker covers what remains (readiness wait, final-set copy).
        let eta_secs = project_eta_cycle_secs(
            remaining_bytes,
            granted.bytes_per_sec(),
            eta_dirty_bps,
            est,
            at_ns,
            iters_left,
        ) + tenant.migration.resume_time.as_secs_f64();
        let predicted = self.eta.record(rec.index, at_ns, eta_secs);

        let wake = self.causal.emit(
            at_ns,
            CausalKind::Wakeup,
            Some(rec.last),
            rec.name.clone(),
            vec![
                ("granted_bps", format!("{:.0}", granted.bytes_per_sec())),
                ("wire_bytes", session.wire_bytes().to_string()),
                ("remaining_bytes", format!("{remaining_bytes:.0}")),
                ("dirty_bps", format!("{dirty_bps:.0}")),
                ("eta_dirty_bps", format!("{eta_dirty_bps:.0}")),
                ("eta_secs", format!("{eta_secs:.3}")),
                ("survival", format!("{survival:.3}")),
                ("iterations", iters.len().to_string()),
                ("predicted_end_ns", predicted.to_string()),
            ],
        );
        rec.last = wake;

        let found = self.watchdog.observe_vm(
            rec.index,
            &rec.name,
            at_ns,
            wake,
            session.wire_bytes(),
            dirty_bps,
            granted.bytes_per_sec(),
            iters.len(),
            iters_left,
            max_iters,
        );
        log_findings(&mut self.causal, &self.watchdog, found);

        if granted != applied {
            self.causal.emit(
                at_ns,
                CausalKind::Regrant,
                Some(wake),
                rec.name.clone(),
                vec![
                    ("old_bps", format!("{:.0}", applied.bytes_per_sec())),
                    ("new_bps", format!("{:.0}", granted.bytes_per_sec())),
                ],
            );
        }

        // Sample every pipe over the window since the previous wakeup and
        // run the saturation rule over the fresh samples. Wakeup times are
        // monotone (the heap pops minima), so windows never overlap.
        if let Some(prev) = self.last_sample_at.replace(at).filter(|&p| at > p) {
            topo.sample_pipes(at, at.saturating_since(prev), &mut self.pipes);
            let found = self.watchdog.observe_pipes(at_ns, wake, &self.pipes);
            log_findings(&mut self.causal, &self.watchdog, found);
        }
    }

    /// Scores VM `id`'s projections against its landing at `ended` and
    /// closes its causal chain; the VM's mission record ends here.
    pub(crate) fn complete(&mut self, id: VmId, ended: SimTime, report: &MigrationReport) {
        let rec = self.vms.remove(&id).expect("a completing VM was admitted");
        self.eta.complete(rec.index, ended.as_nanos());
        let downtime = report.downtime.workload_downtime().as_nanos();
        self.causal.emit(
            ended.as_nanos(),
            CausalKind::Complete,
            Some(rec.last),
            rec.name,
            vec![
                ("bytes", report.total_bytes.to_string()),
                ("downtime_ns", downtime.to_string()),
            ],
        );
    }

    /// Logs a pipe `fault` the drain fired at `at`, reading the degraded
    /// pipe's name and new rate back from `topo`.
    pub(crate) fn fault(&mut self, at: SimTime, topo: &Topology, fault: &PipeFault) {
        let rate = topo.pipe_rate(fault.pipe).expect("a fault fires");
        let name = topo.pipe_name(fault.pipe).expect("a fault fires");
        self.causal.emit(
            at.as_nanos(),
            CausalKind::Fault,
            None,
            name.to_string(),
            vec![
                ("fault", "pipe_degrade".to_string()),
                ("pipe", fault.pipe.label()),
                ("factor", format!("{}", fault.factor)),
                ("rate_bps", format!("{:.0}", rate.bytes_per_sec())),
            ],
        );
    }

    /// Ends the observation.
    pub(crate) fn finish(self) -> MissionControl {
        MissionControl {
            causal: self.causal,
            pipes: self.pipes,
            eta: self.eta.summary(),
            findings: self.watchdog.into_findings(),
        }
    }
}

/// Emits a causal `finding` event for each of the watchdog's `n` newest
/// findings, parented on the wakeup that observed it.
fn log_findings(causal: &mut CausalLog, watchdog: &Watchdog, n: usize) {
    let findings = watchdog.findings();
    for f in &findings[findings.len() - n..] {
        causal.emit(
            f.at_ns,
            CausalKind::Finding,
            Some(f.causal),
            f.subject.clone(),
            vec![("rule", f.rule.to_string()), ("evidence", f.detail.clone())],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{LinkSpec, PipeSel, PipeTimelines, Topology};
    use simkit::units::Bandwidth;
    use simkit::{SimDuration, SimTime};

    #[test]
    fn projection_converging_and_diverging_regimes() {
        // Converging: 100 MB remaining, 10 MB/s share, 2 MB/s dirtying:
        // drains in 100/8 = 12.5 s.
        let secs = project_eta_secs(100e6, 10e6, 2e6, 10);
        assert!((secs - 12.5).abs() < 1e-9, "got {secs}");
        // Diverging: share <= dirty rate charges one round per remaining
        // iteration.
        let secs = project_eta_secs(100e6, 10e6, 10e6, 4);
        assert!((secs - 40.0).abs() < 1e-9, "got {secs}");
        assert!(project_eta_secs(1.0, 0.0, 0.0, 1).is_infinite());
    }

    #[test]
    fn tracker_scores_predictions_against_actual_completion() {
        let mut t = EtaTracker::new(false);
        let vm = t.admit("w");
        // Perfect projection: 10 MB at 1 MB/s, no dirtying, plus the
        // terminal-cost prior -> lands at exactly 10.05 s.
        t.record(vm, 0, project_eta_secs(10e6, 1e6, 0.0, 30));
        t.complete(vm, 10_050_000_000);
        let s = t.summary();
        assert_eq!(s.vms, 1);
        assert_eq!(s.predictions, 1);
        assert!(s.p90_abs_err < 0.01, "p90 {}", s.p90_abs_err);
        assert!(s.drift.abs() < 0.01, "drift {}", s.drift);
    }

    #[test]
    fn bias_calibration_learns_terminal_overhead() {
        let mut t = EtaTracker::new(false);
        // Five identical VMs whose actual landing runs 0.4 s past the
        // naive projection (unmodelled terminal costs, within the bias
        // clamp). The EWMA starts at the terminal prior and must pull
        // later projections toward the truth.
        let mut first_err = None;
        let mut last_err = None;
        for i in 0..5 {
            let vm = t.admit("w");
            let p = t.record(vm, 0, project_eta_secs(10e6, 1e6, 0.0, 30));
            let actual = 10_400_000_000u64; // 10 s projected + 0.4 s overhead
            let err = (actual as f64 - p as f64).abs();
            if i == 0 {
                first_err = Some(err);
            }
            last_err = Some(err);
            t.complete(vm, actual);
        }
        assert!(
            last_err.unwrap() < first_err.unwrap() / 2.0,
            "calibration must shrink the terminal bias: first {:?}, last {:?}",
            first_err,
            last_err
        );
        assert_eq!(t.calibrated(), 5);
    }

    #[test]
    fn cohort_bias_does_not_leak_across_workloads() {
        let mut t = EtaTracker::new(false);
        // One cohort lands 0.4 s late on every completion; a fresh cohort
        // must still project from the prior, not the other's residuals.
        for _ in 0..5 {
            let vm = t.admit("gc-heavy");
            t.record(vm, 0, project_eta_secs(10e6, 1e6, 0.0, 30));
            t.complete(vm, 10_400_000_000);
        }
        let heavy = t.admit("gc-heavy");
        let ph = t.record(heavy, 0, project_eta_secs(10e6, 1e6, 0.0, 30));
        let idle = t.admit("idle");
        let pi = t.record(idle, 0, project_eta_secs(10e6, 1e6, 0.0, 30));
        assert!(ph > pi, "the late cohort must have learned extra cost");
        assert_eq!(pi, 10_000_000_000 + TERMINAL_COST_PRIOR_NS as u64);
    }

    #[test]
    fn frozen_tracker_reserves_the_admission_projection() {
        let mut t = EtaTracker::new(true);
        let vm = t.admit("w");
        let first = t.record(vm, 0, project_eta_secs(10e6, 1e6, 0.0, 30));
        // Later wakeups keep serving the stale admission ETA verbatim,
        // and every serving is scored.
        assert_eq!(
            t.record(vm, 5_000_000_000, project_eta_secs(5e6, 1e6, 0.0, 30)),
            first
        );
        assert_eq!(
            t.record(vm, 19_000_000_000, project_eta_secs(1e6, 1e6, 0.0, 30)),
            first
        );
        t.complete(vm, 20_000_000_000);
        let s = t.summary();
        assert_eq!(s.predictions, 3);
        // The last serving's horizon is 1 s but the stale ETA is ~10 s
        // early: the tail error dwarfs what a live re-projection yields.
        assert!(s.p90_abs_err > 2.0, "stale tail err {}", s.p90_abs_err);
    }

    #[test]
    fn stall_rule_needs_consecutive_frozen_wakeups() {
        let mut w = Watchdog::new();
        let vm = w.admit();
        let c = CausalId(1);
        for i in 0..STALL_WAKEUPS {
            assert_eq!(
                w.observe_vm(vm, "vm0", i as u64, c, 500, 0.0, 1e6, 3, 27, 30),
                0
            );
        }
        // One more frozen wakeup crosses the threshold, exactly once.
        assert_eq!(w.observe_vm(vm, "vm0", 99, c, 500, 0.0, 1e6, 3, 27, 30), 1);
        assert_eq!(w.observe_vm(vm, "vm0", 100, c, 500, 0.0, 1e6, 3, 27, 30), 0);
        assert_eq!(w.findings()[0].rule, "vm_stall");
        assert_eq!(w.findings()[0].subject, "vm0");
        // Progress resets the counter.
        let vm2 = w.admit();
        for i in 0..20u64 {
            assert_eq!(
                w.observe_vm(vm2, "vm1", i, c, 500 + i, 0.0, 1e6, 3, 27, 30),
                0
            );
        }
    }

    #[test]
    fn nonconvergence_rule_requires_sustained_outrun() {
        let mut w = Watchdog::new();
        let vm = w.admit();
        let c = CausalId(2);
        // Two budget-thin outrun wakeups, then relief: no finding.
        w.observe_vm(vm, "vm0", 0, c, 1, 2e6, 1e6, 24, 6, 30);
        w.observe_vm(vm, "vm0", 1, c, 2, 2e6, 1e6, 25, 5, 30);
        w.observe_vm(vm, "vm0", 2, c, 3, 0.5e6, 1e6, 26, 4, 30);
        assert!(w.findings().is_empty());
        // Three consecutive outruns fire exactly once.
        w.observe_vm(vm, "vm0", 3, c, 4, 2e6, 1e6, 27, 3, 30);
        w.observe_vm(vm, "vm0", 4, c, 5, 2e6, 1e6, 28, 2, 30);
        assert_eq!(w.observe_vm(vm, "vm0", 5, c, 6, 2e6, 1e6, 29, 1, 30), 1);
        assert_eq!(w.findings()[0].rule, "nonconvergence");
        assert_eq!(w.observe_vm(vm, "vm0", 6, c, 7, 2e6, 1e6, 29, 1, 30), 0);
        // The same outrun with most of the budget left is a peak, not a
        // divergence: the rule stays quiet.
        let vm2 = w.admit();
        for i in 0..10u64 {
            assert_eq!(w.observe_vm(vm2, "vm1", i, c, i, 2e6, 1e6, 5, 25, 30), 0);
        }
    }

    #[test]
    fn cycle_aware_projection_waits_out_the_peak() {
        use simkit::telemetry::SampleSeries;
        // A confident square-wave estimate: 2 s period, 1 s high / 1 s low.
        let mut series = SampleSeries::new(100_000_000, 64);
        for i in 0..40u64 {
            let v = if (i / 10) % 2 == 0 { 1000.0 } else { 100.0 };
            series.push(i * 100_000_000, v);
        }
        let est = crate::detect::detect(&series, 4_000_000_000).expect("cycle detected");
        // Mid-peak the instantaneous rate outruns the share; the
        // projection charges the wait to the trough plus a trough-rate
        // drain instead of the full diverging penalty.
        let mean = 550.0;
        let at = 4_050_000_000u64; // inside a high phase
        assert!(!est.in_low_window(at));
        let wait = est.ns_until_low_window(at);
        assert!(wait > 0, "a trough must lie ahead");
        let eta = project_eta_cycle_secs(10e6, 700.0 * 1e3, mean * 1e3, Some(&est), at, 50);
        let diverging = project_eta_secs(10e6, 700.0 * 1e3, mean * 2.0 * 1e3, 50);
        assert!(
            eta < diverging,
            "cycle-aware {eta} must beat diverging {diverging}"
        );
        // In the trough the converging bound applies — and because the
        // drain from there spans many cycles, peaks and troughs average
        // out: the projection charges the cycle-mean rate, not the
        // trough's instantaneous one.
        let at_low = at + wait;
        assert!(est.in_low_window(at_low));
        let direct = project_eta_cycle_secs(10e6, 700.0 * 1e3, mean * 1e3, Some(&est), at_low, 50);
        assert!((direct - 10e6 / ((700.0 - mean) * 1e3)).abs() < 1e-6);
    }

    #[test]
    fn pipe_saturation_fires_only_after_a_degrade() {
        let mb = Bandwidth::from_mbytes_per_sec;
        let mut topo = Topology::new(
            vec![LinkSpec::lan("src", mb(125.0))],
            Some(LinkSpec::lan("core", mb(100.0))),
            vec![LinkSpec::lan("dst", mb(125.0))],
        );
        let mut pipes = PipeTimelines::for_topology(&topo, 16);
        let _f = topo.open_flow(0, Some(0), 1.0, mb(60.0));
        let mut w = Watchdog::new();
        let c = CausalId(3);
        let dt = SimDuration::from_millis(100);
        let t1 = SimTime::from_nanos(100_000_000);
        topo.sample_pipes(t1, dt, &mut pipes);
        // 60 MB/s demand against a 100 MB/s core: healthy.
        assert_eq!(w.observe_pipes(t1.as_nanos(), c, &pipes), 0);
        // The core degrades below the subscribed demand: one finding,
        // naming the pipe, exactly once.
        assert!(topo.set_pipe_rate(PipeSel::Core, mb(40.0)));
        let t2 = SimTime::from_nanos(200_000_000);
        topo.sample_pipes(t2, dt, &mut pipes);
        assert_eq!(w.observe_pipes(t2.as_nanos(), c, &pipes), 1);
        let f = &w.findings()[0];
        assert_eq!(f.rule, "pipe_saturation");
        assert_eq!(f.subject, "core");
        assert_eq!(f.causal, c);
        assert_eq!(w.observe_pipes(t2.as_nanos(), c, &pipes), 0);
    }
}
