//! Post-run digests: schema-versioned JSON summaries and a cross-run
//! regression gate.
//!
//! A [`RunDigest`] folds a [`MigrationReport`] (including its flight
//! recorder snapshot) into a compact, byte-deterministic JSON document:
//! phase and downtime attribution, skipped-vs-sent page accounting,
//! histogram quantiles, scan throughput, fault attribution for degraded
//! outcomes, and a findings list of rule-based anomalies. Digests are
//! meant to be committed as baselines and diffed across runs.
//!
//! Every digest and bench document is a [`Json`] value rendered by one
//! renderer, and every comparison is one row of [`GATES`]: [`compare`]
//! parses two documents (with the built-in minimal JSON reader — no
//! external dependency), looks the baseline's schema up in the table and
//! applies that row's per-metric regression thresholds.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use simkit::telemetry::export::escape_json;
use simkit::telemetry::hist::Histogram;
use simkit::Subsystem;

use crate::assist::ColdReport;
use crate::report::{MigrationReport, StopReason};
use crate::MigrationOutcome;

/// Schema identifier embedded in (and required of) every run digest.
/// v2 added the `series` section (workload-observatory sample rings). The
/// `cold` section appears only when the run had the cold assist enabled.
pub const DIGEST_SCHEMA: &str = "javmm-run-digest-v2";

/// Enforced-GC pauses longer than this are flagged as a `gc_overrun`
/// finding (the paper's enforced minor GC completes well under a second).
const GC_OVERRUN_BUDGET_NS: u64 = 2_000_000_000;

/// Identity of the run a digest describes; supplied by the caller because
/// the report itself does not know its scenario name or seed.
#[derive(Debug, Clone)]
pub struct DigestMeta {
    /// Stable scenario name (used as the compare key).
    pub name: String,
    /// Workload label (e.g. `crypto`, `derby`).
    pub workload: String,
    /// Whether the run requested application assistance.
    pub assisted: bool,
    /// Root seed of the run.
    pub seed: u64,
}

/// Summary of one histogram family carried into the digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistDigest {
    /// Number of recorded samples.
    pub count: u64,
    /// Smallest recorded value.
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Median (nearest-rank over log buckets).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl HistDigest {
    /// Summarises one histogram.
    fn of(h: &Histogram) -> Self {
        Self {
            count: h.count(),
            min: h.min(),
            max: h.max(),
            sum: h.sum(),
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
        }
    }

    fn json(&self) -> Json {
        Json::line([
            ("count", self.count.into()),
            ("min", self.min.into()),
            ("max", self.max.into()),
            ("sum", self.sum.into()),
            ("p50", self.p50.into()),
            ("p95", self.p95.into()),
            ("p99", self.p99.into()),
        ])
    }
}

/// Summary of one sample series (a bounded telemetry ring) carried into
/// the digest: the retained window's shape, not its raw samples.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesDigest {
    /// Samples retained in the ring.
    pub count: u64,
    /// Samples evicted by the ring bound.
    pub dropped: u64,
    /// Sampling cadence in nanoseconds (0 for event-driven series).
    pub cadence_ns: u64,
    /// Mean of the retained samples.
    pub mean: f64,
    /// Most recent sample.
    pub last: f64,
    /// Median of the retained samples (nearest rank).
    pub p50: f64,
    /// 95th percentile of the retained samples.
    pub p95: f64,
}

/// A rule-based anomaly surfaced by the digest analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier (e.g. `precopy_not_converging`).
    pub rule: &'static str,
    /// Human-readable explanation with the triggering numbers.
    pub detail: String,
}

/// The folded outcome of one migration run.
#[derive(Debug, Clone)]
pub struct RunDigest {
    /// Run identity.
    pub meta: DigestMeta,
    /// `completed` or `degraded_vanilla`.
    pub outcome_kind: &'static str,
    /// Triggering fault name for degraded runs, `none` otherwise.
    pub fault: &'static str,
    /// Why live iteration stopped.
    pub stop_reason: &'static str,
    /// Wall-clock migration duration in nanoseconds.
    pub total_duration_ns: u64,
    /// Bytes put on the wire.
    pub total_bytes: u64,
    /// Migration daemon CPU time in nanoseconds.
    pub cpu_time_ns: u64,
    /// Iterations performed, including the stop-and-copy.
    pub iterations: u32,
    /// Assistants forcibly un-skipped by the LKM.
    pub stragglers: u32,
    /// Pages transferred.
    pub pages_sent: u64,
    /// Pages skipped on transfer-bit grounds (skip-over areas).
    pub pages_skipped_transfer: u64,
    /// Pages skipped because they were re-dirtied mid-iteration.
    pub pages_skipped_dirty: u64,
    /// Workload-perceived downtime in nanoseconds.
    pub downtime_workload_ns: u64,
    /// VM pause-to-resume downtime in nanoseconds.
    pub downtime_vm_ns: u64,
    /// Safepoint-reach time (not part of downtime).
    pub safepoint_wait_ns: u64,
    /// Enforced minor GC share of downtime.
    pub enforced_gc_ns: u64,
    /// Final transfer-bitmap update share of downtime.
    pub final_update_ns: u64,
    /// Stop-and-copy share of downtime.
    pub last_iteration_ns: u64,
    /// Destination resume share of downtime.
    pub resume_ns: u64,
    /// Pages examined by the pre-copy scanner (sends and skips alike).
    pub pages_scanned: u64,
    /// CPU charged to scanning, in nanoseconds.
    pub scan_cpu_ns: u64,
    /// Scan throughput: pages per CPU-second (0 when nothing was scanned).
    pub scan_pages_per_cpu_sec: f64,
    /// Histogram summaries keyed `subsystem/name`, sorted.
    pub histograms: BTreeMap<String, HistDigest>,
    /// Sample-series summaries keyed `subsystem/name`, sorted.
    pub series: BTreeMap<String, SeriesDigest>,
    /// Counter values keyed `subsystem/name`, sorted.
    pub counters: BTreeMap<String, u64>,
    /// What the cold assist did, rendered with its derived ratios as the
    /// `cold` section; `None` (and absent from the JSON) unless the run
    /// had the subsystem enabled.
    pub cold: Option<ColdReport>,
    /// Rule-based anomalies, in fixed rule order.
    pub findings: Vec<Finding>,
}

fn stop_reason_name(r: StopReason) -> &'static str {
    match r {
        StopReason::MaxIterations => "max_iterations",
        StopReason::TrafficCap => "traffic_cap",
        StopReason::DirtyThreshold => "dirty_threshold",
    }
}

impl RunDigest {
    /// Folds `report` (and its telemetry snapshot) into a digest.
    pub fn from_report(meta: DigestMeta, report: &MigrationReport) -> Self {
        let (outcome_kind, fault) = match report.outcome {
            MigrationOutcome::Completed => ("completed", "none"),
            MigrationOutcome::DegradedVanilla { fault } => ("degraded_vanilla", fault.name()),
        };
        let t = &report.telemetry;
        let pages_scanned = t.counter(Subsystem::Engine, "pages_scanned").unwrap_or(0);
        let scan_cpu_ns = t.counter(Subsystem::Engine, "scan_cpu_ns").unwrap_or(0);
        let scan_pages_per_cpu_sec = if scan_cpu_ns > 0 {
            pages_scanned as f64 * 1e9 / scan_cpu_ns as f64
        } else {
            0.0
        };
        let histograms = t
            .hists
            .iter()
            .map(|h| {
                (
                    format!("{}/{}", h.subsystem, h.name),
                    HistDigest::of(&h.hist),
                )
            })
            .collect();
        let series = t
            .series
            .iter()
            .map(|s| {
                (
                    format!("{}/{}", s.subsystem, s.name),
                    SeriesDigest {
                        count: s.series.len() as u64,
                        dropped: s.series.dropped(),
                        cadence_ns: s.series.cadence_ns(),
                        mean: s.series.mean(),
                        last: s.series.last().unwrap_or(f64::NAN),
                        p50: s.series.quantile(0.50),
                        p95: s.series.quantile(0.95),
                    },
                )
            })
            .collect();
        let counters = t
            .counters
            .iter()
            .map(|c| (format!("{}/{}", c.subsystem, c.name), c.value))
            .collect();

        let mut digest = Self {
            outcome_kind,
            fault,
            stop_reason: stop_reason_name(report.stop_reason),
            total_duration_ns: report.total_duration.as_nanos(),
            total_bytes: report.total_bytes,
            cpu_time_ns: report.cpu_time.as_nanos(),
            iterations: report.iteration_count(),
            stragglers: report.stragglers,
            pages_sent: report.pages_sent(),
            pages_skipped_transfer: report.pages_skipped_transfer(),
            pages_skipped_dirty: report
                .iterations
                .iter()
                .map(|i| i.pages_skipped_dirty)
                .sum(),
            downtime_workload_ns: report.downtime.workload_downtime().as_nanos(),
            downtime_vm_ns: report.downtime.vm_downtime().as_nanos(),
            safepoint_wait_ns: report.downtime.safepoint_wait.as_nanos(),
            enforced_gc_ns: report.downtime.enforced_gc.as_nanos(),
            final_update_ns: report.downtime.final_update.as_nanos(),
            last_iteration_ns: report.downtime.last_iteration.as_nanos(),
            resume_ns: report.downtime.resume.as_nanos(),
            pages_scanned,
            scan_cpu_ns,
            scan_pages_per_cpu_sec,
            histograms,
            series,
            counters,
            cold: report.cold,
            findings: Vec::new(),
            meta,
        };
        digest.findings = digest.analyze();
        digest
    }

    /// Applies the anomaly rules, in fixed order so output is deterministic.
    fn analyze(&self) -> Vec<Finding> {
        let mut findings = Vec::new();
        if self.outcome_kind == "degraded_vanilla" {
            findings.push(Finding {
                rule: "degraded_vanilla",
                detail: format!(
                    "assisted protocol degraded to vanilla pre-copy (fault: {})",
                    self.fault
                ),
            });
        }
        if self.stop_reason != "dirty_threshold" {
            findings.push(Finding {
                rule: "precopy_not_converging",
                detail: format!(
                    "live pre-copy never reached the dirty threshold (stopped by {} after {} iterations, {} bytes)",
                    self.stop_reason, self.iterations, self.total_bytes
                ),
            });
        }
        if self.stragglers > 0 {
            findings.push(Finding {
                rule: "straggler_lane",
                detail: format!(
                    "{} assisting application(s) straggled and were forcibly un-skipped",
                    self.stragglers
                ),
            });
        }
        if self.enforced_gc_ns > GC_OVERRUN_BUDGET_NS {
            findings.push(Finding {
                rule: "gc_overrun",
                detail: format!(
                    "enforced GC pause of {} ns exceeds the {} ns budget",
                    self.enforced_gc_ns, GC_OVERRUN_BUDGET_NS
                ),
            });
        }
        if self.meta.assisted
            && self.outcome_kind == "completed"
            && self.pages_skipped_transfer == 0
        {
            findings.push(Finding {
                rule: "zero_skip_run",
                detail: "assisted run completed without skipping a single page on \
                         transfer-bit grounds — assistance bought nothing"
                    .to_string(),
            });
        }
        findings
    }

    /// Serialises the digest as pretty-printed JSON. Field order is fixed
    /// and all maps are sorted, so same-seed runs produce byte-identical
    /// documents.
    pub fn to_json(&self) -> String {
        let m = &self.meta;
        let mut doc = vec![
            ("schema", DIGEST_SCHEMA.into()),
            (
                "scenario",
                Json::obj([
                    ("name", m.name.as_str().into()),
                    ("workload", m.workload.as_str().into()),
                    ("assisted", m.assisted.into()),
                    ("seed", m.seed.into()),
                ]),
            ),
            (
                "outcome",
                Json::obj([
                    ("kind", self.outcome_kind.into()),
                    ("fault", self.fault.into()),
                    ("stop_reason", self.stop_reason.into()),
                ]),
            ),
            (
                "totals",
                Json::obj([
                    ("total_duration_ns", self.total_duration_ns.into()),
                    ("total_bytes", self.total_bytes.into()),
                    ("cpu_time_ns", self.cpu_time_ns.into()),
                    ("iterations", self.iterations.into()),
                    ("stragglers", self.stragglers.into()),
                ]),
            ),
            (
                "pages",
                Json::obj([
                    ("sent", self.pages_sent.into()),
                    ("skipped_transfer", self.pages_skipped_transfer.into()),
                    ("skipped_dirty", self.pages_skipped_dirty.into()),
                ]),
            ),
            (
                "downtime_ns",
                Json::obj([
                    ("workload", self.downtime_workload_ns.into()),
                    ("vm", self.downtime_vm_ns.into()),
                    ("safepoint_wait", self.safepoint_wait_ns.into()),
                    ("enforced_gc", self.enforced_gc_ns.into()),
                    ("final_update", self.final_update_ns.into()),
                    ("last_iteration", self.last_iteration_ns.into()),
                    ("resume", self.resume_ns.into()),
                ]),
            ),
            (
                "scan",
                Json::obj([
                    ("pages_scanned", self.pages_scanned.into()),
                    ("scan_cpu_ns", self.scan_cpu_ns.into()),
                    ("pages_per_cpu_sec", self.scan_pages_per_cpu_sec.into()),
                ]),
            ),
        ];
        if let Some(c) = &self.cold {
            let deferred = Json::obj([
                ("pages", c.deferred_pages.into()),
                ("sent_pages", c.deferred_sent_pages.into()),
                ("sent_bytes", c.deferred_sent_bytes.into()),
                ("pending_at_pause", c.pending_at_pause.into()),
            ]);
            let delta = Json::obj([
                ("hits", c.delta_hits.into()),
                ("misses", c.delta_misses.into()),
                ("fallbacks", c.delta_fallbacks.into()),
                ("overflows", c.delta_overflows.into()),
                ("wire_bytes", c.delta_wire_bytes.into()),
                ("full_bytes", c.delta_full_bytes.into()),
                ("saved_bytes_ratio", c.saved_bytes_ratio().into()),
                ("cache_hit_rate", c.cache_hit_rate().into()),
            ]);
            doc.push((
                "cold",
                Json::obj([
                    ("pages", c.cold_pages.into()),
                    ("deferred", deferred),
                    ("delta", delta),
                ]),
            ));
        }
        let series = self.series.iter().map(|(key, s)| {
            let row = Json::line([
                ("count", s.count.into()),
                ("dropped", s.dropped.into()),
                ("cadence_ns", s.cadence_ns.into()),
                ("mean", s.mean.into()),
                ("last", s.last.into()),
                ("p50", s.p50.into()),
                ("p95", s.p95.into()),
            ]);
            (key.as_str(), row)
        });
        let findings = self.findings.iter().map(|f| {
            Json::line([
                ("rule", f.rule.into()),
                ("detail", f.detail.as_str().into()),
            ])
        });
        doc.extend([
            ("histograms", hist_json(&self.histograms)),
            ("series", Json::obj(series)),
            (
                "counters",
                Json::obj(self.counters.iter().map(|(k, v)| (k.as_str(), (*v).into()))),
            ),
            ("findings", Json::Arr(findings.collect())),
        ]);
        Json::obj(doc).render()
    }
}

/// The `histograms` section: one one-line row per family, sorted.
fn hist_json(histograms: &BTreeMap<String, HistDigest>) -> Json {
    Json::obj(histograms.iter().map(|(key, h)| (key.as_str(), h.json())))
}

// ---------------------------------------------------------------------------
// Fleet digests: one document per host drain.
// ---------------------------------------------------------------------------

/// Schema identifier of fleet digest documents.
/// v2 added per-VM detection fields and the drain-level `detect` block
/// (workload-observatory accuracy accounting).
pub const FLEET_DIGEST_SCHEMA: &str = "javmm-fleet-digest-v2";

/// Identity of the host drain a fleet digest describes.
#[derive(Debug, Clone)]
pub struct FleetMeta {
    /// Stable roster name (e.g. `drain12`).
    pub name: String,
    /// Ordering policy the scheduler ran (e.g. `fifo`).
    pub policy: String,
    /// Root seed of the drain.
    pub seed: u64,
    /// Shared uplink capacity in bytes/second.
    pub uplink_bytes_per_sec: f64,
    /// Admission-control concurrency cap.
    pub max_concurrent: u32,
}

/// One VM's slice of a fleet digest: its full per-VM [`RunDigest`] plus
/// the scheduling and SLA facts only the fleet knows.
#[derive(Debug, Clone)]
pub struct FleetVmEntry {
    /// The per-VM digest, exactly as a dedicated-link run would produce it.
    pub digest: RunDigest,
    /// When the scheduler admitted (and began) this migration, in
    /// nanoseconds since the drain started.
    pub admitted_at_ns: u64,
    /// When the migration completed, in nanoseconds since the drain
    /// started.
    pub ended_at_ns: u64,
    /// Cycle period the workload observatory detected at admission, in
    /// nanoseconds; 0 when the detector produced no estimate.
    pub detected_period_ns: u64,
    /// Detector confidence at admission (0 when no estimate).
    pub detected_confidence: f64,
    /// Whether the estimate cleared the scheduler's confidence gate.
    pub detect_confident: bool,
    /// The tenant's declared cycle period in nanoseconds; 0 for steady
    /// tenants with no declared phases.
    pub declared_period_ns: u64,
    /// For tenants with a declared cycle: whether a gate-clearing estimate
    /// placed this admission below the declared cycle-average dirty rate
    /// (a window hit). `None` for steady tenants — they have no windows.
    pub window_hit: Option<bool>,
    /// SLA cost of this migration.
    pub sla: crate::sla::SlaCost,
}

/// Incremental histogram merger for fleet drains: telemetry snapshots
/// fold in one at a time — as each VM's migration completes — and the
/// merged state is a bounded set of log-bucket histograms, not the
/// snapshots themselves. Bucket-wise merging is commutative, so folding in
/// completion order produces the same summaries as folding in roster
/// order ([`Histogram::merge`]).
///
/// [`Histogram::merge`]: simkit::telemetry::hist::Histogram::merge
#[derive(Debug, Default)]
pub struct HistMerger {
    merged: BTreeMap<String, Histogram>,
}

impl HistMerger {
    /// An empty merger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one telemetry snapshot's histograms into the merged state.
    pub fn add(&mut self, t: &simkit::telemetry::RunTelemetry) {
        for h in &t.hists {
            self.merged
                .entry(format!("{}/{}", h.subsystem, h.name))
                .or_default()
                .merge(&h.hist);
        }
    }

    /// Finishes the merge into per-family digest summaries.
    pub fn finish(self) -> BTreeMap<String, HistDigest> {
        self.merged
            .into_iter()
            .map(|(key, h)| (key, HistDigest::of(&h)))
            .collect()
    }
}

/// Drain-level detection-accuracy accounting: how well the workload
/// observatory's online estimates tracked the declared ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetDetect {
    /// VMs admitted with a gate-clearing estimate.
    pub estimated: u32,
    /// VMs whose tenant declared a phase cycle (the only ground truth).
    pub cyclic_declared: u32,
    /// Cyclic VMs whose admission was a window hit.
    pub window_hits: u32,
    /// `window_hits / cyclic_declared`; 1.0 when no tenant is cyclic (an
    /// all-steady roster has no windows to miss).
    pub window_hit_rate: f64,
    /// Mean detector confidence across all VMs (0 counts for no-estimate).
    pub mean_confidence: f64,
    /// Mean relative period accuracy `1 - |detected - declared| /
    /// declared` over cyclic VMs with a gate-clearing estimate, clamped at
    /// 0; 1.0 when no such VM exists.
    pub period_accuracy: f64,
}

impl FleetDetect {
    /// Folds the per-VM detection fields into drain-level accounting.
    pub fn from_vms(vms: &[FleetVmEntry]) -> Self {
        let estimated = vms.iter().filter(|v| v.detect_confident).count() as u32;
        let cyclic: Vec<&FleetVmEntry> = vms.iter().filter(|v| v.declared_period_ns > 0).collect();
        let window_hits = cyclic.iter().filter(|v| v.window_hit == Some(true)).count() as u32;
        let window_hit_rate = if cyclic.is_empty() {
            1.0
        } else {
            f64::from(window_hits) / cyclic.len() as f64
        };
        let mean_confidence = if vms.is_empty() {
            0.0
        } else {
            vms.iter().map(|v| v.detected_confidence).sum::<f64>() / vms.len() as f64
        };
        let accuracies: Vec<f64> = cyclic
            .iter()
            .filter(|v| v.detect_confident)
            .map(|v| {
                let declared = v.declared_period_ns as f64;
                let err = (v.detected_period_ns as f64 - declared).abs() / declared;
                (1.0 - err).max(0.0)
            })
            .collect();
        let period_accuracy = if accuracies.is_empty() {
            1.0
        } else {
            accuracies.iter().sum::<f64>() / accuracies.len() as f64
        };
        Self {
            estimated,
            cyclic_declared: cyclic.len() as u32,
            window_hits,
            window_hit_rate,
            mean_confidence,
            period_accuracy,
        }
    }
}

/// The folded outcome of one whole-host drain: per-VM rows in roster
/// order, fleet totals, and merged histograms.
#[derive(Debug, Clone)]
pub struct FleetDigest {
    /// Drain identity.
    pub meta: FleetMeta,
    /// Per-VM entries, in roster order.
    pub vms: Vec<FleetVmEntry>,
    /// Total eviction time: from drain start to the last migration's
    /// completion, in nanoseconds.
    pub eviction_ns: u64,
    /// Sum of per-VM workload downtime, in nanoseconds.
    pub aggregate_downtime_ns: u64,
    /// Sum of per-VM wire bytes.
    pub total_bytes: u64,
    /// Sum of per-VM SLA costs.
    pub sla_total: crate::sla::SlaCost,
    /// VMs whose run degraded to vanilla pre-copy.
    pub degraded: u32,
    /// VMs whose live phase never reached the dirty threshold.
    pub nonconverged: u32,
    /// Workload-observatory accuracy accounting.
    pub detect: FleetDetect,
    /// Fleet-level histogram summaries merged across all VMs.
    pub histograms: BTreeMap<String, HistDigest>,
}

impl FleetDigest {
    /// Assembles a fleet digest from per-VM entries (roster order) and the
    /// pre-merged fleet histograms (see [`HistMerger`]).
    pub fn new(
        meta: FleetMeta,
        vms: Vec<FleetVmEntry>,
        histograms: BTreeMap<String, HistDigest>,
    ) -> Self {
        let eviction_ns = vms.iter().map(|v| v.ended_at_ns).max().unwrap_or(0);
        let aggregate_downtime_ns = vms.iter().map(|v| v.digest.downtime_workload_ns).sum();
        let total_bytes = vms.iter().map(|v| v.digest.total_bytes).sum();
        let mut sla_total = crate::sla::SlaCost::ZERO;
        for v in &vms {
            sla_total.add(&v.sla);
        }
        let degraded = vms
            .iter()
            .filter(|v| v.digest.outcome_kind != "completed")
            .count() as u32;
        let nonconverged = vms
            .iter()
            .filter(|v| v.digest.stop_reason != "dirty_threshold")
            .count() as u32;
        let detect = FleetDetect::from_vms(&vms);
        Self {
            meta,
            vms,
            eviction_ns,
            aggregate_downtime_ns,
            total_bytes,
            sla_total,
            degraded,
            nonconverged,
            detect,
            histograms,
        }
    }

    /// Serialises the fleet digest as pretty-printed JSON. Field order is
    /// fixed, rows are in roster order and maps sorted, so same seed +
    /// same policy produce byte-identical documents.
    pub fn to_json(&self) -> String {
        let m = &self.meta;
        let vms = self.vms.iter().map(|v| {
            let d = &v.digest;
            Json::obj([
                ("name", d.meta.name.as_str().into()),
                ("workload", d.meta.workload.as_str().into()),
                ("assisted", d.meta.assisted.into()),
                ("outcome", d.outcome_kind.into()),
                ("stop_reason", d.stop_reason.into()),
                ("admitted_at_ns", v.admitted_at_ns.into()),
                ("ended_at_ns", v.ended_at_ns.into()),
                ("migration_ns", d.total_duration_ns.into()),
                ("downtime_workload_ns", d.downtime_workload_ns.into()),
                ("iterations", d.iterations.into()),
                ("total_bytes", d.total_bytes.into()),
                ("detected_period_ns", v.detected_period_ns.into()),
                ("detected_confidence", v.detected_confidence.into()),
                ("detect_confident", v.detect_confident.into()),
                ("declared_period_ns", v.declared_period_ns.into()),
                ("window_hit", v.window_hit.into()),
                ("sla_cost", v.sla.total().into()),
            ])
        });
        Json::obj([
            ("schema", FLEET_DIGEST_SCHEMA.into()),
            (
                "drain",
                Json::obj([
                    ("name", m.name.as_str().into()),
                    ("policy", m.policy.as_str().into()),
                    ("seed", m.seed.into()),
                    ("uplink_bytes_per_sec", m.uplink_bytes_per_sec.into()),
                    ("max_concurrent", m.max_concurrent.into()),
                ]),
            ),
            (
                "totals",
                Json::obj([
                    ("eviction_ns", self.eviction_ns.into()),
                    ("aggregate_downtime_ns", self.aggregate_downtime_ns.into()),
                    ("total_bytes", self.total_bytes.into()),
                    ("sla_cost", self.sla_total.total().into()),
                    ("sla_downtime", self.sla_total.downtime.into()),
                    ("sla_brownout", self.sla_total.brownout.into()),
                    ("sla_penalty", self.sla_total.penalty.into()),
                    ("degraded", self.degraded.into()),
                    ("nonconverged", self.nonconverged.into()),
                ]),
            ),
            (
                "detect",
                Json::obj([
                    ("estimated", self.detect.estimated.into()),
                    ("cyclic_declared", self.detect.cyclic_declared.into()),
                    ("window_hits", self.detect.window_hits.into()),
                    ("window_hit_rate", self.detect.window_hit_rate.into()),
                    ("mean_confidence", self.detect.mean_confidence.into()),
                    ("period_accuracy", self.detect.period_accuracy.into()),
                ]),
            ),
            ("vms", Json::Arr(vms.collect())),
            ("histograms", hist_json(&self.histograms)),
        ])
        .render()
    }
}

// ---------------------------------------------------------------------------
// The document value: one type to read and to write every digest and bench
// document (no external dependency).
// ---------------------------------------------------------------------------

/// How an object renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One member per line, two spaces of indent per level.
    Block,
    /// `{"k": v, ...}` on one line.
    Line,
}

/// A JSON value. Objects keep their members in order and remember their
/// layout, and numbers keep their text, so rendering a parsed document
/// reproduces it byte for byte when it was rendered here in the first
/// place.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its JSON text (`4000000`, `0.2431`, `0.00`).
    Num(String),
    /// A string.
    Str(String),
    /// An array; renders one element per line.
    Arr(Vec<Json>),
    /// An object: its members in order, and how it renders.
    Obj(Vec<(String, Json)>, Layout),
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so the cap turns hostile input into a
/// [`DigestError`] instead of a stack overflow; committed documents nest
/// at most 4 deep.
const MAX_JSON_DEPTH: usize = 64;

impl Json {
    /// Parses a JSON document nested at most 64 arrays/objects deep. A key
    /// repeated within one object is an error.
    pub fn parse(text: &str) -> Result<Json, DigestError> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.text.len() {
            return Err(DigestError::parse(p.pos, "trailing garbage"));
        }
        Ok(v)
    }

    /// Walks `path` through nested objects.
    pub fn get(&self, path: &[&str]) -> Option<&Json> {
        let mut cur = self;
        for key in path {
            match cur {
                Json::Obj(members, _) => {
                    cur = members.iter().find(|(k, _)| k == key).map(|m| &m.1)?
                }
                _ => return None,
            }
        }
        Some(cur)
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// `x` written with `decimals` fixed decimals; `null` if not finite.
    pub fn fixed(x: f64, decimals: usize) -> Json {
        if x.is_finite() {
            Json::Num(format!("{x:.decimals$}"))
        } else {
            Json::Null
        }
    }

    /// An object with one member per line.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(
            members.into_iter().map(|(k, v)| (k.into(), v)).collect(),
            Layout::Block,
        )
    }

    /// An object on one line.
    pub fn line<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(
            members.into_iter().map(|(k, v)| (k.into(), v)).collect(),
            Layout::Line,
        )
    }

    /// Renders the document: two-space indent, `": "` and `", "`
    /// separators and a trailing newline.
    pub fn render(&self) -> String {
        format!("{self}\n")
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(text) => f.write_str(text),
            Json::Str(s) => write!(f, "\"{}\"", escape_json(s)),
            Json::Arr(items) => write_block(f, indent, ('[', ']'), items.iter().map(|v| (None, v))),
            Json::Obj(members, Layout::Block) => write_block(
                f,
                indent,
                ('{', '}'),
                members.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
            Json::Obj(members, Layout::Line) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    let sep = if i == 0 { "" } else { ", " };
                    write!(f, "{sep}\"{}\": ", escape_json(k))?;
                    v.write(f, indent)?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes an array or block object: `open`, one (optionally keyed) member
/// per line indented one level deeper, then `close` at `indent`.
fn write_block<'a>(
    f: &mut fmt::Formatter<'_>,
    indent: usize,
    (open, close): (char, char),
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) -> fmt::Result {
    writeln!(f, "{open}")?;
    let mut empty = true;
    for (key, v) in members {
        let sep = if empty { "" } else { ",\n" };
        write!(f, "{sep}{:w$}", "", w = 2 * (indent + 1))?;
        if let Some(k) = key {
            write!(f, "\"{}\": ", escape_json(k))?;
        }
        v.write(f, indent + 1)?;
        empty = false;
    }
    let end = if empty { "" } else { "\n" };
    write!(f, "{end}{:w$}{close}", "", w = 2 * indent)
}

/// The value as it renders, without a trailing newline.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Self {
                Json::Num(n.to_string())
            }
        }
    )*};
}
json_from_int!(u32, u64, usize);

/// The shortest text that reads back as `x`; `null` if not finite.
impl From<f64> for Json {
    fn from(x: f64) -> Self {
        if x.is_finite() {
            Json::Num(x.to_string())
        } else {
            Json::Null
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

/// Errors from digest parsing or comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DigestError {
    /// The document is not valid JSON (byte offset, description).
    Parse(usize, String),
    /// The document parsed but is not a digest this code understands.
    Schema(String),
}

impl DigestError {
    fn parse(pos: usize, msg: &str) -> Self {
        DigestError::Parse(pos, msg.to_string())
    }
}

impl core::fmt::Display for DigestError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DigestError::Parse(pos, msg) => write!(f, "JSON parse error at byte {pos}: {msg}"),
            DigestError::Schema(msg) => write!(f, "digest schema error: {msg}"),
        }
    }
}

impl std::error::Error for DigestError {}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    /// Bytes from `pos` up to the first one matching `stop` (or the end).
    fn run(&self, stop: impl Fn(u8) -> bool) -> usize {
        let rest = &self.text.as_bytes()[self.pos..];
        rest.iter().position(|&b| stop(b)).unwrap_or(rest.len())
    }

    fn skip_ws(&mut self) {
        self.pos += self.run(|b| !matches!(b, b' ' | b'\t' | b'\n' | b'\r'));
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), DigestError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(DigestError::parse(
                self.pos,
                &format!("expected '{}'", b as char),
            ))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, DigestError> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(DigestError::parse(self.pos, &format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, DigestError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(DigestError::parse(self.pos, "expected a JSON value")),
        }
    }

    /// Parses one array or object a nesting level deeper, refusing to go
    /// past [`MAX_JSON_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, DigestError>,
    ) -> Result<Json, DigestError> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(DigestError::parse(self.pos, "nesting too deep"));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn string(&mut self) -> Result<String, DigestError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // `"` and `\` are ASCII, so the run before one ends on a char
            // boundary.
            let run = self.run(|b| b == b'"' || b == b'\\');
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(DigestError::parse(self.pos, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => self.pos += 1,
            }
            let esc = self
                .peek()
                .ok_or_else(|| DigestError::parse(self.pos, "unterminated escape"))?;
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => {
                    let hex = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| DigestError::parse(self.pos, "bad \\u escape"))?;
                    self.pos += 4;
                    // Surrogate pairs don't appear in digests; replace
                    // rather than reject if one shows up.
                    char::from_u32(hex).unwrap_or('\u{fffd}')
                }
                _ => return Err(DigestError::parse(self.pos, "unknown escape")),
            });
        }
    }

    fn number(&mut self) -> Result<Json, DigestError> {
        let len =
            self.run(|b| !(b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')));
        let text = &self.text[self.pos..self.pos + len];
        if text.parse::<f64>().is_err() {
            return Err(DigestError::parse(self.pos, "invalid number"));
        }
        self.pos += len;
        Ok(Json::Num(text.to_string()))
    }

    /// Parses `open`, comma-separated `item`s, then `close`; returns
    /// whether a newline follows `open`.
    fn items(
        &mut self,
        (open, close): (u8, u8),
        mut item: impl FnMut(&mut Self) -> Result<(), DigestError>,
    ) -> Result<bool, DigestError> {
        self.expect(open)?;
        let start = self.pos;
        self.skip_ws();
        let newline = self.text[start..self.pos].contains('\n');
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(newline);
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(newline);
                }
                _ => {
                    let msg = format!("expected ',' or '{}'", close as char);
                    return Err(DigestError::parse(self.pos, &msg));
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, DigestError> {
        let mut items = Vec::new();
        self.items((b'[', b']'), |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    /// An object is [`Layout::Block`] when a newline follows its `{`.
    fn object(&mut self) -> Result<Json, DigestError> {
        let mut members: Vec<(String, Json)> = Vec::new();
        let block = self.items((b'{', b'}'), |p| {
            let at = p.pos;
            let key = p.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(DigestError::parse(at, &format!("duplicate key '{key}'")));
            }
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            members.push((key, p.value()?));
            Ok(())
        })?;
        let layout = if block { Layout::Block } else { Layout::Line };
        Ok(Json::Obj(members, layout))
    }
}

// ---------------------------------------------------------------------------
// Cross-run comparison: one gate row per schema.
// ---------------------------------------------------------------------------

/// Schema tag of `BENCH_precopy.json` documents (the `bench` binary's
/// default run).
pub const BENCH_PRECOPY_SCHEMA: &str = "javmm-bench-precopy-v2";

/// Schema tag of `BENCH_evacuate.json` documents (`bench evacuate`).
pub const BENCH_EVACUATE_SCHEMA: &str = "javmm-bench-evacuate-v1";

/// Schema tag of `BENCH_evacuate_eta.json` documents: the evacuation
/// benchmark's mission-control companion (ETA calibration and watchdog
/// findings, `bench evacuate --eta-out`).
pub const BENCH_EVACUATE_ETA_SCHEMA: &str = "javmm-bench-evacuate-eta-v1";

/// Schema tag of `BENCH_cold.json` documents (`bench cold`).
pub const BENCH_COLD_SCHEMA: &str = "javmm-bench-cold-v1";

/// Which direction of change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// An increase beyond the threshold is a regression (durations, bytes).
    HigherWorse,
    /// A decrease beyond the threshold is a regression (throughputs).
    LowerWorse,
}

use Direction::{HigherWorse, LowerWorse};

/// One gated schema: what baseline and candidate must agree on, and the
/// relative change past which each metric regresses. Paths are dotted
/// (`scan.pages_per_cpu_sec`).
#[derive(Debug)]
pub struct Gate {
    /// The schema id this row gates.
    pub schema: &'static str,
    /// String fields both documents must agree on; together with the
    /// schema they name the compared scenario.
    pub identity: &'static [&'static str],
    /// String fields whose any change is a regression.
    pub tripwires: &'static [&'static str],
    /// Top-level sections whose metrics apply only when both documents
    /// carry them; a section on one side only is a schema error.
    pub optional: &'static [&'static str],
    /// `(path, bad direction, threshold)` in report order. Booleans read
    /// as 1 and 0, so `LowerWorse` at 0 trips on any `true -> false` flip;
    /// zero to non-zero is infinite growth.
    pub metrics: &'static [(&'static str, Direction, f64)],
}

/// Every gated schema; [`compare`] looks the baseline's schema up here.
/// Each CI drill must trip its named metric: a seeded scan slowdown
/// `scan.pages_per_cpu_sec`, a one-entry delta cache
/// `cold.delta.saved_bytes_ratio` / `delta.saved_bytes_ratio`, a starved
/// sample ring `detect.window_hit_rate`, a serialized harness
/// `harness.parallel_speedup` (the *modeled* 4-worker speedup), pinned
/// placement `placements.sla.eviction_ns`, a frozen ETA tracker
/// `eta.p90_abs_err`.
pub const GATES: &[Gate] = &[
    Gate {
        schema: DIGEST_SCHEMA,
        identity: &["scenario.name"],
        tripwires: &["outcome.kind"],
        optional: &["cold"],
        metrics: &[
            ("totals.total_duration_ns", HigherWorse, 0.10),
            ("totals.total_bytes", HigherWorse, 0.10),
            ("totals.cpu_time_ns", HigherWorse, 0.05),
            ("downtime_ns.workload", HigherWorse, 0.10),
            ("downtime_ns.vm", HigherWorse, 0.10),
            ("pages.sent", HigherWorse, 0.10),
            ("scan.pages_per_cpu_sec", LowerWorse, 0.10),
            ("cold.delta.saved_bytes_ratio", LowerWorse, 0.05),
            ("cold.delta.cache_hit_rate", LowerWorse, 0.10),
            ("cold.deferred.sent_bytes", HigherWorse, 0.10),
        ],
    },
    // Drain outcomes plus the workload observatory's detection quality.
    Gate {
        schema: FLEET_DIGEST_SCHEMA,
        identity: &["drain.name", "drain.policy"],
        tripwires: &[],
        optional: &[],
        metrics: &[
            ("totals.eviction_ns", HigherWorse, 0.10),
            ("totals.aggregate_downtime_ns", HigherWorse, 0.10),
            ("totals.total_bytes", HigherWorse, 0.10),
            ("totals.sla_cost", HigherWorse, 0.15),
            ("totals.degraded", HigherWorse, 0.0),
            ("totals.nonconverged", HigherWorse, 0.0),
            ("detect.window_hit_rate", LowerWorse, 0.10),
            ("detect.mean_confidence", LowerWorse, 0.25),
            ("detect.period_accuracy", LowerWorse, 0.10),
        ],
    },
    // A `--scan-only` document has `"harness": null`: nothing to gate.
    Gate {
        schema: BENCH_PRECOPY_SCHEMA,
        identity: &[],
        tripwires: &[],
        optional: &[],
        metrics: &[
            ("harness.parallel_speedup", LowerWorse, 0.35),
            ("scan.speedup", LowerWorse, 0.50),
            ("harness.outputs_identical", LowerWorse, 0.0),
        ],
    },
    // The `sla_vs_random` ratios pin SLA-aware placement's edge over
    // random placement even when absolute numbers hold.
    Gate {
        schema: BENCH_EVACUATE_SCHEMA,
        identity: &["plan"],
        tripwires: &[],
        optional: &[],
        metrics: &[
            ("placements.sla.eviction_ns", HigherWorse, 0.10),
            ("placements.sla.aggregate_downtime_ns", HigherWorse, 0.10),
            ("placements.sla.total_bytes", HigherWorse, 0.10),
            ("placements.sla.sla_cost", HigherWorse, 0.15),
            ("placements.sla.degraded", HigherWorse, 0.0),
            ("sla_vs_random.sla_cost_ratio", HigherWorse, 0.05),
            ("sla_vs_random.eviction_ratio", HigherWorse, 0.10),
        ],
    },
    // A fault-free baseline holds zero watchdog findings, so any finding
    // in a candidate trips `findings.total`.
    Gate {
        schema: BENCH_EVACUATE_ETA_SCHEMA,
        identity: &["plan"],
        tripwires: &[],
        optional: &[],
        metrics: &[
            ("eta.p90_abs_err", HigherWorse, 0.25),
            ("eta.p50_abs_err", HigherWorse, 0.50),
            ("findings.total", HigherWorse, 0.0),
        ],
    },
    // Any destination verification failure trips `harness.verified`.
    Gate {
        schema: BENCH_COLD_SCHEMA,
        identity: &["roster"],
        tripwires: &[],
        optional: &[],
        metrics: &[
            ("savings.total_bytes_ratio", LowerWorse, 0.10),
            ("savings.last_iter_bytes_ratio", LowerWorse, 0.10),
            ("delta.saved_bytes_ratio", LowerWorse, 0.05),
            ("harness.verified", LowerWorse, 0.0),
        ],
    },
];

/// One metric's old-vs-new comparison.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// Dotted metric name (e.g. `scan.pages_per_cpu_sec`).
    pub metric: String,
    /// Baseline value.
    pub old: f64,
    /// Candidate value.
    pub new: f64,
    /// Signed relative change (`(new - old) / old`); `0` when both are 0.
    pub change: f64,
    /// The gate's threshold for this metric.
    pub threshold: f64,
    /// Which direction is bad for this metric.
    pub direction: Direction,
    /// Whether the change trips the gate.
    pub regressed: bool,
}

/// The result of comparing two documents.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// The schema id and the identity values both documents share.
    pub scenario: String,
    /// Tripwire fields that changed, as `(path, old, new)`; each is a
    /// regression.
    pub changed: Vec<(&'static str, String, String)>,
    /// Per-metric deltas in gate order.
    pub deltas: Vec<MetricDelta>,
}

impl CompareReport {
    /// Names of all regressed fields, changed tripwires first.
    pub fn regressions(&self) -> Vec<String> {
        let tripped = self.changed.iter().map(|c| c.0.to_string());
        let regressed = self.deltas.iter().filter(|d| d.regressed);
        tripped.chain(regressed.map(|d| d.metric.clone())).collect()
    }

    /// Whether any gate tripped.
    pub fn has_regression(&self) -> bool {
        !self.changed.is_empty() || self.deltas.iter().any(|d| d.regressed)
    }

    /// Renders the comparison as a human-readable report.
    pub fn render(&self) -> String {
        let mut out = format!("scenario: {}\n", self.scenario);
        for (path, old, new) in &self.changed {
            let _ = writeln!(out, "  {path}: {old} -> {new}  REGRESSION");
        }
        let width = self
            .deltas
            .iter()
            .map(|d| d.metric.len())
            .max()
            .unwrap_or(0);
        for d in &self.deltas {
            let (arrow, gate) = match d.direction {
                HigherWorse => ("<=", d.threshold * 100.0),
                LowerWorse => (">=", -d.threshold * 100.0),
            };
            let gate = if gate == 0.0 {
                "0".to_string()
            } else {
                format!("{gate:+.0}")
            };
            let _ = writeln!(
                out,
                "  {:<width$} {} -> {}  {:+.2}% (gate: {arrow} {gate}%)  {}",
                d.metric,
                Json::from(d.old),
                Json::from(d.new),
                d.change * 100.0,
                if d.regressed { "REGRESSION" } else { "ok" },
            );
        }
        let regs = self.regressions();
        if regs.is_empty() {
            out.push_str("verdict: OK\n");
        } else {
            let _ = writeln!(out, "verdict: REGRESSION in {}", regs.join(", "));
        }
        out
    }
}

fn at<'a>(doc: &'a Json, path: &str) -> Option<&'a Json> {
    doc.get(&path.split('.').collect::<Vec<_>>())
}

fn require_str<'a>(doc: &'a Json, path: &str) -> Result<&'a str, DigestError> {
    at(doc, path)
        .and_then(Json::as_str)
        .ok_or_else(|| DigestError::Schema(format!("missing string field {path}")))
}

/// Numeric gate-field reader; booleans read as 1 (`true`) and 0.
fn require_gate_num(doc: &Json, path: &str) -> Result<f64, DigestError> {
    match at(doc, path) {
        Some(Json::Bool(b)) => Ok(if *b { 1.0 } else { 0.0 }),
        other => other
            .and_then(Json::as_f64)
            .ok_or_else(|| DigestError::Schema(format!("missing gate field {path}"))),
    }
}

/// Compares two documents (baseline, candidate) under the [`GATES`] row
/// of the baseline's schema. Errors if either document fails to parse,
/// the baseline's schema has no row (the error lists every gated id), the
/// schemas or identity fields differ, an optional section is on one side
/// only, or a gated field is missing.
pub fn compare(old_json: &str, new_json: &str) -> Result<CompareReport, DigestError> {
    let old = Json::parse(old_json)?;
    let new = Json::parse(new_json)?;
    let schema = require_str(&old, "schema")?;
    let gate = GATES.iter().find(|g| g.schema == schema).ok_or_else(|| {
        let known: Vec<String> = GATES.iter().map(|g| format!("'{}'", g.schema)).collect();
        DigestError::Schema(format!(
            "unsupported schema '{schema}' (known schemas: {})",
            known.join(", ")
        ))
    })?;
    let mut scenario = Vec::new();
    for path in std::iter::once(&"schema").chain(gate.identity) {
        let (a, b) = (require_str(&old, path)?, require_str(&new, path)?);
        if a != b {
            return Err(DigestError::Schema(format!(
                "documents differ in {path} ('{a}' vs '{b}')"
            )));
        }
        scenario.push(a);
    }
    let mut changed = Vec::new();
    for &path in gate.tripwires {
        let (a, b) = (require_str(&old, path)?, require_str(&new, path)?);
        if a != b {
            changed.push((path, a.to_string(), b.to_string()));
        }
    }
    let mut absent = Vec::new();
    for &section in gate.optional {
        match (old.get(&[section]).is_some(), new.get(&[section]).is_some()) {
            (true, true) => {}
            (false, false) => absent.push(section),
            (old_has, _) => {
                return Err(DigestError::Schema(format!(
                    "{section} section present only in the {} document — compare runs \
                     configured identically",
                    if old_has { "baseline" } else { "candidate" }
                )));
            }
        }
    }
    let deltas = gate
        .metrics
        .iter()
        .filter(|(path, ..)| !absent.contains(&path.split('.').next().unwrap_or_default()))
        .map(|&(path, direction, threshold)| {
            let old_v = require_gate_num(&old, path)?;
            let new_v = require_gate_num(&new, path)?;
            let change = if old_v != 0.0 {
                (new_v - old_v) / old_v
            } else if new_v == 0.0 {
                0.0
            } else {
                // From zero to non-zero: infinite relative growth.
                f64::INFINITY
            };
            let regressed = match direction {
                HigherWorse => change > threshold,
                LowerWorse => change < -threshold,
            };
            Ok(MetricDelta {
                metric: path.to_string(),
                old: old_v,
                new: new_v,
                change,
                threshold,
                direction,
                regressed,
            })
        })
        .collect::<Result<_, DigestError>>()?;
    Ok(CompareReport {
        scenario: scenario.join(" "),
        changed,
        deltas,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_json(name: &str, scan_pps: f64, cpu_ns: u64, kind: &str) -> String {
        format!(
            r#"{{
              "schema": "javmm-run-digest-v2",
              "scenario": {{"name": "{name}", "workload": "derby", "assisted": true, "seed": 3}},
              "outcome": {{"kind": "{kind}", "fault": "none", "stop_reason": "dirty_threshold"}},
              "totals": {{"total_duration_ns": 1000, "total_bytes": 2000, "cpu_time_ns": {cpu_ns}, "iterations": 5, "stragglers": 0}},
              "pages": {{"sent": 100, "skipped_transfer": 10, "skipped_dirty": 5}},
              "downtime_ns": {{"workload": 300, "vm": 200, "safepoint_wait": 0, "enforced_gc": 0, "final_update": 0, "last_iteration": 100, "resume": 100}},
              "scan": {{"pages_scanned": 400, "scan_cpu_ns": 100, "pages_per_cpu_sec": {scan_pps}}},
              "histograms": {{}},
              "counters": {{}},
              "findings": []
            }}"#
        )
    }

    #[test]
    fn parser_round_trips_all_value_shapes() {
        let doc = r#"{"a": [1, -2.5, 1e3], "b": {"c": "x\nyA"}, "d": null, "e": true}"#;
        let v = Json::parse(doc).unwrap();
        let a = v.get(&["a"]).unwrap();
        let Json::Arr(items) = a else {
            panic!("not an array: {a:?}")
        };
        let nums: Vec<f64> = items.iter().filter_map(Json::as_f64).collect();
        assert_eq!(nums, [1.0, -2.5, 1000.0]);
        assert_eq!(v.get(&["b", "c"]).and_then(Json::as_str), Some("x\nyA"));
        assert_eq!(v.get(&["d"]), Some(&Json::Null));
        assert_eq!(v.get(&["e"]), Some(&Json::Bool(true)));
        assert!(Json::parse(r#"{"a": }"#).is_err());
        assert!(Json::parse("[1,2] trailing").is_err());
    }

    #[test]
    fn renderer_keeps_layout_number_text_and_maps_non_finite_to_null() {
        let doc = Json::obj([
            (
                "a",
                Json::line([("x", 1u64.into()), ("y", Json::fixed(0.5, 3))]),
            ),
            (
                "b",
                Json::Arr(vec![f64::NAN.into(), 2.5.into(), None::<u64>.into()]),
            ),
            ("c", Json::Arr(Vec::new())),
            ("d", Json::fixed(f64::INFINITY, 2)),
            ("e", "q\"\n".into()),
        ]);
        let text = doc.render();
        let want = r#"{
  "a": {"x": 1, "y": 0.500},
  "b": [
    null,
    2.5,
    null
  ],
  "c": [
  ],
  "d": null,
  "e": "q\"\n"
}
"#;
        assert_eq!(text, want);
        assert_eq!(Json::parse(&text).unwrap().render(), text);
    }

    #[test]
    fn repeated_keys_are_parse_errors() {
        for doc in [r#"{"a": 1, "a": 2}"#, r#"{"o": {"k": 1, "j": 2, "k": 3}}"#] {
            assert!(
                matches!(Json::parse(doc), Err(DigestError::Parse(..))),
                "{doc}"
            );
        }
    }

    #[test]
    fn parser_rejects_deep_nesting_without_panicking() {
        let deep = "[".repeat(100_000);
        assert!(matches!(Json::parse(&deep), Err(DigestError::Parse(..))));
        let at_cap = format!(
            "{}{}",
            "[".repeat(MAX_JSON_DEPTH),
            "]".repeat(MAX_JSON_DEPTH)
        );
        assert!(Json::parse(&at_cap).is_ok());
        let past_cap = format!("[{at_cap}]");
        assert!(Json::parse(&past_cap).is_err());
    }

    /// Every committed `results/*.json` document plus `BENCHMARK.json`.
    fn committed_documents() -> Vec<(String, String)> {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut paths: Vec<_> = std::fs::read_dir(format!("{root}/results"))
            .expect("results directory")
            .map(|e| e.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        paths.push(format!("{root}/BENCHMARK.json").into());
        paths
            .into_iter()
            .map(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                (
                    name,
                    std::fs::read_to_string(&p).expect("committed document"),
                )
            })
            .collect()
    }

    #[test]
    fn committed_documents_round_trip_and_survive_damage() {
        let docs = committed_documents();
        assert!(docs.len() >= 11, "found only {} documents", docs.len());
        for (name, text) in &docs {
            let parsed = Json::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(&parsed.render(), text, "{name} does not round-trip");
            // Every strict prefix leaves the top-level object open.
            let doc = text.trim_end();
            for end in 0..doc.len() {
                if let Some(prefix) = doc.get(..end) {
                    assert!(
                        Json::parse(prefix).is_err(),
                        "{name}: {end}-byte prefix parsed"
                    );
                }
            }
            // An overwritten byte must yield a report or an error, never a
            // panic.
            let mut bytes = text.as_bytes().to_vec();
            for (i, b) in (0..bytes.len())
                .step_by(17)
                .zip([b'9', b'"', b'}', b'x'].iter().cycle())
            {
                let saved = std::mem::replace(&mut bytes[i], *b);
                if let Ok(damaged) = std::str::from_utf8(&bytes) {
                    let _ = compare(text, damaged);
                }
                bytes[i] = saved;
            }
            // Every gated document compares clean against itself.
            match (name.as_str(), compare(text, text)) {
                ("BENCH_fleet.json" | "BENCHMARK.json", r) => {
                    assert!(matches!(r, Err(DigestError::Schema(_))), "{name}: {r:?}")
                }
                (_, Ok(r)) => assert!(!r.has_regression(), "{name}:\n{}", r.render()),
                (_, Err(e)) => panic!("{name}: {e}"),
            }
        }
    }

    #[test]
    fn identical_digests_compare_clean() {
        let a = digest_json("derby", 4e9, 500, "completed");
        let report = compare(&a, &a).unwrap();
        assert!(!report.has_regression());
        assert!(report.regressions().is_empty());
        assert!(report.render().contains("verdict: OK"));
    }

    #[test]
    fn scan_throughput_drop_trips_only_its_own_gate() {
        let old = digest_json("derby", 4e9, 500, "completed");
        // 20% throughput drop, 2.5% CPU growth: only the scan gate trips.
        let new = digest_json("derby", 3.2e9, 512, "completed");
        let report = compare(&old, &new).unwrap();
        assert!(report.has_regression());
        assert_eq!(report.regressions(), vec!["scan.pages_per_cpu_sec"]);
        assert!(report.render().contains("scan.pages_per_cpu_sec"));
    }

    #[test]
    fn outcome_kind_change_is_always_a_regression() {
        let old = digest_json("derby", 4e9, 500, "completed");
        let new = digest_json("derby", 4e9, 500, "degraded_vanilla");
        let report = compare(&old, &new).unwrap();
        assert!(report.has_regression());
        assert_eq!(report.regressions()[0], "outcome.kind");
        assert!(report
            .render()
            .contains("  outcome.kind: completed -> degraded_vanilla  REGRESSION"));
    }

    fn fleet_json(policy: &str, eviction_ns: u64, hit_rate: f64) -> String {
        format!(
            r#"{{
              "schema": "javmm-fleet-digest-v2",
              "drain": {{"name": "drain4", "policy": "{policy}", "seed": 7, "uplink_bytes_per_sec": 125000000, "max_concurrent": 3}},
              "totals": {{"eviction_ns": {eviction_ns}, "aggregate_downtime_ns": 900, "total_bytes": 5000, "sla_cost": 10.0, "sla_downtime": 4.0, "sla_brownout": 3.0, "sla_penalty": 3.0, "degraded": 0, "nonconverged": 0}},
              "detect": {{"estimated": 2, "cyclic_declared": 2, "window_hits": 2, "window_hit_rate": {hit_rate}, "mean_confidence": 0.6, "period_accuracy": 0.95}},
              "vms": [],
              "histograms": {{}}
            }}"#
        )
    }

    fn evacuate_json(eviction_ns: u64, cost_ratio: f64) -> String {
        format!(
            r#"{{
              "schema": "javmm-bench-evacuate-v1",
              "plan": "evacuate48",
              "placements": {{
                "sla": {{"eviction_ns": {eviction_ns}, "aggregate_downtime_ns": 900, "total_bytes": 5000, "sla_cost": 10.0, "degraded": 0, "nonconverged": 0}},
                "greedy": {{"eviction_ns": 1100, "aggregate_downtime_ns": 950, "total_bytes": 5100, "sla_cost": 11.0, "degraded": 0, "nonconverged": 0}},
                "random": {{"eviction_ns": 1200, "aggregate_downtime_ns": 980, "total_bytes": 5200, "sla_cost": 12.0, "degraded": 0, "nonconverged": 0}}
              }},
              "sla_vs_random": {{"sla_cost_ratio": {cost_ratio}, "eviction_ratio": 0.9}}
            }}"#
        )
    }

    #[test]
    fn evacuate_compare_gates_placement_outcomes() {
        let old = evacuate_json(1000, 0.83);
        let report = compare(&old, &old).unwrap();
        assert!(!report.has_regression());
        // The pin drill funnels the fleet through one ingress: eviction
        // time explodes and the gate must name exactly that metric.
        let pinned = evacuate_json(4000, 0.83);
        let report = compare(&old, &pinned).unwrap();
        assert!(report.has_regression());
        assert!(report
            .regressions()
            .contains(&"placements.sla.eviction_ns".to_string()));
        // Losing the cost edge over random placement is its own gate.
        let edgeless = evacuate_json(1000, 1.0);
        let report = compare(&old, &edgeless).unwrap();
        assert!(report
            .regressions()
            .contains(&"sla_vs_random.sla_cost_ratio".to_string()));
    }

    fn eta_json(p90: f64, findings: u64) -> String {
        format!(
            r#"{{
              "schema": "javmm-bench-evacuate-eta-v1",
              "plan": "evacuate48",
              "eta": {{"vms": 48, "predictions": 300, "p50_abs_err": 0.05, "p90_abs_err": {p90}, "drift": 0.01}},
              "findings": {{"total": {findings}}}
            }}"#
        )
    }

    #[test]
    fn evacuate_eta_compare_gates_calibration() {
        let old = eta_json(0.2, 0);
        let report = compare(&old, &old).unwrap();
        assert!(!report.has_regression());
        // The frozen-ETA drill stops re-projection: the admission-time
        // guess goes stale and the gate must name the p90 metric.
        let frozen = eta_json(2.0, 0);
        let report = compare(&old, &frozen).unwrap();
        assert!(report.has_regression());
        assert!(report
            .regressions()
            .contains(&"eta.p90_abs_err".to_string()));
        assert!(report.render().contains("eta.p90_abs_err"));
        // Watchdog findings on a fault-free plan are a regression outright.
        let noisy = eta_json(0.2, 2);
        let report = compare(&old, &noisy).unwrap();
        assert_eq!(report.regressions(), vec!["findings.total"]);
        // Mismatched plans are an error, not a comparison.
        let other = old.replace("evacuate48", "evacuate12");
        assert!(matches!(compare(&old, &other), Err(DigestError::Schema(_))));
    }

    #[test]
    fn fleet_compare_gates_detection_quality() {
        let old = fleet_json("cycle", 1000, 1.0);
        let same = compare(&old, &old).unwrap();
        assert!(!same.has_regression());
        assert_eq!(same.scenario, "javmm-fleet-digest-v2 drain4 cycle");
        // Halving the window-hit rate trips only the detect gate.
        let worse = fleet_json("cycle", 1000, 0.5);
        let report = compare(&old, &worse).unwrap();
        assert_eq!(report.regressions(), vec!["detect.window_hit_rate"]);
        assert!(report.render().contains("detect.window_hit_rate"));
        // Mismatched policies are an error, not a comparison.
        let fifo = fleet_json("fifo", 1000, 1.0);
        assert!(matches!(compare(&old, &fifo), Err(DigestError::Schema(_))));
    }

    #[test]
    fn schema_selects_the_gate_row() {
        let run = digest_json("derby", 4e9, 500, "completed");
        assert!(!compare(&run, &run).unwrap().has_regression());
        let fleet = fleet_json("cycle", 1000, 1.0);
        assert!(!compare(&fleet, &fleet).unwrap().has_regression());
        let bench = bench_json(3.4, true);
        assert!(!compare(&bench, &bench).unwrap().has_regression());
        assert!(matches!(compare(&run, &fleet), Err(DigestError::Schema(_))));
    }

    #[test]
    fn unknown_schema_lists_known_ids() {
        let bogus = r#"{"schema": "javmm-made-up-v9"}"#;
        let err = match compare(bogus, bogus) {
            Err(DigestError::Schema(msg)) => msg,
            other => panic!("expected a schema error, got {other:?}"),
        };
        assert!(err.contains("javmm-made-up-v9"), "{err}");
        for gate in GATES {
            assert!(
                err.contains(gate.schema),
                "error must list '{}': {err}",
                gate.schema
            );
        }
    }

    #[test]
    fn gate_table_has_one_row_per_schema() {
        for (i, gate) in GATES.iter().enumerate() {
            assert!(
                GATES[..i].iter().all(|g| g.schema != gate.schema),
                "{} gated twice",
                gate.schema
            );
        }
        let metrics: usize = GATES.iter().map(|g| g.metrics.len()).sum();
        assert_eq!((GATES.len(), metrics), (6, 36));
    }

    fn cold_digest_json(name: &str, saved_ratio: f64, hit_rate: f64, sent_bytes: u64) -> String {
        digest_json(name, 4e9, 500, "completed").replace(
            r#""histograms": {}"#,
            &format!(
                r#""cold": {{
                      "pages": 5000,
                      "deferred": {{"pages": 5000, "sent_pages": 4800, "sent_bytes": {sent_bytes}, "pending_at_pause": 200}},
                      "delta": {{"hits": 900, "misses": 4800, "fallbacks": 20, "overflows": 0, "wire_bytes": 290000, "full_bytes": 3790000, "saved_bytes_ratio": {saved_ratio}, "cache_hit_rate": {hit_rate}}}
                    }},
                    "histograms": {{}}"#
            ),
        )
    }

    #[test]
    fn cold_section_adds_gates_to_compare() {
        let old = cold_digest_json("derby", 0.9, 0.16, 1_000_000);
        let report = compare(&old, &old).unwrap();
        assert!(!report.has_regression());
        assert_eq!(report.deltas.len(), 10);
        // The cache-shrink drill collapses the codec's savings: the gate
        // must name the delta ratio.
        let thrashed = cold_digest_json("derby", 0.05, 0.01, 1_000_000);
        let report = compare(&old, &thrashed).unwrap();
        assert!(report.has_regression());
        let regs = report.regressions();
        assert!(
            regs.contains(&"cold.delta.saved_bytes_ratio".to_string()),
            "{regs:?}"
        );
        // A one-sided cold section is a config mismatch, not a comparison.
        let plain = digest_json("derby", 4e9, 500, "completed");
        assert_eq!(compare(&plain, &plain).unwrap().deltas.len(), 7);
        assert!(matches!(compare(&old, &plain), Err(DigestError::Schema(_))));
        assert!(matches!(compare(&plain, &old), Err(DigestError::Schema(_))));
    }

    fn cold_bench_json(total_ratio: f64, last_ratio: f64, saved: f64, verified: bool) -> String {
        format!(
            r#"{{
              "schema": "javmm-bench-cold-v1",
              "roster": "cold5",
              "savings": {{"total_bytes_ratio": {total_ratio}, "last_iter_bytes_ratio": {last_ratio}}},
              "delta": {{"saved_bytes_ratio": {saved}}},
              "harness": {{"verified": {verified}}}
            }}"#
        )
    }

    #[test]
    fn cold_bench_compare_gates_savings() {
        let old = cold_bench_json(0.3, 0.5, 0.9, true);
        let report = compare(&old, &old).unwrap();
        assert!(!report.has_regression());
        // The metric column fits the longest name, and a zero threshold
        // prints without a sign.
        let render = report.render();
        assert!(
            render.contains("  harness.verified              1 -> 1  +0.00% (gate: >= 0%)  ok\n"),
            "{render}"
        );
        assert!(render
            .contains("  savings.last_iter_bytes_ratio 0.5 -> 0.5  +0.00% (gate: >= -10%)  ok\n"));
        // The one-entry-cache drill: delta savings collapse, the gate must
        // name delta.saved_bytes_ratio.
        let drilled = cold_bench_json(0.25, 0.45, 0.05, true);
        let report = compare(&old, &drilled).unwrap();
        assert!(report.has_regression());
        assert!(
            report
                .regressions()
                .contains(&"delta.saved_bytes_ratio".to_string()),
            "{:?}",
            report.regressions()
        );
        // A verification failure is a regression outright.
        let unverified = cold_bench_json(0.3, 0.5, 0.9, false);
        let report = compare(&old, &unverified).unwrap();
        assert!(report
            .regressions()
            .contains(&"harness.verified".to_string()));
        // Mismatched rosters are an error, not a comparison.
        let other = old.replace("cold5", "cold9");
        assert!(matches!(compare(&old, &other), Err(DigestError::Schema(_))));
    }

    fn bench_json(parallel_speedup: f64, outputs_identical: bool) -> String {
        format!(
            r#"{{
              "schema": "javmm-bench-precopy-v2",
              "workers": {{"requested": null, "effective": 4, "available_parallelism": 4, "source": "detected", "capped": false, "serialized_pool": false}},
              "scan": {{"pages_per_rep": 800000, "reps": 40, "per_bit_pages_per_sec": 100000000, "word_pages_per_sec": 900000000, "speedup": 9.0}},
              "harness": {{"cells": 24, "speedup_basis": "modeled", "serial_secs": 40.0, "rows": [], "parallel_speedup": {parallel_speedup}, "outputs_identical": {outputs_identical}}}
            }}"#
        )
    }

    #[test]
    fn bench_compare_gates_parallel_efficiency() {
        let good = bench_json(3.4, true);
        assert!(!compare(&good, &good).unwrap().has_regression());
        // A serialized-pool build collapses the modeled speedup to ~1.0:
        // the gate must trip and name the speedup metric.
        let serialized = bench_json(1.0, true);
        let report = compare(&good, &serialized).unwrap();
        assert_eq!(report.regressions(), vec!["harness.parallel_speedup"]);
        assert!(report.render().contains("harness.parallel_speedup"));
        // Losing byte-identity is a regression outright (bool gate).
        let diverged = bench_json(3.4, false);
        let report = compare(&good, &diverged).unwrap();
        assert_eq!(report.regressions(), vec!["harness.outputs_identical"]);
        // A --scan-only document (harness null) cannot be gated.
        let scan_only = good.replace(r#""harness": {"cells": 24"#, r#""ignored": {"cells": 24"#);
        assert!(matches!(
            compare(&good, &scan_only),
            Err(DigestError::Schema(_))
        ));
    }

    #[test]
    fn fleet_detect_accounting_handles_steady_rosters() {
        let detect = FleetDetect::from_vms(&[]);
        assert_eq!(detect.cyclic_declared, 0);
        assert_eq!(detect.window_hit_rate, 1.0);
        assert_eq!(detect.period_accuracy, 1.0);
    }

    #[test]
    fn mismatched_scenarios_and_schemas_are_errors() {
        let a = digest_json("derby", 4e9, 500, "completed");
        let b = digest_json("crypto", 4e9, 500, "completed");
        assert!(matches!(compare(&a, &b), Err(DigestError::Schema(_))));
        let bad = a.replace("javmm-run-digest-v2", "javmm-run-digest-v0");
        assert!(matches!(compare(&a, &bad), Err(DigestError::Schema(_))));
        assert!(matches!(
            compare("not json", &a),
            Err(DigestError::Parse(_, _))
        ));
    }
}
