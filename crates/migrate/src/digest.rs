//! Post-run digests: schema-versioned JSON summaries and a cross-run
//! regression gate.
//!
//! A [`RunDigest`] folds a [`MigrationReport`] (including its flight
//! recorder snapshot) into a compact, byte-deterministic JSON document:
//! phase and downtime attribution, skipped-vs-sent page accounting,
//! histogram quantiles, scan throughput, fault attribution for degraded
//! outcomes, and a findings list of rule-based anomalies. Digests are
//! meant to be committed as baselines and diffed across runs: [`compare`]
//! parses two digest documents (with the built-in minimal JSON reader — no
//! external dependency) and applies per-metric regression thresholds.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use simkit::telemetry::export::escape_json;
use simkit::Subsystem;

use crate::report::{MigrationReport, StopReason};
use crate::MigrationOutcome;

/// Schema identifier embedded in (and required of) every digest document.
/// v2 added the `series` section (workload-observatory sample rings).
pub const DIGEST_SCHEMA: &str = "javmm-run-digest-v2";

/// Schema identifier of run digests carrying a `cold` section. Emitted
/// *only* when the run's report has a cold-assist summary, so every
/// digest produced with the subsystem disabled stays byte-identical to
/// its committed v2 baseline. [`compare`] accepts both ids.
pub const DIGEST_SCHEMA_V3: &str = "javmm-run-digest-v3";

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

/// The cold-assist section of a v3 digest: what the defer and delta
/// actions did, straight off the report's [`crate::assist::ColdReport`]
/// plus its derived ratios (frozen into the document so gates read them
/// without re-deriving).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColdDigest {
    /// Pages ever classified cold.
    pub pages: u64,
    /// Pages split out of hot snapshots into the bulk stream.
    pub deferred_pages: u64,
    /// Deferred pages actually shipped by the bulk stream.
    pub deferred_sent_pages: u64,
    /// Wire bytes the bulk stream shipped.
    pub deferred_sent_bytes: u64,
    /// Deferred pages still pending when the VM paused.
    pub pending_at_pause: u64,
    /// Delta-cache hits that produced a delta cheaper than the full page.
    pub delta_hits: u64,
    /// Delta-cache misses (first sends).
    pub delta_misses: u64,
    /// Hits whose encoding fell back to the full page.
    pub delta_fallbacks: u64,
    /// Cache evictions forced by the capacity bound.
    pub delta_overflows: u64,
    /// Wire bytes of the pages sent as deltas.
    pub delta_wire_bytes: u64,
    /// What those same pages would have cost sent whole.
    pub delta_full_bytes: u64,
    /// `1 - wire/full` over delta-sent pages.
    pub delta_saved_bytes_ratio: f64,
    /// Consults finding a prior version, over all consults.
    pub delta_cache_hit_rate: f64,
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
    /// Cold-assist summary; `None` (and absent from the JSON, keeping the
    /// v2 schema) unless the run had the subsystem enabled.
    pub cold: Option<ColdDigest>,
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
                    HistDigest {
                        count: h.hist.count(),
                        min: h.hist.min(),
                        max: h.hist.max(),
                        sum: h.hist.sum(),
                        p50: h.hist.quantile(0.50),
                        p95: h.hist.quantile(0.95),
                        p99: h.hist.quantile(0.99),
                    },
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
            cold: report.cold.map(|c| ColdDigest {
                pages: c.cold_pages,
                deferred_pages: c.deferred_pages,
                deferred_sent_pages: c.deferred_sent_pages,
                deferred_sent_bytes: c.deferred_sent_bytes,
                pending_at_pause: c.pending_at_pause,
                delta_hits: c.delta_hits,
                delta_misses: c.delta_misses,
                delta_fallbacks: c.delta_fallbacks,
                delta_overflows: c.delta_overflows,
                delta_wire_bytes: c.delta_wire_bytes,
                delta_full_bytes: c.delta_full_bytes,
                delta_saved_bytes_ratio: c.saved_bytes_ratio(),
                delta_cache_hit_rate: c.cache_hit_rate(),
            }),
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
        let mut o = String::new();
        o.push_str("{\n");
        let schema = if self.cold.is_some() {
            DIGEST_SCHEMA_V3
        } else {
            DIGEST_SCHEMA
        };
        let _ = writeln!(o, "  \"schema\": \"{schema}\",");
        o.push_str("  \"scenario\": {\n");
        let _ = writeln!(o, "    \"name\": \"{}\",", escape_json(&self.meta.name));
        let _ = writeln!(
            o,
            "    \"workload\": \"{}\",",
            escape_json(&self.meta.workload)
        );
        let _ = writeln!(o, "    \"assisted\": {},", self.meta.assisted);
        let _ = writeln!(o, "    \"seed\": {}", self.meta.seed);
        o.push_str("  },\n");
        o.push_str("  \"outcome\": {\n");
        let _ = writeln!(o, "    \"kind\": \"{}\",", self.outcome_kind);
        let _ = writeln!(o, "    \"fault\": \"{}\",", self.fault);
        let _ = writeln!(o, "    \"stop_reason\": \"{}\"", self.stop_reason);
        o.push_str("  },\n");
        o.push_str("  \"totals\": {\n");
        let _ = writeln!(o, "    \"total_duration_ns\": {},", self.total_duration_ns);
        let _ = writeln!(o, "    \"total_bytes\": {},", self.total_bytes);
        let _ = writeln!(o, "    \"cpu_time_ns\": {},", self.cpu_time_ns);
        let _ = writeln!(o, "    \"iterations\": {},", self.iterations);
        let _ = writeln!(o, "    \"stragglers\": {}", self.stragglers);
        o.push_str("  },\n");
        o.push_str("  \"pages\": {\n");
        let _ = writeln!(o, "    \"sent\": {},", self.pages_sent);
        let _ = writeln!(
            o,
            "    \"skipped_transfer\": {},",
            self.pages_skipped_transfer
        );
        let _ = writeln!(o, "    \"skipped_dirty\": {}", self.pages_skipped_dirty);
        o.push_str("  },\n");
        o.push_str("  \"downtime_ns\": {\n");
        let _ = writeln!(o, "    \"workload\": {},", self.downtime_workload_ns);
        let _ = writeln!(o, "    \"vm\": {},", self.downtime_vm_ns);
        let _ = writeln!(o, "    \"safepoint_wait\": {},", self.safepoint_wait_ns);
        let _ = writeln!(o, "    \"enforced_gc\": {},", self.enforced_gc_ns);
        let _ = writeln!(o, "    \"final_update\": {},", self.final_update_ns);
        let _ = writeln!(o, "    \"last_iteration\": {},", self.last_iteration_ns);
        let _ = writeln!(o, "    \"resume\": {}", self.resume_ns);
        o.push_str("  },\n");
        o.push_str("  \"scan\": {\n");
        let _ = writeln!(o, "    \"pages_scanned\": {},", self.pages_scanned);
        let _ = writeln!(o, "    \"scan_cpu_ns\": {},", self.scan_cpu_ns);
        let _ = writeln!(
            o,
            "    \"pages_per_cpu_sec\": {}",
            fmt_f64(self.scan_pages_per_cpu_sec)
        );
        o.push_str("  },\n");
        if let Some(c) = &self.cold {
            o.push_str("  \"cold\": {\n");
            let _ = writeln!(o, "    \"pages\": {},", c.pages);
            o.push_str("    \"deferred\": {\n");
            let _ = writeln!(o, "      \"pages\": {},", c.deferred_pages);
            let _ = writeln!(o, "      \"sent_pages\": {},", c.deferred_sent_pages);
            let _ = writeln!(o, "      \"sent_bytes\": {},", c.deferred_sent_bytes);
            let _ = writeln!(o, "      \"pending_at_pause\": {}", c.pending_at_pause);
            o.push_str("    },\n");
            o.push_str("    \"delta\": {\n");
            let _ = writeln!(o, "      \"hits\": {},", c.delta_hits);
            let _ = writeln!(o, "      \"misses\": {},", c.delta_misses);
            let _ = writeln!(o, "      \"fallbacks\": {},", c.delta_fallbacks);
            let _ = writeln!(o, "      \"overflows\": {},", c.delta_overflows);
            let _ = writeln!(o, "      \"wire_bytes\": {},", c.delta_wire_bytes);
            let _ = writeln!(o, "      \"full_bytes\": {},", c.delta_full_bytes);
            let _ = writeln!(
                o,
                "      \"saved_bytes_ratio\": {},",
                fmt_f64(c.delta_saved_bytes_ratio)
            );
            let _ = writeln!(
                o,
                "      \"cache_hit_rate\": {}",
                fmt_f64(c.delta_cache_hit_rate)
            );
            o.push_str("    }\n");
            o.push_str("  },\n");
        }
        o.push_str("  \"histograms\": {\n");
        for (i, (key, h)) in self.histograms.iter().enumerate() {
            let _ = write!(
                o,
                "    \"{}\": {{\"count\": {}, \"min\": {}, \"max\": {}, \"sum\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                escape_json(key), h.count, h.min, h.max, h.sum, h.p50, h.p95, h.p99
            );
            o.push_str(if i + 1 < self.histograms.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        o.push_str("  },\n");
        o.push_str("  \"series\": {\n");
        for (i, (key, s)) in self.series.iter().enumerate() {
            let _ = write!(
                o,
                "    \"{}\": {{\"count\": {}, \"dropped\": {}, \"cadence_ns\": {}, \"mean\": {}, \"last\": {}, \"p50\": {}, \"p95\": {}}}",
                escape_json(key),
                s.count,
                s.dropped,
                s.cadence_ns,
                fmt_f64(s.mean),
                fmt_f64(s.last),
                fmt_f64(s.p50),
                fmt_f64(s.p95)
            );
            o.push_str(if i + 1 < self.series.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        o.push_str("  },\n");
        o.push_str("  \"counters\": {\n");
        for (i, (key, v)) in self.counters.iter().enumerate() {
            let _ = write!(o, "    \"{}\": {}", escape_json(key), v);
            o.push_str(if i + 1 < self.counters.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        o.push_str("  },\n");
        o.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let _ = write!(
                o,
                "    {{\"rule\": \"{}\", \"detail\": \"{}\"}}",
                f.rule,
                escape_json(&f.detail)
            );
            o.push_str(if i + 1 < self.findings.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        o.push_str("  ]\n");
        o.push_str("}\n");
        o
    }
}

/// Formats an `f64` as a JSON number (non-finite values become `null`).
fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
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

/// Incremental histogram merger for streamed drains: telemetry snapshots
/// fold in one at a time — as each VM's migration completes — and the
/// merged state is a bounded set of log-bucket histograms, not the
/// snapshots themselves. Bucket-wise merging is commutative, so folding in
/// completion order produces the same summaries as folding in roster
/// order ([`Histogram::merge`]).
///
/// [`Histogram::merge`]: simkit::telemetry::hist::Histogram::merge
#[derive(Debug, Default)]
pub struct HistMerger {
    merged: BTreeMap<String, simkit::telemetry::hist::Histogram>,
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
            .map(|(key, h)| {
                (
                    key,
                    HistDigest {
                        count: h.count(),
                        min: h.min(),
                        max: h.max(),
                        sum: h.sum(),
                        p50: h.quantile(0.50),
                        p95: h.quantile(0.95),
                        p99: h.quantile(0.99),
                    },
                )
            })
            .collect()
    }
}

/// Merges raw per-VM histograms (keyed `subsystem/name`) into fleet-level
/// summaries — statistically identical to having recorded every VM's
/// samples into one fleet-wide recorder. Batch form of [`HistMerger`].
pub fn merge_histograms<'a>(
    telemetries: impl IntoIterator<Item = &'a simkit::telemetry::RunTelemetry>,
) -> BTreeMap<String, HistDigest> {
    let mut merger = HistMerger::new();
    for t in telemetries {
        merger.add(t);
    }
    merger.finish()
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
    /// pre-merged fleet histograms (see [`merge_histograms`]).
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
        let mut o = String::new();
        o.push_str("{\n");
        let _ = writeln!(o, "  \"schema\": \"{FLEET_DIGEST_SCHEMA}\",");
        o.push_str("  \"drain\": {\n");
        let _ = writeln!(o, "    \"name\": \"{}\",", escape_json(&self.meta.name));
        let _ = writeln!(o, "    \"policy\": \"{}\",", escape_json(&self.meta.policy));
        let _ = writeln!(o, "    \"seed\": {},", self.meta.seed);
        let _ = writeln!(
            o,
            "    \"uplink_bytes_per_sec\": {},",
            fmt_f64(self.meta.uplink_bytes_per_sec)
        );
        let _ = writeln!(o, "    \"max_concurrent\": {}", self.meta.max_concurrent);
        o.push_str("  },\n");
        o.push_str("  \"totals\": {\n");
        let _ = writeln!(o, "    \"eviction_ns\": {},", self.eviction_ns);
        let _ = writeln!(
            o,
            "    \"aggregate_downtime_ns\": {},",
            self.aggregate_downtime_ns
        );
        let _ = writeln!(o, "    \"total_bytes\": {},", self.total_bytes);
        let _ = writeln!(o, "    \"sla_cost\": {},", fmt_f64(self.sla_total.total()));
        let _ = writeln!(
            o,
            "    \"sla_downtime\": {},",
            fmt_f64(self.sla_total.downtime)
        );
        let _ = writeln!(
            o,
            "    \"sla_brownout\": {},",
            fmt_f64(self.sla_total.brownout)
        );
        let _ = writeln!(
            o,
            "    \"sla_penalty\": {},",
            fmt_f64(self.sla_total.penalty)
        );
        let _ = writeln!(o, "    \"degraded\": {},", self.degraded);
        let _ = writeln!(o, "    \"nonconverged\": {}", self.nonconverged);
        o.push_str("  },\n");
        o.push_str("  \"detect\": {\n");
        let _ = writeln!(o, "    \"estimated\": {},", self.detect.estimated);
        let _ = writeln!(
            o,
            "    \"cyclic_declared\": {},",
            self.detect.cyclic_declared
        );
        let _ = writeln!(o, "    \"window_hits\": {},", self.detect.window_hits);
        let _ = writeln!(
            o,
            "    \"window_hit_rate\": {},",
            fmt_f64(self.detect.window_hit_rate)
        );
        let _ = writeln!(
            o,
            "    \"mean_confidence\": {},",
            fmt_f64(self.detect.mean_confidence)
        );
        let _ = writeln!(
            o,
            "    \"period_accuracy\": {}",
            fmt_f64(self.detect.period_accuracy)
        );
        o.push_str("  },\n");
        o.push_str("  \"vms\": [\n");
        for (i, v) in self.vms.iter().enumerate() {
            o.push_str("    {\n");
            let _ = writeln!(
                o,
                "      \"name\": \"{}\",",
                escape_json(&v.digest.meta.name)
            );
            let _ = writeln!(o, "      \"workload\": \"{}\",", v.digest.meta.workload);
            let _ = writeln!(o, "      \"assisted\": {},", v.digest.meta.assisted);
            let _ = writeln!(o, "      \"outcome\": \"{}\",", v.digest.outcome_kind);
            let _ = writeln!(o, "      \"stop_reason\": \"{}\",", v.digest.stop_reason);
            let _ = writeln!(o, "      \"admitted_at_ns\": {},", v.admitted_at_ns);
            let _ = writeln!(o, "      \"ended_at_ns\": {},", v.ended_at_ns);
            let _ = writeln!(o, "      \"migration_ns\": {},", v.digest.total_duration_ns);
            let _ = writeln!(
                o,
                "      \"downtime_workload_ns\": {},",
                v.digest.downtime_workload_ns
            );
            let _ = writeln!(o, "      \"iterations\": {},", v.digest.iterations);
            let _ = writeln!(o, "      \"total_bytes\": {},", v.digest.total_bytes);
            let _ = writeln!(o, "      \"detected_period_ns\": {},", v.detected_period_ns);
            let _ = writeln!(
                o,
                "      \"detected_confidence\": {},",
                fmt_f64(v.detected_confidence)
            );
            let _ = writeln!(o, "      \"detect_confident\": {},", v.detect_confident);
            let _ = writeln!(o, "      \"declared_period_ns\": {},", v.declared_period_ns);
            let _ = writeln!(
                o,
                "      \"window_hit\": {},",
                match v.window_hit {
                    Some(h) => h.to_string(),
                    None => "null".to_string(),
                }
            );
            let _ = writeln!(o, "      \"sla_cost\": {}", fmt_f64(v.sla.total()));
            o.push_str(if i + 1 < self.vms.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        o.push_str("  ],\n");
        o.push_str("  \"histograms\": {\n");
        for (i, (key, h)) in self.histograms.iter().enumerate() {
            let _ = write!(
                o,
                "    \"{}\": {{\"count\": {}, \"min\": {}, \"max\": {}, \"sum\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                escape_json(key), h.count, h.min, h.max, h.sum, h.p50, h.p95, h.p99
            );
            o.push_str(if i + 1 < self.histograms.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        o.push_str("  }\n");
        o.push_str("}\n");
        o
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON reader (compare-side; no external dependency).
// ---------------------------------------------------------------------------

/// A parsed JSON value. Numbers are `f64`; every quantity a digest carries
/// is well below 2^53, so no precision is lost.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (keys sorted by `BTreeMap`).
    Obj(BTreeMap<String, Json>),
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so the cap turns hostile input into a
/// [`DigestError`] instead of a stack overflow; committed documents nest
/// at most 4 deep.
const MAX_JSON_DEPTH: usize = 64;

impl Json {
    /// Parses a JSON document nested at most 64 arrays/objects deep.
    pub fn parse(text: &str) -> Result<Json, DigestError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(DigestError::parse(p.pos, "trailing garbage"));
        }
        Ok(v)
    }

    /// Walks `path` through nested objects.
    pub fn get(&self, path: &[&str]) -> Option<&Json> {
        let mut cur = self;
        for key in path {
            match cur {
                Json::Obj(map) => cur = map.get(*key)?,
                _ => return None,
            }
        }
        Some(cur)
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
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
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
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
            let b = self
                .peek()
                .ok_or_else(|| DigestError::parse(self.pos, "unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self
                        .peek()
                        .ok_or_else(|| DigestError::parse(self.pos, "unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| core::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| DigestError::parse(self.pos, "bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs don't appear in digests;
                            // replace rather than reject if one shows up.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(DigestError::parse(self.pos, "unknown escape")),
                    }
                }
                _ => {
                    // Re-decode multi-byte UTF-8 sequences from the source.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let s = self
                        .bytes
                        .get(start..end)
                        .and_then(|s| core::str::from_utf8(s).ok())
                        .ok_or_else(|| DigestError::parse(start, "invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, DigestError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = core::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| DigestError::parse(start, "invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| DigestError::parse(start, "invalid number"))
    }

    fn array(&mut self) -> Result<Json, DigestError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(DigestError::parse(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, DigestError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(DigestError::parse(self.pos, "expected ',' or '}'")),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

// ---------------------------------------------------------------------------
// Cross-run comparison.
// ---------------------------------------------------------------------------

/// Which direction of change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// An increase beyond the threshold is a regression (durations, bytes).
    HigherWorse,
    /// A decrease beyond the threshold is a regression (throughputs).
    LowerWorse,
}

struct CompareMetric {
    path: &'static [&'static str],
    direction: Direction,
    threshold: f64,
}

/// The per-metric regression gate: JSON path, bad direction, and the
/// relative-change threshold beyond which the change is a regression.
const COMPARE_METRICS: &[CompareMetric] = &[
    CompareMetric {
        path: &["totals", "total_duration_ns"],
        direction: Direction::HigherWorse,
        threshold: 0.10,
    },
    CompareMetric {
        path: &["totals", "total_bytes"],
        direction: Direction::HigherWorse,
        threshold: 0.10,
    },
    CompareMetric {
        path: &["totals", "cpu_time_ns"],
        direction: Direction::HigherWorse,
        threshold: 0.05,
    },
    CompareMetric {
        path: &["downtime_ns", "workload"],
        direction: Direction::HigherWorse,
        threshold: 0.10,
    },
    CompareMetric {
        path: &["downtime_ns", "vm"],
        direction: Direction::HigherWorse,
        threshold: 0.10,
    },
    CompareMetric {
        path: &["pages", "sent"],
        direction: Direction::HigherWorse,
        threshold: 0.10,
    },
    CompareMetric {
        path: &["scan", "pages_per_cpu_sec"],
        direction: Direction::LowerWorse,
        threshold: 0.10,
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

/// The result of comparing two digests.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Scenario name both digests describe.
    pub scenario: String,
    /// Outcome-kind change, if any (`old -> new`); always a regression.
    pub outcome_changed: Option<(String, String)>,
    /// Per-metric deltas in gate order.
    pub deltas: Vec<MetricDelta>,
}

impl CompareReport {
    /// Names of all regressed metrics (`outcome` first if it changed).
    pub fn regressions(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.outcome_changed.is_some() {
            out.push("outcome.kind".to_string());
        }
        out.extend(
            self.deltas
                .iter()
                .filter(|d| d.regressed)
                .map(|d| d.metric.clone()),
        );
        out
    }

    /// Whether any gate tripped.
    pub fn has_regression(&self) -> bool {
        self.outcome_changed.is_some() || self.deltas.iter().any(|d| d.regressed)
    }

    /// Renders the comparison as a human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "scenario: {}", self.scenario);
        if let Some((old, new)) = &self.outcome_changed {
            let _ = writeln!(out, "  outcome.kind: {old} -> {new}  REGRESSION");
        }
        for d in &self.deltas {
            let arrow = match d.direction {
                Direction::HigherWorse => "<=",
                Direction::LowerWorse => ">=",
            };
            let _ = writeln!(
                out,
                "  {:<28} {} -> {}  {:+.2}% (gate: {} {:+.0}%)  {}",
                d.metric,
                fmt_f64(d.old),
                fmt_f64(d.new),
                d.change * 100.0,
                arrow,
                match d.direction {
                    Direction::HigherWorse => d.threshold * 100.0,
                    Direction::LowerWorse => -d.threshold * 100.0,
                },
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

fn require_str<'a>(doc: &'a Json, path: &[&str]) -> Result<&'a str, DigestError> {
    doc.get(path)
        .and_then(Json::as_str)
        .ok_or_else(|| DigestError::Schema(format!("missing string field {}", path.join("."))))
}

/// Numeric gate-field reader. Also accepts booleans (`true` = 1, `false`
/// = 0), so gates can watch flags like `harness.outputs_identical`: with
/// `LowerWorse` and threshold 0, a `true -> false` flip is a `-100%`
/// change and trips the gate.
fn require_gate_num(doc: &Json, path: &[&str]) -> Result<f64, DigestError> {
    match doc.get(path) {
        Some(Json::Bool(b)) => Ok(if *b { 1.0 } else { 0.0 }),
        other => other
            .and_then(Json::as_f64)
            .ok_or_else(|| DigestError::Schema(format!("missing gate field {}", path.join(".")))),
    }
}

/// Compares two digest documents (baseline, candidate) under the built-in
/// per-metric thresholds. Errors if either document fails to parse, is not
/// schema `javmm-run-digest-v1`, or the two digests describe different
/// scenarios.
pub fn compare(old_json: &str, new_json: &str) -> Result<CompareReport, DigestError> {
    let old = Json::parse(old_json)?;
    let new = Json::parse(new_json)?;
    for doc in [&old, &new] {
        let schema = require_str(doc, &["schema"])?;
        if schema != DIGEST_SCHEMA && schema != DIGEST_SCHEMA_V3 {
            return Err(DigestError::Schema(format!(
                "unsupported schema '{schema}' (want '{DIGEST_SCHEMA}' or '{DIGEST_SCHEMA_V3}')"
            )));
        }
    }
    let old_name = require_str(&old, &["scenario", "name"])?;
    let new_name = require_str(&new, &["scenario", "name"])?;
    if old_name != new_name {
        return Err(DigestError::Schema(format!(
            "digests describe different scenarios ('{old_name}' vs '{new_name}')"
        )));
    }
    let old_kind = require_str(&old, &["outcome", "kind"])?;
    let new_kind = require_str(&new, &["outcome", "kind"])?;
    let outcome_changed = if old_kind != new_kind {
        Some((old_kind.to_string(), new_kind.to_string()))
    } else {
        None
    };
    let mut deltas = metric_deltas(&old, &new, COMPARE_METRICS)?;
    // Cold-assist gates apply only when both digests carry the section;
    // a one-sided section means the subsystem was toggled between the
    // runs, which no threshold can meaningfully judge.
    match (old.get(&["cold"]).is_some(), new.get(&["cold"]).is_some()) {
        (true, true) => deltas.extend(metric_deltas(&old, &new, COLD_COMPARE_METRICS)?),
        (false, false) => {}
        (old_has, _) => {
            return Err(DigestError::Schema(format!(
                "cold section present only in the {} digest — compare runs with the \
                 cold assist configured identically",
                if old_has { "baseline" } else { "candidate" }
            )));
        }
    }
    Ok(CompareReport {
        scenario: old_name.to_string(),
        outcome_changed,
        deltas,
    })
}

/// The cold-assist regression gate, applied on top of [`COMPARE_METRICS`]
/// when both digests are v3. `cold.delta.saved_bytes_ratio` is the drill
/// metric: shrinking the delta page cache to one entry destroys the XOR
/// codec's savings and must trip exactly this gate.
const COLD_COMPARE_METRICS: &[CompareMetric] = &[
    CompareMetric {
        path: &["cold", "delta", "saved_bytes_ratio"],
        direction: Direction::LowerWorse,
        threshold: 0.05,
    },
    CompareMetric {
        path: &["cold", "delta", "cache_hit_rate"],
        direction: Direction::LowerWorse,
        threshold: 0.10,
    },
    CompareMetric {
        path: &["cold", "deferred", "sent_bytes"],
        direction: Direction::HigherWorse,
        threshold: 0.10,
    },
];

fn metric_deltas(
    old: &Json,
    new: &Json,
    metrics: &[CompareMetric],
) -> Result<Vec<MetricDelta>, DigestError> {
    let mut deltas = Vec::with_capacity(metrics.len());
    for m in metrics {
        let old_v = require_gate_num(old, m.path)?;
        let new_v = require_gate_num(new, m.path)?;
        let change = if old_v != 0.0 {
            (new_v - old_v) / old_v
        } else if new_v == 0.0 {
            0.0
        } else {
            // From zero to non-zero: infinite relative growth.
            f64::INFINITY
        };
        let regressed = match m.direction {
            Direction::HigherWorse => change > m.threshold,
            Direction::LowerWorse => change < -m.threshold,
        };
        deltas.push(MetricDelta {
            metric: m.path.join("."),
            old: old_v,
            new: new_v,
            change,
            threshold: m.threshold,
            direction: m.direction,
            regressed,
        });
    }
    Ok(deltas)
}

/// The fleet-digest regression gate. Alongside the drain's raw outcomes
/// it gates the workload observatory's detection quality: a drop in
/// `detect.window_hit_rate`, `detect.mean_confidence` or
/// `detect.period_accuracy` is a regression even when eviction time holds.
const FLEET_COMPARE_METRICS: &[CompareMetric] = &[
    CompareMetric {
        path: &["totals", "eviction_ns"],
        direction: Direction::HigherWorse,
        threshold: 0.10,
    },
    CompareMetric {
        path: &["totals", "aggregate_downtime_ns"],
        direction: Direction::HigherWorse,
        threshold: 0.10,
    },
    CompareMetric {
        path: &["totals", "total_bytes"],
        direction: Direction::HigherWorse,
        threshold: 0.10,
    },
    CompareMetric {
        path: &["totals", "sla_cost"],
        direction: Direction::HigherWorse,
        threshold: 0.15,
    },
    CompareMetric {
        path: &["totals", "degraded"],
        direction: Direction::HigherWorse,
        threshold: 0.0,
    },
    CompareMetric {
        path: &["totals", "nonconverged"],
        direction: Direction::HigherWorse,
        threshold: 0.0,
    },
    CompareMetric {
        path: &["detect", "window_hit_rate"],
        direction: Direction::LowerWorse,
        threshold: 0.10,
    },
    CompareMetric {
        path: &["detect", "mean_confidence"],
        direction: Direction::LowerWorse,
        threshold: 0.25,
    },
    CompareMetric {
        path: &["detect", "period_accuracy"],
        direction: Direction::LowerWorse,
        threshold: 0.10,
    },
];

/// Compares two *fleet* digest documents (baseline, candidate) under the
/// fleet regression gate. Errors if either document fails to parse, is
/// not schema `javmm-fleet-digest-v2`, or the two digests describe
/// different drains or policies.
pub fn compare_fleet(old_json: &str, new_json: &str) -> Result<CompareReport, DigestError> {
    let old = Json::parse(old_json)?;
    let new = Json::parse(new_json)?;
    for doc in [&old, &new] {
        let schema = require_str(doc, &["schema"])?;
        if schema != FLEET_DIGEST_SCHEMA {
            return Err(DigestError::Schema(format!(
                "unsupported schema '{schema}' (want '{FLEET_DIGEST_SCHEMA}')"
            )));
        }
    }
    let old_name = require_str(&old, &["drain", "name"])?;
    let new_name = require_str(&new, &["drain", "name"])?;
    if old_name != new_name {
        return Err(DigestError::Schema(format!(
            "digests describe different drains ('{old_name}' vs '{new_name}')"
        )));
    }
    let old_policy = require_str(&old, &["drain", "policy"])?;
    let new_policy = require_str(&new, &["drain", "policy"])?;
    if old_policy != new_policy {
        return Err(DigestError::Schema(format!(
            "digests describe different policies ('{old_policy}' vs '{new_policy}')"
        )));
    }
    let deltas = metric_deltas(&old, &new, FLEET_COMPARE_METRICS)?;
    Ok(CompareReport {
        scenario: format!("{old_name}/{old_policy}"),
        outcome_changed: None,
        deltas,
    })
}

/// Schema tag of `BENCH_precopy.json` v2 documents (written by the
/// `bench` binary, gated by [`compare_precopy_bench`]).
pub const BENCH_PRECOPY_SCHEMA: &str = "javmm-bench-precopy-v2";

/// The pre-copy benchmark regression gate. `harness.parallel_speedup` is
/// the *modeled* 4-worker makespan speedup (`speedup_basis` in the
/// document says so) — a drop past 35% means the harness stopped fanning
/// cells out (the seeded `JAVMM_SERIALIZE_POOL=1` drill runs every cell on
/// one worker, collapses it to ~1.0 and must trip exactly this metric).
/// `scan.speedup` guards the word-granular kernel against returning to
/// per-bit costs, and `harness.outputs_identical` is a boolean tripwire:
/// any `true -> false` flip (parallel output diverging from serial) is a
/// regression outright.
const BENCH_COMPARE_METRICS: &[CompareMetric] = &[
    CompareMetric {
        path: &["harness", "parallel_speedup"],
        direction: Direction::LowerWorse,
        threshold: 0.35,
    },
    CompareMetric {
        path: &["scan", "speedup"],
        direction: Direction::LowerWorse,
        threshold: 0.50,
    },
    CompareMetric {
        path: &["harness", "outputs_identical"],
        direction: Direction::LowerWorse,
        threshold: 0.0,
    },
];

/// Compares two pre-copy benchmark documents (baseline, candidate) under
/// the parallel-efficiency gate. Errors if either document fails to
/// parse, is not schema `javmm-bench-precopy-v2`, or was produced with
/// `--scan-only` (its `harness` is `null`, so there is nothing to gate).
pub fn compare_precopy_bench(old_json: &str, new_json: &str) -> Result<CompareReport, DigestError> {
    let old = Json::parse(old_json)?;
    let new = Json::parse(new_json)?;
    for doc in [&old, &new] {
        let schema = require_str(doc, &["schema"])?;
        if schema != BENCH_PRECOPY_SCHEMA {
            return Err(DigestError::Schema(format!(
                "unsupported schema '{schema}' (want '{BENCH_PRECOPY_SCHEMA}')"
            )));
        }
    }
    let deltas = metric_deltas(&old, &new, BENCH_COMPARE_METRICS)?;
    Ok(CompareReport {
        scenario: "precopy-bench".to_string(),
        outcome_changed: None,
        deltas,
    })
}

/// Schema tag of `BENCH_evacuate.json` documents (written by the `bench`
/// binary's `evacuate` subcommand, gated by [`compare_evacuate`]).
pub const BENCH_EVACUATE_SCHEMA: &str = "javmm-bench-evacuate-v1";

/// The evacuation benchmark regression gate. It watches the SLA-aware
/// placement's headline outcomes — `placements.sla.eviction_ns` is the
/// drill metric: disabling placement (pinning every VM onto one
/// destination) funnels the whole fleet through a single ingress and
/// blows eviction time past the 10% gate. The `sla_vs_random` ratios
/// additionally pin the policy's *advantage*: SLA-aware placement losing
/// its cost edge over random placement is a regression even if absolute
/// numbers hold.
const EVACUATE_COMPARE_METRICS: &[CompareMetric] = &[
    CompareMetric {
        path: &["placements", "sla", "eviction_ns"],
        direction: Direction::HigherWorse,
        threshold: 0.10,
    },
    CompareMetric {
        path: &["placements", "sla", "aggregate_downtime_ns"],
        direction: Direction::HigherWorse,
        threshold: 0.10,
    },
    CompareMetric {
        path: &["placements", "sla", "total_bytes"],
        direction: Direction::HigherWorse,
        threshold: 0.10,
    },
    CompareMetric {
        path: &["placements", "sla", "sla_cost"],
        direction: Direction::HigherWorse,
        threshold: 0.15,
    },
    CompareMetric {
        path: &["placements", "sla", "degraded"],
        direction: Direction::HigherWorse,
        threshold: 0.0,
    },
    CompareMetric {
        path: &["sla_vs_random", "sla_cost_ratio"],
        direction: Direction::HigherWorse,
        threshold: 0.05,
    },
    CompareMetric {
        path: &["sla_vs_random", "eviction_ratio"],
        direction: Direction::HigherWorse,
        threshold: 0.10,
    },
];

/// Compares two evacuation benchmark documents (baseline, candidate)
/// under the placement regression gate. Errors if either document fails
/// to parse, is not schema `javmm-bench-evacuate-v1`, or the two
/// documents describe different evacuation plans.
pub fn compare_evacuate(old_json: &str, new_json: &str) -> Result<CompareReport, DigestError> {
    let old = Json::parse(old_json)?;
    let new = Json::parse(new_json)?;
    for doc in [&old, &new] {
        let schema = require_str(doc, &["schema"])?;
        if schema != BENCH_EVACUATE_SCHEMA {
            return Err(DigestError::Schema(format!(
                "unsupported schema '{schema}' (want '{BENCH_EVACUATE_SCHEMA}')"
            )));
        }
    }
    let old_name = require_str(&old, &["plan"])?;
    let new_name = require_str(&new, &["plan"])?;
    if old_name != new_name {
        return Err(DigestError::Schema(format!(
            "documents describe different evacuation plans ('{old_name}' vs '{new_name}')"
        )));
    }
    let deltas = metric_deltas(&old, &new, EVACUATE_COMPARE_METRICS)?;
    Ok(CompareReport {
        scenario: old_name.to_string(),
        outcome_changed: None,
        deltas,
    })
}

/// Schema tag of `BENCH_evacuate_eta.json` documents: the evacuation
/// benchmark's mission-control companion (ETA calibration and watchdog
/// findings), written by the `bench` binary's `evacuate` subcommand and
/// gated by [`compare_evacuate_eta`].
pub const BENCH_EVACUATE_ETA_SCHEMA: &str = "javmm-bench-evacuate-eta-v1";

/// The ETA-calibration regression gate. `eta.p90_abs_err` is the headline
/// and the drill metric: the frozen-ETA drill (`bench evacuate
/// --freeze-eta`) disables re-projection, calibration error explodes, and
/// the gate must name exactly this metric. `findings.total` is a
/// tripwire: a fault-free baseline holds zero findings, so *any* finding
/// in a candidate run (the zero-to-nonzero case reports as infinite
/// growth) trips it.
const EVACUATE_ETA_COMPARE_METRICS: &[CompareMetric] = &[
    CompareMetric {
        path: &["eta", "p90_abs_err"],
        direction: Direction::HigherWorse,
        threshold: 0.25,
    },
    CompareMetric {
        path: &["eta", "p50_abs_err"],
        direction: Direction::HigherWorse,
        threshold: 0.50,
    },
    CompareMetric {
        path: &["findings", "total"],
        direction: Direction::HigherWorse,
        threshold: 0.0,
    },
];

/// Compares two evacuation ETA-calibration documents (baseline,
/// candidate) under the calibration gate. Errors if either document fails
/// to parse, is not schema `javmm-bench-evacuate-eta-v1`, or the two
/// documents describe different evacuation plans.
pub fn compare_evacuate_eta(old_json: &str, new_json: &str) -> Result<CompareReport, DigestError> {
    let old = Json::parse(old_json)?;
    let new = Json::parse(new_json)?;
    for doc in [&old, &new] {
        let schema = require_str(doc, &["schema"])?;
        if schema != BENCH_EVACUATE_ETA_SCHEMA {
            return Err(DigestError::Schema(format!(
                "unsupported schema '{schema}' (want '{BENCH_EVACUATE_ETA_SCHEMA}')"
            )));
        }
    }
    let old_name = require_str(&old, &["plan"])?;
    let new_name = require_str(&new, &["plan"])?;
    if old_name != new_name {
        return Err(DigestError::Schema(format!(
            "documents describe different evacuation plans ('{old_name}' vs '{new_name}')"
        )));
    }
    let deltas = metric_deltas(&old, &new, EVACUATE_ETA_COMPARE_METRICS)?;
    Ok(CompareReport {
        scenario: format!("{old_name}/eta"),
        outcome_changed: None,
        deltas,
    })
}

/// Schema tag of `BENCH_cold.json` documents (written by the `bench`
/// binary's `cold` subcommand, gated by [`compare_cold_bench`]).
pub const BENCH_COLD_SCHEMA: &str = "javmm-bench-cold-v1";

/// The cold-assist benchmark regression gate. The headline savings ratios
/// (total and last-iteration bytes, assist vs no-assist baseline over the
/// cold-heavy roster) must not shrink, `delta.saved_bytes_ratio` is the
/// CI drill metric (a one-entry delta cache collapses it), and
/// `harness.verified` is a boolean tripwire — any destination digest
/// mismatch is a regression outright.
const COLD_BENCH_COMPARE_METRICS: &[CompareMetric] = &[
    CompareMetric {
        path: &["savings", "total_bytes_ratio"],
        direction: Direction::LowerWorse,
        threshold: 0.10,
    },
    CompareMetric {
        path: &["savings", "last_iter_bytes_ratio"],
        direction: Direction::LowerWorse,
        threshold: 0.10,
    },
    CompareMetric {
        path: &["delta", "saved_bytes_ratio"],
        direction: Direction::LowerWorse,
        threshold: 0.05,
    },
    CompareMetric {
        path: &["harness", "verified"],
        direction: Direction::LowerWorse,
        threshold: 0.0,
    },
];

/// Compares two cold-assist benchmark documents (baseline, candidate)
/// under the savings gate. Errors if either document fails to parse, is
/// not schema `javmm-bench-cold-v1`, or the two documents describe
/// different rosters.
pub fn compare_cold_bench(old_json: &str, new_json: &str) -> Result<CompareReport, DigestError> {
    let old = Json::parse(old_json)?;
    let new = Json::parse(new_json)?;
    for doc in [&old, &new] {
        let schema = require_str(doc, &["schema"])?;
        if schema != BENCH_COLD_SCHEMA {
            return Err(DigestError::Schema(format!(
                "unsupported schema '{schema}' (want '{BENCH_COLD_SCHEMA}')"
            )));
        }
    }
    let old_name = require_str(&old, &["roster"])?;
    let new_name = require_str(&new, &["roster"])?;
    if old_name != new_name {
        return Err(DigestError::Schema(format!(
            "documents describe different rosters ('{old_name}' vs '{new_name}')"
        )));
    }
    let deltas = metric_deltas(&old, &new, COLD_BENCH_COMPARE_METRICS)?;
    Ok(CompareReport {
        scenario: old_name.to_string(),
        outcome_changed: None,
        deltas,
    })
}

/// Every schema id [`compare_any`] can dispatch on, in dispatch order.
pub const KNOWN_SCHEMAS: &[&str] = &[
    DIGEST_SCHEMA,
    DIGEST_SCHEMA_V3,
    FLEET_DIGEST_SCHEMA,
    BENCH_PRECOPY_SCHEMA,
    BENCH_EVACUATE_SCHEMA,
    BENCH_EVACUATE_ETA_SCHEMA,
    BENCH_COLD_SCHEMA,
];

/// Compares two digest documents of any known schema, dispatching on the
/// baseline's `schema` field: run digests (v2 and v3) go through
/// [`compare`], fleet digests through [`compare_fleet`], pre-copy
/// benchmark documents through [`compare_precopy_bench`], evacuation
/// benchmark documents through [`compare_evacuate`], ETA-calibration
/// documents through [`compare_evacuate_eta`], cold-assist benchmark
/// documents through [`compare_cold_bench`]. An unknown schema errors
/// with the full list of known ids ([`KNOWN_SCHEMAS`]), so a digest
/// produced by a newer (or misspelled) writer is diagnosable at a glance.
pub fn compare_any(old_json: &str, new_json: &str) -> Result<CompareReport, DigestError> {
    let old = Json::parse(old_json)?;
    match require_str(&old, &["schema"])? {
        s if s == DIGEST_SCHEMA || s == DIGEST_SCHEMA_V3 => compare(old_json, new_json),
        s if s == FLEET_DIGEST_SCHEMA => compare_fleet(old_json, new_json),
        s if s == BENCH_PRECOPY_SCHEMA => compare_precopy_bench(old_json, new_json),
        s if s == BENCH_EVACUATE_SCHEMA => compare_evacuate(old_json, new_json),
        s if s == BENCH_EVACUATE_ETA_SCHEMA => compare_evacuate_eta(old_json, new_json),
        s if s == BENCH_COLD_SCHEMA => compare_cold_bench(old_json, new_json),
        s => Err(DigestError::Schema(format!(
            "unsupported schema '{s}' (known schemas: {})",
            KNOWN_SCHEMAS
                .iter()
                .map(|k| format!("'{k}'"))
                .collect::<Vec<_>>()
                .join(", ")
        ))),
    }
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
        assert_eq!(
            v.get(&["a"]).unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(-2.5), Json::Num(1000.0)])
        );
        assert_eq!(v.get(&["b", "c"]).and_then(Json::as_str), Some("x\nyA"));
        assert_eq!(v.get(&["d"]), Some(&Json::Null));
        assert_eq!(v.get(&["e"]), Some(&Json::Bool(true)));
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1,2] trailing").is_err());
    }

    #[test]
    fn parser_rejects_deep_nesting_and_truncation_without_panicking() {
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

        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/DIGEST_derby-assisted-seed3.json"
        );
        let golden = std::fs::read_to_string(path).expect("committed digest");
        let doc = golden.trim_end();
        assert!(Json::parse(doc).is_ok());
        // Every strict prefix leaves the top-level object open.
        for end in 0..doc.len() {
            if let Some(prefix) = doc.get(..end) {
                assert!(Json::parse(prefix).is_err(), "prefix of {end} bytes parsed");
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
        let report = compare_evacuate(&old, &old).unwrap();
        assert!(!report.has_regression());
        // The pin drill funnels the fleet through one ingress: eviction
        // time explodes and the gate must name exactly that metric.
        let pinned = evacuate_json(4000, 0.83);
        let report = compare_evacuate(&old, &pinned).unwrap();
        assert!(report.has_regression());
        assert!(report
            .regressions()
            .contains(&"placements.sla.eviction_ns".to_string()));
        // Losing the cost edge over random placement is its own gate.
        let edgeless = evacuate_json(1000, 1.0);
        let report = compare_evacuate(&old, &edgeless).unwrap();
        assert!(report
            .regressions()
            .contains(&"sla_vs_random.sla_cost_ratio".to_string()));
        // compare_any dispatches on the schema tag.
        assert!(compare_any(&old, &old).is_ok());
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
        let report = compare_evacuate_eta(&old, &old).unwrap();
        assert!(!report.has_regression());
        // The frozen-ETA drill stops re-projection: the admission-time
        // guess goes stale and the gate must name the p90 metric.
        let frozen = eta_json(2.0, 0);
        let report = compare_evacuate_eta(&old, &frozen).unwrap();
        assert!(report.has_regression());
        assert!(report
            .regressions()
            .contains(&"eta.p90_abs_err".to_string()));
        assert!(report.render().contains("eta.p90_abs_err"));
        // Watchdog findings on a fault-free plan are a regression outright.
        let noisy = eta_json(0.2, 2);
        let report = compare_evacuate_eta(&old, &noisy).unwrap();
        assert_eq!(report.regressions(), vec!["findings.total"]);
        // compare_any dispatches on the schema tag.
        assert!(!compare_any(&old, &old).unwrap().has_regression());
        // Mismatched plans are an error, not a comparison.
        let other = old.replace("evacuate48", "evacuate12");
        assert!(matches!(
            compare_evacuate_eta(&old, &other),
            Err(DigestError::Schema(_))
        ));
    }

    #[test]
    fn fleet_compare_gates_detection_quality() {
        let old = fleet_json("cycle", 1000, 1.0);
        let same = compare_fleet(&old, &old).unwrap();
        assert!(!same.has_regression());
        // Halving the window-hit rate trips only the detect gate.
        let worse = fleet_json("cycle", 1000, 0.5);
        let report = compare_fleet(&old, &worse).unwrap();
        assert_eq!(report.regressions(), vec!["detect.window_hit_rate"]);
        assert!(report.render().contains("detect.window_hit_rate"));
        // Mismatched policies are an error, not a comparison.
        let fifo = fleet_json("fifo", 1000, 1.0);
        assert!(matches!(
            compare_fleet(&old, &fifo),
            Err(DigestError::Schema(_))
        ));
    }

    #[test]
    fn compare_any_dispatches_on_schema() {
        let run = digest_json("derby", 4e9, 500, "completed");
        assert!(!compare_any(&run, &run).unwrap().has_regression());
        let fleet = fleet_json("cycle", 1000, 1.0);
        assert!(!compare_any(&fleet, &fleet).unwrap().has_regression());
        let bench = bench_json(3.4, true);
        assert!(!compare_any(&bench, &bench).unwrap().has_regression());
        assert!(matches!(
            compare_any(&run, &fleet),
            Err(DigestError::Schema(_))
        ));
    }

    #[test]
    fn compare_any_unknown_schema_lists_known_ids() {
        let bogus = r#"{"schema": "javmm-made-up-v9"}"#;
        let err = match compare_any(bogus, bogus) {
            Err(DigestError::Schema(msg)) => msg,
            other => panic!("expected a schema error, got {other:?}"),
        };
        assert!(err.contains("javmm-made-up-v9"), "{err}");
        for id in KNOWN_SCHEMAS {
            assert!(err.contains(id), "error must list '{id}': {err}");
        }
    }

    fn cold_digest_json(name: &str, saved_ratio: f64, hit_rate: f64, sent_bytes: u64) -> String {
        digest_json(name, 4e9, 500, "completed")
            .replace("javmm-run-digest-v2", "javmm-run-digest-v3")
            .replace(
                "\"histograms\": {}",
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
        assert!(!compare(&old, &old).unwrap().has_regression());
        assert!(!compare_any(&old, &old).unwrap().has_regression());
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
        assert!(!compare_cold_bench(&old, &old).unwrap().has_regression());
        assert!(!compare_any(&old, &old).unwrap().has_regression());
        // The one-entry-cache drill: delta savings collapse, the gate must
        // name delta.saved_bytes_ratio.
        let drilled = cold_bench_json(0.25, 0.45, 0.05, true);
        let report = compare_cold_bench(&old, &drilled).unwrap();
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
        let report = compare_cold_bench(&old, &unverified).unwrap();
        assert!(report
            .regressions()
            .contains(&"harness.verified".to_string()));
        // Mismatched rosters are an error, not a comparison.
        let other = old.replace("cold5", "cold9");
        assert!(matches!(
            compare_cold_bench(&old, &other),
            Err(DigestError::Schema(_))
        ));
    }

    fn bench_json(parallel_speedup: f64, outputs_identical: bool) -> String {
        format!(
            r#"{{
              "schema": "javmm-bench-precopy-v2",
              "workers": {{"requested": null, "effective": 4, "available_parallelism": 4, "source": "detected", "capped": false, "serialized_pool": false}},
              "scan": {{"pages_per_rep": 800000, "reps": 40, "per_bit_pages_per_sec": 100000000, "word_pages_per_sec": 900000000, "speedup": 9.0, "sharded": []}},
              "alloc": {{"walks": 32, "words_per_walk": 4096, "fresh_scratch_allocs": 200, "persistent_arena_allocs": 0, "reduction": 200.0}},
              "harness": {{"cells": 24, "speedup_basis": "modeled", "serial_secs": 40.0, "rows": [], "parallel_speedup": {parallel_speedup}, "outputs_identical": {outputs_identical}}}
            }}"#
        )
    }

    #[test]
    fn bench_compare_gates_parallel_efficiency() {
        let good = bench_json(3.4, true);
        assert!(!compare_precopy_bench(&good, &good)
            .unwrap()
            .has_regression());
        // A serialized-pool build collapses the modeled speedup to ~1.0:
        // the gate must trip and name the speedup metric.
        let serialized = bench_json(1.0, true);
        let report = compare_precopy_bench(&good, &serialized).unwrap();
        assert_eq!(report.regressions(), vec!["harness.parallel_speedup"]);
        assert!(report.render().contains("harness.parallel_speedup"));
        // Losing byte-identity is a regression outright (bool gate).
        let diverged = bench_json(3.4, false);
        let report = compare_precopy_bench(&good, &diverged).unwrap();
        assert_eq!(report.regressions(), vec!["harness.outputs_identical"]);
        // A --scan-only document (harness null) cannot be gated.
        let scan_only = good.replace(r#""harness": {"cells": 24"#, r#""ignored": {"cells": 24"#);
        assert!(matches!(
            compare_precopy_bench(&good, &scan_only),
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
