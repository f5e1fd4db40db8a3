//! Folding timed iterations into the benchmark's metrics.
//!
//! End-to-end metrics come from the untraced iterations. Per-layer metrics
//! come from the traced iterations and their spans; the untraced
//! iterations of the same run give the tracing overhead.

use std::collections::BTreeMap;

use crate::scenario::Sample;
use crate::trace::{self_time_by_name, Span};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// End-to-end metric names and units, in report order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("sim_rate", "sim-s/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_migration_s", "sim-s"),
    ("sim_eviction_s", "sim-s"),
    ("sim_wire_gb", "GB"),
    ("sim_downtime_s", "sim-s"),
];

/// Per-layer metric names and units, in report order.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("core.boot_s", "s"),
    ("core.run_s", "s"),
    ("core.self_s", "s"),
    ("core.host_us_per_sim_ms", "us/sim-ms"),
    ("jheap.advance_s", "s"),
    ("jheap.pages_written", "count"),
    ("jheap.gcs", "count"),
    ("jheap.ns_per_page_written", "ns"),
    ("guestos.lkm_s", "s"),
    ("guestos.noise_s", "s"),
    ("guestos.lkm.first_update_pages", "count"),
    ("guestos.lkm.shrink_events", "count"),
    ("guestos.lkm.final_set_pages", "count"),
    ("workloads.cacheapp_s", "s"),
    ("migrate.begin_s", "s"),
    ("migrate.engine_s", "s"),
    ("migrate.steps", "count"),
    ("migrate.step_ms_p50", "ms"),
    ("migrate.step_ms_p90", "ms"),
    ("migrate.engine_ns_per_page_sent", "ns"),
    ("migrate.digest_s", "s"),
    ("migrate.iterations", "count"),
    ("migrate.pages_sent", "count"),
    ("migrate.pages_skipped", "count"),
    ("migrate.sent_ratio", "ratio"),
    ("migrate.verify_mismatched", "count"),
    ("assist.deferred_sent_pages", "count"),
    ("assist.pending_at_pause", "count"),
    ("assist.delta_hits", "count"),
    ("assist.delta_hit_ratio", "ratio"),
    ("assist.delta_saved_ratio", "ratio"),
    ("sim.downtime.safepoint_s", "sim-s"),
    ("sim.downtime.enforced_gc_s", "sim-s"),
    ("sim.downtime.final_update_s", "sim-s"),
    ("sim.downtime.last_iter_s", "sim-s"),
    ("sim.downtime.resume_s", "sim-s"),
    ("simkit.recorder_s", "s"),
    ("simkit.prom_export_s", "s"),
    ("cluster.evacuate_s", "s"),
    ("cluster.host_ms_per_migration", "ms"),
    ("cluster.iterations", "count"),
    ("cluster.wakeups", "count"),
    ("cluster.eta_predictions", "count"),
    ("cluster.findings", "count"),
    ("cluster.nonconverged", "count"),
    ("cluster.fleet_digest_s", "s"),
    ("cluster.mission_export_s", "s"),
    ("netsim.core_util_p50", "ratio"),
    ("bench.traced_wall_s", "s"),
    ("bench.layer_sum_s", "s"),
    ("bench.unattributed_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("failed_frac", "ratio"),
    ("paper_err_pp", "pct-points"),
];

/// The traced run fails when more than this share of its wall time falls
/// outside every layer span and counter (benchmark glue between calls).
pub const UNATTRIBUTED_BOUND_PCT: f64 = 1.0;

/// Median of `values` (0 when empty).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values` (0 when empty).
pub fn quantile(values: impl IntoIterator<Item = f64>, q: f64) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn metric(name: &'static str, value: f64, table: &[(&'static str, &'static str)]) -> Metric {
    let unit = table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the table"));
    Metric { name, unit, value }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Median set-up time over every set-up sample of `samples`.
pub fn setup_s(samples: &[Sample]) -> f64 {
    median(
        samples
            .iter()
            .flat_map(|s| s.setup_ns.iter().map(|&n| secs(n))),
    )
}

/// Migrations that failed, out of those attempted.
pub fn failed_frac(samples: &[&Sample]) -> f64 {
    let attempted: usize = samples.iter().map(|s| s.migrations.len()).sum();
    let failed: u64 = samples.iter().map(|s| s.failed()).sum();
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// The end-to-end metrics of untraced `samples` (at least one).
pub fn end_to_end(samples: &[Sample], peak_rss_mb: f64) -> Vec<Metric> {
    let first = &samples[0];
    let wall = median(samples.iter().map(|s| secs(s.wall_ns)));
    let values = [
        wall,
        median(samples.iter().map(|s| s.guest_s / secs(s.wall_ns))),
        setup_s(samples),
        peak_rss_mb,
        first.sim_migration_s(),
        first.sim_eviction_s(),
        first.sim_wire_gb(),
        first.sim_downtime_s(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect()
}

/// Everything the traced run measured.
pub struct TracedRun<'a> {
    /// Untraced iterations interleaved with the traced ones.
    pub untraced: &'a [Sample],
    /// Traced iterations; iteration `i` carries run id `i`.
    pub traced: &'a [Sample],
    /// The traced iterations' spans.
    pub spans: &'a [Span],
    /// `derby-cold` only: the traced iterations re-run with the flight
    /// recorder detached.
    pub detached: &'a [Sample],
    /// Spans of the `detached` iterations, run id `i` for iteration `i`.
    pub unrecorded_spans: &'a [Span],
}

fn inclusive(spans: &[Span], run: u32, names: &[&str]) -> u64 {
    spans
        .iter()
        .filter(|s| s.run == run && names.contains(&s.name))
        .map(Span::duration_ns)
        .sum()
}

fn runs(spans: &[Span]) -> Vec<u32> {
    let mut r: Vec<u32> = spans.iter().map(|s| s.run).collect();
    r.dedup();
    r
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl TracedRun<'_> {
    /// Self time by name for each traced iteration.
    fn self_times(&self) -> Vec<BTreeMap<&'static str, u64>> {
        runs(self.spans)
            .into_iter()
            .map(|r| self_time_by_name(self.spans, r))
            .collect()
    }

    /// Median over traced iterations of the self time of `names`, seconds.
    fn self_s(&self, by_run: &[BTreeMap<&'static str, u64>], names: &[&str]) -> f64 {
        median(
            by_run
                .iter()
                .map(|m| secs(names.iter().map(|n| m.get(n).copied().unwrap_or(0)).sum())),
        )
    }

    /// Share of traced wall time outside every layer, per cent (median).
    pub fn unattributed_pct(&self) -> f64 {
        median(runs(self.spans).into_iter().map(|r| {
            let own = self_time_by_name(self.spans, r)
                .get("bench.run")
                .copied()
                .unwrap_or(0);
            100.0 * ratio(own as f64, inclusive(self.spans, r, &["bench.run"]) as f64)
        }))
    }

    /// The per-layer metrics.
    pub fn per_layer(&self) -> Vec<Metric> {
        let t = PER_LAYER.as_slice();
        let by_run = self.self_times();
        let s = &self.traced[0];
        let m = &s.migrations;
        let sum = |f: &dyn Fn(&crate::scenario::MigrationOut) -> u64| m.iter().map(f).sum::<u64>();
        let cold = |f: &dyn Fn(&migrate::ColdReport) -> u64| {
            m.iter().filter_map(|x| x.cold.as_ref()).map(f).sum::<u64>()
        };
        let fleet = s.fleet.clone().unwrap_or_default();
        let is_fleet = s.fleet.is_some();
        let traced_wall = median(self.traced.iter().map(|x| secs(x.wall_ns)));
        let untraced_wall = median(self.untraced.iter().map(|x| secs(x.wall_ns)));

        let core_run_s = median(
            runs(self.spans)
                .into_iter()
                .map(|r| secs(inclusive(self.spans, r, &["core.run"]))),
        );
        let outside_sim_ms = secs(sum(&|x| x.outside_ns)) * 1e3;
        let jheap_s = self.self_s(&by_run, &["jheap.advance"]);
        let pages_written = sum(&|x| x.pages_written);
        let engine_s = self.self_s(&by_run, &["migrate.step"]);
        let pages_sent = sum(&|x| x.pages_sent);
        let steps: Vec<f64> = self
            .spans
            .iter()
            .filter(|x| x.name == "migrate.step")
            .map(|x| x.duration_ns() as f64 / 1e6)
            .collect();
        let step_count = median(runs(self.spans).into_iter().map(|r| {
            self.spans
                .iter()
                .filter(|x| x.run == r && x.name == "migrate.step")
                .count() as f64
        }));
        let (hits, misses, fallbacks) = (
            cold(&|c| c.delta_hits),
            cold(&|c| c.delta_misses),
            cold(&|c| c.delta_fallbacks),
        );
        let downtime = |i: usize| secs(sum(&|x| x.downtime_parts_ns[i]));
        // Each traced iteration against its own recorder-detached re-run.
        let migration = ["migrate.begin", "migrate.step"];
        let recorder_s = median(runs(self.unrecorded_spans).into_iter().map(|r| {
            secs(inclusive(self.spans, r, &migration))
                - secs(inclusive(self.unrecorded_spans, r, &migration))
        }));
        let evacuate_s = self.self_s(&by_run, &["cluster.evacuate"]);
        let layer_sum_s = median(by_run.iter().map(|m| {
            secs(
                m.iter()
                    .filter(|(k, _)| **k != "bench.run")
                    .map(|(_, v)| v)
                    .sum(),
            )
        }));
        let migrations = m.len() as f64;
        let all: Vec<&Sample> = self
            .untraced
            .iter()
            .chain(self.traced)
            .chain(self.detached)
            .collect();

        let values: Vec<(&'static str, f64)> = vec![
            (
                "core.boot_s",
                if is_fleet { 0.0 } else { setup_s(self.traced) },
            ),
            ("core.run_s", core_run_s),
            (
                "core.self_s",
                self.self_s(&by_run, &["core.run", "core.guest"]),
            ),
            (
                "core.host_us_per_sim_ms",
                ratio(core_run_s * 1e6, outside_sim_ms),
            ),
            ("jheap.advance_s", jheap_s),
            ("jheap.pages_written", pages_written as f64),
            ("jheap.gcs", sum(&|x| x.gcs) as f64),
            (
                "jheap.ns_per_page_written",
                ratio(jheap_s * 1e9, pages_written as f64),
            ),
            ("guestos.lkm_s", self.self_s(&by_run, &["guestos.lkm"])),
            ("guestos.noise_s", self.self_s(&by_run, &["guestos.noise"])),
            ("guestos.lkm.first_update_pages", sum(&|x| x.lkm[0]) as f64),
            ("guestos.lkm.shrink_events", sum(&|x| x.lkm[1]) as f64),
            ("guestos.lkm.final_set_pages", sum(&|x| x.lkm[2]) as f64),
            (
                "workloads.cacheapp_s",
                self.self_s(&by_run, &["workloads.cacheapp"]),
            ),
            ("migrate.begin_s", self.self_s(&by_run, &["migrate.begin"])),
            ("migrate.engine_s", engine_s),
            ("migrate.steps", step_count),
            ("migrate.step_ms_p50", quantile(steps.iter().copied(), 0.5)),
            ("migrate.step_ms_p90", quantile(steps.iter().copied(), 0.9)),
            (
                "migrate.engine_ns_per_page_sent",
                if is_fleet {
                    0.0
                } else {
                    ratio(engine_s * 1e9, pages_sent as f64)
                },
            ),
            (
                "migrate.digest_s",
                self.self_s(&by_run, &["migrate.digest"]),
            ),
            ("migrate.iterations", sum(&|x| x.iterations) as f64),
            ("migrate.pages_sent", pages_sent as f64),
            ("migrate.pages_skipped", sum(&|x| x.pages_skipped) as f64),
            (
                "migrate.sent_ratio",
                ratio(sum(&|x| x.matching) as f64, pages_sent as f64),
            ),
            ("migrate.verify_mismatched", sum(&|x| x.mismatched) as f64),
            (
                "assist.deferred_sent_pages",
                cold(&|c| c.deferred_sent_pages) as f64,
            ),
            (
                "assist.pending_at_pause",
                cold(&|c| c.pending_at_pause) as f64,
            ),
            ("assist.delta_hits", hits as f64),
            (
                "assist.delta_hit_ratio",
                ratio(hits as f64, (hits + misses + fallbacks) as f64),
            ),
            ("assist.delta_saved_ratio", {
                let full = cold(&|c| c.delta_full_bytes) as f64;
                ratio(full - cold(&|c| c.delta_wire_bytes) as f64, full)
            }),
            ("sim.downtime.safepoint_s", downtime(0)),
            ("sim.downtime.enforced_gc_s", downtime(1)),
            ("sim.downtime.final_update_s", downtime(2)),
            ("sim.downtime.last_iter_s", downtime(3)),
            ("sim.downtime.resume_s", downtime(4)),
            ("simkit.recorder_s", recorder_s),
            (
                "simkit.prom_export_s",
                self.self_s(&by_run, &["simkit.prom_export"]),
            ),
            ("cluster.evacuate_s", evacuate_s),
            (
                "cluster.host_ms_per_migration",
                if is_fleet {
                    ratio(evacuate_s * 1e3, migrations)
                } else {
                    0.0
                },
            ),
            (
                "cluster.iterations",
                if is_fleet {
                    sum(&|x| x.iterations) as f64
                } else {
                    0.0
                },
            ),
            ("cluster.wakeups", fleet.wakeups as f64),
            ("cluster.eta_predictions", fleet.eta_predictions as f64),
            ("cluster.findings", fleet.findings as f64),
            ("cluster.nonconverged", fleet.nonconverged as f64),
            (
                "cluster.fleet_digest_s",
                self.self_s(&by_run, &["cluster.fleet_digest"]),
            ),
            (
                "cluster.mission_export_s",
                self.self_s(&by_run, &["cluster.mission_export"]),
            ),
            ("netsim.core_util_p50", fleet.core_util_p50),
            ("bench.traced_wall_s", traced_wall),
            ("bench.layer_sum_s", layer_sum_s),
            ("bench.unattributed_pct", self.unattributed_pct()),
            (
                "bench.trace_overhead_pct",
                100.0 * ratio(traced_wall - untraced_wall, untraced_wall),
            ),
            ("failed_frac", failed_frac(&all)),
            ("paper_err_pp", s.paper_err_pp().unwrap_or(0.0)),
        ];
        values
            .into_iter()
            .map(|(name, value)| metric(name, value, t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile([0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(std::iter::empty()), 0.0);
    }

    #[test]
    fn metric_tables_have_unique_names() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
