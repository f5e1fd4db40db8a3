//! `bench cold` — the cold-page assist benchmark (`BENCH_cold.json`).
//!
//! Runs a cold-heavy roster: one cacheapp-hosting guest per point on a
//! `--cold-fraction` ladder (0.0 → 0.8 of the cache held by a long-tail
//! resident set). Every guest migrates twice from an identically seeded
//! warm state — once with the cold assist off (plain assisted pre-copy,
//! the baseline) and once with defer + delta enabled — and the harness
//! reduces both runs into the savings ratios the CI digest gate watches:
//! total sent bytes, last-iteration bytes, and the XBZRLE wire discount.
//!
//! `savings.total_bytes_ratio`, `savings.last_iter_bytes_ratio`,
//! `delta.saved_bytes_ratio` and `harness.verified` are the inputs of the
//! `javmm-bench-cold-v1` row of [`migrate::digest::GATES`], so their
//! paths are part of the schema contract.

use std::fmt::Write as _;

use javmm::vm::{JavaVm, JavaVmConfig};
use migrate::config::MigrationConfig;
use migrate::digest::{Json, BENCH_COLD_SCHEMA};
use migrate::precopy::PrecopyEngine;
use migrate::report::MigrationReport;
use migrate::{ColdAssistConfig, ColdReport};
use simkit::units::{Bandwidth, MIB};
use simkit::{DetRng, SimClock, SimDuration};
use workloads::cacheapp::{CacheApp, CacheAppConfig};
use workloads::catalog;

/// Roster name stamped into the JSON; [`migrate::digest::compare`]
/// refuses to diff documents whose rosters differ.
pub const COLD_ROSTER: &str = "cacheapp-cold-ladder";

/// The `--cold-fraction` ladder the roster spans.
pub const COLD_LADDER: [f64; 5] = [0.0, 0.2, 0.4, 0.6, 0.8];

/// One guest on the cold roster.
#[derive(Debug, Clone)]
pub struct ColdVmSpec {
    /// Row label, e.g. `cold40`.
    pub name: String,
    /// Fraction of the cache held by the long-tail resident set.
    pub cold_fraction: f64,
    /// Deterministic seed shared by the baseline and assist runs.
    pub seed: u64,
}

/// The default roster: the full ladder, one seed per point.
pub fn roster(ladder: &[f64]) -> Vec<ColdVmSpec> {
    ladder
        .iter()
        .enumerate()
        .map(|(i, &cold_fraction)| ColdVmSpec {
            name: format!("cold{:02}", (cold_fraction * 100.0).round() as u32),
            cold_fraction,
            seed: 21 + i as u64,
        })
        .collect()
}

/// Both migrations of one roster guest, reduced to the gate inputs.
#[derive(Debug, Clone, Copy)]
pub struct ColdRunRow {
    /// Long-tail fraction of the cache for this guest.
    pub cold_fraction: f64,
    /// Total bytes sent with the cold assist off.
    pub baseline_bytes: u64,
    /// Stop-and-copy bytes with the cold assist off.
    pub baseline_last_iter_bytes: u64,
    /// Pre-copy iterations with the cold assist off.
    pub baseline_iterations: u32,
    /// Total bytes sent with defer + delta enabled.
    pub assist_bytes: u64,
    /// Stop-and-copy bytes with defer + delta enabled.
    pub assist_last_iter_bytes: u64,
    /// Pre-copy iterations with defer + delta enabled.
    pub assist_iterations: u32,
    /// What the cold assist did on the assist run.
    pub cold: ColdReport,
    /// Destination digests matched page-for-page on *both* runs.
    pub verified: bool,
}

impl ColdRunRow {
    fn row(spec: &ColdVmSpec, baseline: &MigrationReport, assist: &MigrationReport) -> Self {
        Self {
            cold_fraction: spec.cold_fraction,
            baseline_bytes: baseline.total_bytes,
            baseline_last_iter_bytes: baseline.last_iteration().bytes_sent,
            baseline_iterations: baseline.iteration_count(),
            assist_bytes: assist.total_bytes,
            assist_last_iter_bytes: assist.last_iteration().bytes_sent,
            assist_iterations: assist.iteration_count(),
            cold: assist.cold.unwrap_or_default(),
            verified: baseline.verification.is_correct()
                && assist.verification.is_correct()
                && !baseline.outcome.is_degraded()
                && !assist.outcome.is_degraded(),
        }
    }
}

/// The whole roster, reduced.
#[derive(Debug, Clone)]
pub struct ColdBenchResult {
    /// Per-guest rows, ladder order.
    pub rows: Vec<(ColdVmSpec, ColdRunRow)>,
    /// Delta page-cache capacity the assist runs used.
    pub delta_cache_pages: u64,
}

impl ColdBenchResult {
    /// `1 - assist/baseline` over the summed total bytes.
    pub fn total_bytes_ratio(&self) -> f64 {
        saved(
            self.rows.iter().map(|(_, r)| r.assist_bytes).sum(),
            self.rows.iter().map(|(_, r)| r.baseline_bytes).sum(),
        )
    }

    /// `1 - assist/baseline` over the summed stop-and-copy bytes.
    pub fn last_iter_bytes_ratio(&self) -> f64 {
        saved(
            self.rows
                .iter()
                .map(|(_, r)| r.assist_last_iter_bytes)
                .sum(),
            self.rows
                .iter()
                .map(|(_, r)| r.baseline_last_iter_bytes)
                .sum(),
        )
    }

    /// `1 - wire/full` over every delta-encoded send on the roster.
    pub fn delta_saved_bytes_ratio(&self) -> f64 {
        saved(
            self.rows.iter().map(|(_, r)| r.cold.delta_wire_bytes).sum(),
            self.rows.iter().map(|(_, r)| r.cold.delta_full_bytes).sum(),
        )
    }

    /// Every run on the roster verified page-for-page and kept the
    /// assisted protocol.
    pub fn verified(&self) -> bool {
        self.rows.iter().all(|(_, r)| r.verified)
    }
}

fn saved(new: u64, old: u64) -> f64 {
    if old == 0 {
        0.0
    } else {
        1.0 - new as f64 / old as f64
    }
}

/// Builds one roster guest: a quiet Java service plus a cache server whose
/// long tail carries `spec.cold_fraction` of the cache. `skip_fraction`
/// stays at 0.1 so the skip-over tail never overlaps the cold band.
fn launch_vm(spec: &ColdVmSpec) -> JavaVm {
    let mut config = JavaVmConfig::paper(catalog::mpeg(), true, spec.seed);
    config.young_max = Some(256 * MIB);
    let mut vm = JavaVm::launch(config);
    let cache = CacheApp::launch(
        vm.kernel_handle(),
        CacheAppConfig {
            cache_bytes: 512 * MIB,
            skip_fraction: 0.1,
            write_rate: 30e6,
            ops_per_sec: 10_000.0,
            miss_penalty: 0.3,
            refill_secs: 30.0,
            cold_fraction: spec.cold_fraction,
        },
        true,
        DetRng::new(spec.seed.wrapping_mul(31) + 11),
    );
    vm.add_app(Box::new(cache));
    vm
}

/// The roster's uplink: a quarter-gigabit share of a contended evacuation
/// trunk. The cold assist is built for exactly this regime — on the
/// paper's dedicated gigabit testbed link the guest converges before
/// re-sends accumulate, so there is nothing for defer or delta to save;
/// on a constrained share the re-dirtied working set is re-shipped every
/// iteration and the assist's discount compounds.
pub const COLD_UPLINK_MBYTES_PER_SEC: f64 = 32.0;

/// Default delta page-cache capacity for the roster: sized to cover the
/// whole guest (QEMU's recommended ceiling for XBZRLE caches), so in the
/// clean run eviction pressure stays at zero and the CI drill's one-entry
/// cache is the only configuration that thrashes.
pub const COLD_DELTA_CACHE_PAGES: u64 = 524_288;

fn run_once(spec: &ColdVmSpec, cold: ColdAssistConfig, warmup: SimDuration) -> MigrationReport {
    let mut vm = launch_vm(spec);
    let mut clock = SimClock::new();
    vm.run_for(&mut clock, warmup, SimDuration::from_millis(2));
    let mut config = MigrationConfig::javmm_default();
    config.bandwidth = Bandwidth::from_mbytes_per_sec(COLD_UPLINK_MBYTES_PER_SEC);
    config.cold = cold;
    PrecopyEngine::new(config)
        .migrate(&mut vm, &mut clock)
        .expect("cold roster migration failed")
}

/// Runs the full roster (baseline + assist per guest).
///
/// `narrate` receives one human line per finished guest.
pub fn run_roster(
    ladder: &[f64],
    delta_cache_pages: u64,
    warmup: SimDuration,
    mut narrate: impl FnMut(&str),
) -> ColdBenchResult {
    let mut rows = Vec::new();
    for spec in roster(ladder) {
        let baseline = run_once(&spec, ColdAssistConfig::off(), warmup);
        let assist_cfg = ColdAssistConfig {
            delta_cache_pages: delta_cache_pages as usize,
            ..ColdAssistConfig::full()
        };
        let assist = run_once(&spec, assist_cfg, warmup);
        let row = ColdRunRow::row(&spec, &baseline, &assist);
        narrate(&format!(
            "{}: {} -> {} total bytes ({:+.1}%), stop-and-copy {} -> {} ({:+.1}%), \
             {} deferred sends, {} delta hits{}",
            spec.name,
            row.baseline_bytes,
            row.assist_bytes,
            -100.0 * saved(row.assist_bytes, row.baseline_bytes),
            row.baseline_last_iter_bytes,
            row.assist_last_iter_bytes,
            -100.0 * saved(row.assist_last_iter_bytes, row.baseline_last_iter_bytes),
            row.cold.deferred_sent_pages,
            row.cold.delta_hits,
            if row.verified { "" } else { " [VERIFY FAILED]" },
        ));
        rows.push((spec, row));
    }
    ColdBenchResult {
        rows,
        delta_cache_pages,
    }
}

/// Renders the `javmm-bench-cold-v1` document.
pub fn to_json(result: &ColdBenchResult) -> String {
    let vms = result.rows.iter().map(|(spec, r)| {
        Json::obj([
            ("name", spec.name.as_str().into()),
            ("seed", spec.seed.into()),
            ("cold_fraction", Json::fixed(r.cold_fraction, 2)),
            ("baseline_bytes", r.baseline_bytes.into()),
            (
                "baseline_last_iter_bytes",
                r.baseline_last_iter_bytes.into(),
            ),
            ("baseline_iterations", r.baseline_iterations.into()),
            ("assist_bytes", r.assist_bytes.into()),
            ("assist_last_iter_bytes", r.assist_last_iter_bytes.into()),
            ("assist_iterations", r.assist_iterations.into()),
            ("deferred_sent_pages", r.cold.deferred_sent_pages.into()),
            ("delta_hits", r.cold.delta_hits.into()),
            ("delta_misses", r.cold.delta_misses.into()),
            ("delta_fallbacks", r.cold.delta_fallbacks.into()),
            ("delta_overflows", r.cold.delta_overflows.into()),
            ("delta_wire_bytes", r.cold.delta_wire_bytes.into()),
            ("delta_full_bytes", r.cold.delta_full_bytes.into()),
            ("verified", r.verified.into()),
        ])
    });
    Json::obj([
        ("schema", BENCH_COLD_SCHEMA.into()),
        ("roster", COLD_ROSTER.into()),
        ("delta_cache_pages", result.delta_cache_pages.into()),
        (
            "savings",
            Json::obj([
                (
                    "total_bytes_ratio",
                    Json::fixed(result.total_bytes_ratio(), 6),
                ),
                (
                    "last_iter_bytes_ratio",
                    Json::fixed(result.last_iter_bytes_ratio(), 6),
                ),
            ]),
        ),
        (
            "delta",
            Json::obj([(
                "saved_bytes_ratio",
                Json::fixed(result.delta_saved_bytes_ratio(), 6),
            )]),
        ),
        (
            "harness",
            Json::obj([("verified", result.verified().into())]),
        ),
        ("vms", Json::Arr(vms.collect())),
    ])
    .render()
}

/// Human summary table for stderr.
pub fn render_table(result: &ColdBenchResult) -> String {
    let mut o = String::new();
    let _ = writeln!(
        o,
        "{:<8} {:>6} {:>14} {:>14} {:>8} {:>14} {:>14} {:>8}",
        "vm", "cold", "base bytes", "assist bytes", "saved", "base s&c", "assist s&c", "saved"
    );
    for (spec, r) in &result.rows {
        let _ = writeln!(
            o,
            "{:<8} {:>6.2} {:>14} {:>14} {:>7.1}% {:>14} {:>14} {:>7.1}%",
            spec.name,
            r.cold_fraction,
            r.baseline_bytes,
            r.assist_bytes,
            100.0 * saved(r.assist_bytes, r.baseline_bytes),
            r.baseline_last_iter_bytes,
            r.assist_last_iter_bytes,
            100.0 * saved(r.assist_last_iter_bytes, r.baseline_last_iter_bytes),
        );
    }
    let _ = writeln!(
        o,
        "roster: total saved {:.1}%, last-iteration saved {:.1}%, \
         delta wire discount {:.1}%, verified: {}",
        100.0 * result.total_bytes_ratio(),
        100.0 * result.last_iter_bytes_ratio(),
        100.0 * result.delta_saved_bytes_ratio(),
        result.verified()
    );
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_roster_names_and_seeds() {
        let r = roster(&COLD_LADDER);
        assert_eq!(r.len(), 5);
        assert_eq!(r[0].name, "cold00");
        assert_eq!(r[4].name, "cold80");
        assert_eq!(r[0].seed, 21);
        assert!((r[3].cold_fraction - 0.6).abs() < 1e-12);
    }

    #[test]
    fn one_point_saves_bytes_and_verifies() {
        // A single mid-ladder point, short warmup: the assist run must
        // verify page-for-page and not cost *more* wire than the baseline.
        let result = run_roster(&[0.6], 16384, SimDuration::from_secs(10), |_| {});
        assert_eq!(result.rows.len(), 1);
        let (_, row) = &result.rows[0];
        assert!(row.verified, "destination digests must match");
        assert!(
            row.assist_bytes <= row.baseline_bytes,
            "cold assist must not inflate total bytes: {} vs {}",
            row.assist_bytes,
            row.baseline_bytes
        );
        assert!(
            row.cold.deferred_sent_pages > 0,
            "cold stream never drained"
        );
    }
}
