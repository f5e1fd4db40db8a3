//! The migration observatory's digest scenarios.
//!
//! `bench digest` runs a fixed roster of recorded migrations — the three
//! fixed-seed scenarios locked by `tests/precopy_equivalence.rs` plus one
//! deliberately degraded run — folds each into a
//! [`migrate::digest::RunDigest`], and writes `DIGEST_<name>.json` (the
//! compare baseline) and `DIGEST_<name>.prom` (Prometheus text exposition
//! of the run's metrics registry) into the output directory. `bench
//! compare <old> <new>` diffs two digest documents with
//! [`migrate::digest::compare`], under the run-digest row of
//! [`migrate::digest::GATES`].
//!
//! Everything here is deterministic: same binary, same roster, same seeds
//! produce byte-identical digests, which is what makes the committed
//! baselines in `results/` a meaningful CI gate.

use javmm::orchestrator::{run_scenario_recorded, Scenario};
use javmm::vm::JavaVmConfig;
use migrate::config::{CoordPolicy, MigrationConfig};
use migrate::digest::{DigestMeta, RunDigest};
use simkit::telemetry::export::prometheus_to_string;
use simkit::telemetry::Recorder;
use simkit::units::MIB;
use simkit::{FaultPlan, LaneFaults, SimDuration};
use workloads::catalog;

/// One roster entry: a named, fully pinned migration scenario.
pub struct DigestScenario {
    /// Stable name; becomes the digest's scenario key and file name.
    pub name: &'static str,
    /// Workload label carried into the digest metadata.
    pub workload: &'static str,
    /// Whether the run is assisted.
    pub assisted: bool,
    /// Root seed.
    pub seed: u64,
    build: fn(u64) -> (JavaVmConfig, MigrationConfig, SimDuration, SimDuration),
}

fn standard(
    workload: workloads::spec::WorkloadSpec,
    assisted: bool,
    seed: u64,
) -> (JavaVmConfig, MigrationConfig, SimDuration, SimDuration) {
    let config = if assisted {
        MigrationConfig::javmm_default()
    } else {
        MigrationConfig::xen_default()
    };
    (
        JavaVmConfig::paper(workload, assisted, seed),
        config,
        SimDuration::from_secs(20),
        SimDuration::from_secs(5),
    )
}

/// The degraded roster entry: a dead event channel eats every coordination
/// message, so the begin-ack retry budget runs out and the engine falls
/// back to vanilla pre-copy (`tests/degradation.rs` locks this behavior).
fn degraded_beginack(seed: u64) -> (JavaVmConfig, MigrationConfig, SimDuration, SimDuration) {
    let mut vm = JavaVmConfig::paper(catalog::mpeg(), true, seed);
    vm.young_max = Some(256 * MIB);
    vm.lkm.reply_timeout = SimDuration::from_millis(500);
    let config = MigrationConfig {
        coord: CoordPolicy {
            degrade_on_stragglers: true,
            ..CoordPolicy::default()
        },
        faults: FaultPlan {
            seed: 7,
            evtchn: LaneFaults {
                drop: 1.0,
                ..LaneFaults::NONE
            },
            ..FaultPlan::none()
        },
        ..MigrationConfig::javmm_default()
    };
    (
        vm,
        config,
        SimDuration::from_secs(10),
        SimDuration::from_secs(5),
    )
}

/// The fixed digest roster.
pub fn scenarios() -> Vec<DigestScenario> {
    vec![
        DigestScenario {
            name: "crypto-assisted-seed9",
            workload: "crypto",
            assisted: true,
            seed: 9,
            build: |seed| standard(catalog::crypto(), true, seed),
        },
        DigestScenario {
            name: "derby-xen-seed1",
            workload: "derby",
            assisted: false,
            seed: 1,
            build: |seed| standard(catalog::derby(), false, seed),
        },
        DigestScenario {
            name: "derby-assisted-seed3",
            workload: "derby",
            assisted: true,
            seed: 3,
            build: |seed| standard(catalog::derby(), true, seed),
        },
        DigestScenario {
            name: "mpeg-degraded-beginack",
            workload: "mpeg",
            assisted: true,
            seed: 31,
            build: degraded_beginack,
        },
    ]
}

/// Runs one roster entry and folds it into a digest plus the Prometheus
/// exposition of its metrics registry. `scan_slowdown` scales the
/// engine's per-page scan CPU cost (1.0 = stock); it exists to prove the
/// regression gate fires — see the `--scan-slowdown` flag.
pub fn run_digest_scenario(s: &DigestScenario, scan_slowdown: f64) -> (RunDigest, String) {
    let (vm, mut config, warmup, tail) = (s.build)(s.seed);
    if scan_slowdown != 1.0 {
        config.cpu_cost_per_page_scan = config.cpu_cost_per_page_scan.mul_f64(scan_slowdown);
    }
    let outcome =
        run_scenario_recorded(&Scenario::quick(vm, config, warmup, tail), Recorder::new())
            .expect("digest scenario failed");
    let meta = DigestMeta {
        name: s.name.to_string(),
        workload: s.workload.to_string(),
        assisted: s.assisted,
        seed: s.seed,
    };
    let prom = prometheus_to_string(&outcome.report.telemetry);
    (RunDigest::from_report(meta, &outcome.report), prom)
}
