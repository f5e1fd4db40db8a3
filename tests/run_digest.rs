//! Determinism and gate locks for the migration observatory.
//!
//! Same seed + same config (including the same [`FaultPlan`]) must fold
//! into a byte-identical [`RunDigest`] JSON document — the property that
//! makes committed digest baselines a meaningful CI gate. On top of the
//! byte lock, these tests pin the digest's headline numbers for the
//! `derby-assisted-seed3` scenario to the same goldens as
//! `tests/precopy_equivalence.rs`, and prove the compare gate end-to-end:
//! clean on an identical rerun, tripped (naming exactly the scan metric)
//! by a seeded 25% per-page scan-cost slowdown.

use javmm::orchestrator::{run_scenario_recorded, Scenario};
use javmm::vm::JavaVmConfig;
use migrate::config::{CoordPolicy, MigrationConfig};
use migrate::digest::{compare, DigestMeta, RunDigest};
use simkit::telemetry::Recorder;
use simkit::units::MIB;
use simkit::{FaultPlan, LaneFaults, SimDuration};
use workloads::catalog;

fn digest_json(scan_slowdown: f64) -> String {
    let mut config = MigrationConfig::javmm_default();
    config.cpu_cost_per_page_scan = config.cpu_cost_per_page_scan.mul_f64(scan_slowdown);
    let outcome = run_scenario_recorded(
        &Scenario::quick(
            JavaVmConfig::paper(catalog::derby(), true, 3),
            config,
            SimDuration::from_secs(20),
            SimDuration::from_secs(5),
        ),
        Recorder::new(),
    )
    .expect("scenario failed");
    RunDigest::from_report(
        DigestMeta {
            name: "derby-assisted-seed3".to_string(),
            workload: "derby".to_string(),
            assisted: true,
            seed: 3,
        },
        &outcome.report,
    )
    .to_json()
}

/// The degraded roster entry: every coordination message dropped, so the
/// begin-ack retry budget runs out mid-run.
fn degraded_digest_json() -> String {
    let mut vm = JavaVmConfig::paper(catalog::mpeg(), true, 31);
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
    let outcome = run_scenario_recorded(
        &Scenario::quick(
            vm,
            config,
            SimDuration::from_secs(10),
            SimDuration::from_secs(5),
        ),
        Recorder::new(),
    )
    .expect("scenario failed");
    RunDigest::from_report(
        DigestMeta {
            name: "mpeg-degraded-beginack".to_string(),
            workload: "mpeg".to_string(),
            assisted: true,
            seed: 31,
        },
        &outcome.report,
    )
    .to_json()
}

#[test]
fn digest_is_byte_identical_across_runs_and_locked_to_goldens() {
    let a = digest_json(1.0);
    let b = digest_json(1.0);
    assert_eq!(a, b, "same seed + same config must digest identically");

    // Headline numbers pinned to the precopy_equivalence goldens.
    assert!(a.contains("\"total_bytes\": 1108190808"));
    assert!(a.contains("\"total_duration_ns\": 10454990877"));
    assert!(a.contains("\"cpu_time_ns\": 1473473878"));
    assert!(a.contains("\"iterations\": 5"));
    // Scan accounting: every examined page carries the 250 ns default cost.
    assert!(a.contains("\"pages_scanned\": 1018288"));
    assert!(a.contains("\"scan_cpu_ns\": 254572000"));
    assert!(a.contains("\"pages_per_cpu_sec\": 4000000"));
    // A healthy assisted run produces no findings.
    assert!(a.contains("\"findings\": [\n  ]"));

    let report = compare(&a, &b).expect("compare parses its own output");
    assert!(
        !report.has_regression(),
        "identical digests must gate clean"
    );
}

#[test]
fn degraded_digest_is_deterministic_and_names_its_fault() {
    let a = degraded_digest_json();
    let b = degraded_digest_json();
    assert_eq!(a, b, "faulty runs must digest identically too");
    assert!(a.contains("\"kind\": \"degraded_vanilla\""));
    assert!(a.contains("\"fault\": \"begin_ack_timeout\""));
    assert!(a.contains("\"rule\": \"degraded_vanilla\""));
}

#[test]
fn seeded_scan_slowdown_trips_exactly_the_scan_gate() {
    let base = digest_json(1.0);
    let slow = digest_json(1.25);
    let report = compare(&base, &slow).expect("digests parse");
    assert!(report.has_regression());
    assert_eq!(
        report.regressions(),
        vec!["scan.pages_per_cpu_sec"],
        "only the scan-throughput gate may trip: {}",
        report.render()
    );
    // The slowdown is CPU-accounting only: simulated time is untouched.
    let duration = |r: &str| {
        r.lines()
            .find(|l| l.contains("total_duration_ns"))
            .map(str::to_string)
    };
    assert_eq!(duration(&base), duration(&slow));
}
