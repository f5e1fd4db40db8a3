//! Cold-assist inertness: with access tracking, defer, and delta all
//! disabled (the zero-config default), the subsystem must leave no trace.
//!
//! `tests/precopy_equivalence.rs` locks the engine's per-bit behaviour and
//! `results/DIGEST_*.json` pins the digest bytes; this file locks the
//! *absence* of the cold-page machinery on top: re-running the committed
//! digest roster with `ColdAssistConfig::off()` spelled out explicitly
//! must reproduce every committed golden byte for byte, with no `cold`
//! section, and the drain12 fleet golden likewise. If a disabled run ever
//! grows a counter, a section or a histogram bucket, these comparisons
//! break before any behavioural test does.

use cluster::{roster, run_fleet, FleetPolicy};
use javmm::orchestrator::{run_scenario_recorded, Scenario};
use javmm::vm::JavaVmConfig;
use migrate::config::MigrationConfig;
use migrate::digest::{DigestMeta, RunDigest, DIGEST_SCHEMA};
use migrate::ColdAssistConfig;
use simkit::telemetry::Recorder;
use simkit::SimDuration;
use workloads::catalog;

/// Reads one committed golden from `results/`.
fn committed(name: &str) -> String {
    let path = format!("{}/results/DIGEST_{name}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Runs one of the standard digest-roster scenarios with the cold assist
/// explicitly disabled, returning the digest JSON under the scenario's
/// committed name.
fn digest_cold_off(name: &str, workload: &str, assisted: bool, seed: u64) -> String {
    let spec = match workload {
        "derby" => catalog::derby(),
        "crypto" => catalog::crypto(),
        other => panic!("unknown workload {other}"),
    };
    let mut migration = if assisted {
        MigrationConfig::javmm_default()
    } else {
        MigrationConfig::xen_default()
    };
    migration.cold = ColdAssistConfig::off();
    let outcome = run_scenario_recorded(
        &Scenario::quick(
            JavaVmConfig::paper(spec, assisted, seed),
            migration,
            SimDuration::from_secs(20),
            SimDuration::from_secs(5),
        ),
        Recorder::new(),
    )
    .expect("scenario failed");
    RunDigest::from_report(
        DigestMeta {
            name: name.to_string(),
            workload: workload.to_string(),
            assisted,
            seed,
        },
        &outcome.report,
    )
    .to_json()
}

/// The three standard committed run digests, reproduced byte for byte
/// with the subsystem off.
#[test]
fn disabled_cold_assist_reproduces_committed_run_digests() {
    for (name, workload, assisted, seed) in [
        ("crypto-assisted-seed9", "crypto", true, 9u64),
        ("derby-xen-seed1", "derby", false, 1),
        ("derby-assisted-seed3", "derby", true, 3),
    ] {
        let golden = committed(name);
        assert!(
            golden.contains(&format!("\"schema\": \"{DIGEST_SCHEMA}\"")),
            "{name}: committed golden must carry the run-digest schema"
        );
        let digest = digest_cold_off(name, workload, assisted, seed);
        assert!(
            !digest.contains("\"cold\""),
            "{name}: disabled run must emit no cold section"
        );
        assert_eq!(digest, golden, "{name} diverged from the committed golden");
    }
}

/// The drain12 fleet golden, reproduced byte for byte with the
/// subsystem off.
#[test]
fn disabled_cold_assist_reproduces_committed_fleet_golden() {
    let golden = committed("fleet_drain12_cycle");
    let out = run_fleet(&roster::drain12(7), FleetPolicy::CycleAware).expect("drain12 failed");
    assert_eq!(
        out.digest.to_json(),
        golden,
        "drain12 digest diverged from the committed golden"
    );
}
