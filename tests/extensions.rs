//! The §6 extensions, end-to-end: selective compression, the alternative
//! final-update strategy, and the adaptive policy.

use javmm::orchestrator::{run_scenario, Scenario, ScenarioOutcome};
use javmm::vm::JavaVmConfig;
use migrate::config::{CompressionPolicy, MigrationConfig};
use migrate::policy::{choose_strategy, Strategy, WorkloadProbe};
use netsim::CompressionMethod;
use simkit::units::Bandwidth;
use simkit::SimDuration;
use workloads::catalog;

fn run(config: MigrationConfig, vm: JavaVmConfig) -> ScenarioOutcome {
    run_scenario(&Scenario::quick(
        vm,
        config,
        SimDuration::from_secs(20),
        SimDuration::from_secs(5),
    ))
    .expect("scenario failed")
}

#[test]
fn compression_orders_traffic_and_stays_correct() {
    let traffic = |policy: CompressionPolicy| {
        let mut config = MigrationConfig::javmm_default();
        config.compression = policy;
        let out = run(config, JavaVmConfig::paper(catalog::derby(), true, 1));
        assert!(out.report.verification.is_correct(), "{policy:?}");
        (out.report.total_bytes, out.report.cpu_time)
    };
    let (raw, cpu_raw) = traffic(CompressionPolicy::Off);
    let (fast, _) = traffic(CompressionPolicy::Uniform(CompressionMethod::Fast));
    let (strong, cpu_strong) = traffic(CompressionPolicy::Uniform(CompressionMethod::Strong));
    let (per_class, _) = traffic(CompressionPolicy::PerClass);

    assert!(fast < raw, "fast {fast} vs raw {raw}");
    assert!(strong < fast, "strong {strong} vs fast {fast}");
    assert!(per_class < raw);
    assert!(per_class >= strong, "per-class mixes fast and strong");
    assert!(cpu_strong > cpu_raw, "compression must cost CPU");
}

#[test]
fn rewalk_final_update_is_correct_but_slower() {
    let run_strategy = |rewalk: bool| {
        let mut vm = JavaVmConfig::paper(catalog::derby(), true, 1);
        vm.lkm.rewalk_final_update = rewalk;
        run(MigrationConfig::javmm_default(), vm)
    };
    let incremental = run_strategy(false);
    let rewalk = run_strategy(true);

    assert!(incremental.report.verification.is_correct());
    assert!(rewalk.report.verification.is_correct());
    // The rewalk strategy keeps no intermediate bookkeeping, so the engine
    // learns it from the LKM and its stop-and-copy considers every page
    // dirtied during the run (§3.3.4).
    assert_eq!(rewalk.report.total_bytes, 1_155_678_192);
    assert_eq!(rewalk.report.last_iteration().pages_to_send, 273_882);

    // The incremental strategy finishes the final update within the
    // paper's 300us; the rewalk walks every skip-over page again, which is
    // orders of magnitude slower (the reason the paper deferred it).
    let inc_us = incremental.report.downtime.final_update.as_micros();
    let re_us = rewalk.report.downtime.final_update.as_micros();
    assert!(inc_us < 300, "incremental final update {inc_us}us");
    assert!(
        re_us > inc_us * 20,
        "rewalk should dwarf incremental: {re_us}us vs {inc_us}us"
    );
    // Both still skip the Young generation.
    assert!(rewalk.report.pages_skipped_transfer() > 0);
}

#[test]
fn adaptive_policy_separates_categories() {
    let probe =
        |w: &workloads::spec::WorkloadSpec, young: u64, survivors: u64, gc_ms: u64| WorkloadProbe {
            vm_bytes: 2 << 30,
            young_committed: young,
            alloc_rate: w.alloc_rate,
            other_dirty_rate: w.old_write_rate + 2.5e6,
            other_ws_bytes: w.old_ws_bytes + (8 << 20),
            expected_survivors: survivors,
            minor_gc_duration: SimDuration::from_millis(gc_ms),
            bandwidth: Bandwidth::gigabit_ethernet(),
            resume_time: SimDuration::from_millis(170),
        };
    let derby = choose_strategy(&probe(&catalog::derby(), 1 << 30, 10 << 20, 900));
    assert_eq!(derby.strategy, Strategy::Javmm);
    let scimark = choose_strategy(&probe(&catalog::scimark(), 128 << 20, 20 << 20, 600));
    assert_eq!(scimark.strategy, Strategy::Precopy);
    // The decision's estimates should roughly bracket reality: derby's
    // pre-copy downtime estimate must exceed its JAVMM estimate by a lot.
    assert!(derby.precopy_downtime > derby.javmm_downtime * 3);
}

#[test]
fn compression_composes_with_skipping() {
    // Skipping removes the Young generation; compression shrinks the rest.
    let mut config = MigrationConfig::javmm_default();
    config.compression = CompressionPolicy::PerClass;
    let compressed = run(config, JavaVmConfig::paper(catalog::xml(), true, 2));
    let plain = run(
        MigrationConfig::javmm_default(),
        JavaVmConfig::paper(catalog::xml(), true, 2),
    );
    assert!(compressed.report.verification.is_correct());
    assert!(
        compressed.report.total_bytes < plain.report.total_bytes * 3 / 4,
        "{} vs {}",
        compressed.report.total_bytes,
        plain.report.total_bytes
    );
    // Both still skipped the 1.5 GiB Young generation.
    assert!(compressed.report.pages_skipped_transfer() > 200_000);
}
