//! Migration correctness across the whole workload catalog.
//!
//! Every page the protocol promises to transfer must hold the source's
//! final content version at the destination; the only excusable staleness
//! is declared garbage (skip-over areas) and free frames. This must hold
//! for every workload, assisted or not.

use javmm::orchestrator::{run_scenario, Scenario};
use javmm::vm::JavaVmConfig;
use migrate::config::MigrationConfig;
use migrate::report::MigrationReport;
use simkit::telemetry::{Recorder, Subsystem};
use simkit::SimDuration;
use workloads::catalog;

/// Every wire byte and every scanned page of a recorded run is booked
/// exactly once, whichever send path moved it: the class breakdown and
/// the per-iteration bytes both sum to `total_bytes`, the engine's
/// `pages_scanned` counter equals the pages each iteration sent or
/// skipped, and the destination verifies.
fn assert_exact_sums(label: &str, report: &MigrationReport) {
    assert_eq!(
        report.traffic_by_class.total(),
        report.total_bytes,
        "{label}: class breakdown"
    );
    let iteration_bytes: u64 = report.iterations.iter().map(|i| i.bytes_sent).sum();
    assert_eq!(
        iteration_bytes, report.total_bytes,
        "{label}: iteration bytes"
    );
    let processed: u64 = report
        .iterations
        .iter()
        .map(|i| i.pages_sent + i.pages_skipped_dirty + i.pages_skipped_transfer)
        .sum();
    assert_eq!(
        report.telemetry.counter(Subsystem::Engine, "pages_scanned"),
        Some(processed),
        "{label}: scanned pages"
    );
    assert!(
        report.verification.is_correct(),
        "{label}: {:?}",
        report.verification
    );
}

fn check(name: &str, assisted: bool, seed: u64) {
    let spec = catalog::by_name(name).expect("workload exists");
    let vm = JavaVmConfig::paper(spec, assisted, seed);
    let migration = if assisted {
        MigrationConfig::javmm_default()
    } else {
        MigrationConfig::xen_default()
    };
    let out = run_scenario(&Scenario::quick(
        vm,
        migration,
        SimDuration::from_secs(15),
        SimDuration::from_secs(5),
    ))
    .expect("scenario failed");
    let v = &out.report.verification;
    assert_eq!(v.mismatched, 0, "{name} assisted={assisted}: {v:?}");
    if assisted {
        assert!(
            v.excused_skipped > 0,
            "{name}: assisted migration should actually skip pages"
        );
        assert_eq!(out.report.stragglers, 0, "{name}: TI agent must not lag");
    } else {
        assert_eq!(
            out.report.pages_skipped_transfer(),
            0,
            "{name}: vanilla migration must not consult a transfer bitmap"
        );
    }
}

#[test]
fn all_workloads_migrate_correctly_with_javmm() {
    for w in catalog::all() {
        check(w.name, true, 1);
    }
}

#[test]
fn all_workloads_migrate_correctly_with_xen() {
    for w in catalog::all() {
        check(w.name, false, 1);
    }
}

#[test]
fn correctness_holds_across_seeds() {
    for seed in [2, 3, 4] {
        check("derby", true, seed);
        check("scimark", true, seed);
    }
}

#[test]
fn traffic_breakdown_reflects_skipping() {
    use javmm::orchestrator::run_scenario_recorded;
    use vmem::PageClass;

    let run = |assisted: bool| {
        let vm = JavaVmConfig::paper(catalog::by_name("derby").unwrap(), assisted, 1);
        let migration = if assisted {
            MigrationConfig::javmm_default()
        } else {
            MigrationConfig::xen_default()
        };
        run_scenario_recorded(
            &Scenario::quick(
                vm,
                migration,
                SimDuration::from_secs(20),
                SimDuration::from_secs(5),
            ),
            Recorder::new(),
        )
        .expect("scenario failed")
    };
    let xen = run(false);
    let javmm = run(true);

    // The breakdown accounts for every byte.
    assert_exact_sums("xen", &xen.report);
    assert_exact_sums("javmm", &javmm.report);

    // Vanilla migration's traffic is dominated by Young-generation garbage;
    // JAVMM's Young traffic collapses to (at most) the first-sweep residue
    // while Old-generation traffic stays comparable.
    let xen_young = xen.report.traffic_by_class.get(PageClass::HeapYoung);
    let javmm_young = javmm.report.traffic_by_class.get(PageClass::HeapYoung);
    assert!(
        javmm_young < xen_young / 10,
        "young traffic: JAVMM {javmm_young} vs Xen {xen_young}"
    );
    let xen_old = xen.report.traffic_by_class.get(PageClass::HeapOld);
    let javmm_old = javmm.report.traffic_by_class.get(PageClass::HeapOld);
    assert!(
        javmm_old > xen_old / 4,
        "old traffic should not collapse: {javmm_old} vs {xen_old}"
    );
    // Largest class for Xen is the Young generation.
    let (top_class, _) = xen.report.traffic_by_class.sorted()[0];
    assert_eq!(top_class, PageClass::HeapYoung);
}

/// The exact sums hold on every send path: the hot scan (vanilla, JAVMM,
/// per-class compression), the cold bulk drain and the delta codec (defer
/// and delta alone and together, and a one-page cache that evicts on
/// every insert), and the stop-and-copy of a run that degraded with a
/// cold backlog (a dead event channel, a stalled agent).
#[test]
fn every_send_path_accounts_for_each_byte_and_page() {
    use javmm::vm::JavaVm;
    use migrate::config::{CompressionPolicy, CoordPolicy};
    use migrate::precopy::PrecopyEngine;
    use migrate::ColdAssistConfig;
    use simkit::units::{Bandwidth, MIB};
    use simkit::{DetRng, FaultPlan, LaneFaults, SimClock, StallPoint};
    use workloads::cacheapp::{CacheApp, CacheAppConfig};

    let guest = |cold_cache: bool| {
        let mut config = JavaVmConfig::paper(catalog::mpeg(), true, 5);
        config.young_max = Some(256 * MIB);
        config.lkm.reply_timeout = SimDuration::from_millis(500);
        let mut vm = JavaVm::launch(config);
        if cold_cache {
            let cache = CacheApp::launch(
                vm.kernel_handle(),
                CacheAppConfig {
                    cache_bytes: 512 * MIB,
                    skip_fraction: 0.1,
                    write_rate: 30e6,
                    ops_per_sec: 10_000.0,
                    miss_penalty: 0.3,
                    refill_secs: 30.0,
                    cold_fraction: 0.6,
                },
                true,
                DetRng::new(41),
            );
            vm.add_app(Box::new(cache));
        }
        vm
    };
    let run = |label: &str, cold_cache: bool, config: MigrationConfig| {
        let mut vm = guest(cold_cache);
        let mut clock = SimClock::new();
        vm.run_for(
            &mut clock,
            SimDuration::from_secs(10),
            SimDuration::from_millis(2),
        );
        let config = MigrationConfig {
            bandwidth: Bandwidth::from_mbytes_per_sec(32.0),
            ..config
        };
        let report = PrecopyEngine::new(config)
            .migrate_recorded(&mut vm, &mut clock, Recorder::new())
            .unwrap_or_else(|e| panic!("{label}: {e:?}"));
        assert_exact_sums(label, &report);
        report
    };
    let cold = |cold: ColdAssistConfig| MigrationConfig {
        cold,
        ..MigrationConfig::javmm_default()
    };
    let defer_only = ColdAssistConfig {
        delta: false,
        ..ColdAssistConfig::full()
    };
    let delta_only = ColdAssistConfig {
        defer: false,
        ..ColdAssistConfig::full()
    };
    let one_page = ColdAssistConfig {
        delta_cache_pages: 1,
        ..ColdAssistConfig::full()
    };

    let xen = run("xen", false, MigrationConfig::xen_default());
    assert_eq!(xen.pages_skipped_transfer(), 0);
    let javmm = run("javmm", false, MigrationConfig::javmm_default());
    assert!(javmm.pages_skipped_transfer() > 0);
    run(
        "javmm-per-class",
        false,
        MigrationConfig {
            compression: CompressionPolicy::PerClass,
            ..MigrationConfig::javmm_default()
        },
    );
    for (label, config) in [
        ("defer+delta", ColdAssistConfig::full()),
        ("defer", defer_only),
        ("delta", delta_only),
        ("one-page-cache", one_page),
    ] {
        let r = run(label, true, cold(config)).cold.expect("cold report");
        assert_eq!(
            r.deferred_sent_pages > 0,
            config.defer,
            "{label}: bulk drain {r:?}"
        );
        assert_eq!(
            r.delta_misses > 0,
            config.delta,
            "{label}: delta codec {r:?}"
        );
        // A one-page cache evicts every version before it can be reused.
        assert_eq!(
            r.delta_hits > 0,
            config.delta && config.delta_cache_pages > 1,
            "{label}: delta hits {r:?}"
        );
    }

    let degrading = |faults: FaultPlan| MigrationConfig {
        coord: CoordPolicy {
            degrade_on_stragglers: true,
            ..CoordPolicy::default()
        },
        faults,
        ..cold(ColdAssistConfig::full())
    };
    let dead_channel = FaultPlan {
        seed: 7,
        evtchn: LaneFaults {
            drop: 1.0,
            ..LaneFaults::NONE
        },
        ..FaultPlan::none()
    };
    let stalled_agent = FaultPlan {
        agent_stall: Some(StallPoint::EnteringLastIter),
        ..FaultPlan::none()
    };
    for (label, faults, fault) in [
        (
            "dead-channel",
            dead_channel,
            simkit::FaultKind::BeginAckTimeout,
        ),
        (
            "stalled-agent",
            stalled_agent,
            simkit::FaultKind::AgentStraggler,
        ),
    ] {
        let report = run(label, true, degrading(faults));
        assert_eq!(
            report.outcome,
            migrate::MigrationOutcome::DegradedVanilla { fault },
            "{label}"
        );
    }
}

#[test]
fn jvm_language_runtimes_leverage_javmm_as_is() {
    // §6: Jython and JRuby run on the JVM and use its collectors, so the
    // unmodified TI agent covers them.
    for name in ["jython", "jruby"] {
        let spec = catalog::by_name(name).expect("JVM-language workload");
        let xen_vm = JavaVmConfig::paper(spec.clone(), false, 1);
        let javmm_vm = JavaVmConfig::paper(spec, true, 1);
        let xen = run_scenario(&Scenario::quick(
            xen_vm,
            MigrationConfig::xen_default(),
            SimDuration::from_secs(20),
            SimDuration::from_secs(5),
        ))
        .expect("scenario failed");
        let javmm = run_scenario(&Scenario::quick(
            javmm_vm,
            MigrationConfig::javmm_default(),
            SimDuration::from_secs(20),
            SimDuration::from_secs(5),
        ))
        .expect("scenario failed");
        assert!(xen.report.verification.is_correct());
        assert!(javmm.report.verification.is_correct());
        assert!(
            javmm.report.total_bytes < xen.report.total_bytes / 3,
            "{name}: {} vs {}",
            javmm.report.total_bytes,
            xen.report.total_bytes
        );
    }
}
