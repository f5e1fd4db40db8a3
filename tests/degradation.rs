//! Acceptance tests of the degradation ladder: every injected coordination
//! fault must surface as a typed outcome — never a hang, never a corrupt
//! destination.
//!
//! The tentpole guarantees exercised here:
//!
//! * an agent stalled at **any** of the five LKM protocol states leaves the
//!   run terminating in [`MigrationOutcome::DegradedVanilla`] with the
//!   triggering fault named in the typed outcome *and* the recorder's
//!   `degraded` instant, and the destination memory exactly correct;
//! * a dead coordination channel exhausts the begin-ack retry budget and
//!   degrades (or fails, under [`FallbackPolicy::Fail`]);
//! * a GC overrun past the LKM straggler deadline degrades like a stalled
//!   agent;
//! * mid-migration link degradation slows the run but completes it; a dead
//!   link surfaces as [`MigrateError::LinkDown`];
//! * the all-zero [`FaultPlan`] is inert: a config built with the fault
//!   harness produces a bit-for-bit identical report to the preset config
//!   locked by `tests/precopy_equivalence.rs`.

use javmm::orchestrator::{run_scenario, Scenario};
use javmm::vm::{JavaVm, JavaVmConfig};
use migrate::config::{FallbackPolicy, MigrationConfig, COORD_RETRY_LIMIT};
use migrate::error::{MigrateError, MigrationOutcome};
use migrate::precopy::PrecopyEngine;
use migrate::report::{DowntimeBreakdown, MigrationReport};
use simkit::telemetry::{Recorder, Subsystem, Value};
use simkit::units::MIB;
use simkit::{
    FaultKind, FaultPlan, GcOverrun, LaneFaults, LinkDegrade, SimClock, SimDuration, StallPoint,
};
use workloads::catalog;

/// A small, fast guest: mpeg workload, 256 MiB Young generation, and a
/// short LKM straggler deadline so stalled agents are detected quickly.
fn small_vm(seed: u64) -> JavaVm {
    let mut config = JavaVmConfig::paper(catalog::mpeg(), true, seed);
    config.young_max = Some(256 * MIB);
    config.lkm.reply_timeout = SimDuration::from_millis(500);
    JavaVm::launch(config)
}

fn faulty_config(faults: FaultPlan) -> MigrationConfig {
    MigrationConfig {
        degrade_on_stragglers: true,
        faults,
        ..MigrationConfig::javmm_default()
    }
}

/// Runs one assisted migration with `faults` installed and a recorder
/// attached; the wall clock of every run is bounded by construction (all
/// coordination waits are finite), so a hang fails the test harness
/// timeout rather than looping forever.
fn run_faulty(faults: FaultPlan, seed: u64) -> Result<MigrationReport, MigrateError> {
    let mut vm = small_vm(seed);
    let mut clock = SimClock::new();
    vm.run_for(
        &mut clock,
        SimDuration::from_secs(10),
        SimDuration::from_millis(2),
    );
    PrecopyEngine::new(faulty_config(faults)).migrate_recorded(&mut vm, &mut clock, Recorder::new())
}

fn degraded_fault(report: &MigrationReport) -> FaultKind {
    match report.outcome {
        MigrationOutcome::DegradedVanilla { fault } => fault,
        MigrationOutcome::Completed => panic!("expected a degraded outcome"),
    }
}

/// The flight recorder's one `degraded` instant must name the fault the
/// typed outcome carries.
fn assert_fault_reported(report: &MigrationReport, fault: FaultKind) {
    let degraded: Vec<_> = report
        .telemetry
        .events_named(Subsystem::Engine, "degraded")
        .into_iter()
        .collect();
    assert_eq!(degraded.len(), 1, "exactly one degraded telemetry instant");
    let named = degraded[0]
        .fields
        .iter()
        .any(|(k, v)| *k == "fault" && *v == Value::Str(fault.name().to_string()));
    assert!(named, "telemetry instant lacks fault={}", fault.name());
}

#[test]
fn agent_stall_at_every_state_degrades_to_vanilla() {
    for (i, stall) in StallPoint::ALL.into_iter().enumerate() {
        let faults = FaultPlan {
            agent_stall: Some(stall),
            ..FaultPlan::none()
        };
        let report = run_faulty(faults, 20 + i as u64).expect("degraded runs are not errors");
        let fault = degraded_fault(&report);
        assert_eq!(
            fault,
            FaultKind::AgentStraggler,
            "stall at {}: a silent agent surfaces via the straggler deadline",
            stall.name()
        );
        assert!(
            report.verification.is_correct(),
            "stall at {}: {:?}",
            stall.name(),
            report.verification
        );
        assert_fault_reported(&report, fault);
    }
}

#[test]
fn dead_coordination_channel_exhausts_begin_retries_and_degrades() {
    let faults = FaultPlan {
        seed: 7,
        evtchn: LaneFaults {
            drop: 1.0,
            ..LaneFaults::NONE
        },
        ..FaultPlan::none()
    };
    let report = run_faulty(faults, 31).expect("degradation is not an error");
    assert_eq!(degraded_fault(&report), FaultKind::BeginAckTimeout);
    assert!(report.verification.is_correct());
    assert_fault_reported(&report, FaultKind::BeginAckTimeout);
    // The full retry budget was spent before giving up.
    let retries = report
        .telemetry
        .events_named(Subsystem::Engine, "coord_retry")
        .len() as u32;
    assert_eq!(retries, COORD_RETRY_LIMIT);
    // No assistance ever took effect.
    assert_eq!(report.pages_skipped_transfer(), 0);
}

#[test]
fn fail_policy_surfaces_a_typed_coordination_error() {
    let faults = FaultPlan {
        seed: 7,
        evtchn: LaneFaults {
            drop: 1.0,
            ..LaneFaults::NONE
        },
        ..FaultPlan::none()
    };
    let mut vm = small_vm(32);
    let mut clock = SimClock::new();
    vm.run_for(
        &mut clock,
        SimDuration::from_secs(10),
        SimDuration::from_millis(2),
    );
    let config = MigrationConfig {
        fallback: FallbackPolicy::Fail,
        faults,
        ..MigrationConfig::javmm_default()
    };
    let err = PrecopyEngine::new(config)
        .migrate(&mut vm, &mut clock)
        .expect_err("a dead channel must fail under FallbackPolicy::Fail");
    match err {
        MigrateError::CoordTimeout { phase, waited } => {
            assert_eq!(phase.name(), "begin_ack");
            assert!(waited > SimDuration::ZERO);
        }
        other => panic!("expected CoordTimeout, got {other:?}"),
    }
}

#[test]
fn gc_overrun_past_straggler_deadline_degrades() {
    let faults = FaultPlan {
        gc_overrun: Some(GcOverrun {
            extra: SimDuration::from_secs(5),
        }),
        ..FaultPlan::none()
    };
    let report = run_faulty(faults, 33).expect("degradation is not an error");
    assert_eq!(degraded_fault(&report), FaultKind::AgentStraggler);
    assert!(report.verification.is_correct());
    assert_fault_reported(&report, FaultKind::AgentStraggler);
}

/// The downtime breakdown does not depend on whether a recorder watched
/// the run. A recorded run reads the enforced GC from its spans and an
/// unrecorded one from the GC log, so the log must carry the pause the
/// JVM really took, overrun included.
#[test]
fn gc_overrun_breakdown_is_the_same_recorded_or_not() {
    let faults = FaultPlan {
        gc_overrun: Some(GcOverrun {
            extra: SimDuration::from_millis(300),
        }),
        ..FaultPlan::none()
    };
    let run = |recorder: Recorder| {
        let mut vm = small_vm(33);
        let mut clock = SimClock::new();
        vm.run_for(
            &mut clock,
            SimDuration::from_secs(10),
            SimDuration::from_millis(2),
        );
        PrecopyEngine::new(faulty_config(faults.clone()))
            .migrate_recorded(&mut vm, &mut clock, recorder)
            .expect("a straggling enforced GC degrades the run, it does not fail it")
    };
    let recorded = run(Recorder::new());
    let unrecorded = run(Recorder::disabled());
    assert_eq!(recorded.total_duration, unrecorded.total_duration);
    assert!(
        recorded.downtime.enforced_gc >= SimDuration::from_millis(300),
        "the overrun is part of the enforced pause"
    );
    let fields = |d: DowntimeBreakdown| {
        [
            d.safepoint_wait,
            d.enforced_gc,
            d.final_update,
            d.last_iteration,
            d.resume,
        ]
    };
    assert_eq!(fields(recorded.downtime), fields(unrecorded.downtime));
}

#[test]
fn link_degrade_slows_the_run_but_completes_it() {
    let strike = FaultPlan {
        link: Some(LinkDegrade {
            after: SimDuration::from_secs(1),
            factor: 0.25,
        }),
        ..FaultPlan::none()
    };
    let healthy = run_faulty(FaultPlan::none(), 34).expect("clean run");
    let slowed = run_faulty(strike, 34).expect("a slow link still completes");
    assert_eq!(slowed.outcome, MigrationOutcome::Completed);
    assert!(slowed.verification.is_correct());
    assert!(
        slowed.total_duration > healthy.total_duration,
        "quartered bandwidth must lengthen the migration ({} vs {})",
        slowed.total_duration,
        healthy.total_duration
    );
    assert_eq!(
        slowed
            .telemetry
            .events_named(Subsystem::Engine, "link_degraded")
            .len(),
        1
    );
}

#[test]
fn dead_link_surfaces_as_link_down() {
    let faults = FaultPlan {
        link: Some(LinkDegrade {
            after: SimDuration::from_secs(1),
            factor: 0.0,
        }),
        ..FaultPlan::none()
    };
    let err = run_faulty(faults, 35).expect_err("a dead link cannot complete");
    assert!(matches!(err, MigrateError::LinkDown), "got {err:?}");
}

/// The zero plan is inert: running the exact scenario locked by
/// `tests/precopy_equivalence.rs` through a config assembled from the
/// vanilla preset, with the fault harness explicitly attached, must
/// reproduce the identical report.
#[test]
fn zero_fault_plan_is_bit_identical_to_the_locked_golden() {
    let run = |config: MigrationConfig| {
        run_scenario(&Scenario::quick(
            JavaVmConfig::paper(catalog::crypto(), true, 9),
            config,
            SimDuration::from_secs(20),
            SimDuration::from_secs(5),
        ))
        .expect("scenario failed")
        .report
    };
    let preset = run(MigrationConfig::javmm_default());
    let harness = run(MigrationConfig {
        assisted: true,
        degrade_on_stragglers: false,
        fallback: FallbackPolicy::DegradeToVanilla,
        faults: FaultPlan::none(),
        ..MigrationConfig::xen_default()
    });

    assert_eq!(preset.outcome, MigrationOutcome::Completed);
    assert_eq!(harness.outcome, MigrationOutcome::Completed);
    assert_eq!(harness.total_bytes, preset.total_bytes);
    assert_eq!(harness.total_duration, preset.total_duration);
    assert_eq!(harness.cpu_time, preset.cpu_time);
    assert_eq!(
        harness.downtime.workload_downtime(),
        preset.downtime.workload_downtime()
    );
    assert_eq!(
        (
            harness.verification.matching,
            harness.verification.excused_skipped,
            harness.verification.excused_free,
            harness.verification.mismatched,
        ),
        (
            preset.verification.matching,
            preset.verification.excused_skipped,
            preset.verification.excused_free,
            preset.verification.mismatched,
        )
    );
    let rows = |r: &MigrationReport| {
        r.iterations
            .iter()
            .map(|it| {
                (
                    it.pages_to_send,
                    it.pages_sent,
                    it.bytes_sent,
                    it.pages_skipped_dirty,
                    it.pages_skipped_transfer,
                    it.duration,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(rows(&harness), rows(&preset));
}
