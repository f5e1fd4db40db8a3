//! Failure injection: migration must survive a lossy netlink.
//!
//! Real netlink drops messages under memory pressure (`ENOBUFS`). A lost
//! query or reply must degrade gracefully — at worst the LKM's straggler
//! deadline fires and the affected application's memory is transferred in
//! full — and must never produce an incorrect destination or a hang.

use javmm::vm::{JavaVm, JavaVmConfig};
use migrate::config::MigrationConfig;
use migrate::precopy::PrecopyEngine;
use migrate::report::MigrationReport;
use simkit::units::MIB;
use simkit::{FaultPlan, LaneFaults, SimClock, SimDuration};
use workloads::catalog;

/// Migrates a warmed-up guest whose netlink hop drops each message with
/// probability `loss`. The loss rides the migration's fault plan, which
/// arms (or disarms) every lane when the migration starts.
fn migrate_with_loss(loss: f64, seed: u64) -> MigrationReport {
    let mut config = JavaVmConfig::paper(catalog::crypto(), true, seed);
    config.young_max = Some(256 * MIB);
    // A short deadline keeps lossy runs quick.
    config.lkm.reply_timeout = SimDuration::from_millis(800);
    let mut vm = JavaVm::launch(config);
    let mut clock = SimClock::new();
    vm.run_for(
        &mut clock,
        SimDuration::from_secs(15),
        SimDuration::from_millis(2),
    );
    let lossy = MigrationConfig {
        faults: FaultPlan {
            seed: seed ^ 0xfa17,
            netlink: LaneFaults {
                drop: loss,
                ..LaneFaults::NONE
            },
            ..FaultPlan::none()
        },
        ..MigrationConfig::javmm_default()
    };
    PrecopyEngine::new(lossy)
        .migrate(&mut vm, &mut clock)
        .expect("migration failed")
}

#[test]
fn migration_is_correct_under_any_loss_rate() {
    for (loss, seed) in [(0.05, 1), (0.3, 2), (0.9, 3), (1.0, 4)] {
        let report = migrate_with_loss(loss, seed);
        assert!(
            report.verification.is_correct(),
            "loss={loss}: {:?}",
            report.verification
        );
    }
}

#[test]
fn total_loss_degrades_to_vanilla_behaviour() {
    // With every message dropped the LKM never hears from the agent: no
    // pages are skipped, and since no app registered intent, nothing is
    // waited for.
    let report = migrate_with_loss(1.0, 7);
    assert_eq!(report.pages_skipped_transfer(), 0);
    assert!(report.verification.is_correct());
}

#[test]
fn partial_loss_may_cost_a_straggler_but_never_correctness() {
    // Drop messages aggressively across several seeds: whichever leg of the
    // protocol breaks (query, reply, prepare, ready), the run must complete
    // correctly; a lost prepare/ready leg shows up as a straggler.
    let mut straggler_seen = false;
    let mut skipped_seen = false;
    for seed in 10..18 {
        let report = migrate_with_loss(0.5, seed);
        assert!(
            report.verification.is_correct(),
            "seed {seed}: {:?}",
            report.verification
        );
        straggler_seen |= report.stragglers > 0;
        skipped_seen |= report.pages_skipped_transfer() > 0;
    }
    assert!(
        skipped_seen,
        "at 50% loss some run should still register areas"
    );
    // Straggler handling is the expected degradation mode; with eight seeds
    // at 50% loss at least one prepare/ready leg should have failed.
    assert!(
        straggler_seen,
        "expected at least one straggler across seeds"
    );
}
