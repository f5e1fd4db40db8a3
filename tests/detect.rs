//! Workload observatory acceptance: detected estimates must track the
//! declared-hint oracle on the cyclic evaluation roster, stay honest
//! (low confidence, working-set fallback) on rosters engineered to fool
//! them, and go blind — predictably — when the sample ring is starved.

use cluster::{evacuate, roster, EvacuationPlan, FleetPolicy};
use javmm::host::HostSpec;
use migrate::digest::FleetDigest;

/// Drains `host` alone under `policy` and returns its fleet digest.
fn drain(host: &HostSpec, policy: FleetPolicy) -> FleetDigest {
    let plan = EvacuationPlan::single_host(host.clone());
    let mut out = evacuate(&plan, policy).expect("drain failed");
    out.hosts.remove(0)
}

/// Detected estimates replace declared hints: on the 12-VM evaluation
/// roster the cycle-aware drain scheduled from *detected* cycles must
/// land within 5% of the same drain scheduled from the tenants' declared
/// phase lists (the application-assisted oracle).
#[test]
fn detected_estimates_track_declared_oracle_on_drain12() {
    let host = roster::drain12(7);
    let detected = drain(&host, FleetPolicy::CycleAware);
    let declared = drain(&host, FleetPolicy::CycleDeclared);
    let ratio = detected.eviction_ns as f64 / declared.eviction_ns as f64;
    assert!(
        ratio <= 1.05,
        "detected-estimate drain ({} ns) must cost at most 5% over the \
         declared oracle ({} ns); ratio {ratio:.4}",
        detected.eviction_ns,
        declared.eviction_ns
    );
    // At least two of the three cyclics must certify (the longest-lead
    // cyclic's 22 s period can exceed what its admission window can
    // cover — the detector is honest about that, not wrong), and every
    // estimate that does clear the gate must nail its declared period.
    assert!(
        detected.detect.estimated >= 2,
        "at least two cyclic tenants should yield confident estimates, got {}",
        detected.detect.estimated
    );
    assert_eq!(detected.detect.cyclic_declared, 3);
    assert!(
        detected.detect.period_accuracy >= 0.95,
        "certified estimates must match their declared periods ({:.3})",
        detected.detect.period_accuracy
    );
    assert!(
        detected.detect.window_hit_rate >= 0.6,
        "most cyclic admissions should land in detected troughs ({:.3})",
        detected.detect.window_hit_rate
    );
}

/// The adversarial roster: a drifting period, no period at all, and a
/// mid-drain phase shift. The detector must refuse to certify the first
/// two (confidence below the gate), and — because an unconfident
/// cycle-aware policy degrades to smallest-working-set ordering — the
/// drain must never do worse than running swsf outright.
#[test]
fn adversarial_roster_lowers_confidence_and_falls_back() {
    let host = roster::adversarial(7);
    let cycle = drain(&host, FleetPolicy::CycleAware);
    let swsf = drain(&host, FleetPolicy::SmallestWorkingSetFirst);

    for name in ["drifting-0", "aperiodic-0"] {
        let vm = cycle
            .vms
            .iter()
            .find(|v| v.digest.meta.name == name)
            .expect("adversary missing from digest");
        assert!(
            !vm.detect_confident,
            "{name} has no stable cycle; a confident estimate (period {} ns, \
             confidence {:.3}) is a hallucination",
            vm.detected_period_ns, vm.detected_confidence
        );
    }
    // The phase-shifted tenant completed its drain (the fault perturbs the
    // workload, not the migration machinery).
    assert!(cycle.vms.iter().any(|v| v.digest.meta.name == "shifty-0"));
    assert_eq!(cycle.nonconverged, 0, "every adversary must still converge");
    // "Never underperforms" up to ranking noise: the fallback re-ranks
    // with live working sets at each admission while swsf sorts once at
    // drain start, so the orders (and eviction times) can differ by a
    // hair even when every score degrades to the working-set tie-break.
    assert!(
        cycle.eviction_ns as f64 <= swsf.eviction_ns as f64 * 1.01,
        "cycle-aware with honest fallback ({} ns) must never underperform \
         swsf ({} ns) on the adversarial roster",
        cycle.eviction_ns,
        swsf.eviction_ns
    );
}

/// Starving the sample ring below the detector's minimum window blinds
/// the observatory: no estimate clears the gate, every cyclic admission
/// is a window miss, and the drain still completes on the working-set
/// fallback. This is the failure shape CI's seeded regression drill
/// detects through `detect.window_hit_rate`.
#[test]
fn starved_sample_ring_blinds_the_detector() {
    let mut host = roster::drain12(7);
    host.sense_capacity = 8; // below detect::MIN_SAMPLES
    let digest = drain(&host, FleetPolicy::CycleAware);
    assert_eq!(
        digest.detect.estimated, 0,
        "8 samples cannot clear the gate"
    );
    assert_eq!(digest.detect.window_hit_rate, 0.0);
    for vm in &digest.vms {
        assert!(!vm.detect_confident);
    }
    assert_eq!(digest.nonconverged, 0, "the fallback still drains the host");
}
