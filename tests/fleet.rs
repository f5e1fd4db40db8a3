//! Fleet scheduler acceptance: byte-determinism, single-VM golden
//! equivalence, the policy inequalities on the 12-VM evaluation roster,
//! and admission control's convergence guarantee.

use cluster::{evacuate, roster, EvacuationPlan, FleetPolicy};
use javmm::host::HostSpec;
use javmm::orchestrator::{run_scenario_recorded, Scenario};
use javmm::vm::JavaVmConfig;
use migrate::config::MigrationConfig;
use migrate::digest::{DigestMeta, FleetDigest, RunDigest};
use simkit::telemetry::Recorder;
use simkit::SimDuration;
use workloads::catalog;

/// Drains `host` alone under `policy` and returns its fleet digest.
fn drain(host: &HostSpec, policy: FleetPolicy) -> FleetDigest {
    let plan = EvacuationPlan::single_host(host.clone());
    let mut out = evacuate(&plan, policy).expect("drain failed");
    out.hosts.remove(0)
}

/// Same seed + same policy must produce a byte-identical fleet digest —
/// the whole drain, per-VM reports and merged histograms included.
#[test]
fn same_seed_same_policy_digest_is_byte_identical() {
    let host = roster::drain4(7);
    for policy in FleetPolicy::ALL {
        let a = drain(&host, policy);
        let b = drain(&host, policy);
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "{} drain must be deterministic",
            policy.name()
        );
    }
}

/// A one-VM FIFO fleet is the degenerate case: the sole subscriber's
/// share is the engine's own configured bandwidth, the scheduler never
/// re-rates it, and the drain must reproduce the standalone
/// `derby-assisted-seed3` run — the same scenario
/// `tests/precopy_equivalence.rs` locks — bit for bit.
#[test]
fn solo_fifo_drain_reproduces_single_vm_golden() {
    let fleet = evacuate(
        &EvacuationPlan::single_host(roster::solo(3)),
        FleetPolicy::Fifo,
    )
    .expect("drain failed");

    let outcome = run_scenario_recorded(
        &Scenario::quick(
            JavaVmConfig::paper(catalog::derby(), true, 3),
            MigrationConfig::javmm_default(),
            SimDuration::from_secs(20),
            SimDuration::from_secs(5),
        ),
        Recorder::new(),
    )
    .expect("scenario failed");
    let standalone = RunDigest::from_report(
        DigestMeta {
            name: "derby-assisted-seed3".to_string(),
            workload: "derby".to_string(),
            assisted: true,
            seed: 3,
        },
        &outcome.report,
    );

    assert_eq!(fleet.hosts[0].vms.len(), 1);
    assert_eq!(
        fleet.hosts[0].vms[0].digest.to_json(),
        standalone.to_json(),
        "1-VM FIFO fleet must match the standalone run bit for bit"
    );
    // Spot-check against the literal golden locked in
    // tests/precopy_equivalence.rs, so this test fails loudly on its own
    // if the shared scenario ever drifts.
    assert_eq!(fleet.reports[0][0].total_bytes, 1_108_190_808);
}

/// The 12-VM roster: both workload-aware policies must beat FIFO on total
/// eviction time, and with admission control on, every migration must
/// converge (reach the dirty threshold) despite the shared link.
#[test]
fn drain12_policy_inequalities_hold() {
    let host = roster::drain12(7);
    let fifo = drain(&host, FleetPolicy::Fifo);
    let swsf = drain(&host, FleetPolicy::SmallestWorkingSetFirst);
    let cycle = drain(&host, FleetPolicy::CycleAware);

    assert!(
        swsf.eviction_ns < fifo.eviction_ns,
        "smallest-working-set-first ({} ns) must beat FIFO ({} ns)",
        swsf.eviction_ns,
        fifo.eviction_ns
    );
    assert!(
        cycle.eviction_ns < fifo.eviction_ns,
        "cycle-aware ({} ns) must beat FIFO ({} ns)",
        cycle.eviction_ns,
        fifo.eviction_ns
    );
    for d in [&fifo, &swsf, &cycle] {
        assert_eq!(
            d.nonconverged, 0,
            "admission control must keep every pre-copy convergent ({})",
            d.meta.policy
        );
        assert_eq!(d.degraded, 0, "no drain should degrade ({})", d.meta.policy);
    }
}

/// Turning admission control off reproduces the failure it exists to
/// prevent: FIFO admits both Old-heavy tenants together, their weighted
/// shares fall below the rate their dirty working sets need, and both
/// exhaust the iteration cap instead of converging.
#[test]
fn disabling_admission_control_causes_nonconvergence() {
    let mut host = roster::drain12(7);
    host.enforce_min_rate = false;
    let digest = drain(&host, FleetPolicy::Fifo);
    assert!(
        digest.nonconverged > 0,
        "without min-rate admission the heavies must starve each other"
    );
}
