//! The event-driven evacuation core: byte-identity of the single-host
//! drain against the committed drain digest, whole-evacuation
//! determinism, and placement behaviour over the topology.

use cluster::{evacuate, roster, EvacuationPlan, FleetPolicy, PipeFault, PipeSel, PlacementPolicy};
use simkit::SimDuration;

/// A two-rack plan small enough for debug-mode CI: two `drain4` hosts
/// (tenants renamed fleet-unique) onto the standard destination pool.
fn small_plan(placement: PlacementPolicy) -> EvacuationPlan {
    let mut h0 = roster::drain4(7);
    h0.name = "rack-a".to_string();
    let mut h1 = roster::drain4(11);
    h1.name = "rack-b".to_string();
    for t in h1.tenants.iter_mut() {
        t.name = format!("{}-b", t.name);
    }
    EvacuationPlan::new("small", vec![h0, h1])
        .destinations(roster::evacuate_destinations())
        .core(roster::evacuate_core())
        .placement(placement)
}

/// Under the degenerate one-host, no-destination plan the event-driven
/// drain must reproduce the committed drain12 digest *byte for byte* —
/// same admissions, same interleaving (the ready heap's `(time, host,
/// slot)` tie order), same telemetry fold, same JSON.
#[test]
fn event_driven_drain_matches_committed_stepped_digest() {
    let committed = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/DIGEST_fleet_drain12_cycle.json"
    ))
    .expect("committed drain12 digest");
    let out = evacuate(
        &EvacuationPlan::single_host(roster::drain12(7)),
        FleetPolicy::CycleAware,
    )
    .expect("drain12 failed");
    assert_eq!(
        out.hosts[0].to_json(),
        committed,
        "event-driven drain diverged from the committed drain12 digest"
    );
}

#[test]
fn evacuation_is_deterministic() {
    let plan = small_plan(PlacementPolicy::SlaAware);
    let a = evacuate(&plan, FleetPolicy::CycleAware).expect("evacuation failed");
    let b = evacuate(&plan, FleetPolicy::CycleAware).expect("evacuation failed");
    assert_eq!(a.eviction_ns, b.eviction_ns);
    assert_eq!(a.hosts.len(), b.hosts.len());
    for (x, y) in a.hosts.iter().zip(&b.hosts) {
        assert_eq!(x.to_json(), y.to_json(), "host digest bytes diverged");
    }
    assert_eq!(a.placements.len(), b.placements.len());
    for (x, y) in a.placements.iter().zip(&b.placements) {
        assert_eq!((x.source, x.slot, x.dest), (y.source, y.slot, y.dest));
        assert_eq!(x.dest_name, y.dest_name);
    }
}

#[test]
fn every_vm_is_placed_within_slot_capacity() {
    let plan = small_plan(PlacementPolicy::Random(7));
    let out = evacuate(&plan, FleetPolicy::Fifo).expect("evacuation failed");
    assert_eq!(out.placements.len(), plan.population());
    let mut counts = vec![0u32; plan.destinations.len()];
    for p in &out.placements {
        let d = p.dest.expect("a plan with destinations places every VM");
        assert_eq!(
            plan.destinations[d].name,
            *p.dest_name
                .as_ref()
                .expect("placed VM has a destination name")
        );
        counts[d] += 1;
    }
    for (d, spec) in plan.destinations.iter().enumerate() {
        assert!(
            counts[d] <= spec.slots,
            "{} placed {} VMs into {} slots",
            spec.name,
            counts[d],
            spec.slots
        );
    }
    // Per-host digests still fold every tenant.
    let folded: usize = out.hosts.iter().map(|h| h.vms.len()).sum();
    assert_eq!(folded, plan.population());
}

/// Funnelling the whole fleet through the 40 MB/s WAN ingress (the
/// placement-disabled drill) must cost strictly more eviction time than
/// letting the SLA-aware policy spread over the LAN racks.
#[test]
fn pinning_the_fleet_through_one_ingress_is_strictly_worse() {
    let sla = evacuate(&small_plan(PlacementPolicy::SlaAware), FleetPolicy::Fifo)
        .expect("evacuation failed");
    let pinned = evacuate(&small_plan(PlacementPolicy::Pinned(0)), FleetPolicy::Fifo)
        .expect("evacuation failed");
    assert!(
        pinned.eviction_ns > sla.eviction_ns,
        "pinned {} ns should exceed sla {} ns",
        pinned.eviction_ns,
        sla.eviction_ns
    );
    assert!(pinned.sla_total.total() > sla.sla_total.total());
}

#[test]
fn invalid_plans_are_rejected_up_front() {
    use migrate::error::{ConfigError, MigrateError};
    // No sources at all.
    let empty = EvacuationPlan::new("empty", vec![]);
    assert_eq!(
        evacuate(&empty, FleetPolicy::Fifo).unwrap_err(),
        MigrateError::Config(ConfigError::EmptyRoster)
    );
    // Destination pool smaller than the evacuating population.
    let starved =
        small_plan(PlacementPolicy::Greedy).destinations(vec![cluster::DestSpec::new("tiny", 3)]);
    assert_eq!(
        evacuate(&starved, FleetPolicy::Fifo).unwrap_err(),
        MigrateError::Config(ConfigError::InsufficientDestinationCapacity)
    );
    // Pinned placement onto a destination the plan does not have.
    let destinations = small_plan(PlacementPolicy::Greedy).destinations.len();
    let stray = small_plan(PlacementPolicy::Pinned(destinations));
    assert_eq!(
        evacuate(&stray, FleetPolicy::Fifo).unwrap_err(),
        MigrateError::Config(ConfigError::PinnedDestinationOutOfRange)
    );
}

/// Mission control is observability, not control: a fault-free drain
/// yields zero watchdog findings and re-running it leaves the host
/// digests byte-identical, while a mid-drain core degrade surfaces as a
/// `pipe_saturation` finding that names the core pipe and links back to
/// a causal wakeup event.
#[test]
fn watchdog_flags_a_mid_drain_core_degrade() {
    let clean = evacuate(
        &small_plan(PlacementPolicy::SlaAware),
        FleetPolicy::CycleAware,
    )
    .expect("fault-free evacuation");
    assert!(
        clean.mission.findings.is_empty(),
        "fault-free drain must yield zero findings, got {:?}",
        clean.mission.findings
    );

    let faulted_plan = small_plan(PlacementPolicy::SlaAware).pipe_fault(PipeFault {
        pipe: PipeSel::Core,
        after: SimDuration::from_secs(4),
        factor: 0.1,
    });
    let faulted = evacuate(&faulted_plan, FleetPolicy::CycleAware).expect("faulted evacuation");
    let finding = faulted
        .mission
        .findings
        .iter()
        .find(|f| f.rule == "pipe_saturation")
        .unwrap_or_else(|| {
            panic!(
                "core degrade must trip pipe_saturation, got {:?}",
                faulted.mission.findings
            )
        });
    assert_eq!(
        finding.subject, "core",
        "the finding names the degraded pipe"
    );
    let causal = faulted
        .mission
        .causal
        .events()
        .iter()
        .find(|e| e.id == finding.causal)
        .expect("the finding's causal id resolves in the flow trace");
    assert!(matches!(causal.kind, simkit::telemetry::CausalKind::Wakeup));
    // The core is a pipe like any other: its degrade carries the generic
    // tag and its selector label.
    let fault_event = faulted
        .mission
        .causal
        .events()
        .iter()
        .find(|e| matches!(e.kind, simkit::telemetry::CausalKind::Fault))
        .expect("the seeded degrade leaves a causal fault event");
    let detail: Vec<(&str, &str)> = fault_event
        .detail
        .iter()
        .map(|(k, v)| (*k, v.as_str()))
        .collect();
    assert!(
        detail.contains(&("fault", "pipe_degrade")) && detail.contains(&("pipe", "core")),
        "the core degrade is tagged like every pipe degrade, got {detail:?}"
    );

    // The faulted drain's digests stay deterministic too.
    let again = evacuate(&faulted_plan, FleetPolicy::CycleAware).expect("faulted evacuation");
    for (x, y) in faulted.hosts.iter().zip(&again.hosts) {
        assert_eq!(x.to_json(), y.to_json(), "faulted digest bytes diverged");
    }
}

/// FNV-1a, 64-bit: a dependency-free fingerprint of an export's bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Mission control's exports are pinned byte for byte: the causal JSONL,
/// the pipe exposition and the per-kind event counts of a faulted drain.
/// Every kind of causal event appears, so any change to how mission
/// control observes the drain shows up here.
#[test]
fn mission_control_exports_are_pinned() {
    use simkit::telemetry::causal::jsonl_to_string;
    use simkit::telemetry::export::{pipes_prometheus_to_string, PipeSeriesView};
    use simkit::telemetry::CausalKind;

    let plan = small_plan(PlacementPolicy::SlaAware).pipe_fault(PipeFault {
        pipe: PipeSel::Core,
        after: SimDuration::from_secs(4),
        factor: 0.1,
    });
    let out = evacuate(&plan, FleetPolicy::CycleAware).expect("faulted evacuation");
    let jsonl = jsonl_to_string(&out.mission.causal);
    let views: Vec<PipeSeriesView<'_>> = out
        .mission
        .pipes
        .pipes()
        .iter()
        .map(|p| PipeSeriesView {
            name: &p.name,
            utilization: &p.utilization,
            queued_demand: &p.queued_demand,
        })
        .collect();
    let prom = pipes_prometheus_to_string(&views);
    let kinds = [
        CausalKind::Drain,
        CausalKind::Admit,
        CausalKind::Placement,
        CausalKind::Wakeup,
        CausalKind::Regrant,
        CausalKind::Complete,
        CausalKind::Finding,
        CausalKind::Fault,
    ];
    let counts: Vec<(&str, usize)> = kinds
        .iter()
        .map(|&k| {
            let n = out
                .mission
                .causal
                .events()
                .iter()
                .filter(|e| e.kind == k)
                .count();
            (k.as_str(), n)
        })
        .collect();
    assert_eq!(
        counts,
        [
            ("drain", 2),
            ("admit", 8),
            ("placement", 8),
            ("wakeup", 139),
            ("regrant", 22),
            ("complete", 8),
            ("finding", 2),
            ("fault", 1),
        ]
    );
    assert_eq!(jsonl.len(), 54_712);
    assert_eq!(
        fnv1a64(jsonl.as_bytes()),
        0x01a1_1b80_000d_005f,
        "causal JSONL moved"
    );
    assert_eq!(prom.len(), 3_319);
    assert_eq!(
        fnv1a64(prom.as_bytes()),
        0xdd71_e05f_177d_7ede,
        "pipe exposition moved"
    );
}

/// The generalised fault schedule reaches every pipe of the fabric, not
/// just the core: a seeded degrade of a source NIC surfaces as a
/// `pipe_saturation` finding naming that host's egress pipe, the causal
/// fault event carries the `pipe_degrade` tag with the pipe
/// selector label, and a fault naming a pipe the fabric does not have is
/// consumed without a trace.
#[test]
fn pipe_fault_schedule_degrades_a_source_nic() {
    let faulted_plan = small_plan(PlacementPolicy::SlaAware).pipe_fault(PipeFault {
        pipe: PipeSel::Egress(0),
        after: SimDuration::from_secs(4),
        factor: 0.1,
    });
    let faulted = evacuate(&faulted_plan, FleetPolicy::CycleAware).expect("faulted evacuation");
    let finding = faulted
        .mission
        .findings
        .iter()
        .find(|f| f.rule == "pipe_saturation")
        .unwrap_or_else(|| {
            panic!(
                "NIC degrade must trip pipe_saturation, got {:?}",
                faulted.mission.findings
            )
        });
    assert_eq!(
        finding.subject, "rack-a",
        "the finding names the degraded egress pipe"
    );
    let fault_event = faulted
        .mission
        .causal
        .events()
        .iter()
        .find(|e| matches!(e.kind, simkit::telemetry::CausalKind::Fault))
        .expect("the seeded degrade leaves a causal fault event");
    assert_eq!(fault_event.subject, "rack-a");
    assert!(
        fault_event
            .detail
            .iter()
            .any(|(k, v)| *k == "fault" && v == "pipe_degrade"),
        "pipe degrades carry the pipe_degrade tag, got {:?}",
        fault_event.detail
    );
    assert!(
        fault_event
            .detail
            .iter()
            .any(|(k, v)| *k == "pipe" && v == "egress0"),
        "the fault event records the pipe selector, got {:?}",
        fault_event.detail
    );

    // A fault against a pipe this fabric does not have is inert: the run
    // matches the fault-free drain byte for byte.
    let clean = evacuate(
        &small_plan(PlacementPolicy::SlaAware),
        FleetPolicy::CycleAware,
    )
    .expect("fault-free evacuation");
    let inert_plan = small_plan(PlacementPolicy::SlaAware).pipe_fault(PipeFault {
        pipe: PipeSel::Ingress(99),
        after: SimDuration::from_secs(4),
        factor: 0.1,
    });
    let inert = evacuate(&inert_plan, FleetPolicy::CycleAware).expect("inert-faulted evacuation");
    assert_eq!(inert.mission.findings.len(), clean.mission.findings.len());
    for (x, y) in inert.hosts.iter().zip(&clean.hosts) {
        assert_eq!(x.to_json(), y.to_json(), "inert fault perturbed the drain");
    }
}
