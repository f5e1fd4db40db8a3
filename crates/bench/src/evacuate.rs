//! `bench evacuate` — placement comparison for multi-host evacuations.
//!
//! Runs the 48-VM, four-rack evacuation fleet (see
//! [`cluster::roster::evacuate48`]) over the contended topology once per
//! placement policy — SLA-cost-aware, greedy headroom, and seeded random
//! — and folds the results into `BENCH_evacuate.json`: per-placement
//! fleet eviction time, aggregate downtime, wire bytes, SLA cost and
//! per-destination placement counts, plus the SLA policy's cost and
//! eviction ratios against random placement (the headline: cost-aware
//! placement must keep tenants that cannot afford the WAN off it).
//! Everything is deterministic — same plan + same seed produce a
//! byte-identical document — and the `--pin-placement` drill pins every
//! VM onto one destination, funnelling the fleet through a single ingress
//! so the `placements.sla.eviction_ns` gate trips.

use cluster::{evacuate, roster, EvacOutcome, EvacuationPlan, FleetPolicy, PlacementPolicy};
use migrate::digest::{Json, BENCH_EVACUATE_ETA_SCHEMA, BENCH_EVACUATE_SCHEMA};
use simkit::telemetry::export::{pipes_prometheus_to_string, PipeSeriesView};
use std::fmt::Write as _;

/// The placement policies the benchmark compares, in run (and JSON key)
/// order. Random forks its streams from the plan seed.
pub fn compared_placements(seed: u64) -> [PlacementPolicy; 3] {
    [
        PlacementPolicy::SlaAware,
        PlacementPolicy::Greedy,
        PlacementPolicy::Random(seed),
    ]
}

/// The standard evacuation plan: four 12-VM racks onto the 56-slot
/// destination pool across the contended core.
pub fn evacuate48_plan(seed: u64, placement: PlacementPolicy) -> EvacuationPlan {
    EvacuationPlan::new("evacuate48", roster::evacuate48(seed))
        .destinations(roster::evacuate_destinations())
        .core(roster::evacuate_core())
        .placement(placement)
}

/// One placement policy's evacuation outcome, reduced to the numbers the
/// benchmark compares.
#[derive(Debug, Clone)]
pub struct PlacementRun {
    /// The placement policy the evacuation ran under.
    pub placement: PlacementPolicy,
    /// Fleet-wide eviction time (first drain start to last migration end).
    pub eviction_ns: u64,
    /// Summed workload downtime across every VM.
    pub aggregate_downtime_ns: u64,
    /// Total bytes across every migration.
    pub total_bytes: u64,
    /// Summed SLA cost (downtime + brownout + penalties).
    pub sla_cost: f64,
    /// Migrations that fell back to vanilla pre-copy.
    pub degraded: u64,
    /// Migrations stopped by the iteration cap instead of convergence.
    pub nonconverged: u64,
    /// VMs placed per destination, in destination-pool order.
    pub dest_counts: Vec<(String, u64)>,
}

/// Reduces one evacuation outcome against its plan.
pub fn reduce(plan: &EvacuationPlan, out: &EvacOutcome) -> PlacementRun {
    let mut dest_counts: Vec<(String, u64)> = plan
        .destinations
        .iter()
        .map(|d| (d.name.clone(), 0))
        .collect();
    for p in &out.placements {
        if let Some(d) = p.dest {
            dest_counts[d].1 += 1;
        }
    }
    PlacementRun {
        placement: plan.placement,
        eviction_ns: out.eviction_ns,
        aggregate_downtime_ns: out.hosts.iter().map(|h| h.aggregate_downtime_ns).sum(),
        total_bytes: out.hosts.iter().map(|h| h.total_bytes).sum(),
        sla_cost: out.sla_total.total(),
        degraded: out.hosts.iter().map(|h| u64::from(h.degraded)).sum(),
        nonconverged: out.hosts.iter().map(|h| u64::from(h.nonconverged)).sum(),
        dest_counts,
    }
}

/// Runs the evacuation once per placement policy under `policy`
/// (admission order), calling `on_done` after each run, and keeps the
/// SLA-aware run's full outcome — its mission-control readout (causal
/// log, pipe timelines, ETA calibration, watchdog findings) feeds the
/// observability artifacts. `freeze_eta` pins that run's ETA to the
/// admission-time projection: the CI drill that must blow the
/// `eta.p90_abs_err` gate. Mission control never touches a recorder, so
/// the placement comparison stays byte-identical either way.
pub fn run_placements_observed(
    seed: u64,
    policy: FleetPolicy,
    freeze_eta: bool,
    on_done: &mut dyn FnMut(&PlacementRun),
) -> (Vec<PlacementRun>, EvacOutcome) {
    let mut observed = None;
    let runs = compared_placements(seed)
        .into_iter()
        .map(|placement| {
            let sla = matches!(placement, PlacementPolicy::SlaAware);
            let mut plan = evacuate48_plan(seed, placement);
            if sla {
                plan = plan.freeze_eta(freeze_eta);
            }
            let out = evacuate(&plan, policy).expect("evacuation failed");
            let run = reduce(&plan, &out);
            on_done(&run);
            if sla {
                observed = Some(out);
            }
            run
        })
        .collect();
    (runs, observed.expect("SLA-aware run always present"))
}

/// Renders the per-placement comparison as an aligned text table.
pub fn render_table(runs: &[PlacementRun]) -> String {
    let mut o = String::new();
    let _ = writeln!(
        o,
        "{:<8} {:>11} {:>16} {:>9} {:>9} {:>9} {:>13}  dest_counts",
        "place",
        "eviction_s",
        "agg_downtime_ms",
        "total_MB",
        "sla_cost",
        "degraded",
        "nonconverged"
    );
    for run in runs {
        let counts = run
            .dest_counts
            .iter()
            .map(|(n, c)| format!("{n}={c}"))
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(
            o,
            "{:<8} {:>11.2} {:>16.1} {:>9.1} {:>9.2} {:>9} {:>13}  {counts}",
            run.placement.name(),
            run.eviction_ns as f64 / 1e9,
            run.aggregate_downtime_ns as f64 / 1e6,
            run.total_bytes as f64 / 1e6,
            run.sla_cost,
            run.degraded,
            run.nonconverged,
        );
    }
    o
}

fn placement_json(run: &PlacementRun) -> Json {
    let dest_counts = run
        .dest_counts
        .iter()
        .map(|(name, count)| (name.as_str(), (*count).into()));
    Json::obj([
        ("placement", run.placement.name().into()),
        ("eviction_ns", run.eviction_ns.into()),
        ("aggregate_downtime_ns", run.aggregate_downtime_ns.into()),
        ("total_bytes", run.total_bytes.into()),
        ("sla_cost", run.sla_cost.into()),
        ("degraded", run.degraded.into()),
        ("nonconverged", run.nonconverged.into()),
        ("dest_counts", Json::line(dest_counts)),
    ])
}

/// Serialises the comparison as the `BENCH_evacuate.json` document.
/// `runs` must be in [`compared_placements`] order (sla, greedy, random);
/// the pin drill passes the same pinned run three times, so the gated
/// `placements.sla.*` metrics describe the crippled evacuation.
pub fn to_json(seed: u64, policy: FleetPolicy, runs: &[PlacementRun]) -> String {
    assert_eq!(runs.len(), 3, "sla, greedy and random runs expected");
    let (sla, random) = (&runs[0], &runs[2]);
    let plan = evacuate48_plan(seed, PlacementPolicy::SlaAware);
    let core = plan.core.as_ref().expect("evacuate48 has a core switch");
    let destinations = plan.destinations.iter().map(|d| {
        Json::line([
            ("name", d.name.as_str().into()),
            ("slots", d.slots.into()),
            ("ingress_bytes_per_sec", d.ingress.bytes_per_sec().into()),
            ("wan", d.wan.into()),
        ])
    });
    Json::obj([
        ("schema", BENCH_EVACUATE_SCHEMA.into()),
        ("plan", plan.name.as_str().into()),
        ("seed", seed.into()),
        ("policy", policy.name().into()),
        ("sources", plan.sources.len().into()),
        ("tenants", plan.population().into()),
        ("core_bytes_per_sec", core.bandwidth.bytes_per_sec().into()),
        ("destinations", Json::Arr(destinations.collect())),
        (
            "placements",
            Json::obj([
                ("sla", placement_json(&runs[0])),
                ("greedy", placement_json(&runs[1])),
                ("random", placement_json(&runs[2])),
            ]),
        ),
        // The headline ratios: SLA-aware placement against random. Cost
        // below 1.0 is the policy earning its keep; the gate watches both.
        (
            "sla_vs_random",
            Json::obj([
                (
                    "sla_cost_ratio",
                    Json::fixed(sla.sla_cost / random.sla_cost, 4),
                ),
                (
                    "eviction_ratio",
                    Json::fixed(sla.eviction_ns as f64 / random.eviction_ns as f64, 4),
                ),
            ]),
        ),
    ])
    .render()
}

/// Serialises the SLA-aware run's mission-control readout as the
/// `BENCH_evacuate_eta.json` companion document (schema
/// `javmm-bench-evacuate-eta-v1`): ETA calibration quality, watchdog
/// findings, per-pipe utilization summaries, and per-VM placement
/// rationale (chosen score vs runner-up). Kept separate from
/// `BENCH_evacuate.json` so that document stays byte-identical; the
/// `eta.p90_abs_err` and `findings.total` gates watch this one.
pub fn eta_to_json(seed: u64, policy: FleetPolicy, frozen: bool, out: &EvacOutcome) -> String {
    let m = &out.mission;
    let score = |s: Option<f64>| s.map(|s| Json::fixed(s, 4));
    let findings = m.findings.iter().map(|f| {
        Json::line([
            ("rule", f.rule.into()),
            ("subject", f.subject.as_str().into()),
            ("at_ns", f.at_ns.into()),
            ("causal", f.causal.0.into()),
            ("detail", f.detail.as_str().into()),
        ])
    });
    let pipes = m.pipes.pipes().iter().map(|p| {
        Json::line([
            ("name", p.name.as_str().into()),
            ("samples", p.utilization.len().into()),
            ("utilization_mean", Json::fixed(p.utilization.mean(), 4)),
            (
                "utilization_p95",
                Json::fixed(p.utilization.quantile(0.95), 4),
            ),
            ("queued_demand_mean", Json::fixed(p.queued_demand.mean(), 0)),
            (
                "queued_demand_p95",
                Json::fixed(p.queued_demand.quantile(0.95), 0),
            ),
        ])
    });
    let placements = out.placements.iter().map(|p| {
        Json::line([
            ("vm", p.vm.as_str().into()),
            ("dest", p.dest_name.as_deref().into()),
            ("chosen_score", score(p.chosen_score).into()),
            ("runner_up", p.runner_up.as_deref().into()),
            ("runner_up_score", score(p.runner_up_score).into()),
        ])
    });
    Json::obj([
        ("schema", BENCH_EVACUATE_ETA_SCHEMA.into()),
        ("plan", "evacuate48".into()),
        ("seed", seed.into()),
        ("policy", policy.name().into()),
        ("frozen", frozen.into()),
        ("causal_events", m.causal.len().into()),
        (
            "eta",
            Json::obj([
                ("vms", m.eta.vms.into()),
                ("predictions", m.eta.predictions.into()),
                ("p50_abs_err", Json::fixed(m.eta.p50_abs_err, 4)),
                ("p90_abs_err", Json::fixed(m.eta.p90_abs_err, 4)),
                ("drift", Json::fixed(m.eta.drift, 4)),
            ]),
        ),
        (
            "findings",
            Json::obj([
                ("total", m.findings.len().into()),
                ("rows", Json::Arr(findings.collect())),
            ]),
        ),
        ("pipes", Json::Arr(pipes.collect())),
        ("placements", Json::Arr(placements.collect())),
    ])
    .render()
}

/// Renders the SLA-aware run's pipe timelines in Prometheus exposition
/// format (the `javmm_pipe_*` families), one `pipe` label per topology
/// pipe in topology order.
pub fn pipes_to_prometheus(out: &EvacOutcome) -> String {
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
    pipes_prometheus_to_string(&views)
}
