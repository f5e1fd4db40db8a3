//! `bench fleet` — policy comparison for whole-host drains.
//!
//! Runs one roster (see [`cluster::roster`]) under every [`FleetPolicy`]
//! and folds the results into `BENCH_fleet.json`: per-policy total
//! eviction time, aggregate downtime, wire bytes, SLA cost and workload
//! observatory accuracy (confident estimates, window-hit rate, period
//! accuracy), plus each policy's eviction ratio against the FIFO
//! baseline and a detected-vs-declared comparison of the cycle-aware
//! policy against its declared-hint oracle. Everything is deterministic —
//! same roster + same seed produce a byte-identical document — so CI
//! diffs two fresh runs to prove it.

use cluster::{evacuate, roster, EvacuationPlan, FleetPolicy};
use javmm::host::HostSpec;
use migrate::digest::{FleetDigest, Json};
use std::fmt::Write as _;

/// Looks up a roster by its CLI name.
pub fn roster_by_name(name: &str, seed: u64) -> Option<HostSpec> {
    match name {
        "solo" => Some(roster::solo(seed)),
        "drain4" => Some(roster::drain4(seed)),
        "drain12" => Some(roster::drain12(seed)),
        "adversarial" => Some(roster::adversarial(seed)),
        _ => None,
    }
}

/// One policy's drain outcome.
pub struct PolicyRun {
    /// The ordering policy the drain ran under.
    pub policy: FleetPolicy,
    /// The drain's fleet digest.
    pub digest: FleetDigest,
}

/// Drains `host` alone under `policy`.
pub fn run_policy(host: &HostSpec, policy: FleetPolicy) -> PolicyRun {
    let plan = EvacuationPlan::single_host(host.clone());
    let mut out = evacuate(&plan, policy).expect("drain failed");
    PolicyRun {
        policy,
        digest: out.hosts.remove(0),
    }
}

/// Renders the per-policy comparison as an aligned text table.
pub fn render_table(runs: &[PolicyRun]) -> String {
    let mut o = String::new();
    let _ = writeln!(
        o,
        "{:<14} {:>11} {:>16} {:>9} {:>9} {:>9} {:>13} {:>9} {:>9} {:>11}",
        "policy",
        "eviction_s",
        "agg_downtime_ms",
        "total_MB",
        "sla_cost",
        "degraded",
        "nonconverged",
        "estimated",
        "hit_rate",
        "period_acc"
    );
    for run in runs {
        let d = &run.digest;
        let _ = writeln!(
            o,
            "{:<14} {:>11.2} {:>16.1} {:>9.1} {:>9.2} {:>9} {:>13} {:>9} {:>9.2} {:>11.3}",
            run.policy.name(),
            d.eviction_ns as f64 / 1e9,
            d.aggregate_downtime_ns as f64 / 1e6,
            d.total_bytes as f64 / 1e6,
            d.sla_total.total(),
            d.degraded,
            d.nonconverged,
            d.detect.estimated,
            d.detect.window_hit_rate,
            d.detect.period_accuracy,
        );
    }
    o
}

/// Serialises the comparison as the `BENCH_fleet.json` document. Rows are
/// in the order the policies ran and every number is computed from the
/// deterministic digests, so the output is byte-stable across runs.
pub fn to_json(host: &HostSpec, runs: &[PolicyRun]) -> String {
    let fifo_eviction = runs
        .iter()
        .find(|r| r.policy == FleetPolicy::Fifo)
        .map(|r| r.digest.eviction_ns)
        .unwrap_or(0);
    let policies = runs.iter().map(|run| {
        let d = &run.digest;
        let vs_fifo = (fifo_eviction > 0)
            .then(|| Json::fixed(d.eviction_ns as f64 / fifo_eviction as f64, 4));
        Json::obj([
            ("policy", run.policy.name().into()),
            ("eviction_ns", d.eviction_ns.into()),
            ("eviction_vs_fifo", vs_fifo.into()),
            ("aggregate_downtime_ns", d.aggregate_downtime_ns.into()),
            ("total_bytes", d.total_bytes.into()),
            ("sla_cost", d.sla_total.total().into()),
            ("sla_downtime", d.sla_total.downtime.into()),
            ("sla_brownout", d.sla_total.brownout.into()),
            ("sla_penalty", d.sla_total.penalty.into()),
            ("degraded", d.degraded.into()),
            ("nonconverged", d.nonconverged.into()),
            (
                "detect",
                Json::obj([
                    ("estimated", d.detect.estimated.into()),
                    ("cyclic_declared", d.detect.cyclic_declared.into()),
                    ("window_hit_rate", d.detect.window_hit_rate.into()),
                    ("mean_confidence", d.detect.mean_confidence.into()),
                    ("period_accuracy", d.detect.period_accuracy.into()),
                ]),
            ),
        ])
    });
    // The observatory's headline number: how much the cycle-aware policy
    // scheduled on *detected* estimates costs (or saves) relative to the
    // same deferral computed from the tenants' *declared* phase cycles.
    let cycle = runs.iter().find(|r| r.policy == FleetPolicy::CycleAware);
    let declared = runs.iter().find(|r| r.policy == FleetPolicy::CycleDeclared);
    let detected_vs_declared = match (cycle, declared) {
        (Some(c), Some(d)) if d.digest.eviction_ns > 0 => Json::obj([
            ("detected_eviction_ns", c.digest.eviction_ns.into()),
            ("declared_eviction_ns", d.digest.eviction_ns.into()),
            (
                "eviction_ratio",
                Json::fixed(c.digest.eviction_ns as f64 / d.digest.eviction_ns as f64, 4),
            ),
            ("window_hit_rate", c.digest.detect.window_hit_rate.into()),
            ("period_accuracy", c.digest.detect.period_accuracy.into()),
        ]),
        _ => Json::Null,
    };
    Json::obj([
        ("schema", "javmm-bench-fleet-v2".into()),
        ("roster", host.name.as_str().into()),
        ("seed", host.seed.into()),
        ("tenants", host.tenants.len().into()),
        ("uplink_bytes_per_sec", host.uplink.bytes_per_sec().into()),
        ("max_concurrent", host.max_concurrent.into()),
        ("policies", Json::Arr(policies.collect())),
        ("detected_vs_declared", detected_vs_declared),
    ])
    .render()
}
