//! Drain a 4-VM host under each fleet policy and compare the damage.
//!
//! Four tenants — an Old-generation-heavy VM, two light services and a
//! bursty batch job — share one gigabit migration uplink. The fleet
//! scheduler (crates/cluster) runs the drain under FIFO,
//! smallest-working-set-first and the Baruchi-style cycle-aware policy,
//! with admission control keeping every admitted pre-copy above its
//! convergence floor. Same seed + same policy is byte-deterministic, so
//! the numbers below reproduce exactly.
//!
//! Run with: `cargo run --release --example fleet_migration`

use cluster::{evacuate, roster, EvacuationPlan, FleetPolicy};

fn main() {
    // `--example fleet_migration -- drain12` runs the 12-VM evaluation
    // roster instead of the default 4-VM one.
    let which = std::env::args().nth(1).unwrap_or_else(|| "drain4".into());
    let host = match which.as_str() {
        "drain4" => roster::drain4(7),
        "drain12" => roster::drain12(7),
        other => panic!("unknown roster {other}; use drain4 or drain12"),
    };
    println!(
        "Draining host '{}' ({} tenants, {:.0} MB/s uplink, max {} concurrent):\n",
        host.name,
        host.tenants.len(),
        host.uplink.bytes_per_sec() / 1e6,
        host.max_concurrent
    );

    let plan = EvacuationPlan::single_host(host);
    println!("policy  eviction_s  agg_downtime_ms  total_MB  sla_cost  degraded  nonconverged");
    for policy in FleetPolicy::ALL {
        let outcome = evacuate(&plan, policy).expect("drain failed");
        let d = &outcome.hosts[0];
        println!(
            "{:<7} {:>9.2} {:>16.1} {:>9.1} {:>9.2} {:>9} {:>13}",
            policy.name(),
            d.eviction_ns as f64 / 1e9,
            d.aggregate_downtime_ns as f64 / 1e6,
            d.total_bytes as f64 / 1e6,
            d.sla_total.total(),
            d.degraded,
            d.nonconverged,
        );
    }

    let fifo = evacuate(&plan, FleetPolicy::Fifo).expect("drain failed");
    println!("\nPer-VM schedule under FIFO:");
    println!("vm        admitted_s  ended_s  migration_s  downtime_ms  iters  stop");
    for vm in &fifo.hosts[0].vms {
        println!(
            "{:<9} {:>9.2} {:>8.2} {:>12.2} {:>12.1} {:>6} {:>12}",
            vm.digest.meta.name,
            vm.admitted_at_ns as f64 / 1e9,
            vm.ended_at_ns as f64 / 1e9,
            vm.digest.total_duration_ns as f64 / 1e9,
            vm.digest.downtime_workload_ns as f64 / 1e6,
            vm.digest.iterations,
            vm.digest.stop_reason,
        );
    }
}
