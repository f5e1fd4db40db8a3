//! Calibration tool: migrate one workload with Xen and JAVMM, print the
//! key metrics next to the paper's numbers.
//!
//! Usage: `calibrate [workload] [warmup_secs] [young_max_mb] [mbps] [g1]`
//!
//! An unknown workload, a positional argument that does not parse or is out
//! of range, or a fifth positional argument exits 2 naming it.

use javmm::orchestrator::{run_scenario, Scenario};
use javmm::vm::{Collector, JavaVmConfig};
use javmm_bench::cli::{fail, parse_num};
use migrate::config::MigrationConfig;
use simkit::units::{fmt_bytes, Bandwidth, MIB};
use simkit::SimDuration;
use workloads::catalog;

/// Simulated time each scenario runs after its warm-up.
const RUN_SECS: u64 = 150;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let g1 = args.iter().any(|a| a == "g1");
    let positional: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "g1")
        .collect();
    if let Some(extra) = positional.get(4) {
        fail(&format!(
            "unexpected argument {extra:?}; usage: calibrate [workload] [warmup_secs] \
             [young_max_mb] [mbps] [g1]"
        ));
    }
    let name = positional.first().copied().unwrap_or("derby");
    let warmup: u64 = positional.get(1).map_or(300, |s| {
        parse_num("warmup_secs", s, |&w: &u64| {
            w <= SimDuration::MAX.as_secs() - RUN_SECS
        })
    });
    let young_max: Option<u64> = positional
        .get(2)
        .map(|s| parse_num("young_max_mb", s, |&m: &u64| m > 0 && m <= u64::MAX / MIB) * MIB);
    let mbps: Option<f64> = positional
        .get(3)
        .map(|s| parse_num("mbps", s, |&x: &f64| x.is_finite() && x > 0.0));
    let spec = catalog::by_name(name).unwrap_or_else(|| {
        let known: Vec<&str> = catalog::known().iter().map(|w| w.name).collect();
        fail(&format!(
            "unknown workload {name:?}; use one of {}",
            known.join(", ")
        ))
    });

    for (label, assisted, config) in [
        ("Xen  ", false, MigrationConfig::xen_default()),
        ("JAVMM", true, MigrationConfig::javmm_default()),
    ] {
        let mut vmc = JavaVmConfig::paper(spec.clone(), assisted, 1);
        vmc.young_max = young_max;
        if g1 {
            vmc.collector = Collector::G1 {
                region_bytes: 4 * MIB,
            };
        }
        let mut config = config;
        if let Some(mbps) = mbps {
            config.bandwidth = Bandwidth::from_mbytes_per_sec(mbps);
        }
        let mut sc = Scenario::paper(vmc, config);
        sc.warmup = SimDuration::from_secs(warmup);
        sc.total = sc.warmup + SimDuration::from_secs(RUN_SECS);
        let t0 = std::time::Instant::now();
        let out = run_scenario(&sc).expect("scenario failed");
        let r = &out.report;
        println!(
            "{label} {name}: young={} old={} | time={} traffic={} iters={} downtime={} (gc={} last={} sp_wait={}) cpu={} mismatch={} ops_before={:.2} ops_after={:.2} [wall {:?}]",
            fmt_bytes(out.observed.young),
            fmt_bytes(out.observed.old),
            r.total_duration,
            fmt_bytes(r.total_bytes),
            r.iteration_count(),
            r.downtime.workload_downtime(),
            r.downtime.enforced_gc,
            r.downtime.last_iteration,
            r.downtime.safepoint_wait,
            r.cpu_time,
            r.verification.mismatched,
            out.mean_ops_before,
            out.mean_ops_after,
            t0.elapsed(),
        );
        for it in &r.iterations {
            let (t, d, s) = it.processed_bytes();
            println!(
                "   it{:>2}: dur={} sent={} skip_dirty={} skip_young={} dirtied={}",
                it.index,
                it.duration,
                fmt_bytes(t),
                fmt_bytes(d),
                fmt_bytes(s),
                it.pages_dirtied_during
            );
        }
    }
}
