//! The benchmark drives the same program the committed goldens lock: at
//! the goldens' seeds and procedures its workloads reproduce them exactly,
//! and the parts-assembled guest of the traced run reproduces the shipped
//! guest.

use javmm_perfbench::guest::launch_java_vm;
use javmm_perfbench::metrics::{END_TO_END, PER_LAYER};
use javmm_perfbench::scenario::{
    cold_case, derby_case, run_case, run_cases, run_evacuate48, GuestKind, Workload,
};
use javmm_perfbench::trace::Tracer;
use migrate::digest::Json;
use simkit::SimDuration;

fn repo_file(path: &str) -> String {
    let full = format!("{}/../{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("read {full}: {e}"))
}

fn json(path: &str) -> Json {
    Json::parse(&repo_file(path)).unwrap_or_else(|e| panic!("parse {path}: {e:?}"))
}

fn num(doc: &Json, path: &[&str]) -> f64 {
    doc.get(path)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing number at {path:?}"))
}

#[test]
fn derby_pair_reproduces_committed_run_digests() {
    for (assisted, seed, name) in [
        (true, 3, "derby-assisted-seed3"),
        (false, 1, "derby-xen-seed1"),
    ] {
        let case = derby_case(
            assisted,
            seed,
            SimDuration::from_secs(20),
            SimDuration::from_secs(5),
        );
        assert_eq!(case.label, name);
        let mut vm = launch_java_vm(&case.guest);
        let out = run_case(&mut vm, &case, &mut Tracer::new(false));
        assert_eq!(
            out.digest,
            repo_file(&format!("results/DIGEST_{name}.json"))
        );
        assert_eq!(out.prom, repo_file(&format!("results/DIGEST_{name}.prom")));
    }
}

#[test]
fn cold_rungs_reproduce_committed_assist_columns() {
    let golden = json("results/BENCH_cold.json");
    let Some(Json::Arr(rows)) = golden.get(&["vms"]) else {
        panic!("BENCH_cold.json has no vms array");
    };
    for (row, fraction) in [("cold00", 0.0), ("cold80", 0.8)] {
        let want = rows
            .iter()
            .find(|r| r.get(&["name"]).and_then(Json::as_str) == Some(row))
            .unwrap_or_else(|| panic!("no {row} row"));
        let seed = num(want, &["seed"]) as u64;
        let case = cold_case(fraction, seed);
        let mut vm = launch_java_vm(&case.guest);
        let out = run_case(&mut vm, &case, &mut Tracer::new(false));
        let cold = out.cold.expect("cold assist report");
        let got = [
            ("assist_bytes", out.bytes),
            ("assist_last_iter_bytes", out.last_iter_bytes),
            ("assist_iterations", out.iterations),
            ("deferred_sent_pages", cold.deferred_sent_pages),
            ("delta_hits", cold.delta_hits),
            ("delta_misses", cold.delta_misses),
            ("delta_fallbacks", cold.delta_fallbacks),
            ("delta_overflows", cold.delta_overflows),
            ("delta_wire_bytes", cold.delta_wire_bytes),
            ("delta_full_bytes", cold.delta_full_bytes),
        ];
        for (key, value) in got {
            assert_eq!(value as f64, num(want, &[key]), "{row}.{key}");
        }
        assert!(!out.failed(), "{row} must verify without degrading");
    }
}

#[test]
fn evacuate48_reproduces_committed_sla_placement() {
    let golden = json("results/BENCH_evacuate.json");
    let seed = num(&golden, &["seed"]) as u64;
    assert_eq!(
        golden.get(&["policy"]).and_then(Json::as_str),
        Some("cycle")
    );
    let want = golden.get(&["placements", "sla"]).expect("placements.sla");
    let sample = run_evacuate48(seed, &mut Tracer::new(false));
    let fleet = sample.fleet.expect("fleet outputs");
    assert_eq!(fleet.eviction_ns as f64, num(want, &["eviction_ns"]));
    assert_eq!(
        fleet.downtime_ns as f64,
        num(want, &["aggregate_downtime_ns"])
    );
    assert_eq!(fleet.bytes as f64, num(want, &["total_bytes"]));
    assert_eq!(fleet.sla_cost, num(want, &["sla_cost"]));
    assert_eq!(fleet.degraded as f64, num(want, &["degraded"]));
    assert_eq!(fleet.nonconverged as f64, num(want, &["nonconverged"]));
    for (dest, count) in &fleet.dest_counts {
        assert_eq!(
            *count as f64,
            num(want, &["dest_counts", dest.as_str()]),
            "{dest}"
        );
    }
}

#[test]
fn parts_guest_reproduces_the_shipped_guest() {
    let mut cases = vec![
        derby_case(
            true,
            3,
            SimDuration::from_secs(5),
            SimDuration::from_secs(1),
        ),
        derby_case(
            false,
            3,
            SimDuration::from_secs(5),
            SimDuration::from_secs(1),
        ),
        cold_case(0.8, 25),
    ];
    cases[2].warmup = SimDuration::from_secs(5);
    let shipped = run_cases(&cases, GuestKind::Shipped, &mut Tracer::new(false));
    let mut tracer = Tracer::new(true);
    let parts = run_cases(&cases, GuestKind::Parts, &mut tracer);
    assert_eq!(parts.migrations, shipped.migrations);
    assert!(shipped.migrations.iter().all(|m| !m.failed()));
    let timed = javmm_perfbench::trace::self_time_by_name(tracer.spans(), 0);
    for layer in [
        "jheap.advance",
        "guestos.lkm",
        "workloads.cacheapp",
        "migrate.step",
    ] {
        assert!(
            timed.get(layer).copied().unwrap_or(0) > 0,
            "{layer} untimed"
        );
    }
}

#[test]
fn benchmark_manifest_lists_what_the_program_reports() {
    let manifest = json("BENCHMARK.json");
    let names = |key: &str| -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = manifest.get(&[key]) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(&[f]).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), table(&END_TO_END));
    assert_eq!(names("per_layer"), table(&PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}
