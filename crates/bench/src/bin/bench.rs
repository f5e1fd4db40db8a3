//! `bench` — performance evidence for the pre-copy scan pipeline, plus
//! the migration observatory's digest/compare subcommands.
//!
//! Usage:
//!   bench [--scan-only] [--out PATH]
//!   bench digest [--out-dir DIR] [--scan-slowdown FACTOR]
//!   bench compare <old.json> <new.json>
//!   bench fleet [--roster NAME] [--seed N] [--out PATH] [--policy NAME]
//!               [--digest-dir DIR] [--series-cap N]
//!   bench evacuate [--seed N] [--out PATH] [--policy NAME]
//!                  [--pin-placement DEST]
//!   bench cold [--out PATH] [--delta-cache N] [--cold-fraction F[,F..]]
//!              [--warmup-secs S]
//!
//! `bench cold` migrates the cold-heavy cacheapp roster twice per guest —
//! with the cold assist off (baseline) and with defer + delta on — and
//! writes `BENCH_cold.json` (schema `javmm-bench-cold-v1`) recording the
//! roster-wide savings ratios: total sent bytes, stop-and-copy bytes and
//! the XBZRLE wire discount, plus page-for-page destination verification.
//! `--cold-fraction` overrides the long-tail ladder (default
//! `0.0,0.2,0.4,0.6,0.8` of the cache held by the rarely-written resident
//! set); `--delta-cache 1` is the CI drill — a one-entry delta page cache
//! evicts every prior page version before it can be reused, collapsing
//! `delta.saved_bytes_ratio` so `bench compare` must fail naming it.
//!
//! `bench evacuate` drains the 48-VM four-rack evacuation fleet onto the
//! 56-slot destination pool across the contended core switch, once per
//! placement policy (SLA-cost-aware, greedy headroom, seeded random), and
//! writes `BENCH_evacuate.json` comparing fleet eviction time, aggregate
//! downtime, wire bytes, SLA cost and per-destination placement counts,
//! plus the SLA policy's cost/eviction ratios against random placement.
//! `--pin-placement DEST` is the CI drill: placement is disabled, every
//! VM lands on destination index DEST, and the document records the
//! crippled run under all three placement keys so `bench compare` trips
//! its `placements.sla.eviction_ns` gate.
//!
//! `bench fleet` drains one multi-VM roster (`solo`, `drain4`, `drain12`
//! or `adversarial`; default `drain12`) under every fleet scheduling
//! policy (or just `--policy`) and writes `BENCH_fleet.json` comparing
//! total eviction time, aggregate downtime, wire bytes, SLA cost and
//! workload-observatory detection accuracy per policy, plus the
//! cycle-aware policy's detected-vs-declared eviction ratio. Per-VM rows
//! stream to stderr as migrations complete. `--digest-dir` additionally
//! writes each policy's full fleet digest (for baseline gating via
//! `bench compare`, which dispatches on the digest's schema);
//! `--series-cap` shrinks the observatory's sample ring — capping it
//! below 16 blinds the detector, the seeded regression CI drills. The
//! document is deterministic for a fixed roster + seed.
//!
//! `bench digest` runs the fixed roster of recorded migrations and writes
//! one `DIGEST_<scenario>.json` (plus a `.prom` Prometheus exposition) per
//! scenario into `--out-dir` (default `results`). `--scan-slowdown 1.25`
//! scales the engine's per-page scan CPU cost, seeding a deliberate
//! scan-throughput regression for gate testing. `bench compare` diffs two
//! digests under the built-in per-metric thresholds and exits 1 on
//! regression (naming the metric) or 2 on a parse/schema error. It also
//! understands `BENCH_precopy.json` v2 documents, gating the harness's
//! parallel efficiency (`JAVMM_SERIALIZE_POOL=1` seeds that drill).
//!
//! The default (no subcommand) run writes `BENCH_precopy.json` (schema
//! `javmm-bench-precopy-v2`; override the path with `--out`), all
//! measurements taken in the same run so they share a machine and a build:
//!
//! 1. **Scan microbenchmark** — classifies the same page sets with the
//!    word-granular pipeline the engine now uses and with a per-bit
//!    reference that replicates the seed engine's scan loop
//!    (`next_set_at` / `clear` / per-PFN bitmap queries); both must
//!    produce identical tallies.
//! 2. **Harness scaling** — a roster of independent end-to-end migration
//!    cells runs serially (measuring per-cell cost), then through
//!    `runner::par_map_workers` at 1/2/4/8 workers. Every row's output
//!    must be byte-identical to the serial pass. Because wall-clock
//!    speedup is bounded by the machine (CI containers are often
//!    single-core), each row also reports a **modeled** makespan: greedy
//!    earliest-free-worker list scheduling of the measured per-cell
//!    serial costs — deterministic given the measurements, and what the
//!    `harness.parallel_speedup` gate uses (`speedup_basis` says so).
//!    Skipped under `--scan-only` (the CI smoke mode).
//!
//! Worker counts honour `JAVMM_BENCH_WORKERS` (oversubscription allowed,
//! with a warning when the request exceeds the hardware) and
//! `JAVMM_SERIALIZE_POOL=1` (the harness runs its cells on one worker and
//! the modeled speedup honestly reports ~1.0 — the seeded gate drill).

use javmm::orchestrator::{run_scenario, Scenario};
use javmm::vm::JavaVmConfig;
use javmm_bench::runner;
use migrate::config::MigrationConfig;
use simkit::rng::DetRng;
use simkit::SimDuration;
use std::time::Instant;
use vmem::{Bitmap, Pfn};
use workloads::spec::WorkloadSpec;

/// Pages per synthetic VM: 2 GiB of 4 KiB pages, the paper's VM size.
const NPAGES: u64 = 524_288;
/// Timed repetitions per scan kernel.
const REPS: u32 = 40;
/// Seeds per (workload, mode) harness cell group.
const HARNESS_SEEDS: u64 = 3;

#[derive(PartialEq, Eq, Debug, Default)]
struct Tallies {
    sends: u64,
    skip_dirty: u64,
    skip_transfer: u64,
    deferred: u64,
}

struct Fixture {
    name: &'static str,
    to_send: Bitmap,
    dirty: Bitmap,
    transfer: Bitmap,
}

impl Fixture {
    /// Iteration-1 shape: everything pending, a Young-generation region
    /// skip-marked, a quarter of memory re-dirtied.
    fn first_iter(seed: u64) -> Self {
        let mut rng = DetRng::new(seed);
        let mut transfer = Bitmap::new_all_set(NPAGES);
        for p in NPAGES / 2..3 * NPAGES / 4 {
            transfer.clear(Pfn(p));
        }
        let mut dirty = Bitmap::new(NPAGES);
        for _ in 0..NPAGES / 4 {
            dirty.set(Pfn(rng.next_u64() % NPAGES));
        }
        Self {
            name: "first_iter",
            to_send: Bitmap::new_all_set(NPAGES),
            dirty,
            transfer,
        }
    }

    /// Late-iteration shape: a sparse working set still pending.
    fn later_iter(seed: u64) -> Self {
        let mut rng = DetRng::new(seed);
        let mut to_send = Bitmap::new(NPAGES);
        for _ in 0..NPAGES / 10 {
            to_send.set(Pfn(rng.next_u64() % NPAGES));
        }
        let mut dirty = Bitmap::new(NPAGES);
        for _ in 0..NPAGES / 20 {
            dirty.set(Pfn(rng.next_u64() % NPAGES));
        }
        let mut transfer = Bitmap::new_all_set(NPAGES);
        for _ in 0..NPAGES / 8 {
            transfer.clear(Pfn(rng.next_u64() % NPAGES));
        }
        Self {
            name: "later_iter",
            to_send,
            dirty,
            transfer,
        }
    }
}

/// The seed engine's scan loop: walk set bits one PFN at a time, querying
/// the transfer and dirty bitmaps per page.
fn per_bit_scan(fix: &Fixture) -> Tallies {
    let mut to_send = fix.to_send.clone();
    let mut deferred = Bitmap::new(NPAGES);
    let mut t = Tallies::default();
    let mut cursor = 0u64;
    while let Some(pfn) = to_send.next_set_at(cursor) {
        cursor = pfn.0 + 1;
        to_send.clear(pfn);
        if !fix.transfer.get(pfn) {
            t.skip_transfer += 1;
            deferred.set(pfn);
            continue;
        }
        if fix.dirty.get(pfn) {
            t.skip_dirty += 1;
            continue;
        }
        t.sends += 1;
    }
    t.deferred = deferred.count_set();
    t
}

/// The engine's current pipeline: classify 64 pages per step with word
/// algebra, retiring whole words at once.
fn word_scan(fix: &Fixture) -> Tallies {
    let mut to_send = fix.to_send.clone();
    let mut deferred = Bitmap::new(NPAGES);
    let mut t = Tallies::default();
    for wi in 0..to_send.word_count() {
        let w = to_send.words()[wi];
        if w == 0 {
            continue;
        }
        let d = fix.dirty.words()[wi];
        let tr = fix.transfer.words()[wi];
        let skips_t = w & !tr;
        t.skip_transfer += u64::from(skips_t.count_ones());
        t.skip_dirty += u64::from((w & tr & d).count_ones());
        t.sends += u64::from((w & tr & !d).count_ones());
        deferred.set_bits_in_word(wi, skips_t);
        to_send.clear_bits_in_word(wi, w);
    }
    t.deferred = deferred.count_set();
    t
}

fn time_scans(fixtures: &[Fixture], scan: fn(&Fixture) -> Tallies) -> f64 {
    let start = Instant::now();
    for _ in 0..REPS {
        for fix in fixtures {
            std::hint::black_box(scan(std::hint::black_box(fix)));
        }
    }
    start.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------------
// Harness scaling rows.
// ---------------------------------------------------------------------------

struct HarnessJob {
    widx: usize,
    assisted: bool,
    seed: u64,
}

/// One end-to-end migration cell: warm up, migrate, render the report
/// facts that must not depend on who ran the cell. The returned string is
/// the byte-identity contract.
fn run_cell(w: &WorkloadSpec, job: &HarnessJob) -> String {
    let vm = JavaVmConfig::paper(w.clone(), job.assisted, job.seed);
    let migration = if job.assisted {
        MigrationConfig::javmm_default()
    } else {
        MigrationConfig::xen_default()
    };
    let o = run_scenario(&Scenario::quick(
        vm,
        migration,
        SimDuration::from_secs(10),
        SimDuration::from_secs(3),
    ))
    .expect("harness cell failed");
    format!(
        "{}/{}/seed{}: bytes={} dur_ns={} cpu_ns={} down_ns={} iters={}",
        w.name,
        if job.assisted { "javmm" } else { "xen" },
        job.seed,
        o.report.total_bytes,
        o.report.total_duration.as_nanos(),
        o.report.cpu_time.as_nanos(),
        o.report.downtime.workload_downtime().as_nanos(),
        o.report.iteration_count(),
    )
}

/// Greedy earliest-free-worker list scheduling of independent cells with
/// the measured per-cell costs, in input order: the makespan `workers`
/// identical machines would reach. For independent jobs this is monotone
/// non-increasing in the worker count (no precedence anomalies), which is
/// what makes the 1→2→4→8 scaling assertion sound.
fn makespan(costs: &[f64], workers: usize) -> f64 {
    let mut free = vec![0.0f64; workers.max(1)];
    for &c in costs {
        let idx = free
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite cost"))
            .map(|(i, _)| i)
            .expect("at least one worker");
        free[idx] += c;
    }
    free.iter().cloned().fold(0.0, f64::max)
}

struct HarnessRow {
    workers: usize,
    cell_workers: usize,
    wall_secs: f64,
    modeled_secs: f64,
}

struct HarnessResult {
    cells: usize,
    serial_secs: f64,
    rows: Vec<HarnessRow>,
    parallel_speedup: f64,
}

/// Runs the harness roster serially (measuring per-cell costs), then at
/// each worker count, asserting byte-identical outputs every time.
fn run_harness(plan: &runner::WorkerPlan) -> HarnessResult {
    let workloads = [
        workloads::catalog::derby(),
        workloads::catalog::crypto(),
        workloads::catalog::scimark(),
        workloads::catalog::mpeg(),
    ];
    let jobs: Vec<HarnessJob> = (0..workloads.len())
        .flat_map(|widx| {
            [false, true].into_iter().flat_map(move |assisted| {
                (1..=HARNESS_SEEDS).map(move |seed| HarnessJob {
                    widx,
                    assisted,
                    seed,
                })
            })
        })
        .collect();

    // Serial pass: the reference outputs and the per-cell cost vector the
    // makespan model schedules.
    let mut costs = Vec::with_capacity(jobs.len());
    let mut reference = Vec::with_capacity(jobs.len());
    for job in &jobs {
        let t0 = Instant::now();
        reference.push(run_cell(&workloads[job.widx], job));
        costs.push(t0.elapsed().as_secs_f64());
    }
    let serial_secs: f64 = costs.iter().sum();
    eprintln!("harness: {} cells serial in {serial_secs:.1}s", jobs.len());

    let mut worker_counts = vec![1usize, 2, 4, 8];
    if !worker_counts.contains(&plan.effective) {
        worker_counts.push(plan.effective);
        worker_counts.sort_unstable();
    }
    let mut rows = Vec::new();
    for &w in &worker_counts {
        let cell_workers = if plan.serialized {
            1
        } else {
            w.min(jobs.len())
        };
        let (wall_secs, outputs) = if w == 1 {
            (serial_secs, None)
        } else {
            let t0 = Instant::now();
            let outs = runner::par_map_workers(cell_workers, &jobs, |job| {
                run_cell(&workloads[job.widx], job)
            });
            (t0.elapsed().as_secs_f64(), Some(outs))
        };
        if let Some(outs) = outputs {
            assert_eq!(
                outs, reference,
                "harness output diverged from serial at {w} workers"
            );
        }
        let modeled_workers = if plan.serialized { 1 } else { w };
        let modeled_secs = makespan(&costs, modeled_workers);
        eprintln!(
            "harness: {w} workers wall {wall_secs:.1}s, modeled {modeled_secs:.1}s \
             ({:.2}x), outputs byte-identical",
            serial_secs / modeled_secs
        );
        rows.push(HarnessRow {
            workers: w,
            cell_workers,
            wall_secs,
            modeled_secs,
        });
    }

    let parallel_speedup = rows
        .iter()
        .find(|r| r.workers == 4)
        .map(|r| serial_secs / r.modeled_secs)
        .expect("the 4-worker row is always present");
    HarnessResult {
        cells: jobs.len(),
        serial_secs,
        rows,
        parallel_speedup,
    }
}

// ---------------------------------------------------------------------------
// Subcommands.
// ---------------------------------------------------------------------------

/// Runs the digest roster, writing per-scenario JSON + Prometheus files.
fn cmd_digest(args: &[String]) {
    let out_dir = args
        .iter()
        .position(|a| a == "--out-dir")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "results".to_string());
    let scan_slowdown = args
        .iter()
        .position(|a| a == "--scan-slowdown")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.parse::<f64>().expect("--scan-slowdown takes a number"))
        .unwrap_or(1.0);
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    for scenario in javmm_bench::digests::scenarios() {
        let (digest, prom) = javmm_bench::digests::run_digest_scenario(&scenario, scan_slowdown);
        let json_path = format!("{out_dir}/DIGEST_{}.json", scenario.name);
        let prom_path = format!("{out_dir}/DIGEST_{}.prom", scenario.name);
        std::fs::write(&json_path, digest.to_json()).expect("write digest");
        std::fs::write(&prom_path, prom).expect("write prometheus exposition");
        eprintln!(
            "{}: {} ({} findings) -> {json_path}",
            scenario.name,
            digest.outcome_kind,
            digest.findings.len()
        );
    }
}

/// Diffs two digest files; exit 1 on regression, 2 on parse/schema error.
fn cmd_compare(args: &[String]) {
    let (old_path, new_path) = match (args.first(), args.get(1)) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            eprintln!("usage: bench compare <old.json> <new.json>");
            std::process::exit(2);
        }
    };
    let read = |path: &String| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        })
    };
    let (old_json, new_json) = (read(old_path), read(new_path));
    match migrate::digest::compare_any(&old_json, &new_json) {
        Ok(report) => {
            print!("{}", report.render());
            if report.has_regression() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("compare failed: {e}");
            std::process::exit(2);
        }
    }
}

/// Drains one roster under every fleet policy (or one, with `--policy`);
/// writes the comparison and optional per-policy fleet digests.
fn cmd_fleet(args: &[String]) {
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let roster_name = flag("--roster").unwrap_or_else(|| "drain12".to_string());
    let seed = flag("--seed")
        .map(|s| s.parse::<u64>().expect("--seed takes an integer"))
        .unwrap_or(7);
    let out_path = flag("--out").unwrap_or_else(|| "BENCH_fleet.json".to_string());
    let digest_dir = flag("--digest-dir");
    let series_cap =
        flag("--series-cap").map(|s| s.parse::<usize>().expect("--series-cap takes an integer"));
    let policies: Vec<cluster::FleetPolicy> = match flag("--policy") {
        None => cluster::FleetPolicy::ALL.to_vec(),
        Some(name) => match cluster::FleetPolicy::parse(&name) {
            Some(p) => vec![p],
            None => {
                eprintln!("unknown policy {name}; use fifo, swsf, cycle or cycle-declared");
                std::process::exit(2);
            }
        },
    };
    let Some(mut host) = javmm_bench::fleet::roster_by_name(&roster_name, seed) else {
        eprintln!("unknown roster {roster_name}; use solo, drain4, drain12 or adversarial");
        std::process::exit(2);
    };
    if let Some(cap) = series_cap {
        // Regression drill: starve the observatory's sample ring (below
        // 16 samples the detector refuses to certify anything).
        host.sense_capacity = cap;
    }
    // Rows stream out of the scheduler in completion order; narrate them
    // so long drains show progress instead of going dark.
    let runs = javmm_bench::fleet::run_policies_with(&host, &policies, &mut |policy, entry| {
        eprintln!(
            "{}: {} done at {:.1}s (confident={} window_hit={:?})",
            policy.name(),
            entry.digest.meta.name,
            entry.ended_at_ns as f64 / 1e9,
            entry.detect_confident,
            entry.window_hit,
        );
    });
    print!("{}", javmm_bench::fleet::render_table(&runs));
    let json = javmm_bench::fleet::to_json(&host, &runs);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, json).expect("write fleet results");
    eprintln!("wrote {out_path}");
    if let Some(dir) = digest_dir {
        std::fs::create_dir_all(&dir).expect("create digest directory");
        for run in &runs {
            let path = format!(
                "{dir}/DIGEST_fleet_{}_{}.json",
                host.name,
                run.policy.name()
            );
            std::fs::write(&path, run.digest.to_json()).expect("write fleet digest");
            eprintln!("wrote {path}");
        }
    }
}

/// Evacuates the 48-VM four-rack fleet once per placement policy (or once
/// with every VM pinned to one destination — the CI drill); writes the
/// placement comparison document.
fn cmd_evacuate(args: &[String]) {
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let seed = flag("--seed")
        .map(|s| s.parse::<u64>().expect("--seed takes an integer"))
        .unwrap_or(7);
    let out_path = flag("--out").unwrap_or_else(|| "BENCH_evacuate.json".to_string());
    let policy = match flag("--policy") {
        None => cluster::FleetPolicy::CycleAware,
        Some(name) => match cluster::FleetPolicy::parse(&name) {
            Some(p) => p,
            None => {
                eprintln!("unknown policy {name}; use fifo, swsf, cycle or cycle-declared");
                std::process::exit(2);
            }
        },
    };
    let pin = flag("--pin-placement").map(|s| {
        s.parse::<usize>()
            .expect("--pin-placement takes a destination index")
    });
    let eta_out = flag("--eta-out");
    let trace_out = flag("--trace-out");
    let freeze_eta = args.iter().any(|a| a == "--freeze-eta");
    let narrate = |run: &javmm_bench::evacuate::PlacementRun| {
        eprintln!(
            "{}: eviction {:.1}s, sla cost {:.2}, {} nonconverged",
            run.placement.name(),
            run.eviction_ns as f64 / 1e9,
            run.sla_cost,
            run.nonconverged,
        );
    };
    let (runs, observed) = match pin {
        Some(d) => {
            // Placement-disabled drill: every VM lands on destination `d`,
            // funnelling the fleet through one ingress. The single crippled
            // run is stamped into all three placement keys so the gated
            // `placements.sla.*` metrics describe it.
            let plan =
                javmm_bench::evacuate::evacuate48_plan(seed, cluster::PlacementPolicy::Pinned(d))
                    .freeze_eta(freeze_eta);
            let out = cluster::evacuate(&plan, policy).expect("pinned evacuation failed");
            let run = javmm_bench::evacuate::reduce(&plan, &out);
            narrate(&run);
            (vec![run.clone(), run.clone(), run], out)
        }
        None => {
            javmm_bench::evacuate::run_placements_observed(seed, policy, freeze_eta, &mut |run| {
                narrate(run)
            })
        }
    };
    print!("{}", javmm_bench::evacuate::render_table(&runs));
    let write_out = |path: &str, contents: String, what: &str| {
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("create output directory");
            }
        }
        std::fs::write(path, contents).unwrap_or_else(|e| panic!("write {what}: {e}"));
        eprintln!("wrote {path}");
    };
    write_out(
        &out_path,
        javmm_bench::evacuate::to_json(seed, policy, &runs),
        "evacuation results",
    );
    let m = &observed.mission;
    eprintln!(
        "eta: {} predictions over {} vms, p50 {:.3} p90 {:.3} drift {:+.3}; {} findings",
        m.eta.predictions,
        m.eta.vms,
        m.eta.p50_abs_err,
        m.eta.p90_abs_err,
        m.eta.drift,
        m.findings.len(),
    );
    if let Some(path) = eta_out {
        write_out(
            &path,
            javmm_bench::evacuate::eta_to_json(seed, policy, freeze_eta, &observed),
            "eta calibration document",
        );
    }
    if let Some(prefix) = trace_out {
        use simkit::telemetry::causal;
        write_out(
            &format!("{prefix}.trace.json"),
            causal::chrome_trace_to_string(&m.causal),
            "causal Chrome trace",
        );
        write_out(
            &format!("{prefix}.causal.jsonl"),
            causal::jsonl_to_string(&m.causal),
            "causal JSONL log",
        );
        write_out(
            &format!("{prefix}.pipes.prom"),
            javmm_bench::evacuate::pipes_to_prometheus(&observed),
            "pipe utilization exposition",
        );
    }
}

/// Runs the cold-heavy cacheapp roster baseline-vs-assist and writes
/// `BENCH_cold.json`.
fn cmd_cold(args: &[String]) {
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = flag("--out").unwrap_or_else(|| "BENCH_cold.json".to_string());
    let delta_cache = flag("--delta-cache")
        .map(|s| s.parse::<u64>().expect("--delta-cache takes an integer"))
        .unwrap_or(javmm_bench::cold::COLD_DELTA_CACHE_PAGES);
    let ladder: Vec<f64> = match flag("--cold-fraction") {
        None => javmm_bench::cold::COLD_LADDER.to_vec(),
        Some(list) => list
            .split(',')
            .map(|s| {
                let f = s
                    .trim()
                    .parse::<f64>()
                    .expect("--cold-fraction takes comma-separated fractions");
                assert!(
                    (0.0..=0.9).contains(&f),
                    "--cold-fraction entries must be within 0.0..=0.9"
                );
                f
            })
            .collect(),
    };
    let warmup_secs = flag("--warmup-secs")
        .map(|s| s.parse::<u64>().expect("--warmup-secs takes an integer"))
        .unwrap_or(20);
    let result = javmm_bench::cold::run_roster(
        &ladder,
        delta_cache,
        SimDuration::from_secs(warmup_secs),
        |line| eprintln!("{line}"),
    );
    eprint!("{}", javmm_bench::cold::render_table(&result));
    let json = javmm_bench::cold::to_json(&result);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, json).expect("write cold benchmark document");
    eprintln!("wrote {out_path}");
}

// ---------------------------------------------------------------------------
// JSON assembly.
// ---------------------------------------------------------------------------

fn json_opt_usize(v: Option<usize>) -> String {
    v.map_or_else(|| "null".to_string(), |n| n.to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("digest") => return cmd_digest(&args[1..]),
        Some("compare") => return cmd_compare(&args[1..]),
        Some("fleet") => return cmd_fleet(&args[1..]),
        Some("evacuate") => return cmd_evacuate(&args[1..]),
        Some("cold") => return cmd_cold(&args[1..]),
        _ => {}
    }
    let scan_only = args.iter().any(|a| a == "--scan-only");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_precopy.json".to_string());

    let plan = runner::worker_plan();
    eprintln!(
        "workers: requested={} effective={} available={} source={} capped={} serialized={}",
        json_opt_usize(plan.requested),
        plan.effective,
        plan.available,
        plan.source,
        plan.capped,
        plan.serialized
    );

    // -- Scan microbenchmark ------------------------------------------------
    let fixtures = [Fixture::first_iter(9), Fixture::later_iter(5)];
    for fix in &fixtures {
        assert_eq!(
            per_bit_scan(fix),
            word_scan(fix),
            "scan kernels disagree on {}",
            fix.name
        );
    }
    let pages_per_rep: u64 = fixtures.iter().map(|f| f.to_send.count_set()).sum();
    let total_pages = pages_per_rep * u64::from(REPS);
    let bit_secs = time_scans(&fixtures, per_bit_scan);
    let word_secs = time_scans(&fixtures, word_scan);
    let bit_rate = total_pages as f64 / bit_secs;
    let word_rate = total_pages as f64 / word_secs;
    let scan_speedup = word_rate / bit_rate;
    eprintln!(
        "scan: per-bit {bit_rate:.3e} pages/s, word {word_rate:.3e} pages/s, \
         speedup {scan_speedup:.1}x over {total_pages} pages"
    );

    // -- Harness scaling ----------------------------------------------------
    let harness = if scan_only {
        None
    } else {
        Some(run_harness(&plan))
    };

    // -- JSON ---------------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"javmm-bench-precopy-v2\",\n");
    json.push_str(&format!(
        "  \"workers\": {{\n    \"requested\": {},\n    \"effective\": {},\n    \
         \"available_parallelism\": {},\n    \"source\": \"{}\",\n    \
         \"capped\": {},\n    \"serialized_pool\": {}\n  }},\n",
        json_opt_usize(plan.requested),
        plan.effective,
        plan.available,
        plan.source,
        plan.capped,
        plan.serialized
    ));
    json.push_str(&format!(
        "  \"scan\": {{\n    \"pages_per_rep\": {pages_per_rep},\n    \"reps\": {REPS},\n    \
         \"per_bit_pages_per_sec\": {bit_rate:.0},\n    \
         \"word_pages_per_sec\": {word_rate:.0},\n    \
         \"speedup\": {scan_speedup:.2}\n  }},\n"
    ));
    match &harness {
        None => json.push_str("  \"harness\": null\n"),
        Some(h) => {
            json.push_str(&format!(
                "  \"harness\": {{\n    \"cells\": {},\n    \"speedup_basis\": \"modeled\",\n    \
                 \"serial_secs\": {:.3},\n    \"rows\": [\n",
                h.cells, h.serial_secs
            ));
            for (i, r) in h.rows.iter().enumerate() {
                json.push_str(&format!(
                    "      {{\"workers\": {}, \"cell_workers\": {}, \
                     \"wall_secs\": {:.3}, \"modeled_secs\": {:.3}, \
                     \"modeled_speedup\": {:.3}, \"outputs_identical\": true}}{}\n",
                    r.workers,
                    r.cell_workers,
                    r.wall_secs,
                    r.modeled_secs,
                    h.serial_secs / r.modeled_secs,
                    if i + 1 < h.rows.len() { "," } else { "" }
                ));
            }
            json.push_str(&format!(
                "    ],\n    \"parallel_speedup\": {:.3},\n    \
                 \"outputs_identical\": true\n  }}\n",
                h.parallel_speedup
            ));
        }
    }
    json.push_str("}\n");

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, &json).expect("write benchmark results");
    println!("{json}");
    eprintln!("wrote {out_path}");

    assert!(
        scan_speedup >= 2.0,
        "word-granular scan must be at least 2x the per-bit reference \
         (measured {scan_speedup:.2}x)"
    );
    if let Some(h) = &harness {
        if !plan.serialized {
            // The scaling contract: >=1.7x modeled speedup at 4 workers
            // and monotone non-degrading 1->2->4->8 scaling. A
            // serialized-pool build skips these asserts — its job is to
            // fail the `bench compare` gate, which needs the JSON above.
            let mut prev = 0.0f64;
            for r in &h.rows {
                let s = h.serial_secs / r.modeled_secs;
                assert!(
                    s + 1e-6 >= prev,
                    "modeled speedup degraded from {prev:.3}x to {s:.3}x at {} workers",
                    r.workers
                );
                prev = s;
            }
            assert!(
                h.parallel_speedup >= 1.7,
                "modeled 4-worker speedup {:.2}x below the 1.7x floor",
                h.parallel_speedup
            );
        }
    }
}
