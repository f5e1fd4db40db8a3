//! `javmm-perfbench --workload W --seed N --seconds S --trace 0|1
//! [--spans PATH]`
//!
//! Runs workload `W` with inputs from seed `N` for about `S` seconds of
//! timed iterations, checks the simulated outputs, and prints one JSON
//! object as the last line of standard output:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` interleaves
//! untraced and traced iterations and reports the per-layer metrics, and
//! with `--spans` writes the traced spans there as JSON lines. Either way
//! one untimed warm-up iteration runs first; its outputs are checked like
//! the others.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use javmm_perfbench::metrics::{self, Metric, TracedRun, UNATTRIBUTED_BOUND_PCT};
use javmm_perfbench::scenario::{
    cases, run_cases, run_iteration, GuestKind, MigrationOut, Sample, Workload, COLD_RUNGS,
};
use javmm_perfbench::trace::Tracer;

/// Fewest timed iterations (or traced cycles) a run reports a median of.
const MIN_ITERATIONS: usize = 3;

/// Whether a run times another iteration (or traced cycle): always until it
/// has `MIN_ITERATIONS`, then only while one more of the mean length so far
/// still ends within `budget` of `started`.
fn another_round(rounds: usize, started: Instant, timed: Instant, budget: Duration) -> bool {
    rounds < MIN_ITERATIONS || started.elapsed() + timed.elapsed() / rounds as u32 <= budget
}

/// The derby pair must land this close to the paper's Fig. 10 reductions,
/// in mean absolute percentage points.
const PAPER_TOLERANCE_PP: f64 = 10.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let need = |name: &str| flag(name).ok_or(format!("missing {name}"));
    let workload = need("--workload")?;
    Ok(Args {
        workload: Workload::parse(&workload).ok_or(format!("unknown workload {workload}"))?,
        seed: need("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: need("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match need("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        spans: flag("--spans"),
    })
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Why a run's outputs are wrong, if they are.
fn check(workload: Workload, reference: &Sample, samples: &[&Sample]) -> Vec<String> {
    let mut errors = Vec::new();
    for (i, s) in samples.iter().enumerate() {
        if s.migrations != reference.migrations || s.fleet != reference.fleet {
            errors.push(format!(
                "iteration {i} produced different simulated outputs"
            ));
        }
    }
    for m in reference.migrations.iter().filter(|m| m.failed()) {
        errors.push(format!(
            "{} failed: error {:?}, {} mismatched, degraded {}",
            m.label, m.error, m.mismatched, m.degraded
        ));
    }
    match workload {
        Workload::DerbyCold => {
            match reference.paper_err_pp() {
                Some(err) if err <= PAPER_TOLERANCE_PP => {}
                other => errors.push(format!("derby is {other:?} pp off paper Fig. 10")),
            }
            let rungs: Vec<&MigrationOut> = reference
                .migrations
                .iter()
                .filter(|m| m.label.starts_with("cold"))
                .collect();
            if rungs.len() != COLD_RUNGS.len() {
                errors.push(format!(
                    "{} cold rungs ran, not {}",
                    rungs.len(),
                    COLD_RUNGS.len()
                ));
            }
            for m in rungs {
                let c = m.cold.unwrap_or_default();
                if c.deferred_sent_pages == 0 || c.delta_hits == 0 {
                    errors.push(format!("{}: the cold assist did not engage", m.label));
                }
            }
        }
        Workload::Evacuate48 => {
            let fleet = reference.fleet.clone().unwrap_or_default();
            let bytes: u64 = reference.migrations.iter().map(|m| m.bytes).sum();
            let downtime: u64 = reference.migrations.iter().map(|m| m.downtime_ns).sum();
            if reference.migrations.len() != 48 || fleet.unplaced > 0 {
                errors.push("evacuate48 did not place all 48 VMs".to_string());
            }
            if bytes != fleet.bytes || downtime != fleet.downtime_ns {
                errors.push("per-VM reports disagree with the host digests".to_string());
            }
        }
    }
    errors
}

fn print_result(correct: bool, samples: &[&Sample], metrics: &[Metric]) {
    let attempted: usize = samples.iter().map(|s| s.migrations.len()).sum();
    let failed: u64 = samples.iter().map(|s| s.failed()).sum();
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{body}}}}}"
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: javmm-perfbench --workload derby-cold|evacuate48 --seed N \
                 --seconds S --trace 0|1 [--spans PATH]"
            );
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let w = args.workload;
    // The first iteration of a process runs on cold caches and a fresh
    // heap, and can read a quarter slower than the rest: it warms up and
    // is left out of every timing.
    let mut off = Tracer::new(false);
    let warmup = run_iteration(w, args.seed, GuestKind::Shipped, &mut off);
    let timed = Instant::now();

    if !args.trace {
        let mut samples = Vec::new();
        while another_round(samples.len(), started, timed, budget) {
            samples.push(run_iteration(w, args.seed, GuestKind::Shipped, &mut off));
        }
        let all: Vec<&Sample> = std::iter::once(&warmup).chain(&samples).collect();
        let walls: Vec<String> = samples
            .iter()
            .map(|s| format!("{:.3}", s.wall_ns as f64 / 1e9))
            .collect();
        println!(
            "iteration wall_s: {} (warm-up {:.3})",
            walls.join(" "),
            warmup.wall_ns as f64 / 1e9
        );
        let errors = check(w, &warmup, &all);
        let metrics = metrics::end_to_end(&samples, peak_rss_mb());
        for m in &metrics {
            println!("{:<18} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!(
            "failed_frac        {:>16.6} ratio",
            metrics::failed_frac(&all)
        );
        match warmup.paper_err_pp() {
            Some(err) => println!("paper_err_pp       {err:>16.6} pct-points (vs Fig. 10)"),
            None => println!("paper_err_pp       unvalidated (no paper reference)"),
        }
        for e in &errors {
            println!("error: {e}");
        }
        print_result(errors.is_empty(), &all, &metrics);
        return ExitCode::SUCCESS;
    }

    // Traced run: each cycle runs the shipped program untraced, then the
    // traced guest; `derby-cold` also re-runs the traced guest with the
    // flight recorder detached, to price the recorder.
    let traced_kind = match w {
        Workload::Evacuate48 => GuestKind::Shipped,
        _ => GuestKind::Parts,
    };
    let mut tracer = Tracer::new(true);
    let mut unrecorded = Tracer::new(true);
    let (mut untraced, mut traced, mut detached) = (Vec::new(), Vec::new(), Vec::new());
    while another_round(traced.len(), started, timed, budget) {
        let run = traced.len() as u32;
        untraced.push(run_iteration(w, args.seed, GuestKind::Shipped, &mut off));
        tracer.set_run(run);
        traced.push(run_iteration(w, args.seed, traced_kind, &mut tracer));
        if w == Workload::DerbyCold {
            unrecorded.set_run(run);
            let mut cases = cases(w, args.seed);
            for c in &mut cases {
                c.recorded = false;
            }
            detached.push(run_cases(&cases, GuestKind::Parts, &mut unrecorded));
        }
    }
    let compared: Vec<&Sample> = std::iter::once(&warmup)
        .chain(&untraced)
        .chain(&traced)
        .collect();
    let mut errors = check(w, &warmup, &compared);
    if detached.iter().any(|s| s.failed() > 0) {
        errors.push("a migration failed with the recorder detached".to_string());
    }
    let all: Vec<&Sample> = compared.into_iter().chain(&detached).collect();
    let run = TracedRun {
        untraced: &untraced,
        traced: &traced,
        detached: &detached,
        spans: tracer.spans(),
        unrecorded_spans: unrecorded.spans(),
    };
    let unattributed = run.unattributed_pct();
    if unattributed > UNATTRIBUTED_BOUND_PCT {
        errors.push(format!(
            "layer self times cover only {:.2}% of traced wall time",
            100.0 - unattributed
        ));
    }
    let metrics = run.per_layer();
    for m in &metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, tracer.to_jsonl()) {
            errors.push(format!("cannot write spans to {path}: {e}"));
        }
    }
    for e in &errors {
        println!("error: {e}");
    }
    print_result(errors.is_empty(), &all, &metrics);
    ExitCode::SUCCESS
}
