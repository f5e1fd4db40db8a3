//! One module per figure/table of the paper's evaluation.

pub mod fig01;
pub mod fig05;
pub mod fig08;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod tables;

use crate::opts::FigOpts;
use javmm::orchestrator::{run_scenario_recorded, Scenario, ScenarioOutcome};
use javmm::vm::JavaVmConfig;
use migrate::config::MigrationConfig;
use simkit::telemetry::export;
use simkit::{Recorder, RunTelemetry};
use workloads::spec::WorkloadSpec;

/// Runs the paper's procedure once: warm up, migrate, keep running.
///
/// With `opts.trace` set, the migration window is flight-recorded and the
/// trace files are (re)written after the run.
pub fn run_one(
    workload: &WorkloadSpec,
    young_max: Option<u64>,
    assisted: bool,
    seed: u64,
    opts: &FigOpts,
) -> ScenarioOutcome {
    let mut vm = JavaVmConfig::paper(workload.clone(), assisted, seed);
    vm.young_max = young_max;
    let migration = if assisted {
        MigrationConfig::javmm_default()
    } else {
        MigrationConfig::xen_default()
    };
    let recorder = if opts.trace.is_some() {
        Recorder::new()
    } else {
        Recorder::disabled()
    };
    let outcome = run_scenario_recorded(
        &Scenario::quick(vm, migration, opts.warmup, opts.tail),
        recorder,
    )
    .expect("scenario failed");
    if let Some(path) = &opts.trace {
        write_trace(path, &outcome.report.telemetry);
    }
    outcome
}

/// Writes `telemetry` as a Chrome trace-event file at `path` (openable in
/// Perfetto / `chrome://tracing`) plus a JSONL flight log next to it
/// (`.json` swapped for `.jsonl`, or `.jsonl` appended).
pub fn write_trace(path: &str, telemetry: &RunTelemetry) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create trace directory");
        }
    }
    std::fs::write(path, export::chrome_trace_to_string(telemetry)).expect("write Chrome trace");
    let jsonl = match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.jsonl"),
        None => format!("{path}.jsonl"),
    };
    std::fs::write(&jsonl, export::jsonl_to_string(telemetry)).expect("write JSONL flight log");
}
