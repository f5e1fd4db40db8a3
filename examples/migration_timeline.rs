//! Inspect a migration's event timeline and stop reason.
//!
//! Shows the Figure 4 protocol causality as the flight recorder's engine
//! instants tell it: the stop condition fires, the LKM is notified, the
//! guest runs its enforced GC and reports readiness, then the VM pauses and
//! resumes — with the per-class traffic breakdown explaining where the
//! bytes went.
//!
//! Run with: `cargo run --release --example migration_timeline`

use javmm::orchestrator::{run_scenario_recorded, Scenario};
use javmm::vm::{Collector, JavaVmConfig};
use migrate::config::MigrationConfig;
use simkit::telemetry::{EventKind, Recorder, Subsystem, Value};
use simkit::units::{fmt_bytes, MIB};
use simkit::SimDuration;
use workloads::catalog;

fn main() {
    // A derby VM on the G1-like collector, migrated with JAVMM.
    let mut vm = JavaVmConfig::paper(catalog::derby(), true, 21);
    vm.collector = Collector::G1 {
        region_bytes: 4 * MIB,
    };
    let outcome = run_scenario_recorded(
        &Scenario::quick(
            vm,
            MigrationConfig::javmm_default(),
            SimDuration::from_secs(60),
            SimDuration::from_secs(30),
        ),
        Recorder::new(),
    )
    .expect("scenario failed");
    let report = &outcome.report;

    println!("engine events (seconds are absolute simulation time):");
    for event in &report.telemetry.events {
        if event.subsystem != Subsystem::Engine || event.kind != EventKind::Instant {
            continue;
        }
        let fields: Vec<String> = event
            .fields
            .iter()
            .map(|(key, value)| match value {
                Value::U64(x) => format!("{key}={x}"),
                Value::F64(x) => format!("{key}={x}"),
                Value::Bool(x) => format!("{key}={x}"),
                Value::Str(x) => format!("{key}={x}"),
                Value::Dur(x) => format!("{key}={x}"),
            })
            .collect();
        println!(
            "  {:>10.4}s  {:<20} {}",
            event.at.as_secs_f64(),
            event.name,
            fields.join(" ")
        );
    }
    println!("\nstop reason: {:?}", report.stop_reason);
    println!(
        "downtime: {} (enforced GC {}, final bitmap update {}, stop-and-copy {}, resume {})",
        report.downtime.workload_downtime(),
        report.downtime.enforced_gc,
        report.downtime.final_update,
        report.downtime.last_iteration,
        report.downtime.resume,
    );

    println!("\ntraffic by page class:");
    for (class, bytes) in report.traffic_by_class.sorted() {
        println!("  {:>10}  {}", class.label(), fmt_bytes(bytes));
    }
    println!(
        "\nskipped {} of Young-generation memory across {} iterations; \
         correctness: {} mismatches",
        fmt_bytes(report.pages_skipped_transfer() * vmem::PAGE_SIZE),
        report.iteration_count(),
        report.verification.mismatched,
    );
    assert!(report.verification.is_correct());
}
