//! Seeded fault-matrix sweep: every fault scenario × seed cell runs one
//! migration under a wall-clock guard and reports a typed outcome.
//!
//! Usage: `fault-matrix [--out <path>] [--guard-secs <n>]`
//!
//! An unknown argument, a flag without its value, or a `--guard-secs` that
//! is not a positive integer exits 2 naming it.
//!
//! The sweep proves three properties the CI `fault-matrix` job gates on:
//!
//! * **no hangs** — each cell must finish inside the wall-clock guard or
//!   the binary exits non-zero naming the cell;
//! * **typed outcomes** — every cell ends in `completed`,
//!   `degraded:<fault>` or `error:<kind>`; nothing panics, nothing is
//!   silent;
//! * **zero-fault inertness** — the `none` column reruns the three
//!   scenarios locked by `tests/precopy_equivalence.rs` through the fault
//!   harness (explicit [`FaultPlan::none`]) and emits the full report
//!   projection. The output file is deterministic, so running the binary
//!   twice and comparing bytes proves the harness adds no nondeterminism;
//!   the locked goldens in the test suite pin the same digits to the
//!   pre-harness engine.

use javmm::orchestrator::{run_scenario, Scenario};
use javmm::vm::{JavaVm, JavaVmConfig};
use javmm_bench::cli::{check_flags, flag, num_flag};
use migrate::config::{CoordPolicy, MigrationConfig};
use migrate::error::{MigrateError, MigrationOutcome};
use migrate::precopy::PrecopyEngine;
use migrate::report::MigrationReport;
use simkit::units::MIB;
use simkit::{FaultPlan, GcOverrun, LaneFaults, LinkDegrade, SimClock, SimDuration, StallPoint};
use std::fmt::Write as _;
use std::time::Instant;
use workloads::catalog;

/// One row of the matrix: a named fault scenario.
struct Row {
    name: &'static str,
    faults: FaultPlan,
    /// Whether the cell is allowed (expected) to end in `Err`.
    may_error: bool,
}

fn rows() -> Vec<Row> {
    let mut rows = vec![Row {
        name: "none",
        faults: FaultPlan::none(),
        may_error: false,
    }];
    for stall in StallPoint::ALL {
        rows.push(Row {
            name: match stall {
                StallPoint::Initialized => "stall-initialized",
                StallPoint::MigrationStarted => "stall-migration-started",
                StallPoint::EnteringLastIter => "stall-entering-last-iter",
                StallPoint::SuspensionReady => "stall-suspension-ready",
                StallPoint::Degraded => "stall-degraded",
            },
            faults: FaultPlan {
                agent_stall: Some(stall),
                ..FaultPlan::none()
            },
            may_error: false,
        });
    }
    rows.push(Row {
        name: "evtchn-dead",
        faults: FaultPlan {
            seed: 7,
            evtchn: LaneFaults {
                drop: 1.0,
                ..LaneFaults::NONE
            },
            ..FaultPlan::none()
        },
        may_error: false,
    });
    let chaos = LaneFaults {
        drop: 0.3,
        delay: 0.3,
        delay_max: SimDuration::from_millis(5),
        duplicate: 0.3,
    };
    rows.push(Row {
        name: "evtchn-chaos",
        faults: FaultPlan {
            seed: 11,
            evtchn: chaos,
            ..FaultPlan::none()
        },
        may_error: false,
    });
    rows.push(Row {
        name: "netlink-chaos",
        faults: FaultPlan {
            seed: 13,
            netlink: chaos,
            ..FaultPlan::none()
        },
        may_error: false,
    });
    rows.push(Row {
        name: "gc-overrun-5s",
        faults: FaultPlan {
            gc_overrun: Some(GcOverrun {
                extra: SimDuration::from_secs(5),
            }),
            ..FaultPlan::none()
        },
        may_error: false,
    });
    rows.push(Row {
        name: "link-quartered",
        faults: FaultPlan {
            link: Some(LinkDegrade {
                after: SimDuration::from_secs(1),
                factor: 0.25,
            }),
            ..FaultPlan::none()
        },
        may_error: false,
    });
    rows.push(Row {
        name: "link-dead",
        faults: FaultPlan {
            link: Some(LinkDegrade {
                after: SimDuration::from_secs(1),
                factor: 0.0,
            }),
            ..FaultPlan::none()
        },
        may_error: true,
    });
    rows
}

fn cell_config(faults: FaultPlan) -> MigrationConfig {
    MigrationConfig {
        coord: CoordPolicy {
            degrade_on_stragglers: true,
            ..CoordPolicy::default()
        },
        faults,
        ..MigrationConfig::javmm_default()
    }
}

/// Runs one matrix cell: a small assisted guest with the row's faults.
fn run_cell(faults: FaultPlan, seed: u64) -> Result<MigrationReport, MigrateError> {
    let mut vmc = JavaVmConfig::paper(catalog::mpeg(), true, seed);
    vmc.young_max = Some(256 * MIB);
    vmc.lkm.reply_timeout = SimDuration::from_millis(500);
    let mut vm = JavaVm::launch(vmc);
    let mut clock = SimClock::new();
    vm.run_for(
        &mut clock,
        SimDuration::from_secs(10),
        SimDuration::from_millis(2),
    );
    PrecopyEngine::new(cell_config(faults)).migrate(&mut vm, &mut clock)
}

fn outcome_label(result: &Result<MigrationReport, MigrateError>) -> String {
    match result {
        Ok(r) => match r.outcome {
            MigrationOutcome::Completed => "completed".to_string(),
            MigrationOutcome::DegradedVanilla { fault } => format!("degraded:{}", fault.name()),
        },
        Err(MigrateError::LinkDown) => "error:link_down".to_string(),
        Err(MigrateError::CoordTimeout { phase, .. }) => {
            format!("error:coord_timeout:{}", phase.name())
        }
        Err(MigrateError::MissingLkm) => "error:missing_lkm".to_string(),
        Err(MigrateError::Config(_)) => "error:config".to_string(),
    }
}

/// Serializes the deterministic projection of a report — the same fields
/// `tests/precopy_equivalence.rs` locks.
fn report_lines(name: &str, r: &MigrationReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{name} total_bytes={} duration_ns={} cpu_ns={}",
        r.total_bytes,
        r.total_duration.as_nanos(),
        r.cpu_time.as_nanos()
    );
    let _ = writeln!(
        s,
        "{name} downtime_ns=({},{},{},{},{})",
        r.downtime.safepoint_wait.as_nanos(),
        r.downtime.enforced_gc.as_nanos(),
        r.downtime.final_update.as_nanos(),
        r.downtime.last_iteration.as_nanos(),
        r.downtime.resume.as_nanos()
    );
    let _ = writeln!(
        s,
        "{name} verification=({},{},{},{})",
        r.verification.matching,
        r.verification.excused_skipped,
        r.verification.excused_free,
        r.verification.mismatched
    );
    for it in &r.iterations {
        let _ = writeln!(
            s,
            "{name} iter={} to_send={} sent={} bytes={} skip_dirty={} skip_transfer={} duration_ns={}",
            it.index,
            it.pages_to_send,
            it.pages_sent,
            it.bytes_sent,
            it.pages_skipped_dirty,
            it.pages_skipped_transfer,
            it.duration.as_nanos()
        );
    }
    s
}

/// The three fixed scenarios locked by `tests/precopy_equivalence.rs`,
/// rerun through the fault harness with an explicit zero plan.
fn zero_fault_column(out: &mut String, guard: std::time::Duration) {
    let cases: [(&str, _, bool, u64); 3] = [
        ("equiv/crypto-assisted-seed9", catalog::crypto(), true, 9),
        ("equiv/derby-xen-seed1", catalog::derby(), false, 1),
        ("equiv/derby-assisted-seed3", catalog::derby(), true, 3),
    ];
    for (name, workload, assisted, seed) in cases {
        let config = MigrationConfig {
            assisted,
            faults: FaultPlan::none(),
            ..MigrationConfig::xen_default()
        };
        let started = Instant::now();
        let report = run_scenario(&Scenario::quick(
            JavaVmConfig::paper(workload, assisted, seed),
            config,
            SimDuration::from_secs(20),
            SimDuration::from_secs(5),
        ))
        .expect("zero-fault scenario failed")
        .report;
        let wall = started.elapsed();
        assert!(
            wall < guard,
            "{name} exceeded the wall-clock guard ({wall:?} >= {guard:?})"
        );
        assert_eq!(
            report.outcome,
            MigrationOutcome::Completed,
            "{name}: a zero plan must not degrade"
        );
        eprintln!("{name}: completed in {wall:?} wall");
        out.push_str(&report_lines(name, &report));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags(&args, &["--out", "--guard-secs"], &[]);
    let out_path = flag(&args, "--out");
    let guard_secs = num_flag(&args, "--guard-secs", |&n: &u64| n > 0).unwrap_or(120);
    let guard = std::time::Duration::from_secs(guard_secs);

    let seeds = [1u64, 2];
    let mut out = String::new();
    let mut hung = false;

    for row in rows() {
        for seed in seeds {
            let started = Instant::now();
            let result = run_cell(row.faults.clone(), seed);
            let wall = started.elapsed();
            let label = outcome_label(&result);
            if wall >= guard {
                eprintln!(
                    "FAIL {}/{seed}: exceeded wall-clock guard ({wall:?} >= {guard:?})",
                    row.name
                );
                hung = true;
            }
            if let Ok(report) = &result {
                assert!(
                    report.verification.is_correct(),
                    "{}/{seed}: destination memory incorrect",
                    row.name
                );
            } else {
                assert!(
                    row.may_error,
                    "{}/{seed}: unexpected error outcome {label}",
                    row.name
                );
            }
            eprintln!("{}/{seed}: {label} in {wall:?} wall", row.name);
            let _ = writeln!(
                out,
                "cell scenario={} seed={seed} outcome={label}",
                row.name
            );
        }
    }

    zero_fault_column(&mut out, guard);

    if let Some(path) = out_path {
        if let Some(dir) = std::path::Path::new(&path).parent() {
            std::fs::create_dir_all(dir).expect("create output dir");
        }
        std::fs::write(&path, &out).expect("write output");
        eprintln!("wrote {path}");
    } else {
        print!("{out}");
    }

    if hung {
        std::process::exit(1);
    }
}
