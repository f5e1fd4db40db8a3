//! Ablations for the paper's §6 extensions and design choices.
//!
//! Not figures from the paper, but experiments DESIGN.md commits to:
//!
//! * **Selective compression** — compress only the pages that are actually
//!   transferred, with a per-page method choice by page class.
//! * **Final-update strategy** — the implemented incremental strategy
//!   (shrink notifications + PFN cache) vs the §3.3.4 alternative that
//!   re-walks the page tables of all skip-over areas at the final update.
//! * **Adaptive policy** — estimate both downtimes per workload and pick a
//!   strategy, reproducing §6's "make the framework intelligent".

use crate::opts::FigOpts;
use crate::render::{gb, heading, table};
use javmm::orchestrator::{run_scenario, Scenario};
use javmm::vm::JavaVmConfig;
use migrate::config::{CompressionPolicy, MigrationConfig};
use migrate::policy::{choose_strategy, Strategy, WorkloadProbe};
use netsim::CompressionMethod;
use simkit::units::Bandwidth;
use simkit::SimDuration;
use workloads::catalog;

/// Compression ablation on the derby VM under vanilla pre-copy.
pub fn compression(opts: &FigOpts) -> String {
    let variants: Vec<(&str, CompressionPolicy)> = vec![
        ("off", CompressionPolicy::Off),
        ("fast", CompressionPolicy::Uniform(CompressionMethod::Fast)),
        (
            "strong",
            CompressionPolicy::Uniform(CompressionMethod::Strong),
        ),
        ("per-class", CompressionPolicy::PerClass),
    ];
    let rows: Vec<Vec<String>> = variants
        .into_iter()
        .map(|(name, policy)| {
            let mut config = MigrationConfig::javmm_default();
            config.compression = policy;
            let vm = JavaVmConfig::paper(catalog::derby(), true, 1);
            let out = run_scenario(&Scenario::quick(vm, config, opts.warmup, opts.tail))
                .expect("scenario failed");
            vec![
                name.to_string(),
                format!("{:.1}", out.report.total_duration.as_secs_f64()),
                gb(out.report.total_bytes),
                format!("{:.1}", out.report.cpu_time.as_secs_f64()),
                format!(
                    "{:.2}",
                    out.report.downtime.workload_downtime().as_secs_f64()
                ),
            ]
        })
        .collect();
    let mut s = heading("Ablation: selective compression of transferred pages (JAVMM, derby)");
    s.push_str(&table(
        &["policy", "time(s)", "traffic(GB)", "cpu(s)", "downtime(s)"],
        &rows,
    ));
    s.push_str(
        "compression trades daemon CPU for traffic; skipping already removed \
         the garbage, so only live/OS pages pay the CPU cost (§6).\n",
    );
    s
}

/// Final-update strategy ablation on the derby VM.
pub fn final_update_strategy(opts: &FigOpts) -> String {
    let rows: Vec<Vec<String>> = [("incremental", false), ("rewalk", true)]
        .into_iter()
        .map(|(name, rewalk)| {
            let mut vm = JavaVmConfig::paper(catalog::derby(), true, 1);
            vm.lkm.rewalk_final_update = rewalk;
            let config = MigrationConfig::javmm_default();
            let out = run_scenario(&Scenario::quick(vm, config, opts.warmup, opts.tail))
                .expect("scenario failed");
            let lkm = out.report.lkm.as_ref().expect("assisted run has LKM stats");
            vec![
                name.to_string(),
                format!(
                    "{:.0}",
                    out.report.downtime.final_update.as_secs_f64() * 1e6
                ),
                format!("{:.2}", lkm.first_update_duration.as_secs_f64() * 1e3),
                format!(
                    "{:.2}",
                    out.report.downtime.workload_downtime().as_secs_f64()
                ),
                gb(out.report.total_bytes),
                format!("{}", out.report.verification.mismatched),
            ]
        })
        .collect();
    let mut s = heading("Ablation: final transfer-bitmap update strategy (JAVMM, derby)");
    s.push_str(&table(
        &[
            "strategy",
            "final-update(us)",
            "first-update(ms)",
            "downtime(s)",
            "traffic(GB)",
            "mismatches",
        ],
        &rows,
    ));
    s.push_str(
        "re-walking all skip-over areas inflates the final update — performed \
         while the application is paused — which is why the paper deferred \
         that approach (§3.3.4).\n",
    );
    s
}

/// Adaptive strategy choice per §6, driven by observed heap profiles.
pub fn adaptive_policy(opts: &FigOpts) -> String {
    let rows: Vec<Vec<String>> = [catalog::derby(), catalog::crypto(), catalog::scimark()]
        .into_iter()
        .map(|w| {
            let profile = javmm::profiles::profile_heap(&w, w.default_young_max, opts.profile, 1);
            let probe = WorkloadProbe {
                vm_bytes: 2 << 30,
                young_committed: profile.avg_young as u64,
                alloc_rate: w.alloc_rate,
                other_dirty_rate: w.old_write_rate + 2.5e6,
                other_ws_bytes: w.old_ws_bytes + (8 << 20),
                expected_survivors: profile.gc_live as u64,
                minor_gc_duration: profile.gc_duration,
                bandwidth: Bandwidth::gigabit_ethernet(),
                resume_time: SimDuration::from_millis(170),
            };
            let d = choose_strategy(&probe);
            vec![
                w.name.to_string(),
                format!("{:.2}", d.precopy_downtime.as_secs_f64()),
                format!("{:.2}", d.javmm_downtime.as_secs_f64()),
                match d.strategy {
                    Strategy::Javmm => "JAVMM".to_string(),
                    Strategy::Precopy => "pre-copy".to_string(),
                },
            ]
        })
        .collect();
    let mut s = heading("Extension: adaptive strategy selection (§6)");
    s.push_str(&table(
        &[
            "workload",
            "est. Xen downtime(s)",
            "est. JAVMM downtime(s)",
            "choice",
        ],
        &rows,
    ));
    s.push_str(
        "the framework turns JAVMM off for scimark-like workloads, as §6 \
         proposes.\n",
    );
    s
}

/// §6 "Use JAVMM for large VMs with fast networks": scale the VM and the
/// link together and show the benefit persists, plus link sharing when two
/// VMs migrate concurrently.
pub fn scaling(opts: &FigOpts) -> String {
    use guestos::kernel::GuestOsConfig;
    use simkit::units::{GIB, MIB};

    let mut rows = Vec::new();
    for (label, mem, young_max, gbps, share) in [
        ("paper testbed (2G, 1Gb/s)", 2 * GIB, 1024 * MIB, 1.0, 1.0),
        ("large VM (12G, 10Gb/s)", 12 * GIB, 6 * GIB, 10.0, 1.0),
        (
            "large VM, link shared by 2 migrations",
            12 * GIB,
            6 * GIB,
            10.0,
            0.5,
        ),
    ] {
        let mut results = Vec::new();
        for assisted in [false, true] {
            let spec = {
                // Scale derby's appetite with the VM (§6: "VM processing
                // power, application memory footprints and memory-dirtying
                // rates likely increase proportionally"); a beefier host
                // also collects with more GC threads.
                let mut w = catalog::derby();
                let scale = young_max as f64 / (1024.0 * MIB as f64);
                w.alloc_rate *= scale;
                w.old_write_rate *= scale;
                w.default_young_max = young_max;
                w.old_max += young_max / 4;
                if scale > 1.0 {
                    // A beefier host collects with more GC threads.
                    w.gc_cost_scale = 0.25;
                }
                w
            };
            let mut vm = JavaVmConfig::paper(spec, assisted, 1);
            vm.os = GuestOsConfig::sized(mem);
            vm.young_max = Some(young_max);
            let mut config = if assisted {
                MigrationConfig::javmm_default()
            } else {
                MigrationConfig::xen_default()
            };
            config.bandwidth = Bandwidth::from_gbit_per_sec(gbps, 0.94).scaled(share);
            let out = run_scenario(&Scenario::quick(vm, config, opts.warmup, opts.tail))
                .expect("scenario failed");
            assert!(out.report.verification.is_correct());
            results.push(out);
        }
        let (xen, javmm) = (&results[0], &results[1]);
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", xen.report.total_duration.as_secs_f64()),
            format!("{:.1}", javmm.report.total_duration.as_secs_f64()),
            gb(xen.report.total_bytes),
            gb(javmm.report.total_bytes),
            format!(
                "{:.2}",
                xen.report.downtime.workload_downtime().as_secs_f64()
            ),
            format!(
                "{:.2}",
                javmm.report.downtime.workload_downtime().as_secs_f64()
            ),
        ]);
    }
    let mut s = heading("Extension: large VMs and fast networks (§6)");
    s.push_str(&table(
        &[
            "configuration",
            "Xen t(s)",
            "JAVMM t(s)",
            "Xen GB",
            "JAVMM GB",
            "Xen down(s)",
            "JAVMM down(s)",
        ],
        &rows,
    ));
    s.push_str(
        "memory footprints and dirtying rates grow with VM size, so the \
         network stays the bottleneck and JAVMM's advantage persists (§6).\n",
    );
    s
}

/// §6 parallel bitmap updates: the rewalk strategy becomes viable once the
/// LKM parallelizes its page-table walks.
pub fn parallel_walks(opts: &FigOpts) -> String {
    let rows: Vec<Vec<String>> = [1u32, 2, 4, 8]
        .into_iter()
        .map(|workers| {
            let mut vm = JavaVmConfig::paper(catalog::derby(), true, 1);
            vm.lkm.rewalk_final_update = true;
            vm.lkm.walk_parallelism = workers;
            let config = MigrationConfig::javmm_default();
            let out = run_scenario(&Scenario::quick(vm, config, opts.warmup, opts.tail))
                .expect("scenario failed");
            assert!(out.report.verification.is_correct());
            vec![
                workers.to_string(),
                format!(
                    "{:.0}",
                    out.report.downtime.final_update.as_secs_f64() * 1e6
                ),
                format!(
                    "{:.2}",
                    out.report.downtime.workload_downtime().as_secs_f64()
                ),
            ]
        })
        .collect();
    let mut s = heading("Extension: parallelized final-update walks (§6, rewalk strategy)");
    s.push_str(&table(
        &["workers", "final-update(us)", "downtime(s)"],
        &rows,
    ));
    s.push_str(
        "the paper deferred the rewalk strategy 'while exploring its \
         acceleration by using parallelism' — parallel walks shrink the \
         application-paused final update accordingly.\n",
    );
    s
}

/// RemusDB-style continuous replication (§2 related work, §3.1): checkpoint
/// sizes with and without memory deprotection of skip-over areas.
pub fn checkpointing(opts: &FigOpts) -> String {
    use javmm::vm::JavaVm;
    use migrate::checkpoint::{CheckpointConfig, CheckpointEngine};
    use simkit::SimClock;

    let rows: Vec<Vec<String>> = [("plain", false), ("deprotected", true)]
        .into_iter()
        .map(|(name, assisted)| {
            let mut vm = JavaVm::launch(JavaVmConfig::paper(catalog::derby(), assisted, 1));
            let mut clock = SimClock::new();
            vm.run_for(&mut clock, opts.warmup, SimDuration::from_millis(2));
            let report = CheckpointEngine::new(CheckpointConfig {
                epochs: 50,
                assisted,
                ..CheckpointConfig::default()
            })
            .replicate(&mut vm, &mut clock);
            let waits: SimDuration = report.epochs.iter().map(|e| e.backlog_wait).sum();
            vec![
                name.to_string(),
                format!("{:.1}", report.mean_bytes() / 1e6),
                gb(report.total_bytes),
                format!("{:.1}", report.total_stall.as_secs_f64() * 1e3),
                format!("{:.2}", waits.as_secs_f64()),
            ]
        })
        .collect();
    let mut s = heading("Extension: RemusDB-style checkpoint replication with memory deprotection");
    s.push_str(&table(
        &[
            "mode",
            "ckpt size(MB)",
            "total(GB)",
            "stall(ms, 50 epochs)",
            "throttle(s)",
        ],
        &rows,
    ));
    s.push_str(
        "skip-over areas need no replication either (§3.1): deprotecting the \
         Young generation keeps a derby VM's replication stream within the \
         link instead of throttling the guest.\n",
    );
    s
}

/// Baseline comparison: vanilla pre-copy vs JAVMM vs post-copy (§2's
/// related-work trade-off, measured).
pub fn baselines(opts: &FigOpts) -> String {
    use javmm::vm::JavaVm;
    use migrate::postcopy::{PostcopyConfig, PostcopyEngine};
    use migrate::precopy::PrecopyEngine;
    use simkit::SimClock;

    let mut rows = Vec::new();
    for (name, mode) in [("pre-copy (Xen)", 0u8), ("JAVMM", 1), ("post-copy", 2)] {
        let assisted = mode == 1;
        let mut vm = JavaVm::launch(JavaVmConfig::paper(catalog::derby(), assisted, 1));
        let mut clock = SimClock::new();
        vm.run_for(&mut clock, opts.warmup, SimDuration::from_millis(2));
        let row = match mode {
            2 => {
                let r = PostcopyEngine::new(PostcopyConfig::default()).migrate(&mut vm, &mut clock);
                vec![
                    name.to_string(),
                    format!("{:.1}", r.total_duration.as_secs_f64()),
                    gb(r.total_bytes),
                    format!("{:.2}", r.downtime.as_secs_f64()),
                    format!(
                        "stalled {:.1}s over a {:.1}s window ({} demand fetches)",
                        r.stall_time.as_secs_f64(),
                        r.degradation_window.as_secs_f64(),
                        r.demand_fetches
                    ),
                ]
            }
            _ => {
                let config = if assisted {
                    MigrationConfig::javmm_default()
                } else {
                    MigrationConfig::xen_default()
                };
                let r = PrecopyEngine::new(config)
                    .migrate(&mut vm, &mut clock)
                    .expect("migration failed");
                assert!(r.verification.is_correct());
                vec![
                    name.to_string(),
                    format!("{:.1}", r.total_duration.as_secs_f64()),
                    gb(r.total_bytes),
                    format!("{:.2}", r.downtime.workload_downtime().as_secs_f64()),
                    if assisted {
                        "no post-resume penalty".to_string()
                    } else {
                        "throughput degraded during migration".to_string()
                    },
                ]
            }
        };
        rows.push(row);
    }
    let mut s = heading("Baselines: pre-copy vs JAVMM vs post-copy (derby)");
    s.push_str(&table(
        &[
            "strategy",
            "time(s)",
            "traffic(GB)",
            "downtime(s)",
            "post-resume behaviour",
        ],
        &rows,
    ));
    s.push_str(
        "post-copy minimizes downtime but pays with demand-fetch stalls after \
         resumption (§2); JAVMM gets both low downtime and no penalty by not \
         moving garbage at all.\n",
    );
    s
}

/// §6 collector portability: JAVMM on the region-based (G1-like) collector
/// vs the contiguous ParallelGC-like one.
pub fn g1_collector(opts: &FigOpts) -> String {
    use javmm::vm::Collector;
    use simkit::units::MIB;

    let mut rows = Vec::new();
    for (name, collector) in [
        ("ParallelGC (contiguous)", Collector::Parallel),
        (
            "G1 (4MiB regions)",
            Collector::G1 {
                region_bytes: 4 * MIB,
            },
        ),
    ] {
        for assisted in [false, true] {
            let mut vm = JavaVmConfig::paper(catalog::derby(), assisted, 1);
            vm.collector = collector;
            let config = if assisted {
                MigrationConfig::javmm_default()
            } else {
                MigrationConfig::xen_default()
            };
            let out = run_scenario(&Scenario::quick(vm, config, opts.warmup, opts.tail))
                .expect("scenario failed");
            assert!(out.report.verification.is_correct());
            rows.push(vec![
                format!("{name} / {}", if assisted { "JAVMM" } else { "Xen" }),
                format!("{:.1}", out.report.total_duration.as_secs_f64()),
                gb(out.report.total_bytes),
                format!(
                    "{:.2}",
                    out.report.downtime.workload_downtime().as_secs_f64()
                ),
            ]);
        }
    }
    let mut s = heading("Extension: JAVMM across collectors (§6, derby)");
    s.push_str(&table(
        &[
            "collector / migration",
            "time(s)",
            "traffic(GB)",
            "downtime(s)",
        ],
        &rows,
    ));
    s.push_str(
        "the framework's skip-over areas are sets of VA ranges, so the \
         region-based Young generation (hundreds of non-contiguous ranges) \
         skips exactly like the contiguous one.\n",
    );
    s
}
