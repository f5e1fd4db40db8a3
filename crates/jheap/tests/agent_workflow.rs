//! The Figure 7 workflow, tested at the JVM level: query → report ranges →
//! prepare → enforced GC → suspension-ready with threads held → resume.

use guestos::app::GuestApp;
use guestos::kernel::{GuestKernel, GuestOsConfig};
use guestos::lkm::{LkmConfig, LkmState};
use guestos::process::Pid;
use guestos::CoordPayload;
use jheap::config::JvmConfig;
use jheap::gc::GcKind;
use jheap::jvm::JvmProcess;
use jheap::mutator::{MutatorProfile, SteadyMutator};
use simkit::units::MIB;
use simkit::{DetRng, SimDuration, SimTime};
use vmem::VmSpec;

fn setup() -> (GuestKernel, JvmProcess, guestos::lkm::DaemonPort) {
    setup_with(LkmConfig::default())
}

fn setup_with(lkm: LkmConfig) -> (GuestKernel, JvmProcess, guestos::lkm::DaemonPort) {
    let mut kernel = GuestKernel::boot(
        GuestOsConfig {
            spec: VmSpec::new(1024 * MIB, 2),
            kernel_bytes: 16 * MIB,
            pagecache_bytes: 16 * MIB,
            kernel_dirty_rate: 0.0,
            pagecache_dirty_rate: 0.0,
        },
        DetRng::new(1),
    );
    let port = kernel.load_lkm(lkm);
    let profile = MutatorProfile {
        alloc_rate: 120e6,
        ..MutatorProfile::quiet()
    };
    let jvm = JvmProcess::launch(
        &mut kernel,
        JvmConfig::with_young_max(128 * MIB),
        Box::new(SteadyMutator::new("wf", profile)),
        true,
        DetRng::new(2),
    );
    (kernel, jvm, port)
}

fn run(kernel: &mut GuestKernel, jvm: &mut JvmProcess, from: SimTime, secs_ms: u64) -> SimTime {
    let mut now = from;
    for _ in 0..secs_ms {
        kernel.service_lkm(now);
        jvm.advance(now, SimDuration::from_millis(1), kernel);
        now += SimDuration::from_millis(1);
    }
    now
}

#[test]
fn enforced_gc_holds_threads_until_resume() {
    let (mut kernel, mut jvm, port) = setup();
    let mut now = run(&mut kernel, &mut jvm, SimTime::ZERO, 3000);

    // Migration begins: the agent answers the skip-over query.
    port.send(now, CoordPayload::MigrationBegin);
    now = run(&mut kernel, &mut jvm, now, 20);
    assert_eq!(kernel.lkm().unwrap().state(), LkmState::MigrationStarted);
    assert!(
        kernel.lkm().unwrap().transfer_bitmap().skip_count() > 10_000,
        "Young generation registered"
    );

    // Entering the last iteration: the agent runs the enforced GC and then
    // holds the Java threads at the safepoint.
    port.send(now, CoordPayload::EnteringLastIter);
    now = run(&mut kernel, &mut jvm, now, 3000);
    assert_eq!(kernel.lkm().unwrap().state(), LkmState::SuspensionReady);
    assert!(jvm.is_held(), "threads must stay at the safepoint");
    assert_eq!(jvm.heap().gc_log().count(GcKind::EnforcedMinor), 1);

    // While held, no operations complete and Eden stays empty.
    let ops_before = jvm.ops_completed();
    let young_used = jvm.heap().young_used();
    now = run(&mut kernel, &mut jvm, now, 500);
    assert_eq!(jvm.ops_completed(), ops_before, "held threads do no work");
    assert_eq!(
        jvm.heap().young_used(),
        young_used,
        "the post-collection state must not change before suspension"
    );

    // Resumption releases the safepoint and work continues.
    port.send(now, CoordPayload::VmResumed);
    now = run(&mut kernel, &mut jvm, now, 1000);
    let _ = now;
    assert!(!jvm.is_held());
    assert!(jvm.ops_completed() > ops_before, "work resumed");
    assert_eq!(kernel.lkm().unwrap().state(), LkmState::Initialized);
}

/// A re-prompt must not run a second enforced GC. A silent second
/// subscriber keeps the LKM waiting in `EnteringLastIter`, so the daemon's
/// retry makes it re-multicast `PrepareSuspension` to a JVM whose enforced
/// GC already ran and whose threads are held. The JVM treats it as a
/// duplicate: one enforced GC, no hold after resume, and work resumes.
#[test]
fn reprompted_agent_runs_one_enforced_gc() {
    let (mut kernel, mut jvm, port) = setup_with(LkmConfig {
        reply_timeout: SimDuration::from_secs(2),
        ..LkmConfig::default()
    });
    let _silent = kernel.subscribe_netlink(Pid(999));
    let mut now = run(&mut kernel, &mut jvm, SimTime::ZERO, 3000);
    port.send(now, CoordPayload::MigrationBegin);
    now = run(&mut kernel, &mut jvm, now, 20);
    port.send(now, CoordPayload::EnteringLastIter);
    now = run(&mut kernel, &mut jvm, now, 1000);
    assert!(jvm.is_held(), "the enforced GC ran and holds the threads");
    assert_eq!(kernel.lkm().unwrap().state(), LkmState::EnteringLastIter);

    // The daemon retries while the LKM still waits on the silent
    // subscriber; the straggler deadline then releases the LKM.
    port.send(now, CoordPayload::EnteringLastIter);
    now = run(&mut kernel, &mut jvm, now, 1500);
    assert_eq!(kernel.lkm().unwrap().state(), LkmState::SuspensionReady);

    port.send(now, CoordPayload::VmResumed);
    now = run(&mut kernel, &mut jvm, now, 1000);
    let ops_after_resume = jvm.ops_completed();
    now = run(&mut kernel, &mut jvm, now, 3000);
    let _ = now;
    assert_eq!(jvm.heap().gc_log().count(GcKind::EnforcedMinor), 1);
    assert!(!jvm.is_held(), "no hold outlives the migration");
    assert!(
        jvm.ops_completed() > ops_after_resume,
        "work resumed after the migration"
    );
}

#[test]
fn unassisted_jvm_never_holds() {
    let mut kernel = GuestKernel::boot(
        GuestOsConfig {
            spec: VmSpec::new(512 * MIB, 1),
            kernel_bytes: 8 * MIB,
            pagecache_bytes: 8 * MIB,
            kernel_dirty_rate: 0.0,
            pagecache_dirty_rate: 0.0,
        },
        DetRng::new(1),
    );
    let port = kernel.load_lkm(LkmConfig {
        reply_timeout: SimDuration::from_millis(200),
        ..LkmConfig::default()
    });
    let mut jvm = JvmProcess::launch(
        &mut kernel,
        JvmConfig::with_young_max(64 * MIB),
        Box::new(SteadyMutator::new("plain", MutatorProfile::quiet())),
        false,
        DetRng::new(2),
    );
    let mut now = SimTime::ZERO;
    port.send(now, CoordPayload::MigrationBegin);
    now = run(&mut kernel, &mut jvm, now, 50);
    port.send(now, CoordPayload::EnteringLastIter);
    now = run(&mut kernel, &mut jvm, now, 500);
    let _ = now;
    // No agent subscribed: the LKM proceeds without waiting on anyone.
    assert_eq!(kernel.lkm().unwrap().state(), LkmState::SuspensionReady);
    assert!(!jvm.is_held());
    assert_eq!(kernel.lkm().unwrap().stats().stragglers, 0);
    assert_eq!(kernel.lkm().unwrap().transfer_bitmap().skip_count(), 0);
}
