//! End-to-end engine tests against a synthetic guest (no JVM involved):
//! convergence, non-convergence, assistance, compression, determinism.

use guestos::coord::CoordPayload;
use guestos::kernel::{GuestKernel, GuestOsConfig};
use guestos::lkm::{DaemonPort, LkmConfig};
use guestos::netlink::NetlinkSocket;
use guestos::process::Pid;
use migrate::config::{CompressionPolicy, MigrationConfig};
use migrate::precopy::PrecopyEngine;
use migrate::vmhost::MigratableVm;
use netsim::CompressionMethod;
use simkit::units::{Bandwidth, MIB};
use simkit::{DetRng, SimClock, SimDuration, SimTime};
use vmem::{PageClass, VaRange, Vaddr, VmSpec, PAGE_SIZE};

/// A guest with one app that cyclically rewrites a hot buffer.
struct SyntheticVm {
    kernel: GuestKernel,
    port: Option<DaemonPort>,
    sock: Option<NetlinkSocket>,
    pid: Pid,
    hot: VaRange,
    /// Bytes of the hot buffer rewritten per second.
    dirty_rate: f64,
    cursor: u64,
    carry: f64,
    ops: u64,
    /// Pages at the start of the hot buffer reported as must-send.
    live_pages: u64,
    prep_requested: bool,
    /// Ranges reported as live-but-cold when the cold assist asks.
    cold: Vec<VaRange>,
}

impl SyntheticVm {
    fn new(mem: u64, hot_bytes: u64, dirty_rate: f64, assisted: bool) -> Self {
        let mut kernel = GuestKernel::boot(
            GuestOsConfig {
                spec: VmSpec::new(mem, 2),
                kernel_bytes: 8 * MIB,
                pagecache_bytes: 8 * MIB,
                kernel_dirty_rate: 0.0,
                pagecache_dirty_rate: 0.0,
            },
            DetRng::new(11),
        );
        let pid = kernel.spawn("synthetic");
        let hot = kernel
            .alloc_map(
                pid,
                Vaddr(0x10_0000_0000),
                hot_bytes / PAGE_SIZE,
                PageClass::Anon,
            )
            .expect("hot buffer fits");
        // Write the hot buffer once so it has real content.
        kernel.write_range(pid, hot, PageClass::Anon);
        let (port, sock) = if assisted {
            let port = kernel.load_lkm(LkmConfig::default());
            let sock = kernel.subscribe_netlink(pid);
            (Some(port), Some(sock))
        } else {
            (None, None)
        };
        Self {
            kernel,
            port,
            sock,
            pid,
            hot,
            dirty_rate,
            cursor: 0,
            carry: 0.0,
            ops: 0,
            live_pages: 8,
            prep_requested: false,
            cold: Vec::new(),
        }
    }

    /// Maps a `bytes` region that is written once and never again, and
    /// reports it as cold together with the upper half of the hot buffer,
    /// which is rewritten all the time and lies inside the skip-over area.
    fn with_cold(mut self, bytes: u64) -> Self {
        let still = self
            .kernel
            .alloc_map(
                self.pid,
                Vaddr(0x20_0000_0000),
                bytes / PAGE_SIZE,
                PageClass::Anon,
            )
            .expect("cold region fits");
        self.kernel.write_range(self.pid, still, PageClass::Anon);
        let half = self.hot.page_count() / 2 * PAGE_SIZE;
        let upper = VaRange::new(Vaddr(self.hot.start().0 + half), self.hot.end());
        self.cold = vec![still, upper];
        self
    }

    fn handle_messages(&mut self, now: SimTime) {
        let Some(sock) = &self.sock else { return };
        for msg in sock.recv(now) {
            match msg.payload {
                CoordPayload::QuerySkipOver => {
                    sock.send(now, CoordPayload::SkipOverAreas(vec![self.hot]));
                }
                CoordPayload::PrepareSuspension => {
                    self.prep_requested = true;
                }
                CoordPayload::QueryColdRegions if !self.cold.is_empty() => {
                    sock.send(now, CoordPayload::ColdRegions(self.cold.clone()));
                }
                _ => {}
            }
        }
        if self.prep_requested {
            self.prep_requested = false;
            // "Prepare" instantly: report the first pages as live.
            let must = VaRange::new(
                self.hot.start(),
                Vaddr(self.hot.start().0 + self.live_pages * PAGE_SIZE),
            );
            // Re-dirty the live pages (like a GC compacting into them).
            self.kernel.write_range(self.pid, must, PageClass::Anon);
            sock.send(
                now,
                CoordPayload::SuspensionReady {
                    areas: vec![self.hot],
                    must_send: vec![must],
                },
            );
        }
    }
}

impl MigratableVm for SyntheticVm {
    fn kernel(&self) -> &GuestKernel {
        &self.kernel
    }

    fn kernel_mut(&mut self) -> &mut GuestKernel {
        &mut self.kernel
    }

    fn advance_guest(&mut self, now: SimTime, dt: SimDuration) {
        self.kernel.service_lkm(now);
        self.handle_messages(now);
        // Rewrite the hot buffer cyclically.
        let bytes = self.dirty_rate * dt.as_secs_f64() + self.carry;
        let pages = (bytes / PAGE_SIZE as f64) as u64;
        self.carry = bytes - (pages * PAGE_SIZE) as f64;
        let hot_pages = self.hot.page_count();
        for _ in 0..pages {
            let va = Vaddr(self.hot.start().0 + (self.cursor % hot_pages) * PAGE_SIZE);
            self.kernel
                .write_range(self.pid, VaRange::from_len(va, 1), PageClass::Anon);
            self.cursor += 1;
        }
        self.ops += 1;
    }

    fn ops_completed(&self) -> u64 {
        self.ops
    }

    fn daemon_port(&self) -> Option<DaemonPort> {
        self.port.clone()
    }

    fn enforced_gc_duration(&self) -> Option<SimDuration> {
        None
    }
}

fn fast_config(assisted: bool) -> MigrationConfig {
    let mut c = if assisted {
        MigrationConfig::javmm_default()
    } else {
        MigrationConfig::xen_default()
    };
    // A 20 MB/s link keeps these tests quick.
    c.bandwidth = Bandwidth::from_mbytes_per_sec(20.0);
    c
}

#[test]
fn idle_vm_converges_quickly_and_correctly() {
    let mut vm = SyntheticVm::new(128 * MIB, 16 * MIB, 0.0, false);
    let mut clock = SimClock::new();
    let report = PrecopyEngine::new(fast_config(false))
        .migrate(&mut vm, &mut clock)
        .expect("migration failed");

    assert!(
        report.verification.is_correct(),
        "{:?}",
        report.verification
    );
    assert!(
        report.iteration_count() <= 3,
        "idle VM should converge, took {} iterations",
        report.iteration_count()
    );
    // Roughly one VM's worth of traffic.
    let ram = 128 * MIB;
    assert!(report.total_bytes >= ram, "sends all pages");
    assert!(report.total_bytes < ram + ram / 8);
    // Sub-second downtime: almost nothing left for the last iteration.
    assert!(
        report.downtime.workload_downtime() < SimDuration::from_millis(500),
        "downtime {}",
        report.downtime.workload_downtime()
    );
}

#[test]
fn hot_vm_is_forced_to_stop_and_pays_downtime() {
    // 40 MB/s of dirtying over a 20 MB/s link: cannot converge.
    let mut vm = SyntheticVm::new(128 * MIB, 32 * MIB, 40e6, false);
    let mut clock = SimClock::new();
    let report = PrecopyEngine::new(fast_config(false))
        .migrate(&mut vm, &mut clock)
        .expect("migration failed");

    assert!(
        report.verification.is_correct(),
        "{:?}",
        report.verification
    );
    let last = report.last_iteration();
    assert!(
        last.pages_sent * PAGE_SIZE > 16 * MIB,
        "a large dirty residue must be sent while paused, got {}",
        last.pages_sent * PAGE_SIZE
    );
    assert!(
        report.downtime.vm_downtime() > SimDuration::from_millis(800),
        "downtime {}",
        report.downtime.vm_downtime()
    );
    // Traffic blows past the VM size.
    assert!(report.total_bytes > 2 * 128 * MIB);
}

#[test]
fn assistance_skips_the_hot_region() {
    let run = |assisted: bool| {
        let mut vm = SyntheticVm::new(128 * MIB, 32 * MIB, 40e6, assisted);
        let mut clock = SimClock::new();
        let report = PrecopyEngine::new(fast_config(assisted))
            .migrate(&mut vm, &mut clock)
            .expect("migration failed");
        assert!(
            report.verification.is_correct(),
            "{:?}",
            report.verification
        );
        report
    };
    let xen = run(false);
    let assisted = run(true);

    assert!(
        assisted.total_bytes < xen.total_bytes / 2,
        "assisted {} vs xen {}",
        assisted.total_bytes,
        xen.total_bytes
    );
    assert!(
        assisted.total_duration < xen.total_duration,
        "assisted {} vs xen {}",
        assisted.total_duration,
        xen.total_duration
    );
    assert!(
        assisted.downtime.vm_downtime() < xen.downtime.vm_downtime() / 4,
        "assisted {} vs xen {}",
        assisted.downtime.vm_downtime(),
        xen.downtime.vm_downtime()
    );
    assert!(assisted.pages_skipped_transfer() > 0);
    // The skipped hot pages are excused, the live pages were transferred.
    assert!(assisted.verification.excused_skipped > 0);
    assert_eq!(xen.pages_skipped_transfer(), 0);
}

#[test]
fn must_send_pages_arrive_despite_skipping() {
    let mut vm = SyntheticVm::new(128 * MIB, 32 * MIB, 40e6, true);
    let live_pages = vm.live_pages;
    let hot_start = vm.hot.start();
    let pid = vm.pid;
    let mut clock = SimClock::new();
    let report = PrecopyEngine::new(fast_config(true))
        .migrate(&mut vm, &mut clock)
        .expect("migration failed");
    assert!(report.verification.is_correct());

    // Check the "live" pages explicitly: destination guarantees hold via
    // verification, but also confirm the last iteration carried data.
    let last = report.last_iteration();
    assert!(
        last.pages_sent >= live_pages,
        "last iteration must carry at least the live pages, sent {}",
        last.pages_sent
    );
    let pfn = vm.kernel().translate(pid, hot_start).unwrap();
    assert!(
        vm.kernel().lkm().unwrap().should_transfer(pfn),
        "live page's transfer bit must be set at pause"
    );
}

#[test]
fn compression_cuts_traffic_not_correctness() {
    let run = |policy: CompressionPolicy| {
        let mut vm = SyntheticVm::new(128 * MIB, 16 * MIB, 10e6, false);
        let mut clock = SimClock::new();
        let mut config = fast_config(false);
        config.compression = policy;
        let report = PrecopyEngine::new(config)
            .migrate(&mut vm, &mut clock)
            .expect("migration failed");
        assert!(report.verification.is_correct());
        report
    };
    let raw = run(CompressionPolicy::Off);
    let fast = run(CompressionPolicy::Uniform(CompressionMethod::Fast));
    let strong = run(CompressionPolicy::Uniform(CompressionMethod::Strong));
    let per_class = run(CompressionPolicy::PerClass);

    assert!(fast.total_bytes < raw.total_bytes);
    assert!(strong.total_bytes < fast.total_bytes);
    assert!(per_class.total_bytes < raw.total_bytes);
    assert!(
        strong.cpu_time > raw.cpu_time,
        "compression costs CPU: {} vs {}",
        strong.cpu_time,
        raw.cpu_time
    );
}

#[test]
fn migration_is_deterministic() {
    let run = || {
        let mut vm = SyntheticVm::new(128 * MIB, 32 * MIB, 40e6, true);
        let mut clock = SimClock::new();
        PrecopyEngine::new(fast_config(true))
            .migrate(&mut vm, &mut clock)
            .expect("migration failed")
    };
    let a = run();
    let b = run();
    assert_eq!(a.total_bytes, b.total_bytes);
    assert_eq!(a.total_duration, b.total_duration);
    assert_eq!(a.iteration_count(), b.iteration_count());
    assert_eq!(
        a.downtime.workload_downtime(),
        b.downtime.workload_downtime()
    );
    for (x, y) in a.iterations.iter().zip(&b.iterations) {
        assert_eq!(x.pages_sent, y.pages_sent);
        assert_eq!(x.duration, y.duration);
    }
}

#[test]
fn timeline_reflects_protocol_causality() {
    use migrate::report::StopReason;
    use simkit::telemetry::{EventKind, Recorder, Subsystem};

    let mut vm = SyntheticVm::new(128 * MIB, 32 * MIB, 40e6, true);
    let mut clock = SimClock::new();
    let report = PrecopyEngine::new(fast_config(true))
        .migrate_recorded(&mut vm, &mut clock, Recorder::new())
        .expect("migration failed");

    // The engine's instants are the run's event stream.
    let events: Vec<_> = report
        .telemetry
        .events
        .iter()
        .filter(|e| e.subsystem == Subsystem::Engine && e.kind == EventKind::Instant)
        .collect();
    let names: Vec<&str> = events.iter().map(|e| e.name).collect();
    // Ordering invariants of Figure 4.
    let pos = |needle: &str| {
        names
            .iter()
            .position(|n| *n == needle)
            .unwrap_or_else(|| panic!("missing {needle} in {names:?}"))
    };
    assert_eq!(pos("begin"), 0);
    let stop = pos("stop_condition");
    assert!(stop < pos("notified_lkm"));
    assert!(pos("notified_lkm") < pos("ready_received"));
    assert!(pos("ready_received") < pos("paused"));
    assert!(pos("paused") < pos("resumed"));
    // Timestamps are monotone.
    assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
    // The hot skipped guest converges once the bitmap hides its dirtying.
    assert_eq!(report.stop_reason, StopReason::DirtyThreshold);
}

#[test]
fn stop_reasons_distinguish_workload_shapes() {
    use migrate::report::StopReason;

    // Idle guest: convergence.
    let mut idle = SyntheticVm::new(128 * MIB, 16 * MIB, 0.0, false);
    let mut clock = SimClock::new();
    let r = PrecopyEngine::new(fast_config(false))
        .migrate(&mut idle, &mut clock)
        .expect("migration failed");
    assert_eq!(r.stop_reason, StopReason::DirtyThreshold);

    // Hot unassisted guest: forced out by iterations or traffic.
    let mut hot = SyntheticVm::new(128 * MIB, 32 * MIB, 40e6, false);
    let mut clock = SimClock::new();
    let r = PrecopyEngine::new(fast_config(false))
        .migrate(&mut hot, &mut clock)
        .expect("migration failed");
    assert_ne!(r.stop_reason, StopReason::DirtyThreshold);
}

/// The deferred backlog holds pages the transfer bitmap vetoes and pages
/// re-dirtied since deferral. The bulk drain must classify a page that is
/// both as a dirty skip, park the vetoed clean pages with the deferred
/// skips, and send the rest. The pinned totals were checked against the
/// per-page drain.
#[test]
fn cold_drain_classifies_vetoed_and_redirtied_pages() {
    use migrate::assist::ColdAssistConfig;

    let mut vm = SyntheticVm::new(128 * MIB, 32 * MIB, 10e6, true).with_cold(16 * MIB);
    let mut config = fast_config(true);
    config.cold = ColdAssistConfig {
        delta: false,
        ..ColdAssistConfig::full()
    };
    let mut clock = SimClock::new();
    let report = PrecopyEngine::new(config)
        .migrate(&mut vm, &mut clock)
        .expect("migration failed");
    assert!(
        report.verification.is_correct(),
        "{:?}",
        report.verification
    );
    let cold = report.cold.expect("cold report");
    let skipped_dirty: u64 = report
        .iterations
        .iter()
        .map(|i| i.pages_skipped_dirty)
        .sum();
    let totals = (
        cold.deferred_pages,
        cold.deferred_sent_pages,
        cold.pending_at_pause,
        skipped_dirty,
        report.pages_skipped_transfer(),
        report.total_bytes,
    );
    assert_eq!(totals, (12_288, 4_096, 0, 4_096, 20_487, 100_892_736));
}
