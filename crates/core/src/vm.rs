//! Assembly of a migratable Java VM.
//!
//! A [`JavaVm`] is the complete guest of the paper's testbed: a booted
//! guest kernel with the migration-assist LKM loaded, a JVM process running
//! one workload (with or without the JAVMM TI agent), optionally further
//! assisting applications (e.g. the §6 cache server), and the external
//! throughput analyzer.

use guestos::app::GuestApp;
use guestos::kernel::{GuestKernel, GuestOsConfig};
use guestos::lkm::{DaemonPort, LkmConfig};
use jheap::gc::GcKind;
use jheap::jvm::JvmProcess;
use simkit::{DetRng, SimClock, SimDuration, SimTime};
use workloads::analyzer::Analyzer;
use workloads::spec::WorkloadSpec;

use migrate::vmhost::MigratableVm;

/// Which collector the JVM runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collector {
    /// HotSpot ParallelGC-like: contiguous Eden + two survivor spaces.
    Parallel,
    /// Garbage-first-like: a set of non-contiguous fixed-size regions (§6).
    G1 {
        /// Region size in bytes.
        region_bytes: u64,
    },
}

/// Configuration of a Java VM under test.
#[derive(Debug, Clone)]
pub struct JavaVmConfig {
    /// Guest OS and VM dimensions.
    pub os: GuestOsConfig,
    /// The workload to run.
    pub workload: WorkloadSpec,
    /// Maximum Young generation size; defaults to the workload's own.
    pub young_max: Option<u64>,
    /// Load the JAVMM TI agent (assisted migration).
    pub assisted: bool,
    /// Garbage collector.
    pub collector: Collector,
    /// LKM configuration.
    pub lkm: LkmConfig,
    /// Run seed; all randomness derives from it.
    pub seed: u64,
}

impl JavaVmConfig {
    /// The paper's setup: a 2 GiB / 4 vCPU guest running `workload`.
    pub fn paper(workload: WorkloadSpec, assisted: bool, seed: u64) -> Self {
        Self {
            os: GuestOsConfig::paper_guest(),
            workload,
            young_max: None,
            assisted,
            collector: Collector::Parallel,
            lkm: LkmConfig::default(),
            seed,
        }
    }
}

/// A fully assembled guest VM.
pub struct JavaVm {
    kernel: GuestKernel,
    jvm: JvmProcess,
    extra_apps: Vec<Box<dyn GuestApp>>,
    analyzer: Analyzer,
    port: DaemonPort,
}

impl JavaVm {
    /// Boots the guest, loads the LKM, and launches the JVM + workload.
    pub fn launch(config: JavaVmConfig) -> Self {
        let mutator = config.workload.mutator();
        Self::launch_with_mutator(config, mutator)
    }

    /// Like [`JavaVm::launch`] but with a custom mutator (e.g. a
    /// [`jheap::mutator::PhasedMutator`]) instead of the workload's steady
    /// profile; the workload spec still provides the JVM configuration.
    pub fn launch_with_mutator(
        config: JavaVmConfig,
        mutator: Box<dyn jheap::mutator::Mutator>,
    ) -> Self {
        let root = DetRng::new(config.seed);
        let mut kernel = GuestKernel::boot(config.os.clone(), root.fork(1));
        let port = kernel.load_lkm(config.lkm.clone());
        let young_max = config
            .young_max
            .unwrap_or(config.workload.default_young_max);
        let jvm_config = config.workload.jvm_config(young_max);
        let jvm = match config.collector {
            Collector::Parallel => JvmProcess::launch(
                &mut kernel,
                jvm_config,
                mutator,
                config.assisted,
                root.fork(2),
            ),
            Collector::G1 { region_bytes } => JvmProcess::launch_g1(
                &mut kernel,
                jvm_config,
                region_bytes,
                mutator,
                config.assisted,
                root.fork(2),
            ),
        };
        Self {
            kernel,
            jvm,
            extra_apps: Vec::new(),
            analyzer: Analyzer::new(),
            port,
        }
    }

    /// Adds another guest application (it should already hold its netlink
    /// subscription if it assists in migration).
    pub fn add_app(&mut self, app: Box<dyn GuestApp>) {
        self.extra_apps.push(app);
    }

    /// The guest kernel (e.g. to launch further apps before adding them).
    pub fn kernel_handle(&mut self) -> &mut GuestKernel {
        &mut self.kernel
    }

    /// The JVM under test.
    pub fn jvm(&self) -> &JvmProcess {
        &self.jvm
    }

    /// The workload's current dirty rate (allocation + Old-generation
    /// rewriting), bytes/second — the application-assisted signal a
    /// cycle-aware fleet scheduler consults before admitting this VM's
    /// migration.
    pub fn dirty_rate_hint(&mut self) -> f64 {
        let profile = self.jvm.mutator_profile();
        profile.alloc_rate + profile.old_write_rate
    }

    /// Arms (or disarms) a one-shot workload phase shift without touching
    /// any other fault lane. The fleet scheduler installs this at boot so
    /// the shift's countdown spans warmup and queueing; the full
    /// [`MigratableVm::install_faults`] at migration start re-installs the
    /// identical value, which [`JvmProcess::set_phase_shift`] treats as a
    /// no-op (a fired shift stays fired).
    pub fn set_phase_shift(&mut self, shift: Option<simkit::PhaseShift>) {
        self.jvm.set_phase_shift(shift);
    }

    /// The throughput analyzer.
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// Finalizes the analyzer's trailing buckets up to `now`.
    pub fn finish_analyzer(&mut self, now: SimTime) {
        self.analyzer.finish(now);
    }

    /// Runs the guest (no migration in progress) for `total`, advancing the
    /// shared clock in `tick` steps.
    pub fn run_for(&mut self, clock: &mut SimClock, total: SimDuration, tick: SimDuration) {
        let end = clock.now() + total;
        while clock.now() < end {
            let dt = tick.min(end.saturating_since(clock.now()));
            self.advance_guest(clock.now(), dt);
            clock.advance(dt);
        }
    }
}

impl MigratableVm for JavaVm {
    fn kernel(&self) -> &GuestKernel {
        &self.kernel
    }

    fn kernel_mut(&mut self) -> &mut GuestKernel {
        &mut self.kernel
    }

    fn advance_guest(&mut self, now: SimTime, dt: SimDuration) {
        self.kernel.service_lkm(now);
        self.kernel.tick_noise(now, dt);
        self.jvm.advance(now, dt, &mut self.kernel);
        for app in &mut self.extra_apps {
            app.advance(now, dt, &mut self.kernel);
        }
        let total_ops = self.jvm.ops_completed()
            + self
                .extra_apps
                .iter()
                .map(|a| a.ops_completed())
                .sum::<u64>();
        self.analyzer.observe(now + dt, total_ops);
    }

    fn ops_completed(&self) -> u64 {
        self.jvm.ops_completed()
            + self
                .extra_apps
                .iter()
                .map(|a| a.ops_completed())
                .sum::<u64>()
    }

    fn daemon_port(&self) -> Option<DaemonPort> {
        Some(self.port.clone())
    }

    fn enforced_gc_duration(&self) -> Option<SimDuration> {
        self.jvm
            .heap()
            .gc_log()
            .records()
            .iter()
            .rev()
            .find(|r| r.kind == GcKind::EnforcedMinor)
            .map(|r| r.duration)
    }

    fn attach_telemetry(&mut self, recorder: simkit::Recorder) {
        self.kernel.attach_telemetry(recorder.clone());
        self.port.attach_telemetry(recorder.clone());
        self.jvm.attach_telemetry(recorder);
    }

    fn install_faults(&mut self, plan: &simkit::FaultPlan) {
        // Every part of every plan is installed, the inert plan included,
        // so a plan disarms whatever an earlier migration's plan armed. An
        // inert lane keeps no RNG and draws nothing (forking is a pure
        // function of the seed), so zero-fault runs stay bit-for-bit
        // identical.
        let root = DetRng::new(plan.seed);
        self.port.install_faults(plan.evtchn, root.fork(1));
        self.kernel
            .install_netlink_faults(plan.netlink, root.fork(2));
        self.jvm.set_agent_stall(plan.agent_stall);
        self.jvm.set_gc_overrun(plan.gc_overrun);
        self.jvm.set_phase_shift(plan.phase_shift);
    }
}

impl core::fmt::Debug for JavaVm {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("JavaVm")
            .field("kernel", &self.kernel)
            .field("jvm", &self.jvm)
            .field("extra_apps", &self.extra_apps.len())
            .finish()
    }
}
