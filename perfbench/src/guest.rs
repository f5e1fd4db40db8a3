//! The two guests a single-VM workload can run on.
//!
//! The untraced run uses [`javmm::JavaVm`], the program as shipped. The
//! traced run uses [`PartsVm`], the same guest assembled here from the
//! public parts (`GuestKernel::boot`/`load_lkm`, `JvmProcess::launch`,
//! `CacheApp::launch`) so that each per-quantum call into a layer can be
//! timed on its own. Both must produce identical simulated outputs; the
//! benchmark checks that on every traced run.

use std::time::Instant;

use guestos::app::GuestApp;
use guestos::kernel::GuestKernel;
use guestos::lkm::DaemonPort;
use javmm::{Collector, JavaVm, JavaVmConfig};
use jheap::gc::GcKind;
use jheap::jvm::JvmProcess;
use migrate::vmhost::MigratableVm;
use simkit::{DetRng, FaultPlan, Recorder, SimClock, SimDuration, SimTime};
use workloads::analyzer::Analyzer;
use workloads::cacheapp::{CacheApp, CacheAppConfig};

/// Everything needed to build one guest.
#[derive(Debug, Clone)]
pub struct GuestSpec {
    /// The Java VM under test.
    pub vm: JavaVmConfig,
    /// An optional cache server, with the seed of its own rng.
    pub cache: Option<(CacheAppConfig, u64)>,
}

/// Host time spent in each guest layer, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerNs {
    /// `GuestKernel::service_lkm`.
    pub lkm: u64,
    /// `GuestKernel::tick_noise`.
    pub noise: u64,
    /// `JvmProcess::advance` (mutator, GC and log-dirty writes).
    pub jheap: u64,
    /// `CacheApp::advance`.
    pub cacheapp: u64,
    /// Throughput bookkeeping of the guest wrapper itself.
    pub core: u64,
}

impl LayerNs {
    /// `(counter name, ns)` pairs, in the names the tracer uses.
    pub fn named(&self) -> [(&'static str, u64); 5] {
        [
            ("guestos.lkm", self.lkm),
            ("guestos.noise", self.noise),
            ("jheap.advance", self.jheap),
            ("workloads.cacheapp", self.cacheapp),
            ("core.guest", self.core),
        ]
    }
}

/// What a workload needs from a guest beyond [`MigratableVm`].
pub trait Guest: MigratableVm {
    /// Runs the guest with no migration in progress.
    fn run_for(&mut self, clock: &mut SimClock, total: SimDuration, tick: SimDuration);
    /// Closes the throughput analyzer at `now`.
    fn finish_analyzer(&mut self, now: SimTime);
    /// The JVM under test.
    fn jvm(&self) -> &JvmProcess;
    /// Guest-layer host time accumulated since the last call (always zero
    /// for an untimed guest).
    fn take_layer_ns(&mut self) -> LayerNs {
        LayerNs::default()
    }
}

/// Boots the shipped guest.
pub fn launch_java_vm(spec: &GuestSpec) -> JavaVm {
    let mut vm = JavaVm::launch(spec.vm.clone());
    if let Some((config, seed)) = &spec.cache {
        let cache = CacheApp::launch(
            vm.kernel_handle(),
            config.clone(),
            spec.vm.assisted,
            DetRng::new(*seed),
        );
        vm.add_app(Box::new(cache));
    }
    vm
}

impl Guest for JavaVm {
    fn run_for(&mut self, clock: &mut SimClock, total: SimDuration, tick: SimDuration) {
        JavaVm::run_for(self, clock, total, tick);
    }

    fn finish_analyzer(&mut self, now: SimTime) {
        JavaVm::finish_analyzer(self, now);
    }

    fn jvm(&self) -> &JvmProcess {
        JavaVm::jvm(self)
    }
}

/// A guest assembled from public parts, timing each layer per quantum.
pub struct PartsVm {
    kernel: GuestKernel,
    jvm: JvmProcess,
    cache: Option<CacheApp>,
    analyzer: Analyzer,
    port: DaemonPort,
    ns: LayerNs,
}

impl PartsVm {
    /// Boots the guest exactly as [`JavaVm::launch`] plus
    /// [`JavaVm::add_app`] would.
    pub fn launch(spec: &GuestSpec) -> Self {
        let config = &spec.vm;
        assert_eq!(
            config.collector,
            Collector::Parallel,
            "the parts guest assembles a ParallelGC JVM"
        );
        let mutator = config.workload.mutator();
        let root = DetRng::new(config.seed);
        let mut kernel = GuestKernel::boot(config.os.clone(), root.fork(1));
        let port = kernel.load_lkm(config.lkm.clone());
        let young_max = config
            .young_max
            .unwrap_or(config.workload.default_young_max);
        let jvm = JvmProcess::launch(
            &mut kernel,
            config.workload.jvm_config(young_max),
            mutator,
            config.assisted,
            root.fork(2),
        );
        let cache = spec.cache.as_ref().map(|(cache, seed)| {
            CacheApp::launch(
                &mut kernel,
                cache.clone(),
                config.assisted,
                DetRng::new(*seed),
            )
        });
        Self {
            kernel,
            jvm,
            cache,
            analyzer: Analyzer::new(),
            port,
            ns: LayerNs::default(),
        }
    }
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    b.duration_since(a).as_nanos() as u64
}

impl Guest for PartsVm {
    fn run_for(&mut self, clock: &mut SimClock, total: SimDuration, tick: SimDuration) {
        let end = clock.now() + total;
        while clock.now() < end {
            let dt = tick.min(end.saturating_since(clock.now()));
            self.advance_guest(clock.now(), dt);
            clock.advance(dt);
        }
    }

    fn finish_analyzer(&mut self, now: SimTime) {
        self.analyzer.finish(now);
    }

    fn jvm(&self) -> &JvmProcess {
        &self.jvm
    }

    fn take_layer_ns(&mut self) -> LayerNs {
        std::mem::take(&mut self.ns)
    }
}

impl MigratableVm for PartsVm {
    fn kernel(&self) -> &GuestKernel {
        &self.kernel
    }

    fn kernel_mut(&mut self) -> &mut GuestKernel {
        &mut self.kernel
    }

    fn advance_guest(&mut self, now: SimTime, dt: SimDuration) {
        let t0 = Instant::now();
        self.kernel.service_lkm(now);
        let t1 = Instant::now();
        self.kernel.tick_noise(now, dt);
        let t2 = Instant::now();
        self.jvm.advance(now, dt, &mut self.kernel);
        let mut t3 = Instant::now();
        self.ns.lkm += ns_between(t0, t1);
        self.ns.noise += ns_between(t1, t2);
        self.ns.jheap += ns_between(t2, t3);
        if let Some(cache) = &mut self.cache {
            cache.advance(now, dt, &mut self.kernel);
            let t4 = Instant::now();
            self.ns.cacheapp += ns_between(t3, t4);
            t3 = t4;
        }
        let total_ops = self.ops_completed();
        self.analyzer.observe(now + dt, total_ops);
        self.ns.core += ns_between(t3, Instant::now());
    }

    fn ops_completed(&self) -> u64 {
        self.jvm.ops_completed() + self.cache.as_ref().map_or(0, |c| c.ops_completed())
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

    fn attach_telemetry(&mut self, recorder: Recorder) {
        self.kernel.attach_telemetry(recorder.clone());
        self.port.attach_telemetry(recorder.clone());
        self.jvm.attach_telemetry(recorder);
    }

    fn install_faults(&mut self, plan: &FaultPlan) {
        // The benchmark's workloads plan no faults; a plan that did would
        // need the same lane wiring as `JavaVm`.
        assert!(
            !plan.is_active(),
            "the parts guest runs fault-free workloads only"
        );
    }
}
