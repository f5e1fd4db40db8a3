//! The JVM process: execution state machine tying mutator, heap and agent.
//!
//! [`JvmProcess`] is a guest application ([`guestos::GuestApp`]): each
//! simulation quantum it runs its mutator (allocating into Eden, rewriting
//! the Old-generation working set, completing operations), pauses for minor
//! GCs when Eden fills, and — when the JAVMM agent is loaded — executes the
//! enforced GC and safepoint hold of the migration protocol.
//!
//! Log-dirty faults are charged as *time debt*: every first write to a page
//! while migration is logging costs a shadow-paging fault, which displaces
//! mutator work. This is the mechanism behind the >20% throughput drop the
//! paper measures for derby under vanilla migration.

use crate::agent::{AgentDirective, JavmmAgent};
use crate::config::JvmConfig;
use crate::g1::G1Heap;
use crate::gc::GcKind;
use crate::heap::JvmHeap;
use crate::model::HeapModel;
use crate::mutator::Mutator;
use guestos::app::GuestApp;
use guestos::kernel::{GuestKernel, WriteOutcome};
use guestos::process::Pid;
use simkit::telemetry::SpanId;
use simkit::{
    DetRng, GcOverrun, PhaseShift, Recorder, SimDuration, SimTime, StallPoint, Subsystem,
};
use vmem::{PageClass, VaRange, Vaddr, PAGE_SIZE};

/// Cost of one log-dirty (shadow paging) fault.
const FAULT_COST: SimDuration = SimDuration::from_micros(3);

/// Largest un-interrupted mutator slice.
const MAX_SLICE: SimDuration = SimDuration::from_millis(10);

/// Safepoint latency for an allocation-triggered (synchronous) GC.
const ALLOC_SAFEPOINT: SimDuration = SimDuration::from_millis(2);

/// JIT recompilation keeps touching the code cache at a trickle.
const CODE_WRITE_RATE: f64 = 0.2e6;

/// Cadence of the dirty-rate telemetry series: one sample per 500 ms of
/// guest time, an exact multiple of every driver tick in the tree so the
/// sample instants are identical whatever quantum the host steps with.
const DIRTY_SAMPLE_CADENCE: SimDuration = SimDuration::from_millis(500);

/// Ring capacity of the dirty-rate series (64 s of history at the cadence).
const DIRTY_SAMPLE_CAPACITY: usize = 128;

#[derive(Debug, Clone, Copy)]
enum ExecState {
    /// Mutator running.
    Running,
    /// Threads draining to a safepoint before a GC.
    ReachingSafepoint {
        remaining: SimDuration,
        enforced: bool,
    },
    /// Collection in progress.
    InGc {
        remaining: SimDuration,
        enforced: bool,
    },
    /// Enforced GC done; threads held at the safepoint until VM resumption.
    Held,
}

/// Aggregate execution statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct JvmStats {
    /// Total guest pages written by this process.
    pub pages_written: u64,
    /// Total log-dirty faults taken.
    pub faults: u64,
    /// Total time paused for GC.
    pub gc_pause: SimDuration,
    /// Total time lost to log-dirty fault handling.
    pub fault_time: SimDuration,
}

/// A JVM running one Java application.
pub struct JvmProcess {
    heap: Box<dyn HeapModel>,
    mutator: Box<dyn Mutator>,
    agent: Option<JavmmAgent>,
    rng: DetRng,
    state: ExecState,
    enforced_pending: bool,
    ops: f64,
    old_carry: f64,
    code_carry: f64,
    fault_debt: SimDuration,
    stats: JvmStats,
    pending_shrunk: Vec<VaRange>,
    telemetry: Recorder,
    hold_span: Option<SpanId>,
    hold_since: Option<SimTime>,
    gc_overrun: Option<GcOverrun>,
    phase_shift: Option<PhaseShift>,
    phase_shift_elapsed: SimDuration,
    phase_shift_fired: bool,
    dirty_sample: Option<(SimTime, u64)>,
}

impl JvmProcess {
    /// Launches a JVM in the guest.
    ///
    /// When `assisted` is true the JAVMM TI agent is loaded and subscribes
    /// to the LKM's netlink group; otherwise the JVM ignores migration
    /// entirely (the vanilla-Xen baseline).
    pub fn launch(
        kernel: &mut GuestKernel,
        config: JvmConfig,
        mutator: Box<dyn Mutator>,
        assisted: bool,
        rng: DetRng,
    ) -> Self {
        let pid = kernel.spawn(format!("java-{}", mutator.name()));
        let heap = Box::new(JvmHeap::launch(kernel, pid, config));
        Self::with_heap(kernel, heap, mutator, assisted, rng)
    }

    /// Like [`JvmProcess::launch`] but with the G1-like region-based
    /// collector (§6): the Young generation is a set of non-contiguous
    /// regions of `region_bytes` each.
    pub fn launch_g1(
        kernel: &mut GuestKernel,
        config: JvmConfig,
        region_bytes: u64,
        mutator: Box<dyn Mutator>,
        assisted: bool,
        rng: DetRng,
    ) -> Self {
        let pid = kernel.spawn(format!("java-g1-{}", mutator.name()));
        let heap = Box::new(G1Heap::launch(kernel, pid, config, region_bytes));
        Self::with_heap(kernel, heap, mutator, assisted, rng)
    }

    fn with_heap(
        kernel: &mut GuestKernel,
        heap: Box<dyn HeapModel>,
        mutator: Box<dyn Mutator>,
        assisted: bool,
        rng: DetRng,
    ) -> Self {
        let pid = heap.pid();
        let agent = assisted.then(|| JavmmAgent::new(kernel.subscribe_netlink(pid)));
        Self {
            heap,
            mutator,
            agent,
            rng,
            state: ExecState::Running,
            enforced_pending: false,
            ops: 0.0,
            old_carry: 0.0,
            code_carry: 0.0,
            fault_debt: SimDuration::ZERO,
            stats: JvmStats::default(),
            pending_shrunk: Vec::new(),
            telemetry: Recorder::disabled(),
            hold_span: None,
            hold_since: None,
            gc_overrun: None,
            phase_shift: None,
            phase_shift_elapsed: SimDuration::ZERO,
            phase_shift_fired: false,
            dirty_sample: None,
        }
    }

    /// Stalls the JAVMM agent at the given protocol state (fault injection).
    /// No-op on an unassisted JVM.
    pub fn set_agent_stall(&mut self, stall: Option<StallPoint>) {
        if let Some(agent) = &mut self.agent {
            agent.set_stall(stall);
        }
    }

    /// Makes every *enforced* minor GC overrun by the given extra pause
    /// (fault injection: a heap in a pathological state).
    pub fn set_gc_overrun(&mut self, overrun: Option<GcOverrun>) {
        self.gc_overrun = overrun;
    }

    /// Arms a one-shot workload phase shift (fault injection): after
    /// `shift.after` of mutator running time the phase clock jumps forward
    /// by `shift.jump` in a single step. Re-installing an identical shift
    /// is idempotent — a shift that already fired stays fired — so faults
    /// can be (re)applied at migration start without double-firing.
    pub fn set_phase_shift(&mut self, shift: Option<PhaseShift>) {
        if self.phase_shift != shift {
            self.phase_shift_elapsed = SimDuration::ZERO;
            self.phase_shift_fired = false;
        }
        self.phase_shift = shift;
    }

    /// Attaches a telemetry recorder: GC pauses become `Gc` spans,
    /// safepoint holds become `Jvm` spans, heap occupancy is sampled as
    /// gauges, log-dirty faults are counted and the page-dirtying rate is
    /// sampled into a bounded [`simkit::telemetry::SampleSeries`]. The
    /// dirty-rate baseline resets here, so the series starts at the
    /// attach instant (migration begin) in every run shape.
    pub fn attach_telemetry(&mut self, recorder: Recorder) {
        self.telemetry = recorder;
        self.dirty_sample = None;
    }

    /// The heap (for profiling and tests).
    pub fn heap(&self) -> &dyn HeapModel {
        self.heap.as_ref()
    }

    /// Execution statistics.
    pub fn stats(&self) -> JvmStats {
        self.stats
    }

    /// The mutator's current heap-usage profile — what a JVMTI agent
    /// would report if an external scheduler asked "how hard are you
    /// dirtying right now?". Phased mutators answer for the phase they
    /// are in at this instant.
    pub fn mutator_profile(&mut self) -> crate::mutator::MutatorProfile {
        self.mutator.profile()
    }

    /// Returns `true` while Java threads are held at the safepoint by the
    /// agent (suspension-ready, pre-resume).
    pub fn is_held(&self) -> bool {
        matches!(self.state, ExecState::Held)
    }

    fn charge(&mut self, out: WriteOutcome) {
        self.stats.pages_written += out.pages;
        self.stats.faults += out.faults;
        let penalty = FAULT_COST * out.faults;
        self.fault_debt += penalty;
        self.stats.fault_time += penalty;
        if out.faults > 0 {
            self.telemetry
                .counter_add(Subsystem::Jvm, "log_dirty_faults", out.faults);
        }
    }

    fn start_safepoint(&mut self, now: SimTime, enforced: bool) {
        let profile = self.mutator.profile();
        let wait = if enforced {
            // The enforced GC arrives asynchronously: threads finish their
            // current work before polling the safepoint.
            SimDuration::from_secs_f64(profile.safepoint_max.as_secs_f64() * self.rng.next_f64())
        } else {
            ALLOC_SAFEPOINT
        };
        self.telemetry.record_span(
            now,
            Subsystem::Jvm,
            "safepoint_reach",
            wait,
            vec![("enforced", enforced.into())],
        );
        self.telemetry
            .hist_dur(Subsystem::Jvm, "safepoint_reach_ns", wait);
        self.state = ExecState::ReachingSafepoint {
            remaining: wait,
            enforced,
        };
    }

    fn run_gc(&mut self, now: SimTime, kernel: &mut GuestKernel, enforced: bool) {
        let profile = self.mutator.profile();
        let kind = if enforced {
            GcKind::EnforcedMinor
        } else {
            GcKind::Minor
        };
        let (rec, writes) = self
            .heap
            .perform_minor_gc(kernel, &mut self.rng, &profile, now, kind);
        self.charge(writes);
        let mut duration = rec.duration;
        if let (true, Some(o)) = (enforced, self.gc_overrun) {
            // Fault injection: the enforced collection overruns its budget,
            // and the GC log records the pause the JVM really took.
            duration += o.extra;
            self.heap.gc_log_mut().extend_last(o.extra);
        }
        self.telemetry.record_span(
            now,
            Subsystem::Gc,
            if enforced { "enforced_gc" } else { "minor_gc" },
            duration,
            vec![
                ("eden_used_before", rec.eden_used_before.into()),
                ("live_copied", rec.live_copied.into()),
                ("promoted", rec.promoted.into()),
                ("garbage_collected", rec.garbage_collected.into()),
            ],
        );
        self.telemetry.hist_dur(
            Subsystem::Gc,
            if enforced {
                "enforced_gc_pause_ns"
            } else {
                "minor_gc_pause_ns"
            },
            duration,
        );
        // Post-GC heap occupancy, sampled at the pause start instant.
        self.telemetry.gauge(
            now,
            Subsystem::Gc,
            "young_used_bytes",
            self.heap.young_used() as f64,
        );
        self.telemetry.gauge(
            now,
            Subsystem::Gc,
            "old_used_bytes",
            self.heap.old_used() as f64,
        );
        self.pending_shrunk = rec.shrunk.clone();
        self.state = ExecState::InGc {
            remaining: duration,
            enforced,
        };
    }

    fn finish_gc(&mut self, now: SimTime, enforced: bool) {
        if let Some(agent) = &mut self.agent {
            if !self.pending_shrunk.is_empty() {
                agent.on_young_shrunk(now, &self.pending_shrunk);
            }
            if enforced {
                agent.on_enforced_gc_finished(now, self.heap.as_ref());
                self.state = ExecState::Held;
                self.hold_span =
                    Some(
                        self.telemetry
                            .begin_span(now, Subsystem::Jvm, "safepoint_hold", vec![]),
                    );
                self.hold_since = Some(now);
                self.pending_shrunk.clear();
                return;
            }
        }
        self.pending_shrunk.clear();
        self.state = ExecState::Running;
    }

    /// Runs the mutator for `slice`, returning the time actually consumed.
    fn run_mutator(&mut self, kernel: &mut GuestKernel, slice: SimDuration) -> SimDuration {
        self.mutator.advance_time(slice);
        if let Some(shift) = self.phase_shift {
            if !self.phase_shift_fired {
                self.phase_shift_elapsed += slice;
                if self.phase_shift_elapsed >= shift.after {
                    // One-shot: the workload's phase clock jumps forward.
                    self.mutator.advance_time(shift.jump);
                    self.phase_shift_fired = true;
                }
            }
        }
        let profile = self.mutator.profile();
        let secs = slice.as_secs_f64();

        let headroom = self.heap.eden_headroom();
        let alloc = ((profile.alloc_rate * secs) as u64).min(headroom);
        if alloc > 0 {
            let out = self.heap.bump_eden(kernel, alloc);
            self.charge(out);
        }

        let old_f = profile.old_write_rate * secs + self.old_carry;
        let old_bytes = old_f as u64;
        self.old_carry = old_f - old_bytes as f64;
        if old_bytes > 0 {
            let out =
                self.heap
                    .write_old_ws(kernel, &mut self.rng, old_bytes, profile.old_ws_bytes);
            self.charge(out);
        }

        let code_f = CODE_WRITE_RATE * secs + self.code_carry;
        let code_pages = (code_f / PAGE_SIZE as f64) as u64;
        self.code_carry = code_f - code_pages as f64 * PAGE_SIZE as f64;
        let span = self.heap.codecache_bytes() / PAGE_SIZE;
        let pages: Vec<u64> = (0..code_pages).map(|_| self.rng.below(span)).collect();
        let base = Vaddr(crate::config::va::CODE_BASE);
        let out = kernel.write_pages(self.heap.pid(), base, &pages, PageClass::Code);
        self.charge(out);

        self.ops += profile.ops_per_sec * secs;
        slice
    }
}

impl GuestApp for JvmProcess {
    fn pid(&self) -> Pid {
        self.heap.pid()
    }

    fn advance(&mut self, now: SimTime, dt: SimDuration, kernel: &mut GuestKernel) {
        // Feed the dirty-rate series: a pure read of the write counters,
        // sampled on a fixed guest-time cadence, so it cannot perturb the
        // simulation however often the host steps us.
        match self.dirty_sample {
            None => self.dirty_sample = Some((now, self.stats.pages_written)),
            Some((since, pages)) if now.saturating_since(since) >= DIRTY_SAMPLE_CADENCE => {
                let window = now.saturating_since(since);
                let rate = (self.stats.pages_written - pages) as f64 / window.as_secs_f64();
                self.telemetry.series_push(
                    Subsystem::Jvm,
                    "dirty_rate_pps",
                    DIRTY_SAMPLE_CADENCE.as_nanos(),
                    DIRTY_SAMPLE_CAPACITY,
                    now,
                    rate,
                );
                self.dirty_sample = Some((now, self.stats.pages_written));
            }
            Some(_) => {}
        }

        // Service the agent first: queries are answered promptly and an
        // enforced-GC request is picked up at the next quantum boundary. A
        // request that arrives while the enforced GC is pending, running or
        // holding the threads is a duplicate (the LKM re-prompts every
        // application when the daemon retries) and is ignored: one
        // migration, one enforced GC.
        if let Some(agent) = &mut self.agent {
            let enforced_underway = matches!(
                self.state,
                ExecState::ReachingSafepoint { enforced: true, .. }
                    | ExecState::InGc { enforced: true, .. }
                    | ExecState::Held
            );
            if agent.poll(now, self.heap.as_ref()) == AgentDirective::EnforceGc
                && !enforced_underway
            {
                self.enforced_pending = true;
            }
            if matches!(self.state, ExecState::Held) && !agent.is_holding() {
                self.state = ExecState::Running;
                if let Some(id) = self.hold_span.take() {
                    self.telemetry.end_span(now, id, vec![]);
                }
                if let Some(since) = self.hold_since.take() {
                    self.telemetry.hist_dur(
                        Subsystem::Jvm,
                        "safepoint_hold_ns",
                        now.saturating_since(since),
                    );
                }
            }
        }

        let mut t = now;
        let end = now + dt;
        while t < end {
            let remaining = end - t;
            match self.state {
                ExecState::Running => {
                    if self.enforced_pending {
                        self.enforced_pending = false;
                        self.start_safepoint(t, true);
                        continue;
                    }
                    // Pay outstanding fault debt before doing new work.
                    if !self.fault_debt.is_zero() {
                        let pay = self.fault_debt.min(remaining);
                        self.fault_debt -= pay;
                        t += pay;
                        continue;
                    }
                    if self.heap.eden_headroom() < PAGE_SIZE {
                        self.start_safepoint(t, false);
                        continue;
                    }
                    let profile = self.mutator.profile();
                    let to_fill = if profile.alloc_rate > 0.0 {
                        SimDuration::from_secs_f64(
                            self.heap.eden_headroom() as f64 / profile.alloc_rate,
                        )
                    } else {
                        SimDuration::MAX
                    };
                    let slice = remaining
                        .min(MAX_SLICE)
                        .min(to_fill.max(SimDuration::from_micros(10)));
                    let used = self.run_mutator(kernel, slice);
                    t += used;
                }
                ExecState::ReachingSafepoint {
                    remaining: sp,
                    enforced,
                } => {
                    let step = sp.min(remaining);
                    t += step;
                    let left = sp - step;
                    if left.is_zero() {
                        self.run_gc(t, kernel, enforced);
                    } else {
                        self.state = ExecState::ReachingSafepoint {
                            remaining: left,
                            enforced,
                        };
                    }
                }
                ExecState::InGc {
                    remaining: gc,
                    enforced,
                } => {
                    let step = gc.min(remaining);
                    t += step;
                    self.stats.gc_pause += step;
                    let left = gc - step;
                    if left.is_zero() {
                        self.finish_gc(t, enforced);
                    } else {
                        self.state = ExecState::InGc {
                            remaining: left,
                            enforced,
                        };
                    }
                }
                ExecState::Held => {
                    // Threads held at the safepoint: time passes, no work.
                    t = end;
                }
            }
        }
    }

    fn ops_completed(&self) -> u64 {
        self.ops as u64
    }
}

impl core::fmt::Debug for JvmProcess {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("JvmProcess")
            .field("pid", &self.heap.pid())
            .field("workload", &self.mutator.name())
            .field("assisted", &self.agent.is_some())
            .field("state", &self.state)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutator::{MutatorProfile, SteadyMutator};
    use guestos::kernel::GuestOsConfig;
    use simkit::units::MIB;
    use vmem::VmSpec;

    fn boot() -> GuestKernel {
        GuestKernel::boot(
            GuestOsConfig {
                spec: VmSpec::new(1024 * MIB, 2),
                kernel_bytes: 16 * MIB,
                pagecache_bytes: 16 * MIB,
                kernel_dirty_rate: 0.0,
                pagecache_dirty_rate: 0.0,
            },
            DetRng::new(5),
        )
    }

    fn run_for(
        jvm: &mut JvmProcess,
        kernel: &mut GuestKernel,
        start: SimTime,
        total: SimDuration,
    ) -> SimTime {
        let tick = SimDuration::from_millis(1);
        let mut now = start;
        let end = start + total;
        while now < end {
            jvm.advance(now, tick, kernel);
            now += tick;
        }
        now
    }

    #[test]
    fn allocation_triggers_gcs_and_ops_flow() {
        let mut kernel = boot();
        let profile = MutatorProfile {
            alloc_rate: 100e6,
            ops_per_sec: 50.0,
            ..MutatorProfile::quiet()
        };
        let mut jvm = JvmProcess::launch(
            &mut kernel,
            JvmConfig::with_young_max(128 * MIB),
            Box::new(SteadyMutator::new("t", profile)),
            false,
            DetRng::new(1),
        );
        run_for(
            &mut jvm,
            &mut kernel,
            SimTime::ZERO,
            SimDuration::from_secs(10),
        );
        let minors = jvm.heap().gc_log().count(GcKind::Minor);
        assert!(
            minors >= 2,
            "100 MB/s into a ≤128 MiB young gen must GC, got {minors}"
        );
        let ops = jvm.ops_completed();
        // 10 s at 50 ops/s minus GC pauses.
        assert!((300..=500).contains(&ops), "ops = {ops}");
    }

    #[test]
    fn young_generation_grows_under_pressure() {
        let mut kernel = boot();
        let profile = MutatorProfile {
            alloc_rate: 150e6,
            ..MutatorProfile::quiet()
        };
        let mut jvm = JvmProcess::launch(
            &mut kernel,
            JvmConfig::with_young_max(256 * MIB),
            Box::new(SteadyMutator::new("t", profile)),
            false,
            DetRng::new(1),
        );
        assert!(jvm.heap().young_committed() < 256 * MIB);
        run_for(
            &mut jvm,
            &mut kernel,
            SimTime::ZERO,
            SimDuration::from_secs(20),
        );
        assert_eq!(jvm.heap().young_committed(), 256 * MIB);
    }

    #[test]
    fn fault_debt_slows_throughput_under_logging() {
        let profile = MutatorProfile {
            alloc_rate: 200e6,
            ops_per_sec: 1000.0,
            ..MutatorProfile::quiet()
        };
        let run = |logging: bool| {
            let mut kernel = boot();
            let mut jvm = JvmProcess::launch(
                &mut kernel,
                JvmConfig::with_young_max(256 * MIB),
                Box::new(SteadyMutator::new("t", profile)),
                false,
                DetRng::new(1),
            );
            // Warm up so the young gen reaches steady state.
            let mut now = run_for(
                &mut jvm,
                &mut kernel,
                SimTime::ZERO,
                SimDuration::from_secs(15),
            );
            if logging {
                kernel.memory_mut().dirty_log_mut().enable();
            }
            let before = jvm.ops_completed();
            // A migration daemon cleans the dirty log every iteration, which
            // re-arms the log-dirty faults; emulate ~0.5 s iterations.
            for _ in 0..20 {
                let t0 = run_for(&mut jvm, &mut kernel, now, SimDuration::from_millis(500));
                now = t0;
                if logging {
                    kernel.memory_mut().dirty_log_mut().read_and_clear();
                }
            }
            jvm.ops_completed() - before
        };
        let clean = run(false);
        let logged = run(true);
        assert!(
            (logged as f64) < clean as f64 * 0.95,
            "log-dirty faults must cost throughput: {logged} vs {clean}"
        );
        assert!(
            (logged as f64) > clean as f64 * 0.5,
            "but not absurdly: {logged} vs {clean}"
        );
    }

    #[test]
    fn unassisted_jvm_has_no_agent() {
        let mut kernel = boot();
        let jvm = JvmProcess::launch(
            &mut kernel,
            JvmConfig::with_young_max(64 * MIB),
            Box::new(SteadyMutator::new("t", MutatorProfile::quiet())),
            false,
            DetRng::new(1),
        );
        assert!(!jvm.is_held());
    }
}
