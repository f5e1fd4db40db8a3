//! The iterative pre-copy migration engine.
//!
//! Implements Xen's `xc_domain_save` behaviour plus the paper's
//! application-assisted extension:
//!
//! * **Iteration 1** sends every VM page; **iteration k** sends the pages
//!   dirtied during iteration k-1 (the hypervisor's log-dirty bitmap is
//!   read-and-cleared at each iteration boundary).
//! * A page already re-dirtied when the scanner reaches it is **skipped** —
//!   transferring it now would be redundant (Xen's heuristic).
//! * With assistance, the daemon additionally consults the LKM's
//!   **transfer bitmap** and skips any page whose bit is cleared (§3.3.3).
//! * When the stop policy triggers, a vanilla migration pauses the VM
//!   immediately; an assisted migration first notifies the LKM
//!   (`EnteringLastIter`) and keeps transferring — generating little
//!   traffic — until the LKM reports `ReadyToSuspend` (the paper's Figure
//!   8b "second-last iteration"), then pauses.
//! * The **stop-and-copy** sends every remaining dirty page that the final
//!   transfer bitmap allows, then the VM resumes at the destination.
//!
//! Guest execution and page transfer are co-simulated in small quanta: each
//! quantum the engine sends a link-budget's worth of pages and advances the
//! guest, so dirtying races transfer exactly as on real hardware.
//!
//! # Coordination timeouts and graceful degradation
//!
//! Every daemon→LKM handshake is guarded by a deadline from
//! [`CoordPolicy`](crate::config::CoordPolicy): `MigrationBegin` must be
//! acknowledged (`BeginAck`) and `EnteringLastIter` must eventually be
//! answered with `ReadyToSuspend`. Both messages are idempotent (the LKM
//! gates on sequence numbers), so expired deadlines trigger bounded resends
//! with exponential backoff. When the retry budget runs out the engine
//! either **degrades**: it sends `AbortAssist`, abandons skip-over areas,
//! stops consulting the transfer bitmap, re-sends every page it ever
//! skipped on transfer-bit grounds, and completes as vanilla Xen pre-copy
//! (reported as [`MigrationOutcome::DegradedVanilla`]) — or fails with
//! [`MigrateError::CoordTimeout`], per the configured
//! [`FallbackPolicy`](crate::config::FallbackPolicy).
//!
//! # Scan pipeline
//!
//! The scanner is word-granular: all three inputs — the iteration snapshot,
//! the hypervisor dirty log and the LKM transfer bitmap — are dense
//! `u64`-word bitmaps, and the guest only runs *between* quanta, so within
//! a quantum the sendable set is exactly `to_send & transfer & !dirty`
//! computed 64 pages at a time ([`WordClass::of`], applied to each word
//! where the walk reads it). Skip classification and the per-class
//! traffic/CPU accounting are batched per word run; only the pages actually
//! transferred are visited individually.

use crate::assist::delta::{DeltaOutcome, DELTA_CPU_PER_PAGE};
use crate::assist::ColdState;
use crate::config::{CompressionPolicy, FallbackPolicy, MigrationConfig};
use crate::destination::DestinationVm;
use crate::error::{CoordPhase, MigrateError, MigrationOutcome};
use crate::report::{DowntimeBreakdown, EngineEvent, IterationStats, MigrationReport, StopReason};
use crate::vmhost::MigratableVm;
use guestos::coord::CoordPayload;
use guestos::lkm::DaemonPort;
use netsim::{CompressionMethod, Link, PAGE_HEADER_BYTES};
use simkit::units::Bandwidth;
use simkit::{FaultKind, LinkDegrade, Recorder, SimClock, SimDuration, SimTime, Subsystem};
use vmem::{Bitmap, PageClass, Pfn, PAGE_SIZE};

/// The migration engine.
///
/// # Examples
///
/// ```no_run
/// use migrate::config::MigrationConfig;
/// use migrate::precopy::PrecopyEngine;
/// use migrate::vmhost::MigratableVm;
/// use simkit::SimClock;
///
/// fn migrate_it(vm: &mut dyn MigratableVm) {
///     let mut clock = SimClock::new();
///     let engine = PrecopyEngine::new(MigrationConfig::javmm_default());
///     let report = engine.migrate(vm, &mut clock).expect("migration failed");
///     assert!(report.verification.is_correct());
///     println!(
///         "{} iterations, {} bytes, downtime {}",
///         report.iteration_count(),
///         report.total_bytes,
///         report.downtime.workload_downtime(),
///     );
/// }
/// ```
#[derive(Debug, Clone)]
pub struct PrecopyEngine {
    config: MigrationConfig,
}

/// Coordination-deadline bookkeeping for the two guarded handshakes.
struct CoordTrack {
    begin_acked: bool,
    begin_deadline: Option<SimTime>,
    begin_wait: SimDuration,
    begin_attempts: u32,
    /// When the (latest) `MigrationBegin` went out; anchors the
    /// begin-ack round-trip histogram.
    begin_sent_at: SimTime,
    ready_deadline: Option<SimTime>,
    ready_wait: SimDuration,
    ready_attempts: u32,
    ready_since: Option<SimTime>,
}

struct RunState {
    link: Link,
    dest: DestinationVm,
    by_class: crate::report::TrafficByClass,
    timeline: simkit::trace::Trace<EngineEvent>,
    ever_dirtied: Bitmap,
    /// Pages ever skipped because of a cleared transfer bit; re-examined at
    /// the stop-and-copy under the *final* bitmap so nothing live is lost.
    deferred_skips: Bitmap,
    cpu: SimDuration,
    wire_bytes: u64,
    /// Pages examined by the word-granular scanner (sends and skips alike);
    /// flushed to the `engine/pages_scanned` counter at snapshot time so
    /// digests can derive scan throughput.
    scan_pages: u64,
    ready: Option<(SimDuration, u32)>,
    recorder: Recorder,
    /// Whether the assisted protocol is still live. Starts as
    /// `config.assisted`; flips to `false` on degradation, after which the
    /// engine behaves exactly like vanilla pre-copy.
    assist: bool,
    /// The fault that degraded the run, if any.
    degraded: Option<FaultKind>,
    /// Cold-page assist state; `None` unless the config enables it, so the
    /// zero-config path allocates and records nothing.
    cold: Option<ColdState>,
    coord: CoordTrack,
    t0: SimTime,
    /// Pending link-degrade fault, consumed when its time arrives.
    link_plan: Option<LinkDegrade>,
    base_bandwidth: Bandwidth,
}

/// One snapshot word, classified: the three disjoint masks the walk needs.
/// `sends | skips_transfer | skips_dirty` reassembles the snapshot word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordClass {
    /// `ts & t & !d` — pages to put on the wire.
    pub sends: u64,
    /// `ts & !t` — pages the LKM's transfer bitmap vetoes (deferred skips).
    pub skips_transfer: u64,
    /// `ts & t & d` — pages already re-dirtied (Xen's redundancy skip).
    pub skips_dirty: u64,
}

impl WordClass {
    /// Classifies snapshot word `ts` against dirty-log word `d` and LKM
    /// transfer word `t`. `t: None` — a vanilla or degraded run, which
    /// consults no transfer bitmap — behaves as all-ones.
    pub fn of(ts: u64, d: u64, t: Option<u64>) -> Self {
        let t = t.unwrap_or(u64::MAX);
        WordClass {
            sends: ts & t & !d,
            skips_transfer: ts & !t,
            skips_dirty: ts & t & d,
        }
    }
}

/// Running totals of one live iteration, shared by its scan quanta.
#[derive(Debug, Default)]
struct IterTally {
    cursor: u64,
    sent: u64,
    bytes: u64,
    skip_dirty: u64,
    skip_transfer: u64,
}

/// Why a scan quantum stopped consuming the snapshot.
enum ScanExit {
    /// Link or CPU budget exhausted; the guest gets its execution slice.
    Budget,
    /// No set bit at or after the cursor: the snapshot is drained (refresh
    /// in waiting mode, otherwise the iteration is over).
    Drained,
}

impl PrecopyEngine {
    /// Creates an engine.
    pub fn new(config: MigrationConfig) -> Self {
        Self { config }
    }

    /// Returns the configuration.
    pub fn config(&self) -> &MigrationConfig {
        &self.config
    }

    /// Migrates `vm`, advancing `clock` through the whole operation.
    ///
    /// # Errors
    ///
    /// [`MigrateError::MissingLkm`] if assisted migration is requested but
    /// the guest has no LKM; [`MigrateError::Config`] for an invalid
    /// configuration; [`MigrateError::LinkDown`] if a fault kills the link;
    /// [`MigrateError::CoordTimeout`] when coordination fails for good
    /// under [`FallbackPolicy::Fail`].
    pub fn migrate(
        &self,
        vm: &mut dyn MigratableVm,
        clock: &mut SimClock,
    ) -> Result<MigrationReport, MigrateError> {
        self.migrate_recorded(vm, clock, Recorder::disabled())
    }

    /// Like [`PrecopyEngine::migrate`], but with a cross-layer flight
    /// recorder attached: the engine threads `recorder` through the guest
    /// stack (LKM, JVM) and the network link, records its own phase spans
    /// and events, and returns the frozen snapshot in
    /// [`MigrationReport::telemetry`]. The downtime breakdown is derived
    /// from the recorded spans where available.
    ///
    /// Implemented as [`PrecopyEngine::begin`] plus a [`MigrationSession::step`]
    /// loop; a caller that needs to interleave several migrations (the fleet
    /// scheduler) drives the session directly instead.
    pub fn migrate_recorded(
        &self,
        vm: &mut dyn MigratableVm,
        clock: &mut SimClock,
        recorder: Recorder,
    ) -> Result<MigrationReport, MigrateError> {
        let mut session = self.begin(vm, clock, recorder)?;
        loop {
            if let SessionStep::Complete(report) = session.step(vm, clock)? {
                return Ok(*report);
            }
        }
    }

    /// Starts a migration without running it: validates the configuration,
    /// attaches telemetry and faults, enables the log-dirty mode and sends
    /// `MigrationBegin` — everything [`PrecopyEngine::migrate_recorded`]
    /// does before its first live iteration — and returns a resumable
    /// [`MigrationSession`].
    ///
    /// Driving the session with [`MigrationSession::step`] until it reports
    /// [`SessionStep::Complete`] is *exactly* equivalent to calling
    /// [`PrecopyEngine::migrate_recorded`]: the split is pure code motion,
    /// locked by the `precopy_equivalence` goldens. Between steps a caller
    /// may re-rate the migration link ([`MigrationSession::set_bandwidth`]),
    /// which is what lets the fleet scheduler arbitrate one shared uplink
    /// across several concurrent sessions.
    ///
    /// # Errors
    ///
    /// Same as [`PrecopyEngine::migrate`].
    pub fn begin(
        &self,
        vm: &mut dyn MigratableVm,
        clock: &mut SimClock,
        recorder: Recorder,
    ) -> Result<MigrationSession, MigrateError> {
        self.config.validate()?;
        let t0 = clock.now();
        let npages = vm.kernel().memory().page_count();
        vm.attach_telemetry(recorder.clone());
        vm.install_faults(&self.config.faults);
        let port = if self.config.assisted {
            Some(vm.daemon_port().ok_or(MigrateError::MissingLkm)?)
        } else {
            None
        };

        let mut link = Link::new(self.config.bandwidth);
        link.attach_telemetry(recorder.clone());
        let mut state = RunState {
            link,
            dest: DestinationVm::new(npages),
            by_class: crate::report::TrafficByClass::default(),
            timeline: simkit::trace::Trace::new(),
            ever_dirtied: Bitmap::new(npages),
            deferred_skips: Bitmap::new(npages),
            cpu: SimDuration::ZERO,
            wire_bytes: 0,
            scan_pages: 0,
            ready: None,
            recorder,
            assist: self.config.assisted,
            degraded: None,
            cold: None,
            coord: CoordTrack {
                begin_acked: !self.config.assisted,
                begin_deadline: None,
                begin_wait: self.config.coord.begin_ack_timeout,
                begin_attempts: 0,
                begin_sent_at: t0,
                ready_deadline: None,
                ready_wait: self.config.coord.ready_timeout,
                ready_attempts: 0,
                ready_since: None,
            },
            t0,
            link_plan: self.config.faults.link,
            base_bandwidth: self.config.bandwidth,
        };

        vm.kernel_mut().memory_mut().dirty_log_mut().enable();
        state.timeline.push(clock.now(), EngineEvent::Begin);
        state.recorder.instant(
            clock.now(),
            Subsystem::Engine,
            "begin",
            vec![
                ("assisted", self.config.assisted.into()),
                ("npages", npages.into()),
            ],
        );
        if let Some(port) = &port {
            port.send(clock.now(), CoordPayload::MigrationBegin);
            state.coord.begin_deadline = Some(t0 + self.config.coord.begin_ack_timeout);
            if self.config.cold.enabled() {
                state.cold = Some(ColdState::new(npages, &self.config.cold));
                port.send(clock.now(), CoordPayload::QueryColdMap);
                state.recorder.instant(
                    clock.now(),
                    Subsystem::Engine,
                    "query_cold_map",
                    vec![
                        ("defer", self.config.cold.defer.into()),
                        ("delta", self.config.cold.delta.into()),
                    ],
                );
            }
        }

        Ok(MigrationSession {
            engine: self.clone(),
            state,
            port,
            npages,
            iterations: Vec::new(),
            to_send: Bitmap::new_all_set(npages),
            t_enter_last: None,
            stop_reason: None,
            finished: false,
        })
    }
}

/// What one [`MigrationSession::step`] call did.
#[derive(Debug)]
pub enum SessionStep {
    /// One live pre-copy iteration ran; the migration continues. The
    /// caller may inspect [`MigrationSession::iterations`] and re-rate the
    /// link before the next step.
    Yielded,
    /// The migration finished this step (stop-and-copy, resume and
    /// verification included); the session is spent.
    Complete(Box<MigrationReport>),
}

/// An in-flight migration that yields control at every iteration boundary.
///
/// Produced by [`PrecopyEngine::begin`]; each [`MigrationSession::step`]
/// runs exactly one live pre-copy iteration (plus the stop-and-copy epilogue
/// on the final one). The session owns the migration link, so a scheduler
/// co-simulating several VMs can call [`MigrationSession::set_bandwidth`]
/// between steps to re-split a shared uplink — the new rate takes effect at
/// the next iteration's first quantum, which is the conservative
/// iteration-granular arbitration the fleet model documents.
pub struct MigrationSession {
    engine: PrecopyEngine,
    state: RunState,
    port: Option<DaemonPort>,
    npages: u64,
    iterations: Vec<IterationStats>,
    to_send: Bitmap,
    t_enter_last: Option<SimTime>,
    stop_reason: Option<StopReason>,
    finished: bool,
}

impl MigrationSession {
    /// When the migration started (the clock at [`PrecopyEngine::begin`]).
    pub fn started_at(&self) -> SimTime {
        self.state.t0
    }

    /// Live iterations completed so far.
    pub fn iterations(&self) -> &[IterationStats] {
        &self.iterations
    }

    /// Wire bytes put on the link so far.
    pub fn wire_bytes(&self) -> u64 {
        self.state.wire_bytes
    }

    /// Total guest pages the migration covers (the first iteration's
    /// transfer set before any skips).
    pub fn npages(&self) -> u64 {
        self.npages
    }

    /// Whether the engine has notified the LKM and is waiting for
    /// `ReadyToSuspend` (the paper's "second-last iteration").
    pub fn is_waiting(&self) -> bool {
        self.t_enter_last.is_some()
    }

    /// Pages queued for the next live iteration that would actually ship:
    /// the dirty snapshot taken at the end of the last [`Self::step`],
    /// intersected with the LKM's transfer bitmap when assistance is
    /// active. This is the session's own view of its remaining transfer
    /// set — the number an ETA projection should drain, as opposed to the
    /// raw dirtied count, which includes pages the assisted protocol will
    /// skip.
    pub fn pending_transferable_pages(&self, vm: &dyn MigratableVm) -> u64 {
        // Cold pages split out of the snapshot still have to ship (deferred
        // bulk stream or stop-and-copy), so the backlog counts as pending.
        let cold_backlog = self
            .state
            .cold
            .as_ref()
            .map_or(0, |c| c.pending.count_set());
        if !self.state.assist {
            return self.to_send.count_set() + cold_backlog;
        }
        match vm.kernel().lkm() {
            Some(lkm) => {
                let tb = lkm.transfer_bitmap().as_bitmap();
                self.to_send.count_and(tb) + cold_backlog
            }
            None => self.to_send.count_set() + cold_backlog,
        }
    }

    /// Re-rates the migration link. Takes effect at the next step; also
    /// re-anchors the base bandwidth that scheduled link-degrade faults
    /// scale from.
    pub fn set_bandwidth(&mut self, bandwidth: Bandwidth) {
        self.state.link.set_bandwidth(bandwidth);
        self.state.base_bandwidth = bandwidth;
    }

    /// Runs one live pre-copy iteration; on the final one, runs the
    /// stop-and-copy epilogue too and returns the finished report.
    ///
    /// # Panics
    ///
    /// If called again after [`SessionStep::Complete`] was returned.
    ///
    /// # Errors
    ///
    /// Same as [`PrecopyEngine::migrate`].
    pub fn step(
        &mut self,
        vm: &mut dyn MigratableVm,
        clock: &mut SimClock,
    ) -> Result<SessionStep, MigrateError> {
        assert!(
            !self.finished,
            "step called on a completed MigrationSession"
        );
        {
            let index = self.iterations.len() as u32 + 1;
            let waiting = self.t_enter_last.is_some();
            self.state
                .timeline
                .push(clock.now(), EngineEvent::IterationStart { index });
            self.state.recorder.instant(
                clock.now(),
                Subsystem::Engine,
                "iteration_start",
                vec![("index", index.into()), ("waiting", waiting.into())],
            );
            let span = self.state.recorder.begin_span(
                clock.now(),
                Subsystem::Engine,
                "precopy_iteration",
                vec![("index", index.into()), ("waiting", waiting.into())],
            );
            let stats = self.engine.run_live_iteration(
                vm,
                clock,
                &mut self.state,
                &mut self.to_send,
                index,
                self.port.as_ref(),
                waiting,
            )?;
            self.state.recorder.end_span(
                clock.now(),
                span,
                vec![
                    ("pages_sent", stats.pages_sent.into()),
                    ("bytes_sent", stats.bytes_sent.into()),
                    ("skip_dirty", stats.pages_skipped_dirty.into()),
                    ("skip_transfer", stats.pages_skipped_transfer.into()),
                ],
            );
            self.state.recorder.gauge(
                clock.now(),
                Subsystem::Workload,
                "ops_completed",
                vm.ops_completed() as f64,
            );
            self.state.recorder.hist_dur(
                Subsystem::Engine,
                "iteration_duration_ns",
                stats.duration,
            );
            self.state
                .recorder
                .hist(Subsystem::Engine, "iteration_pages_sent", stats.pages_sent);
            self.state.recorder.hist(
                Subsystem::Engine,
                "iteration_transfer_pps",
                stats.transfer_rate_pps() as u64,
            );
            self.state.recorder.hist(
                Subsystem::Engine,
                "iteration_dirty_pages",
                stats.pages_dirtied_during,
            );
            // Per-iteration dirty counts as an ordered series (cadence 0:
            // iteration-driven, not clocked) — the engine-side feed of the
            // workload observatory.
            self.state.recorder.series_push(
                Subsystem::Engine,
                "iteration_dirty_pages",
                0,
                128,
                clock.now(),
                stats.pages_dirtied_during as f64,
            );
            self.iterations.push(stats);

            if let Some((fu, stragglers)) = self.state.ready {
                self.state
                    .timeline
                    .push(clock.now(), EngineEvent::ReadyReceived);
                self.state.recorder.instant(
                    clock.now(),
                    Subsystem::Engine,
                    "ready_received",
                    vec![
                        ("final_update", fu.into()),
                        ("stragglers", stragglers.into()),
                    ],
                );
                if stragglers > 0 && self.engine.config.coord.degrade_on_stragglers {
                    // The LKM gave up on some assistants; instead of trusting
                    // its forcible un-skip, abandon assistance wholesale.
                    self.engine.degrade(
                        &mut self.state,
                        self.port.as_ref(),
                        clock.now(),
                        FaultKind::AgentStraggler,
                    );
                }
                return self.finish(vm, clock);
            }
            if waiting && !self.state.assist {
                // Degraded while waiting for readiness: the stop policy
                // already fired, so go straight to the stop-and-copy.
                return self.finish(vm, clock);
            }
            if !waiting {
                let pending = self.engine.pending_transferable(vm, self.state.assist);
                let ram = self.npages * PAGE_SIZE;
                let stop = if self.iterations.len() as u32 >= self.engine.config.stop.max_iterations
                {
                    Some(StopReason::MaxIterations)
                } else if self.state.wire_bytes as f64
                    > self.engine.config.stop.max_factor * ram as f64
                {
                    Some(StopReason::TrafficCap)
                } else if pending <= self.engine.config.stop.dirty_threshold_pages
                    && self
                        .state
                        .cold
                        .as_ref()
                        .is_none_or(|c| c.pending.all_clear())
                {
                    // Convergence also requires the cold bulk stream to have
                    // drained: deferred pages are still unsent state.
                    Some(StopReason::DirtyThreshold)
                } else {
                    None
                };
                if let Some(reason) = stop {
                    self.stop_reason = Some(reason);
                    self.state
                        .timeline
                        .push(clock.now(), EngineEvent::StopCondition(reason));
                    self.state.recorder.instant(
                        clock.now(),
                        Subsystem::Engine,
                        "stop_condition",
                        vec![("reason", format!("{reason:?}").into())],
                    );
                    match self.port.clone() {
                        Some(port) if self.state.assist => {
                            port.send(clock.now(), CoordPayload::EnteringLastIter);
                            self.state
                                .timeline
                                .push(clock.now(), EngineEvent::NotifiedLkm);
                            self.state.recorder.instant(
                                clock.now(),
                                Subsystem::Engine,
                                "notified_lkm",
                                vec![],
                            );
                            self.t_enter_last = Some(clock.now());
                            self.state.coord.ready_since = Some(clock.now());
                            self.state.coord.ready_deadline =
                                Some(clock.now() + self.engine.config.coord.ready_timeout);
                        }
                        _ => return self.finish(vm, clock),
                    }
                }
            }

            // Next iteration transfers what was dirtied during this one.
            let snapshot = vm
                .kernel_mut()
                .memory_mut()
                .dirty_log_mut()
                .read_and_clear();
            self.state.ever_dirtied.union_with(&snapshot);
            // Pages of the previous set never reached (or re-dirty-skipped)
            // are dirty again by construction, so the snapshot covers them.
            self.to_send = snapshot;
            self.engine.split_cold(&mut self.state, &mut self.to_send);
        }
        Ok(SessionStep::Yielded)
    }

    /// The epilogue of the run: stop-and-copy, resume, verification and
    /// report assembly — the tail of the original monolithic
    /// `migrate_recorded`, unchanged.
    fn finish(
        &mut self,
        vm: &mut dyn MigratableVm,
        clock: &mut SimClock,
    ) -> Result<SessionStep, MigrateError> {
        self.finished = true;
        let state = &mut self.state;
        let to_send = std::mem::replace(&mut self.to_send, Bitmap::new(0));
        let t_enter_last = self.t_enter_last;
        let stop_reason = self.stop_reason;
        let port = &self.port;

        // Stop-and-copy: pause the VM and send everything still pending.
        let t_pause = clock.now();
        state.timeline.push(t_pause, EngineEvent::Paused);
        state
            .recorder
            .instant(t_pause, Subsystem::Engine, "paused", vec![]);
        let sc_span =
            state
                .recorder
                .begin_span(t_pause, Subsystem::Engine, "stop_and_copy", vec![]);
        let last_stats = self.engine.run_stop_and_copy(
            vm,
            clock,
            state,
            to_send,
            self.iterations.len() as u32 + 1,
        );
        let last_iter_duration = last_stats.duration;
        state.recorder.end_span(
            clock.now(),
            sc_span,
            vec![
                ("pages_sent", last_stats.pages_sent.into()),
                ("bytes_sent", last_stats.bytes_sent.into()),
            ],
        );
        self.iterations.push(last_stats);

        // Resume at the destination: log-dirty mode is over.
        vm.kernel_mut().memory_mut().dirty_log_mut().disable();
        state.recorder.record_span(
            clock.now(),
            Subsystem::Engine,
            "resume",
            self.engine.config.resume_time,
            vec![],
        );
        clock.advance(self.engine.config.resume_time);
        state.timeline.push(clock.now(), EngineEvent::Resumed);
        state
            .recorder
            .instant(clock.now(), Subsystem::Engine, "resumed", vec![]);
        state.recorder.gauge(
            clock.now(),
            Subsystem::Workload,
            "ops_completed",
            vm.ops_completed() as f64,
        );
        if let Some(port) = port {
            port.send(clock.now(), CoordPayload::VmResumed);
        }

        // Verification against the paused source. A degraded run abandoned
        // its skip-over areas, so every page must match.
        let skip_at_pause = self.engine.skip_bitmap(vm, self.npages, state.assist);
        let verification = state.dest.verify(vm.kernel(), &skip_at_pause);

        // Freeze the flight recorder and derive the downtime breakdown from
        // its spans where they exist; the LKM-message / VM-query fallbacks
        // keep unrecorded runs reporting identically.
        state
            .recorder
            .counter_add(Subsystem::Engine, "pages_scanned", state.scan_pages);
        state.recorder.counter_add(
            Subsystem::Engine,
            "scan_cpu_ns",
            (self.engine.config.cpu_cost_per_page_scan * state.scan_pages).as_nanos(),
        );
        if let Some(cold) = state.cold.as_mut() {
            cold.report.cold_pages = cold.map.count_set();
            let r = cold.report;
            let rec = &state.recorder;
            rec.counter_add(Subsystem::Engine, "cold_pages", r.cold_pages);
            rec.counter_add(Subsystem::Engine, "cold_deferred_pages", r.deferred_pages);
            rec.counter_add(
                Subsystem::Engine,
                "cold_deferred_sent_pages",
                r.deferred_sent_pages,
            );
            rec.counter_add(
                Subsystem::Engine,
                "cold_deferred_sent_bytes",
                r.deferred_sent_bytes,
            );
            rec.counter_add(
                Subsystem::Engine,
                "cold_pending_at_pause",
                r.pending_at_pause,
            );
            rec.counter_add(Subsystem::Engine, "delta_cache_hits", r.delta_hits);
            rec.counter_add(Subsystem::Engine, "delta_cache_misses", r.delta_misses);
            rec.counter_add(
                Subsystem::Engine,
                "delta_cache_fallbacks",
                r.delta_fallbacks,
            );
            rec.counter_add(
                Subsystem::Engine,
                "delta_cache_overflows",
                r.delta_overflows,
            );
            rec.counter_add(Subsystem::Engine, "delta_wire_bytes", r.delta_wire_bytes);
            rec.counter_add(Subsystem::Engine, "delta_full_bytes", r.delta_full_bytes);
            rec.hist(
                Subsystem::Engine,
                "delta_saved_bytes_permille",
                (r.saved_bytes_ratio() * 1000.0) as u64,
            );
            rec.instant(
                clock.now(),
                Subsystem::Engine,
                "delta_cache_outcome",
                vec![
                    ("hits", r.delta_hits.into()),
                    ("misses", r.delta_misses.into()),
                    ("fallbacks", r.delta_fallbacks.into()),
                    ("overflows", r.delta_overflows.into()),
                ],
            );
        }
        state.recorder.instant(
            clock.now(),
            Subsystem::Engine,
            "migration_outcome",
            vec![
                (
                    "kind",
                    match state.degraded {
                        Some(_) => "degraded_vanilla".into(),
                        None => "completed".into(),
                    },
                ),
                (
                    "fault",
                    match state.degraded {
                        Some(fault) => fault.name().into(),
                        None => "none".into(),
                    },
                ),
            ],
        );
        let telemetry = state.recorder.snapshot();
        let (msg_final_update, stragglers) = state.ready.unwrap_or((SimDuration::ZERO, 0));
        let final_update = telemetry
            .spans_named(Subsystem::Lkm, "final_bitmap_update")
            .last()
            .map(|s| s.duration())
            .unwrap_or(msg_final_update);
        let enforced_gc = telemetry
            .spans_named(Subsystem::Gc, "enforced_gc")
            .iter()
            .map(|s| s.duration())
            .fold(SimDuration::ZERO, |acc, d| acc + d);
        let enforced_gc = if enforced_gc.is_zero() {
            vm.enforced_gc_duration().unwrap_or(SimDuration::ZERO)
        } else {
            enforced_gc
        };
        let safepoint_wait = match t_enter_last {
            Some(t) => t_pause
                .saturating_since(t)
                .saturating_sub(enforced_gc)
                .saturating_sub(final_update),
            None => SimDuration::ZERO,
        };

        Ok(SessionStep::Complete(Box::new(MigrationReport {
            total_duration: clock.now().saturating_since(state.t0),
            total_bytes: state.wire_bytes,
            downtime: DowntimeBreakdown {
                safepoint_wait,
                enforced_gc,
                final_update,
                last_iteration: last_iter_duration,
                resume: self.engine.config.resume_time,
            },
            cpu_time: state.cpu,
            verification,
            traffic_by_class: state.by_class,
            stop_reason: stop_reason.unwrap_or(StopReason::DirtyThreshold),
            outcome: match state.degraded {
                Some(fault) => MigrationOutcome::DegradedVanilla { fault },
                None => MigrationOutcome::Completed,
            },
            timeline: std::mem::replace(&mut state.timeline, simkit::trace::Trace::new()),
            cold: state.cold.take().map(|c| c.report),
            lkm: vm.kernel().lkm().map(|l| l.stats().clone()),
            stragglers,
            iterations: std::mem::take(&mut self.iterations),
            telemetry,
        })))
    }
}

impl PrecopyEngine {
    /// Abandons the assisted protocol: notify the LKM (`AbortAssist`, so it
    /// restores its transfer bitmap and releases held applications), stop
    /// consulting the transfer bitmap, and record the triggering fault.
    fn degrade(
        &self,
        state: &mut RunState,
        port: Option<&DaemonPort>,
        now: SimTime,
        fault: FaultKind,
    ) {
        if !state.assist {
            return;
        }
        state.assist = false;
        state.degraded = Some(fault);
        if let Some(cold) = state.cold.as_mut() {
            // Deferred cold pages were split out of earlier snapshots and
            // never sent; they may no longer be dirty, so park them with the
            // deferred skips for re-examination at the stop-and-copy.
            state.deferred_skips.union_with(&cold.pending);
            cold.pending.clear_all();
        }
        if let Some(port) = port {
            port.send(now, CoordPayload::AbortAssist);
            state.recorder.instant(
                now,
                Subsystem::Engine,
                "abort_assist_sent",
                vec![("fault", fault.name().into())],
            );
        }
        state.timeline.push(now, EngineEvent::Degraded(fault));
        state.recorder.instant(
            now,
            Subsystem::Engine,
            "degraded",
            vec![("fault", fault.name().into())],
        );
    }

    /// Applies a scheduled mid-run link degrade once its time arrives.
    fn apply_link_plan(&self, state: &mut RunState, now: SimTime) -> Result<(), MigrateError> {
        if let Some(plan) = state.link_plan {
            if now.saturating_since(state.t0) >= plan.after {
                state.link_plan = None;
                if plan.factor <= 0.0 {
                    return Err(MigrateError::LinkDown);
                }
                state.link.set_bandwidth(Bandwidth::from_bytes_per_sec(
                    state.base_bandwidth.bytes_per_sec() * plan.factor,
                ));
                state.recorder.instant(
                    now,
                    Subsystem::Engine,
                    "link_degraded",
                    vec![("factor", plan.factor.into())],
                );
            }
        }
        Ok(())
    }

    /// Checks the coordination deadlines; resends idempotent handshake
    /// messages with backoff, degrading (or failing) once the retry budget
    /// is exhausted.
    fn check_coord_deadlines(
        &self,
        state: &mut RunState,
        port: &DaemonPort,
        now: SimTime,
    ) -> Result<(), MigrateError> {
        let coord = &self.config.coord;
        if !state.coord.begin_acked && state.coord.begin_deadline.is_some_and(|dl| now >= dl) {
            if state.coord.begin_attempts < coord.retry_limit {
                state.coord.begin_attempts += 1;
                state.coord.begin_wait = SimDuration::from_secs_f64(
                    state.coord.begin_wait.as_secs_f64() * coord.retry_backoff,
                );
                port.send(now, CoordPayload::MigrationBegin);
                state.coord.begin_sent_at = now;
                state.coord.begin_deadline = Some(now + state.coord.begin_wait);
                self.record_retry(state, now, "migration_begin", state.coord.begin_attempts);
            } else {
                state.coord.begin_deadline = None;
                return self.coord_exhausted(
                    state,
                    port,
                    now,
                    FaultKind::BeginAckTimeout,
                    CoordPhase::BeginAck,
                    now.saturating_since(state.t0),
                );
            }
        }
        if state.assist
            && state.ready.is_none()
            && state.coord.ready_deadline.is_some_and(|dl| now >= dl)
        {
            if state.coord.ready_attempts < coord.retry_limit {
                state.coord.ready_attempts += 1;
                state.coord.ready_wait = SimDuration::from_secs_f64(
                    state.coord.ready_wait.as_secs_f64() * coord.retry_backoff,
                );
                port.send(now, CoordPayload::EnteringLastIter);
                state.coord.ready_deadline = Some(now + state.coord.ready_wait);
                self.record_retry(state, now, "entering_last_iter", state.coord.ready_attempts);
            } else {
                state.coord.ready_deadline = None;
                let since = state.coord.ready_since.unwrap_or(state.t0);
                return self.coord_exhausted(
                    state,
                    port,
                    now,
                    FaultKind::ReadyTimeout,
                    CoordPhase::Ready,
                    now.saturating_since(since),
                );
            }
        }
        Ok(())
    }

    fn record_retry(
        &self,
        state: &mut RunState,
        now: SimTime,
        message: &'static str,
        attempt: u32,
    ) {
        state
            .timeline
            .push(now, EngineEvent::CoordRetry { attempt });
        state.recorder.instant(
            now,
            Subsystem::Engine,
            "coord_retry",
            vec![("message", message.into()), ("attempt", attempt.into())],
        );
    }

    fn coord_exhausted(
        &self,
        state: &mut RunState,
        port: &DaemonPort,
        now: SimTime,
        fault: FaultKind,
        phase: CoordPhase,
        waited: SimDuration,
    ) -> Result<(), MigrateError> {
        match self.config.fallback {
            FallbackPolicy::Fail => Err(MigrateError::CoordTimeout { phase, waited }),
            FallbackPolicy::DegradeToVanilla => {
                self.degrade(state, Some(port), now, fault);
                Ok(())
            }
        }
    }

    /// One live iteration: scan `to_send`, transferring at link speed while
    /// the guest keeps running. In `waiting` mode the iteration ends when
    /// the LKM reports readiness — or when the coordination machinery gives
    /// up and degrades the run.
    ///
    /// Scanning is word-granular (see the module docs): each step classifies
    /// 64 pages with three word operations, retires send-free words
    /// wholesale, and walks only the sendable pages bit by bit so the link
    /// budget cuts off at exactly the same page as a per-bit scan would.
    #[allow(clippy::too_many_arguments)]
    fn run_live_iteration(
        &self,
        vm: &mut dyn MigratableVm,
        clock: &mut SimClock,
        state: &mut RunState,
        to_send: &mut Bitmap,
        index: u32,
        port: Option<&DaemonPort>,
        waiting: bool,
    ) -> Result<IterationStats, MigrateError> {
        let start = clock.now();
        let pages_to_send = to_send.count_set();
        let mut tally = IterTally::default();
        let mut quanta = 0u64;

        'outer: loop {
            // Send a quantum's worth of pages.
            let q_start = clock.now();
            let q_bytes = tally.bytes;
            let mut budget = state.link.budget(self.config.quantum) as i64;
            let mut cpu_budget = self.config.quantum;
            loop {
                match self.scan_quantum(
                    &*vm,
                    state,
                    to_send,
                    &mut tally,
                    &mut budget,
                    &mut cpu_budget,
                ) {
                    ScanExit::Budget => break,
                    ScanExit::Drained => {
                        if waiting && state.assist {
                            // Snapshot drained but the guest is still
                            // preparing: pick up newly dirtied pages under
                            // the same iteration box.
                            let snap = vm
                                .kernel_mut()
                                .memory_mut()
                                .dirty_log_mut()
                                .read_and_clear();
                            state.ever_dirtied.union_with(&snap);
                            *to_send = snap;
                            self.split_cold(state, to_send);
                            tally.cursor = 0;
                            if to_send.all_clear() {
                                // No hot work left: hand the rest of the
                                // quantum to the cold bulk stream.
                                self.drain_cold_quantum(
                                    &*vm,
                                    state,
                                    &mut tally,
                                    &mut budget,
                                    &mut cpu_budget,
                                );
                                break;
                            }
                            continue;
                        }
                        // Hot snapshot drained: the cold bulk stream may
                        // spend whatever budget the hot pages left over.
                        if !self.drain_cold_quantum(
                            &*vm,
                            state,
                            &mut tally,
                            &mut budget,
                            &mut cpu_budget,
                        ) {
                            // Cold backlog outlived the quantum: let the
                            // guest run and keep the iteration going.
                            break;
                        }
                        // Credit the partial quantum's traffic before leaving.
                        state.link.sample_utilization(
                            q_start,
                            SimDuration::ZERO,
                            tally.bytes - q_bytes,
                        );
                        break 'outer;
                    }
                }
            }

            // Let the guest run for the quantum.
            vm.advance_guest(clock.now(), self.config.quantum);
            clock.advance(self.config.quantum);
            state
                .link
                .sample_utilization(q_start, self.config.quantum, tally.bytes - q_bytes);
            quanta += 1;

            self.apply_link_plan(state, clock.now())?;
            self.adopt_cold(&*vm, state, to_send);

            if let Some(port) = port {
                if state.assist && state.ready.is_none() {
                    for msg in port.recv(clock.now()) {
                        match msg.payload {
                            CoordPayload::BeginAck => {
                                // The LKM re-acks every (retried) begin; only
                                // the first ack is a meaningful round-trip.
                                if !state.coord.begin_acked {
                                    state.recorder.hist_dur(
                                        Subsystem::Engine,
                                        "coord_begin_rtt_ns",
                                        clock.now().saturating_since(state.coord.begin_sent_at),
                                    );
                                }
                                state.coord.begin_acked = true;
                                state.coord.begin_deadline = None;
                            }
                            CoordPayload::ReadyToSuspend {
                                final_update,
                                stragglers,
                            } => {
                                if let Some(since) = state.coord.ready_since {
                                    state.recorder.hist_dur(
                                        Subsystem::Engine,
                                        "coord_ready_rtt_ns",
                                        clock.now().saturating_since(since),
                                    );
                                }
                                state.ready = Some((final_update, stragglers));
                            }
                            _ => {}
                        }
                    }
                    self.check_coord_deadlines(state, port, clock.now())?;
                }
            }
            if waiting && (state.ready.is_some() || !state.assist) {
                break;
            }
        }

        // An empty iteration still costs (at least) one bitmap read.
        if quanta == 0 {
            vm.advance_guest(clock.now(), self.config.quantum);
            clock.advance(self.config.quantum);
        }

        Ok(IterationStats {
            index,
            start,
            duration: clock.now().saturating_since(start),
            pages_to_send,
            pages_sent: tally.sent,
            bytes_sent: tally.bytes,
            pages_skipped_dirty: tally.skip_dirty,
            pages_skipped_transfer: tally.skip_transfer,
            pages_dirtied_during: vm.kernel().memory().dirty_log().dirty_count(),
        })
    }

    /// The scan half of one quantum: classify snapshot words where the walk
    /// reads them, retiring send-free words wholesale and walking sendable
    /// pages in PFN order, until a budget runs out ([`ScanExit::Budget`])
    /// or the snapshot has no set bit at or after the cursor
    /// ([`ScanExit::Drained`]). The guest does not run inside a quantum, so
    /// the dirty log and the transfer bitmap read here are frozen.
    fn scan_quantum(
        &self,
        vm: &dyn MigratableVm,
        state: &mut RunState,
        to_send: &mut Bitmap,
        tally: &mut IterTally,
        budget: &mut i64,
        cpu_budget: &mut SimDuration,
    ) -> ScanExit {
        while *budget > 0 && !cpu_budget.is_zero() {
            let Some(first) = to_send.next_set_at(tally.cursor) else {
                return ScanExit::Drained;
            };
            let wi = (first.0 / 64) as usize;
            // Processed pages always leave the snapshot, so the whole
            // word is still-pending work; whatever the scanner never
            // reaches is the leftover the stop-and-copy inherits.
            let w = to_send.words()[wi];
            let kernel = vm.kernel();
            let d = kernel.memory().dirty_log().peek_ref().words()[wi];
            let t = if state.assist {
                kernel
                    .lkm()
                    .map(|l| l.transfer_bitmap().as_bitmap().words()[wi])
            } else {
                None
            };
            let WordClass {
                sends,
                skips_transfer: skips_t,
                skips_dirty: skips_d,
            } = WordClass::of(w, d, t);

            if sends == 0 {
                // A word with no sendable page consumes no link budget:
                // retire all 64 pages in one step.
                state.cpu += self.config.cpu_cost_per_page_scan * u64::from(w.count_ones());
                state.scan_pages += u64::from(w.count_ones());
                tally.skip_transfer += u64::from(skips_t.count_ones());
                tally.skip_dirty += u64::from(skips_d.count_ones());
                state.deferred_skips.set_bits_in_word(wi, skips_t);
                to_send.clear_bits_in_word(wi, w);
                tally.cursor = (wi as u64 + 1) * 64;
                continue;
            }

            // The word contains sends: walk them in PFN order, retiring
            // the budget-free skips between consecutive sends in bulk
            // and batching the traffic/CPU accounting for the word run.
            let mut pending_sends = sends;
            let mut word_wire = 0u64;
            let mut word_cpu = SimDuration::ZERO;
            let mut class_bytes = [0u64; PageClass::ALL.len()];
            loop {
                let bit = u64::from(pending_sends.trailing_zeros());
                // Unprocessed pages below the send are skips (earlier
                // sends were already cleared from the snapshot).
                let below = to_send.words()[wi] & ((1u64 << bit) - 1);
                if below != 0 {
                    state.cpu += self.config.cpu_cost_per_page_scan * u64::from(below.count_ones());
                    state.scan_pages += u64::from(below.count_ones());
                    tally.skip_transfer += u64::from((below & skips_t).count_ones());
                    tally.skip_dirty += u64::from((below & skips_d).count_ones());
                    state.deferred_skips.set_bits_in_word(wi, below & skips_t);
                    to_send.clear_bits_in_word(wi, below);
                }
                let pfn = Pfn(wi as u64 * 64 + bit);
                to_send.clear_bits_in_word(wi, 1u64 << bit);
                tally.cursor = pfn.0 + 1;
                state.cpu += self.config.cpu_cost_per_page_scan;
                state.scan_pages += 1;
                let (wire, cpu, class) = self.transmit_page(vm, state, pfn);
                *budget -= wire as i64;
                *cpu_budget = cpu_budget.saturating_sub(cpu);
                tally.bytes += wire;
                tally.sent += 1;
                word_wire += wire;
                class_bytes[class.index()] += wire;
                word_cpu +=
                    cpu + SimDuration::from_secs_f64(wire as f64 * self.config.cpu_cost_per_byte);
                pending_sends &= pending_sends - 1;
                if *budget <= 0 || cpu_budget.is_zero() {
                    // Budget cut off mid-word: the unreached pages (skips
                    // included) stay in the snapshot for the next quantum,
                    // exactly as a per-bit scan would leave them.
                    break;
                }
                if pending_sends == 0 {
                    // Trailing skips after the last send are budget-free.
                    let rest = to_send.words()[wi];
                    if rest != 0 {
                        state.cpu +=
                            self.config.cpu_cost_per_page_scan * u64::from(rest.count_ones());
                        state.scan_pages += u64::from(rest.count_ones());
                        tally.skip_transfer += u64::from((rest & skips_t).count_ones());
                        tally.skip_dirty += u64::from((rest & skips_d).count_ones());
                        state.deferred_skips.set_bits_in_word(wi, rest & skips_t);
                        to_send.clear_bits_in_word(wi, rest);
                    }
                    tally.cursor = (wi as u64 + 1) * 64;
                    break;
                }
            }
            // Flush the word run's batched accounting.
            state.link.record_send(word_wire);
            state.wire_bytes += word_wire;
            for class in PageClass::ALL {
                let b = class_bytes[class.index()];
                if b != 0 {
                    state.by_class.add(class, b);
                }
            }
            state.cpu += word_cpu;
        }
        ScanExit::Budget
    }

    /// The stop-and-copy: VM paused, remaining pages pushed at line rate.
    fn run_stop_and_copy(
        &self,
        vm: &mut dyn MigratableVm,
        clock: &mut SimClock,
        state: &mut RunState,
        leftover: Bitmap,
        index: u32,
    ) -> IterationStats {
        let start = clock.now();
        // Everything still dirty, everything left over from the interrupted
        // snapshot, and every page we ever skipped on transfer-bit grounds —
        // all filtered through the *final* transfer bitmap below.
        let mut final_set = vm
            .kernel_mut()
            .memory_mut()
            .dirty_log_mut()
            .read_and_clear();
        state.ever_dirtied.union_with(&final_set);
        final_set.union_with(&leftover);
        final_set.union_with(&state.deferred_skips);
        if let Some(cold) = state.cold.as_mut() {
            // The cold backlog never shipped live: it rides the
            // stop-and-copy (as deltas where the cache holds a prior
            // version).
            cold.report.pending_at_pause = cold.pending.count_set();
            final_set.union_with(&cold.pending);
            cold.pending.clear_all();
        }
        if self.config.last_iter_considers_all_dirtied {
            final_set.union_with(&state.ever_dirtied);
        }

        // The VM is paused, so the final transfer bitmap is immutable: the
        // whole skip classification collapses to one word-wise intersection,
        // and every surviving bit is a send. A degraded run ignores the
        // bitmap entirely — everything pending goes on the wire.
        let pages_to_send = final_set.count_set();
        state.cpu += self.config.cpu_cost_per_page_scan * pages_to_send;
        state.scan_pages += pages_to_send;
        let mut sendable = final_set;
        let skip_transfer = if state.assist {
            match vm.kernel().lkm() {
                Some(lkm) => {
                    let tb = lkm.transfer_bitmap().as_bitmap();
                    let skipped = sendable.count_and_not(tb);
                    sendable.intersect_with(tb);
                    skipped
                }
                None => 0,
            }
        } else {
            0
        };

        let mut sent = 0u64;
        let mut bytes = 0u64;
        for wi in 0..sendable.word_count() {
            let mut bits = sendable.words()[wi];
            if bits == 0 {
                continue;
            }
            let mut word_wire = 0u64;
            let mut word_cpu = SimDuration::ZERO;
            let mut class_bytes = [0u64; PageClass::ALL.len()];
            while bits != 0 {
                let bit = u64::from(bits.trailing_zeros());
                bits &= bits - 1;
                let pfn = Pfn(wi as u64 * 64 + bit);
                let (wire, cpu, class) = self.transmit_page(vm, state, pfn);
                bytes += wire;
                sent += 1;
                word_wire += wire;
                class_bytes[class.index()] += wire;
                word_cpu +=
                    cpu + SimDuration::from_secs_f64(wire as f64 * self.config.cpu_cost_per_byte);
            }
            state.link.record_send(word_wire);
            state.wire_bytes += word_wire;
            for class in PageClass::ALL {
                let b = class_bytes[class.index()];
                if b != 0 {
                    state.by_class.add(class, b);
                }
            }
            state.cpu += word_cpu;
        }
        // The VM is paused: transfer time passes without guest execution.
        let duration = state.link.time_to_send(bytes);
        state.link.sample_utilization(start, duration, bytes);
        clock.advance(duration);

        IterationStats {
            index,
            start,
            duration,
            pages_to_send,
            pages_sent: sent,
            bytes_sent: bytes,
            pages_skipped_dirty: 0,
            pages_skipped_transfer: skip_transfer,
            pages_dirtied_during: 0,
        }
    }

    /// Computes the wire cost of one page and stores it at the destination.
    ///
    /// Traffic and CPU accounting are left to the caller, which batches
    /// them per word run; returns (wire bytes, compression CPU, class).
    fn transmit_page(
        &self,
        vm: &dyn MigratableVm,
        state: &mut RunState,
        pfn: Pfn,
    ) -> (u64, SimDuration, PageClass) {
        let page = vm.kernel().memory().page(pfn);
        let method = self.method_for(page.class);
        let full_body = method.compressed_size(PAGE_SIZE, page.class.compression_ratio());
        let mut body = full_body;
        let mut cpu = method.cpu_cost(PAGE_SIZE);
        // XBZRLE delta action: a *re-send* — a page whose prior version the
        // destination already holds — may ship as a run-length-encoded XOR
        // against the version in the delta page cache. First sends (the
        // bulk copy) run no codec; they only prime the cache, so a cached
        // entry always means the destination can decode against it.
        if state.assist {
            if let Some(cold) = state.cold.as_mut() {
                if let Some(cache) = cold.delta.as_mut() {
                    if state.dest.has_received(pfn) {
                        let (outcome, overflow) = cache.consult(pfn, page.version, full_body);
                        if overflow {
                            cold.report.delta_overflows += 1;
                        }
                        cpu += DELTA_CPU_PER_PAGE;
                        match outcome {
                            DeltaOutcome::Miss => cold.report.delta_misses += 1,
                            DeltaOutcome::Fallback => cold.report.delta_fallbacks += 1,
                            DeltaOutcome::Delta { body: delta_body } => {
                                cold.report.delta_hits += 1;
                                cold.report.delta_wire_bytes += delta_body + PAGE_HEADER_BYTES;
                                cold.report.delta_full_bytes += full_body + PAGE_HEADER_BYTES;
                                body = delta_body;
                            }
                        }
                    } else if cache.prime(pfn, page.version) {
                        cold.report.delta_overflows += 1;
                    }
                }
            }
        }
        let wire = body + PAGE_HEADER_BYTES;
        state.dest.receive(pfn, page);
        (wire, cpu, page.class)
    }

    /// Splits a fresh hot snapshot against the accumulated cold map: cold
    /// dirty pages leave the snapshot for the deferred backlog (the defer
    /// action); hot pages stay. No-op unless deferral is configured.
    fn split_cold(&self, state: &mut RunState, to_send: &mut Bitmap) {
        if !state.assist {
            return;
        }
        let Some(cold) = state.cold.as_mut() else {
            return;
        };
        if !cold.defer {
            return;
        }
        let mut moved = cold.map.clone();
        moved.intersect_with(to_send);
        let n = moved.count_set();
        if n > 0 {
            cold.report.deferred_pages += n;
            cold.pending.union_with(&moved);
            to_send.subtract(&moved);
        }
    }

    /// Folds the LKM's latest cold-region map into the engine's classifier.
    /// Newly cold pages are masked out of the live hot snapshot into the
    /// deferred backlog when the defer action is on; the delta action keys
    /// off the accumulated map alone. The LKM map only ever grows during a
    /// migration, so a popcount guard makes the no-change case free.
    fn adopt_cold(&self, vm: &dyn MigratableVm, state: &mut RunState, to_send: &mut Bitmap) {
        if !state.assist || state.cold.is_none() {
            return;
        }
        let Some(lkm_cold) = vm.kernel().lkm().and_then(|l| l.cold_bitmap()) else {
            return;
        };
        let total = lkm_cold.count_set();
        let cold = state.cold.as_mut().expect("cold state");
        if total == cold.adopted_bits {
            return;
        }
        cold.adopted_bits = total;
        let mut added = lkm_cold.clone();
        added.subtract(&cold.map);
        cold.map.union_with(&added);
        if cold.defer {
            added.intersect_with(to_send);
            let moved = added.count_set();
            if moved > 0 {
                cold.report.deferred_pages += moved;
                cold.pending.union_with(&added);
                to_send.subtract(&added);
            }
        }
    }

    /// Drains the deferred cold backlog through the remaining quantum
    /// budget — the low-priority bulk stream. Runs only once the hot
    /// snapshot is empty, so hot iterations always take precedence.
    /// Returns `true` when no cold work remains (or none exists).
    fn drain_cold_quantum(
        &self,
        vm: &dyn MigratableVm,
        state: &mut RunState,
        tally: &mut IterTally,
        budget: &mut i64,
        cpu_budget: &mut SimDuration,
    ) -> bool {
        if !state.assist || state.cold.as_ref().is_none_or(|c| !c.defer) {
            return true;
        }
        let mut cursor = 0u64;
        loop {
            if *budget <= 0 || cpu_budget.is_zero() {
                return state
                    .cold
                    .as_ref()
                    .is_none_or(|c| c.pending.next_set_at(cursor).is_none());
            }
            let Some(pfn) = state
                .cold
                .as_ref()
                .and_then(|c| c.pending.next_set_at(cursor))
            else {
                return true;
            };
            cursor = pfn.0 + 1;
            state.cold.as_mut().expect("cold state").pending.clear(pfn);
            state.cpu += self.config.cpu_cost_per_page_scan;
            state.scan_pages += 1;
            // A cold page re-dirtied since it was deferred rides the next
            // dirty snapshot instead (Xen's skip-if-redirtied, applied to
            // the bulk stream).
            if vm.kernel().memory().dirty_log().peek_ref().get(pfn) {
                tally.skip_dirty += 1;
                continue;
            }
            // Respect the transfer bitmap: a deferred page inside a
            // skip-over area is the application's to drop, not ours.
            if let Some(lkm) = vm.kernel().lkm() {
                if !lkm.transfer_bitmap().as_bitmap().get(pfn) {
                    tally.skip_transfer += 1;
                    state.deferred_skips.set(pfn);
                    continue;
                }
            }
            let (wire, cpu, class) = self.transmit_page(vm, state, pfn);
            *budget -= wire as i64;
            *cpu_budget = cpu_budget.saturating_sub(cpu);
            tally.bytes += wire;
            tally.sent += 1;
            state.link.record_send(wire);
            state.wire_bytes += wire;
            state.by_class.add(class, wire);
            state.cpu +=
                cpu + SimDuration::from_secs_f64(wire as f64 * self.config.cpu_cost_per_byte);
            let cold = state.cold.as_mut().expect("cold state");
            cold.report.deferred_sent_pages += 1;
            cold.report.deferred_sent_bytes += wire;
        }
    }

    fn method_for(&self, class: PageClass) -> CompressionMethod {
        match self.config.compression {
            CompressionPolicy::Off => CompressionMethod::None,
            CompressionPolicy::Uniform(m) => m,
            CompressionPolicy::PerClass => {
                if class.compression_ratio() < 0.5 {
                    CompressionMethod::Strong
                } else {
                    CompressionMethod::Fast
                }
            }
        }
    }

    /// Dirty pages the transfer bitmap still allows sending — what the
    /// stop policy's threshold really cares about. For vanilla (or
    /// degraded) migration this equals the dirty count.
    fn pending_transferable(&self, vm: &dyn MigratableVm, assist: bool) -> u64 {
        let log = vm.kernel().memory().dirty_log();
        if !assist {
            return log.dirty_count();
        }
        match vm.kernel().lkm() {
            // An allocation-free word-AND popcount over both bitmaps.
            Some(lkm) => log.peek_ref().count_and(lkm.transfer_bitmap().as_bitmap()),
            None => log.dirty_count(),
        }
    }

    /// The skip set at pause time: pages whose final transfer bit is clear —
    /// the word-wise negation of the LKM's transfer bitmap. Empty for
    /// vanilla and degraded runs (everything is verified).
    fn skip_bitmap(&self, vm: &dyn MigratableVm, npages: u64, assist: bool) -> Bitmap {
        if assist {
            if let Some(lkm) = vm.kernel().lkm() {
                let mut skip = lkm.transfer_bitmap().as_bitmap().clone();
                skip.invert();
                return skip;
            }
        }
        Bitmap::new(npages)
    }
}
