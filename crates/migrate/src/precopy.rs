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
//! # Send path
//!
//! The scanner is word-granular: all three inputs — the iteration snapshot,
//! the hypervisor dirty log and the LKM transfer bitmap — are dense
//! `u64`-word bitmaps, and the guest only runs *between* quanta, so within
//! a quantum the sendable set is exactly `to_send & transfer & !dirty`
//! computed 64 pages at a time ([`WordClass::of`], applied to each word
//! where the walk reads it). The hot scan, the cold bulk drain and the
//! stop-and-copy all put pages on the wire through one word sender, which
//! walks a word's sends in PFN order, stops at the send that exhausts a
//! budget and books traffic and CPU once per word; the skips the walk
//! reached are then retired together. The transfer bitmap is read through
//! one accessor, which returns nothing for vanilla and degraded runs.

use crate::assist::delta::{DeltaOutcome, DELTA_CPU_PER_PAGE};
use crate::assist::ColdState;
use crate::config::{CompressionPolicy, FallbackPolicy, MigrationConfig};
use crate::destination::DestinationVm;
use crate::error::{CoordPhase, MigrateError, MigrationOutcome};
use crate::report::{
    DowntimeBreakdown, IterationStats, MigrationReport, StopReason, TrafficByClass,
};
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

/// Running totals of one iteration, shared by its scan quanta.
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
        let config = &self.config;
        config.validate()?;
        let t0 = clock.now();
        let npages = vm.kernel().memory().page_count();
        vm.attach_telemetry(recorder.clone());
        vm.install_faults(&config.faults);
        let port = if config.assisted {
            Some(vm.daemon_port().ok_or(MigrateError::MissingLkm)?)
        } else {
            None
        };

        let mut link = Link::new(config.bandwidth);
        link.attach_telemetry(recorder.clone());
        let mut session = MigrationSession {
            config: config.clone(),
            port,
            npages,
            link,
            dest: DestinationVm::new(npages),
            by_class: TrafficByClass::default(),
            ever_dirtied: Bitmap::new(npages),
            deferred_skips: Bitmap::new(npages),
            cpu: SimDuration::ZERO,
            scan_pages: 0,
            ready: None,
            recorder,
            assist: config.assisted,
            degraded: None,
            cold: None,
            coord: CoordTrack {
                begin_acked: !config.assisted,
                begin_deadline: None,
                begin_wait: config.coord.begin_ack_timeout,
                begin_attempts: 0,
                begin_sent_at: t0,
                ready_deadline: None,
                ready_wait: config.coord.ready_timeout,
                ready_attempts: 0,
                ready_since: None,
            },
            t0,
            link_plan: config.faults.link,
            base_bandwidth: config.bandwidth,
            iterations: Vec::new(),
            to_send: Bitmap::new_all_set(npages),
            t_enter_last: None,
            stop_reason: None,
            finished: false,
        };

        vm.kernel_mut().memory_mut().dirty_log_mut().enable();
        session.recorder.instant(
            clock.now(),
            Subsystem::Engine,
            "begin",
            vec![
                ("assisted", config.assisted.into()),
                ("npages", npages.into()),
            ],
        );
        if let Some(port) = &session.port {
            port.send(clock.now(), CoordPayload::MigrationBegin);
            session.coord.begin_deadline = Some(t0 + config.coord.begin_ack_timeout);
            if config.cold.enabled() {
                session.cold = Some(ColdState::new(npages, &config.cold));
                port.send(clock.now(), CoordPayload::QueryColdMap);
                session.recorder.instant(
                    clock.now(),
                    Subsystem::Engine,
                    "query_cold_map",
                    vec![
                        ("defer", config.cold.defer.into()),
                        ("delta", config.cold.delta.into()),
                    ],
                );
            }
        }
        Ok(session)
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
    config: MigrationConfig,
    port: Option<DaemonPort>,
    npages: u64,
    /// The migration link. Never reset, so its byte counter is the run's
    /// wire total.
    link: Link,
    dest: DestinationVm,
    by_class: TrafficByClass,
    ever_dirtied: Bitmap,
    /// Pages ever skipped because of a cleared transfer bit; re-examined at
    /// the stop-and-copy under the *final* bitmap so nothing live is lost.
    deferred_skips: Bitmap,
    cpu: SimDuration,
    /// Pages examined by the word-granular scanner (sends and skips alike);
    /// flushed to the `engine/pages_scanned` counter at the end of the run
    /// so digests can derive scan throughput.
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
    iterations: Vec<IterationStats>,
    to_send: Bitmap,
    t_enter_last: Option<SimTime>,
    stop_reason: Option<StopReason>,
    finished: bool,
}

impl MigrationSession {
    /// When the migration started (the clock at [`PrecopyEngine::begin`]).
    pub fn started_at(&self) -> SimTime {
        self.t0
    }

    /// Live iterations completed so far.
    pub fn iterations(&self) -> &[IterationStats] {
        &self.iterations
    }

    /// Wire bytes put on the link so far.
    pub fn wire_bytes(&self) -> u64 {
        self.link.bytes_sent()
    }

    /// Total guest pages the migration covers (the first iteration's
    /// transfer set before any skips).
    pub fn npages(&self) -> u64 {
        self.npages
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
        let cold_backlog = self.cold.as_ref().map_or(0, |c| c.pending.count_set());
        let hot = match self.transfer(vm) {
            Some(tb) => self.to_send.count_and(tb),
            None => self.to_send.count_set(),
        };
        hot + cold_backlog
    }

    /// Re-rates the migration link. Takes effect at the next step; also
    /// re-anchors the base bandwidth that scheduled link-degrade faults
    /// scale from.
    pub fn set_bandwidth(&mut self, bandwidth: Bandwidth) {
        self.link.set_bandwidth(bandwidth);
        self.base_bandwidth = bandwidth;
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
        let index = self.iterations.len() as u32 + 1;
        let waiting = self.t_enter_last.is_some();
        self.recorder.instant(
            clock.now(),
            Subsystem::Engine,
            "iteration_start",
            vec![("index", index.into()), ("waiting", waiting.into())],
        );
        let span = self.recorder.begin_span(
            clock.now(),
            Subsystem::Engine,
            "precopy_iteration",
            vec![("index", index.into()), ("waiting", waiting.into())],
        );
        let stats = self.run_live_iteration(vm, clock, index, waiting)?;
        let rec = &self.recorder;
        rec.end_span(
            clock.now(),
            span,
            vec![
                ("pages_sent", stats.pages_sent.into()),
                ("bytes_sent", stats.bytes_sent.into()),
                ("skip_dirty", stats.pages_skipped_dirty.into()),
                ("skip_transfer", stats.pages_skipped_transfer.into()),
            ],
        );
        rec.gauge(
            clock.now(),
            Subsystem::Workload,
            "ops_completed",
            vm.ops_completed() as f64,
        );
        rec.hist_dur(Subsystem::Engine, "iteration_duration_ns", stats.duration);
        rec.hist(Subsystem::Engine, "iteration_pages_sent", stats.pages_sent);
        rec.hist(
            Subsystem::Engine,
            "iteration_transfer_pps",
            stats.transfer_rate_pps() as u64,
        );
        rec.hist(
            Subsystem::Engine,
            "iteration_dirty_pages",
            stats.pages_dirtied_during,
        );
        // Per-iteration dirty counts as an ordered series (cadence 0:
        // iteration-driven, not clocked) — the engine-side feed of the
        // workload observatory.
        rec.series_push(
            Subsystem::Engine,
            "iteration_dirty_pages",
            0,
            128,
            clock.now(),
            stats.pages_dirtied_during as f64,
        );
        self.iterations.push(stats);

        if let Some((fu, stragglers)) = self.ready {
            self.recorder.instant(
                clock.now(),
                Subsystem::Engine,
                "ready_received",
                vec![
                    ("final_update", fu.into()),
                    ("stragglers", stragglers.into()),
                ],
            );
            if stragglers > 0 && self.config.coord.degrade_on_stragglers {
                // The LKM gave up on some assistants; instead of trusting
                // its forcible un-skip, abandon assistance wholesale.
                self.degrade(clock.now(), FaultKind::AgentStraggler);
            }
            return self.finish(vm, clock);
        }
        if waiting && !self.assist {
            // Degraded while waiting for readiness: the stop policy
            // already fired, so go straight to the stop-and-copy.
            return self.finish(vm, clock);
        }
        if !waiting {
            let pending = self.pending_transferable(vm);
            let ram = self.npages * PAGE_SIZE;
            let stop = &self.config.stop;
            let reason = if self.iterations.len() as u32 >= stop.max_iterations {
                Some(StopReason::MaxIterations)
            } else if self.link.bytes_sent() as f64 > stop.max_factor * ram as f64 {
                Some(StopReason::TrafficCap)
            } else if pending <= stop.dirty_threshold_pages
                && self.cold.as_ref().is_none_or(|c| c.pending.all_clear())
            {
                // Convergence also requires the cold bulk stream to have
                // drained: deferred pages are still unsent state.
                Some(StopReason::DirtyThreshold)
            } else {
                None
            };
            if let Some(reason) = reason {
                self.stop_reason = Some(reason);
                self.recorder.instant(
                    clock.now(),
                    Subsystem::Engine,
                    "stop_condition",
                    vec![("reason", format!("{reason:?}").into())],
                );
                match &self.port {
                    Some(port) if self.assist => {
                        port.send(clock.now(), CoordPayload::EnteringLastIter);
                        self.recorder.instant(
                            clock.now(),
                            Subsystem::Engine,
                            "notified_lkm",
                            vec![],
                        );
                        self.t_enter_last = Some(clock.now());
                        self.coord.ready_since = Some(clock.now());
                        self.coord.ready_deadline =
                            Some(clock.now() + self.config.coord.ready_timeout);
                    }
                    _ => return self.finish(vm, clock),
                }
            }
        }

        // Next iteration transfers what was dirtied during this one. Pages
        // of the previous set never reached (or re-dirty-skipped) are dirty
        // again by construction, so the snapshot covers them.
        self.take_snapshot(vm);
        Ok(SessionStep::Yielded)
    }

    /// The epilogue of the run: stop-and-copy, resume, verification and
    /// report assembly.
    fn finish(
        &mut self,
        vm: &mut dyn MigratableVm,
        clock: &mut SimClock,
    ) -> Result<SessionStep, MigrateError> {
        self.finished = true;

        // Stop-and-copy: pause the VM and send everything still pending.
        let t_pause = clock.now();
        self.recorder
            .instant(t_pause, Subsystem::Engine, "paused", vec![]);
        let sc_span = self
            .recorder
            .begin_span(t_pause, Subsystem::Engine, "stop_and_copy", vec![]);
        let last_stats = self.run_stop_and_copy(vm, clock);
        let last_iter_duration = last_stats.duration;
        self.recorder.end_span(
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
        self.recorder.record_span(
            clock.now(),
            Subsystem::Engine,
            "resume",
            self.config.resume_time,
            vec![],
        );
        clock.advance(self.config.resume_time);
        self.recorder
            .instant(clock.now(), Subsystem::Engine, "resumed", vec![]);
        self.recorder.gauge(
            clock.now(),
            Subsystem::Workload,
            "ops_completed",
            vm.ops_completed() as f64,
        );
        if let Some(port) = &self.port {
            port.send(clock.now(), CoordPayload::VmResumed);
        }

        // Verification against the paused source: the skip set is the
        // negation of the final transfer bitmap. A degraded run abandoned
        // its skip-over areas, so every page must match.
        let skip_at_pause = match self.transfer(vm) {
            Some(tb) => {
                let mut skip = tb.clone();
                skip.invert();
                skip
            }
            None => Bitmap::new(self.npages),
        };
        let verification = self.dest.verify(vm.kernel(), &skip_at_pause);

        // Freeze the flight recorder and derive the downtime breakdown from
        // its spans where they exist; the LKM-message / VM-query fallbacks
        // keep unrecorded runs reporting identically.
        let rec = &self.recorder;
        rec.counter_add(Subsystem::Engine, "pages_scanned", self.scan_pages);
        rec.counter_add(
            Subsystem::Engine,
            "scan_cpu_ns",
            (self.config.cpu_cost_per_page_scan * self.scan_pages).as_nanos(),
        );
        if let Some(cold) = self.cold.as_mut() {
            cold.report.cold_pages = cold.map.count_set();
            let r = cold.report;
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
        rec.instant(
            clock.now(),
            Subsystem::Engine,
            "migration_outcome",
            vec![
                (
                    "kind",
                    match self.degraded {
                        Some(_) => "degraded_vanilla".into(),
                        None => "completed".into(),
                    },
                ),
                (
                    "fault",
                    match self.degraded {
                        Some(fault) => fault.name().into(),
                        None => "none".into(),
                    },
                ),
            ],
        );
        let telemetry = rec.snapshot();
        let (msg_final_update, stragglers) = self.ready.unwrap_or((SimDuration::ZERO, 0));
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
        let safepoint_wait = match self.t_enter_last {
            Some(t) => t_pause
                .saturating_since(t)
                .saturating_sub(enforced_gc)
                .saturating_sub(final_update),
            None => SimDuration::ZERO,
        };

        Ok(SessionStep::Complete(Box::new(MigrationReport {
            total_duration: clock.now().saturating_since(self.t0),
            total_bytes: self.link.bytes_sent(),
            downtime: DowntimeBreakdown {
                safepoint_wait,
                enforced_gc,
                final_update,
                last_iteration: last_iter_duration,
                resume: self.config.resume_time,
            },
            cpu_time: self.cpu,
            verification,
            traffic_by_class: self.by_class,
            stop_reason: self.stop_reason.unwrap_or(StopReason::DirtyThreshold),
            outcome: match self.degraded {
                Some(fault) => MigrationOutcome::DegradedVanilla { fault },
                None => MigrationOutcome::Completed,
            },
            cold: self.cold.take().map(|c| c.report),
            lkm: vm.kernel().lkm().map(|l| l.stats().clone()),
            stragglers,
            iterations: std::mem::take(&mut self.iterations),
            telemetry,
        })))
    }

    /// The LKM's transfer bitmap while the assisted protocol is live;
    /// `None` for vanilla and degraded runs, which consult no bitmap. The
    /// result borrows only `vm`, so a caller can hold it across sends.
    fn transfer<'v>(&self, vm: &'v dyn MigratableVm) -> Option<&'v Bitmap> {
        if !self.assist {
            return None;
        }
        vm.kernel()
            .lkm()
            .map(|lkm| lkm.transfer_bitmap().as_bitmap())
    }

    /// Abandons the assisted protocol: notify the LKM (`AbortAssist`, so it
    /// restores its transfer bitmap and releases held applications), stop
    /// consulting the transfer bitmap, and record the triggering fault.
    fn degrade(&mut self, now: SimTime, fault: FaultKind) {
        if !self.assist {
            return;
        }
        self.assist = false;
        self.degraded = Some(fault);
        if let Some(cold) = self.cold.as_mut() {
            // Deferred cold pages were split out of earlier snapshots and
            // never sent; they may no longer be dirty, so park them with the
            // deferred skips for re-examination at the stop-and-copy.
            self.deferred_skips.union_with(&cold.pending);
            cold.pending.clear_all();
        }
        if let Some(port) = &self.port {
            port.send(now, CoordPayload::AbortAssist);
            self.recorder.instant(
                now,
                Subsystem::Engine,
                "abort_assist_sent",
                vec![("fault", fault.name().into())],
            );
        }
        self.recorder.instant(
            now,
            Subsystem::Engine,
            "degraded",
            vec![("fault", fault.name().into())],
        );
    }

    /// Applies a scheduled mid-run link degrade once its time arrives.
    fn apply_link_plan(&mut self, now: SimTime) -> Result<(), MigrateError> {
        if let Some(plan) = self.link_plan {
            if now.saturating_since(self.t0) >= plan.after {
                self.link_plan = None;
                if plan.factor <= 0.0 {
                    return Err(MigrateError::LinkDown);
                }
                self.link.set_bandwidth(Bandwidth::from_bytes_per_sec(
                    self.base_bandwidth.bytes_per_sec() * plan.factor,
                ));
                self.recorder.instant(
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
        &mut self,
        port: &DaemonPort,
        now: SimTime,
    ) -> Result<(), MigrateError> {
        let (retry_limit, backoff) = (
            self.config.coord.retry_limit,
            self.config.coord.retry_backoff,
        );
        let coord = &mut self.coord;
        if !coord.begin_acked && coord.begin_deadline.is_some_and(|dl| now >= dl) {
            if coord.begin_attempts < retry_limit {
                coord.begin_attempts += 1;
                coord.begin_wait =
                    SimDuration::from_secs_f64(coord.begin_wait.as_secs_f64() * backoff);
                port.send(now, CoordPayload::MigrationBegin);
                coord.begin_sent_at = now;
                coord.begin_deadline = Some(now + coord.begin_wait);
                let attempt = coord.begin_attempts;
                self.record_retry(now, "migration_begin", attempt);
            } else {
                coord.begin_deadline = None;
                let waited = now.saturating_since(self.t0);
                return self.coord_exhausted(
                    now,
                    FaultKind::BeginAckTimeout,
                    CoordPhase::BeginAck,
                    waited,
                );
            }
        }
        let coord = &mut self.coord;
        if self.assist && self.ready.is_none() && coord.ready_deadline.is_some_and(|dl| now >= dl) {
            if coord.ready_attempts < retry_limit {
                coord.ready_attempts += 1;
                coord.ready_wait =
                    SimDuration::from_secs_f64(coord.ready_wait.as_secs_f64() * backoff);
                port.send(now, CoordPayload::EnteringLastIter);
                coord.ready_deadline = Some(now + coord.ready_wait);
                let attempt = coord.ready_attempts;
                self.record_retry(now, "entering_last_iter", attempt);
            } else {
                coord.ready_deadline = None;
                let waited = now.saturating_since(coord.ready_since.unwrap_or(self.t0));
                return self.coord_exhausted(
                    now,
                    FaultKind::ReadyTimeout,
                    CoordPhase::Ready,
                    waited,
                );
            }
        }
        Ok(())
    }

    fn record_retry(&self, now: SimTime, message: &'static str, attempt: u32) {
        self.recorder.instant(
            now,
            Subsystem::Engine,
            "coord_retry",
            vec![("message", message.into()), ("attempt", attempt.into())],
        );
    }

    fn coord_exhausted(
        &mut self,
        now: SimTime,
        fault: FaultKind,
        phase: CoordPhase,
        waited: SimDuration,
    ) -> Result<(), MigrateError> {
        match self.config.fallback {
            FallbackPolicy::Fail => Err(MigrateError::CoordTimeout { phase, waited }),
            FallbackPolicy::DegradeToVanilla => {
                self.degrade(now, fault);
                Ok(())
            }
        }
    }

    /// One live iteration: scan the snapshot, transferring at link speed
    /// while the guest keeps running. In `waiting` mode the iteration ends
    /// when the LKM reports readiness — or when the coordination machinery
    /// gives up and degrades the run.
    fn run_live_iteration(
        &mut self,
        vm: &mut dyn MigratableVm,
        clock: &mut SimClock,
        index: u32,
        waiting: bool,
    ) -> Result<IterationStats, MigrateError> {
        let start = clock.now();
        let pages_to_send = self.to_send.count_set();
        let quantum = self.config.quantum;
        let port = self.port.clone();
        let mut tally = IterTally::default();
        let mut quanta = 0u64;

        'outer: loop {
            // Send a quantum's worth of pages.
            let q_start = clock.now();
            let q_bytes = tally.bytes;
            let mut budget = self.link.budget(quantum) as i64;
            let mut cpu_budget = quantum;
            loop {
                match self.scan_quantum(&*vm, &mut tally, &mut budget, &mut cpu_budget) {
                    ScanExit::Budget => break,
                    ScanExit::Drained => {
                        if waiting && self.assist {
                            // Snapshot drained but the guest is still
                            // preparing: pick up newly dirtied pages under
                            // the same iteration box.
                            self.take_snapshot(vm);
                            tally.cursor = 0;
                            if self.to_send.all_clear() {
                                // No hot work left: hand the rest of the
                                // quantum to the cold bulk stream.
                                self.drain_cold_quantum(
                                    &*vm,
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
                        if !self.drain_cold_quantum(&*vm, &mut tally, &mut budget, &mut cpu_budget)
                        {
                            // Cold backlog outlived the quantum: let the
                            // guest run and keep the iteration going.
                            break;
                        }
                        // Credit the partial quantum's traffic before leaving.
                        self.link.sample_utilization(
                            q_start,
                            SimDuration::ZERO,
                            tally.bytes - q_bytes,
                        );
                        break 'outer;
                    }
                }
            }

            // Let the guest run for the quantum.
            vm.advance_guest(clock.now(), quantum);
            clock.advance(quantum);
            self.link
                .sample_utilization(q_start, quantum, tally.bytes - q_bytes);
            quanta += 1;

            self.apply_link_plan(clock.now())?;
            self.adopt_cold(&*vm);

            if let Some(port) = &port {
                if self.assist && self.ready.is_none() {
                    for msg in port.recv(clock.now()) {
                        match msg.payload {
                            CoordPayload::BeginAck => {
                                // The LKM re-acks every (retried) begin; only
                                // the first ack is a meaningful round-trip.
                                if !self.coord.begin_acked {
                                    self.recorder.hist_dur(
                                        Subsystem::Engine,
                                        "coord_begin_rtt_ns",
                                        clock.now().saturating_since(self.coord.begin_sent_at),
                                    );
                                }
                                self.coord.begin_acked = true;
                                self.coord.begin_deadline = None;
                            }
                            CoordPayload::ReadyToSuspend {
                                final_update,
                                stragglers,
                            } => {
                                if let Some(since) = self.coord.ready_since {
                                    self.recorder.hist_dur(
                                        Subsystem::Engine,
                                        "coord_ready_rtt_ns",
                                        clock.now().saturating_since(since),
                                    );
                                }
                                self.ready = Some((final_update, stragglers));
                            }
                            _ => {}
                        }
                    }
                    self.check_coord_deadlines(port, clock.now())?;
                }
            }
            if waiting && (self.ready.is_some() || !self.assist) {
                break;
            }
        }

        // An empty iteration still costs (at least) one bitmap read.
        if quanta == 0 {
            vm.advance_guest(clock.now(), quantum);
            clock.advance(quantum);
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

    /// Reads and clears the dirty log into a fresh hot snapshot, then
    /// splits the cold pages out of it (the defer action).
    fn take_snapshot(&mut self, vm: &mut dyn MigratableVm) {
        let snapshot = vm
            .kernel_mut()
            .memory_mut()
            .dirty_log_mut()
            .read_and_clear();
        self.ever_dirtied.union_with(&snapshot);
        self.to_send = snapshot;
        if self.assist {
            if let Some(cold) = self.cold.as_mut() {
                cold.split(&mut self.to_send);
            }
        }
    }

    /// The scan half of one quantum: classify snapshot words where the walk
    /// reads them and send each word's sendable pages, until a budget runs
    /// out ([`ScanExit::Budget`]) or the snapshot has no set bit at or after
    /// the cursor ([`ScanExit::Drained`]). The guest does not run inside a
    /// quantum, so the dirty log and the transfer bitmap read here are
    /// frozen.
    fn scan_quantum(
        &mut self,
        vm: &dyn MigratableVm,
        tally: &mut IterTally,
        budget: &mut i64,
        cpu_budget: &mut SimDuration,
    ) -> ScanExit {
        let dirty = vm.kernel().memory().dirty_log().peek_ref();
        let transfer = self.transfer(vm);
        while *budget > 0 && !cpu_budget.is_zero() {
            let Some(first) = self.to_send.next_set_at(tally.cursor) else {
                return ScanExit::Drained;
            };
            let wi = (first.0 / 64) as usize;
            // Processed pages always leave the snapshot, so the whole word
            // is still-pending work; whatever the walk never reaches is the
            // leftover the next quantum (or the stop-and-copy) inherits.
            let w = self.to_send.words()[wi];
            let class = WordClass::of(w, dirty.words()[wi], transfer.map(|t| t.words()[wi]));
            let reached = self.send_word(vm, tally, wi, class.sends, budget, cpu_budget);
            self.retire(
                tally,
                wi,
                w & reached,
                class.skips_transfer,
                class.skips_dirty,
            );
            self.to_send.clear_bits_in_word(wi, w & reached);
            tally.cursor = wi as u64 * 64 + u64::from(reached.count_ones());
        }
        ScanExit::Budget
    }

    /// The one word sender: walks the pages of `sends` (word `wi`) in PFN
    /// order through [`Self::transmit_page`], stopping at the send that
    /// uses up the link or the CPU budget. Link bytes, class bytes and CPU
    /// are booked once for the word, and the pages and bytes go to `tally`.
    ///
    /// Returns the mask of the pages the walk reached: `u64::MAX` when it
    /// did not stop early, otherwise every page up to and including the
    /// send it stopped at. Pages above that stay pending, exactly as a
    /// per-page scan would leave them.
    fn send_word(
        &mut self,
        vm: &dyn MigratableVm,
        tally: &mut IterTally,
        wi: usize,
        mut sends: u64,
        budget: &mut i64,
        cpu_budget: &mut SimDuration,
    ) -> u64 {
        let mut reached = u64::MAX;
        let mut word_wire = 0u64;
        let mut word_cpu = SimDuration::ZERO;
        let mut class_bytes = [0u64; PageClass::ALL.len()];
        while sends != 0 {
            let bit = sends.trailing_zeros();
            sends &= sends - 1;
            let (wire, cpu, class) = self.transmit_page(vm, Pfn(wi as u64 * 64 + u64::from(bit)));
            *budget -= wire as i64;
            *cpu_budget = cpu_budget.saturating_sub(cpu);
            tally.sent += 1;
            word_wire += wire;
            class_bytes[class.index()] += wire;
            word_cpu +=
                cpu + SimDuration::from_secs_f64(wire as f64 * self.config.cpu_cost_per_byte);
            if *budget <= 0 || cpu_budget.is_zero() {
                reached = u64::MAX >> (63 - bit);
                break;
            }
        }
        tally.bytes += word_wire;
        self.link.record_send(word_wire);
        for class in PageClass::ALL {
            let b = class_bytes[class.index()];
            if b != 0 {
                self.by_class.add(class, b);
            }
        }
        self.cpu += word_cpu;
        reached
    }

    /// Books the pages `done` of word `wi` that a walk reached: one scan
    /// charge per page, the dirty and transfer skips among them, and the
    /// vetoed pages, which join the deferred skips. Skips cost no link
    /// budget.
    fn retire(
        &mut self,
        tally: &mut IterTally,
        wi: usize,
        done: u64,
        skips_transfer: u64,
        skips_dirty: u64,
    ) {
        let scanned = u64::from(done.count_ones());
        self.cpu += self.config.cpu_cost_per_page_scan * scanned;
        self.scan_pages += scanned;
        tally.skip_dirty += u64::from((done & skips_dirty).count_ones());
        tally.skip_transfer += u64::from((done & skips_transfer).count_ones());
        self.deferred_skips
            .set_bits_in_word(wi, done & skips_transfer);
    }

    /// The stop-and-copy: VM paused, remaining pages pushed at line rate.
    fn run_stop_and_copy(
        &mut self,
        vm: &mut dyn MigratableVm,
        clock: &mut SimClock,
    ) -> IterationStats {
        let start = clock.now();
        // Everything still dirty, everything left over from the interrupted
        // snapshot, and every page we ever skipped on transfer-bit grounds —
        // all filtered through the *final* transfer bitmap below.
        let mut sendable = vm
            .kernel_mut()
            .memory_mut()
            .dirty_log_mut()
            .read_and_clear();
        self.ever_dirtied.union_with(&sendable);
        sendable.union_with(&self.to_send);
        sendable.union_with(&self.deferred_skips);
        if let Some(cold) = self.cold.as_mut() {
            // The cold backlog never shipped live: it rides the
            // stop-and-copy (as deltas where the cache holds a prior
            // version).
            cold.report.pending_at_pause = cold.pending.count_set();
            sendable.union_with(&cold.pending);
            cold.pending.clear_all();
        }
        if self.config.last_iter_considers_all_dirtied {
            sendable.union_with(&self.ever_dirtied);
        }

        // The VM is paused, so the final transfer bitmap is immutable: the
        // whole skip classification collapses to one word-wise intersection,
        // and every surviving bit is a send. A degraded run ignores the
        // bitmap entirely — everything pending goes on the wire.
        let pages_to_send = sendable.count_set();
        self.cpu += self.config.cpu_cost_per_page_scan * pages_to_send;
        self.scan_pages += pages_to_send;
        let vm = &*vm;
        let skip_transfer = match self.transfer(vm) {
            Some(tb) => {
                let skipped = sendable.count_and_not(tb);
                sendable.intersect_with(tb);
                skipped
            }
            None => 0,
        };

        // Paused, so no budget limits the walk.
        let mut tally = IterTally::default();
        let (mut budget, mut cpu_budget) = (i64::MAX, SimDuration::MAX);
        for (wi, &sends) in sendable.words().iter().enumerate() {
            if sends != 0 {
                self.send_word(vm, &mut tally, wi, sends, &mut budget, &mut cpu_budget);
            }
        }
        // The VM is paused: transfer time passes without guest execution.
        let duration = self.link.time_to_send(tally.bytes);
        self.link.sample_utilization(start, duration, tally.bytes);
        clock.advance(duration);

        IterationStats {
            index: self.iterations.len() as u32 + 1,
            start,
            duration,
            pages_to_send,
            pages_sent: tally.sent,
            bytes_sent: tally.bytes,
            pages_skipped_dirty: 0,
            pages_skipped_transfer: skip_transfer,
            pages_dirtied_during: 0,
        }
    }

    /// Computes the wire cost of one page and stores it at the destination.
    ///
    /// Traffic and CPU accounting are left to [`Self::send_word`], which
    /// batches them per word; returns (wire bytes, compression CPU, class).
    fn transmit_page(&mut self, vm: &dyn MigratableVm, pfn: Pfn) -> (u64, SimDuration, PageClass) {
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
        if self.assist {
            if let Some(cold) = self.cold.as_mut() {
                if let Some(cache) = cold.delta.as_mut() {
                    if self.dest.has_received(pfn) {
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
        self.dest.receive(pfn, page);
        (wire, cpu, page.class)
    }

    /// Folds the LKM's latest cold-region map into the engine's classifier.
    /// Newly cold pages are masked out of the live hot snapshot into the
    /// deferred backlog when the defer action is on; the delta action keys
    /// off the accumulated map alone.
    ///
    /// Runs after every quantum but costs O(1) when nothing changed: the
    /// LKM map only grows during a migration and the LKM counts the bits
    /// it sets ([`guestos::lkm::Lkm::cold_count`]), so the word-wise diff
    /// runs only when that count moved — at most once per application
    /// reply.
    fn adopt_cold(&mut self, vm: &dyn MigratableVm) {
        if !self.assist {
            return;
        }
        let Some(cold) = self.cold.as_mut() else {
            return;
        };
        let Some(lkm) = vm.kernel().lkm() else {
            return;
        };
        if let Some(lkm_cold) = lkm.cold_bitmap() {
            cold.adopt(lkm_cold, lkm.cold_count(), &mut self.to_send);
        }
    }

    /// Drains the deferred cold backlog through the remaining quantum
    /// budget — the low-priority bulk stream. Runs only once the hot
    /// snapshot is empty, so hot iterations always take precedence.
    /// Returns `true` when no cold work remains (or none exists).
    ///
    /// The drain visits the backlog in PFN order from its lowest pending
    /// page, resuming at `ColdState::drain_from` rather than PFN 0, and
    /// classifies each backlog word once. A page re-dirtied since it was
    /// deferred is a dirty skip: it rides the next dirty snapshot instead
    /// (Xen's skip-if-redirtied, applied to the bulk stream). A page the
    /// transfer bitmap vetoes joins the deferred skips: a deferred page
    /// inside a skip-over area is the application's to drop, not ours. A
    /// page that is both stays a dirty skip. The sends go through the same
    /// word sender as the hot scan, so the budget cuts off at the same page
    /// as a per-page scan.
    fn drain_cold_quantum(
        &mut self,
        vm: &dyn MigratableVm,
        tally: &mut IterTally,
        budget: &mut i64,
        cpu_budget: &mut SimDuration,
    ) -> bool {
        if !self.assist || self.cold.as_ref().is_none_or(|c| !c.defer) {
            return true;
        }
        let dirty = vm.kernel().memory().dirty_log().peek_ref();
        let transfer = self.transfer(vm);
        let (sent, bytes) = (tally.sent, tally.bytes);
        let drained = loop {
            let cold = self.cold.as_mut().expect("cold state");
            let Some(first) = cold.pending.next_set_at(cold.drain_from) else {
                cold.drain_from = cold.pending.len();
                break true;
            };
            cold.drain_from = first.0;
            if *budget <= 0 || cpu_budget.is_zero() {
                break false;
            }
            let wi = (first.0 / 64) as usize;
            let w = cold.pending.words()[wi];
            let d = dirty.words()[wi];
            let t = transfer.map_or(u64::MAX, |t| t.words()[wi]);
            let reached = self.send_word(vm, tally, wi, w & !d & t, budget, cpu_budget);
            self.retire(tally, wi, w & reached, w & !d & !t, w & d);
            let cold = self.cold.as_mut().expect("cold state");
            cold.pending.clear_bits_in_word(wi, w & reached);
        };
        let cold = self.cold.as_mut().expect("cold state");
        cold.report.deferred_sent_pages += tally.sent - sent;
        cold.report.deferred_sent_bytes += tally.bytes - bytes;
        drained
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
    fn pending_transferable(&self, vm: &dyn MigratableVm) -> u64 {
        let log = vm.kernel().memory().dirty_log();
        match self.transfer(vm) {
            // An allocation-free word-AND popcount over both bitmaps.
            Some(tb) => log.peek_ref().count_and(tb),
            None => log.dirty_count(),
        }
    }
}
