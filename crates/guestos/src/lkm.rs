//! The Loadable Kernel Module: coordinator of application-assisted migration.
//!
//! The LKM is the system-level component of the framework (§3.3). It:
//!
//! * relays messages between the migration daemon (event channel) and the
//!   assisting applications (netlink multicast), bridging the
//!   *communication gap*;
//! * translates application-supplied VA ranges into PFNs by page-table
//!   walks, bridging the *semantic gap*;
//! * owns the transfer bitmap and keeps it current through the first update
//!   (migration begin), immediate shrink updates, and the final update right
//!   before the last iteration (§3.3.4);
//! * caches the PFNs of skip-over pages so shrink notifications can be
//!   answered after the underlying frames were reclaimed;
//! * transitions through the five operating states of Figure 4 — including
//!   the [`LkmState::Degraded`] terminal of the degradation ladder — and
//!   handles stragglers with a reply deadline (§6).
//!
//! All coordination rides [`CoordMsg`] envelopes. The LKM gates daemon
//! messages by sequence number: retries (fresh seq) are re-handled
//! idempotently, transport duplicates and stale reorderings (seq at or
//! below the watermark) are counted and dropped. Application messages are
//! deduplicated per pid the same way; a message lost there is reconciled by
//! the final bitmap update or, past the reply deadline, by straggler
//! handling — never by hanging.

use crate::coord::{CoordMsg, CoordPayload};
use crate::evtchn::{channel_pair, LkmPort};
use crate::netlink::KernelNetlink;
use crate::process::{Pid, Process};
use simkit::{Recorder, SimDuration, SimTime, Subsystem};
use std::collections::BTreeMap;
use vmem::addr::subtract_ranges;
use vmem::{Bitmap, PageTable, Pfn, TransferBitmap, VaRange, Vaddr, PAGE_SIZE};

pub use crate::evtchn::DaemonPort;

/// CPU time per page-table walk step (one page looked up).
const WALK_COST_PER_PAGE: SimDuration = SimDuration::from_nanos(90);
/// CPU time per transfer-bitmap bit flipped.
const BIT_COST_PER_PAGE: SimDuration = SimDuration::from_nanos(30);
/// Modelled bytes per PFN-cache entry. The paper sizes the cache at 4
/// bytes per entry: 1 MiB per GiB of skip-over area, a 0.1% overhead
/// (§3.3.4).
const PFN_CACHE_ENTRY_BYTES: u64 = 4;

/// Tunable policies of the LKM.
///
/// Start from [`LkmConfig::default`] (the paper's calibration) with
/// struct-update syntax.
#[derive(Debug, Clone)]
pub struct LkmConfig {
    /// Deadline for application replies to `PrepareSuspension`; stragglers
    /// past this deadline are forcibly un-skipped so migration is not
    /// delayed unboundedly (§6).
    pub reply_timeout: SimDuration,
    /// Use the §3.3.4 alternative final-update strategy: re-walk all
    /// skip-over areas instead of relying on shrink notifications. Slower
    /// final update, no intermediate bookkeeping.
    pub rewalk_final_update: bool,
    /// Number of worker threads the LKM uses for page-table walks and
    /// bitmap updates (§6: "investigating parallelization of transfer
    /// bitmap updates to handle large skip-over areas efficiently").
    pub walk_parallelism: u32,
}

impl Default for LkmConfig {
    fn default() -> Self {
        Self {
            reply_timeout: SimDuration::from_secs(5),
            rewalk_final_update: false,
            walk_parallelism: 1,
        }
    }
}

/// The LKM's operating state (Figure 4, plus the degraded terminal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LkmState {
    /// Loaded and ready for a migration.
    Initialized,
    /// Migration in progress; first bitmap update done/ongoing.
    MigrationStarted,
    /// Waiting for applications to prepare for suspension.
    EnteringLastIter,
    /// Final bitmap update done; daemon told to pause the VM.
    SuspensionReady,
    /// Assistance aborted: every transfer-bitmap exclusion has been
    /// cleared and the migration completes as vanilla pre-copy. Left only
    /// by `VmResumed`.
    Degraded,
}

impl LkmState {
    /// Stable upper-case name used in telemetry state-transition events.
    pub fn name(self) -> &'static str {
        match self {
            LkmState::Initialized => "INITIALIZED",
            LkmState::MigrationStarted => "MIGRATION_STARTED",
            LkmState::EnteringLastIter => "ENTERING_LAST_ITER",
            LkmState::SuspensionReady => "SUSPENSION_READY",
            LkmState::Degraded => "DEGRADED",
        }
    }

    /// Histogram name for time spent dwelling in this state before leaving
    /// it (recorded on every outgoing transition).
    pub fn dwell_metric(self) -> &'static str {
        match self {
            LkmState::Initialized => "dwell_initialized_ns",
            LkmState::MigrationStarted => "dwell_migration_started_ns",
            LkmState::EnteringLastIter => "dwell_entering_last_iter_ns",
            LkmState::SuspensionReady => "dwell_suspension_ready_ns",
            LkmState::Degraded => "dwell_degraded_ns",
        }
    }
}

/// Counters and timings the LKM accumulates across one migration.
#[derive(Debug, Clone, Default)]
pub struct LkmStats {
    /// Pages whose transfer bits were cleared in the first update.
    pub first_update_pages: u64,
    /// CPU time of the first update (walks + bit flips).
    pub first_update_duration: SimDuration,
    /// Pages cleared by the final update (expansion).
    pub final_expand_pages: u64,
    /// Pages set by the final update (shrink + must-send).
    pub final_set_pages: u64,
    /// CPU time of the final update.
    pub final_update_duration: SimDuration,
    /// Number of shrink notifications processed.
    pub shrink_events: u64,
    /// Pages un-skipped by shrink notifications.
    pub shrink_pages: u64,
    /// Pages marked cold in the cold bitmap (cold-assist migrations only).
    pub cold_map_pages: u64,
    /// Applications that missed the suspension-prep deadline.
    pub stragglers: u32,
    /// Peak PFN-cache footprint in bytes.
    pub peak_cache_bytes: u64,
    /// Duplicate or stale coordination messages discarded by seq gating.
    pub dup_msgs: u64,
}

#[derive(Debug, Default)]
struct AppRecord {
    /// Remembered (page-aligned) skip-over areas.
    areas: Vec<VaRange>,
    /// The PFN cache: a VA→PFN table of the pages whose transfer bits this
    /// application's areas cleared, drained when an area shrinks.
    cache: PageTable,
    suspension_ready: bool,
    straggler: bool,
}

/// The Loadable Kernel Module.
pub struct Lkm {
    config: LkmConfig,
    state: LkmState,
    npages: u64,
    transfer: TransferBitmap,
    /// PFNs applications reported as live-but-cold. `None` until the daemon
    /// asks for a cold map ([`CoordPayload::QueryColdMap`]), so migrations
    /// without the cold assist never allocate or touch it.
    cold: Option<Bitmap>,
    apps: BTreeMap<Pid, AppRecord>,
    netlink: KernelNetlink,
    port: LkmPort,
    prepare_deadline: Option<SimTime>,
    pending_final_update: SimDuration,
    /// Highest daemon seq handled; retries arrive above it, duplicates and
    /// stale reorderings at or below it.
    last_daemon_seq: u64,
    /// Per-application seq watermarks for duplicate suppression.
    app_seq_seen: BTreeMap<Pid, u64>,
    stats: LkmStats,
    telemetry: Recorder,
    /// When the current state was entered; feeds the per-state dwell-time
    /// histograms.
    state_since: SimTime,
}

impl Lkm {
    /// Loads the LKM: creates the transfer bitmap and the event channel,
    /// returning the daemon-side endpoint.
    pub fn load(npages: u64, netlink: KernelNetlink, config: LkmConfig) -> (Self, DaemonPort) {
        let (daemon_port, lkm_port) = channel_pair();
        (
            Self {
                config,
                state: LkmState::Initialized,
                npages,
                transfer: TransferBitmap::new(npages),
                cold: None,
                apps: BTreeMap::new(),
                netlink,
                port: lkm_port,
                prepare_deadline: None,
                pending_final_update: SimDuration::ZERO,
                last_daemon_seq: 0,
                app_seq_seen: BTreeMap::new(),
                stats: LkmStats::default(),
                telemetry: Recorder::disabled(),
                state_since: SimTime::ZERO,
            },
            daemon_port,
        )
    }

    /// Attaches a telemetry recorder; every state transition, bitmap-update
    /// span and walk counter of subsequent migrations lands in it.
    pub fn attach_telemetry(&mut self, recorder: Recorder) {
        self.telemetry = recorder;
    }

    /// Returns the current operating state.
    pub fn state(&self) -> LkmState {
        self.state
    }

    /// Moves to `to`, emitting a telemetry state-transition event and a
    /// dwell-time histogram sample for the state being left.
    fn set_state(&mut self, now: SimTime, to: LkmState) {
        let from = self.state;
        self.state = to;
        self.telemetry.hist_dur(
            Subsystem::Lkm,
            from.dwell_metric(),
            now.saturating_since(self.state_since),
        );
        self.state_since = now;
        self.telemetry.instant(
            now,
            Subsystem::Lkm,
            "state_transition",
            vec![("from", from.name().into()), ("to", to.name().into())],
        );
    }

    /// Returns whether a page should be transferred when dirty.
    pub fn should_transfer(&self, pfn: Pfn) -> bool {
        self.transfer.should_transfer(pfn)
    }

    /// Returns a reference to the transfer bitmap (shared with the daemon
    /// when migration begins, §3.3.3).
    pub fn transfer_bitmap(&self) -> &TransferBitmap {
        &self.transfer
    }

    /// Whether the LKM uses the §3.3.4 re-walk final-update strategy,
    /// under which the stop-and-copy must consider every page dirtied
    /// during the migration.
    pub fn rewalks_final_update(&self) -> bool {
        self.config.rewalk_final_update
    }

    /// Returns the cold bitmap, if the daemon asked for one and at least
    /// one application has replied. Pages marked here are live-but-cold:
    /// the engine may defer or delta-encode them, never skip them.
    pub fn cold_bitmap(&self) -> Option<&Bitmap> {
        self.cold.as_ref()
    }

    /// Returns the number of bits set in [`Lkm::cold_bitmap`] (0 without
    /// a map) in O(1): the count of bits `ColdRegions` replies newly set,
    /// which is reset together with the map at a fresh `MigrationBegin`.
    pub fn cold_count(&self) -> u64 {
        self.cold.as_ref().map_or(0, |_| self.stats.cold_map_pages)
    }

    /// Returns the stats accumulated for the current/most recent migration.
    pub fn stats(&self) -> &LkmStats {
        &self.stats
    }

    /// Returns the memory footprint of the LKM's data structures: transfer
    /// bitmap plus all PFN caches (the paper reports ≤1 MiB total).
    pub fn memory_footprint(&self) -> u64 {
        self.transfer.byte_size()
            + self.cold.as_ref().map_or(0, Bitmap::byte_size)
            + self.cache_bytes()
    }

    /// Drains and processes all pending daemon and application messages.
    ///
    /// Call once per simulation tick with the kernel's process table, which
    /// the LKM needs for page-table walks.
    pub fn service(&mut self, now: SimTime, procs: &BTreeMap<Pid, Process>) {
        for msg in self.port.recv(now) {
            self.on_daemon_msg(now, msg);
        }
        for (pid, msg) in self.netlink.recv(now) {
            self.on_app_msg(now, pid, msg, procs);
        }
        self.check_deadline(now);
        self.maybe_finish_final_update(now);
    }

    fn on_daemon_msg(&mut self, now: SimTime, msg: CoordMsg) {
        let fresh = msg.seq > self.last_daemon_seq;
        if fresh {
            self.last_daemon_seq = msg.seq;
        } else {
            self.stats.dup_msgs += 1;
        }
        match msg.payload {
            CoordPayload::MigrationBegin => {
                // Always (re-)acknowledge: the daemon retries with backoff
                // until it sees the ack, and re-acking is free.
                self.port.send(now, CoordPayload::BeginAck);
                if fresh && self.state == LkmState::Initialized {
                    self.set_state(now, LkmState::MigrationStarted);
                    self.stats = LkmStats::default();
                    self.pending_final_update = SimDuration::ZERO;
                    self.cold = None;
                    for rec in self.apps.values_mut() {
                        rec.suspension_ready = false;
                        rec.straggler = false;
                    }
                    // Track every current subscriber: an assistant that goes
                    // fully silent must surface as a straggler at the reply
                    // deadline, not be silently un-waited.
                    for pid in self.netlink.subscriber_pids() {
                        self.apps.entry(pid).or_default();
                    }
                    self.netlink.multicast(now, CoordPayload::QuerySkipOver);
                } else if fresh && self.state == LkmState::MigrationStarted {
                    // Daemon retry (our ack was lost). Re-querying is
                    // idempotent: already-cleared bits stay cleared.
                    self.netlink.multicast(now, CoordPayload::QuerySkipOver);
                }
            }
            CoordPayload::EnteringLastIter => match self.state {
                LkmState::MigrationStarted if fresh => {
                    self.set_state(now, LkmState::EnteringLastIter);
                    self.prepare_deadline = Some(now + self.config.reply_timeout);
                    self.netlink.multicast(now, CoordPayload::PrepareSuspension);
                }
                LkmState::EnteringLastIter if fresh => {
                    // Retry: re-prompt the applications but keep the original
                    // straggler deadline so retries cannot extend it forever.
                    self.netlink.multicast(now, CoordPayload::PrepareSuspension);
                }
                LkmState::SuspensionReady => {
                    // The daemon did not see our ready notification: repeat.
                    self.send_ready(now);
                }
                _ => {}
            },
            CoordPayload::QueryColdMap => {
                // Idempotent: re-querying costs one multicast and replies
                // only re-set already-set cold bits, so daemon retries need
                // no special casing beyond the seq gate.
                let tracking = matches!(
                    self.state,
                    LkmState::MigrationStarted | LkmState::EnteringLastIter
                );
                if fresh && tracking {
                    self.netlink.multicast(now, CoordPayload::QueryColdRegions);
                }
            }
            CoordPayload::AbortAssist => {
                if fresh && self.state != LkmState::Degraded {
                    self.abort_assist(now);
                }
            }
            CoordPayload::VmResumed => {
                if fresh {
                    self.netlink.multicast(now, CoordPayload::VmResumed);
                    self.reset_after_migration(now);
                }
            }
            other => {
                self.telemetry.instant(
                    now,
                    Subsystem::Lkm,
                    "protocol_violation",
                    vec![("payload", other.name().into())],
                );
            }
        }
    }

    fn on_app_msg(
        &mut self,
        now: SimTime,
        pid: Pid,
        msg: CoordMsg,
        procs: &BTreeMap<Pid, Process>,
    ) {
        // Seq gate: transport duplicates and stale reorderings are dropped.
        // A stale message carries information the final bitmap update (or
        // straggler handling) reconciles anyway, so dropping is safe; a
        // duplicate must not double-apply shrink stats.
        let seen = self.app_seq_seen.entry(pid).or_insert(0);
        if msg.seq <= *seen {
            self.stats.dup_msgs += 1;
            return;
        }
        *seen = msg.seq;
        match msg.payload {
            CoordPayload::SkipOverAreas(areas) => {
                if self.state == LkmState::MigrationStarted {
                    self.first_update(now, pid, &areas, procs);
                }
            }
            CoordPayload::AreaShrunk { left } => {
                let tracking = matches!(
                    self.state,
                    LkmState::MigrationStarted
                        | LkmState::EnteringLastIter
                        | LkmState::SuspensionReady
                );
                if tracking && !self.config.rewalk_final_update {
                    self.shrink_update(now, pid, &left);
                }
            }
            CoordPayload::SuspensionReady { areas, must_send } => {
                if self.state == LkmState::EnteringLastIter {
                    self.final_update_for(now, pid, &areas, &must_send, procs);
                }
            }
            CoordPayload::ColdRegions(areas) => {
                let tracking = matches!(
                    self.state,
                    LkmState::MigrationStarted | LkmState::EnteringLastIter
                );
                if tracking {
                    self.cold_update(now, pid, &areas, procs);
                }
            }
            other => {
                self.telemetry.instant(
                    now,
                    Subsystem::Lkm,
                    "protocol_violation",
                    vec![("payload", other.name().into()), ("pid", pid.0.into())],
                );
            }
        }
    }

    /// First transfer-bitmap update: clear the bits of every page found in
    /// the application's skip-over areas, caching the PFNs (§3.3.4).
    fn first_update(
        &mut self,
        now: SimTime,
        pid: Pid,
        areas: &[VaRange],
        procs: &BTreeMap<Pid, Process>,
    ) {
        let Some(proc) = procs.get(&pid) else {
            return;
        };
        let rec = self.apps.entry(pid).or_default();
        let mut walked = 0u64;
        let mut cleared = 0u64;
        for area in areas {
            let aligned = area.align_inward();
            if aligned.is_empty() {
                continue;
            }
            for (vpn, pfn) in proc.page_table.walk_range(aligned) {
                walked += 1;
                if self.transfer.clear(pfn) {
                    cleared += 1;
                }
                rec.cache.map(Vaddr(vpn * PAGE_SIZE), pfn);
            }
            rec.areas.push(aligned);
        }
        let cost = self.parallel_cost(walked, cleared);
        self.stats.first_update_pages += cleared;
        self.stats.first_update_duration += cost;
        self.stats.peak_cache_bytes = self.stats.peak_cache_bytes.max(self.cache_bytes());
        self.telemetry
            .counter_add(Subsystem::Lkm, "pages_walked", walked);
        self.telemetry
            .counter_add(Subsystem::Lkm, "bits_cleared", cleared);
        // Walk sizes as an ordered series (cadence 0: update-driven) — the
        // LKM-side feed of the workload observatory.
        self.telemetry
            .series_push(Subsystem::Lkm, "walk_pages", 0, 128, now, walked as f64);
        self.telemetry.record_span(
            now,
            Subsystem::Lkm,
            "first_bitmap_update",
            cost,
            vec![
                ("pid", pid.0.into()),
                ("walked", walked.into()),
                ("cleared", cleared.into()),
            ],
        );
    }

    /// Cold-map update: translate an application's cold VA ranges into PFNs
    /// and set their bits in the cold bitmap. Unlike the transfer bitmap the
    /// cold map never suppresses a transfer — the engine only reads it to
    /// reschedule or delta-encode pages — so a stale entry is a lost
    /// optimisation, not a correctness hazard, and no shrink bookkeeping or
    /// PFN caching is needed.
    fn cold_update(
        &mut self,
        now: SimTime,
        pid: Pid,
        areas: &[VaRange],
        procs: &BTreeMap<Pid, Process>,
    ) {
        let Some(proc) = procs.get(&pid) else {
            return;
        };
        let npages = self.npages;
        let cold = self.cold.get_or_insert_with(|| Bitmap::new(npages));
        let mut walked = 0u64;
        let mut marked = 0u64;
        for area in areas {
            let aligned = area.align_inward();
            if aligned.is_empty() {
                continue;
            }
            for (_vpn, pfn) in proc.page_table.walk_range(aligned) {
                walked += 1;
                if cold.set(pfn) {
                    marked += 1;
                }
            }
        }
        let cost = self.parallel_cost(walked, marked);
        self.stats.cold_map_pages += marked;
        self.telemetry
            .counter_add(Subsystem::Lkm, "cold_pages_walked", walked);
        self.telemetry
            .counter_add(Subsystem::Lkm, "cold_bits_set", marked);
        self.telemetry.record_span(
            now,
            Subsystem::Lkm,
            "cold_map_update",
            cost,
            vec![
                ("pid", pid.0.into()),
                ("walked", walked.into()),
                ("marked", marked.into()),
            ],
        );
    }

    /// Immediate shrink update: the PFNs of pages leaving an area are fetched
    /// from the PFN cache (not the page tables — the frames may already be
    /// reclaimed) and their transfer bits are set (§3.3.4).
    fn shrink_update(&mut self, now: SimTime, pid: Pid, left: &[VaRange]) {
        let Some(rec) = self.apps.get_mut(&pid) else {
            return;
        };
        self.stats.shrink_events += 1;
        let mut set = 0u64;
        for range in left {
            for pfn in rec.cache.unmap_range(*range) {
                if self.transfer.set(pfn) {
                    set += 1;
                }
            }
        }
        rec.areas = subtract_ranges(&rec.areas, left)
            .into_iter()
            .map(|r| r.align_inward())
            .filter(|r| !r.is_empty())
            .collect();
        self.stats.shrink_pages += set;
        self.telemetry.counter_add(Subsystem::Lkm, "bits_set", set);
        self.telemetry.record_span(
            now,
            Subsystem::Lkm,
            "shrink_update",
            BIT_COST_PER_PAGE * set,
            vec![("pid", pid.0.into()), ("pages", set.into())],
        );
    }

    /// Final transfer-bitmap update for one suspension-ready application:
    /// reconcile expanded and shrunk space, then force transfer of the
    /// `must_send` ranges (the From space holding enforced-GC survivors).
    fn final_update_for(
        &mut self,
        now: SimTime,
        pid: Pid,
        new_areas: &[VaRange],
        must_send: &[VaRange],
        procs: &BTreeMap<Pid, Process>,
    ) {
        let Some(proc) = procs.get(&pid) else {
            return;
        };
        let rec = self.apps.entry(pid).or_default();
        let new_aligned: Vec<VaRange> = new_areas
            .iter()
            .map(|r| r.align_inward())
            .filter(|r| !r.is_empty())
            .collect();
        let mut walked = 0u64;
        let mut flips = 0u64;

        if self.config.rewalk_final_update {
            // Alternative strategy (§3.3.4): forget the incremental state,
            // un-skip everything previously cleared, and re-walk the current
            // areas from scratch. Costs a full walk of old + new areas.
            for pfn in rec.cache_drain() {
                if self.transfer.set(pfn) {
                    flips += 1;
                }
            }
            for area in &new_aligned {
                for (vpn, pfn) in proc.page_table.walk_range(*area) {
                    walked += 1;
                    if self.transfer.clear(pfn) {
                        flips += 1;
                    }
                    rec.cache.map(Vaddr(vpn * PAGE_SIZE), pfn);
                }
            }
        } else {
            // Expanded space: pages joining the areas get their bits cleared
            // now (deferred from during migration, §3.3.4).
            let expanded = subtract_ranges(&new_aligned, &rec.areas);
            for range in &expanded {
                for (vpn, pfn) in proc.page_table.walk_range(*range) {
                    walked += 1;
                    if self.transfer.clear(pfn) {
                        flips += 1;
                        self.stats.final_expand_pages += 1;
                    }
                    rec.cache.map(Vaddr(vpn * PAGE_SIZE), pfn);
                }
            }
            // Shrunk space: pages that left since the last notification.
            let shrunk = subtract_ranges(&rec.areas, &new_aligned);
            for range in &shrunk {
                for pfn in rec.cache.unmap_range(*range) {
                    if self.transfer.set(pfn) {
                        flips += 1;
                        self.stats.final_set_pages += 1;
                    }
                }
            }
        }

        // Must-send ranges "leave" the areas: their live contents (e.g. the
        // occupied From space) must go out in the last iteration.
        for range in must_send {
            for pfn in rec.cache.unmap_range(*range) {
                if self.transfer.set(pfn) {
                    flips += 1;
                    self.stats.final_set_pages += 1;
                }
            }
        }

        rec.areas = new_aligned;
        rec.suspension_ready = true;
        let cost = self.parallel_cost(walked, flips);
        self.pending_final_update += cost;
        self.stats.peak_cache_bytes = self.stats.peak_cache_bytes.max(self.cache_bytes());
        self.telemetry
            .counter_add(Subsystem::Lkm, "pages_walked", walked);
        self.telemetry
            .series_push(Subsystem::Lkm, "walk_pages", 0, 128, now, walked as f64);
        self.telemetry.record_span(
            now,
            Subsystem::Lkm,
            "final_update_walk",
            cost,
            vec![
                ("pid", pid.0.into()),
                ("walked", walked.into()),
                ("flips", flips.into()),
            ],
        );
    }

    /// Forcibly un-skips the pages of applications that missed the reply
    /// deadline, so their (possibly live) contents are transferred and
    /// migration can proceed (§6 straggler handling).
    fn check_deadline(&mut self, now: SimTime) {
        if self.state != LkmState::EnteringLastIter {
            return;
        }
        let Some(deadline) = self.prepare_deadline else {
            return;
        };
        if now < deadline {
            return;
        }
        let mut flips = 0u64;
        for (&pid, rec) in self.apps.iter_mut() {
            if !rec.suspension_ready {
                for pfn in rec.cache_drain() {
                    if self.transfer.set(pfn) {
                        flips += 1;
                    }
                }
                rec.areas.clear();
                rec.suspension_ready = true;
                rec.straggler = true;
                self.stats.stragglers += 1;
                self.telemetry.instant(
                    now,
                    Subsystem::Lkm,
                    "straggler_forced",
                    vec![("pid", pid.0.into())],
                );
            }
        }
        self.pending_final_update += BIT_COST_PER_PAGE * flips;
    }

    /// Once every known application is suspension-ready, report readiness to
    /// the daemon with the measured final-update duration.
    fn maybe_finish_final_update(&mut self, now: SimTime) {
        if self.state != LkmState::EnteringLastIter {
            return;
        }
        let all_ready = self.apps.values().all(|r| r.suspension_ready);
        // Applications that never reported areas have no record; they are
        // not waited for (they never subscribed intent to assist).
        if all_ready {
            self.set_state(now, LkmState::SuspensionReady);
            self.stats.final_update_duration = self.pending_final_update;
            // The final update's work finished "just now": back-date the
            // span so it covers the accumulated walk + flip cost.
            let start = SimTime::from_nanos(
                now.as_nanos()
                    .saturating_sub(self.pending_final_update.as_nanos()),
            );
            self.telemetry.record_span(
                start,
                Subsystem::Lkm,
                "final_bitmap_update",
                self.pending_final_update,
                vec![
                    ("expand_pages", self.stats.final_expand_pages.into()),
                    ("set_pages", self.stats.final_set_pages.into()),
                    ("stragglers", self.stats.stragglers.into()),
                ],
            );
            self.telemetry.instant(
                now,
                Subsystem::Lkm,
                "ready_to_suspend",
                vec![
                    ("final_update", self.pending_final_update.into()),
                    ("stragglers", self.stats.stragglers.into()),
                ],
            );
            self.send_ready(now);
            self.prepare_deadline = None;
        }
    }

    /// (Re-)sends the `ReadyToSuspend` notification with the recorded
    /// final-update stats; idempotent, used for daemon retries.
    fn send_ready(&mut self, now: SimTime) {
        self.port.send(
            now,
            CoordPayload::ReadyToSuspend {
                final_update: self.stats.final_update_duration,
                stragglers: self.stats.stragglers,
            },
        );
    }

    /// Abandons assistance (the degradation ladder's last rung): clears
    /// every transfer-bitmap exclusion so all memory is eligible for
    /// transfer, tells applications to release held threads, and enters
    /// [`LkmState::Degraded`] until `VmResumed`.
    fn abort_assist(&mut self, now: SimTime) {
        let restored = self.transfer.skip_count();
        self.transfer.reset();
        self.cold = None;
        for rec in self.apps.values_mut() {
            rec.cache = PageTable::new();
            rec.areas.clear();
            rec.suspension_ready = true;
        }
        self.prepare_deadline = None;
        self.pending_final_update = SimDuration::ZERO;
        self.set_state(now, LkmState::Degraded);
        self.telemetry.instant(
            now,
            Subsystem::Lkm,
            "assist_aborted",
            vec![("restored_pages", restored.into())],
        );
        self.netlink.multicast(now, CoordPayload::AbortAssist);
    }

    fn reset_after_migration(&mut self, now: SimTime) {
        self.set_state(now, LkmState::Initialized);
        self.transfer.reset();
        self.cold = None;
        for rec in self.apps.values_mut() {
            rec.areas.clear();
            rec.cache = PageTable::new();
            rec.suspension_ready = false;
            rec.straggler = false;
        }
        self.prepare_deadline = None;
        self.pending_final_update = SimDuration::ZERO;
    }

    /// The PFN caches' modelled footprint, counted as the paper counts it.
    fn cache_bytes(&self) -> u64 {
        self.apps
            .values()
            .map(|a| a.cache.mapped_count() * PFN_CACHE_ENTRY_BYTES)
            .sum()
    }

    /// CPU time of a walk + bit-flip batch, divided across the configured
    /// worker threads (with a 10% coordination overhead per extra worker).
    fn parallel_cost(&self, walked: u64, flipped: u64) -> SimDuration {
        let serial = WALK_COST_PER_PAGE * walked + BIT_COST_PER_PAGE * flipped;
        let workers = self.config.walk_parallelism.max(1) as f64;
        serial.mul_f64((1.0 + 0.1 * (workers - 1.0)) / workers)
    }
}

impl AppRecord {
    /// Drains the PFN cache, returning every cached PFN.
    fn cache_drain(&mut self) -> Vec<Pfn> {
        // Unmapping the full VA space empties the cache.
        let all = VaRange::new(Vaddr(0), Vaddr(!(PAGE_SIZE - 1)));
        self.cache.unmap_range(all)
    }
}

impl core::fmt::Debug for Lkm {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Lkm")
            .field("state", &self.state)
            .field("apps", &self.apps.len())
            .field("skip_pages", &self.transfer.skip_count())
            .finish()
    }
}
