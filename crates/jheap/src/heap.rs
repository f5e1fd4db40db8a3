//! The generational Java heap: spaces, allocation, and collection mechanics.
//!
//! Follows HotSpot's ParallelGC shape (§4.1): the Young generation is split
//! into Eden and two survivor spaces (From/To); most allocation bump-points
//! into Eden; a minor GC copies live Eden data to To, promotes data that
//! survived a previous collection from From to the Old generation, empties
//! Eden, and swaps the survivor roles. Post-GC ergonomics grow the committed
//! Young generation under allocation pressure (up to `-Xmn`) and shrink it
//! when idle — the shrink case is what triggers the TI agent's
//! "Young generation shrunk" notification in JAVMM.
//!
//! Live data is modelled in aggregate: the mutator's survival fractions
//! determine how many bytes each collection copies and promotes. What
//! migration observes — which pages are dirtied, when, and with what — is
//! identical to tracking individual objects.

use crate::config::{page_align_up, va, JvmConfig};
use crate::gc::{GcKind, GcLog, GcRecord};
use crate::mutator::MutatorProfile;
use guestos::kernel::{GuestKernel, WriteOutcome};
use guestos::process::Pid;
use simkit::{DetRng, SimDuration, SimTime};
use vmem::{PageClass, VaRange, Vaddr, PAGE_SIZE};

/// Fraction of the Old generation still live when a full GC runs.
const FULL_GC_LIVE_FRACTION: f64 = 0.6;

/// Granularity of Old-generation access tracking: one epoch slot per
/// 2 MiB region (512 pages). Coarse enough that the tracker is a few
/// hundred slots for a 1 GiB Old generation, fine enough that a hot
/// working set does not smear warmth over the whole generation.
const COLD_REGION_BYTES: u64 = 2 * 1024 * 1024;

/// A region that has gone this many GC epochs without a write is cold.
/// Two epochs ≈ two minor-GC intervals — long enough that transient
/// promotion bursts don't flap a region hot, short enough that the map
/// is populated within the warmup of every scenario in the tree.
const COLD_EPOCH_THRESHOLD: u64 = 2;

/// The heap of one JVM.
#[derive(Debug)]
pub struct JvmHeap {
    pid: Pid,
    config: JvmConfig,
    // Committed sizes in bytes (page-aligned).
    eden_committed: u64,
    survivor_committed: u64,
    old_committed: u64,
    // Usage.
    eden_used: u64,
    from_used: u64,
    old_used: u64,
    from_is_s0: bool,
    last_gc_at: Option<SimTime>,
    gc_log: GcLog,
    /// Access-tracking epoch: bumped on every minor GC (decay), so region
    /// warmth ages out in GC time, not wall time.
    epoch: u64,
    /// Last-write epoch per [`COLD_REGION_BYTES`] region of the Old
    /// generation, indexed from `va::OLD_BASE`. Pure bookkeeping: marking
    /// touches draws no randomness and issues no kernel calls, so tracking
    /// is always on and cannot perturb any existing run.
    region_epochs: Vec<u64>,
}

impl JvmHeap {
    /// Launches a JVM heap for process `pid`: maps and writes the code
    /// cache, metaspace and resident Old-generation data, and commits the
    /// initial Young generation.
    ///
    /// # Panics
    ///
    /// Panics if the guest cannot supply the initial frames.
    pub fn launch(kernel: &mut GuestKernel, pid: Pid, config: JvmConfig) -> Self {
        let (eden, survivor) = config.split_young(config.young_init);
        let mut heap = Self {
            pid,
            eden_committed: 0,
            survivor_committed: 0,
            old_committed: 0,
            eden_used: 0,
            from_used: 0,
            old_used: 0,
            from_is_s0: true,
            last_gc_at: None,
            gc_log: GcLog::new(),
            epoch: 0,
            region_epochs: Vec::new(),
            config,
        };

        // Non-heap regions: committed and written so they are real content.
        heap.commit(
            kernel,
            va::CODE_BASE,
            0,
            heap.config.codecache,
            PageClass::Code,
        );
        kernel.write_range(
            pid,
            VaRange::from_len(Vaddr(va::CODE_BASE), heap.config.codecache),
            PageClass::Code,
        );
        heap.commit(
            kernel,
            va::META_BASE,
            0,
            heap.config.metaspace,
            PageClass::JvmMeta,
        );
        kernel.write_range(
            pid,
            VaRange::from_len(Vaddr(va::META_BASE), heap.config.metaspace),
            PageClass::JvmMeta,
        );

        // Old generation: resident long-lived data written at launch.
        let resident = page_align_up(heap.config.old_resident);
        heap.commit(kernel, va::OLD_BASE, 0, resident, PageClass::HeapOld);
        heap.old_committed = resident;
        kernel.write_range(
            pid,
            VaRange::from_len(Vaddr(va::OLD_BASE), resident),
            PageClass::HeapOld,
        );
        heap.old_used = heap.config.old_resident;
        heap.touch_old(0, resident);

        // Young generation: committed but not yet written.
        heap.commit(kernel, va::EDEN_BASE, 0, eden, PageClass::HeapYoung);
        heap.commit(kernel, va::S0_BASE, 0, survivor, PageClass::HeapYoung);
        heap.commit(kernel, va::S1_BASE, 0, survivor, PageClass::HeapYoung);
        heap.eden_committed = eden;
        heap.survivor_committed = survivor;
        heap
    }

    /// Returns the owning process.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Returns the configuration.
    pub fn config(&self) -> &JvmConfig {
        &self.config
    }

    /// Bytes of Eden still available before the next GC.
    pub fn eden_headroom(&self) -> u64 {
        self.eden_committed - self.eden_used
    }

    /// Committed Young generation size (Eden + both survivors).
    pub fn young_committed(&self) -> u64 {
        self.eden_committed + 2 * self.survivor_committed
    }

    /// Bytes in use in the Young generation.
    pub fn young_used(&self) -> u64 {
        self.eden_used + self.from_used
    }

    /// Bytes in use in the Old generation.
    pub fn old_used(&self) -> u64 {
        self.old_used
    }

    /// Committed Old generation size.
    pub fn old_committed(&self) -> u64 {
        self.old_committed
    }

    /// The GC log.
    pub fn gc_log(&self) -> &GcLog {
        &self.gc_log
    }

    /// The GC log, to amend its newest record.
    pub fn gc_log_mut(&mut self) -> &mut GcLog {
        &mut self.gc_log
    }

    /// The committed Young-generation VA ranges: Eden, S0, S1.
    ///
    /// These are the skip-over areas the JAVMM agent reports.
    pub fn young_ranges(&self) -> Vec<VaRange> {
        vec![
            VaRange::from_len(Vaddr(va::EDEN_BASE), self.eden_committed),
            VaRange::from_len(Vaddr(va::S0_BASE), self.survivor_committed),
            VaRange::from_len(Vaddr(va::S1_BASE), self.survivor_committed),
        ]
    }

    /// The occupied portion of the From space (page-aligned outward): the
    /// live data that must be transferred in the last iteration.
    pub fn occupied_from_range(&self) -> VaRange {
        VaRange::from_len(
            Vaddr(self.base_of_from_space()),
            page_align_up(self.from_used),
        )
    }

    /// Allocates `bytes` in Eden, dirtying the pages covered.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds [`JvmHeap::eden_headroom`]; callers must
    /// split allocation around GCs.
    pub fn bump_eden(&mut self, kernel: &mut GuestKernel, bytes: u64) -> WriteOutcome {
        assert!(
            bytes <= self.eden_headroom(),
            "allocation of {bytes} exceeds Eden headroom {}",
            self.eden_headroom()
        );
        let range = VaRange::new(
            Vaddr(va::EDEN_BASE + self.eden_used),
            Vaddr(va::EDEN_BASE + self.eden_used + bytes),
        );
        self.eden_used += bytes;
        kernel.write_range(self.pid, range, PageClass::HeapYoung)
    }

    /// Rewrites `bytes` of the Old-generation working set (random pages in
    /// the first `ws_bytes` of the Old generation).
    pub fn write_old_ws(
        &mut self,
        kernel: &mut GuestKernel,
        rng: &mut DetRng,
        bytes: u64,
        ws_bytes: u64,
    ) -> WriteOutcome {
        let window = ws_bytes.min(self.old_used);
        let window_pages = window / PAGE_SIZE;
        if window_pages == 0 {
            return WriteOutcome::default();
        }
        let pages: Vec<u64> = (0..bytes.div_ceil(PAGE_SIZE))
            .map(|_| rng.below(window_pages))
            .collect();
        for &page in &pages {
            self.touch_old(page * PAGE_SIZE, page * PAGE_SIZE + PAGE_SIZE);
        }
        kernel.write_pages(self.pid, Vaddr(va::OLD_BASE), &pages, PageClass::HeapOld)
    }

    /// Performs a minor collection (possibly enforced), returning the record
    /// and the pages the GC itself dirtied.
    ///
    /// On return, Eden and the (new) To space are empty and the (new) From
    /// space holds the surviving data — the post-collection state JAVMM
    /// resumes the VM in (§4.3).
    pub fn perform_minor_gc(
        &mut self,
        kernel: &mut GuestKernel,
        rng: &mut DetRng,
        profile: &MutatorProfile,
        now: SimTime,
        kind: GcKind,
    ) -> (GcRecord, WriteOutcome) {
        let eden_before = self.eden_used;
        let from_before = self.from_used;
        let young_committed = self.young_committed();

        // Decay first: every region's warmth ages by one epoch, and
        // anything this collection itself writes (promotion, compaction)
        // re-marks at the new epoch.
        self.epoch += 1;

        // Live data: Eden survivors go to To; From survivors are promoted.
        let jitter = rng.jitter(0.08);
        let eden_live = ((self.eden_used as f64) * profile.eden_survival * jitter) as u64;
        let promoted_from = ((self.from_used as f64) * profile.from_survival) as u64;
        let to_copied = eden_live.min(self.survivor_committed);
        let overflow = eden_live - to_copied;
        let promoted = promoted_from + overflow;

        let mut writes = WriteOutcome::default();
        // Copy into To.
        if to_copied > 0 {
            let range = VaRange::from_len(Vaddr(self.base_of_to_space()), to_copied);
            writes.merge(kernel.write_range(self.pid, range, PageClass::HeapYoung));
        }
        // Promote into the Old generation.
        let mut duration = self.config.gc_costs.minor_base
            + SimDuration::from_secs_f64(
                young_committed as f64 * self.config.gc_costs.scan_cost_per_byte
                    + (to_copied + promoted) as f64 * self.config.gc_costs.copy_cost_per_byte,
            );
        if promoted > 0 {
            writes.merge(self.append_old(kernel, promoted));
            if self.old_used > self.config.old_max {
                duration += self.perform_full_gc(kernel, &mut writes);
            }
        }

        let garbage = (eden_before + from_before).saturating_sub(eden_live + promoted_from);

        // Post-collection state: Eden empty, survivors swapped.
        self.eden_used = 0;
        self.from_is_s0 = !self.from_is_s0;
        self.from_used = to_copied;

        // Ergonomics: resize the committed Young generation. The enforced GC
        // skips resizing — JAVMM needs the post-collection state stable.
        let mut shrunk = Vec::new();
        if kind != GcKind::EnforcedMinor {
            shrunk = self.resize_young(kernel, now);
        }

        let record = GcRecord {
            kind,
            at: now,
            duration,
            young_committed,
            eden_used_before: eden_before,
            from_used_before: from_before,
            live_copied: to_copied,
            promoted,
            garbage_collected: garbage,
            shrunk,
        };
        self.last_gc_at = Some(now);
        self.gc_log.push(record.clone());
        (record, writes)
    }

    /// Compacts the Old generation in place; returns the added pause time.
    fn perform_full_gc(
        &mut self,
        kernel: &mut GuestKernel,
        writes: &mut WriteOutcome,
    ) -> SimDuration {
        let before = self.old_used;
        let live = (before as f64 * FULL_GC_LIVE_FRACTION) as u64;
        // Compaction rewrites the surviving prefix.
        writes.merge(kernel.write_range(
            self.pid,
            VaRange::from_len(Vaddr(va::OLD_BASE), page_align_up(live.max(PAGE_SIZE))),
            PageClass::HeapOld,
        ));
        self.touch_old(0, page_align_up(live.max(PAGE_SIZE)));
        self.old_used = live;
        self.config.gc_costs.full_base
            + SimDuration::from_secs_f64(before as f64 * self.config.gc_costs.full_cost_per_byte)
    }

    /// Appends promoted bytes to the Old generation, committing frames as
    /// needed, and dirties the pages written.
    fn append_old(&mut self, kernel: &mut GuestKernel, bytes: u64) -> WriteOutcome {
        let new_used = self.old_used + bytes;
        if new_used > self.old_committed {
            let target = page_align_up(new_used);
            let old = self.old_committed;
            self.commit(kernel, va::OLD_BASE, old, target, PageClass::HeapOld);
            self.old_committed = target;
        }
        let range = VaRange::new(
            Vaddr(va::OLD_BASE + self.old_used),
            Vaddr(va::OLD_BASE + new_used),
        );
        self.touch_old(self.old_used, new_used);
        self.old_used = new_used;
        kernel.write_range(self.pid, range, PageClass::HeapOld)
    }

    /// Grows or shrinks the committed Young generation based on allocation
    /// pressure; returns any VA ranges uncommitted (the shrink case).
    fn resize_young(&mut self, kernel: &mut GuestKernel, now: SimTime) -> Vec<VaRange> {
        let interval = match self.last_gc_at {
            Some(prev) => now.saturating_since(prev),
            None => return Vec::new(),
        };
        let committed = self.young_committed();
        if interval < self.config.grow_below_interval && committed < self.config.young_max {
            let target = (committed * 2).min(self.config.young_max);
            let (eden, survivor) = self.config.split_young(target);
            if eden > self.eden_committed {
                let old = self.eden_committed;
                self.commit(kernel, va::EDEN_BASE, old, eden, PageClass::HeapYoung);
                self.eden_committed = eden;
            }
            if survivor > self.survivor_committed {
                let old = self.survivor_committed;
                self.commit(kernel, va::S0_BASE, old, survivor, PageClass::HeapYoung);
                self.commit(kernel, va::S1_BASE, old, survivor, PageClass::HeapYoung);
                self.survivor_committed = survivor;
            }
            Vec::new()
        } else if interval > self.config.shrink_above_interval && committed > self.config.young_init
        {
            let target = (committed / 2).max(self.config.young_init);
            let (eden, survivor) = self.config.split_young(target);
            let survivor = survivor.max(page_align_up(self.from_used));
            let mut shrunk = Vec::new();
            if eden < self.eden_committed {
                let r = VaRange::new(
                    Vaddr(va::EDEN_BASE + eden),
                    Vaddr(va::EDEN_BASE + self.eden_committed),
                );
                kernel.unmap_free(self.pid, r);
                shrunk.push(r);
                self.eden_committed = eden;
            }
            if survivor < self.survivor_committed {
                for base in [va::S0_BASE, va::S1_BASE] {
                    let r = VaRange::new(
                        Vaddr(base + survivor),
                        Vaddr(base + self.survivor_committed),
                    );
                    kernel.unmap_free(self.pid, r);
                    shrunk.push(r);
                }
                self.survivor_committed = survivor;
            }
            shrunk
        } else {
            Vec::new()
        }
    }

    /// Commits `[current, target)` bytes of the region at `base`.
    fn commit(
        &self,
        kernel: &mut GuestKernel,
        base: u64,
        current: u64,
        target: u64,
        class: PageClass,
    ) {
        if target <= current {
            return;
        }
        let npages = (page_align_up(target) - page_align_up(current)) / PAGE_SIZE;
        if npages == 0 {
            return;
        }
        kernel
            .alloc_map(
                self.pid,
                Vaddr(base + page_align_up(current)),
                npages,
                class,
            )
            .expect("guest out of frames while committing JVM memory");
    }

    /// Marks the Old-generation byte offsets `[start, end)` as written in
    /// the current epoch.
    fn touch_old(&mut self, start: u64, end: u64) {
        if end <= start {
            return;
        }
        let first = (start / COLD_REGION_BYTES) as usize;
        let last = (end - 1) / COLD_REGION_BYTES;
        let last = last as usize;
        if self.region_epochs.len() <= last {
            self.region_epochs.resize(last + 1, self.epoch);
        }
        for slot in &mut self.region_epochs[first..=last] {
            *slot = self.epoch;
        }
    }

    /// The Old-generation regions that are live but cold: committed, below
    /// `old_used`, and unwritten for at least [`COLD_EPOCH_THRESHOLD`] GC
    /// epochs. Adjacent cold regions coalesce into one VA range; the tail
    /// range is clipped to the page-aligned end of the used Old generation.
    ///
    /// Reading the map is pure — no randomness, no kernel calls — so the
    /// agent can export it on any protocol cadence without perturbing the
    /// simulation.
    pub fn cold_ranges(&self) -> Vec<VaRange> {
        let used = page_align_up(self.old_used.max(1));
        let used_regions = used.div_ceil(COLD_REGION_BYTES) as usize;
        let n = used_regions.min(self.region_epochs.len());
        let mut out = Vec::new();
        let mut run_start: Option<u64> = None;
        for i in 0..=n {
            let cold =
                i < n && self.epoch.saturating_sub(self.region_epochs[i]) >= COLD_EPOCH_THRESHOLD;
            match (cold, run_start) {
                (true, None) => run_start = Some(i as u64 * COLD_REGION_BYTES),
                (false, Some(start)) => {
                    let end = (i as u64 * COLD_REGION_BYTES).min(used);
                    out.push(VaRange::new(
                        Vaddr(va::OLD_BASE + start),
                        Vaddr(va::OLD_BASE + end),
                    ));
                    run_start = None;
                }
                _ => {}
            }
        }
        out
    }

    fn base_of_from_space(&self) -> u64 {
        if self.from_is_s0 {
            va::S0_BASE
        } else {
            va::S1_BASE
        }
    }

    fn base_of_to_space(&self) -> u64 {
        if self.from_is_s0 {
            va::S1_BASE
        } else {
            va::S0_BASE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guestos::kernel::GuestOsConfig;
    use simkit::units::MIB;
    use vmem::VmSpec;

    fn setup(young_max: u64) -> (GuestKernel, JvmHeap) {
        let mut kernel = GuestKernel::boot(
            GuestOsConfig {
                spec: VmSpec::new(1024 * MIB, 2),
                kernel_bytes: 16 * MIB,
                pagecache_bytes: 16 * MIB,
                kernel_dirty_rate: 0.0,
                pagecache_dirty_rate: 0.0,
            },
            DetRng::new(3),
        );
        let pid = kernel.spawn("java");
        let heap = JvmHeap::launch(&mut kernel, pid, JvmConfig::with_young_max(young_max));
        (kernel, heap)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn launch_writes_nonheap_content() {
        let (kernel, heap) = setup(128 * MIB);
        let code_pfn = kernel.translate(heap.pid(), Vaddr(va::CODE_BASE)).unwrap();
        assert_eq!(kernel.memory().page(code_pfn).class, PageClass::Code);
        assert_eq!(kernel.memory().page(code_pfn).version, 1);
        let old_pfn = kernel.translate(heap.pid(), Vaddr(va::OLD_BASE)).unwrap();
        assert_eq!(kernel.memory().page(old_pfn).version, 1);
        // Young pages are committed but unwritten.
        let eden_pfn = kernel.translate(heap.pid(), Vaddr(va::EDEN_BASE)).unwrap();
        assert_eq!(kernel.memory().page(eden_pfn).version, 0);
        assert_eq!(kernel.memory().page(eden_pfn).class, PageClass::HeapYoung);
    }

    #[test]
    fn bump_eden_dirties_sequentially() {
        let (mut kernel, mut heap) = setup(128 * MIB);
        kernel.memory_mut().dirty_log_mut().enable();
        let out = heap.bump_eden(&mut kernel, 3 * MIB);
        assert_eq!(out.pages, 3 * MIB / PAGE_SIZE);
        assert_eq!(out.faults, out.pages);
        assert_eq!(heap.young_used(), 3 * MIB);
        // Second bump continues where the first left off.
        let pfn_before = kernel
            .translate(heap.pid(), Vaddr(va::EDEN_BASE + 3 * MIB))
            .unwrap();
        assert_eq!(kernel.memory().page(pfn_before).version, 0);
        heap.bump_eden(&mut kernel, MIB);
        assert_eq!(kernel.memory().page(pfn_before).version, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds Eden headroom")]
    fn overallocation_panics() {
        let (mut kernel, mut heap) = setup(128 * MIB);
        let headroom = heap.eden_headroom();
        heap.bump_eden(&mut kernel, headroom + 1);
    }

    #[test]
    fn minor_gc_empties_eden_and_swaps_survivors() {
        let (mut kernel, mut heap) = setup(128 * MIB);
        let mut rng = DetRng::new(9);
        let profile = MutatorProfile {
            eden_survival: 0.10,
            ..MutatorProfile::quiet()
        };
        let headroom = heap.eden_headroom();
        heap.bump_eden(&mut kernel, headroom);
        let from_before = heap.occupied_from_range();
        let (rec, writes) =
            heap.perform_minor_gc(&mut kernel, &mut rng, &profile, t(1), GcKind::Minor);
        assert_eq!(heap.eden_headroom(), heap.eden_committed);
        assert!(heap.from_used > 0, "survivors live in From");
        assert_ne!(
            heap.occupied_from_range().start(),
            from_before.start(),
            "survivor spaces swapped"
        );
        assert!(rec.garbage_collected > 0);
        let live_frac = rec.live_copied as f64 / rec.eden_used_before as f64;
        assert!(
            (0.08..0.13).contains(&live_frac),
            "live fraction {live_frac}"
        );
        assert!(writes.pages > 0, "GC copying dirties pages");
    }

    #[test]
    fn repeated_gcs_promote_and_grow_old() {
        let (mut kernel, mut heap) = setup(64 * MIB);
        let mut rng = DetRng::new(9);
        let profile = MutatorProfile {
            eden_survival: 0.10,
            from_survival: 0.5,
            ..MutatorProfile::quiet()
        };
        let old_before = heap.old_used();
        for i in 0..10 {
            let headroom = heap.eden_headroom();
            heap.bump_eden(&mut kernel, headroom);
            // GCs every 10 s: no growth pressure.
            heap.perform_minor_gc(
                &mut kernel,
                &mut rng,
                &profile,
                t(10 * (i + 1)),
                GcKind::Minor,
            );
        }
        assert!(heap.old_used() > old_before, "promotion grew the Old gen");
        assert_eq!(heap.gc_log().count(GcKind::Minor), 10);
    }

    #[test]
    fn allocation_pressure_grows_young_to_max() {
        let (mut kernel, mut heap) = setup(256 * MIB);
        let mut rng = DetRng::new(9);
        let profile = MutatorProfile::quiet();
        let mut now = SimTime::ZERO;
        for _ in 0..12 {
            now += SimDuration::from_millis(500); // GCs 0.5 s apart: pressure.
            let headroom = heap.eden_headroom();
            heap.bump_eden(&mut kernel, headroom);
            heap.perform_minor_gc(&mut kernel, &mut rng, &profile, now, GcKind::Minor);
        }
        assert_eq!(heap.young_committed(), 256 * MIB, "grown to -Xmn");
    }

    #[test]
    fn idle_heap_shrinks_and_reports_ranges() {
        let (mut kernel, mut heap) = setup(256 * MIB);
        let mut rng = DetRng::new(9);
        let profile = MutatorProfile::quiet();
        // Grow first.
        let mut now = SimTime::ZERO;
        for _ in 0..12 {
            now += SimDuration::from_millis(500);
            let headroom = heap.eden_headroom();
            heap.bump_eden(&mut kernel, headroom);
            heap.perform_minor_gc(&mut kernel, &mut rng, &profile, now, GcKind::Minor);
        }
        // Then idle: a GC 60 s later shrinks.
        now += SimDuration::from_secs(60);
        heap.bump_eden(&mut kernel, MIB);
        let (rec, _) = heap.perform_minor_gc(&mut kernel, &mut rng, &profile, now, GcKind::Minor);
        assert!(!rec.shrunk.is_empty(), "shrink must report ranges");
        assert!(heap.young_committed() < 256 * MIB);
        // The uncommitted pages are gone from the page table.
        for r in &rec.shrunk {
            assert_eq!(kernel.translate(heap.pid(), r.start()), None);
        }
    }

    #[test]
    fn enforced_gc_does_not_resize() {
        let (mut kernel, mut heap) = setup(256 * MIB);
        let mut rng = DetRng::new(9);
        let profile = MutatorProfile::quiet();
        let committed = heap.young_committed();
        heap.bump_eden(&mut kernel, MIB);
        let (rec, _) =
            heap.perform_minor_gc(&mut kernel, &mut rng, &profile, t(1), GcKind::EnforcedMinor);
        assert_eq!(heap.young_committed(), committed);
        assert!(rec.shrunk.is_empty());
        assert_eq!(rec.kind, GcKind::EnforcedMinor);
    }

    #[test]
    fn survivor_overflow_promotes() {
        let (mut kernel, mut heap) = setup(128 * MIB);
        let mut rng = DetRng::new(9);
        // 60% survival cannot fit in a 1/10th survivor space.
        let profile = MutatorProfile {
            eden_survival: 0.6,
            ..MutatorProfile::quiet()
        };
        let old_before = heap.old_used();
        let headroom = heap.eden_headroom();
        heap.bump_eden(&mut kernel, headroom);
        let (rec, _) = heap.perform_minor_gc(&mut kernel, &mut rng, &profile, t(1), GcKind::Minor);
        assert!(rec.promoted > 0, "overflow must promote");
        assert_eq!(heap.from_used, heap.survivor_committed);
        assert!(heap.old_used() > old_before);
    }

    #[test]
    fn old_exhaustion_triggers_full_gc() {
        let (mut kernel, mut heap) = setup(128 * MIB);
        heap.config.old_max = heap.old_used() + 8 * MIB;
        let mut rng = DetRng::new(9);
        let profile = MutatorProfile {
            eden_survival: 0.2,
            from_survival: 1.0,
            ..MutatorProfile::quiet()
        };
        let mut full_seen = false;
        let mut peak = heap.old_used();
        let mut dropped = false;
        for i in 0..20 {
            let headroom = heap.eden_headroom();
            heap.bump_eden(&mut kernel, headroom);
            let before = heap.old_used();
            let (rec, _) = heap.perform_minor_gc(
                &mut kernel,
                &mut rng,
                &profile,
                t(10 * (i + 1)),
                GcKind::Minor,
            );
            if rec.duration > heap.config.gc_costs.full_base {
                full_seen = true;
            }
            if heap.old_used() < before {
                dropped = true;
            }
            peak = peak.max(heap.old_used());
        }
        let _ = peak;
        assert!(full_seen, "a full GC should have been charged");
        assert!(dropped, "a full GC must reclaim Old-generation space");
    }

    #[test]
    fn cold_ranges_empty_until_epochs_decay() {
        let (mut kernel, mut heap) = setup(128 * MIB);
        let mut rng = DetRng::new(9);
        let profile = MutatorProfile::quiet();
        // Everything was just written at launch: nothing is cold yet.
        assert!(heap.cold_ranges().is_empty());
        // Age the heap two epochs with a tiny hot working set.
        for i in 0..2 {
            heap.bump_eden(&mut kernel, MIB);
            heap.write_old_ws(&mut kernel, &mut rng, 64 * 1024, 2 * 1024 * 1024);
            heap.perform_minor_gc(
                &mut kernel,
                &mut rng,
                &profile,
                t(10 * (i + 1)),
                GcKind::Minor,
            );
        }
        heap.write_old_ws(&mut kernel, &mut rng, 64 * 1024, 2 * 1024 * 1024);
        let cold = heap.cold_ranges();
        assert!(!cold.is_empty(), "the untouched Old tail must go cold");
        // The hot working-set window (first region) stays warm.
        assert!(
            cold.iter()
                .all(|r| r.start().0 >= va::OLD_BASE + 2 * 1024 * 1024),
            "hot window must not be reported cold: {cold:?}"
        );
        // Cold ranges lie inside the used Old generation.
        let used_end = va::OLD_BASE + page_align_up(heap.old_used());
        assert!(cold.iter().all(|r| r.end().0 <= used_end));
    }

    #[test]
    fn full_gc_rewarms_the_compacted_prefix() {
        let (mut kernel, mut heap) = setup(128 * MIB);
        let mut rng = DetRng::new(9);
        let profile = MutatorProfile::quiet();
        for i in 0..3 {
            heap.bump_eden(&mut kernel, MIB);
            heap.perform_minor_gc(
                &mut kernel,
                &mut rng,
                &profile,
                t(10 * (i + 1)),
                GcKind::Minor,
            );
        }
        assert!(!heap.cold_ranges().is_empty(), "aged heap has cold regions");
        let mut writes = WriteOutcome::default();
        heap.perform_full_gc(&mut kernel, &mut writes);
        // Compaction rewrote the surviving prefix in the current epoch.
        assert!(
            heap.cold_ranges().is_empty(),
            "compaction re-warms the prefix"
        );
    }

    #[test]
    fn gc_duration_scales_with_young_size() {
        let (mut kernel, mut heap) = setup(512 * MIB);
        let mut rng = DetRng::new(9);
        let profile = MutatorProfile::quiet();
        heap.bump_eden(&mut kernel, MIB);
        let (small, _) =
            heap.perform_minor_gc(&mut kernel, &mut rng, &profile, t(100), GcKind::Minor);
        // Grow to max.
        let mut now = t(100);
        for _ in 0..12 {
            now += SimDuration::from_millis(500);
            let headroom = heap.eden_headroom();
            heap.bump_eden(&mut kernel, headroom);
            heap.perform_minor_gc(&mut kernel, &mut rng, &profile, now, GcKind::Minor);
        }
        heap.bump_eden(&mut kernel, MIB);
        let (big, _) = heap.perform_minor_gc(
            &mut kernel,
            &mut rng,
            &profile,
            now + SimDuration::from_secs(1),
            GcKind::Minor,
        );
        assert!(
            big.duration > small.duration * 3,
            "scan cost must dominate: {} vs {}",
            big.duration,
            small.duration
        );
    }
}
