//! A garbage-first-like region-based collector (§6 future extension).
//!
//! G1 divides the heap into fixed-size regions; the Young generation is a
//! dynamic *set* of regions scattered across the heap arena, so its VA
//! ranges are non-contiguous. The paper singles this collector out as the
//! interesting porting target for JAVMM — the framework's skip-over areas
//! are already sets of VA ranges, so the TI agent simply reports one range
//! per region.
//!
//! The model keeps G1's properties that matter to migration:
//!
//! * allocation fills *Eden regions* picked non-contiguously from the arena;
//! * a minor (young) collection evacuates live data into freshly chosen
//!   *survivor regions* (dirtying them), promotes data surviving a second
//!   collection to the Old generation, and returns the collected regions to
//!   the free set — still committed, still full of garbage, still correctly
//!   skip-marked;
//! * ergonomics grow the young region budget under allocation pressure and
//!   shrink it (uncommitting regions → `AreaShrunk` notifications) when
//!   idle.

use crate::config::{page_align_up, va, JvmConfig};
use crate::gc::{GcKind, GcLog, GcRecord};
use crate::model::HeapModel;
use crate::mutator::MutatorProfile;
use guestos::kernel::{GuestKernel, WriteOutcome};
use guestos::process::Pid;
use simkit::{DetRng, SimDuration, SimTime};
use vmem::{PageClass, VaRange, Vaddr, PAGE_SIZE};

/// VA base of the G1 region arena.
pub const G1_BASE: u64 = 0x7f70_0000_0000;

/// Fraction of the Old generation still live when a full GC runs.
const FULL_GC_LIVE_FRACTION: f64 = 0.6;

/// Stride used to scatter region selection across the arena.
const REGION_STRIDE: usize = 97;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegionState {
    /// Never committed.
    Untracked,
    /// Committed, unassigned (contents are stale garbage).
    Free,
    /// Part of Eden.
    Eden,
    /// Holds evacuated survivors.
    Survivor,
}

#[derive(Debug, Clone, Copy)]
struct Region {
    state: RegionState,
    used: u64,
}

/// The region-based heap.
#[derive(Debug)]
pub struct G1Heap {
    pid: Pid,
    config: JvmConfig,
    region_bytes: u64,
    regions: Vec<Region>,
    /// Region indices currently serving Eden, in fill order.
    eden: Vec<usize>,
    /// Region indices holding survivors.
    survivors: Vec<usize>,
    /// Young budget in regions (ergonomics-driven).
    target_regions: usize,
    /// Rotating hint for scattered region selection.
    pick_hint: usize,
    old_committed: u64,
    old_used: u64,
    last_gc_at: Option<SimTime>,
    gc_log: GcLog,
}

impl G1Heap {
    /// Launches a G1 heap: non-heap regions and resident Old data as in
    /// [`crate::heap::JvmHeap`], plus the region arena.
    ///
    /// # Panics
    ///
    /// Panics if `region_bytes` is not a positive multiple of the page size
    /// or the guest cannot supply the initial frames.
    pub fn launch(
        kernel: &mut GuestKernel,
        pid: Pid,
        config: JvmConfig,
        region_bytes: u64,
    ) -> Self {
        assert!(
            region_bytes >= PAGE_SIZE && region_bytes.is_multiple_of(PAGE_SIZE),
            "region size must be a positive multiple of the page size"
        );
        // Arena: enough regions for the maximum young budget plus survivor
        // headroom and fragmentation slack.
        let max_regions = (config.young_max / region_bytes).max(2) as usize;
        let arena = max_regions + max_regions / 4 + 2;

        // Non-heap content (same layout as the ParallelGC heap).
        commit(
            kernel,
            pid,
            va::CODE_BASE,
            config.codecache,
            PageClass::Code,
        );
        kernel.write_range(
            pid,
            VaRange::from_len(Vaddr(va::CODE_BASE), config.codecache),
            PageClass::Code,
        );
        commit(
            kernel,
            pid,
            va::META_BASE,
            config.metaspace,
            PageClass::JvmMeta,
        );
        kernel.write_range(
            pid,
            VaRange::from_len(Vaddr(va::META_BASE), config.metaspace),
            PageClass::JvmMeta,
        );
        let resident = page_align_up(config.old_resident);
        commit(kernel, pid, va::OLD_BASE, resident, PageClass::HeapOld);
        kernel.write_range(
            pid,
            VaRange::from_len(Vaddr(va::OLD_BASE), resident),
            PageClass::HeapOld,
        );

        let init_regions = ((config.young_init / region_bytes).max(1) as usize).min(max_regions);
        let mut heap = Self {
            pid,
            region_bytes,
            regions: vec![
                Region {
                    state: RegionState::Untracked,
                    used: 0,
                };
                arena
            ],
            eden: Vec::new(),
            survivors: Vec::new(),
            target_regions: init_regions,
            pick_hint: 0,
            old_committed: resident,
            old_used: config.old_resident,
            last_gc_at: None,
            gc_log: GcLog::new(),
            config,
        };
        let _ = heap.claim_region(kernel).expect("initial region");
        heap
    }

    /// The configured region size.
    pub fn region_bytes(&self) -> u64 {
        self.region_bytes
    }

    /// Number of regions currently assigned to the Young generation
    /// (Eden + survivors).
    pub fn young_region_count(&self) -> usize {
        self.eden.len() + self.survivors.len()
    }

    fn region_base(&self, idx: usize) -> u64 {
        G1_BASE + idx as u64 * self.region_bytes
    }

    fn region_range(&self, idx: usize) -> VaRange {
        VaRange::from_len(Vaddr(self.region_base(idx)), self.region_bytes)
    }

    /// Claims a region for Eden, committing it if never used; returns its
    /// index, or `None` when the young budget is exhausted.
    fn claim_region(&mut self, kernel: &mut GuestKernel) -> Option<usize> {
        if self.young_region_count() >= self.target_regions {
            return None;
        }
        let idx = self.pick_free(kernel)?;
        self.regions[idx] = Region {
            state: RegionState::Eden,
            used: 0,
        };
        self.eden.push(idx);
        Some(idx)
    }

    /// Finds (and commits, if needed) a free region. The search hint jumps
    /// by a large stride after every pick, so successive claims land in
    /// scattered, non-contiguous parts of the arena — like a fragmented G1
    /// heap.
    fn pick_free(&mut self, kernel: &mut GuestKernel) -> Option<usize> {
        let n = self.regions.len();
        for step in 0..n {
            let idx = (self.pick_hint + step) % n;
            match self.regions[idx].state {
                RegionState::Free => {
                    self.pick_hint = (idx + REGION_STRIDE) % n;
                    return Some(idx);
                }
                RegionState::Untracked => {
                    kernel.alloc_map(
                        self.pid,
                        Vaddr(self.region_base(idx)),
                        self.region_bytes / PAGE_SIZE,
                        PageClass::HeapYoung,
                    )?;
                    self.regions[idx].state = RegionState::Free;
                    self.pick_hint = (idx + REGION_STRIDE) % n;
                    return Some(idx);
                }
                _ => {}
            }
        }
        None
    }

    /// Appends promoted bytes to the Old generation.
    fn append_old(&mut self, kernel: &mut GuestKernel, bytes: u64) -> WriteOutcome {
        let new_used = self.old_used + bytes;
        if new_used > self.old_committed {
            let target = page_align_up(new_used);
            let delta_pages = (target - self.old_committed) / PAGE_SIZE;
            kernel
                .alloc_map(
                    self.pid,
                    Vaddr(va::OLD_BASE + self.old_committed),
                    delta_pages,
                    PageClass::HeapOld,
                )
                .expect("guest out of frames while growing the Old generation");
            self.old_committed = target;
        }
        let range = VaRange::new(
            Vaddr(va::OLD_BASE + self.old_used),
            Vaddr(va::OLD_BASE + new_used),
        );
        self.old_used = new_used;
        kernel.write_range(self.pid, range, PageClass::HeapOld)
    }

    fn perform_full_gc(
        &mut self,
        kernel: &mut GuestKernel,
        writes: &mut WriteOutcome,
    ) -> SimDuration {
        let before = self.old_used;
        let live = (before as f64 * FULL_GC_LIVE_FRACTION) as u64;
        writes.merge(kernel.write_range(
            self.pid,
            VaRange::from_len(Vaddr(va::OLD_BASE), page_align_up(live.max(PAGE_SIZE))),
            PageClass::HeapOld,
        ));
        self.old_used = live;
        self.config.gc_costs.full_base
            + SimDuration::from_secs_f64(before as f64 * self.config.gc_costs.full_cost_per_byte)
    }

    /// Post-GC ergonomics on the region budget; returns uncommitted ranges.
    fn resize_budget(&mut self, kernel: &mut GuestKernel, now: SimTime) -> Vec<VaRange> {
        let Some(prev) = self.last_gc_at else {
            return Vec::new();
        };
        let interval = now.saturating_since(prev);
        let max_regions = (self.config.young_max / self.region_bytes).max(2) as usize;
        let min_regions =
            ((self.config.young_init / self.region_bytes).max(1) as usize).min(max_regions);
        if interval < self.config.grow_below_interval && self.target_regions < max_regions {
            self.target_regions = (self.target_regions * 2).min(max_regions);
            Vec::new()
        } else if interval > self.config.shrink_above_interval && self.target_regions > min_regions
        {
            self.target_regions = (self.target_regions / 2).max(min_regions);
            // Uncommit free regions beyond the new budget.
            let mut shrunk = Vec::new();
            let committed_free: Vec<usize> = self
                .regions
                .iter()
                .enumerate()
                .filter(|(_, r)| r.state == RegionState::Free)
                .map(|(i, _)| i)
                .collect();
            let excess = committed_free.len().saturating_sub(
                self.target_regions
                    .saturating_sub(self.young_region_count()),
            );
            for &idx in committed_free.iter().take(excess) {
                let range = self.region_range(idx);
                kernel.unmap_free(self.pid, range);
                self.regions[idx].state = RegionState::Untracked;
                shrunk.push(range);
            }
            shrunk
        } else {
            Vec::new()
        }
    }
}

fn commit(kernel: &mut GuestKernel, pid: Pid, base: u64, bytes: u64, class: PageClass) {
    let pages = page_align_up(bytes) / PAGE_SIZE;
    kernel
        .alloc_map(pid, Vaddr(base), pages, class)
        .expect("guest out of frames while committing JVM memory");
}

impl HeapModel for G1Heap {
    fn pid(&self) -> Pid {
        self.pid
    }

    fn eden_headroom(&self) -> u64 {
        // Current region remainder plus every region still claimable.
        let in_current = self
            .eden
            .last()
            .map(|&i| self.region_bytes - self.regions[i].used)
            .unwrap_or(0);
        let claimable = self
            .target_regions
            .saturating_sub(self.young_region_count()) as u64;
        in_current + claimable * self.region_bytes
    }

    fn bump_eden(&mut self, kernel: &mut GuestKernel, bytes: u64) -> WriteOutcome {
        assert!(
            bytes <= self.eden_headroom(),
            "allocation of {bytes} exceeds Eden headroom {}",
            self.eden_headroom()
        );
        let mut remaining = bytes;
        let mut out = WriteOutcome::default();
        while remaining > 0 {
            let idx = match self.eden.last().copied() {
                Some(i) if self.regions[i].used < self.region_bytes => i,
                _ => self
                    .claim_region(kernel)
                    .expect("headroom checked: a region must be claimable"),
            };
            let room = self.region_bytes - self.regions[idx].used;
            let chunk = remaining.min(room);
            let start = self.region_base(idx) + self.regions[idx].used;
            out.merge(kernel.write_range(
                self.pid,
                VaRange::new(Vaddr(start), Vaddr(start + chunk)),
                PageClass::HeapYoung,
            ));
            self.regions[idx].used += chunk;
            remaining -= chunk;
        }
        out
    }

    fn write_old_ws(
        &mut self,
        kernel: &mut GuestKernel,
        rng: &mut DetRng,
        bytes: u64,
        ws_bytes: u64,
    ) -> WriteOutcome {
        let window_pages = ws_bytes.min(self.old_used) / PAGE_SIZE;
        if window_pages == 0 {
            return WriteOutcome::default();
        }
        let pages: Vec<u64> = (0..bytes.div_ceil(PAGE_SIZE))
            .map(|_| rng.below(window_pages))
            .collect();
        kernel.write_pages(self.pid, Vaddr(va::OLD_BASE), &pages, PageClass::HeapOld)
    }

    fn perform_minor_gc(
        &mut self,
        kernel: &mut GuestKernel,
        rng: &mut DetRng,
        profile: &MutatorProfile,
        now: SimTime,
        kind: GcKind,
    ) -> (GcRecord, WriteOutcome) {
        let eden_before: u64 = self.eden.iter().map(|&i| self.regions[i].used).sum();
        let surv_before: u64 = self.survivors.iter().map(|&i| self.regions[i].used).sum();
        let young_committed = self.young_committed();

        let jitter = rng.jitter(0.08);
        let eden_live = ((eden_before as f64) * profile.eden_survival * jitter) as u64;
        let promoted = ((surv_before as f64) * profile.from_survival) as u64;

        let mut writes = WriteOutcome::default();
        // Free the collected regions first so evacuation can reuse them.
        for idx in self.eden.drain(..).chain(self.survivors.drain(..)) {
            self.regions[idx] = Region {
                state: RegionState::Free,
                used: 0,
            };
        }

        // Evacuate the live Eden data into fresh survivor regions.
        let mut remaining = eden_live;
        while remaining > 0 {
            let Some(idx) = self.pick_free(kernel) else {
                // Evacuation failure: promote the rest directly.
                writes.merge(self.append_old(kernel, remaining));
                remaining = 0;
                break;
            };
            let chunk = remaining.min(self.region_bytes);
            self.regions[idx] = Region {
                state: RegionState::Survivor,
                used: chunk,
            };
            self.survivors.push(idx);
            let start = self.region_base(idx);
            writes.merge(kernel.write_range(
                self.pid,
                VaRange::new(Vaddr(start), Vaddr(start + chunk)),
                PageClass::HeapYoung,
            ));
            remaining -= chunk;
        }
        let _ = remaining;

        let mut duration = self.config.gc_costs.minor_base
            + SimDuration::from_secs_f64(
                young_committed as f64 * self.config.gc_costs.scan_cost_per_byte
                    + (eden_live + promoted) as f64 * self.config.gc_costs.copy_cost_per_byte,
            );
        if promoted > 0 {
            writes.merge(self.append_old(kernel, promoted));
            if self.old_used > self.config.old_max {
                duration += self.perform_full_gc(kernel, &mut writes);
            }
        }

        let garbage = (eden_before + surv_before).saturating_sub(eden_live + promoted);
        let mut shrunk = Vec::new();
        if kind != GcKind::EnforcedMinor {
            shrunk = self.resize_budget(kernel, now);
        }
        // Keep one Eden region ready for the next allocation.
        let _ = self.claim_region(kernel);

        let record = GcRecord {
            kind,
            at: now,
            duration,
            young_committed,
            eden_used_before: eden_before,
            from_used_before: surv_before,
            live_copied: eden_live.min(self.survivors.len() as u64 * self.region_bytes),
            promoted,
            garbage_collected: garbage,
            shrunk,
        };
        self.last_gc_at = Some(now);
        self.gc_log.push(record.clone());
        (record, writes)
    }

    fn young_ranges(&self) -> Vec<VaRange> {
        // Every committed arena region is young-generation memory: Eden,
        // survivors, and recycled (free) regions full of stale garbage.
        self.regions
            .iter()
            .enumerate()
            .filter(|(_, r)| r.state != RegionState::Untracked)
            .map(|(i, _)| self.region_range(i))
            .collect()
    }

    fn must_send_ranges(&self) -> Vec<VaRange> {
        self.survivors
            .iter()
            .map(|&i| {
                VaRange::from_len(
                    Vaddr(self.region_base(i)),
                    page_align_up(self.regions[i].used.max(1)),
                )
            })
            .collect()
    }

    fn gc_log(&self) -> &GcLog {
        &self.gc_log
    }

    fn gc_log_mut(&mut self) -> &mut GcLog {
        &mut self.gc_log
    }

    fn young_committed(&self) -> u64 {
        self.regions
            .iter()
            .filter(|r| r.state != RegionState::Untracked)
            .count() as u64
            * self.region_bytes
    }

    fn young_used(&self) -> u64 {
        self.eden
            .iter()
            .chain(self.survivors.iter())
            .map(|&i| self.regions[i].used)
            .sum()
    }

    fn old_used(&self) -> u64 {
        self.old_used
    }

    fn old_committed(&self) -> u64 {
        self.old_committed
    }

    fn codecache_bytes(&self) -> u64 {
        self.config.codecache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guestos::kernel::GuestOsConfig;
    use simkit::units::MIB;
    use vmem::VmSpec;

    fn setup() -> (GuestKernel, G1Heap) {
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
        let pid = kernel.spawn("java-g1");
        let config = JvmConfig::with_young_max(256 * MIB);
        let heap = G1Heap::launch(&mut kernel, pid, config, 4 * MIB);
        (kernel, heap)
    }

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn young_ranges_are_non_contiguous_regions() {
        let (mut kernel, mut heap) = setup();
        // Fill several regions.
        heap.bump_eden(&mut kernel, 10 * MIB);
        let ranges = heap.young_ranges();
        assert!(
            ranges.len() >= 3,
            "expected several regions, got {}",
            ranges.len()
        );
        // Non-contiguity: at least one gap between consecutive ranges.
        let mut sorted: Vec<_> = ranges.iter().map(|r| r.start().0).collect();
        sorted.sort_unstable();
        let gaps = sorted
            .windows(2)
            .filter(|w| w[1] - w[0] > heap.region_bytes())
            .count();
        assert!(gaps > 0, "regions should be scattered across the arena");
    }

    #[test]
    fn gc_evacuates_into_survivor_regions() {
        let (mut kernel, mut heap) = setup();
        let mut rng = DetRng::new(5);
        let profile = MutatorProfile {
            eden_survival: 0.10,
            ..MutatorProfile::quiet()
        };
        let headroom = heap.eden_headroom();
        heap.bump_eden(&mut kernel, headroom);
        let used_before = heap.young_used();
        let (rec, writes) =
            heap.perform_minor_gc(&mut kernel, &mut rng, &profile, t(1), GcKind::Minor);
        assert_eq!(
            rec.garbage_collected + rec.live_copied + rec.promoted,
            used_before
        );
        assert!(!heap.must_send_ranges().is_empty(), "survivors exist");
        assert!(writes.pages > 0, "evacuation dirties survivor regions");
        // Eden is empty again (one fresh region claimed).
        assert!(heap.eden_headroom() > 0);
    }

    #[test]
    fn budget_grows_under_pressure() {
        let (mut kernel, mut heap) = setup();
        let mut rng = DetRng::new(5);
        let profile = MutatorProfile::quiet();
        let before = heap.target_regions;
        let mut now = SimTime::ZERO;
        for _ in 0..8 {
            now += SimDuration::from_millis(500);
            let headroom = heap.eden_headroom();
            heap.bump_eden(&mut kernel, headroom);
            heap.perform_minor_gc(&mut kernel, &mut rng, &profile, now, GcKind::Minor);
        }
        assert!(heap.target_regions > before);
        assert_eq!(
            heap.target_regions as u64 * heap.region_bytes(),
            heap.target_regions as u64 * 4 * MIB
        );
    }

    #[test]
    fn idle_budget_shrinks_and_uncommits() {
        let (mut kernel, mut heap) = setup();
        let mut rng = DetRng::new(5);
        let profile = MutatorProfile::quiet();
        let mut now = SimTime::ZERO;
        // Grow first.
        for _ in 0..8 {
            now += SimDuration::from_millis(500);
            let headroom = heap.eden_headroom();
            heap.bump_eden(&mut kernel, headroom);
            heap.perform_minor_gc(&mut kernel, &mut rng, &profile, now, GcKind::Minor);
        }
        let grown = heap.young_committed();
        // Then idle.
        now += SimDuration::from_secs(60);
        heap.bump_eden(&mut kernel, MIB);
        let (rec, _) = heap.perform_minor_gc(&mut kernel, &mut rng, &profile, now, GcKind::Minor);
        assert!(
            !rec.shrunk.is_empty(),
            "shrink must report uncommitted regions"
        );
        assert!(heap.young_committed() < grown);
        for r in &rec.shrunk {
            assert_eq!(kernel.translate(heap.pid(), r.start()), None);
        }
    }

    #[test]
    fn survivor_regions_rotate() {
        let (mut kernel, mut heap) = setup();
        let mut rng = DetRng::new(5);
        let profile = MutatorProfile {
            eden_survival: 0.2,
            from_survival: 0.3,
            ..MutatorProfile::quiet()
        };
        let mut prev: Vec<VaRange> = Vec::new();
        for i in 0..4 {
            let headroom = heap.eden_headroom();
            heap.bump_eden(&mut kernel, headroom);
            heap.perform_minor_gc(
                &mut kernel,
                &mut rng,
                &profile,
                t(10 * (i + 1)),
                GcKind::Minor,
            );
            let cur = heap.must_send_ranges();
            assert!(!cur.is_empty());
            if !prev.is_empty() {
                assert_ne!(prev, cur, "survivor regions should move");
            }
            prev = cur;
        }
    }
}
