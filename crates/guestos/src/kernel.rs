//! The simulated guest kernel: memory, processes, frames, LKM hosting.
//!
//! `GuestKernel` is the container the rest of the stack builds on. It boots
//! a VM image (kernel text/data and a page cache get written once so they
//! are real content to migrate), hands out page frames to processes through
//! a scattering allocator, hosts the netlink bus and the LKM, and models the
//! slow background dirtying every live OS exhibits.

use crate::frames::FrameAllocator;
use crate::lkm::{DaemonPort, Lkm, LkmConfig};
use crate::netlink::{NetlinkBus, NetlinkSocket};
use crate::process::{Pid, Process};
use simkit::{DetRng, SimDuration, SimTime};
use std::collections::BTreeMap;
use vmem::{Bitmap, GuestMemory, PageClass, Pfn, VaRange, Vaddr, VmSpec, PAGE_SIZE};

/// Static configuration of the guest OS image.
#[derive(Debug, Clone)]
pub struct GuestOsConfig {
    /// VM dimensions.
    pub spec: VmSpec,
    /// Resident kernel image + data, written at boot.
    pub kernel_bytes: u64,
    /// Page-cache contents, written at boot.
    pub pagecache_bytes: u64,
    /// Background kernel-page dirtying rate (bytes/second).
    pub kernel_dirty_rate: f64,
    /// Background page-cache dirtying rate (bytes/second).
    pub pagecache_dirty_rate: f64,
}

impl GuestOsConfig {
    /// A Linux-3.1-era guest matching the paper's testbed: 2 GiB VM with a
    /// modest resident kernel and page cache, and a few MB/s of background
    /// churn (logging, timers, flushers).
    pub fn paper_guest() -> Self {
        Self {
            spec: VmSpec::paper_testbed(),
            kernel_bytes: 96 * 1024 * 1024,
            pagecache_bytes: 160 * 1024 * 1024,
            kernel_dirty_rate: 1.5e6,
            pagecache_dirty_rate: 1.0e6,
        }
    }

    /// Like [`GuestOsConfig::paper_guest`] but for an arbitrary memory size.
    pub fn sized(mem_bytes: u64) -> Self {
        Self {
            spec: VmSpec::new(mem_bytes, 4),
            ..Self::paper_guest()
        }
    }
}

/// Outcome of a ranged guest write.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Pages written.
    pub pages: u64,
    /// Log-dirty faults taken (first touches while migration logs writes).
    pub faults: u64,
}

impl WriteOutcome {
    /// Accumulates another outcome.
    pub fn merge(&mut self, other: WriteOutcome) {
        self.pages += other.pages;
        self.faults += other.faults;
    }
}

/// The guest kernel of one VM.
pub struct GuestKernel {
    config: GuestOsConfig,
    memory: GuestMemory,
    frames: FrameAllocator,
    free_map: Bitmap,
    procs: BTreeMap<Pid, Process>,
    next_pid: u32,
    netlink: NetlinkBus,
    lkm: Option<Lkm>,
    /// Frames of the kernel image: `[0, kernel_pages)`.
    kernel_pages: u64,
    /// Frames of the page cache: `[kernel_pages, kernel_pages + cache_pages)`.
    cache_pages: u64,
    noise_carry: f64,
    rng: DetRng,
}

impl GuestKernel {
    /// Boots a guest: writes the kernel image and page cache, sets up the
    /// frame allocator over the remaining memory.
    pub fn boot(config: GuestOsConfig, rng: DetRng) -> Self {
        let npages = config.spec.page_count();
        let mut memory = GuestMemory::new(config.spec.mem_bytes);
        let kernel_pages = config.kernel_bytes.div_ceil(PAGE_SIZE);
        let cache_pages = config.pagecache_bytes.div_ceil(PAGE_SIZE);
        assert!(
            kernel_pages + cache_pages < npages,
            "kernel + page cache exceed VM memory"
        );

        let pool_start = kernel_pages + cache_pages;
        for p in 0..kernel_pages {
            memory.write(Pfn(p), PageClass::Kernel);
        }
        for p in kernel_pages..pool_start {
            memory.write(Pfn(p), PageClass::PageCache);
        }

        let mut free_map = Bitmap::new(npages);
        for p in pool_start..npages {
            free_map.set(Pfn(p));
        }

        Self {
            frames: FrameAllocator::new(pool_start, npages),
            free_map,
            memory,
            procs: BTreeMap::new(),
            next_pid: 1,
            netlink: NetlinkBus::new(),
            lkm: None,
            kernel_pages,
            cache_pages,
            noise_carry: 0.0,
            config,
            rng,
        }
    }

    /// Returns the VM spec.
    pub fn spec(&self) -> VmSpec {
        self.config.spec
    }

    /// Immutable access to guest memory.
    pub fn memory(&self) -> &GuestMemory {
        &self.memory
    }

    /// Mutable access to guest memory (hypervisor-side operations).
    pub fn memory_mut(&mut self) -> &mut GuestMemory {
        &mut self.memory
    }

    /// Returns whether `pfn` is currently in the kernel's free pool.
    pub fn is_free_frame(&self, pfn: Pfn) -> bool {
        self.free_map.get(pfn)
    }

    /// Returns the number of free frames.
    pub fn free_frames(&self) -> u64 {
        self.frames.free_count()
    }

    /// Spawns a process with an empty address space.
    pub fn spawn(&mut self, name: impl Into<String>) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.procs.insert(pid, Process::new(pid, name));
        pid
    }

    /// Returns a process by pid.
    pub fn process(&self, pid: Pid) -> Option<&Process> {
        self.procs.get(&pid)
    }

    /// Loads the LKM, returning the daemon-side event channel endpoint.
    ///
    /// # Panics
    ///
    /// Panics if the LKM is already loaded.
    pub fn load_lkm(&mut self, config: LkmConfig) -> DaemonPort {
        assert!(self.lkm.is_none(), "LKM already loaded");
        let (lkm, port) = Lkm::load(self.memory.page_count(), self.netlink.kernel_end(), config);
        self.lkm = Some(lkm);
        port
    }

    /// Returns the loaded LKM, if any.
    pub fn lkm(&self) -> Option<&Lkm> {
        self.lkm.as_ref()
    }

    /// Attaches a telemetry recorder to the loaded LKM (no-op when no LKM
    /// is loaded) and to the netlink bus: state transitions, bitmap-update
    /// spans, walk counters and netlink delivery-latency histograms of
    /// subsequent migrations are recorded into it.
    pub fn attach_telemetry(&mut self, recorder: simkit::Recorder) {
        self.netlink.attach_telemetry(recorder.clone());
        if let Some(lkm) = &mut self.lkm {
            lkm.attach_telemetry(recorder);
        }
    }

    /// Subscribes an application to the LKM's netlink multicast group.
    pub fn subscribe_netlink(&self, pid: Pid) -> NetlinkSocket {
        self.netlink.subscribe(pid)
    }

    /// Arms structured fault injection (drop/delay/duplicate) on the
    /// netlink hop; see [`NetlinkBus::install_faults`].
    pub fn install_netlink_faults(&self, faults: simkit::LaneFaults, rng: DetRng) {
        self.netlink.install_faults(faults, rng);
    }

    /// Services the LKM: processes queued daemon and application messages.
    pub fn service_lkm(&mut self, now: SimTime) {
        if let Some(lkm) = &mut self.lkm {
            lkm.service(now, &self.procs);
        }
    }

    /// Allocates `npages` frames and maps them at `va_start` in `pid`'s
    /// address space, tagging them `class` without dirtying them.
    ///
    /// Returns the mapped VA range, or `None` if memory is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `pid` does not exist or `va_start` is not page-aligned.
    pub fn alloc_map(
        &mut self,
        pid: Pid,
        va_start: Vaddr,
        npages: u64,
        class: PageClass,
    ) -> Option<VaRange> {
        assert!(va_start.is_page_aligned(), "va_start must be page-aligned");
        let frames = self.frames.alloc(npages)?;
        let proc = self.procs.get_mut(&pid).expect("unknown pid");
        for (i, &pfn) in frames.iter().enumerate() {
            let va = Vaddr(va_start.0 + i as u64 * PAGE_SIZE);
            let prev = proc.page_table.map(va, pfn);
            assert!(prev.is_none(), "double map at {va:?}");
            self.free_map.clear(pfn);
            self.memory.set_class(pfn, class);
        }
        Some(VaRange::from_len(va_start, npages * PAGE_SIZE))
    }

    /// Unmaps `range` (aligned inward) from `pid` and frees the frames.
    ///
    /// Returns the number of frames freed.
    ///
    /// # Panics
    ///
    /// Panics if `pid` does not exist.
    pub fn unmap_free(&mut self, pid: Pid, range: VaRange) -> u64 {
        let proc = self.procs.get_mut(&pid).expect("unknown pid");
        let freed = proc.page_table.unmap_range(range);
        for &pfn in &freed {
            self.free_map.set(pfn);
        }
        let n = freed.len() as u64;
        self.frames.free(freed);
        n
    }

    /// Writes every page overlapping `range` in `pid`'s address space.
    ///
    /// Partial pages at the ends count as whole-page writes (a store dirties
    /// its page regardless of size). Unmapped pages are skipped.
    ///
    /// # Panics
    ///
    /// Panics if `pid` does not exist.
    pub fn write_range(&mut self, pid: Pid, range: VaRange, class: PageClass) -> WriteOutcome {
        let proc = self.procs.get(&pid).expect("unknown pid");
        let mut out = WriteOutcome::default();
        let outer = range.align_outward();
        proc.page_table
            .for_each_mapped(outer.start().vpn(), outer.end().vpn(), |_, pfn| {
                out.pages += 1;
                out.faults += u64::from(self.memory.write(pfn, class));
            });
        out
    }

    /// Writes the page at `base + i * PAGE_SIZE` for each `i` of `pages`, in
    /// order: the scattered single-page stores of one quantum in one call.
    ///
    /// Unmapped pages are skipped. A page listed twice is written twice, as
    /// two [`GuestKernel::write_range`] calls would write it.
    ///
    /// # Panics
    ///
    /// Panics if `pid` does not exist.
    pub fn write_pages(
        &mut self,
        pid: Pid,
        base: Vaddr,
        pages: &[u64],
        class: PageClass,
    ) -> WriteOutcome {
        let proc = self.procs.get(&pid).expect("unknown pid");
        let mut out = WriteOutcome::default();
        for &page in pages {
            if let Some(pfn) = proc.page_table.translate(base.add(page * PAGE_SIZE)) {
                out.pages += 1;
                out.faults += u64::from(self.memory.write(pfn, class));
            }
        }
        out
    }

    /// Translates a VA in `pid`'s address space.
    pub fn translate(&self, pid: Pid, va: Vaddr) -> Option<Pfn> {
        self.procs.get(&pid)?.page_table.translate(va)
    }

    /// Runs background OS activity for `dt`: the kernel and page cache dirty
    /// pages at their configured rates.
    ///
    /// Returns the write outcome so the caller can charge log-dirty faults.
    pub fn tick_noise(&mut self, _now: SimTime, dt: SimDuration) -> WriteOutcome {
        let bytes =
            (self.config.kernel_dirty_rate + self.config.pagecache_dirty_rate) * dt.as_secs_f64();
        let pages_f = bytes / PAGE_SIZE as f64 + self.noise_carry;
        let pages = pages_f as u64;
        self.noise_carry = pages_f - pages as f64;

        let mut out = WriteOutcome::default();
        let k_share = self.config.kernel_dirty_rate
            / (self.config.kernel_dirty_rate + self.config.pagecache_dirty_rate).max(1.0);
        for i in 0..pages {
            let use_kernel = (i as f64 / pages.max(1) as f64) < k_share;
            let (start, len, class) = if use_kernel && self.kernel_pages > 0 {
                (0, self.kernel_pages, PageClass::Kernel)
            } else if self.cache_pages > 0 {
                (self.kernel_pages, self.cache_pages, PageClass::PageCache)
            } else {
                continue;
            };
            let pfn = Pfn(start + self.rng.below(len));
            out.pages += 1;
            if self.memory.write(pfn, class) {
                out.faults += 1;
            }
        }
        out
    }
}

impl core::fmt::Debug for GuestKernel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("GuestKernel")
            .field("spec", &self.config.spec)
            .field("procs", &self.procs.len())
            .field("free_frames", &self.frames.free_count())
            .field("lkm", &self.lkm.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_guest() -> GuestKernel {
        let config = GuestOsConfig {
            spec: VmSpec::new(64 * 1024 * 1024, 1),
            kernel_bytes: 4 * 1024 * 1024,
            pagecache_bytes: 4 * 1024 * 1024,
            kernel_dirty_rate: 1e6,
            pagecache_dirty_rate: 1e6,
        };
        GuestKernel::boot(config, DetRng::new(1))
    }

    #[test]
    fn boot_writes_kernel_and_cache() {
        let g = small_guest();
        assert_eq!(g.memory().page(Pfn(0)).class, PageClass::Kernel);
        assert_eq!(g.memory().page(Pfn(0)).version, 1);
        let cache_first = Pfn(4 * 1024 * 1024 / PAGE_SIZE);
        assert_eq!(g.memory().page(cache_first).class, PageClass::PageCache);
        // The pool excludes the booted regions.
        assert_eq!(g.free_frames(), (64 - 8) * 1024 * 1024 / PAGE_SIZE);
    }

    #[test]
    fn alloc_map_write_unmap_cycle() {
        let mut g = small_guest();
        let pid = g.spawn("java");
        let range = g
            .alloc_map(pid, Vaddr(0x10_0000), 16, PageClass::HeapYoung)
            .unwrap();
        assert_eq!(range.page_count(), 16);
        let pfn = g.translate(pid, Vaddr(0x10_0000)).unwrap();
        assert!(!g.is_free_frame(pfn));
        let out = g.write_range(pid, range, PageClass::HeapYoung);
        assert_eq!(out.pages, 16);
        assert_eq!(g.memory().page(pfn).version, 1);

        let freed = g.unmap_free(pid, range);
        assert_eq!(freed, 16);
        assert!(g.is_free_frame(pfn));
        assert_eq!(g.translate(pid, Vaddr(0x10_0000)), None);
    }

    #[test]
    fn write_range_counts_partial_pages() {
        let mut g = small_guest();
        let pid = g.spawn("app");
        g.alloc_map(pid, Vaddr(0x20_0000), 4, PageClass::Anon)
            .unwrap();
        // A 1-byte-past-boundary range touches two pages.
        let r = VaRange::new(Vaddr(0x20_0800), Vaddr(0x20_1001));
        let out = g.write_range(pid, r, PageClass::Anon);
        assert_eq!(out.pages, 2);
    }

    #[test]
    fn faults_reported_when_logging() {
        let mut g = small_guest();
        let pid = g.spawn("app");
        let r = g.alloc_map(pid, Vaddr(0), 8, PageClass::Anon).unwrap();
        g.memory_mut().dirty_log_mut().enable();
        let first = g.write_range(pid, r, PageClass::Anon);
        assert_eq!(first.faults, 8);
        let second = g.write_range(pid, r, PageClass::Anon);
        assert_eq!(second.faults, 0);
    }

    #[test]
    fn noise_dirties_at_configured_rate() {
        let mut g = small_guest();
        g.memory_mut().dirty_log_mut().enable();
        let mut total = 0;
        for _ in 0..100 {
            total += g
                .tick_noise(SimTime::ZERO, SimDuration::from_millis(10))
                .pages;
        }
        // 2 MB/s for 1 s = ~512 pages of 4 KiB.
        assert!((450..=580).contains(&total), "noise pages = {total}");
    }

    #[test]
    fn exhausting_frames_returns_none() {
        let mut g = small_guest();
        let pid = g.spawn("hog");
        let free = g.free_frames();
        assert!(g
            .alloc_map(pid, Vaddr(0), free + 1, PageClass::Anon)
            .is_none());
        assert!(g.alloc_map(pid, Vaddr(0), free, PageClass::Anon).is_some());
        assert_eq!(g.free_frames(), 0);
    }

    #[test]
    #[should_panic(expected = "double map")]
    fn double_map_panics() {
        let mut g = small_guest();
        let pid = g.spawn("app");
        g.alloc_map(pid, Vaddr(0), 1, PageClass::Anon).unwrap();
        let _ = g.alloc_map(pid, Vaddr(0), 1, PageClass::Anon);
    }
}
