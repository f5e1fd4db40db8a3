//! A post-copy migration baseline.
//!
//! The paper's related work (§2) contrasts pre-copy with post-copy
//! [Hines & Gopalan; Hirofuchi et al.]: "post-copy migration skips over all
//! memory pages and removes the pre-copy stage. To run the VM in the
//! destination, pages are fetched from the source, incurring performance
//! penalties." This module implements that baseline so the trade-off is
//! measurable against vanilla pre-copy and JAVMM:
//!
//! * **switchover**: the VM pauses only to move execution state — downtime
//!   is minimal and independent of memory size;
//! * **demand fetch**: after resumption, the first touch of every
//!   not-yet-present page stalls the guest for a network round trip plus
//!   the page transfer;
//! * **background pre-paging**: the source pushes the remaining pages in
//!   address order with the leftover link capacity, so the degradation
//!   window is bounded.
//!
//! Because the simulation observes guest *writes*, demand faults are
//! charged for written pages; read-only touches are covered by the
//! background push. This under-counts read stalls slightly, which is
//! conservative in post-copy's favour — and it still loses on degradation,
//! which is the paper's point.

use crate::vmhost::MigratableVm;
use netsim::{Link, PAGE_HEADER_BYTES};
use simkit::units::Bandwidth;
use simkit::{SimClock, SimDuration};
use vmem::{Bitmap, Pfn, PAGE_SIZE};

/// Configuration of the post-copy engine.
#[derive(Debug, Clone)]
pub struct PostcopyConfig {
    /// Link bandwidth.
    pub bandwidth: Bandwidth,
    /// Network round-trip time charged per demand fetch.
    pub fetch_rtt: SimDuration,
    /// Execution-state switchover time (the only downtime).
    pub switchover: SimDuration,
    /// Co-simulation quantum.
    pub quantum: SimDuration,
}

impl Default for PostcopyConfig {
    fn default() -> Self {
        Self {
            bandwidth: Bandwidth::gigabit_ethernet(),
            fetch_rtt: SimDuration::from_micros(200),
            switchover: SimDuration::from_millis(170),
            quantum: SimDuration::from_millis(1),
        }
    }
}

/// Outcome of a post-copy migration.
#[derive(Debug, Clone)]
pub struct PostcopyReport {
    /// Time from invocation until every page is present at the destination.
    pub total_duration: SimDuration,
    /// VM downtime (switchover only).
    pub downtime: SimDuration,
    /// Total bytes moved (demand fetches + background push).
    pub total_bytes: u64,
    /// Pages fetched on demand (each stalled the guest).
    pub demand_fetches: u64,
    /// Guest time lost to demand-fetch stalls.
    pub stall_time: SimDuration,
    /// How long the degradation window lasted (resume → all pages present).
    pub degradation_window: SimDuration,
}

/// The post-copy engine.
#[derive(Debug, Clone)]
pub struct PostcopyEngine {
    config: PostcopyConfig,
}

impl PostcopyEngine {
    /// Creates an engine.
    pub fn new(config: PostcopyConfig) -> Self {
        Self { config }
    }

    /// Migrates `vm` post-copy style over a dedicated NIC at the
    /// configured bandwidth, which governs demand-fetch stalls and the
    /// background-push budget alike.
    pub fn migrate(&self, vm: &mut dyn MigratableVm, clock: &mut SimClock) -> PostcopyReport {
        let mut link = Link::new(self.config.bandwidth);
        let t0 = clock.now();
        let npages = vm.kernel().memory().page_count();

        // Switchover: the only pause the workload sees.
        clock.advance(self.config.switchover);
        let t_resumed = clock.now();

        // Track page presence at the destination. Pristine pages need no
        // transfer (zero-filled on both sides).
        let mut present = Bitmap::new(npages);
        let mut remaining = 0u64;
        for p in 0..npages {
            if vm.kernel().memory().page(Pfn(p)).is_pristine() {
                present.set(Pfn(p));
            } else {
                remaining += 1;
            }
        }

        // Demand faults are observed through the dirty log: each quantum's
        // newly written pages that were not yet present stalled the guest.
        vm.kernel_mut().memory_mut().dirty_log_mut().enable();
        let mut push_cursor = 0u64;
        let mut total_bytes = 0u64;
        let mut demand_fetches = 0u64;
        let mut stall_time = SimDuration::ZERO;

        while remaining > 0 {
            // Run the guest for a quantum.
            vm.advance_guest(clock.now(), self.config.quantum);
            clock.advance(self.config.quantum);

            // Demand-fetch every page the guest touched that is missing.
            let touched = vm
                .kernel_mut()
                .memory_mut()
                .dirty_log_mut()
                .read_and_clear();
            let mut budget = link.budget(self.config.quantum) as i64;
            for pfn in touched.iter_set() {
                if present.set(pfn) {
                    remaining -= 1;
                    demand_fetches += 1;
                    let wire = PAGE_SIZE + PAGE_HEADER_BYTES;
                    total_bytes += wire;
                    budget -= wire as i64;
                    // The guest stalled for the round trip + transfer.
                    let stall = self.config.fetch_rtt + link.time_to_send(wire);
                    stall_time += stall;
                    clock.advance(stall);
                }
            }

            // Background pre-paging with the leftover capacity.
            while budget > 0 && remaining > 0 {
                let Some(pfn) = next_missing(&present, &mut push_cursor, npages) else {
                    break;
                };
                present.set(pfn);
                remaining -= 1;
                let wire = PAGE_SIZE + PAGE_HEADER_BYTES;
                total_bytes += wire;
                budget -= wire as i64;
            }
        }
        vm.kernel_mut().memory_mut().dirty_log_mut().disable();

        PostcopyReport {
            total_duration: clock.now().saturating_since(t0),
            downtime: self.config.switchover,
            total_bytes,
            demand_fetches,
            stall_time,
            degradation_window: clock.now().saturating_since(t_resumed),
        }
    }
}

/// Finds the next page the background push has not yet sent.
fn next_missing(present: &Bitmap, cursor: &mut u64, npages: u64) -> Option<Pfn> {
    while *cursor < npages {
        let pfn = Pfn(*cursor);
        *cursor += 1;
        if !present.get(pfn) {
            return Some(pfn);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use guestos::kernel::{GuestKernel, GuestOsConfig};
    use guestos::lkm::DaemonPort;
    use guestos::process::Pid;
    use simkit::units::MIB;
    use simkit::{DetRng, SimTime};
    use vmem::{PageClass, VaRange, Vaddr, VmSpec};

    struct TouchyVm {
        kernel: GuestKernel,
        pid: Pid,
        region: VaRange,
        cursor: u64,
        pages_per_quantum: u64,
    }

    impl TouchyVm {
        fn new(pages_per_quantum: u64) -> Self {
            let mut kernel = GuestKernel::boot(
                GuestOsConfig {
                    spec: VmSpec::new(64 * MIB, 1),
                    kernel_bytes: 4 * MIB,
                    pagecache_bytes: 4 * MIB,
                    kernel_dirty_rate: 0.0,
                    pagecache_dirty_rate: 0.0,
                },
                DetRng::new(1),
            );
            let pid = kernel.spawn("touchy");
            let region = kernel
                .alloc_map(pid, Vaddr(0x10_0000_0000), 2048, PageClass::Anon)
                .expect("fits");
            kernel.write_range(pid, region, PageClass::Anon);
            Self {
                kernel,
                pid,
                region,
                cursor: 0,
                pages_per_quantum,
            }
        }
    }

    impl MigratableVm for TouchyVm {
        fn kernel(&self) -> &GuestKernel {
            &self.kernel
        }

        fn kernel_mut(&mut self) -> &mut GuestKernel {
            &mut self.kernel
        }

        fn advance_guest(&mut self, _now: SimTime, _dt: SimDuration) {
            let pages = self.region.page_count();
            for _ in 0..self.pages_per_quantum {
                let va = Vaddr(self.region.start().0 + (self.cursor % pages) * PAGE_SIZE);
                self.kernel
                    .write_range(self.pid, VaRange::from_len(va, 1), PageClass::Anon);
                self.cursor += 1;
            }
        }

        fn ops_completed(&self) -> u64 {
            self.cursor
        }

        fn daemon_port(&self) -> Option<DaemonPort> {
            None
        }

        fn enforced_gc_duration(&self) -> Option<SimDuration> {
            None
        }
    }

    #[test]
    fn downtime_is_switchover_only() {
        let mut vm = TouchyVm::new(4);
        let mut clock = SimClock::new();
        let report = PostcopyEngine::new(PostcopyConfig::default()).migrate(&mut vm, &mut clock);
        assert_eq!(report.downtime, SimDuration::from_millis(170));
        assert!(report.total_duration > report.downtime);
    }

    #[test]
    fn every_written_page_arrives_exactly_once() {
        let mut vm = TouchyVm::new(8);
        let mut clock = SimClock::new();
        let report = PostcopyEngine::new(PostcopyConfig::default()).migrate(&mut vm, &mut clock);
        // Boot content (8 MiB) + region (8 MiB) + whatever the guest wrote
        // during the window: each page is moved exactly once.
        let moved_pages = report.total_bytes / (PAGE_SIZE + PAGE_HEADER_BYTES);
        let content_pages = 16 * MIB / PAGE_SIZE;
        assert_eq!(moved_pages, content_pages);
    }

    #[test]
    fn hot_guests_stall_more() {
        let run = |rate: u64| {
            let mut vm = TouchyVm::new(rate);
            let mut clock = SimClock::new();
            PostcopyEngine::new(PostcopyConfig::default()).migrate(&mut vm, &mut clock)
        };
        let quiet = run(1);
        let hot = run(16);
        assert!(hot.demand_fetches > quiet.demand_fetches);
        assert!(hot.stall_time > quiet.stall_time);
    }
}
