//! The destination VM: page reception and correctness verification.
//!
//! Because source pages carry exact content versions, migration correctness
//! is checkable precisely: at pause time, every page the protocol promises
//! to have transferred must hold the source's final version at the
//! destination. Pages are *excused* from the check only when the protocol
//! legitimately does not promise them:
//!
//! * pages whose transfer bit is cleared at pause time (skip-over areas —
//!   garbage the application declared unneeded);
//! * frames sitting in the guest kernel's free pool (contents are dead; a
//!   future owner will write before reading);
//! * pristine pages never written by the source (destination zero-fill
//!   already matches).

use guestos::kernel::GuestKernel;
use vmem::{Bitmap, PageInfo, Pfn};

/// Receives pages at the destination host.
///
/// Only each page's version is kept, 8 bytes per page: verification and
/// the delta gate compare versions, and nothing reads a received class.
#[derive(Debug, Clone)]
pub struct DestinationVm {
    versions: Vec<u64>,
}

impl DestinationVm {
    /// Creates a destination for a VM of `npages` pages (zero-filled).
    pub fn new(npages: u64) -> Self {
        Self {
            versions: vec![0; npages as usize],
        }
    }

    /// Stores a received page.
    ///
    /// # Panics
    ///
    /// Panics if `pfn` is out of range.
    pub fn receive(&mut self, pfn: Pfn, page: PageInfo) {
        self.versions[pfn.0 as usize] = page.version;
    }

    /// `true` once a written version of `pfn` has been received — the
    /// XBZRLE gate: a re-send may be delta-encoded only against a prior
    /// version that actually crossed the wire. Pristine receptions
    /// (version 0) do not count; they are indistinguishable from the
    /// destination's own zero-fill.
    pub fn has_received(&self, pfn: Pfn) -> bool {
        self.versions[pfn.0 as usize] != 0
    }

    /// Compares destination contents against the paused source.
    ///
    /// `skip_at_pause` holds a set bit for every page whose transfer bit was
    /// *cleared* when the VM paused (i.e. the skip set).
    pub fn verify(&self, source: &GuestKernel, skip_at_pause: &Bitmap) -> VerifyReport {
        let mut report = VerifyReport::default();
        let npages = source.memory().page_count();
        for p in 0..npages {
            let pfn = Pfn(p);
            if source.memory().page(pfn).version == self.versions[p as usize] {
                report.matching += 1;
                continue;
            }
            if skip_at_pause.get(pfn) {
                report.excused_skipped += 1;
            } else if source.is_free_frame(pfn) {
                report.excused_free += 1;
            } else {
                report.mismatched += 1;
            }
        }
        report
    }
}

/// Result of a destination correctness check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Pages whose destination content matches the source exactly.
    pub matching: u64,
    /// Stale pages excused because they were in skip-over areas at pause.
    pub excused_skipped: u64,
    /// Stale pages excused because the frame was free at pause.
    pub excused_free: u64,
    /// Pages that SHOULD match but do not — any non-zero value is a
    /// migration correctness bug.
    pub mismatched: u64,
}

impl VerifyReport {
    /// Returns `true` when migration was correct.
    pub fn is_correct(&self) -> bool {
        self.mismatched == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guestos::kernel::GuestOsConfig;
    use simkit::DetRng;
    use vmem::{PageClass, Vaddr, VmSpec};

    fn guest() -> GuestKernel {
        GuestKernel::boot(
            GuestOsConfig {
                spec: VmSpec::new(64 * 1024 * 1024, 1),
                kernel_bytes: 0,
                pagecache_bytes: 0,
                kernel_dirty_rate: 0.0,
                pagecache_dirty_rate: 0.0,
            },
            DetRng::new(1),
        )
    }

    #[test]
    fn exact_copy_verifies() {
        let g = guest();
        let npages = g.memory().page_count();
        let mut dest = DestinationVm::new(npages);
        for p in 0..npages {
            dest.receive(Pfn(p), g.memory().page(Pfn(p)));
        }
        let report = dest.verify(&g, &Bitmap::new(npages));
        assert!(report.is_correct());
        assert_eq!(report.matching, npages);
    }

    #[test]
    fn stale_mapped_page_is_a_mismatch() {
        let mut g = guest();
        let pid = g.spawn("app");
        let r = g.alloc_map(pid, Vaddr(0), 1, PageClass::Anon).unwrap();
        g.write_range(pid, r, PageClass::Anon);
        let npages = g.memory().page_count();
        let dest = DestinationVm::new(npages);
        let report = dest.verify(&g, &Bitmap::new(npages));
        assert_eq!(report.mismatched, 1);
        assert!(!report.is_correct());
    }

    #[test]
    fn skip_marked_page_is_excused() {
        let mut g = guest();
        let pid = g.spawn("app");
        let r = g.alloc_map(pid, Vaddr(0), 1, PageClass::Anon).unwrap();
        g.write_range(pid, r, PageClass::Anon);
        let pfn = g.translate(pid, Vaddr(0)).unwrap();
        let npages = g.memory().page_count();
        let mut skip = Bitmap::new(npages);
        skip.set(pfn);
        let dest = DestinationVm::new(npages);
        let report = dest.verify(&g, &skip);
        assert_eq!(report.mismatched, 0);
        assert_eq!(report.excused_skipped, 1);
    }

    #[test]
    fn freed_frame_is_excused() {
        let mut g = guest();
        let pid = g.spawn("app");
        let r = g.alloc_map(pid, Vaddr(0), 1, PageClass::Anon).unwrap();
        g.write_range(pid, r, PageClass::Anon);
        g.unmap_free(pid, r);
        let npages = g.memory().page_count();
        let dest = DestinationVm::new(npages);
        let report = dest.verify(&g, &Bitmap::new(npages));
        assert_eq!(report.mismatched, 0);
        assert_eq!(report.excused_free, 1);
    }

    #[test]
    fn pristine_pages_match_by_default() {
        let g = guest();
        let npages = g.memory().page_count();
        let dest = DestinationVm::new(npages);
        let report = dest.verify(&g, &Bitmap::new(npages));
        // Nothing was ever written: the zero-filled destination matches.
        assert_eq!(report.mismatched, 0);
        assert_eq!(report.matching, npages);
    }
}
