//! Per-process page tables: the VA→PFN mapping the kernel module walks.
//!
//! Applications report skip-over areas as VA ranges; only the guest kernel
//! can turn those into the PFNs the migration daemon understands. The LKM
//! performs page-table walks for this translation (§3.3.2). We model the
//! table the way x86-64 stores its last level: 512-entry leaf arrays of
//! page-table entries, one per 2 MiB of VA, so a walk over a range reads
//! each leaf it covers once. The LKM charges its modeled walk cost from the
//! pages a walk returns (§3.3.4).

use crate::addr::{Pfn, VaRange, Vaddr};
use std::collections::BTreeMap;

/// log2 of the entries per leaf (9 bits of VPN, as on x86-64).
const LEAF_BITS: u32 = 9;
/// Entries per leaf.
const LEAF_LEN: u64 = 1 << LEAF_BITS;
/// The present bit of a page-table entry. PFN 0 is a real frame (the
/// kernel image starts there), so an entry of 0 means "unmapped" only
/// because mapped entries carry this bit.
const PRESENT: u64 = 1 << 63;

type Leaf = Box<[u64; LEAF_LEN as usize]>;

/// A simulated page table for one address space.
///
/// # Examples
///
/// ```
/// use vmem::addr::{Pfn, Vaddr};
/// use vmem::pagetable::PageTable;
///
/// let mut pt = PageTable::new();
/// pt.map(Vaddr(0x4000), Pfn(99));
/// assert_eq!(pt.translate(Vaddr(0x4123)), Some(Pfn(99)));
/// assert_eq!(pt.translate(Vaddr(0x5000)), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    /// Leaves keyed by `vpn >> LEAF_BITS`. A leaf is never freed once
    /// allocated, as in most kernels: it costs 4 KiB per 2 MiB of VA that
    /// was ever mapped.
    leaves: BTreeMap<u64, Leaf>,
    mapped: u64,
}

/// Decodes a page-table entry.
fn pte_pfn(pte: u64) -> Option<Pfn> {
    (pte & PRESENT != 0).then_some(Pfn(pte & !PRESENT))
}

/// Index of `vpn` within its leaf.
fn slot(vpn: u64) -> usize {
    (vpn & (LEAF_LEN - 1)) as usize
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps the page containing `va` to `pfn`, replacing any prior mapping.
    ///
    /// Returns the previous PFN if the page was already mapped (a remap, the
    /// case (2) of §3.3.4 the paper assumes absent in skip-over areas).
    pub fn map(&mut self, va: Vaddr, pfn: Pfn) -> Option<Pfn> {
        assert_eq!(pfn.0 & PRESENT, 0, "{pfn:?} collides with the present bit");
        let vpn = va.vpn();
        let leaf = self
            .leaves
            .entry(vpn >> LEAF_BITS)
            .or_insert_with(|| Box::new([0; LEAF_LEN as usize]));
        let prev = pte_pfn(std::mem::replace(&mut leaf[slot(vpn)], pfn.0 | PRESENT));
        self.mapped += u64::from(prev.is_none());
        prev
    }

    /// Removes the mapping of the page containing `va`.
    pub fn unmap(&mut self, va: Vaddr) -> Option<Pfn> {
        let vpn = va.vpn();
        let leaf = self.leaves.get_mut(&(vpn >> LEAF_BITS))?;
        let prev = pte_pfn(std::mem::take(&mut leaf[slot(vpn)]));
        self.mapped -= u64::from(prev.is_some());
        prev
    }

    /// Looks up the PFN backing `va`.
    pub fn translate(&self, va: Vaddr) -> Option<Pfn> {
        let vpn = va.vpn();
        pte_pfn(self.leaves.get(&(vpn >> LEAF_BITS))?[slot(vpn)])
    }

    /// Calls `f(vpn, pfn)` for every mapped page with `lo <= vpn < hi`, in
    /// VA order, reading each leaf the range covers once.
    pub fn for_each_mapped(&self, lo: u64, hi: u64, mut f: impl FnMut(u64, Pfn)) {
        if lo >= hi {
            return;
        }
        for (&key, leaf) in self.leaves.range(lo >> LEAF_BITS..=(hi - 1) >> LEAF_BITS) {
            let base = key << LEAF_BITS;
            let first = lo.max(base);
            let end = hi.min(base + LEAF_LEN);
            for (vpn, &pte) in (first..end).zip(&leaf[slot(first)..]) {
                if let Some(pfn) = pte_pfn(pte) {
                    f(vpn, pfn);
                }
            }
        }
    }

    /// Walks the table over `range` (aligned inward), returning `(vpn, pfn)`
    /// for the mapped pages in VA order.
    ///
    /// Unmapped pages are skipped silently: a skip-over area may legitimately
    /// contain not-yet-faulted-in virtual pages, which simply have no frame
    /// to skip.
    pub fn walk_range(&self, range: VaRange) -> Vec<(u64, Pfn)> {
        let aligned = range.align_inward();
        let mut out = Vec::new();
        self.for_each_mapped(aligned.start().vpn(), aligned.end().vpn(), |vpn, pfn| {
            out.push((vpn, pfn))
        });
        out
    }

    /// Returns the number of mapped pages.
    pub fn mapped_count(&self) -> u64 {
        self.mapped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE;

    #[test]
    fn map_translate_unmap() {
        let mut pt = PageTable::new();
        assert_eq!(pt.map(Vaddr(0x1000), Pfn(7)), None);
        assert_eq!(pt.translate(Vaddr(0x1fff)), Some(Pfn(7)));
        assert_eq!(
            pt.map(Vaddr(0x1000), Pfn(8)),
            Some(Pfn(7)),
            "remap returns old"
        );
        assert_eq!(pt.mapped_count(), 1);
        assert_eq!(pt.unmap(Vaddr(0x1000)), Some(Pfn(8)));
        assert_eq!(pt.unmap(Vaddr(0x1000)), None);
        assert_eq!(pt.translate(Vaddr(0x1000)), None);
        assert_eq!(pt.mapped_count(), 0);
    }

    #[test]
    fn pfn_zero_is_a_mapping() {
        let mut pt = PageTable::new();
        assert_eq!(pt.map(Vaddr(0), Pfn(0)), None);
        assert_eq!(pt.translate(Vaddr(0)), Some(Pfn(0)));
        assert_eq!(pt.mapped_count(), 1);
        assert_eq!(pt.unmap(Vaddr(0)), Some(Pfn(0)));
        assert_eq!(pt.translate(Vaddr(0)), None);
    }

    #[test]
    fn walk_range_skips_holes_across_leaves() {
        let mut pt = PageTable::new();
        for vpn in [510, 511, 512, 1024] {
            pt.map(Vaddr(vpn * PAGE_SIZE), Pfn(vpn));
        }
        let found = pt.walk_range(VaRange::new(
            Vaddr(511 * PAGE_SIZE),
            Vaddr(1025 * PAGE_SIZE),
        ));
        assert_eq!(
            found,
            vec![(511, Pfn(511)), (512, Pfn(512)), (1024, Pfn(1024))]
        );
    }

    #[test]
    fn walk_range_aligns_inward() {
        let mut pt = PageTable::new();
        pt.map(Vaddr(0x4000), Pfn(1));
        pt.map(Vaddr(0x5000), Pfn(2));
        // Partial first and last pages are excluded.
        let found = pt.walk_range(VaRange::new(Vaddr(0x3b00), Vaddr(0x5b00)));
        assert_eq!(found, vec![(4, Pfn(1))]);
    }
}
