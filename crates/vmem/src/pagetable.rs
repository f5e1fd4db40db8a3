//! Per-process page tables: the VA→PFN mapping the kernel module walks.
//!
//! Applications report skip-over areas as VA ranges; only the guest kernel
//! can turn those into the PFNs the migration daemon understands. The LKM
//! performs page-table walks for this translation (§3.3.2). We model the
//! table the way x86-64 stores its last level: 512-entry leaf arrays of
//! page-table entries, one per 2 MiB of VA, so a walk over a range reads
//! each leaf it covers once. The LKM charges its modeled walk cost from the
//! pages a walk returns (§3.3.4).
//!
//! An entry is a `u32` holding `pfn + 1`, and 0 means unmapped: PFN 0 is a
//! real frame (the kernel image starts there), so the offset keeps it
//! apart from an empty slot. A leaf is thus 2 KiB per 2 MiB of VA, and
//! PFNs stop below 2^32 − 1, which limits a guest to below 16 TiB.
//!
//! The same structure serves as the LKM's PFN cache (§3.3.4): a VA→PFN
//! map of the pages whose transfer bits it cleared, drained by
//! [`PageTable::unmap_range`] when a skip-over area shrinks.

use crate::addr::{Pfn, VaRange, Vaddr};
use std::collections::BTreeMap;

/// log2 of the entries per leaf (9 bits of VPN, as on x86-64).
const LEAF_BITS: u32 = 9;
/// Entries per leaf.
const LEAF_LEN: u64 = 1 << LEAF_BITS;

type Leaf = Box<[u32; LEAF_LEN as usize]>;

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
///
/// As the LKM's PFN cache, a shrink takes back the PFNs of the pages
/// that left a skip-over area:
///
/// ```
/// use vmem::addr::{Pfn, VaRange, Vaddr};
/// use vmem::pagetable::PageTable;
///
/// let mut cache = PageTable::new();
/// cache.map(Vaddr(0x4000), Pfn(100));
/// cache.map(Vaddr(0x5000), Pfn(101));
/// let gone = cache.unmap_range(VaRange::new(Vaddr(0x4000), Vaddr(0x5000)));
/// assert_eq!(gone, vec![Pfn(100)]);
/// assert_eq!(cache.mapped_count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    /// Leaves keyed by `vpn >> LEAF_BITS`. A leaf is never freed once
    /// allocated, as in most kernels: it costs 2 KiB per 2 MiB of VA that
    /// was ever mapped.
    leaves: BTreeMap<u64, Leaf>,
    mapped: u64,
}

/// Encodes a page-table entry.
///
/// # Panics
///
/// Panics if `pfn` is 2^32 − 1 or above.
fn pte(pfn: Pfn) -> u32 {
    match u32::try_from(pfn.0) {
        Ok(p) if p < u32::MAX => p + 1,
        _ => panic!("{pfn:?} does not fit a 32-bit page-table entry"),
    }
}

/// Decodes a page-table entry.
fn pte_pfn(pte: u32) -> Option<Pfn> {
    pte.checked_sub(1).map(|p| Pfn(u64::from(p)))
}

/// Index of `vpn` within its leaf.
fn slot(vpn: u64) -> usize {
    (vpn & (LEAF_LEN - 1)) as usize
}

/// The VPN bounds of `range` aligned inward.
fn vpn_bounds(range: VaRange) -> (u64, u64) {
    let aligned = range.align_inward();
    (aligned.start().vpn(), aligned.end().vpn())
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
    ///
    /// # Panics
    ///
    /// Panics if `pfn` is 2^32 − 1 or above.
    pub fn map(&mut self, va: Vaddr, pfn: Pfn) -> Option<Pfn> {
        let entry = pte(pfn);
        let vpn = va.vpn();
        let leaf = self
            .leaves
            .entry(vpn >> LEAF_BITS)
            .or_insert_with(|| Box::new([0; LEAF_LEN as usize]));
        let prev = pte_pfn(std::mem::replace(&mut leaf[slot(vpn)], entry));
        self.mapped += u64::from(prev.is_none());
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

    /// Walks the table over `range` (aligned inward), calling `f(vpn, pfn)`
    /// for the mapped pages in VA order.
    ///
    /// Unmapped pages are skipped silently: a skip-over area may legitimately
    /// contain not-yet-faulted-in virtual pages, which simply have no frame
    /// to skip.
    pub fn walk_range(&self, range: VaRange, f: impl FnMut(u64, Pfn)) {
        let (lo, hi) = vpn_bounds(range);
        self.for_each_mapped(lo, hi, f);
    }

    /// Unmaps every mapped page of `range` (aligned inward), returning
    /// their PFNs in VA order. Each leaf the range covers is looked up
    /// once; the range may span the whole address space.
    ///
    /// This is the PFN cache's shrink path (§3.3.4): the returned PFNs must
    /// have their transfer bits set again. A range that covers only part
    /// of a page leaves that page mapped.
    pub fn unmap_range(&mut self, range: VaRange) -> Vec<Pfn> {
        let (lo, hi) = vpn_bounds(range);
        let mut out = Vec::new();
        if lo >= hi {
            return out;
        }
        for (&key, leaf) in self
            .leaves
            .range_mut(lo >> LEAF_BITS..=(hi - 1) >> LEAF_BITS)
        {
            let base = key << LEAF_BITS;
            let end = (hi.min(base + LEAF_LEN) - base) as usize;
            for entry in &mut leaf[slot(lo.max(base))..end] {
                out.extend(pte_pfn(std::mem::take(entry)));
            }
        }
        self.mapped -= out.len() as u64;
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

    /// Unmaps the one page at `va`.
    fn unmap(pt: &mut PageTable, va: Vaddr) -> Option<Pfn> {
        let taken = pt.unmap_range(VaRange::from_len(va, PAGE_SIZE));
        assert!(taken.len() <= 1);
        taken.first().copied()
    }

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
        assert_eq!(unmap(&mut pt, Vaddr(0x1000)), Some(Pfn(8)));
        assert_eq!(unmap(&mut pt, Vaddr(0x1000)), None);
        assert_eq!(pt.translate(Vaddr(0x1000)), None);
        assert_eq!(pt.mapped_count(), 0);
    }

    #[test]
    fn pfn_zero_is_a_mapping() {
        let mut pt = PageTable::new();
        assert_eq!(pt.map(Vaddr(0), Pfn(0)), None);
        assert_eq!(pt.translate(Vaddr(0)), Some(Pfn(0)));
        assert_eq!(pt.mapped_count(), 1);
        assert_eq!(unmap(&mut pt, Vaddr(0)), Some(Pfn(0)));
        assert_eq!(pt.translate(Vaddr(0)), None);
    }

    #[test]
    fn walk_range_skips_holes_across_leaves() {
        let mut pt = PageTable::new();
        for vpn in [510, 511, 512, 1024] {
            pt.map(Vaddr(vpn * PAGE_SIZE), Pfn(vpn));
        }
        let mut found = Vec::new();
        pt.walk_range(
            VaRange::new(Vaddr(511 * PAGE_SIZE), Vaddr(1025 * PAGE_SIZE)),
            |vpn, pfn| found.push((vpn, pfn)),
        );
        assert_eq!(
            found,
            vec![(511, Pfn(511)), (512, Pfn(512)), (1024, Pfn(1024))]
        );
    }

    #[test]
    fn map_takes_the_largest_32_bit_pfn() {
        let mut pt = PageTable::new();
        let top = Pfn(u64::from(u32::MAX) - 1);
        pt.map(Vaddr(0x1000), top);
        assert_eq!(pt.translate(Vaddr(0x1000)), Some(top));
        assert_eq!(unmap(&mut pt, Vaddr(0x1000)), Some(top));
    }

    #[test]
    #[should_panic(expected = "does not fit a 32-bit page-table entry")]
    fn map_rejects_a_pfn_past_32_bits() {
        PageTable::new().map(Vaddr(0x1000), Pfn(u64::from(u32::MAX)));
    }

    fn cache_of(pairs: impl IntoIterator<Item = (u64, u64)>) -> PageTable {
        let mut pt = PageTable::new();
        for (vpn, pfn) in pairs {
            pt.map(Vaddr(vpn * PAGE_SIZE), Pfn(pfn));
        }
        pt
    }

    #[test]
    fn unmap_range_removes_only_covered() {
        let mut cache = cache_of((0..10).map(|vpn| (vpn, 1000 + vpn)));
        let taken = cache.unmap_range(VaRange::new(Vaddr(3 * PAGE_SIZE), Vaddr(6 * PAGE_SIZE)));
        assert_eq!(taken, vec![Pfn(1003), Pfn(1004), Pfn(1005)]);
        assert_eq!(cache.mapped_count(), 7);
        assert!(cache.translate(Vaddr(3 * PAGE_SIZE)).is_none());
        assert_eq!(cache.translate(Vaddr(6 * PAGE_SIZE)), Some(Pfn(1006)));
    }

    #[test]
    fn unmap_range_on_empty_is_empty() {
        let mut cache = PageTable::new();
        assert!(cache
            .unmap_range(VaRange::new(Vaddr(0), Vaddr(PAGE_SIZE)))
            .is_empty());
    }

    #[test]
    fn unaligned_shrink_range_is_conservative() {
        let mut cache = cache_of([(4, 40), (5, 50)]);
        // A shrink range covering only part of page 5 must not evict it.
        let taken = cache.unmap_range(VaRange::new(Vaddr(0x4000), Vaddr(0x5800)));
        assert_eq!(taken, vec![Pfn(40)]);
        assert_eq!(cache.translate(Vaddr(0x5000)), Some(Pfn(50)));
    }

    #[test]
    fn unmap_range_over_the_whole_address_space_empties() {
        let mut cache = cache_of([
            (1, 1),
            (511, 2),
            (512, 3),
            (0x7f60_0000_0000 / PAGE_SIZE, 4),
        ]);
        let all = VaRange::new(Vaddr(0), Vaddr(!(PAGE_SIZE - 1)));
        assert_eq!(cache.unmap_range(all), vec![Pfn(1), Pfn(2), Pfn(3), Pfn(4)]);
        assert_eq!(cache.mapped_count(), 0);
    }

    #[test]
    fn clear_empties() {
        // The LKM clears its cache by replacing it with a fresh table.
        let mut cache = cache_of([(1, 1)]);
        assert_eq!(cache.mapped_count(), 1);
        cache = PageTable::new();
        assert_eq!(cache.mapped_count(), 0);
        assert_eq!(cache.translate(Vaddr(PAGE_SIZE)), None);
    }

    #[test]
    fn walk_range_aligns_inward() {
        let mut pt = PageTable::new();
        pt.map(Vaddr(0x4000), Pfn(1));
        pt.map(Vaddr(0x5000), Pfn(2));
        // Partial first and last pages are excluded.
        let mut found = Vec::new();
        pt.walk_range(VaRange::new(Vaddr(0x3b00), Vaddr(0x5b00)), |vpn, pfn| {
            found.push((vpn, pfn))
        });
        assert_eq!(found, vec![(4, Pfn(1))]);
    }
}
