//! Property-based tests for the vmem substrate.

use proptest::prelude::*;
use vmem::addr::{Pfn, VaRange, Vaddr, PAGE_SIZE};
use vmem::bitmap::Bitmap;
use vmem::memory::GuestMemory;
use vmem::page::{PageClass, PageInfo};
use vmem::pagetable::PageTable;

/// Every `(vpn, pfn)` pair `walk_range` visits, in visiting order.
fn walked(pt: &PageTable, range: VaRange) -> Vec<(u64, Pfn)> {
    let mut out = Vec::new();
    pt.walk_range(range, |vpn, pfn| out.push((vpn, pfn)));
    out
}

proptest! {
    /// A bitmap built from an arbitrary set of indices reports exactly that
    /// set back, regardless of insertion order and duplicates.
    #[test]
    fn bitmap_matches_reference_set(
        len in 1u64..2048,
        ops in prop::collection::vec((0u64..2048, any::<bool>()), 0..256),
    ) {
        let mut bm = Bitmap::new(len);
        let mut reference = std::collections::BTreeSet::new();
        for (idx, set) in ops {
            let idx = idx % len;
            if set {
                bm.set(Pfn(idx));
                reference.insert(idx);
            } else {
                bm.clear(Pfn(idx));
                reference.remove(&idx);
            }
        }
        prop_assert_eq!(bm.count_set(), reference.len() as u64);
        let got: Vec<u64> = bm.iter_set().map(|p| p.0).collect();
        let want: Vec<u64> = reference.into_iter().collect();
        prop_assert_eq!(got, want);
    }

    /// union/subtract obey set algebra against a reference implementation.
    #[test]
    fn bitmap_set_algebra(
        len in 1u64..512,
        a_bits in prop::collection::btree_set(0u64..512, 0..64),
        b_bits in prop::collection::btree_set(0u64..512, 0..64),
    ) {
        let mut a = Bitmap::new(len);
        let mut b = Bitmap::new(len);
        let a_set: std::collections::BTreeSet<u64> =
            a_bits.into_iter().map(|x| x % len).collect();
        let b_set: std::collections::BTreeSet<u64> =
            b_bits.into_iter().map(|x| x % len).collect();
        for &x in &a_set { a.set(Pfn(x)); }
        for &x in &b_set { b.set(Pfn(x)); }

        let mut u = a.clone();
        u.union_with(&b);
        let want_union: Vec<u64> = a_set.union(&b_set).copied().collect();
        prop_assert_eq!(u.iter_set().map(|p| p.0).collect::<Vec<_>>(), want_union);

        let mut d = a.clone();
        d.subtract(&b);
        let want_diff: Vec<u64> = a_set.difference(&b_set).copied().collect();
        prop_assert_eq!(d.iter_set().map(|p| p.0).collect::<Vec<_>>(), want_diff);
    }

    /// Inward alignment always produces a page-aligned sub-range of the
    /// original, and it is idempotent.
    #[test]
    fn align_inward_is_contracting_and_idempotent(
        start in 0u64..(1 << 30),
        len in 0u64..(1 << 22),
    ) {
        let r = VaRange::new(Vaddr(start), Vaddr(start + len));
        let a = r.align_inward();
        prop_assert!(a.start().is_page_aligned());
        prop_assert!(a.end().is_page_aligned());
        prop_assert!(r.contains_range(&a));
        prop_assert_eq!(a.align_inward(), a);
    }

    /// difference() + intersect() partition the original range exactly.
    #[test]
    fn range_difference_partitions(
        s1 in 0u64..10_000, l1 in 0u64..10_000,
        s2 in 0u64..10_000, l2 in 0u64..10_000,
    ) {
        let a = VaRange::new(Vaddr(s1), Vaddr(s1 + l1));
        let b = VaRange::new(Vaddr(s2), Vaddr(s2 + l2));
        let inter = a.intersect(&b);
        let parts = a.difference(&b);
        let covered: u64 = parts.iter().map(|p| p.len()).sum::<u64>() + inter.len();
        prop_assert_eq!(covered, a.len());
        for p in &parts {
            prop_assert!(p.intersect(&b).is_empty());
        }
    }

    /// Page-table walks find exactly the mapped pages of the queried range.
    #[test]
    fn walk_range_finds_mapped_pages(
        mapped in prop::collection::btree_map(0u64..256, 0u64..100_000, 0..128),
        q_start in 0u64..256,
        q_len in 0u64..256,
    ) {
        let mut pt = PageTable::new();
        for (&vpn, &pfn) in &mapped {
            pt.map(Vaddr(vpn * PAGE_SIZE), Pfn(pfn));
        }
        let range = VaRange::new(
            Vaddr(q_start * PAGE_SIZE),
            Vaddr((q_start + q_len) * PAGE_SIZE),
        );
        let found = walked(&pt, range);
        let want: Vec<(u64, Pfn)> = mapped
            .range(q_start..q_start + q_len)
            .map(|(&vpn, &pfn)| (vpn, Pfn(pfn)))
            .collect();
        prop_assert_eq!(found, want);
    }

    /// The LKM's PFN cache (a page table drained by `unmap_range`) returns
    /// each cached PFN exactly once across any sequence of shrinks, over
    /// ranges that cross leaf edges.
    #[test]
    fn pfn_cache_takes_each_pfn_once(
        vpns in prop::collection::btree_set(0u64..2048, 1..96),
        cuts in prop::collection::vec((0u64..2048, 0u64..700), 1..16),
    ) {
        let mut cache = PageTable::new();
        for &vpn in &vpns {
            cache.map(Vaddr(vpn * PAGE_SIZE), Pfn(vpn + 10_000));
        }
        let mut taken = Vec::new();
        for (start, len) in cuts {
            let r = VaRange::new(
                Vaddr(start * PAGE_SIZE),
                Vaddr((start + len) * PAGE_SIZE),
            );
            taken.extend(cache.unmap_range(r));
        }
        let mut seen = std::collections::BTreeSet::new();
        for pfn in &taken {
            prop_assert!(seen.insert(pfn.0), "pfn {} returned twice", pfn.0);
            prop_assert!(vpns.contains(&(pfn.0 - 10_000)));
        }
        prop_assert_eq!(taken.len() as u64 + cache.mapped_count(), vpns.len() as u64);
    }

    /// The packed page words read back exactly as a `PageInfo` per page
    /// would, over any sequence of writes and re-tags across all classes.
    #[test]
    fn guest_memory_matches_reference_pages(
        npages in 1u64..64,
        ops in prop::collection::vec((0u64..64, 0usize..9, any::<bool>()), 0..512),
    ) {
        let mut mem = GuestMemory::new(npages * PAGE_SIZE);
        let mut reference = vec![PageInfo::default(); npages as usize];
        for (page, class, write) in ops {
            let pfn = Pfn(page % npages);
            let class = PageClass::ALL[class];
            let want = &mut reference[pfn.0 as usize];
            if write {
                mem.write(pfn, class);
                want.version += 1;
            } else {
                mem.set_class(pfn, class);
            }
            want.class = class;
            prop_assert_eq!(mem.page(pfn), *want);
        }
        for (p, want) in reference.iter().enumerate() {
            prop_assert_eq!(mem.page(Pfn(p as u64)), *want);
        }
    }
}

mod pagetable_reference {
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use vmem::addr::{Pfn, VaRange, Vaddr, PAGE_SIZE};
    use vmem::pagetable::PageTable;

    use super::walked;

    /// VPN bases: the bottom of the address space and two far-apart JVM
    /// regions (the code cache and the S1 survivor space).
    const BASES: [u64; 3] = [0, 0x7f10_0000_0000 >> 12, 0x7f60_0000_0000 >> 12];

    /// Offsets from a base crowding its leaf edges (511|512 and
    /// 1023|1024), plus a spread over its first four leaves.
    fn offset() -> impl Strategy<Value = u64> {
        prop_oneof![508u64..516, 1020u64..1028, 0u64..2048]
    }

    /// VPNs crowding the leaf edges of each base.
    fn vpn() -> impl Strategy<Value = u64> {
        (0usize..3, offset()).prop_map(|(base, off)| BASES[base] + off)
    }

    /// PFNs, with frame 0 (the first kernel-image frame) and the largest
    /// frame a 32-bit entry holds drawn often.
    fn pfn() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), Just(u64::from(u32::MAX) - 1), 0u64..1_000_000]
    }

    proptest! {
        /// The leaf-array table agrees with a per-page map on every
        /// operation's result for arbitrary map/unmap sequences, and a walk
        /// over a window spanning leaves and holes returns exactly the
        /// reference's mapped pages in VA order.
        #[test]
        fn pagetable_matches_reference_map(
            ops in prop::collection::vec((vpn(), pfn(), any::<bool>()), 0..256),
            q_base in 0usize..3,
            q_start in 0u64..2048,
            q_len in 0u64..1100,
        ) {
            let mut pt = PageTable::new();
            let mut reference: BTreeMap<u64, Pfn> = BTreeMap::new();
            for &(vpn, pfn, do_map) in &ops {
                let va = Vaddr(vpn * PAGE_SIZE);
                if do_map {
                    prop_assert_eq!(pt.map(va, Pfn(pfn)), reference.insert(vpn, Pfn(pfn)));
                } else {
                    let taken = pt.unmap_range(VaRange::from_len(va, PAGE_SIZE));
                    let want: Vec<Pfn> = reference.remove(&vpn).into_iter().collect();
                    prop_assert_eq!(taken, want);
                }
                prop_assert_eq!(pt.mapped_count(), reference.len() as u64);
            }
            for &(vpn, _, _) in &ops {
                for probe in [vpn.saturating_sub(1), vpn, vpn + 1] {
                    let va = Vaddr(probe * PAGE_SIZE + PAGE_SIZE / 2);
                    prop_assert_eq!(pt.translate(va), reference.get(&probe).copied());
                }
            }
            let lo = BASES[q_base] + q_start;
            let hi = lo + q_len;
            let found = walked(&pt, VaRange::new(
                Vaddr(lo * PAGE_SIZE),
                Vaddr(hi * PAGE_SIZE),
            ));
            let want: Vec<(u64, Pfn)> =
                reference.range(lo..hi).map(|(&vpn, &pfn)| (vpn, pfn)).collect();
            prop_assert_eq!(found, want);
        }
    }

    proptest! {
        /// `unmap_range` removes and returns exactly the reference's
        /// mapped pages of a window in VA order, whatever leaves it spans,
        /// and leaves every other mapping in place.
        #[test]
        fn unmap_range_matches_reference_map(
            maps in prop::collection::vec((vpn(), pfn()), 0..256),
            cuts in prop::collection::vec(
                (0usize..3, offset(), prop_oneof![0u64..8, 0u64..1100]),
                1..6,
            ),
        ) {
            let mut pt = PageTable::new();
            let mut reference: BTreeMap<u64, Pfn> = BTreeMap::new();
            for &(vpn, pfn) in &maps {
                pt.map(Vaddr(vpn * PAGE_SIZE), Pfn(pfn));
                reference.insert(vpn, Pfn(pfn));
            }
            for (base, start, len) in cuts {
                let lo = BASES[base] + start;
                let hi = lo + len;
                let got = pt.unmap_range(VaRange::new(
                    Vaddr(lo * PAGE_SIZE),
                    Vaddr(hi * PAGE_SIZE),
                ));
                let gone: Vec<u64> = reference.range(lo..hi).map(|(&vpn, _)| vpn).collect();
                let want: Vec<Pfn> = gone
                    .iter()
                    .map(|vpn| reference.remove(vpn).expect("listed"))
                    .collect();
                prop_assert_eq!(got, want);
                prop_assert_eq!(pt.mapped_count(), reference.len() as u64);
            }
            let everything = walked(&pt, VaRange::new(Vaddr(0), Vaddr(!(PAGE_SIZE - 1))));
            let want: Vec<(u64, Pfn)> = reference.iter().map(|(&vpn, &pfn)| (vpn, pfn)).collect();
            prop_assert_eq!(everything, want);
        }
    }
}
