//! Property-based tests for the vmem substrate.

use proptest::prelude::*;
use vmem::addr::{Pfn, VaRange, Vaddr, PAGE_SIZE};
use vmem::bitmap::Bitmap;
use vmem::pagetable::PageTable;
use vmem::pfncache::PfnCache;

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
        let found = pt.walk_range(range);
        let want: Vec<(u64, Pfn)> = mapped
            .range(q_start..q_start + q_len)
            .map(|(&vpn, &pfn)| (vpn, Pfn(pfn)))
            .collect();
        prop_assert_eq!(found, want);
    }

    /// The PFN cache returns each inserted PFN exactly once across any
    /// sequence of take_range calls.
    #[test]
    fn pfn_cache_takes_each_pfn_once(
        vpns in prop::collection::btree_set(0u64..512, 1..64),
        cuts in prop::collection::vec((0u64..512, 0u64..64), 1..16),
    ) {
        let mut cache = PfnCache::new();
        for &vpn in &vpns {
            cache.insert(vpn, Pfn(vpn + 10_000));
        }
        let mut taken = Vec::new();
        for (start, len) in cuts {
            let r = VaRange::new(
                Vaddr(start * PAGE_SIZE),
                Vaddr((start + len) * PAGE_SIZE),
            );
            taken.extend(cache.take_range(r));
        }
        let mut seen = std::collections::BTreeSet::new();
        for pfn in &taken {
            prop_assert!(seen.insert(pfn.0), "pfn {} returned twice", pfn.0);
            prop_assert!(vpns.contains(&(pfn.0 - 10_000)));
        }
        prop_assert_eq!(taken.len() + cache.len(), vpns.len());
    }
}

mod pagetable_reference {
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use vmem::addr::{Pfn, VaRange, Vaddr, PAGE_SIZE};
    use vmem::pagetable::PageTable;

    /// VPN bases: the bottom of the address space and two far-apart JVM
    /// regions (the code cache and the S1 survivor space).
    const BASES: [u64; 3] = [0, 0x7f10_0000_0000 >> 12, 0x7f60_0000_0000 >> 12];

    /// VPNs crowding the leaf edges (511|512 and 1023|1024) of each base,
    /// plus a spread over its first four leaves.
    fn vpn() -> impl Strategy<Value = u64> {
        (
            0usize..3,
            prop_oneof![508u64..516, 1020u64..1028, 0u64..2048],
        )
            .prop_map(|(base, off)| BASES[base] + off)
    }

    /// PFNs, with frame 0 (the first kernel-image frame) drawn often.
    fn pfn() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), 0u64..1_000_000]
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
                    prop_assert_eq!(pt.unmap(va), reference.remove(&vpn));
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
            let found = pt.walk_range(VaRange::new(
                Vaddr(lo * PAGE_SIZE),
                Vaddr(hi * PAGE_SIZE),
            ));
            let want: Vec<(u64, Pfn)> =
                reference.range(lo..hi).map(|(&vpn, &pfn)| (vpn, pfn)).collect();
            prop_assert_eq!(found, want);
        }
    }
}
