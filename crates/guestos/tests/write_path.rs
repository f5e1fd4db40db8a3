//! The guest write path: batched scattered writes against the per-page
//! ranged writes they replace, and ranged writes over page-table holes.

use guestos::kernel::{GuestKernel, GuestOsConfig, WriteOutcome};
use guestos::process::Pid;
use proptest::prelude::*;
use simkit::DetRng;
use vmem::{PageClass, Pfn, VaRange, Vaddr, VmSpec, PAGE_SIZE};

/// A leaf-aligned VA base (a multiple of 512 pages), the JVM's Old
/// generation.
const BASE: u64 = 0x7f30_0000_0000;

/// Pages mapped at [`BASE`]: more than two 512-entry leaves.
const MAPPED: u64 = 1100;

/// Boots a guest with `MAPPED` pages at `BASE`, then unmaps `holes`.
fn guest(holes: &[u64]) -> (GuestKernel, Pid) {
    let mut g = GuestKernel::boot(
        GuestOsConfig {
            spec: VmSpec::new(64 * 1024 * 1024, 1),
            kernel_bytes: 1024 * 1024,
            pagecache_bytes: 1024 * 1024,
            kernel_dirty_rate: 0.0,
            pagecache_dirty_rate: 0.0,
        },
        DetRng::new(5),
    );
    let pid = g.spawn("java");
    g.alloc_map(pid, Vaddr(BASE), MAPPED, PageClass::HeapOld)
        .expect("fits");
    for &hole in holes {
        g.unmap_free(
            pid,
            VaRange::from_len(Vaddr(BASE + hole * PAGE_SIZE), PAGE_SIZE),
        );
    }
    (g, pid)
}

/// Asserts that two guests hold the same page versions, classes and
/// dirty log.
fn assert_same_memory(a: &GuestKernel, b: &GuestKernel) {
    let (ma, mb) = (a.memory(), b.memory());
    for pfn in (0..ma.page_count()).map(Pfn) {
        assert_eq!(ma.page(pfn), mb.page(pfn), "{pfn:?}");
    }
    assert!(ma.dirty_log().peek_ref() == mb.dirty_log().peek_ref());
    assert_eq!(ma.dirty_log().fault_count(), mb.dirty_log().fault_count());
}

fn class(pick: u8) -> PageClass {
    [PageClass::HeapOld, PageClass::Code, PageClass::AppCache][pick as usize % 3]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One `write_pages` call leaves the same memory, dirty log and
    /// outcome as the per-page `write_range` loop it replaces, whether or
    /// not dirty logging is on. Pages repeat, some fall in unmapped holes
    /// and some lie past the mapped region.
    #[test]
    fn write_pages_matches_per_page_write_range(
        holes in prop::collection::vec(0u64..MAPPED, 0..64),
        rounds in prop::collection::vec(
            (prop::collection::vec(0u64..MAPPED + 64, 0..300), 0u8..3),
            1..4,
        ),
        logging in any::<bool>(),
    ) {
        let (mut batched, pid) = guest(&holes);
        let (mut per_page, _) = guest(&holes);
        if logging {
            batched.memory_mut().dirty_log_mut().enable();
            per_page.memory_mut().dirty_log_mut().enable();
        }
        for (pages, pick) in &rounds {
            let got = batched.write_pages(pid, Vaddr(BASE), pages, class(*pick));
            let mut want = WriteOutcome::default();
            for &page in pages {
                let va = Vaddr(BASE + page * PAGE_SIZE);
                want.merge(per_page.write_range(pid, VaRange::from_len(va, 1), class(*pick)));
            }
            prop_assert_eq!(got, want);
        }
        assert_same_memory(&batched, &per_page);
    }
}

#[test]
fn page_listed_twice_is_written_twice_and_faults_once() {
    let (mut g, pid) = guest(&[]);
    g.memory_mut().dirty_log_mut().enable();
    let out = g.write_pages(pid, Vaddr(BASE), &[7, 7], PageClass::HeapOld);
    assert_eq!((out.pages, out.faults), (2, 1));
    let pfn = g.translate(pid, Vaddr(BASE + 7 * PAGE_SIZE)).unwrap();
    assert_eq!(g.memory().page(pfn).version, 2);
}

#[test]
fn write_range_crosses_a_leaf_boundary_over_a_hole() {
    // Pages 508..516 straddle the edge between the first two leaves; the
    // hole 510..514 spans it.
    let holes: Vec<u64> = (510..514).collect();
    let (mut g, pid) = guest(&holes);
    g.memory_mut().dirty_log_mut().enable();
    // Partial first and last pages count as whole-page writes.
    let range = VaRange::new(
        Vaddr(BASE + 508 * PAGE_SIZE + 100),
        Vaddr(BASE + 515 * PAGE_SIZE + 1),
    );
    let out = g.write_range(pid, range, PageClass::HeapOld);
    assert_eq!((out.pages, out.faults), (4, 4));
    for page in 506..518 {
        let va = Vaddr(BASE + page * PAGE_SIZE);
        let written = matches!(page, 508 | 509 | 514 | 515);
        match g.translate(pid, va) {
            Some(pfn) => assert_eq!(g.memory().page(pfn).version, u64::from(written), "{page}"),
            None => assert!(holes.contains(&page), "{page} unmapped"),
        }
    }
}
