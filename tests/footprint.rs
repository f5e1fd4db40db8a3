//! The simulator's host memory per simulated guest page.
//!
//! A counting global allocator tracks the live and peak heap bytes of this
//! test binary. It holds a single test, so no other test shares the
//! counters. The test launches a 2 GiB guest, warms it up, and bounds the
//! live heap per guest page; then it runs one JAVMM migration and bounds
//! the extra heap at its peak per guest page.
//!
//! The bounds sit above what the packed per-page structures measure, with
//! headroom, and below what the earlier layout measured (16-byte page
//! metadata at source and destination, a stored frame permutation, the
//! kernel's boot frames listed page by page, 64-bit page-table entries).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use javmm::vm::{JavaVm, JavaVmConfig};
use migrate::config::MigrationConfig;
use migrate::error::MigrationOutcome;
use migrate::precopy::PrecopyEngine;
use simkit::units::MIB;
use simkit::{SimClock, SimDuration};
use vmem::PAGE_SIZE;
use workloads::catalog;

/// Live heap bytes per guest page after boot and a 10 s warm-up. The
/// packed layout measures 9.20; the earlier one measured 26.00.
const LIVE_BYTES_PER_PAGE_MAX: f64 = 12.0;
/// Extra heap bytes per guest page at the peak of one JAVMM migration.
/// The packed layout measures 11.25; the earlier one measured 21.68.
const MIGRATION_PEAK_BYTES_PER_PAGE_MAX: f64 = 15.0;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting the bytes it holds.
struct Counting;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns what `System` returns, so `System`'s guarantees hold; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            // Counted as a copy: both blocks are live for a moment.
            grow(new_size);
            shrink(layout.size());
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn simulator_memory_per_guest_page_stays_packed() {
    let before_launch = LIVE.load(Ordering::Relaxed);
    let mut config = JavaVmConfig::paper(catalog::mpeg(), true, 5);
    config.young_max = Some(256 * MIB);
    let guest_pages = (config.os.spec.mem_bytes / PAGE_SIZE) as f64;
    let mut vm = JavaVm::launch(config);
    let mut clock = SimClock::new();
    vm.run_for(
        &mut clock,
        SimDuration::from_secs(10),
        SimDuration::from_millis(2),
    );
    let live = LIVE.load(Ordering::Relaxed);
    let live_per_page = (live - before_launch) as f64 / guest_pages;

    PEAK.store(live, Ordering::Relaxed);
    let report = PrecopyEngine::new(MigrationConfig::javmm_default())
        .migrate(&mut vm, &mut clock)
        .expect("migration runs");
    let peak_per_page = (PEAK.load(Ordering::Relaxed) - live) as f64 / guest_pages;
    println!(
        "live {live_per_page:.2} B/page after warm-up, \
         migration peak +{peak_per_page:.2} B/page"
    );

    assert_eq!(report.outcome, MigrationOutcome::Completed);
    assert!(report.verification.is_correct());
    assert!(
        live_per_page <= LIVE_BYTES_PER_PAGE_MAX,
        "live heap {live_per_page:.2} B per guest page exceeds {LIVE_BYTES_PER_PAGE_MAX}"
    );
    assert!(
        peak_per_page <= MIGRATION_PEAK_BYTES_PER_PAGE_MAX,
        "migration peak {peak_per_page:.2} B per guest page exceeds \
         {MIGRATION_PEAK_BYTES_PER_PAGE_MAX}"
    );
}
