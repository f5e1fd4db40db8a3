//! The heap-model abstraction: what the JVM execution loop and the JAVMM
//! agent need from a collector.
//!
//! §6 of the paper: "We are particularly interested in porting JAVMM to run
//! with collectors that use non-contiguous VA ranges for the Young
//! generation... HotSpot's garbage-first garbage collector is one such
//! example." The framework already speaks in *sets* of VA ranges, so JAVMM
//! ports to any compacting, non-concurrent collector that can answer the
//! questions below — [`crate::heap::JvmHeap`] (ParallelGC-like, contiguous
//! spaces) and [`crate::g1::G1Heap`] (region-based, non-contiguous) both do.

use crate::gc::{GcKind, GcLog, GcRecord};
use crate::mutator::MutatorProfile;
use guestos::kernel::{GuestKernel, WriteOutcome};
use guestos::process::Pid;
use simkit::{DetRng, SimTime};
use vmem::VaRange;

/// A generational heap a [`crate::jvm::JvmProcess`] can run on.
pub trait HeapModel: core::fmt::Debug {
    /// The owning process.
    fn pid(&self) -> Pid;

    /// Bytes allocatable before the next minor GC.
    fn eden_headroom(&self) -> u64;

    /// Allocates `bytes` of Eden, dirtying the pages covered.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds [`HeapModel::eden_headroom`].
    fn bump_eden(&mut self, kernel: &mut GuestKernel, bytes: u64) -> WriteOutcome;

    /// Rewrites `bytes` of the Old-generation working set.
    fn write_old_ws(
        &mut self,
        kernel: &mut GuestKernel,
        rng: &mut DetRng,
        bytes: u64,
        ws_bytes: u64,
    ) -> WriteOutcome;

    /// Performs a minor collection of the given kind.
    fn perform_minor_gc(
        &mut self,
        kernel: &mut GuestKernel,
        rng: &mut DetRng,
        profile: &MutatorProfile,
        now: SimTime,
        kind: GcKind,
    ) -> (GcRecord, WriteOutcome);

    /// The Young generation's current VA ranges — the skip-over areas the
    /// agent reports. Contiguous collectors return a few large ranges;
    /// region-based collectors return one per region.
    fn young_ranges(&self) -> Vec<VaRange>;

    /// The ranges inside [`HeapModel::young_ranges`] holding the data that
    /// survived the last collection (must be transferred in the last
    /// iteration).
    fn must_send_ranges(&self) -> Vec<VaRange>;

    /// The GC log.
    fn gc_log(&self) -> &GcLog;

    /// The GC log, to amend its newest record.
    fn gc_log_mut(&mut self) -> &mut GcLog;

    /// Committed Young generation bytes.
    fn young_committed(&self) -> u64;

    /// Young generation bytes in use.
    fn young_used(&self) -> u64;

    /// Old generation bytes in use.
    fn old_used(&self) -> u64;

    /// Committed Old generation bytes.
    fn old_committed(&self) -> u64;

    /// Size of the JIT code cache (for background recompilation writes).
    fn codecache_bytes(&self) -> u64;

    /// The heap's live-but-cold VA ranges: committed, reachable data that
    /// has not been written for several GC epochs. The migration engine may
    /// defer these pages or delta-compress their re-dirtied versions; unlike
    /// [`HeapModel::young_ranges`] they must still reach the destination.
    ///
    /// Collectors without access tracking report none (the default), which
    /// degrades the cold assist to a no-op rather than a protocol error.
    fn cold_ranges(&self) -> Vec<VaRange> {
        Vec::new()
    }
}

impl HeapModel for crate::heap::JvmHeap {
    fn pid(&self) -> Pid {
        crate::heap::JvmHeap::pid(self)
    }

    fn eden_headroom(&self) -> u64 {
        crate::heap::JvmHeap::eden_headroom(self)
    }

    fn bump_eden(&mut self, kernel: &mut GuestKernel, bytes: u64) -> WriteOutcome {
        crate::heap::JvmHeap::bump_eden(self, kernel, bytes)
    }

    fn write_old_ws(
        &mut self,
        kernel: &mut GuestKernel,
        rng: &mut DetRng,
        bytes: u64,
        ws_bytes: u64,
    ) -> WriteOutcome {
        crate::heap::JvmHeap::write_old_ws(self, kernel, rng, bytes, ws_bytes)
    }

    fn perform_minor_gc(
        &mut self,
        kernel: &mut GuestKernel,
        rng: &mut DetRng,
        profile: &MutatorProfile,
        now: SimTime,
        kind: GcKind,
    ) -> (GcRecord, WriteOutcome) {
        crate::heap::JvmHeap::perform_minor_gc(self, kernel, rng, profile, now, kind)
    }

    fn young_ranges(&self) -> Vec<VaRange> {
        crate::heap::JvmHeap::young_ranges(self)
    }

    fn must_send_ranges(&self) -> Vec<VaRange> {
        vec![self.occupied_from_range()]
    }

    fn gc_log(&self) -> &GcLog {
        crate::heap::JvmHeap::gc_log(self)
    }

    fn gc_log_mut(&mut self) -> &mut GcLog {
        crate::heap::JvmHeap::gc_log_mut(self)
    }

    fn young_committed(&self) -> u64 {
        crate::heap::JvmHeap::young_committed(self)
    }

    fn young_used(&self) -> u64 {
        crate::heap::JvmHeap::young_used(self)
    }

    fn old_used(&self) -> u64 {
        crate::heap::JvmHeap::old_used(self)
    }

    fn old_committed(&self) -> u64 {
        crate::heap::JvmHeap::old_committed(self)
    }

    fn codecache_bytes(&self) -> u64 {
        self.config().codecache
    }

    fn cold_ranges(&self) -> Vec<VaRange> {
        crate::heap::JvmHeap::cold_ranges(self)
    }
}
