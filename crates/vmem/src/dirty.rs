//! The hypervisor's log-dirty machinery.
//!
//! During live migration the hypervisor write-protects guest memory and logs
//! the first write to each page since the log was last read. Reading the log
//! atomically clears it (`read_and_clear`, Xen's `XEN_DOMCTL_SHADOW_OP_CLEAN`)
//! or leaves it intact (`peek`, `..._OP_PEEK`). The *first* write to a
//! clean-logged page takes a shadow-paging fault, which is the mechanistic
//! source of the >20% application slowdown the paper measures under vanilla
//! migration; [`DirtyLog::mark`] reports those first touches so the guest
//! model can charge the fault cost.

use crate::addr::Pfn;
use crate::bitmap::Bitmap;

/// Log-dirty state for one VM.
///
/// # Examples
///
/// ```
/// use vmem::addr::Pfn;
/// use vmem::dirty::DirtyLog;
///
/// let mut log = DirtyLog::new(64);
/// log.enable();
/// assert!(log.mark(Pfn(3)), "first touch faults");
/// assert!(!log.mark(Pfn(3)), "second touch is free");
/// let snap = log.read_and_clear();
/// assert_eq!(snap.count_set(), 1);
/// assert!(log.mark(Pfn(3)), "faults again after clean");
/// ```
#[derive(Debug, Clone)]
pub struct DirtyLog {
    enabled: bool,
    dirty: Bitmap,
    /// Total log-dirty faults taken since `enable`.
    faults: u64,
}

impl DirtyLog {
    /// Creates a disabled log for a VM of `npages` pages.
    pub fn new(npages: u64) -> Self {
        Self {
            enabled: false,
            dirty: Bitmap::new(npages),
            faults: 0,
        }
    }

    /// Turns on dirty logging with an empty log.
    pub fn enable(&mut self) {
        self.enabled = true;
        self.dirty.clear_all();
        self.faults = 0;
    }

    /// Turns off dirty logging.
    pub fn disable(&mut self) {
        self.enabled = false;
        self.dirty.clear_all();
    }

    /// Returns `true` while logging is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records a guest write to `pfn`.
    ///
    /// Returns `true` when this write is the first since the page was last
    /// cleaned — i.e. when the guest takes a log-dirty fault.
    pub fn mark(&mut self, pfn: Pfn) -> bool {
        if !self.enabled {
            return false;
        }
        let first = self.dirty.set(pfn);
        if first {
            self.faults += 1;
        }
        first
    }

    /// Returns a snapshot of the log and clears it (Xen `OP_CLEAN`).
    pub fn read_and_clear(&mut self) -> Bitmap {
        let mut snap = Bitmap::new(self.dirty.len());
        snap.swap(&mut self.dirty);
        snap
    }

    /// Returns a snapshot without clearing (Xen `OP_PEEK`).
    pub fn peek(&self) -> Bitmap {
        self.dirty.clone()
    }

    /// Borrows the live dirty bitmap without cloning it.
    ///
    /// The word-granular scan pipeline reads the log through this view a
    /// `u64` word at a time; [`DirtyLog::peek`] remains for callers that
    /// need an owned snapshot.
    #[inline]
    pub fn peek_ref(&self) -> &Bitmap {
        &self.dirty
    }

    /// Returns the number of pages currently logged dirty.
    pub fn dirty_count(&self) -> u64 {
        self.dirty.count_set()
    }

    /// Returns the number of log-dirty faults taken since `enable`.
    pub fn fault_count(&self) -> u64 {
        self.faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_ignores_writes() {
        let mut log = DirtyLog::new(16);
        assert!(!log.mark(Pfn(1)));
        assert_eq!(log.dirty_count(), 0);
    }

    #[test]
    fn read_and_clear_resets() {
        let mut log = DirtyLog::new(16);
        log.enable();
        log.mark(Pfn(1));
        log.mark(Pfn(5));
        let snap = log.read_and_clear();
        assert_eq!(snap.count_set(), 2);
        assert_eq!(log.dirty_count(), 0);
    }

    #[test]
    fn peek_preserves() {
        let mut log = DirtyLog::new(16);
        log.enable();
        log.mark(Pfn(2));
        let snap = log.peek();
        assert_eq!(snap.count_set(), 1);
        assert_eq!(log.dirty_count(), 1);
    }

    #[test]
    fn peek_ref_tracks_live_state_without_cloning() {
        let mut log = DirtyLog::new(70);
        log.enable();
        log.mark(Pfn(2));
        log.mark(Pfn(69));
        assert_eq!(log.peek_ref().count_set(), 2);
        assert_eq!(log.peek_ref().words()[1], 1 << 5);
        log.read_and_clear();
        assert!(log.peek_ref().all_clear(), "view follows the live log");
    }

    #[test]
    fn fault_accounting() {
        let mut log = DirtyLog::new(16);
        log.enable();
        log.mark(Pfn(1));
        log.mark(Pfn(1));
        log.mark(Pfn(2));
        assert_eq!(log.fault_count(), 2);
        log.read_and_clear();
        log.mark(Pfn(1));
        assert_eq!(log.fault_count(), 3, "clean re-arms the fault");
    }

    #[test]
    fn enable_clears_stale_state() {
        let mut log = DirtyLog::new(16);
        log.enable();
        log.mark(Pfn(3));
        log.disable();
        log.enable();
        assert_eq!(log.dirty_count(), 0);
        assert_eq!(log.fault_count(), 0);
    }
}
