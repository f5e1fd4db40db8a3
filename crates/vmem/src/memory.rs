//! The VM's pseudo-physical memory.
//!
//! [`GuestMemory`] owns per-page metadata and the hypervisor's
//! [`DirtyLog`]. Every guest write flows through [`GuestMemory::write`],
//! which bumps the page version, marks the dirty log, and reports whether
//! the write took a log-dirty fault so the caller can charge the fault cost
//! to the guest's execution time.
//!
//! Each page's metadata is one packed `u64`, 8 bytes per guest page: the
//! version in the low 56 bits and [`PageClass::index`] in the top byte.
//! [`GuestMemory::page`] decodes a word into its [`PageInfo`] view.

use crate::addr::{Pfn, PAGE_SIZE};
use crate::dirty::DirtyLog;
use crate::page::{PageClass, PageInfo};

/// Bits of a page word that hold the version; the class index sits above
/// them. No run comes near 2^56 writes to one page, but
/// [`GuestMemory::write`] checks it, since a carry would corrupt the class.
const VERSION_BITS: u32 = 56;
/// The largest version a page word can hold.
const VERSION_MAX: u64 = (1 << VERSION_BITS) - 1;

/// Packs a version and a class into one page word.
fn pack(version: u64, class: PageClass) -> u64 {
    version | ((class.index() as u64) << VERSION_BITS)
}

/// The memory of one VM.
///
/// # Examples
///
/// ```
/// use vmem::addr::Pfn;
/// use vmem::memory::GuestMemory;
/// use vmem::page::PageClass;
///
/// let mut mem = GuestMemory::new(4 * 1024 * 1024); // 4 MiB, 1024 pages
/// assert_eq!(mem.page_count(), 1024);
/// mem.write(Pfn(10), PageClass::Anon);
/// assert_eq!(mem.page(Pfn(10)).version, 1);
/// ```
#[derive(Debug, Clone)]
pub struct GuestMemory {
    /// One packed word per page; see [`VERSION_BITS`].
    words: Vec<u64>,
    dirty: DirtyLog,
}

impl GuestMemory {
    /// Creates a VM memory of `bytes` bytes (rounded up to whole pages).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn new(bytes: u64) -> Self {
        assert!(bytes > 0, "VM memory must be non-empty");
        let npages = bytes.div_ceil(PAGE_SIZE);
        Self {
            // Version 0, class `Zero`.
            words: vec![0; npages as usize],
            dirty: DirtyLog::new(npages),
        }
    }

    /// Returns the number of pages.
    pub fn page_count(&self) -> u64 {
        self.words.len() as u64
    }

    /// Returns the memory size in bytes.
    pub fn byte_size(&self) -> u64 {
        self.page_count() * PAGE_SIZE
    }

    /// Returns the metadata of a page.
    ///
    /// # Panics
    ///
    /// Panics if `pfn` is out of range.
    pub fn page(&self, pfn: Pfn) -> PageInfo {
        let word = self.words[self.check(pfn)];
        PageInfo {
            version: word & VERSION_MAX,
            class: PageClass::ALL[(word >> VERSION_BITS) as usize],
        }
    }

    /// Records a guest write to `pfn`, tagging the page with `class`.
    ///
    /// Returns `true` when the write took a log-dirty fault (first write to
    /// the page since the dirty log was last cleaned).
    ///
    /// # Panics
    ///
    /// Panics if `pfn` is out of range, or if the page already holds
    /// version 2^56 − 1.
    pub fn write(&mut self, pfn: Pfn, class: PageClass) -> bool {
        let idx = self.check(pfn);
        let version = (self.words[idx] & VERSION_MAX) + 1;
        assert!(version <= VERSION_MAX, "{pfn:?} version overflows");
        self.words[idx] = pack(version, class);
        self.dirty.mark(pfn)
    }

    /// Re-tags a page's class without dirtying it (e.g. when an allocator
    /// hands a region to a new owner before any write happens).
    pub fn set_class(&mut self, pfn: Pfn, class: PageClass) {
        let idx = self.check(pfn);
        self.words[idx] = pack(self.words[idx] & VERSION_MAX, class);
    }

    /// Immutable access to the hypervisor dirty log.
    pub fn dirty_log(&self) -> &DirtyLog {
        &self.dirty
    }

    /// Mutable access to the hypervisor dirty log.
    pub fn dirty_log_mut(&mut self) -> &mut DirtyLog {
        &mut self.dirty
    }

    fn check(&self, pfn: Pfn) -> usize {
        assert!(
            (pfn.0 as usize) < self.words.len(),
            "{pfn:?} out of range ({} pages)",
            self.words.len()
        );
        pfn.0 as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_up_to_pages() {
        let mem = GuestMemory::new(PAGE_SIZE + 1);
        assert_eq!(mem.page_count(), 2);
    }

    #[test]
    fn write_bumps_version_and_class() {
        let mut mem = GuestMemory::new(PAGE_SIZE * 8);
        mem.write(Pfn(3), PageClass::HeapYoung);
        mem.write(Pfn(3), PageClass::HeapYoung);
        let p = mem.page(Pfn(3));
        assert_eq!(p.version, 2);
        assert_eq!(p.class, PageClass::HeapYoung);
    }

    #[test]
    fn writes_fault_only_when_logging() {
        let mut mem = GuestMemory::new(PAGE_SIZE * 8);
        assert!(!mem.write(Pfn(0), PageClass::Anon), "logging off: no fault");
        mem.dirty_log_mut().enable();
        assert!(
            mem.write(Pfn(0), PageClass::Anon),
            "first logged write faults"
        );
        assert!(!mem.write(Pfn(0), PageClass::Anon));
        assert_eq!(mem.dirty_log().dirty_count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn page_bounds_checked() {
        let mem = GuestMemory::new(PAGE_SIZE);
        let _ = mem.page(Pfn(1));
    }

    #[test]
    fn write_past_the_version_field_panics_and_keeps_the_word() {
        let mut mem = GuestMemory::new(PAGE_SIZE * 2);
        mem.words[1] = pack((1 << 56) - 1, PageClass::HeapOld);
        let before = mem.page(Pfn(1));
        assert_eq!(before.version, (1 << 56) - 1);
        assert_eq!(before.class, PageClass::HeapOld);
        // The next write would carry into the class byte.
        let write = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mem.write(Pfn(1), PageClass::Anon)
        }));
        assert!(write.is_err(), "a version carry must panic");
        assert_eq!(mem.page(Pfn(1)), before);
    }

    #[test]
    fn set_class_does_not_dirty() {
        let mut mem = GuestMemory::new(PAGE_SIZE * 4);
        mem.dirty_log_mut().enable();
        mem.set_class(Pfn(2), PageClass::Code);
        assert_eq!(mem.page(Pfn(2)).class, PageClass::Code);
        assert_eq!(mem.page(Pfn(2)).version, 0);
        assert_eq!(mem.dirty_log().dirty_count(), 0);
    }
}
