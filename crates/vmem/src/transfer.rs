//! The transfer bitmap: the framework's channel of application intent.
//!
//! One bit per VM memory page, owned by the guest kernel module and shared
//! with the migration daemon when migration begins (§3.3.3). A *set* bit
//! means "transfer this page if it is dirty"; a *cleared* bit means "skip
//! this page even if it is dirty". The bitmap is initialised with all bits
//! set so that, absent application input, migration degenerates to vanilla
//! pre-copy.

use crate::addr::Pfn;
use crate::bitmap::Bitmap;

/// The one-bit-per-page transfer bitmap of §3.3.3.
///
/// # Examples
///
/// ```
/// use vmem::addr::Pfn;
/// use vmem::transfer::TransferBitmap;
///
/// let mut tb = TransferBitmap::new(32);
/// assert!(tb.should_transfer(Pfn(7)), "defaults to transfer");
/// tb.clear(Pfn(7));
/// assert!(!tb.should_transfer(Pfn(7)));
/// tb.set(Pfn(7));
/// assert!(tb.should_transfer(Pfn(7)));
/// ```
#[derive(Debug, Clone)]
pub struct TransferBitmap {
    bits: Bitmap,
}

impl TransferBitmap {
    /// Creates a bitmap for `npages` pages with every bit set.
    pub fn new(npages: u64) -> Self {
        Self {
            bits: Bitmap::new_all_set(npages),
        }
    }

    /// Returns whether the page should be transferred when dirty.
    pub fn should_transfer(&self, pfn: Pfn) -> bool {
        self.bits.get(pfn)
    }

    /// Borrows the underlying bitmap (set bit = transfer when dirty).
    ///
    /// This is the daemon's shared word-level view of application intent:
    /// the scan pipeline combines it with the dirty log and the iteration
    /// snapshot a `u64` word at a time instead of querying per PFN.
    #[inline]
    pub fn as_bitmap(&self) -> &Bitmap {
        &self.bits
    }

    /// Marks the page as requiring transfer; returns `true` if it was
    /// previously marked skip.
    pub fn set(&mut self, pfn: Pfn) -> bool {
        self.bits.set(pfn)
    }

    /// Marks the page as skippable; returns `true` if it was previously
    /// marked for transfer.
    pub fn clear(&mut self, pfn: Pfn) -> bool {
        self.bits.clear(pfn)
    }

    /// Resets every bit to the default transfer state.
    pub fn reset(&mut self) {
        self.bits.set_all();
    }

    /// Returns the number of pages currently marked skip.
    pub fn skip_count(&self) -> u64 {
        self.bits.len() - self.bits.count_set()
    }

    /// Returns the number of pages in the bitmap.
    pub fn len(&self) -> u64 {
        self.bits.len()
    }

    /// Returns `true` when the bitmap covers zero pages.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Returns the memory used by the bitmap in bytes.
    pub fn byte_size(&self) -> u64 {
        self.bits.byte_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_bitmap_defaults_set() {
        let tb = TransferBitmap::new(100);
        assert_eq!(tb.skip_count(), 0);
        assert!(tb.should_transfer(Pfn(99)));
    }

    #[test]
    fn clear_set_roundtrip() {
        let mut tb = TransferBitmap::new(100);
        assert!(tb.clear(Pfn(42)));
        assert!(!tb.clear(Pfn(42)));
        assert_eq!(tb.skip_count(), 1);
        assert!(tb.set(Pfn(42)));
        assert_eq!(tb.skip_count(), 0);
    }

    #[test]
    fn as_bitmap_mirrors_should_transfer() {
        let mut tb = TransferBitmap::new(70);
        tb.clear(Pfn(65));
        assert!(tb.as_bitmap().get(Pfn(0)));
        assert!(!tb.as_bitmap().get(Pfn(65)));
        assert_eq!(tb.as_bitmap().count_set(), 69);
        // Word view usable for set algebra: skip set = !transfer.
        let mut skip = tb.as_bitmap().clone();
        skip.invert();
        assert_eq!(skip.iter_set().map(|p| p.0).collect::<Vec<_>>(), vec![65]);
    }

    #[test]
    fn reset_restores_default() {
        let mut tb = TransferBitmap::new(10);
        tb.clear(Pfn(1));
        tb.clear(Pfn(2));
        tb.reset();
        assert_eq!(tb.skip_count(), 0);
    }

    #[test]
    fn bitmap_overhead_is_32kib_per_gib() {
        // 1 GiB of 4 KiB pages (paper §3.3.3).
        let tb = TransferBitmap::new(262_144);
        assert_eq!(tb.byte_size(), 32 * 1024);
    }
}
