//! The guest kernel's page-frame allocator.
//!
//! Hands out frames from the VM's free pool in a deliberately *scattered*
//! order. Real kernels fragment physical memory quickly, which is precisely
//! why a VA-contiguous skip-over area maps to non-contiguous PFNs and why
//! the LKM must walk page tables instead of assuming identity mappings.
//! A deterministic stride permutation reproduces that scattering without
//! randomness.

use vmem::Pfn;

/// A deterministic, scattering page-frame allocator.
///
/// # Examples
///
/// ```
/// use guestos::frames::FrameAllocator;
///
/// let mut fa = FrameAllocator::new(100, 200); // frames [100, 200)
/// let frames = fa.alloc(10).unwrap();
/// assert_eq!(frames.len(), 10);
/// assert!(frames.iter().all(|p| (100..200).contains(&p.0)));
/// // Scattered: not simply consecutive.
/// assert!(frames.windows(2).any(|w| w[1].0 != w[0].0 + 1));
/// ```
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    /// Free frames, popped from the back.
    free: Vec<Pfn>,
}

impl FrameAllocator {
    /// Creates an allocator over the frame range `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn new(start: u64, end: u64) -> Self {
        assert!(start < end, "empty frame pool [{start}, {end})");
        let n = end - start;
        let stride = pick_stride(n);
        // Visit the pool with a coprime stride so successive allocations are
        // spread across the range; reverse so pop() yields index 0 first.
        let mut free: Vec<Pfn> = (0..n).map(|i| Pfn(start + (i * stride) % n)).collect();
        free.reverse();
        Self { free }
    }

    /// Allocates `n` frames, or `None` if the pool has fewer than `n` free.
    pub fn alloc(&mut self, n: u64) -> Option<Vec<Pfn>> {
        if (self.free.len() as u64) < n {
            return None;
        }
        Some(
            (0..n)
                .map(|_| self.free.pop().expect("length checked"))
                .collect(),
        )
    }

    /// Returns frames to the pool.
    ///
    /// Frames are pushed to the back of the free stack, so they are the next
    /// to be reused — matching the LIFO behaviour of real free lists that
    /// makes freed skip-over frames promptly reappear in other mappings.
    pub fn free(&mut self, frames: impl IntoIterator<Item = Pfn>) {
        self.free.extend(frames);
    }

    /// Returns the number of free frames.
    pub fn free_count(&self) -> u64 {
        self.free.len() as u64
    }
}

/// Picks a stride coprime to `n` so the permutation covers every frame.
fn pick_stride(n: u64) -> u64 {
    if n == 1 {
        return 1;
    }
    // Prefer a large-ish prime; fall back to scanning for coprimality.
    for candidate in [104_729u64, 7919, 613, 101, 17, 3] {
        if candidate < n && gcd(candidate, n) == 1 {
            return candidate;
        }
    }
    let mut s = n / 2 + 1;
    while gcd(s, n) != 1 {
        s += 1;
    }
    s
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn allocates_every_frame_exactly_once() {
        let mut fa = FrameAllocator::new(10, 74);
        let frames = fa.alloc(64).unwrap();
        let set: BTreeSet<u64> = frames.iter().map(|p| p.0).collect();
        assert_eq!(set.len(), 64);
        assert_eq!(*set.iter().next().unwrap(), 10);
        assert_eq!(*set.iter().last().unwrap(), 73);
        assert!(fa.alloc(1).is_none(), "pool exhausted");
    }

    #[test]
    fn free_makes_frames_reusable() {
        let mut fa = FrameAllocator::new(0, 8);
        let a = fa.alloc(8).unwrap();
        assert!(fa.alloc(1).is_none());
        fa.free(a.iter().copied().take(3));
        assert_eq!(fa.free_count(), 3);
        let b = fa.alloc(3).unwrap();
        let expect: Vec<Pfn> = a[..3].iter().rev().copied().collect();
        assert_eq!(b, expect, "LIFO reuse");
    }

    #[test]
    fn scattering_is_not_consecutive() {
        let mut fa = FrameAllocator::new(0, 1000);
        let frames = fa.alloc(100).unwrap();
        let consecutive = frames.windows(2).filter(|w| w[1].0 == w[0].0 + 1).count();
        assert!(consecutive < 10, "allocation order too sequential");
    }

    #[test]
    fn single_frame_pool() {
        let mut fa = FrameAllocator::new(5, 6);
        assert_eq!(fa.alloc(1).unwrap(), vec![Pfn(5)]);
    }

    #[test]
    #[should_panic(expected = "empty frame pool")]
    fn empty_pool_rejected() {
        let _ = FrameAllocator::new(5, 5);
    }
}
