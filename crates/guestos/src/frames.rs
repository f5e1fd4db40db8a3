//! The guest kernel's page-frame allocator.
//!
//! Hands out frames from the VM's free pool in a deliberately *scattered*
//! order. Real kernels fragment physical memory quickly, which is precisely
//! why a VA-contiguous skip-over area maps to non-contiguous PFNs and why
//! the LKM must walk page tables instead of assuming identity mappings.
//! A deterministic stride permutation reproduces that scattering without
//! randomness: the `i`-th untouched frame handed out is
//! `start + (i · stride) mod n`. The permutation is computed as frames are
//! needed, not stored; only frames freed and not yet reused take memory.

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
    /// First frame of the pool.
    start: u64,
    /// Frames in the pool.
    n: u64,
    /// The permutation's stride, reduced mod `n`.
    stride: u64,
    /// Offset from `start` of the next untouched frame:
    /// `(handed out · stride) mod n`.
    cursor: u64,
    /// Frames of the permutation not yet handed out.
    untouched: u64,
    /// Freed frames, reused LIFO before any untouched frame.
    freed: Vec<Pfn>,
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
        Self {
            start,
            n,
            stride: pick_stride(n) % n,
            cursor: 0,
            untouched: n,
            freed: Vec::new(),
        }
    }

    /// Allocates `n` frames, or `None` if the pool has fewer than `n` free.
    pub fn alloc(&mut self, n: u64) -> Option<Vec<Pfn>> {
        if self.free_count() < n {
            return None;
        }
        Some((0..n).map(|_| self.next()).collect())
    }

    /// Takes the most recently freed frame, else the next untouched one.
    fn next(&mut self) -> Pfn {
        if let Some(pfn) = self.freed.pop() {
            return pfn;
        }
        let pfn = Pfn(self.start + self.cursor);
        // cursor < n and stride < n, so one subtraction reduces mod n.
        self.cursor += self.stride;
        if self.cursor >= self.n {
            self.cursor -= self.n;
        }
        self.untouched -= 1;
        pfn
    }

    /// Returns frames to the pool.
    ///
    /// Frames are pushed onto the free stack, so they are the next to be
    /// reused — matching the LIFO behaviour of real free lists that makes
    /// freed skip-over frames promptly reappear in other mappings.
    pub fn free(&mut self, frames: impl IntoIterator<Item = Pfn>) {
        self.freed.extend(frames);
    }

    /// Returns the number of free frames.
    pub fn free_count(&self) -> u64 {
        self.freed.len() as u64 + self.untouched
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
    use proptest::prelude::*;
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

    /// The reference model: the whole stride permutation stored up front
    /// and popped from the back, with freed frames pushed onto the same
    /// stack.
    struct EagerReference(Vec<Pfn>);

    impl EagerReference {
        fn new(start: u64, end: u64) -> Self {
            let n = end - start;
            let stride = pick_stride(n);
            let mut free: Vec<Pfn> = (0..n).map(|i| Pfn(start + (i * stride) % n)).collect();
            free.reverse();
            Self(free)
        }

        fn alloc(&mut self, n: u64) -> Option<Vec<Pfn>> {
            if (self.0.len() as u64) < n {
                return None;
            }
            Some(
                (0..n)
                    .map(|_| self.0.pop().expect("length checked"))
                    .collect(),
            )
        }
    }

    /// Pool sizes: 1 and 2, primes, sizes whose gcd with the large stride
    /// candidates makes `pick_stride` reject them (a multiple of 104,729;
    /// 7,919 · 6; sizes below the candidates; 6, which falls back to
    /// scanning), and small random pools.
    fn pool_size() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(1u64),
            Just(2u64),
            Just(3u64),
            Just(6u64),
            Just(7919u64),
            Just(6u64 * 7919),
            Just(2u64 * 104_729),
            Just(5000u64),
            1u64..300,
        ]
    }

    proptest! {
        /// The computed permutation hands out exactly the frames, in
        /// exactly the order, of the stored one, through any interleaving
        /// of allocations and LIFO frees, exhaustion included.
        #[test]
        fn lazy_allocator_matches_eager_permutation(
            n in pool_size(),
            start in 0u64..1000,
            ops in prop::collection::vec((any::<bool>(), 0u64..400, 0u64..64), 1..40),
        ) {
            let mut lazy = FrameAllocator::new(start, start + n);
            let mut eager = EagerReference::new(start, start + n);
            let mut held: Vec<Pfn> = Vec::new();
            for (is_alloc, count, seed) in ops {
                if is_alloc {
                    // Sometimes ask for exactly what is left, or one more.
                    let count = match seed % 4 {
                        0 => lazy.free_count(),
                        1 => lazy.free_count() + 1,
                        _ => count,
                    };
                    let got = lazy.alloc(count);
                    prop_assert_eq!(&got, &eager.alloc(count));
                    held.extend(got.unwrap_or_default());
                } else {
                    let k = (count as usize).min(held.len());
                    let at = (seed as usize) % (held.len() - k + 1);
                    let back: Vec<Pfn> = held.drain(at..at + k).collect();
                    lazy.free(back.iter().copied());
                    eager.0.extend(back);
                }
                prop_assert_eq!(lazy.free_count(), eager.0.len() as u64);
            }
            // Drain to exhaustion: the rest matches too, then both refuse.
            let rest = lazy.free_count();
            prop_assert_eq!(lazy.alloc(rest), eager.alloc(rest));
            prop_assert_eq!(lazy.alloc(1), None);
            prop_assert_eq!(eager.alloc(1), None);
        }
    }

    #[test]
    #[should_panic(expected = "empty frame pool")]
    fn empty_pool_rejected() {
        let _ = FrameAllocator::new(5, 5);
    }
}
