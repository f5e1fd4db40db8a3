//! A dense bitmap over page frame numbers.
//!
//! Both the hypervisor's dirty bitmap and the framework's transfer bitmap are
//! one bit per VM memory page; at 4 KiB pages that is 32 KiB of bitmap per
//! GiB of VM memory, which the paper calls out as a negligible overhead.

use crate::addr::Pfn;

/// A fixed-size bitmap indexed by PFN.
///
/// # Examples
///
/// ```
/// use vmem::addr::Pfn;
/// use vmem::bitmap::Bitmap;
///
/// let mut bm = Bitmap::new(128);
/// bm.set(Pfn(5));
/// assert!(bm.get(Pfn(5)));
/// assert_eq!(bm.count_set(), 1);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: u64,
}

impl Bitmap {
    /// Creates a bitmap of `len` bits, all cleared.
    pub fn new(len: u64) -> Self {
        Self {
            words: vec![0; len.div_ceil(64) as usize],
            len,
        }
    }

    /// Creates a bitmap of `len` bits, all set.
    pub fn new_all_set(len: u64) -> Self {
        let mut bm = Self::new(len);
        bm.set_all();
        bm
    }

    /// Returns the number of bits.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Returns `true` when the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the size of the bitmap's backing store in bytes.
    pub fn byte_size(&self) -> u64 {
        self.words.len() as u64 * 8
    }

    /// Borrows the backing `u64` words, least-significant bit first.
    ///
    /// Bits past `len()` in the final word are always zero, so word-wise
    /// consumers need no tail special-casing on reads.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Returns the number of backing words (`len().div_ceil(64)`).
    #[inline]
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    #[inline]
    fn index(&self, pfn: Pfn) -> (usize, u64) {
        assert!(pfn.0 < self.len, "{pfn:?} out of range (len {})", self.len);
        ((pfn.0 / 64) as usize, 1u64 << (pfn.0 % 64))
    }

    /// Returns the bit for `pfn`.
    ///
    /// # Panics
    ///
    /// Panics if `pfn` is out of range.
    #[inline]
    pub fn get(&self, pfn: Pfn) -> bool {
        let (w, mask) = self.index(pfn);
        self.words[w] & mask != 0
    }

    /// Sets the bit for `pfn`; returns `true` if it was previously clear.
    #[inline]
    pub fn set(&mut self, pfn: Pfn) -> bool {
        let (w, mask) = self.index(pfn);
        let was_clear = self.words[w] & mask == 0;
        self.words[w] |= mask;
        was_clear
    }

    /// Clears the bit for `pfn`; returns `true` if it was previously set.
    #[inline]
    pub fn clear(&mut self, pfn: Pfn) -> bool {
        let (w, mask) = self.index(pfn);
        let was_set = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        was_set
    }

    /// Sets every bit.
    pub fn set_all(&mut self) {
        for w in &mut self.words {
            *w = u64::MAX;
        }
        self.mask_tail();
    }

    /// Clears every bit.
    pub fn clear_all(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Returns the number of set bits.
    pub fn count_set(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Returns `true` if no bit is set.
    pub fn all_clear(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Returns the first set bit at or after `from`, if any.
    ///
    /// Lets a scanner resume where it left off without re-walking the
    /// bitmap — the migration daemon's per-quantum page scan uses this.
    pub fn next_set_at(&self, from: u64) -> Option<Pfn> {
        if from >= self.len {
            return None;
        }
        let mut word_idx = (from / 64) as usize;
        let mut word = self.words[word_idx] & (u64::MAX << (from % 64));
        loop {
            if word != 0 {
                let bit = word.trailing_zeros() as u64;
                let pfn = word_idx as u64 * 64 + bit;
                return (pfn < self.len).then_some(Pfn(pfn));
            }
            word_idx += 1;
            if word_idx >= self.words.len() {
                return None;
            }
            word = self.words[word_idx];
        }
    }

    /// Iterates over set PFNs in ascending order.
    pub fn iter_set(&self) -> SetBits<'_> {
        SetBits {
            bitmap: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Copies all bits from `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn copy_from(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// Swaps contents with `other` in O(1).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn swap(&mut self, other: &mut Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        core::mem::swap(&mut self.words, &mut other.words);
    }

    /// Sets `self |= other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn union_with(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Sets `self &= !other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn subtract(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Sets `self &= other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn intersect_with(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Flips every bit (`self = !self`).
    pub fn invert(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Returns `popcount(self & other)` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn count_and(&self, other: &Bitmap) -> u64 {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as u64)
            .sum()
    }

    /// Returns `popcount(self & !other)` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn count_and_not(&self, other: &Bitmap) -> u64 {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & !b).count_ones() as u64)
            .sum()
    }

    /// Calls `f(word_index, word)` for every *non-zero* backing word, in
    /// ascending index order. The hot-path alternative to [`Bitmap::iter_set`]
    /// when the consumer wants to apply set algebra a word at a time.
    #[inline]
    pub fn for_each_set_word(&self, mut f: impl FnMut(usize, u64)) {
        for (idx, &w) in self.words.iter().enumerate() {
            if w != 0 {
                f(idx, w);
            }
        }
    }

    /// Iterates over the non-zero backing words as `(word_index, word)`
    /// pairs in ascending index order.
    pub fn iter_words(&self) -> SetWords<'_> {
        SetWords {
            words: &self.words,
            idx: 0,
        }
    }

    /// ORs `mask` into the word at `word_idx`; bits past `len()` are
    /// discarded so the tail invariant holds.
    ///
    /// # Panics
    ///
    /// Panics if `word_idx` is out of range.
    #[inline]
    pub fn set_bits_in_word(&mut self, word_idx: usize, mask: u64) {
        self.words[word_idx] |= mask;
        if word_idx + 1 == self.words.len() {
            self.mask_tail();
        }
    }

    /// Clears every bit of `mask` in the word at `word_idx`.
    ///
    /// # Panics
    ///
    /// Panics if `word_idx` is out of range.
    #[inline]
    pub fn clear_bits_in_word(&mut self, word_idx: usize, mask: u64) {
        self.words[word_idx] &= !mask;
    }

    /// Clears any set bits beyond `len` (the tail of the last word).
    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

impl core::fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Bitmap({} set / {} bits)", self.count_set(), self.len)
    }
}

/// Iterator over the non-zero words of a [`Bitmap`].
pub struct SetWords<'a> {
    words: &'a [u64],
    idx: usize,
}

impl Iterator for SetWords<'_> {
    type Item = (usize, u64);

    fn next(&mut self) -> Option<(usize, u64)> {
        while self.idx < self.words.len() {
            let idx = self.idx;
            self.idx += 1;
            let w = self.words[idx];
            if w != 0 {
                return Some((idx, w));
            }
        }
        None
    }
}

/// Iterator over set bits of a [`Bitmap`].
pub struct SetBits<'a> {
    bitmap: &'a Bitmap,
    word_idx: usize,
    current: u64,
}

impl Iterator for SetBits<'_> {
    type Item = Pfn;

    fn next(&mut self) -> Option<Pfn> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as u64;
                self.current &= self.current - 1;
                return Some(Pfn(self.word_idx as u64 * 64 + bit));
            }
            self.word_idx += 1;
            if self.word_idx >= self.bitmap.words.len() {
                return None;
            }
            self.current = self.bitmap.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut bm = Bitmap::new(100);
        assert!(!bm.get(Pfn(63)));
        assert!(bm.set(Pfn(63)));
        assert!(!bm.set(Pfn(63)), "second set reports already-set");
        assert!(bm.get(Pfn(63)));
        assert!(bm.clear(Pfn(63)));
        assert!(!bm.clear(Pfn(63)), "second clear reports already-clear");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let bm = Bitmap::new(10);
        let _ = bm.get(Pfn(10));
    }

    #[test]
    fn all_set_respects_length() {
        let bm = Bitmap::new_all_set(70);
        assert_eq!(bm.count_set(), 70);
        assert!(bm.get(Pfn(69)));
    }

    #[test]
    fn iter_set_crosses_words() {
        let mut bm = Bitmap::new(200);
        for p in [0u64, 1, 63, 64, 65, 127, 128, 199] {
            bm.set(Pfn(p));
        }
        let got: Vec<u64> = bm.iter_set().map(|p| p.0).collect();
        assert_eq!(got, vec![0, 1, 63, 64, 65, 127, 128, 199]);
    }

    #[test]
    fn iter_set_empty() {
        let bm = Bitmap::new(100);
        assert_eq!(bm.iter_set().count(), 0);
    }

    #[test]
    fn next_set_at_scans_incrementally() {
        let mut bm = Bitmap::new(200);
        for p in [3u64, 64, 130, 199] {
            bm.set(Pfn(p));
        }
        assert_eq!(bm.next_set_at(0), Some(Pfn(3)));
        assert_eq!(bm.next_set_at(3), Some(Pfn(3)), "inclusive start");
        assert_eq!(bm.next_set_at(4), Some(Pfn(64)));
        assert_eq!(bm.next_set_at(65), Some(Pfn(130)));
        assert_eq!(bm.next_set_at(131), Some(Pfn(199)));
        assert_eq!(bm.next_set_at(200), None, "past the end");
        assert_eq!(Bitmap::new(100).next_set_at(0), None);
    }

    #[test]
    fn union_and_subtract() {
        let mut a = Bitmap::new(128);
        let mut b = Bitmap::new(128);
        a.set(Pfn(1));
        a.set(Pfn(2));
        b.set(Pfn(2));
        b.set(Pfn(3));
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count_set(), 3);
        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(d.iter_set().map(|p| p.0).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn byte_size_per_gib() {
        // 1 GiB of 4 KiB pages = 262144 pages -> 32 KiB of bitmap (paper §3.3.3).
        let bm = Bitmap::new(262_144);
        assert_eq!(bm.byte_size(), 32 * 1024);
    }

    #[test]
    fn popcounts_intersect_and_invert() {
        let mut a = Bitmap::new(130);
        let mut b = Bitmap::new(130);
        for p in [0u64, 63, 64, 100, 129] {
            a.set(Pfn(p));
        }
        for p in [63u64, 100, 128] {
            b.set(Pfn(p));
        }
        assert_eq!(a.count_and(&b), 2, "63 and 100");
        assert_eq!(a.count_and_not(&b), 3, "0, 64, 129");
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter_set().map(|p| p.0).collect::<Vec<_>>(), vec![63, 100]);
        let mut inv = b.clone();
        inv.invert();
        assert_eq!(inv.count_set(), 130 - 3);
        assert!(!inv.get(Pfn(63)) && inv.get(Pfn(0)) && inv.get(Pfn(129)));
    }

    #[test]
    fn tail_word_lengths_not_divisible_by_64() {
        for len in [1u64, 63, 65, 70, 127, 130, 191] {
            let mut bm = Bitmap::new(len);
            bm.set_all();
            assert_eq!(bm.count_set(), len, "set_all at len {len}");
            assert_eq!(bm.next_set_at(len - 1), Some(Pfn(len - 1)));
            assert_eq!(bm.next_set_at(len), None, "beyond the tail at len {len}");
            assert_eq!(
                bm.next_set_at(len + 1000),
                None,
                "far beyond the tail at len {len}"
            );
            // The tail invariant: no stray bits past `len` in the last word.
            let rem = len % 64;
            if rem != 0 {
                assert_eq!(bm.words().last().unwrap() >> rem, 0, "tail at len {len}");
            }
            let mut inv = bm.clone();
            inv.invert();
            assert!(inv.all_clear(), "invert of all-set is empty at len {len}");
            assert_eq!(bm.count_and(&bm), len);
            assert_eq!(bm.count_and_not(&bm), 0);
        }
    }

    #[test]
    fn word_views_and_word_edits() {
        let mut bm = Bitmap::new(100);
        bm.set(Pfn(3));
        bm.set(Pfn(64));
        assert_eq!(bm.word_count(), 2);
        assert_eq!(bm.words()[0], 1 << 3);
        assert_eq!(bm.words()[1], 1);
        let collected: Vec<(usize, u64)> = bm.iter_words().collect();
        assert_eq!(collected, vec![(0, 1 << 3), (1, 1)]);
        let mut visited = Vec::new();
        bm.for_each_set_word(|i, w| visited.push((i, w)));
        assert_eq!(visited, collected);

        bm.clear_bits_in_word(0, 1 << 3);
        assert!(!bm.get(Pfn(3)));
        bm.set_bits_in_word(1, u64::MAX);
        // Bits past len (100) must have been discarded by the tail mask.
        assert_eq!(bm.count_set(), 100 - 64);
        assert!(bm.get(Pfn(99)));
        assert_eq!(bm.next_set_at(100), None);
    }

    #[test]
    fn swap_is_cheap_and_correct() {
        let mut a = Bitmap::new(64);
        let mut b = Bitmap::new(64);
        a.set(Pfn(1));
        b.set(Pfn(2));
        a.swap(&mut b);
        assert!(a.get(Pfn(2)) && !a.get(Pfn(1)));
        assert!(b.get(Pfn(1)) && !b.get(Pfn(2)));
    }
}
