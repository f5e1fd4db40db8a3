//! Property tests for the word-granular bitmap combinators.
//!
//! Every word-level operation the scan pipeline relies on is cross-checked
//! against a naive per-bit reference over randomly generated bitmaps with
//! deliberately awkward lengths (tail words, exact word multiples, tiny
//! maps). If the word algebra and the bit-at-a-time semantics ever
//! disagree — including on bits beyond the tail — these fail.

use migrate::precopy::WordClass;
use proptest::prelude::*;
use vmem::{Bitmap, Pfn};

/// Builds a bitmap of `len` bits whose set bits are chosen by `picks`
/// indices (modulo `len`), next to a plain `Vec<bool>` reference model.
fn build(len: u64, picks: &[u64]) -> (Bitmap, Vec<bool>) {
    let mut bm = Bitmap::new(len);
    let mut model = vec![false; len as usize];
    for &p in picks {
        let i = p % len;
        bm.set(Pfn(i));
        model[i as usize] = true;
    }
    (bm, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    fn count_and_matches_per_bit(
        len in 1u64..200,
        a in prop::collection::vec(any::<u64>(), 0..64),
        b in prop::collection::vec(any::<u64>(), 0..64),
    ) {
        let (x, xm) = build(len, &a);
        let (y, ym) = build(len, &b);
        let naive = xm.iter().zip(&ym).filter(|(p, q)| **p && **q).count() as u64;
        prop_assert_eq!(x.count_and(&y), naive);
    }

    fn count_and_not_matches_per_bit(
        len in 1u64..200,
        a in prop::collection::vec(any::<u64>(), 0..64),
        b in prop::collection::vec(any::<u64>(), 0..64),
    ) {
        let (x, xm) = build(len, &a);
        let (y, ym) = build(len, &b);
        let naive = xm.iter().zip(&ym).filter(|(p, q)| **p && !**q).count() as u64;
        prop_assert_eq!(x.count_and_not(&y), naive);
    }

    fn intersect_with_matches_per_bit(
        len in 1u64..200,
        a in prop::collection::vec(any::<u64>(), 0..64),
        b in prop::collection::vec(any::<u64>(), 0..64),
    ) {
        let (mut x, xm) = build(len, &a);
        let (y, ym) = build(len, &b);
        x.intersect_with(&y);
        for i in 0..len {
            prop_assert_eq!(x.get(Pfn(i)), xm[i as usize] && ym[i as usize]);
        }
    }

    fn invert_matches_per_bit_and_masks_tail(
        len in 1u64..200,
        a in prop::collection::vec(any::<u64>(), 0..64),
    ) {
        let (mut x, xm) = build(len, &a);
        x.invert();
        for i in 0..len {
            prop_assert_eq!(x.get(Pfn(i)), !xm[i as usize]);
        }
        // The complement never leaks set bits past the tail.
        prop_assert_eq!(x.count_set(), len - xm.iter().filter(|b| **b).count() as u64);
        let rem = (len % 64) as u32;
        if rem != 0 {
            let tail = x.words()[x.word_count() - 1];
            prop_assert_eq!(tail >> rem, 0);
        }
    }

    fn word_iteration_agrees_with_iter_set(
        len in 1u64..300,
        a in prop::collection::vec(any::<u64>(), 0..96),
    ) {
        let (x, _) = build(len, &a);
        // Reconstruct the PFN list from the word view.
        let mut from_words = Vec::new();
        x.for_each_set_word(|wi, mut w| {
            while w != 0 {
                let bit = w.trailing_zeros() as u64;
                from_words.push(Pfn(wi as u64 * 64 + bit));
                w &= w - 1;
            }
        });
        let from_bits: Vec<Pfn> = x.iter_set().collect();
        prop_assert_eq!(from_words, from_bits);
        // iter_words() visits exactly the non-zero words, ascending.
        let via_iter: Vec<(usize, u64)> = x.iter_words().collect();
        let expect: Vec<(usize, u64)> = x
            .words()
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, w)| *w != 0)
            .collect();
        prop_assert_eq!(via_iter, expect);
    }

    fn word_edits_match_per_bit_edits(
        len in 65u64..200,
        a in prop::collection::vec(any::<u64>(), 0..64),
        mask in any::<u64>(),
    ) {
        // Apply a mask edit to word 0 both ways: word-granular on the
        // bitmap, per-bit on the model.
        let (mut x, mut xm) = build(len, &a);
        x.set_bits_in_word(0, mask);
        x.clear_bits_in_word(1, mask);
        for bit in 0..64u64 {
            if mask & (1 << bit) != 0 {
                xm[bit as usize] = true;
                if bit + 64 < len {
                    xm[(bit + 64) as usize] = false;
                }
            }
        }
        for i in 0..len.min(128) {
            prop_assert_eq!(x.get(Pfn(i)), xm[i as usize], "bit {}", i);
        }
    }

    fn scan_classification_matches_per_bit(
        len in 1u64..260,
        s in prop::collection::vec(any::<u64>(), 0..96),
        d in prop::collection::vec(any::<u64>(), 0..96),
        t in prop::collection::vec(any::<u64>(), 0..96),
    ) {
        // The engine's word classifier (send / skip-dirty / skip-transfer)
        // against the per-bit rule it replaced.
        let (snap, sm) = build(len, &s);
        let (dirty, dm) = build(len, &d);
        let (transfer, tm) = build(len, &t);
        let (mut sends, mut skips_d, mut skips_t) = (0u64, 0u64, 0u64);
        for wi in 0..snap.word_count() {
            let w = snap.words()[wi];
            let c = WordClass::of(w, dirty.words()[wi], Some(transfer.words()[wi]));
            // The three masks are disjoint and reassemble the word.
            prop_assert_eq!(c.sends | c.skips_transfer | c.skips_dirty, w);
            prop_assert_eq!(c.sends & c.skips_transfer, 0);
            prop_assert_eq!(c.sends & c.skips_dirty, 0);
            prop_assert_eq!(c.skips_transfer & c.skips_dirty, 0);
            skips_t += u64::from(c.skips_transfer.count_ones());
            skips_d += u64::from(c.skips_dirty.count_ones());
            sends += u64::from(c.sends.count_ones());
        }
        let (mut nsends, mut nskips_d, mut nskips_t) = (0u64, 0u64, 0u64);
        for i in 0..len as usize {
            if !sm[i] {
                continue;
            }
            if !tm[i] {
                nskips_t += 1;
            } else if dm[i] {
                nskips_d += 1;
            } else {
                nsends += 1;
            }
        }
        prop_assert_eq!((sends, skips_d, skips_t), (nsends, nskips_d, nskips_t));
    }

    fn absent_transfer_word_classifies_as_all_ones(
        s in any::<u64>(),
        d in any::<u64>(),
    ) {
        // Vanilla and degraded runs consult no transfer bitmap; that must
        // classify exactly as a transfer word with every page allowed.
        prop_assert_eq!(WordClass::of(s, d, None), WordClass::of(s, d, Some(u64::MAX)));
    }
}
