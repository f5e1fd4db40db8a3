//! The cold-page assist: a second assist class beyond skip-over areas.
//!
//! The paper's one assist lets applications *exclude* dead pages (skip-over
//! areas). Much of a JVM's Old generation is the opposite: live-but-cold —
//! it must reach the destination, but it re-dirties rarely and never needs
//! to ride the hot pre-copy loop. This module gives the engine two actions
//! for such pages, driven by the cold-region map the guest exports through
//! the coordination protocol (`QueryColdMap` → `QueryColdRegions` →
//! `ColdRegions`, translated VA→PFN by the LKM):
//!
//! * **defer** — cold pages are split out of every iteration snapshot into
//!   a low-priority bulk stream that only consumes link budget the hot scan
//!   left over, so the hot working set converges as if the cold mass were
//!   not there;
//! * **delta** — a re-dirtied page whose prior version was already sent
//!   ships as an XBZRLE-style run-length-of-XOR delta against a bounded
//!   page cache ([`delta::DeltaCache`]) instead of a full copy.
//!
//! Both actions only change *when and how* cold pages ride the link, never
//! *whether*: the destination receives every live page and verification
//! stays page-for-page exact. With the assist disabled (the default) the
//! engine allocates nothing, sends no extra protocol message, and produces
//! byte-identical digests — locked by the inertness goldens.

pub mod delta;

use crate::error::ConfigError;
use delta::DeltaCache;
use vmem::Bitmap;

/// Configuration of the cold-page assist. Disabled by default; enabling
/// either action requires the assisted protocol (the cold map arrives via
/// the LKM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColdAssistConfig {
    /// Split cold pages out of the hot iterations into a low-priority bulk
    /// stream.
    pub defer: bool,
    /// Delta-encode re-dirtied cold pages against the page cache.
    pub delta: bool,
    /// Capacity of the per-VM delta page cache, in pages. Must be ≥ 1 when
    /// `delta` is on.
    pub delta_cache_pages: usize,
}

impl Default for ColdAssistConfig {
    fn default() -> Self {
        Self::off()
    }
}

impl ColdAssistConfig {
    /// Both actions off — the engine's zero-config path.
    pub fn off() -> Self {
        Self {
            defer: false,
            delta: false,
            delta_cache_pages: 16_384,
        }
    }

    /// Both actions on with the default cache size.
    pub fn full() -> Self {
        Self {
            defer: true,
            delta: true,
            ..Self::off()
        }
    }

    /// `true` when any cold action is configured.
    pub fn enabled(&self) -> bool {
        self.defer || self.delta
    }

    /// Checks the invariants [`crate::config::MigrationConfig::validate`]
    /// enforces for the cold assist.
    pub fn validate(&self, assisted: bool) -> Result<(), ConfigError> {
        if self.enabled() && !assisted {
            return Err(ConfigError::ColdRequiresAssist);
        }
        if self.delta && self.delta_cache_pages == 0 {
            return Err(ConfigError::ZeroDeltaCache);
        }
        Ok(())
    }
}

/// What the cold assist did during one migration; carried in
/// [`crate::report::MigrationReport::cold`] and folded into the run
/// digest's `cold` section when present.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColdReport {
    /// Distinct pages the engine ever classified cold.
    pub cold_pages: u64,
    /// Page moves out of hot snapshots into the bulk stream (a page
    /// re-dirtied across iterations is counted once per move).
    pub deferred_pages: u64,
    /// Pages the bulk stream transferred during live iterations.
    pub deferred_sent_pages: u64,
    /// Wire bytes of those bulk-stream transfers.
    pub deferred_sent_bytes: u64,
    /// Cold pages still pending when the VM paused (they joined the
    /// stop-and-copy set).
    pub pending_at_pause: u64,
    /// Delta-cache consultations that found the prior version cached and
    /// shipped a delta.
    pub delta_hits: u64,
    /// Consultations that found nothing cached (full send, now cached).
    pub delta_misses: u64,
    /// Cached consultations whose encoded delta would not beat the full
    /// page (full send).
    pub delta_fallbacks: u64,
    /// Cache inserts that evicted another page (capacity pressure).
    pub delta_overflows: u64,
    /// Wire bytes actually sent for the delta-hit pages.
    pub delta_wire_bytes: u64,
    /// Wire bytes those same sends would have cost as full pages.
    pub delta_full_bytes: u64,
}

impl ColdReport {
    /// Fraction of the would-be full-page bytes the delta codec saved:
    /// `1 - wire/full` over the delta-hit sends, 0.0 when none happened.
    pub fn saved_bytes_ratio(&self) -> f64 {
        if self.delta_full_bytes == 0 {
            0.0
        } else {
            1.0 - self.delta_wire_bytes as f64 / self.delta_full_bytes as f64
        }
    }

    /// Delta-cache hit rate over all consultations (hits + fallbacks count
    /// as cached), 0.0 before any consultation.
    pub fn cache_hit_rate(&self) -> f64 {
        let cached = self.delta_hits + self.delta_fallbacks;
        let total = cached + self.delta_misses;
        if total == 0 {
            0.0
        } else {
            cached as f64 / total as f64
        }
    }
}

/// Engine-side state of one migration's cold assist. `None` in the
/// `MigrationSession` when the assist is off — the disabled path must not
/// even allocate.
///
/// [`ColdState::split`] and [`ColdState::adopt`] are pure bitmap algebra,
/// one pass over the words that clones nothing; the engine's bulk drain
/// (`drain_cold_quantum`) needs the send path and lives in the engine.
#[derive(Debug)]
pub(crate) struct ColdState {
    /// Pages adopted as cold from the LKM's cold bitmap.
    pub map: Bitmap,
    /// Cold pages awaiting their bulk-stream send (defer action only).
    pub pending: Bitmap,
    /// No `pending` bit lies below this PFN, so the bulk drain resumes
    /// here instead of re-scanning the backlog from PFN 0. `split` and
    /// `adopt` lower it as they add pages; the drain raises it to where it
    /// stops, or to the end once the backlog is empty.
    pub drain_from: u64,
    /// The delta page cache (delta action only).
    pub delta: Option<DeltaCache>,
    /// Whether the defer action is on.
    pub defer: bool,
    /// The LKM's cold-bit count when its map was last adopted. The LKM
    /// keeps that count as it sets bits, so comparing it is an O(1) guard
    /// that skips the word-wise adoption diff when nothing new arrived.
    pub adopted_bits: u64,
    /// Running counters for the report.
    pub report: ColdReport,
}

impl ColdState {
    pub(crate) fn new(npages: u64, config: &ColdAssistConfig) -> Self {
        Self {
            map: Bitmap::new(npages),
            pending: Bitmap::new(npages),
            drain_from: npages,
            delta: config
                .delta
                .then(|| DeltaCache::new(config.delta_cache_pages, npages)),
            defer: config.defer,
            adopted_bits: 0,
            report: ColdReport::default(),
        }
    }

    /// Splits a fresh hot snapshot against the accumulated cold map: cold
    /// pages of `to_send` leave it for the deferred backlog; hot pages
    /// stay. No-op unless deferral is configured.
    pub(crate) fn split(&mut self, to_send: &mut Bitmap) {
        if !self.defer {
            return;
        }
        for wi in 0..self.map.word_count() {
            let moved = self.map.words()[wi] & to_send.words()[wi];
            if moved != 0 {
                self.defer_word(wi, moved, to_send);
            }
        }
    }

    /// Folds the LKM's cold map into the accumulated one. With deferral
    /// on, newly cold pages still in the hot snapshot `to_send` move to
    /// the deferred backlog. `lkm_count` is the LKM's own count of the
    /// bits set in `lkm_map`; the map only grows during a migration, so an
    /// unchanged count means nothing new arrived and the word pass is
    /// skipped.
    pub(crate) fn adopt(&mut self, lkm_map: &Bitmap, lkm_count: u64, to_send: &mut Bitmap) {
        if lkm_count == self.adopted_bits {
            return;
        }
        self.adopted_bits = lkm_count;
        for wi in 0..lkm_map.word_count() {
            let added = lkm_map.words()[wi] & !self.map.words()[wi];
            if added == 0 {
                continue;
            }
            self.map.set_bits_in_word(wi, added);
            let moved = added & to_send.words()[wi];
            if self.defer && moved != 0 {
                self.defer_word(wi, moved, to_send);
            }
        }
    }

    /// Moves the pages `moved` of word `wi` from the hot snapshot to the
    /// deferred backlog, lowering the drain's resume point to cover them.
    fn defer_word(&mut self, wi: usize, moved: u64, to_send: &mut Bitmap) {
        self.report.deferred_pages += u64::from(moved.count_ones());
        self.pending.set_bits_in_word(wi, moved);
        to_send.clear_bits_in_word(wi, moved);
        let first = wi as u64 * 64 + u64::from(moved.trailing_zeros());
        self.drain_from = self.drain_from.min(first);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use vmem::Pfn;

    /// Bits per test bitmap: three full words and a partial one.
    const LEN: u64 = 200;

    fn bits(set: &BTreeSet<u64>) -> Bitmap {
        let mut bm = Bitmap::new(LEN);
        for &pfn in set {
            bm.set(Pfn(pfn));
        }
        bm
    }

    /// The clone-based algebra `split` and `adopt` replaced: the engine's
    /// cold bookkeeping as whole-bitmap copies and a popcount guard.
    struct CloneModel {
        map: Bitmap,
        pending: Bitmap,
        to_send: Bitmap,
        deferred_pages: u64,
        adopted_bits: u64,
        defer: bool,
    }

    impl CloneModel {
        fn split(&mut self) {
            if !self.defer {
                return;
            }
            let mut moved = self.map.clone();
            moved.intersect_with(&self.to_send);
            let n = moved.count_set();
            if n > 0 {
                self.deferred_pages += n;
                self.pending.union_with(&moved);
                self.to_send.subtract(&moved);
            }
        }

        fn adopt(&mut self, lkm: &Bitmap) {
            let total = lkm.count_set();
            if total == self.adopted_bits {
                return;
            }
            self.adopted_bits = total;
            let mut added = lkm.clone();
            added.subtract(&self.map);
            self.map.union_with(&added);
            if self.defer {
                added.intersect_with(&self.to_send);
                let moved = added.count_set();
                if moved > 0 {
                    self.deferred_pages += moved;
                    self.pending.union_with(&added);
                    self.to_send.subtract(&added);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Interleaved LKM map growth + `adopt` and fresh snapshots +
        /// `split` leave the word loops and the clone-based algebra with
        /// the same map, backlog, snapshot and deferred count, and no
        /// backlog page below the drain's resume point.
        fn split_and_adopt_match_clone_algebra(
            defer in any::<bool>(),
            steps in prop::collection::vec(
                (
                    any::<bool>(),
                    prop::collection::btree_set(0u64..LEN, 0..48),
                    prop::collection::btree_set(0u64..LEN, 0..160),
                ),
                1..12,
            ),
        ) {
            let config = ColdAssistConfig {
                defer,
                ..ColdAssistConfig::full()
            };
            let mut state = ColdState::new(LEN, &config);
            let mut to_send = Bitmap::new_all_set(LEN);
            let mut model = CloneModel {
                map: Bitmap::new(LEN),
                pending: Bitmap::new(LEN),
                to_send: Bitmap::new_all_set(LEN),
                deferred_pages: 0,
                adopted_bits: 0,
                defer,
            };
            let mut lkm = Bitmap::new(LEN);
            for (snapshot, cold, dirty) in steps {
                if snapshot {
                    to_send = bits(&dirty);
                    model.to_send = bits(&dirty);
                    state.split(&mut to_send);
                    model.split();
                } else {
                    lkm.union_with(&bits(&cold));
                    state.adopt(&lkm, lkm.count_set(), &mut to_send);
                    model.adopt(&lkm);
                }
                prop_assert!(state.map == model.map);
                prop_assert!(state.pending == model.pending);
                prop_assert!(to_send == model.to_send);
                prop_assert_eq!(state.report.deferred_pages, model.deferred_pages);
                prop_assert!(state
                    .pending
                    .next_set_at(0)
                    .is_none_or(|first| first.0 >= state.drain_from));
            }
        }
    }

    #[test]
    fn adopt_skips_an_unchanged_count() {
        let mut state = ColdState::new(LEN, &ColdAssistConfig::full());
        let mut to_send = Bitmap::new_all_set(LEN);
        let mut lkm = Bitmap::new(LEN);
        lkm.set(Pfn(70));
        state.adopt(&lkm, 1, &mut to_send);
        assert!(state.pending.get(Pfn(70)));
        assert_eq!(state.drain_from, 70);
        // The count did not move: the map is taken as unchanged.
        lkm.set(Pfn(3));
        state.adopt(&lkm, 1, &mut to_send);
        assert!(!state.map.get(Pfn(3)));
        state.adopt(&lkm, 2, &mut to_send);
        assert!(state.pending.get(Pfn(3)));
        assert_eq!(state.drain_from, 3);
        assert!(!to_send.get(Pfn(3)) && !to_send.get(Pfn(70)));
    }

    #[test]
    fn config_gates() {
        assert!(!ColdAssistConfig::off().enabled());
        assert!(ColdAssistConfig::full().enabled());
        assert!(ColdAssistConfig::off().validate(false).is_ok());
        assert_eq!(
            ColdAssistConfig::full().validate(false),
            Err(ConfigError::ColdRequiresAssist)
        );
        let bad = ColdAssistConfig {
            delta_cache_pages: 0,
            ..ColdAssistConfig::full()
        };
        assert_eq!(bad.validate(true), Err(ConfigError::ZeroDeltaCache));
        assert!(ColdAssistConfig::full().validate(true).is_ok());
    }

    #[test]
    fn report_ratios() {
        let r = ColdReport {
            delta_hits: 3,
            delta_misses: 1,
            delta_wire_bytes: 1000,
            delta_full_bytes: 4000,
            ..ColdReport::default()
        };
        assert!((r.saved_bytes_ratio() - 0.75).abs() < 1e-12);
        assert!((r.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(ColdReport::default().saved_bytes_ratio(), 0.0);
        assert_eq!(ColdReport::default().cache_hit_rate(), 0.0);
    }

    #[test]
    fn state_allocates_per_action() {
        let s = ColdState::new(64, &ColdAssistConfig::full());
        assert!(s.delta.is_some());
        assert!(s.defer);
        let defer_only = ColdAssistConfig {
            delta: false,
            ..ColdAssistConfig::full()
        };
        assert!(ColdState::new(64, &defer_only).delta.is_none());
    }
}
