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

/// Engine-side state of one migration's cold assist. `None` in
/// `RunState` when the assist is off — the disabled path must not even
/// allocate.
#[derive(Debug)]
pub(crate) struct ColdState {
    /// Pages adopted as cold from the LKM's cold bitmap.
    pub map: Bitmap,
    /// Cold pages awaiting their bulk-stream send (defer action only).
    pub pending: Bitmap,
    /// The delta page cache (delta action only).
    pub delta: Option<DeltaCache>,
    /// Whether the defer action is on.
    pub defer: bool,
    /// LKM cold bits already adopted; a cheap popcount guard that skips
    /// the word-wise adoption diff when nothing new arrived.
    pub adopted_bits: u64,
    /// Running counters for the report.
    pub report: ColdReport,
}

impl ColdState {
    pub(crate) fn new(npages: u64, config: &ColdAssistConfig) -> Self {
        Self {
            map: Bitmap::new(npages),
            pending: Bitmap::new(npages),
            delta: config
                .delta
                .then(|| DeltaCache::new(config.delta_cache_pages)),
            defer: config.defer,
            adopted_bits: 0,
            report: ColdReport::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
