//! XBZRLE-style delta transfer: run-length-of-XOR encoding against a
//! bounded cache of previously sent page versions.
//!
//! QEMU's XBZRLE keeps an LRU page cache on the source; when a dirty page's
//! prior contents are cached, the migration sends the run-length-encoded
//! XOR of old and new instead of the full page. This simulation carries
//! page *versions*, not contents, so the codec is modeled deterministically
//! from the version distance: each version bump corresponds to one guest
//! write of roughly [`DELTA_CHANGED_BYTES_PER_VERSION`] bytes, the encoder
//! inflates the changed bytes by the run-length framing, and a delta that
//! would not beat the full page falls back to a full send — exactly the
//! shape of the real codec's behaviour, with none of its content handling.
//!
//! The cache is bounded ([`DeltaCache::new`] takes the capacity in pages)
//! and evicts in FIFO order, which keeps eviction deterministic and
//! independent of lookup patterns. An eviction under pressure is an
//! *overflow*: the evicted page's next re-dirty will miss and pay a full
//! send, which is why the digest gate watches the saved-bytes ratio when CI
//! shrinks the cache.
//!
//! The cache is a dense per-PFN array, so a lookup is one index. It costs
//! one `u64` (8 B) per guest page whatever the capacity, 4 MiB for a
//! 2 GiB guest, and exists only when the delta action is on. The FIFO
//! holds the cached PFNs in first-insertion order.

use simkit::SimDuration;
use std::collections::VecDeque;
use vmem::{Pfn, PAGE_SIZE};

/// Modeled bytes changed within a page per content-version bump (one guest
/// write touches an object or cache entry, not the whole 4 KiB page).
pub const DELTA_CHANGED_BYTES_PER_VERSION: u64 = 256;

/// Fixed framing overhead of one encoded delta (offsets + lengths).
pub const DELTA_HEADER_BYTES: u64 = 16;

/// CPU time to XOR + run-length encode one page against its cached copy.
pub const DELTA_CPU_PER_PAGE: SimDuration = SimDuration::from_nanos(800);

/// Encoded body size for a delta spanning `distance` version bumps: the
/// changed bytes (capped at the page) inflated by 1/16 run-length framing,
/// plus the fixed header. Monotone in `distance`.
pub fn encoded_body(distance: u64) -> u64 {
    let changed = (distance.saturating_mul(DELTA_CHANGED_BYTES_PER_VERSION)).min(PAGE_SIZE);
    changed + changed / 16 + DELTA_HEADER_BYTES
}

/// What one cache consultation decided for a page about to be sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOutcome {
    /// The prior version was not cached: full send, page now cached.
    Miss,
    /// Cached and the delta wins: send `body` bytes instead of the full
    /// page body.
    Delta {
        /// Encoded delta body in bytes (page header excluded).
        body: u64,
    },
    /// Cached but the page changed too much — the encoded delta would not
    /// beat the full page, so a full send goes out (cache updated).
    Fallback,
}

/// A bounded FIFO cache of the last-sent version per page.
///
/// # Examples
///
/// ```
/// use migrate::assist::delta::{DeltaCache, DeltaOutcome};
/// use vmem::Pfn;
///
/// let mut cache = DeltaCache::new(2, 16);
/// assert_eq!(cache.consult(Pfn(7), 1, 4096).0, DeltaOutcome::Miss);
/// // Re-dirtied once since the send: a small delta wins.
/// let (outcome, overflow) = cache.consult(Pfn(7), 2, 4096);
/// assert!(matches!(outcome, DeltaOutcome::Delta { body } if body < 4096));
/// assert!(!overflow);
/// ```
#[derive(Debug, Clone)]
pub struct DeltaCache {
    cap: usize,
    /// Last-sent version per PFN; [`EMPTY`] marks an uncached page
    /// (version 0 is a real entry: the bulk pass primes pristine pages).
    versions: Vec<u64>,
    len: usize,
    fifo: VecDeque<u64>,
}

/// The marker of an uncached page in [`DeltaCache`]'s per-PFN array.
const EMPTY: u64 = u64::MAX;

impl DeltaCache {
    /// Creates a cache holding at most `cap` pages of a guest with
    /// `npages` pages (`cap` ≥ 1 is enforced by config validation; a zero
    /// `cap` would evict on every insert).
    pub fn new(cap: usize, npages: u64) -> Self {
        Self {
            cap: cap.max(1),
            versions: vec![EMPTY; npages as usize],
            len: 0,
            fifo: VecDeque::new(),
        }
    }

    /// Pages currently cached.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Consults and updates the cache for a page about to be sent at
    /// `version` whose full (compressed) body would cost `full_body` bytes.
    /// Returns the outcome and whether the update evicted another page.
    pub fn consult(&mut self, pfn: Pfn, version: u64, full_body: u64) -> (DeltaOutcome, bool) {
        let prior = self.versions[pfn.0 as usize];
        let outcome = if prior == EMPTY {
            DeltaOutcome::Miss
        } else {
            let body = encoded_body(version.saturating_sub(prior));
            if body < full_body {
                DeltaOutcome::Delta { body }
            } else {
                DeltaOutcome::Fallback
            }
        };
        let overflow = self.remember(pfn, version);
        (outcome, overflow)
    }

    /// Primes the cache with a page the bulk pass is sending in full: no
    /// codec run (there is nothing to delta against), just the insert, so
    /// the page's *first* re-send can already encode against the bulk
    /// version. Returns `true` when the insert evicted another page.
    pub fn prime(&mut self, pfn: Pfn, version: u64) -> bool {
        self.remember(pfn, version)
    }

    /// Records that `pfn` was sent at `version`; returns `true` when the
    /// insert evicted the oldest entry.
    fn remember(&mut self, pfn: Pfn, version: u64) -> bool {
        debug_assert_ne!(version, EMPTY, "version collides with the empty marker");
        let slot = &mut self.versions[pfn.0 as usize];
        let fresh = *slot == EMPTY;
        *slot = version;
        if !fresh {
            // Refresh in place: FIFO order is by first insertion, which
            // keeps eviction independent of the lookup pattern.
            return false;
        }
        self.len += 1;
        self.fifo.push_back(pfn.0);
        if self.len > self.cap {
            // Every FIFO key is cached: a page leaves the cache only here,
            // where it also leaves the FIFO. So the front is the oldest
            // live entry.
            let old = self.fifo.pop_front().expect("a full cache has a FIFO");
            self.versions[old as usize] = EMPTY;
            self.len -= 1;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The sparse cache the dense array replaced: a `BTreeMap` of
    /// versions plus the same first-insertion FIFO. Kept as the reference
    /// model for the dense cache.
    struct MapCache {
        cap: usize,
        versions: BTreeMap<u64, u64>,
        fifo: VecDeque<u64>,
    }

    impl MapCache {
        fn new(cap: usize) -> Self {
            Self {
                cap: cap.max(1),
                versions: BTreeMap::new(),
                fifo: VecDeque::new(),
            }
        }

        fn consult(&mut self, pfn: Pfn, version: u64, full_body: u64) -> (DeltaOutcome, bool) {
            let outcome = match self.versions.get(&pfn.0) {
                Some(&prior) => {
                    let body = encoded_body(version.saturating_sub(prior));
                    if body < full_body {
                        DeltaOutcome::Delta { body }
                    } else {
                        DeltaOutcome::Fallback
                    }
                }
                None => DeltaOutcome::Miss,
            };
            (outcome, self.remember(pfn, version))
        }

        fn remember(&mut self, pfn: Pfn, version: u64) -> bool {
            if self.versions.insert(pfn.0, version).is_some() {
                return false;
            }
            self.fifo.push_back(pfn.0);
            if self.versions.len() > self.cap {
                while let Some(old) = self.fifo.pop_front() {
                    if self.versions.remove(&old).is_some() {
                        break;
                    }
                }
                return true;
            }
            false
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random `consult`/`prime` sequences give the dense cache and the
        /// map model the same outcome, overflow flag and length after every
        /// call — eviction order, in-place refresh and version 0 included.
        fn dense_cache_matches_map_model(
            cap in 1usize..9,
            ops in prop::collection::vec(
                (any::<bool>(), 0u64..32, 0u64..6, 0u64..1200),
                0..160,
            ),
        ) {
            let mut dense = DeltaCache::new(cap, 32);
            let mut model = MapCache::new(cap);
            for (prime, pfn, version, full_body) in ops {
                let pfn = Pfn(pfn);
                if prime {
                    prop_assert_eq!(dense.prime(pfn, version), model.remember(pfn, version));
                } else {
                    prop_assert_eq!(
                        dense.consult(pfn, version, full_body),
                        model.consult(pfn, version, full_body)
                    );
                }
                prop_assert_eq!(dense.len(), model.versions.len());
                prop_assert_eq!(dense.is_empty(), model.versions.is_empty());
            }
        }
    }

    #[test]
    fn encoded_body_grows_with_distance_and_caps() {
        assert!(encoded_body(1) < encoded_body(4));
        assert_eq!(encoded_body(0), DELTA_HEADER_BYTES);
        // Past 16 version bumps the whole page changed; the encoding can
        // only add overhead from there.
        assert_eq!(encoded_body(16), encoded_body(1000));
        assert!(encoded_body(1000) > PAGE_SIZE);
    }

    #[test]
    fn miss_then_hit_then_fallback() {
        let mut cache = DeltaCache::new(8, 16);
        assert_eq!(cache.consult(Pfn(3), 5, PAGE_SIZE).0, DeltaOutcome::Miss);
        let (o, _) = cache.consult(Pfn(3), 6, PAGE_SIZE);
        assert_eq!(
            o,
            DeltaOutcome::Delta {
                body: encoded_body(1)
            }
        );
        // A page rewritten end-to-end since the last send: delta loses.
        let (o, _) = cache.consult(Pfn(3), 106, PAGE_SIZE);
        assert_eq!(o, DeltaOutcome::Fallback);
    }

    #[test]
    fn fifo_eviction_is_by_first_insertion() {
        let mut cache = DeltaCache::new(2, 16);
        cache.consult(Pfn(1), 1, PAGE_SIZE);
        cache.consult(Pfn(2), 1, PAGE_SIZE);
        // Touching pfn 1 again must not save it from being the eviction
        // victim (FIFO, not LRU).
        cache.consult(Pfn(1), 2, PAGE_SIZE);
        let (_, overflow) = cache.consult(Pfn(3), 1, PAGE_SIZE);
        assert!(overflow);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.consult(Pfn(1), 3, PAGE_SIZE).0, DeltaOutcome::Miss);
    }

    #[test]
    fn single_entry_cache_thrashes() {
        let mut cache = DeltaCache::new(1, 16);
        cache.consult(Pfn(1), 1, PAGE_SIZE);
        assert_eq!(cache.consult(Pfn(2), 1, PAGE_SIZE).0, DeltaOutcome::Miss);
        // pfn 1 was evicted: its re-dirty misses and pays full price.
        assert_eq!(cache.consult(Pfn(1), 2, PAGE_SIZE).0, DeltaOutcome::Miss);
    }
}
