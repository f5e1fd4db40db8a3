//! Garbage-collection records and the GC log.

use simkit::{SimDuration, SimTime};
use vmem::VaRange;

/// The kind of collection performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcKind {
    /// A minor (Young generation) collection triggered by Eden exhaustion.
    Minor,
    /// A minor collection enforced by the migration agent (§4.3).
    EnforcedMinor,
    /// A full collection of both generations.
    Full,
}

/// What one collection did.
#[derive(Debug, Clone)]
pub struct GcRecord {
    /// Collection kind.
    pub kind: GcKind,
    /// Pause start time.
    pub at: SimTime,
    /// Pause duration.
    pub duration: SimDuration,
    /// Committed Young generation size when the GC ran.
    pub young_committed: u64,
    /// Eden bytes in use before the collection.
    pub eden_used_before: u64,
    /// From-space bytes in use before the collection.
    pub from_used_before: u64,
    /// Live bytes copied into the To space.
    pub live_copied: u64,
    /// Bytes promoted to the Old generation.
    pub promoted: u64,
    /// Garbage reclaimed from the Young generation.
    pub garbage_collected: u64,
    /// VA ranges uncommitted from the Young generation by post-GC
    /// ergonomics (the shrink case the TI agent must report, §4.3.2).
    pub shrunk: Vec<VaRange>,
}

/// An append-only log of collections.
#[derive(Debug, Clone, Default)]
pub struct GcLog {
    records: Vec<GcRecord>,
}

impl GcLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn push(&mut self, rec: GcRecord) {
        self.records.push(rec);
    }

    /// All records, oldest first.
    pub fn records(&self) -> &[GcRecord] {
        &self.records
    }

    /// Lengthens the newest collection's pause by `extra`, a pause the
    /// JVM took on top of the collector's own.
    pub fn extend_last(&mut self, extra: SimDuration) {
        if let Some(last) = self.records.last_mut() {
            last.duration += extra;
        }
    }

    /// Number of collections of the given kind.
    pub fn count(&self, kind: GcKind) -> usize {
        self.records.iter().filter(|r| r.kind == kind).count()
    }

    /// Mean duration of minor collections (including enforced), or zero.
    pub fn mean_minor_duration(&self) -> SimDuration {
        let minors: Vec<&GcRecord> = self
            .records
            .iter()
            .filter(|r| r.kind != GcKind::Full)
            .collect();
        if minors.is_empty() {
            return SimDuration::ZERO;
        }
        let total: SimDuration = minors.iter().map(|r| r.duration).sum();
        total / minors.len() as u64
    }

    /// Mean garbage collected per minor GC, and mean live data copied.
    pub fn mean_minor_garbage_live(&self) -> (f64, f64) {
        let minors: Vec<&GcRecord> = self
            .records
            .iter()
            .filter(|r| r.kind != GcKind::Full)
            .collect();
        if minors.is_empty() {
            return (0.0, 0.0);
        }
        let n = minors.len() as f64;
        let garbage: u64 = minors.iter().map(|r| r.garbage_collected).sum();
        let live: u64 = minors.iter().map(|r| r.live_copied + r.promoted).sum();
        (garbage as f64 / n, live as f64 / n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: GcKind, dur_ms: u64, garbage: u64, live: u64) -> GcRecord {
        GcRecord {
            kind,
            at: SimTime::ZERO,
            duration: SimDuration::from_millis(dur_ms),
            young_committed: 0,
            eden_used_before: garbage + live,
            from_used_before: 0,
            live_copied: live,
            promoted: 0,
            garbage_collected: garbage,
            shrunk: vec![],
        }
    }

    #[test]
    fn log_counts_by_kind() {
        let mut log = GcLog::new();
        log.push(rec(GcKind::Minor, 100, 1000, 10));
        log.push(rec(GcKind::EnforcedMinor, 100, 1000, 10));
        log.push(rec(GcKind::Full, 500, 0, 0));
        assert_eq!(log.count(GcKind::Minor), 1);
        assert_eq!(log.count(GcKind::EnforcedMinor), 1);
        assert_eq!(log.count(GcKind::Full), 1);
    }

    #[test]
    fn means_exclude_full_gcs() {
        let mut log = GcLog::new();
        log.push(rec(GcKind::Minor, 100, 900, 100));
        log.push(rec(GcKind::Minor, 300, 1100, 300));
        log.push(rec(GcKind::Full, 10_000, 0, 0));
        assert_eq!(log.mean_minor_duration(), SimDuration::from_millis(200));
        let (g, l) = log.mean_minor_garbage_live();
        assert_eq!(g, 1000.0);
        assert_eq!(l, 200.0);
    }

    #[test]
    fn empty_log_means_are_zero() {
        let log = GcLog::new();
        assert_eq!(log.mean_minor_duration(), SimDuration::ZERO);
        assert_eq!(log.mean_minor_garbage_live(), (0.0, 0.0));
    }
}
