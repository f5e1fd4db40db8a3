//! The mutator: how an application exercises the Java heap.
//!
//! The evaluation depends only on a workload's heap-usage characteristics —
//! allocation rate, object lifetimes (survival fractions), Old-generation
//! working set, operation throughput (§4.2, §5.3). A [`Mutator`] supplies
//! those characteristics to the JVM; the `workloads` crate implements it for
//! each SPECjvm2008-like model.

use simkit::SimDuration;

/// The heap-usage characteristics a mutator exhibits right now.
#[derive(Debug, Clone, Copy)]
pub struct MutatorProfile {
    /// Young-generation (Eden) allocation rate, bytes/second.
    pub alloc_rate: f64,
    /// Old-generation working-set write rate, bytes/second.
    pub old_write_rate: f64,
    /// Size of the Old-generation working set being rewritten.
    pub old_ws_bytes: u64,
    /// Operations completed per second of un-paused execution.
    pub ops_per_sec: f64,
    /// Fraction of Eden bytes still live at a minor GC.
    pub eden_survival: f64,
    /// Fraction of the From space surviving a further minor GC (these are
    /// promoted to the Old generation).
    pub from_survival: f64,
    /// Upper bound on the time for all threads to reach a safepoint when a
    /// GC is requested asynchronously (the enforced GC); proportional to
    /// operation granularity. Compiler-like workloads take up to ~0.7 s.
    pub safepoint_max: SimDuration,
}

impl MutatorProfile {
    /// A quiet profile for tests: slow allocation, tiny survival.
    pub fn quiet() -> Self {
        Self {
            alloc_rate: 1e6,
            old_write_rate: 0.0,
            old_ws_bytes: 0,
            ops_per_sec: 100.0,
            eden_survival: 0.02,
            from_survival: 0.5,
            safepoint_max: SimDuration::from_millis(10),
        }
    }
}

/// A source of heap-usage behaviour, possibly time-varying.
pub trait Mutator {
    /// Returns the current profile.
    fn profile(&mut self) -> MutatorProfile;

    /// A short name for reports.
    fn name(&self) -> &str;

    /// Advances the mutator's internal clock by `dt` of *running* (not
    /// paused) guest time. Time-varying mutators switch phases here; the
    /// default is a no-op for steady workloads.
    fn advance_time(&mut self, dt: SimDuration) {
        let _ = dt;
    }
}

/// A workload phase: a profile held for a duration.
#[derive(Debug, Clone)]
pub struct Phase {
    /// How long the phase lasts (of running guest time).
    pub duration: SimDuration,
    /// The behaviour during the phase.
    pub profile: MutatorProfile,
}

/// A mutator cycling through phases — e.g. a batch job alternating
/// allocation-heavy parsing with compute-heavy number crunching.
#[derive(Debug, Clone)]
pub struct PhasedMutator {
    name: String,
    phases: Vec<Phase>,
    current: usize,
    in_phase: SimDuration,
}

impl PhasedMutator {
    /// Creates a phased mutator cycling through `phases`.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any phase has zero duration.
    pub fn new(name: impl Into<String>, phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "need at least one phase");
        assert!(
            phases.iter().all(|p| !p.duration.is_zero()),
            "phases must have positive duration"
        );
        Self {
            name: name.into(),
            phases,
            current: 0,
            in_phase: SimDuration::ZERO,
        }
    }
}

impl Mutator for PhasedMutator {
    fn profile(&mut self) -> MutatorProfile {
        self.phases[self.current].profile
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn advance_time(&mut self, dt: SimDuration) {
        self.in_phase += dt;
        while self.in_phase >= self.phases[self.current].duration {
            self.in_phase -= self.phases[self.current].duration;
            self.current = (self.current + 1) % self.phases.len();
        }
    }
}

/// A mutator with a constant profile.
#[derive(Debug, Clone)]
pub struct SteadyMutator {
    name: String,
    profile: MutatorProfile,
}

impl SteadyMutator {
    /// Creates a steady mutator.
    pub fn new(name: impl Into<String>, profile: MutatorProfile) -> Self {
        Self {
            name: name.into(),
            profile,
        }
    }
}

impl Mutator for SteadyMutator {
    fn profile(&mut self) -> MutatorProfile {
        self.profile
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_mutator_is_constant() {
        let mut m = SteadyMutator::new("t", MutatorProfile::quiet());
        let a = m.profile();
        m.advance_time(SimDuration::from_secs(100));
        let b = m.profile();
        assert_eq!(a.alloc_rate, b.alloc_rate);
        assert_eq!(m.name(), "t");
    }

    #[test]
    fn phased_mutator_cycles() {
        let slow = MutatorProfile::quiet();
        let fast = MutatorProfile {
            alloc_rate: 300e6,
            ..MutatorProfile::quiet()
        };
        let mut m = PhasedMutator::new(
            "bursty",
            vec![
                Phase {
                    duration: SimDuration::from_secs(2),
                    profile: slow,
                },
                Phase {
                    duration: SimDuration::from_secs(3),
                    profile: fast,
                },
            ],
        );
        assert_eq!(m.profile().alloc_rate, 1e6);
        m.advance_time(SimDuration::from_secs(2));
        assert_eq!(m.profile().alloc_rate, 300e6);
        // Wraps across multiple cycles at once: 13 s = phase 1's remaining
        // 3 s + two full 5 s cycles, landing back at phase 0.
        m.advance_time(SimDuration::from_secs(13));
        assert_eq!(m.profile().alloc_rate, 1e6);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phases_rejected() {
        let _ = PhasedMutator::new("x", vec![]);
    }
}
