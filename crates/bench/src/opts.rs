//! Harness options.

use simkit::SimDuration;

/// How thoroughly to run the figure generators.
#[derive(Debug, Clone)]
pub struct FigOpts {
    /// Independent seeds per data point (the paper repeats ≥3 times).
    pub seeds: u64,
    /// Workload runtime before migration begins.
    pub warmup: SimDuration,
    /// Workload runtime after migration completes.
    pub tail: SimDuration,
    /// Duration of the heap-profiling runs (Figure 5).
    pub profile: SimDuration,
    /// Record each figure migration with the flight recorder and export a
    /// Chrome trace (plus a `.jsonl` flight log) to this path. The file is
    /// rewritten per run — the last migration wins — so pair it with a
    /// single-figure filter (e.g. `figures --quick fig10 --trace t.json`).
    pub trace: Option<String>,
    /// Run independent scenario cells on a thread pool (`figures --serial`
    /// turns this off). Output is byte-identical either way; see
    /// [`crate::runner`] for the determinism contract.
    pub parallel: bool,
}

impl FigOpts {
    /// The paper's methodology: 10-minute runs migrated halfway, 3 repeats.
    pub fn full() -> Self {
        Self {
            seeds: 3,
            warmup: SimDuration::from_secs(300),
            tail: SimDuration::from_secs(150),
            profile: SimDuration::from_secs(300),
            trace: None,
            parallel: true,
        }
    }

    /// A fast variant for smoke tests and CI.
    pub fn quick() -> Self {
        Self {
            seeds: 2,
            warmup: SimDuration::from_secs(45),
            tail: SimDuration::from_secs(45),
            profile: SimDuration::from_secs(60),
            trace: None,
            parallel: true,
        }
    }

    /// Reads `JAVMM_BENCH=quick|full` from the environment (default full).
    pub fn from_env() -> Self {
        match std::env::var("JAVMM_BENCH").as_deref() {
            Ok("quick") => Self::quick(),
            _ => Self::full(),
        }
    }

    /// Whether the figure generators should fan cells out to the thread
    /// pool. Tracing forces serial execution: the flight-recorder files are
    /// rewritten per run and "the last migration wins" only has a meaning
    /// when runs happen in order.
    pub fn run_parallel(&self) -> bool {
        self.parallel && self.trace.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller_than_full() {
        let q = FigOpts::quick();
        let f = FigOpts::full();
        assert!(q.warmup < f.warmup);
        assert!(q.seeds <= f.seeds);
    }
}
