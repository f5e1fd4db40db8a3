//! Deterministic parallel execution of independent scenario cells.
//!
//! Every data point in the harness is a self-contained co-simulation: it
//! owns its [`simkit::SimClock`], derives all randomness from a fixed seed,
//! and touches no global state. That makes the figure generators
//! embarrassingly parallel — *as long as the merge is deterministic*. The
//! contract here is:
//!
//! * each cell is computed by a pure-ish closure over its input;
//! * cells are claimed from an atomic work queue (so thread scheduling only
//!   affects *who* computes a cell, never *what* it computes);
//! * results are written into a slot table indexed by input position and
//!   read back in input order.
//!
//! Output is therefore byte-identical to a serial run by construction,
//! which `figures --serial` (and the CI smoke job) cross-checks.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The machine's available parallelism, or 1 when it cannot be determined.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// How the harness decided its worker count. The old behaviour — "use
/// whatever `available_parallelism()` says" — silently collapsed every run
/// to one worker on single-core containers and ignored any user intent;
/// the plan makes each input explicit so `BENCH_precopy.json` can report
/// the *effective* count honestly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPlan {
    /// The `JAVMM_BENCH_WORKERS` override, when set to a positive integer.
    pub requested: Option<usize>,
    /// Workers a parallel map will actually spawn.
    pub effective: usize,
    /// Detected hardware parallelism (floor 1).
    pub available: usize,
    /// Where `effective` came from: `"env"`, `"detected"` or
    /// `"serialized"`.
    pub source: &'static str,
    /// The request exceeds the hardware: threads will timeshare, so
    /// wall-clock speedup is capped at `available` even though all
    /// `effective` workers run (outputs are identical regardless).
    pub capped: bool,
    /// `JAVMM_SERIALIZE_POOL` collapsed the plan to one worker, so every
    /// cell runs serially (the CI drill that must fail the
    /// parallel-efficiency gate).
    pub serialized: bool,
}

/// Builds the worker plan from the process environment
/// (`JAVMM_BENCH_WORKERS`, `JAVMM_SERIALIZE_POOL`) and the detected
/// hardware, warning on stderr when the request outruns the machine.
pub fn worker_plan() -> WorkerPlan {
    let env = std::env::var("JAVMM_BENCH_WORKERS").ok();
    let serialized = std::env::var("JAVMM_SERIALIZE_POOL")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    let plan = worker_plan_from(env.as_deref(), serialized, available_parallelism());
    if plan.serialized {
        eprintln!("runner: JAVMM_SERIALIZE_POOL forces 1 worker");
    } else if plan.capped {
        eprintln!(
            "runner: JAVMM_BENCH_WORKERS={} exceeds available parallelism {}; \
             all {} workers run but will timeshare",
            plan.effective, plan.available, plan.effective
        );
    }
    plan
}

/// Pure core of [`worker_plan`], split out so tests can exercise every
/// combination without racing on real environment variables. A missing,
/// empty, non-numeric or zero `env` falls back to detection.
pub fn worker_plan_from(env: Option<&str>, serialized: bool, available: usize) -> WorkerPlan {
    let available = available.max(1);
    let requested = env
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0);
    let (effective, source) = if serialized {
        (1, "serialized")
    } else {
        match requested {
            Some(n) => (n, "env"),
            None => (available, "detected"),
        }
    };
    WorkerPlan {
        requested,
        effective,
        available,
        source,
        capped: effective > available,
        serialized,
    }
}

/// Returns the worker count a parallel map will use: the
/// `JAVMM_BENCH_WORKERS` override when set, else the machine's available
/// parallelism (or 1 when it cannot be determined).
pub fn worker_count() -> usize {
    worker_plan().effective
}

/// Maps `f` over `items` on a scoped thread pool, returning results in
/// input order regardless of completion order.
///
/// With `parallel` false (or an effective worker count of one, or fewer
/// than two items) this degenerates to a plain serial map on the calling
/// thread. `JAVMM_BENCH_WORKERS` overrides the worker count — including
/// past the core count, where workers timeshare but output is unchanged.
///
/// # Panics
///
/// Panics if `f` panics on any item; the panic is propagated once all
/// workers have stopped.
pub fn par_map<T, R, F>(parallel: bool, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = if parallel { worker_count() } else { 1 };
    par_map_workers(workers, items, f)
}

/// [`par_map`] with an explicit worker count: the harness's scaling rows
/// use this to run the same cell roster at 1, 2, 4 and 8 workers and
/// assert the outputs byte-identical.
pub fn par_map_workers<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(items.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                *slots[i].lock().expect("slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot poisoned")
                .expect("every slot filled by the work queue")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial = par_map(false, &items, |&x| x * x);
        let parallel = par_map(true, &items, |&x| x * x);
        assert_eq!(serial, parallel);
        assert_eq!(parallel[7], 49);
    }

    #[test]
    fn empty_and_single() {
        let none: Vec<u64> = vec![];
        assert!(par_map(true, &none, |&x| x).is_empty());
        assert_eq!(par_map(true, &[42u64], |&x| x + 1), vec![43]);
    }

    #[test]
    fn worker_count_is_positive() {
        assert!(worker_count() >= 1);
    }

    #[test]
    fn explicit_worker_counts_preserve_order() {
        let items: Vec<u64> = (0..50).collect();
        let serial = par_map_workers(1, &items, |&x| x * 3);
        for workers in [2usize, 4, 8, 64] {
            assert_eq!(par_map_workers(workers, &items, |&x| x * 3), serial);
        }
    }

    #[test]
    fn plan_honours_env_override_even_past_the_hardware() {
        let plan = worker_plan_from(Some("8"), false, 2);
        assert_eq!(plan.requested, Some(8));
        assert_eq!(plan.effective, 8);
        assert_eq!(plan.available, 2);
        assert_eq!(plan.source, "env");
        assert!(plan.capped);
        assert!(!plan.serialized);
    }

    #[test]
    fn plan_falls_back_to_detection_on_bad_or_missing_env() {
        for env in [None, Some(""), Some("zero"), Some("0"), Some("-3")] {
            let plan = worker_plan_from(env, false, 4);
            assert_eq!(plan.requested, None, "env {env:?}");
            assert_eq!(plan.effective, 4);
            assert_eq!(plan.source, "detected");
            assert!(!plan.capped);
        }
        // Undetectable hardware still yields a usable plan.
        assert_eq!(worker_plan_from(None, false, 0).effective, 1);
    }

    #[test]
    fn serialize_drill_collapses_any_request() {
        let plan = worker_plan_from(Some("8"), true, 4);
        assert_eq!(plan.effective, 1);
        assert_eq!(plan.source, "serialized");
        assert!(plan.serialized);
        assert!(!plan.capped);
    }
}
