//! Cross-layer flight recorder: structured events, spans, metrics, export.
//!
//! Every migration run can carry a single shared [`Recorder`] through all
//! layers of the stack — the pre-copy engine, the guest kernel module, the
//! JVM and its collector, the network link and the workload. Each layer
//! tags what it emits with its [`Subsystem`], and three record shapes cover
//! everything the experiments need:
//!
//! - **events** — timestamped, sequence-numbered instants with structured
//!   key/value fields ([`Recorder::instant`]);
//! - **spans** — named intervals for phases such as pre-copy iterations,
//!   minor GCs, safepoint holds and stop-and-copy
//!   ([`Recorder::begin_span`] / [`Recorder::end_span`], or
//!   [`Recorder::record_span`] for costs computed after the fact);
//! - **metrics** — monotonically accumulating counters, last-value
//!   gauges and bounded sample rings ([`Recorder::counter_add`],
//!   [`Recorder::gauge`], [`Recorder::series_push`]).
//!
//! A [`Recorder`] is a cheap clonable handle; [`Recorder::disabled`] yields
//! a no-op recorder so instrumented code pays a single branch when
//! telemetry is off. After a run, [`Recorder::snapshot`] freezes
//! everything into a plain-data [`RunTelemetry`] which offers a post-hoc
//! span table (count/mean/p95/max per phase, built on [`crate::stats`])
//! and feeds the exporters in [`export`]: deterministic JSONL and Chrome
//! trace-event JSON loadable in Perfetto / `chrome://tracing`.
//!
//! Determinism: all timestamps come from the simulated clock and sequence
//! numbers from the recorder itself, so two same-seed runs produce
//! byte-identical exports.

pub mod causal;
pub mod export;
pub mod hist;
pub mod metrics;
pub mod recorder;
pub mod series;
pub mod span;

pub use causal::{CausalEvent, CausalId, CausalKind, CausalLog};
pub use hist::Histogram;
pub use metrics::{CounterValue, GaugeValue, HistogramValue};
pub use recorder::{Event, EventKind, Recorder, RunTelemetry, Value};
pub use series::{SampleSeries, SeriesValue};
pub use span::{SpanId, SpanRecord, SpanTableRow};

/// The layer of the stack an event originates from.
///
/// Doubles as the Chrome-trace "thread" a record is rendered on, so each
/// layer gets its own swim-lane in Perfetto.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Subsystem {
    /// The migration engine (pre-copy driver, stop-and-copy, resumption).
    Engine,
    /// The in-guest kernel module (bitmap walks, state machine).
    Lkm,
    /// The JVM process (safepoints, execution state).
    Jvm,
    /// The garbage collector (minor/enforced GCs, heap occupancy).
    Gc,
    /// The network link between source and destination hosts.
    Net,
    /// The application workload running inside the JVM.
    Workload,
    /// The fleet scheduler arbitrating concurrent migrations on one host.
    Fleet,
}

impl Subsystem {
    /// All subsystems, in swim-lane order.
    pub const ALL: [Subsystem; 7] = [
        Subsystem::Engine,
        Subsystem::Lkm,
        Subsystem::Jvm,
        Subsystem::Gc,
        Subsystem::Net,
        Subsystem::Workload,
        Subsystem::Fleet,
    ];

    /// Stable lower-case name used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            Subsystem::Engine => "engine",
            Subsystem::Lkm => "lkm",
            Subsystem::Jvm => "jvm",
            Subsystem::Gc => "gc",
            Subsystem::Net => "net",
            Subsystem::Workload => "workload",
            Subsystem::Fleet => "fleet",
        }
    }

    /// Swim-lane index (Chrome trace `tid`).
    pub fn lane(self) -> u32 {
        match self {
            Subsystem::Engine => 0,
            Subsystem::Lkm => 1,
            Subsystem::Jvm => 2,
            Subsystem::Gc => 3,
            Subsystem::Net => 4,
            Subsystem::Workload => 5,
            Subsystem::Fleet => 6,
        }
    }
}

impl std::fmt::Display for Subsystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}
