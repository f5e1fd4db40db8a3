#![warn(missing_docs)]
//! `simkit` — deterministic discrete-time simulation substrate.
//!
//! Provides the shared building blocks every other crate of the JAVMM
//! reproduction rests on: a simulated clock ([`clock::SimClock`]),
//! nanosecond time types ([`time::SimTime`], [`time::SimDuration`]),
//! deterministic random numbers ([`rng::DetRng`]), statistics matching the
//! paper's methodology ([`stats`]), byte/bandwidth units ([`units`]) and a
//! cross-layer flight recorder with JSONL / Chrome-trace export
//! ([`telemetry`]), whose instants are the one event stream of a run.
//!
//! # Design
//!
//! The simulation is *co-operative discrete time*: a single driver advances a
//! [`clock::SimClock`] in small quanta and each component performs its share
//! of work for that quantum. There is no global event queue; the dynamics of
//! interest (pre-copy iterations racing page dirtying) are continuous-rate
//! processes, which quantised time models precisely and cheaply.
//!
//! Determinism is an invariant: given the same seed, every run produces
//! bit-identical results. All randomness must flow from [`rng::DetRng`]
//! streams forked off a single per-run seed.

pub mod clock;
pub mod faults;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod units;

pub use clock::SimClock;
pub use faults::{
    FaultKind, FaultPlan, GcOverrun, LaneFaults, LinkDegrade, PhaseShift, StallPoint,
};
pub use rng::DetRng;
pub use telemetry::{Recorder, RunTelemetry, Subsystem};
pub use time::{SimDuration, SimTime};
pub use units::Bandwidth;
