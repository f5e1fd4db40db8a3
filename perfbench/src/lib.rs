//! Host-time benchmark of the JAVMM simulator.
//!
//! Runs two workloads — `derby-cold` and `evacuate48` — through the
//! library crates' public API, times them from outside, checks their
//! simulated outputs, and in a separate traced run splits host time by
//! layer. `run.py` in this directory is the entry point.

pub mod guest;
pub mod metrics;
pub mod scenario;
pub mod trace;
