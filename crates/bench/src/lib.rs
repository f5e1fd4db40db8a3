//! `javmm-bench` — the figure/table harness of the JAVMM reproduction.
//!
//! Every table and figure of the paper's evaluation has a generator here;
//! each returns its rendered output as a `String` (so tests can assert on
//! content) and is wired both into the `figures` binary and the `figures`
//! bench target. Pass [`opts::FigOpts::quick`] for fast smoke runs or
//! [`opts::FigOpts::full`] for the paper's full methodology (300 s warmup,
//! ≥3 seeds, 90% confidence intervals).

pub mod ablations;
pub mod cli;
pub mod cold;
pub mod digests;
pub mod evacuate;
pub mod figs;
pub mod fleet;
pub mod opts;
pub mod render;
pub mod runner;

pub use opts::FigOpts;
