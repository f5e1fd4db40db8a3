#![warn(missing_docs)]
//! `netsim` — the migration network substrate.
//!
//! The network is the forcing function of the whole paper: when VM memory
//! dirties faster than the link can carry it, pre-copy cannot converge.
//! [`link::Link`] models the paper's gigabit Ethernet testbed as a
//! rate-limited pipe with deterministic byte budgeting; [`compress`] models
//! the per-page compression methods of the §6 extension; and [`topology`]
//! models the multi-host fabric of cluster-wide evacuations — per-host
//! NICs feeding a contended core switch feeding destination NICs — as one
//! list of pipes, each split weighted-fair across the flows that cross it.

pub mod compress;
pub mod link;
pub mod topology;

pub use compress::Method as CompressionMethod;
pub use link::{Link, PAGE_HEADER_BYTES};
pub use topology::{FlowId, LinkSpec, PipeSel, PipeTimeline, PipeTimelines, Topology};
