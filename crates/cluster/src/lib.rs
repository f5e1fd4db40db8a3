#![warn(missing_docs)]
//! `cluster` — fleet scheduling of concurrent live migrations.
//!
//! The paper migrates one VM; this crate evacuates whole hosts of them.
//! N guests run as independent deterministic simulations whose migrations
//! cross a shared [`netsim::topology::Topology`]: one list of
//! weighted-fair pipes (per-host NICs, an optional contended core switch,
//! destination ingress links), none of them special. [`evac::evacuate`]
//! is the one way to run a drain, from a single host
//! ([`EvacuationPlan::single_host`]) to a multi-rack evacuation. It
//! interleaves the per-VM [`migrate::precopy::MigrationSession`]s
//! conservatively — a binary heap of session-ready times keyed by
//! `(SimTime, VmId)` pops the laggard — applies admission control (a
//! concurrency cap plus [`netsim::Topology::admits`], minimum-rate
//! feasibility on every pipe of the path, so no admitted pre-copy is
//! starved out of convergence), orders each host's queue with a pluggable
//! [`policy::FleetPolicy`] (FIFO, smallest-working-set-first, or the
//! cycle-aware deferral of Baruchi et al.), and places each admitted VM on
//! a destination with a pluggable [`place::PlacementPolicy`] (greedy
//! headroom or SLA-cost aware). Each host's drain folds into a
//! byte-deterministic [`migrate::digest::FleetDigest`] with per-tenant SLA
//! costs ([`migrate::sla`]), next to every VM's migration report.

pub mod detect;
pub mod eta;
pub mod evac;
pub mod place;
pub mod policy;
pub mod roster;

pub use detect::{detect, WorkloadEstimate};
pub use eta::{EtaSummary, MissionControl, WatchdogFinding};
pub use evac::{evacuate, DestSpec, EvacOutcome, EvacuationPlan, PipeFault, VmPlacement};
pub use netsim::PipeSel;
pub use place::{DestState, PlacementPolicy};
pub use policy::FleetPolicy;
