#![warn(missing_docs)]
//! `guestos` — the simulated guest kernel and the migration-assist LKM.
//!
//! Implements the guest half of the paper's generic framework for
//! application-assisted live migration (§3):
//!
//! * [`kernel::GuestKernel`] — processes, page-frame allocation (scattered,
//!   like real physical memory), guest memory writes with log-dirty fault
//!   reporting, and background OS churn;
//! * [`netlink`] — the asynchronous multicast channel between the LKM and
//!   applications;
//! * [`evtchn`] — the Xen event channel between the migration daemon and
//!   the LKM;
//! * [`lkm::Lkm`] — the Loadable Kernel Module: state machine, transfer
//!   bitmap ownership, first/shrink/final bitmap updates, PFN caching, and
//!   straggler timeouts;
//! * [`coord`] — the [`coord::CoordMsg`] envelope every hop carries (a
//!   sequence number and a payload) and the one delivery mechanism both
//!   transports share: latency, fault injection and telemetry;
//! * [`app::GuestApp`] — the contract assisting applications fulfil.

pub mod app;
pub mod coord;
pub mod evtchn;
pub mod frames;
pub mod kernel;
pub mod lkm;
pub mod netlink;
pub mod process;
pub mod procfs;

pub use app::GuestApp;
pub use coord::{CoordMsg, CoordPayload};
pub use kernel::{GuestKernel, GuestOsConfig, WriteOutcome};
pub use lkm::{DaemonPort, Lkm, LkmConfig, LkmState, LkmStats};
pub use netlink::{NetlinkBus, NetlinkSocket};
pub use process::{Pid, Process};
pub use procfs::{parse_ranges, ProcSkipOverEntry, ProcWriteError};
