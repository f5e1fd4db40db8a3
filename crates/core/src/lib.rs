#![warn(missing_docs)]
//! `javmm` — application-assisted live migration of VMs with Java apps.
//!
//! This crate is the top of the reproduction stack: it assembles the
//! substrates (guest kernel + LKM, HotSpot-like JVM, workload models,
//! network link, pre-copy engine) into the paper's experimental system.
//!
//! * [`vm::JavaVm`] — a 2 GiB guest running a SPECjvm2008-like workload,
//!   with the LKM loaded and the JAVMM TI agent optionally enabled;
//! * [`orchestrator`] — the paper's procedure: run ten minutes, migrate
//!   halfway, observe throughput from outside;
//! * [`profiles`] — the §4.2 heap-usage profiling behind Figure 5;
//! * [`experiment`] — repeated runs with 90% confidence intervals.
//!
//! # Examples
//!
//! Migrate a derby VM with JAVMM and with vanilla pre-copy:
//!
//! ```no_run
//! use javmm::orchestrator::{run_scenario, Scenario};
//! use javmm::vm::JavaVmConfig;
//! use migrate::config::MigrationConfig;
//! use workloads::catalog;
//!
//! let javmm = run_scenario(&Scenario::paper(
//!     JavaVmConfig::paper(catalog::derby(), true, 1),
//!     MigrationConfig::javmm_default(),
//! ))
//! .expect("scenario failed");
//! let xen = run_scenario(&Scenario::paper(
//!     JavaVmConfig::paper(catalog::derby(), false, 1),
//!     MigrationConfig::xen_default(),
//! ))
//! .expect("scenario failed");
//! assert!(javmm.report.total_duration < xen.report.total_duration);
//! ```

pub mod experiment;
pub mod host;
pub mod orchestrator;
pub mod profiles;
pub mod vm;

pub use experiment::{across_seeds, summarize_across_seeds, Summary};
pub use host::{DestSpec, HostSpec, VmTenant};
pub use orchestrator::{run_scenario, ObservedHeap, Scenario, ScenarioOutcome};
pub use profiles::{profile_heap, HeapProfile};
pub use vm::{Collector, JavaVm, JavaVmConfig};

// Re-export the stack for downstream users of the single `javmm` crate.
pub use guestos;
pub use jheap;
pub use migrate;
pub use netsim;
pub use simkit;
pub use vmem;
pub use workloads;
