#![warn(missing_docs)]
//! `migrate` — pre-copy live migration with optional application assistance.
//!
//! The engine ([`precopy::PrecopyEngine`]) reproduces Xen's iterative
//! pre-copy policy (iteration cap, traffic cap, dirty threshold,
//! skip-if-redirtied) and layers the paper's assisted protocol on top:
//! transfer-bitmap consultation on every send decision, the
//! `EnteringLastIter` → `ReadyToSuspend` handshake with the guest LKM, and
//! a stop-and-copy that honours the final transfer bitmap. Destination
//! correctness is checked exactly via page content versions
//! ([`destination`]). The §6 extensions live in [`policy`] (adaptive
//! strategy choice) and the compression options of
//! [`config::CompressionPolicy`]; [`checkpoint`] applies the same
//! skip-over machinery to RemusDB-style continuous replication.
//!
//! Coordination with the guest is fallible: every handshake carries a
//! timeout from [`config::CoordPolicy`] with bounded retries, and when the
//! budget runs out the engine degrades to vanilla pre-copy (or fails, per
//! [`config::FallbackPolicy`]) — see [`error::MigrationOutcome`] and
//! [`error::MigrateError`]. Deterministic fault injection is configured
//! through the [`simkit::FaultPlan`] carried by the config.

pub mod assist;
pub mod checkpoint;
pub mod config;
pub mod destination;
pub mod digest;
pub mod error;
pub mod policy;
pub mod postcopy;
pub mod precopy;
pub mod report;
pub mod sla;
pub mod vmhost;

pub use assist::{ColdAssistConfig, ColdReport};
pub use checkpoint::{CheckpointConfig, CheckpointEngine, CheckpointReport};
pub use config::{CompressionPolicy, CoordPolicy, FallbackPolicy, MigrationConfig, StopPolicy};
pub use destination::{DestinationVm, VerifyReport};
pub use digest::{compare, CompareReport, DigestMeta, RunDigest, DIGEST_SCHEMA};
pub use error::{ConfigError, CoordPhase, MigrateError, MigrationOutcome};
pub use policy::{choose_strategy, AssistAction, Decision, Strategy, WorkloadProbe};
pub use postcopy::{PostcopyConfig, PostcopyEngine, PostcopyReport};
pub use precopy::PrecopyEngine;
pub use report::{DowntimeBreakdown, IterationStats, MigrationReport, StopReason, TrafficByClass};
pub use vmhost::MigratableVm;
