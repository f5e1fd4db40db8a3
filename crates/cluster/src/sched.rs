//! The single-host drain API: a thin adapter over the event-driven
//! evacuation core ([`crate::evac`]).
//!
//! Historically this module owned the whole drain loop — N guests on
//! their own [`SimClock`](simkit::SimClock)s, migrations sharing one
//! uplink, a laggard-first scan picking the next session to step. That
//! machinery now lives in [`crate::evac`], generalised to many hosts, a
//! contended [`Topology`](netsim::topology::Topology), and destination
//! placement; [`run_fleet`] simply wraps the host in the *degenerate*
//! evacuation plan — one source, no destinations, no core switch — where
//! the topology collapses to the host's NIC and the event-driven core is
//! provably step-for-step identical to the old scan (see the module docs
//! of [`crate::evac`] for the argument, and `tests/evacuation.rs` for the
//! byte-identity lock against the committed drain digests).
//!
//! Everything documented here still holds of a drain run through this
//! adapter:
//!
//! * **Conservative interleaving** — the in-flight session with the
//!   smallest local clock steps next, ties broken by roster slot.
//! * **The workload observatory** — pending tenants are sensed on
//!   [`HostSpec::sense_cadence`] and the cycle policies schedule on what
//!   was *detected*, falling back to smallest-working-set-first below the
//!   confidence gate.
//! * **Determinism** — same seed + same policy ⇒ a byte-identical
//!   [`FleetDigest`].
//! * **The one-VM degenerate case** — a sole flow's share is its
//!   engine's own configured bandwidth exactly, so a 1-VM FIFO drain
//!   reproduces the single-VM `precopy_equivalence` goldens bit for bit.

use javmm::host::HostSpec;
use migrate::digest::{FleetDigest, FleetVmEntry};
use migrate::error::MigrateError;
use migrate::report::MigrationReport;

use crate::evac::{drain_evacuation, EvacuationPlan};
use crate::policy::FleetPolicy;

/// Everything one drain produces.
#[derive(Debug)]
pub struct FleetOutcome {
    /// The byte-deterministic fleet digest.
    pub digest: FleetDigest,
    /// Per-VM migration reports, in roster order.
    pub reports: Vec<MigrationReport>,
}

/// Receives per-VM digest rows as migrations complete.
///
/// A streamed drain ([`run_fleet_streamed`]) folds each tenant into its
/// [`FleetVmEntry`] the moment its migration (plus tail) finishes, hands
/// the row to the sink, and drops the heavy report — so a long drain's
/// memory is bounded by the in-flight set, not the roster. Rows arrive in
/// *completion* order; the final digest still lists them in roster order.
pub trait FleetRowSink {
    /// Called once per tenant, in completion order.
    fn row(&mut self, entry: &FleetVmEntry);
}

/// Runs one host drain under `policy`.
///
/// Equivalent to evacuating the host under
/// [`EvacuationPlan::single_host`]; kept as the stable single-host entry
/// point, byte-identical to the pre-evacuation scheduler.
///
/// # Errors
///
/// An invalid host spec ([`HostSpec::validate`]) surfaces as
/// [`MigrateError::Config`]; otherwise propagates the first
/// [`MigrateError`] any tenant's engine raises (missing LKM, exhausted
/// coordination under the `Fail` fallback). Degraded-but-completed
/// migrations are not errors; they show up in the digest's `degraded`
/// count.
pub fn run_fleet(host: &HostSpec, policy: FleetPolicy) -> Result<FleetOutcome, MigrateError> {
    let plan = EvacuationPlan::single_host(host.clone());
    let mut out = drain_evacuation(&plan, policy, None, true)?;
    Ok(FleetOutcome {
        digest: out.hosts.remove(0),
        reports: out.reports.remove(0),
    })
}

/// Like [`run_fleet`], but streams each per-VM row to `sink` as its
/// migration completes and drops the heavy reports instead of holding
/// every one in memory for the whole drain. Produces a digest
/// byte-identical to [`run_fleet`]'s.
///
/// # Errors
///
/// Same as [`run_fleet`].
pub fn run_fleet_streamed(
    host: &HostSpec,
    policy: FleetPolicy,
    sink: &mut dyn FleetRowSink,
) -> Result<FleetDigest, MigrateError> {
    let plan = EvacuationPlan::single_host(host.clone());
    let mut out = drain_evacuation(&plan, policy, Some(sink), false)?;
    Ok(out.hosts.remove(0))
}
