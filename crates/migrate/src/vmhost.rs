//! The contract between the migration engine and a migratable VM.

use guestos::kernel::GuestKernel;
use guestos::lkm::DaemonPort;
use simkit::{FaultPlan, Recorder, SimDuration, SimTime};

/// A VM the engine can migrate.
///
/// The engine owns the clock and drives the VM in quanta; between page
/// transfers it calls [`MigratableVm::advance_guest`] so guest execution
/// (workloads, GCs, kernel noise, LKM servicing) proceeds concurrently, and
/// it stops calling it while the VM is paused for the stop-and-copy.
pub trait MigratableVm {
    /// Immutable access to the guest kernel.
    fn kernel(&self) -> &GuestKernel;

    /// Mutable access to the guest kernel (dirty-log control, page reads).
    fn kernel_mut(&mut self) -> &mut GuestKernel;

    /// Advances guest execution by `dt` starting at `now`. Must service the
    /// LKM and record application throughput.
    fn advance_guest(&mut self, now: SimTime, dt: SimDuration);

    /// Total operations the guest's workload has completed.
    fn ops_completed(&self) -> u64;

    /// The daemon's event-channel endpoint to the guest LKM, if one is
    /// loaded. Required for assisted migration.
    fn daemon_port(&self) -> Option<DaemonPort>;

    /// Duration of the enforced minor GC performed for the in-flight
    /// migration, if the guest ran one (used for the downtime breakdown).
    fn enforced_gc_duration(&self) -> Option<SimDuration>;

    /// Attaches a telemetry recorder to the guest stack.
    ///
    /// The default wires up the kernel (and thereby the LKM, if loaded);
    /// implementations with richer stacks override to also attach their
    /// JVMs and other instrumented components.
    fn attach_telemetry(&mut self, recorder: Recorder) {
        self.kernel_mut().attach_telemetry(recorder);
    }

    /// Installs the guest-side parts of a fault plan (transport lane faults,
    /// agent stalls, GC overruns) before the migration begins.
    ///
    /// The default ignores the plan; implementations with coordination
    /// transports and agents override it. An override installs every part
    /// of the plan, inert parts included, so each migration replaces what
    /// an earlier plan armed. An inert part must draw no randomness, so a
    /// zero plan leaves runs bit-for-bit identical.
    fn install_faults(&mut self, plan: &FaultPlan) {
        let _ = plan;
    }
}
