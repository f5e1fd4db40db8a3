//! The migration network link.
//!
//! Models the paper's testbed link — gigabit Ethernet between two blades —
//! as a rate-limited pipe with a small per-batch latency. The co-simulation
//! driver asks the link for a byte budget each quantum and accounts what it
//! actually sent; the link tracks cumulative traffic and busy time, from
//! which migration reports compute per-iteration transfer rates.

use simkit::units::Bandwidth;
use simkit::{Recorder, SimDuration, SimTime, Subsystem};

/// Width of the utilization-gauge averaging window.
const UTIL_WINDOW: SimDuration = SimDuration::from_millis(100);

/// Per-page wire overhead: PFN metadata in the migration stream.
pub const PAGE_HEADER_BYTES: u64 = 8;

/// A point-to-point migration link.
///
/// # Examples
///
/// ```
/// use netsim::link::Link;
/// use simkit::units::Bandwidth;
/// use simkit::SimDuration;
///
/// let mut link = Link::new(Bandwidth::from_mbytes_per_sec(100.0));
/// let budget = link.budget(SimDuration::from_millis(10));
/// assert_eq!(budget, 1_000_000);
/// link.record_send(budget);
/// assert_eq!(link.bytes_sent(), 1_000_000);
/// ```
#[derive(Debug, Clone)]
pub struct Link {
    bandwidth: Bandwidth,
    bytes_sent: u64,
    carry: f64,
    telemetry: Recorder,
    window_start: Option<SimTime>,
    window_sent: u64,
}

impl Link {
    /// Creates a link with the given application-level bandwidth.
    pub fn new(bandwidth: Bandwidth) -> Self {
        Self {
            bandwidth,
            bytes_sent: 0,
            carry: 0.0,
            telemetry: Recorder::disabled(),
            window_start: None,
            window_sent: 0,
        }
    }

    /// Attaches a telemetry recorder: sampled quanta feed a `net`
    /// utilization gauge (averaged over 100 ms windows) and a cumulative
    /// `wire_bytes` counter.
    pub fn attach_telemetry(&mut self, recorder: Recorder) {
        self.telemetry = recorder;
    }

    /// Accounts the utilization of the quantum `[at, at + dt)` during which
    /// `sent` bytes went out. Call once per driver quantum while the link
    /// is in use; gauge samples are emitted once per 100 ms window.
    pub fn sample_utilization(&mut self, at: SimTime, dt: SimDuration, sent: u64) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry
            .counter_add(Subsystem::Net, "wire_bytes", sent);
        let start = *self.window_start.get_or_insert(at);
        self.window_sent += sent;
        let end = at + dt;
        let elapsed = end.saturating_since(start);
        if elapsed >= UTIL_WINDOW {
            let util = utilization(self.bandwidth, elapsed, self.window_sent);
            self.telemetry
                .gauge(end, Subsystem::Net, "utilization", util);
            self.window_start = Some(end);
            self.window_sent = 0;
        }
    }

    /// Returns the link bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// Changes the link bandwidth mid-run (e.g. fault injection degrading
    /// the migration network). Takes effect from the next [`Link::budget`]
    /// call; accumulated traffic counters are untouched.
    pub fn set_bandwidth(&mut self, bandwidth: Bandwidth) {
        self.bandwidth = bandwidth;
    }

    /// Returns how many bytes may be sent during `dt`.
    ///
    /// Exactly `rate · dt + carry`, truncated; the sub-byte residue
    /// carries over to the next call so long runs do not systematically
    /// under-use the link. The f64 operation order decides digest bytes.
    pub fn budget(&mut self, dt: SimDuration) -> u64 {
        let exact = self.bandwidth.bytes_per_sec() * dt.as_secs_f64() + self.carry;
        let whole = exact as u64;
        self.carry = exact - whole as f64;
        whole
    }

    /// Accounts `bytes` as sent.
    pub fn record_send(&mut self, bytes: u64) {
        self.bytes_sent += bytes;
    }

    /// Total bytes sent over the link's lifetime.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Time the link needs to drain `bytes`.
    pub fn time_to_send(&self, bytes: u64) -> SimDuration {
        self.bandwidth.time_to_send(bytes)
    }
}

/// The fraction of `rate · dt` that `sent` bytes consume, clamped to
/// `[0, 1]` (0 when the window carries no capacity): the one utilization
/// formula of the link gauge and the topology's pipe timelines.
pub(crate) fn utilization(rate: Bandwidth, dt: SimDuration, sent: u64) -> f64 {
    let capacity = rate.bytes_per_sec() * dt.as_secs_f64();
    if capacity > 0.0 {
        (sent as f64 / capacity).min(1.0)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_carries_residue() {
        // 3 bytes/s at 0.5 s per call: budgets alternate 1, 2, 1, 2...
        let mut link = Link::new(Bandwidth::from_bytes_per_sec(3.0));
        let mut total = 0;
        for _ in 0..10 {
            total += link.budget(SimDuration::from_millis(500));
        }
        assert_eq!(total, 15, "5 s at 3 B/s");
    }

    #[test]
    fn gigabit_budget_per_ms() {
        let mut link = Link::new(Bandwidth::gigabit_ethernet());
        let b = link.budget(SimDuration::from_millis(1));
        // ~117.5 KB per millisecond.
        assert!((117_000..118_000).contains(&b), "budget {b}");
    }

    #[test]
    fn send_accounting() {
        let mut link = Link::new(Bandwidth::from_bytes_per_sec(100.0));
        link.record_send(500);
        link.record_send(1500);
        assert_eq!(link.bytes_sent(), 2000);
        assert_eq!(link.time_to_send(250), SimDuration::from_millis(2500));
    }
}
