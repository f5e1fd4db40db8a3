//! A simulated Xen event channel between the migration daemon and the LKM.
//!
//! A special event channel port is created with the guest VM (§3.3.1);
//! through it the migration daemon in domain 0 and the LKM exchange
//! notifications throughout the migration. Like the netlink bus, delivery
//! is asynchronous with a small latency.
//!
//! The channel carries [`CoordMsg`] envelopes: each endpoint stamps a
//! monotonically increasing per-direction sequence number at send time and
//! hands the message to the channel's hop (see [`crate::coord`]), which
//! applies the latency and any injected fault and queues it for the other
//! end. Both directions share the hop, so one fault lane (see
//! [`simkit::faults`]) and one fate stream cover the channel.

use crate::coord::{stamp, CoordMsg, Hop, Inbox};
use simkit::{DetRng, LaneFaults, Recorder, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Default one-way latency of an event-channel notification.
pub const EVTCHN_LATENCY: SimDuration = SimDuration::from_micros(20);

#[derive(Debug)]
struct ChannelCore {
    hop: Hop,
    to_lkm: Inbox<CoordMsg>,
    to_daemon: Inbox<CoordMsg>,
    daemon_seq: u64,
    lkm_seq: u64,
}

/// Creates a connected (daemon-side, LKM-side) endpoint pair.
///
/// # Examples
///
/// ```
/// use guestos::coord::CoordPayload;
/// use guestos::evtchn::{channel_pair, EVTCHN_LATENCY};
/// use simkit::SimTime;
///
/// let (daemon, lkm) = channel_pair();
/// daemon.send(SimTime::ZERO, CoordPayload::MigrationBegin);
/// let later = SimTime::ZERO + EVTCHN_LATENCY;
/// let got = lkm.recv(later);
/// assert_eq!(got.len(), 1);
/// assert_eq!(got[0].payload, CoordPayload::MigrationBegin);
/// assert_eq!(got[0].seq, 1);
/// ```
pub fn channel_pair() -> (DaemonPort, LkmPort) {
    channel_pair_with_latency(EVTCHN_LATENCY)
}

/// Creates a pair with a custom one-way latency.
pub fn channel_pair_with_latency(latency: SimDuration) -> (DaemonPort, LkmPort) {
    let core = Rc::new(RefCell::new(ChannelCore {
        hop: Hop::new(latency, "evtchn_delivery_ns"),
        to_lkm: Inbox::new(),
        to_daemon: Inbox::new(),
        daemon_seq: 0,
        lkm_seq: 0,
    }));
    (
        DaemonPort {
            core: Rc::clone(&core),
        },
        LkmPort { core },
    )
}

/// The domain-0 (migration daemon) endpoint.
#[derive(Debug, Clone)]
pub struct DaemonPort {
    core: Rc<RefCell<ChannelCore>>,
}

impl DaemonPort {
    /// Sends a notification to the LKM.
    pub fn send(&self, now: SimTime, msg: impl Into<CoordMsg>) {
        let core = &mut *self.core.borrow_mut();
        let msg = stamp(&mut core.daemon_seq, msg);
        core.hop.post(&mut core.to_lkm, now, msg);
    }

    /// Receives all LKM notifications that have arrived by `now`.
    pub fn recv(&self, now: SimTime) -> Vec<CoordMsg> {
        Hop::drain(&mut self.core.borrow_mut().to_daemon, now)
    }

    /// Arms fault injection on this hop (both directions share one fate
    /// stream so a plan replays identically regardless of traffic mix).
    pub fn install_faults(&self, faults: LaneFaults, rng: DetRng) {
        self.core.borrow_mut().hop.install_faults(faults, rng);
    }

    /// Attaches a flight recorder: each enqueued copy records its
    /// send-to-ready delivery latency (including injected delay) into the
    /// `net/evtchn_delivery_ns` histogram.
    pub fn attach_telemetry(&self, recorder: Recorder) {
        self.core.borrow_mut().hop.attach_telemetry(recorder);
    }
}

/// The guest (LKM) endpoint.
#[derive(Debug, Clone)]
pub struct LkmPort {
    core: Rc<RefCell<ChannelCore>>,
}

impl LkmPort {
    /// Sends a notification to the daemon.
    pub fn send(&self, now: SimTime, msg: impl Into<CoordMsg>) {
        let core = &mut *self.core.borrow_mut();
        let msg = stamp(&mut core.lkm_seq, msg);
        core.hop.post(&mut core.to_daemon, now, msg);
    }

    /// Receives all daemon notifications that have arrived by `now`.
    pub fn recv(&self, now: SimTime) -> Vec<CoordMsg> {
        Hop::drain(&mut self.core.borrow_mut().to_lkm, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::CoordPayload;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn bidirectional_delivery() {
        let (daemon, lkm) = channel_pair();
        daemon.send(t(0), CoordPayload::MigrationBegin);
        assert!(lkm.recv(t(0)).is_empty(), "latency not yet elapsed");
        let got = lkm.recv(t(20));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, CoordPayload::MigrationBegin);
        lkm.send(
            t(30),
            CoordPayload::ReadyToSuspend {
                final_update: SimDuration::from_micros(250),
                stragglers: 0,
            },
        );
        assert_eq!(daemon.recv(t(50)).len(), 1);
    }
}
