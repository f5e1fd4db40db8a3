//! A simulated netlink multicast socket family.
//!
//! The LKM talks to applications over a netlink multicast group because
//! netlink is bi-directional, asynchronous, and capable of multicasting
//! (§3.3.1). The simulation preserves all three properties: messages are
//! queued with a delivery latency and become visible to receivers only once
//! the clock passes their ready time, and a kernel-side multicast fans out
//! to every subscribed socket.
//!
//! Messages are [`CoordMsg`] envelopes stamped with a per-direction
//! sequence number and handed to the bus's hop (see [`crate::coord`]),
//! which queues one copy per receiver. Faults on this hop — loss under
//! memory pressure (`ENOBUFS`), delay, duplication — come from the
//! [`simkit::faults`] lane armed via [`NetlinkBus::install_faults`]; a
//! multicast draws one fate per subscriber, in socket-id order.

use crate::coord::{stamp, CoordMsg, Hop, Inbox};
use crate::process::Pid;
use simkit::{DetRng, LaneFaults, Recorder, SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Default one-way latency of a netlink message (kernel↔user round trips
/// are tens of microseconds on commodity hardware).
pub const NETLINK_LATENCY: SimDuration = SimDuration::from_micros(50);

#[derive(Debug)]
struct BusCore {
    hop: Hop,
    /// Subscribed sockets by id: the owning process and its inbox.
    sockets: BTreeMap<u32, (Pid, Inbox<CoordMsg>)>,
    to_kernel: Inbox<(Pid, CoordMsg)>,
    next_sock: u32,
    kernel_seq: u64,
    app_seq: u64,
}

/// The netlink bus: created by the LKM on load, subscribed to by apps.
///
/// # Examples
///
/// ```
/// use guestos::coord::CoordPayload;
/// use guestos::netlink::NetlinkBus;
/// use guestos::process::Pid;
/// use simkit::SimTime;
///
/// let bus = NetlinkBus::new();
/// let sock = bus.subscribe(Pid(10));
/// let kernel = bus.kernel_end();
/// kernel.multicast(SimTime::ZERO, CoordPayload::QuerySkipOver);
/// // Not yet delivered: latency has not elapsed.
/// assert!(sock.recv(SimTime::ZERO).is_empty());
/// let later = SimTime::from_nanos(1_000_000);
/// let got = sock.recv(later);
/// assert_eq!(got.len(), 1);
/// assert_eq!(got[0].payload, CoordPayload::QuerySkipOver);
/// ```
#[derive(Debug, Clone)]
pub struct NetlinkBus {
    core: Rc<RefCell<BusCore>>,
}

impl NetlinkBus {
    /// Creates a bus with the default latency.
    pub fn new() -> Self {
        Self::with_latency(NETLINK_LATENCY)
    }

    /// Creates a bus with a custom one-way latency.
    pub fn with_latency(latency: SimDuration) -> Self {
        Self {
            core: Rc::new(RefCell::new(BusCore {
                hop: Hop::new(latency, "netlink_delivery_ns"),
                sockets: BTreeMap::new(),
                to_kernel: Inbox::new(),
                next_sock: 0,
                kernel_seq: 0,
                app_seq: 0,
            })),
        }
    }

    /// Arms fault injection (drop/delay/duplicate) on this hop. Real
    /// netlink is lossy under memory pressure (`ENOBUFS`); the framework
    /// must degrade to straggler handling rather than hang.
    pub fn install_faults(&self, faults: LaneFaults, rng: DetRng) {
        self.core.borrow_mut().hop.install_faults(faults, rng);
    }

    /// Attaches a flight recorder: every delivered copy (either direction)
    /// records its send-to-ready latency into the
    /// `net/netlink_delivery_ns` histogram.
    pub fn attach_telemetry(&self, recorder: Recorder) {
        self.core.borrow_mut().hop.attach_telemetry(recorder);
    }

    /// Subscribes a process to the multicast group, returning its socket.
    pub fn subscribe(&self, pid: Pid) -> NetlinkSocket {
        let mut core = self.core.borrow_mut();
        let sock = core.next_sock;
        core.next_sock += 1;
        core.sockets.insert(sock, (pid, Inbox::new()));
        NetlinkSocket {
            core: Rc::clone(&self.core),
            sock,
            pid,
        }
    }

    /// Returns the kernel-side endpoint used by the LKM.
    pub fn kernel_end(&self) -> KernelNetlink {
        KernelNetlink {
            core: Rc::clone(&self.core),
        }
    }

    /// Returns the pids of all subscribed sockets (sorted by socket id).
    pub fn subscriber_pids(&self) -> Vec<Pid> {
        let core = self.core.borrow();
        core.sockets.values().map(|&(pid, _)| pid).collect()
    }
}

impl Default for NetlinkBus {
    fn default() -> Self {
        Self::new()
    }
}

/// An application's netlink socket.
#[derive(Debug)]
pub struct NetlinkSocket {
    core: Rc<RefCell<BusCore>>,
    sock: u32,
    pid: Pid,
}

impl NetlinkSocket {
    /// Returns the owning process.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Receives all messages that have arrived by `now`.
    pub fn recv(&self, now: SimTime) -> Vec<CoordMsg> {
        let mut core = self.core.borrow_mut();
        let (_, inbox) = core
            .sockets
            .get_mut(&self.sock)
            .expect("socket unsubscribed");
        Hop::drain(inbox, now)
    }

    /// Sends a message to the kernel.
    pub fn send(&self, now: SimTime, msg: impl Into<CoordMsg>) {
        let core = &mut *self.core.borrow_mut();
        let msg = stamp(&mut core.app_seq, msg);
        core.hop.post(&mut core.to_kernel, now, (self.pid, msg));
    }
}

impl Drop for NetlinkSocket {
    fn drop(&mut self) {
        // Unsubscribe so multicasts stop queueing for a dead socket.
        self.core.borrow_mut().sockets.remove(&self.sock);
    }
}

/// The kernel-side (LKM) endpoint of the bus.
#[derive(Debug, Clone)]
pub struct KernelNetlink {
    core: Rc<RefCell<BusCore>>,
}

impl KernelNetlink {
    /// Multicasts `msg` to every subscribed socket; under fault injection
    /// each receiver's copy is dropped/delayed/duplicated independently.
    pub fn multicast(&self, now: SimTime, msg: impl Into<CoordMsg>) {
        let core = &mut *self.core.borrow_mut();
        let msg = stamp(&mut core.kernel_seq, msg);
        for (_, inbox) in core.sockets.values_mut() {
            core.hop.post(inbox, now, msg.clone());
        }
    }

    /// Receives all application messages that have arrived by `now`.
    pub fn recv(&self, now: SimTime) -> Vec<(Pid, CoordMsg)> {
        Hop::drain(&mut self.core.borrow_mut().to_kernel, now)
    }

    /// Returns the pids of all subscribed sockets (sorted by socket id).
    pub fn subscriber_pids(&self) -> Vec<Pid> {
        let core = self.core.borrow();
        core.sockets.values().map(|&(pid, _)| pid).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::CoordPayload;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn payloads(msgs: Vec<CoordMsg>) -> Vec<CoordPayload> {
        msgs.into_iter().map(|m| m.payload).collect()
    }

    #[test]
    fn multicast_reaches_all_subscribers() {
        let bus = NetlinkBus::new();
        let a = bus.subscribe(Pid(1));
        let b = bus.subscribe(Pid(2));
        bus.kernel_end()
            .multicast(t(0), CoordPayload::QuerySkipOver);
        assert_eq!(payloads(a.recv(t(1))), vec![CoordPayload::QuerySkipOver]);
        assert_eq!(payloads(b.recv(t(1))), vec![CoordPayload::QuerySkipOver]);
        assert!(a.recv(t(2)).is_empty(), "message consumed");
    }

    #[test]
    fn latency_delays_delivery() {
        let bus = NetlinkBus::with_latency(SimDuration::from_millis(5));
        let sock = bus.subscribe(Pid(1));
        bus.kernel_end().multicast(t(0), CoordPayload::VmResumed);
        assert!(sock.recv(t(4)).is_empty());
        assert_eq!(sock.recv(t(5)).len(), 1);
    }

    #[test]
    fn app_to_kernel_is_tagged_with_pid() {
        let bus = NetlinkBus::new();
        let sock = bus.subscribe(Pid(42));
        let kernel = bus.kernel_end();
        sock.send(t(0), CoordPayload::SkipOverAreas(vec![]));
        let got = kernel.recv(t(1));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, Pid(42));
        assert_eq!(got[0].1.seq, 1);
    }

    #[test]
    fn dropped_socket_unsubscribes() {
        let bus = NetlinkBus::new();
        let sock = bus.subscribe(Pid(1));
        assert_eq!(bus.subscriber_pids(), vec![Pid(1)]);
        drop(sock);
        assert!(bus.subscriber_pids().is_empty());
        // Multicasting to nobody is fine.
        bus.kernel_end()
            .multicast(t(0), CoordPayload::QuerySkipOver);
    }
}
