//! A simulated netlink multicast socket family.
//!
//! The LKM talks to applications over a netlink multicast group because
//! netlink is bi-directional, asynchronous, and capable of multicasting
//! (§3.3.1). The simulation preserves all three properties: messages are
//! queued with a delivery latency and become visible to receivers only once
//! the clock passes their ready time, and a kernel-side multicast fans out
//! to every subscribed socket.
//!
//! Messages are [`CoordMsg`] envelopes stamped with [`Lane::Netlink`] and a
//! per-direction sequence number. Faults on this hop — loss under memory
//! pressure (`ENOBUFS`), delay, duplication — come from the
//! [`simkit::faults`] lane armed via [`NetlinkBus::install_faults`].

use crate::process::Pid;
use simkit::faults::{insert_by_ready, LaneFaultState, MessageFate};
use simkit::{DetRng, LaneFaults, Recorder, SimDuration, SimTime, Subsystem};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use crate::coord::{CoordMsg, Lane};

/// Default one-way latency of a netlink message (kernel↔user round trips
/// are tens of microseconds on commodity hardware).
pub const NETLINK_LATENCY: SimDuration = SimDuration::from_micros(50);

#[derive(Debug)]
struct BusCore {
    latency: SimDuration,
    to_apps: BTreeMap<u32, VecDeque<(SimTime, CoordMsg)>>,
    to_kernel: VecDeque<(SimTime, Pid, CoordMsg)>,
    sock_pid: BTreeMap<u32, Pid>,
    next_sock: u32,
    kernel_seq: u64,
    app_seq: u64,
    /// Fault injection (drop/delay/duplicate) on this hop.
    faults: Option<LaneFaultState>,
    telemetry: Recorder,
}

impl BusCore {
    /// Applies the structured fault lane to one stamped message copy.
    /// Returns the delivery plan: (ready time, number of copies).
    fn fate(&mut self, ready: SimTime) -> Option<(SimTime, u32)> {
        match &mut self.faults {
            None => Some((ready, 1)),
            Some(state) => match state.fate() {
                MessageFate::Deliver => Some((ready, 1)),
                MessageFate::Drop => None,
                MessageFate::Delay(extra) => Some((ready + extra, 1)),
                MessageFate::Duplicate => Some((ready, 2)),
            },
        }
    }
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
                latency,
                to_apps: BTreeMap::new(),
                to_kernel: VecDeque::new(),
                sock_pid: BTreeMap::new(),
                next_sock: 0,
                kernel_seq: 0,
                app_seq: 0,
                faults: None,
                telemetry: Recorder::disabled(),
            })),
        }
    }

    /// Arms fault injection (drop/delay/duplicate) on this hop. Real
    /// netlink is lossy under memory pressure (`ENOBUFS`); the framework
    /// must degrade to straggler handling rather than hang.
    pub fn install_faults(&self, faults: LaneFaults, rng: DetRng) {
        self.core.borrow_mut().faults = Some(LaneFaultState::new(faults, rng));
    }

    /// Attaches a flight recorder: every delivered copy (either direction)
    /// records its send-to-ready latency into the
    /// `net/netlink_delivery_ns` histogram.
    pub fn attach_telemetry(&self, recorder: Recorder) {
        self.core.borrow_mut().telemetry = recorder;
    }

    /// Subscribes a process to the multicast group, returning its socket.
    pub fn subscribe(&self, pid: Pid) -> NetlinkSocket {
        let mut core = self.core.borrow_mut();
        let sock = core.next_sock;
        core.next_sock += 1;
        core.to_apps.insert(sock, VecDeque::new());
        core.sock_pid.insert(sock, pid);
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

    /// Returns the number of subscribed sockets.
    pub fn subscriber_count(&self) -> usize {
        self.core.borrow().to_apps.len()
    }

    /// Returns the pids of all subscribed sockets (sorted by socket id).
    pub fn subscriber_pids(&self) -> Vec<Pid> {
        self.core.borrow().sock_pid.values().copied().collect()
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
        let queue = core
            .to_apps
            .get_mut(&self.sock)
            .expect("socket unsubscribed");
        let mut out = Vec::new();
        while let Some(&(ready, _)) = queue.front() {
            if ready <= now {
                out.push(queue.pop_front().expect("front checked").1);
            } else {
                break;
            }
        }
        out
    }

    /// Sends a message to the kernel.
    pub fn send(&self, now: SimTime, msg: impl Into<CoordMsg>) {
        let mut core = self.core.borrow_mut();
        let mut msg = msg.into();
        msg.lane = Lane::Netlink;
        core.app_seq += 1;
        msg.seq = core.app_seq;
        let ready = now + core.latency;
        if let Some((ready, copies)) = core.fate(ready) {
            for _ in 0..copies {
                core.telemetry.hist_dur(
                    Subsystem::Net,
                    "netlink_delivery_ns",
                    ready.saturating_since(now),
                );
                let at = core.to_kernel.partition_point(|&(r, _, _)| r <= ready);
                core.to_kernel.insert(at, (ready, self.pid, msg.clone()));
            }
        }
    }
}

impl Drop for NetlinkSocket {
    fn drop(&mut self) {
        // Unsubscribe so multicasts stop queueing for a dead socket.
        let mut core = self.core.borrow_mut();
        core.to_apps.remove(&self.sock);
        core.sock_pid.remove(&self.sock);
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
        let mut core = self.core.borrow_mut();
        let mut msg = msg.into();
        msg.lane = Lane::Netlink;
        core.kernel_seq += 1;
        msg.seq = core.kernel_seq;
        let base_ready = now + core.latency;
        let socks: Vec<u32> = core.to_apps.keys().copied().collect();
        for sock in socks {
            let Some((ready, copies)) = core.fate(base_ready) else {
                continue;
            };
            for _ in 0..copies {
                core.telemetry.hist_dur(
                    Subsystem::Net,
                    "netlink_delivery_ns",
                    ready.saturating_since(now),
                );
            }
            let queue = core.to_apps.get_mut(&sock).expect("sock key just listed");
            for _ in 0..copies {
                insert_by_ready(queue, ready, msg.clone());
            }
        }
    }

    /// Receives all application messages that have arrived by `now`.
    pub fn recv(&self, now: SimTime) -> Vec<(Pid, CoordMsg)> {
        let mut core = self.core.borrow_mut();
        let mut out = Vec::new();
        while let Some(&(ready, _, _)) = core.to_kernel.front() {
            if ready <= now {
                let (_, pid, msg) = core.to_kernel.pop_front().expect("front checked");
                out.push((pid, msg));
            } else {
                break;
            }
        }
        out
    }

    /// Returns the number of subscribed application sockets.
    pub fn subscriber_count(&self) -> usize {
        self.core.borrow().to_apps.len()
    }

    /// Returns the pids of all subscribed sockets (sorted by socket id).
    pub fn subscriber_pids(&self) -> Vec<Pid> {
        self.core.borrow().sock_pid.values().copied().collect()
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
        assert_eq!(got[0].1.lane, Lane::Netlink);
        assert_eq!(got[0].1.seq, 1);
    }

    #[test]
    fn dropped_socket_unsubscribes() {
        let bus = NetlinkBus::new();
        let sock = bus.subscribe(Pid(1));
        assert_eq!(bus.subscriber_count(), 1);
        assert_eq!(bus.subscriber_pids(), vec![Pid(1)]);
        drop(sock);
        assert_eq!(bus.subscriber_count(), 0);
        // Multicasting to nobody is fine.
        bus.kernel_end()
            .multicast(t(0), CoordPayload::QuerySkipOver);
    }

    #[test]
    fn messages_preserve_fifo_order() {
        let bus = NetlinkBus::new();
        let sock = bus.subscribe(Pid(1));
        let kernel = bus.kernel_end();
        kernel.multicast(t(0), CoordPayload::QuerySkipOver);
        kernel.multicast(t(0), CoordPayload::PrepareSuspension);
        assert_eq!(
            payloads(sock.recv(t(1))),
            vec![CoordPayload::QuerySkipOver, CoordPayload::PrepareSuspension]
        );
    }

    #[test]
    fn structured_drop_fault_loses_multicast_copies() {
        let bus = NetlinkBus::with_latency(SimDuration::ZERO);
        let sock = bus.subscribe(Pid(1));
        bus.install_faults(
            LaneFaults {
                drop: 1.0,
                ..LaneFaults::NONE
            },
            DetRng::new(9),
        );
        bus.kernel_end()
            .multicast(t(0), CoordPayload::QuerySkipOver);
        assert!(sock.recv(t(10)).is_empty());
    }

    #[test]
    fn structured_duplicate_fault_repeats_seq() {
        let bus = NetlinkBus::with_latency(SimDuration::ZERO);
        let sock = bus.subscribe(Pid(1));
        bus.install_faults(
            LaneFaults {
                duplicate: 1.0,
                ..LaneFaults::NONE
            },
            DetRng::new(9),
        );
        bus.kernel_end()
            .multicast(t(0), CoordPayload::PrepareSuspension);
        let got = sock.recv(t(10));
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].seq, got[1].seq);
    }
}
