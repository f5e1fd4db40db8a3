//! The coordination plane: the message envelope every hop of the
//! assisted-migration protocol carries, and the one delivery mechanism
//! both transports share.
//!
//! [`CoordMsg`] pairs a [`CoordPayload`] — the full vocabulary of Figure 4
//! plus the abort handshake of the degradation ladder — with a
//! per-direction sequence number the transport stamps at send time, so
//! receivers can tell transport duplicates and stale reorderings from
//! fresh messages. Senders pass a [`CoordPayload`] (or a ready-made
//! `CoordMsg`) anywhere an `impl Into<CoordMsg>` is accepted; receivers
//! match on [`CoordMsg::payload`].
//!
//! The event channel ([`crate::evtchn`]) and the netlink bus
//! ([`crate::netlink`]) only stamp sequence numbers and pick the receiving
//! queue. Everything else is one crate-private `Hop` per transport: its
//! one-way latency, its fault lane (drop, delay, duplicate; see
//! [`simkit::LaneFaults`]) with the RNG stream the fates are drawn from,
//! and its recorder. The hop posts each message copy into a queue kept
//! sorted by ready time, so an injected delay reorders at the receiver
//! while the fault-free path stays plain FIFO, and drains what is ready.

use simkit::{DetRng, LaneFaults, Recorder, SimDuration, SimTime, Subsystem};
use std::collections::VecDeque;
use vmem::VaRange;

/// The coordination message envelope.
///
/// `seq` is stamped by the transport when the message is sent; a
/// `CoordMsg` made from a payload carries 0 until then.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordMsg {
    /// Per-direction sequence number, stamped at send. Duplicates injected
    /// by the transport share the original's seq so receivers can detect
    /// them; retries sent by the caller get fresh numbers.
    pub seq: u64,
    /// The actual protocol message.
    pub payload: CoordPayload,
}

impl From<CoordPayload> for CoordMsg {
    fn from(payload: CoordPayload) -> Self {
        CoordMsg { seq: 0, payload }
    }
}

/// Stamps `msg` with the next sequence number of the direction `seq`
/// counts.
pub(crate) fn stamp(seq: &mut u64, msg: impl Into<CoordMsg>) -> CoordMsg {
    *seq += 1;
    CoordMsg {
        seq: *seq,
        ..msg.into()
    }
}

/// Every message of the coordination protocol, all hops.
///
/// The hop and direction a payload is valid on is part of the protocol
/// (documented per variant); receivers treat out-of-place payloads as
/// protocol violations.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordPayload {
    // ---- daemon → LKM (evtchn) ----
    /// Migration has begun; the LKM should query applications and perform
    /// the first transfer-bitmap update.
    MigrationBegin,
    /// The daemon wants to pause the VM and enter the last iteration; the
    /// LKM should ask applications to prepare for suspension.
    EnteringLastIter,
    /// Abandon assistance: clear every transfer-bitmap exclusion and stop
    /// coordinating — the migration continues as vanilla pre-copy. Also
    /// multicast by the LKM to applications so they release held threads.
    AbortAssist,
    /// The VM has resumed at the destination (daemon → LKM on evtchn, and
    /// relayed LKM → applications on netlink).
    VmResumed,
    /// The daemon's cold-page assist is enabled: the LKM should query
    /// applications for their cold-region maps and build the cold bitmap.
    /// Only sent when the engine's cold assist is configured on — a
    /// zero-config migration never emits this payload.
    QueryColdMap,

    // ---- LKM → daemon (evtchn) ----
    /// Acknowledges [`CoordPayload::MigrationBegin`]; lets the daemon
    /// distinguish a live LKM from a dead coordination channel.
    BeginAck,
    /// All applications are suspension-ready and the final transfer-bitmap
    /// update is complete; the daemon may pause the VM.
    ReadyToSuspend {
        /// Time the final bitmap update took (the paper measures ≤300 µs).
        final_update: SimDuration,
        /// Applications that missed the reply deadline and were forcibly
        /// un-skipped (§6 straggler handling).
        stragglers: u32,
    },

    // ---- LKM → applications (netlink multicast) ----
    /// "Migration has begun — report your skip-over areas."
    QuerySkipOver,
    /// "Prepare for VM suspension, then report your current skip-over
    /// areas." For JAVMM the preparation is the enforced minor GC.
    PrepareSuspension,
    /// "Report your cold regions" — live-but-rarely-written VA ranges the
    /// engine may defer or delta-compress. Only multicast after a
    /// [`CoordPayload::QueryColdMap`] from the daemon.
    QueryColdRegions,

    // ---- applications → LKM (netlink) ----
    /// Reply to [`CoordPayload::QuerySkipOver`]: the application's
    /// skip-over areas as raw (possibly unaligned) VA ranges.
    SkipOverAreas(Vec<VaRange>),
    /// Unsolicited notification that VA ranges left a skip-over area (the
    /// area shrank); must be sent immediately per §3.3.4.
    AreaShrunk {
        /// The VA ranges that left the area.
        left: Vec<VaRange>,
    },
    /// Reply to [`CoordPayload::PrepareSuspension`]: the application
    /// finished preparing (e.g. the enforced GC completed) and reports its
    /// current areas.
    SuspensionReady {
        /// Current skip-over areas (used for the final bitmap update's
        /// expansion/shrink reconciliation).
        areas: Vec<VaRange>,
        /// Sub-ranges inside `areas` whose contents must nevertheless be
        /// transferred in the last iteration. For JAVMM this is the
        /// occupied From space holding the data that survived the enforced
        /// GC; the LKM treats these pages as "leaving" the area and sets
        /// their transfer bits.
        must_send: Vec<VaRange>,
    },
    /// Reply to [`CoordPayload::QueryColdRegions`]: VA ranges the
    /// application believes are live but cold (written rarely enough that
    /// deferring or delta-compressing them is profitable). Unlike skip-over
    /// areas these pages *must* reach the destination; coldness only
    /// changes how they ride the link.
    ColdRegions(Vec<VaRange>),
}

impl CoordPayload {
    /// Stable payload name for telemetry and protocol-violation reports.
    pub fn name(&self) -> &'static str {
        match self {
            CoordPayload::MigrationBegin => "migration_begin",
            CoordPayload::EnteringLastIter => "entering_last_iter",
            CoordPayload::AbortAssist => "abort_assist",
            CoordPayload::VmResumed => "vm_resumed",
            CoordPayload::QueryColdMap => "query_cold_map",
            CoordPayload::BeginAck => "begin_ack",
            CoordPayload::ReadyToSuspend { .. } => "ready_to_suspend",
            CoordPayload::QuerySkipOver => "query_skip_over",
            CoordPayload::PrepareSuspension => "prepare_suspension",
            CoordPayload::QueryColdRegions => "query_cold_regions",
            CoordPayload::SkipOverAreas(_) => "skip_over_areas",
            CoordPayload::AreaShrunk { .. } => "area_shrunk",
            CoordPayload::SuspensionReady { .. } => "suspension_ready",
            CoordPayload::ColdRegions(_) => "cold_regions",
        }
    }
}

/// A queue of message copies in flight, sorted by the time each becomes
/// visible to its receiver (FIFO among equal ready times).
pub(crate) type Inbox<T> = VecDeque<(SimTime, T)>;

/// One transport's delivery machinery: its one-way latency, its fault lane
/// and its recorder. Both directions of a transport share one hop, hence
/// one fate stream, so a fault plan replays identically whatever the
/// traffic mix.
#[derive(Debug)]
pub(crate) struct Hop {
    latency: SimDuration,
    /// The armed fault lane and the RNG stream its fates are drawn from;
    /// `None` unless the lane is active.
    faults: Option<(LaneFaults, DetRng)>,
    telemetry: Recorder,
    /// The `net/` histogram each queued copy records its latency into.
    metric: &'static str,
}

impl Hop {
    /// A fault-free hop with no recorder.
    pub(crate) fn new(latency: SimDuration, metric: &'static str) -> Self {
        Self {
            latency,
            faults: None,
            telemetry: Recorder::disabled(),
            metric,
        }
    }

    /// Arms fault injection on both directions of the transport. An inert
    /// lane disarms the hop instead: it keeps no RNG and draws nothing.
    pub(crate) fn install_faults(&mut self, faults: LaneFaults, rng: DetRng) {
        self.faults = faults.is_active().then_some((faults, rng));
    }

    /// Attaches a flight recorder.
    pub(crate) fn attach_telemetry(&mut self, recorder: Recorder) {
        self.telemetry = recorder;
    }

    /// Posts `item`, sent at `now`, to `inbox`. Under fault injection the
    /// copy is first given a fate, drawn in a fixed order (drop, delay,
    /// duplicate) so plans replay identically; then zero, one or two
    /// copies are queued at the ready time, each recording its
    /// send-to-ready latency (injected delay included).
    pub(crate) fn post<T: Clone>(&mut self, inbox: &mut Inbox<T>, now: SimTime, item: T) {
        let mut ready = now + self.latency;
        let mut copies = 1;
        if let Some((faults, rng)) = &mut self.faults {
            if faults.drop > 0.0 && rng.chance(faults.drop) {
                return;
            }
            if faults.delay > 0.0 && rng.chance(faults.delay) {
                let extra = faults.delay_max.as_nanos() as f64 * rng.next_f64();
                ready += SimDuration::from_nanos(extra as u64);
            } else if faults.duplicate > 0.0 && rng.chance(faults.duplicate) {
                copies = 2;
            }
        }
        for _ in 0..copies {
            self.telemetry
                .hist_dur(Subsystem::Net, self.metric, ready.saturating_since(now));
            let at = inbox.partition_point(|&(r, _)| r <= ready);
            inbox.insert(at, (ready, item.clone()));
        }
    }

    /// Takes every item of `inbox` that is ready by `now`, in order.
    pub(crate) fn drain<T>(inbox: &mut Inbox<T>, now: SimTime) -> Vec<T> {
        let ready = inbox.partition_point(|&(r, _)| r <= now);
        inbox.drain(..ready).map(|(_, item)| item).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evtchn::channel_pair_with_latency;
    use crate::netlink::NetlinkBus;
    use crate::process::Pid;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn payload_converts_into_an_unstamped_envelope() {
        let m: CoordMsg = CoordPayload::EnteringLastIter.into();
        assert_eq!(
            m,
            CoordMsg {
                seq: 0,
                payload: CoordPayload::EnteringLastIter
            }
        );
    }

    #[test]
    fn payload_names_are_distinct() {
        let names = [
            CoordPayload::MigrationBegin.name(),
            CoordPayload::EnteringLastIter.name(),
            CoordPayload::AbortAssist.name(),
            CoordPayload::VmResumed.name(),
            CoordPayload::BeginAck.name(),
            CoordPayload::QuerySkipOver.name(),
            CoordPayload::PrepareSuspension.name(),
            CoordPayload::QueryColdMap.name(),
            CoordPayload::QueryColdRegions.name(),
            CoordPayload::ColdRegions(vec![]).name(),
        ];
        let set: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    #[test]
    fn hop_fates_replay_identically() {
        let lane = LaneFaults {
            drop: 0.3,
            delay: 0.3,
            delay_max: SimDuration::from_millis(5),
            duplicate: 0.3,
        };
        let run = || {
            let mut hop = Hop::new(SimDuration::ZERO, "test_ns");
            hop.install_faults(lane, DetRng::new(7));
            let mut inbox = Inbox::new();
            for i in 0..64u32 {
                hop.post(&mut inbox, t(u64::from(i)), i);
            }
            inbox
        };
        let inbox = run();
        assert_eq!(inbox, run());
        // Some copies were dropped, delayed or duplicated.
        let sent_order: Vec<(SimTime, u32)> = (0..64).map(|i| (t(u64::from(i)), i)).collect();
        assert_ne!(inbox, Inbox::from(sent_order));
    }

    #[test]
    fn ready_sorted_posts_keep_fifo_for_equal_times() {
        let mut hop = Hop::new(SimDuration::ZERO, "test_ns");
        let mut inbox = Inbox::new();
        for (at, item) in [(10, 1), (10, 2), (5, 3), (20, 4), (10, 5)] {
            hop.post(&mut inbox, t(at), item);
        }
        assert_eq!(Hop::drain(&mut inbox, t(10)), vec![3, 1, 2, 5]);
        assert_eq!(Hop::drain(&mut inbox, t(20)), vec![4]);
    }

    /// One direction of one transport, freshly built with zero latency:
    /// sends a payload, receives what is ready, and arms the transport's
    /// fault lane (shared by both of its directions).
    struct Route {
        name: &'static str,
        send: Box<dyn Fn(SimTime, CoordPayload)>,
        recv: Box<dyn Fn(SimTime) -> Vec<CoordMsg>>,
        arm: Box<dyn Fn(LaneFaults, DetRng)>,
    }

    /// Every route: both directions of the event channel and of the
    /// netlink bus.
    fn routes() -> Vec<Route> {
        let mut out = Vec::new();
        for to_lkm in [true, false] {
            let (daemon, lkm) = channel_pair_with_latency(SimDuration::ZERO);
            let arm_port = daemon.clone();
            let arm: Box<dyn Fn(LaneFaults, DetRng)> =
                Box::new(move |f, rng| arm_port.install_faults(f, rng));
            out.push(if to_lkm {
                Route {
                    name: "evtchn daemon->lkm",
                    send: Box::new(move |now, p| daemon.send(now, p)),
                    recv: Box::new(move |now| lkm.recv(now)),
                    arm,
                }
            } else {
                Route {
                    name: "evtchn lkm->daemon",
                    send: Box::new(move |now, p| lkm.send(now, p)),
                    recv: Box::new(move |now| daemon.recv(now)),
                    arm,
                }
            });
        }
        for to_app in [true, false] {
            let bus = NetlinkBus::with_latency(SimDuration::ZERO);
            let sock = bus.subscribe(Pid(7));
            let kernel = bus.kernel_end();
            let arm: Box<dyn Fn(LaneFaults, DetRng)> =
                Box::new(move |f, rng| bus.install_faults(f, rng));
            out.push(if to_app {
                Route {
                    name: "netlink kernel->app",
                    send: Box::new(move |now, p| kernel.multicast(now, p)),
                    recv: Box::new(move |now| sock.recv(now)),
                    arm,
                }
            } else {
                Route {
                    name: "netlink app->kernel",
                    send: Box::new(move |now, p| sock.send(now, p)),
                    recv: Box::new(move |now| {
                        kernel.recv(now).into_iter().map(|(_, m)| m).collect()
                    }),
                    arm,
                }
            });
        }
        out
    }

    fn only(fault: fn(&mut LaneFaults)) -> LaneFaults {
        let mut lane = LaneFaults::NONE;
        fault(&mut lane);
        lane
    }

    fn seqs(msgs: &[CoordMsg]) -> Vec<u64> {
        msgs.iter().map(|m| m.seq).collect()
    }

    #[test]
    fn fault_table_covers_both_hops_and_directions() {
        type Case = (&'static str, fn(&Route));
        let cases: [Case; 4] = [
            ("fifo", |r| {
                (r.send)(t(0), CoordPayload::MigrationBegin);
                (r.send)(t(0), CoordPayload::EnteringLastIter);
                let got = (r.recv)(t(0));
                let payloads: Vec<_> = got.iter().map(|m| m.payload.clone()).collect();
                assert_eq!(
                    payloads,
                    vec![CoordPayload::MigrationBegin, CoordPayload::EnteringLastIter]
                );
                assert_eq!(seqs(&got), vec![1, 2]);
            }),
            ("drop", |r| {
                (r.arm)(only(|l| l.drop = 1.0), DetRng::new(1));
                (r.send)(t(0), CoordPayload::MigrationBegin);
                assert!((r.recv)(t(10)).is_empty());
            }),
            ("duplicate", |r| {
                (r.arm)(only(|l| l.duplicate = 1.0), DetRng::new(1));
                (r.send)(t(0), CoordPayload::MigrationBegin);
                assert_eq!(seqs(&(r.recv)(t(10))), vec![1, 1]);
            }),
            ("delay reorders", |r| {
                // The first message is delayed; the second, sent fault-free
                // a microsecond later, overtakes it.
                let delay = |l: &mut LaneFaults| {
                    l.delay = 1.0;
                    l.delay_max = SimDuration::from_millis(10);
                };
                (r.arm)(only(delay), DetRng::new(3));
                (r.send)(t(0), CoordPayload::MigrationBegin);
                assert!((r.recv)(t(0)).is_empty(), "delayed past its latency");
                (r.arm)(LaneFaults::NONE, DetRng::new(0));
                (r.send)(t(1), CoordPayload::EnteringLastIter);
                assert_eq!(seqs(&(r.recv)(t(20_000))), vec![2, 1]);
            }),
        ];
        for (case, check) in cases {
            for route in routes() {
                eprintln!("{case}: {}", route.name);
                check(&route);
            }
        }
    }
}
