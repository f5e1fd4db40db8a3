//! Property tests of the LKM five-state machine under coordination chaos.
//!
//! Random message scripts are pushed through the real transports while
//! fault injection drops, delays (reorders) and duplicates envelopes on
//! both lanes. The invariants:
//!
//! * every state transition the LKM records is an edge of the legal
//!   five-state relation — chaos may stall progress but can never invent
//!   a transition;
//! * the machine never wedges: once the lanes are healed, a bounded
//!   number of retried (idempotent) daemon messages always drives the
//!   protocol to `SuspensionReady`, resetting through `Initialized` when
//!   the chaos left the LKM `Degraded`;
//! * duplicate and stale envelopes are absorbed by the sequence gate:
//!   they are counted, never re-applied.

use guestos::coord::CoordPayload;
use guestos::kernel::{GuestKernel, GuestOsConfig};
use guestos::lkm::{LkmConfig, LkmState};
use proptest::prelude::*;
use simkit::telemetry::{Recorder, Subsystem, Value};
use simkit::{DetRng, LaneFaults, SimDuration, SimTime};
use vmem::{PageClass, VaRange, Vaddr, VmSpec, PAGE_SIZE};

const TICK: SimDuration = SimDuration::from_millis(10);

fn t(step: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(step * 10)
}

fn guest() -> GuestKernel {
    GuestKernel::boot(
        GuestOsConfig {
            spec: VmSpec::new(64 * 1024 * 1024, 1),
            kernel_bytes: 1024 * 1024,
            pagecache_bytes: 1024 * 1024,
            kernel_dirty_rate: 0.0,
            pagecache_dirty_rate: 0.0,
        },
        DetRng::new(9),
    )
}

/// The legal transition relation of the five-state machine. `VmResumed`
/// resets to `Initialized` from anywhere (including `Initialized` itself);
/// `AbortAssist` degrades from any live state; everything else is the
/// forward protocol path.
fn legal(from: LkmState, to: LkmState) -> bool {
    use LkmState::*;
    matches!(
        (from, to),
        (Initialized, MigrationStarted)
            | (MigrationStarted, EnteringLastIter)
            | (EnteringLastIter, SuspensionReady)
            | (
                Initialized | MigrationStarted | EnteringLastIter | SuspensionReady,
                Degraded
            )
            | (_, Initialized)
    )
}

fn field_str<'e>(fields: &'e [(&'static str, Value)], key: &str) -> &'e str {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        })
        .expect("string field present")
}

fn state_by_name(name: &str) -> LkmState {
    use LkmState::*;
    [
        Initialized,
        MigrationStarted,
        EnteringLastIter,
        SuspensionReady,
        Degraded,
    ]
    .into_iter()
    .find(|s| s.name() == name)
    .expect("known state name")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary scripts over faulty lanes: only legal transitions are
    /// ever recorded, and healing the lanes always completes the protocol
    /// within a bounded number of retries.
    #[test]
    fn chaos_never_invents_transitions_or_wedges(
        seed in 0u64..1_000,
        drop in 0.0f64..0.8,
        delay in 0.0f64..0.8,
        duplicate in 0.0f64..0.8,
        steps in prop::collection::vec(0u8..8, 1..40),
    ) {
        let mut g = guest();
        let pid = g.spawn("app");
        let base = 0x300u64;
        let area = g
            .alloc_map(pid, Vaddr(base * PAGE_SIZE), 8, PageClass::Anon)
            .expect("fits");
        // A short straggler deadline keeps the healed runway bounded.
        let daemon = g.load_lkm(LkmConfig {
            reply_timeout: SimDuration::from_millis(100),
            ..LkmConfig::default()
        });
        let sock = g.subscribe_netlink(pid);
        let recorder = Recorder::new();
        g.attach_telemetry(recorder.clone());

        let lane = LaneFaults {
            drop,
            delay,
            delay_max: SimDuration::from_millis(5),
            duplicate,
        };
        daemon.install_faults(lane, DetRng::new(seed ^ 0x5eed));
        g.install_netlink_faults(lane, DetRng::new(seed ^ 0x7a1e));

        let mut step = 0u64;
        let tick = |g: &mut GuestKernel, step: &mut u64| {
            *step += 1;
            g.service_lkm(t(*step));
            t(*step)
        };

        // Chaos phase: a random script over both lanes.
        for op in steps {
            let now = t(step) + TICK / 2;
            sock.recv(now);
            daemon.recv(now);
            match op {
                0 => daemon.send(now, CoordPayload::MigrationBegin),
                1 => daemon.send(now, CoordPayload::EnteringLastIter),
                2 => daemon.send(now, CoordPayload::AbortAssist),
                3 => daemon.send(now, CoordPayload::VmResumed),
                4 => sock.send(now, CoordPayload::SkipOverAreas(vec![area])),
                5 => sock.send(
                    now,
                    CoordPayload::AreaShrunk {
                        left: vec![VaRange::new(
                            Vaddr(base * PAGE_SIZE),
                            Vaddr((base + 1) * PAGE_SIZE),
                        )],
                    },
                ),
                6 => sock.send(
                    now,
                    CoordPayload::SuspensionReady {
                        areas: vec![area],
                        must_send: vec![],
                    },
                ),
                _ => {}
            }
            tick(&mut g, &mut step);
        }

        // Heal both lanes: an all-zero lane is delivered verbatim and
        // draws no randomness. Delayed chaos stragglers stay queued and
        // must be absorbed as stale envelopes.
        daemon.install_faults(LaneFaults::NONE, DetRng::new(0));
        g.install_netlink_faults(LaneFaults::NONE, DetRng::new(0));

        // Recovery phase: retried idempotent messages must terminate the
        // protocol in a bounded number of rounds.
        let mut reached_ready = false;
        for _ in 0..60 {
            let state = g.lkm().expect("loaded").state();
            let now = t(step) + TICK / 2;
            sock.recv(now);
            daemon.recv(now);
            match state {
                LkmState::SuspensionReady => {
                    reached_ready = true;
                    break;
                }
                LkmState::Initialized => daemon.send(now, CoordPayload::MigrationBegin),
                LkmState::MigrationStarted => {
                    daemon.send(now, CoordPayload::EnteringLastIter)
                }
                LkmState::EnteringLastIter => sock.send(
                    now,
                    CoordPayload::SuspensionReady {
                        areas: vec![area],
                        must_send: vec![],
                    },
                ),
                LkmState::Degraded => daemon.send(now, CoordPayload::VmResumed),
            }
            tick(&mut g, &mut step);
        }
        prop_assert!(
            reached_ready,
            "LKM wedged in {:?} after healing",
            g.lkm().expect("loaded").state()
        );

        // Every transition the LKM recorded must be a legal edge.
        let snapshot = recorder.snapshot();
        for ev in snapshot.events_named(Subsystem::Lkm, "state_transition") {
            let from = state_by_name(field_str(&ev.fields, "from"));
            let to = state_by_name(field_str(&ev.fields, "to"));
            prop_assert!(legal(from, to), "illegal transition {from:?} -> {to:?}");
        }
    }

    /// Full duplication of every envelope (same seq, so receivers can tell)
    /// is harmless: the protocol completes exactly as fault-free and the
    /// duplicates are all counted by the sequence gate.
    #[test]
    fn duplicated_envelopes_are_absorbed(seed in 0u64..1_000) {
        let run = |duplicate: f64| {
            let mut g = guest();
            let pid = g.spawn("app");
            let base = 0x400u64;
            let area = g
                .alloc_map(pid, Vaddr(base * PAGE_SIZE), 8, PageClass::Anon)
                .expect("fits");
            let daemon = g.load_lkm(LkmConfig::default());
            let sock = g.subscribe_netlink(pid);
            let lane = LaneFaults {
                duplicate,
                ..LaneFaults::NONE
            };
            if duplicate > 0.0 {
                daemon.install_faults(lane, DetRng::new(seed));
                g.install_netlink_faults(lane, DetRng::new(seed ^ 1));
            }

            daemon.send(t(0), CoordPayload::MigrationBegin);
            g.service_lkm(t(1));
            sock.recv(t(1));
            sock.send(t(1), CoordPayload::SkipOverAreas(vec![area]));
            g.service_lkm(t(2));
            daemon.send(t(2), CoordPayload::EnteringLastIter);
            g.service_lkm(t(3));
            sock.recv(t(3));
            sock.send(
                t(3),
                CoordPayload::SuspensionReady {
                    areas: vec![area],
                    must_send: vec![],
                },
            );
            g.service_lkm(t(4));
            let lkm = g.lkm().expect("loaded");
            (
                lkm.state(),
                lkm.transfer_bitmap().skip_count(),
                lkm.stats().dup_msgs,
            )
        };

        let (clean_state, clean_skips, clean_dups) = run(0.0);
        let (dup_state, dup_skips, dup_dups) = run(1.0);
        prop_assert_eq!(clean_state, LkmState::SuspensionReady);
        prop_assert_eq!(clean_dups, 0);
        prop_assert_eq!(dup_state, LkmState::SuspensionReady);
        prop_assert_eq!(dup_skips, clean_skips, "duplicates must not re-apply");
        prop_assert!(dup_dups > 0, "every envelope was duplicated");
    }
}
