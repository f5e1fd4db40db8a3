//! End-to-end tests of the LKM coordination protocol (Figure 4).
//!
//! These tests drive the protocol by hand — playing both the migration
//! daemon (event channel side) and an assisting application (netlink side) —
//! and check every transfer-bitmap rule of §3.3.4.

use guestos::coord::{CoordMsg, CoordPayload};
use guestos::kernel::{GuestKernel, GuestOsConfig};
use guestos::lkm::{LkmConfig, LkmState};
use simkit::{DetRng, SimDuration, SimTime};
use vmem::{PageClass, VaRange, Vaddr, VmSpec, PAGE_SIZE};

fn t(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

fn payloads(msgs: Vec<CoordMsg>) -> Vec<CoordPayload> {
    msgs.into_iter().map(|m| m.payload).collect()
}

fn guest() -> GuestKernel {
    let config = GuestOsConfig {
        spec: VmSpec::new(64 * 1024 * 1024, 1),
        kernel_bytes: 2 * 1024 * 1024,
        pagecache_bytes: 2 * 1024 * 1024,
        kernel_dirty_rate: 0.0,
        pagecache_dirty_rate: 0.0,
    };
    GuestKernel::boot(config, DetRng::new(7))
}

/// Shorthand: a VA range covering pages [start, start+n) of the app space.
fn pages(start: u64, n: u64) -> VaRange {
    VaRange::new(Vaddr(start * PAGE_SIZE), Vaddr((start + n) * PAGE_SIZE))
}

#[test]
fn full_protocol_happy_path() {
    let mut g = guest();
    let pid = g.spawn("app");
    let area = g
        .alloc_map(pid, Vaddr(0x100 * PAGE_SIZE), 32, PageClass::Anon)
        .unwrap();
    let daemon = g.load_lkm(LkmConfig::default());
    let sock = g.subscribe_netlink(pid);

    // Migration begins.
    daemon.send(t(0), CoordPayload::MigrationBegin);
    g.service_lkm(t(1));
    assert_eq!(g.lkm().unwrap().state(), LkmState::MigrationStarted);
    assert_eq!(payloads(sock.recv(t(2))), vec![CoordPayload::QuerySkipOver]);
    // The LKM acknowledges MigrationBegin on the event channel.
    assert_eq!(payloads(daemon.recv(t(2))), vec![CoordPayload::BeginAck]);

    // App reports its skip-over area; first bitmap update clears 32 bits.
    sock.send(t(2), CoordPayload::SkipOverAreas(vec![area]));
    g.service_lkm(t(3));
    let lkm = g.lkm().unwrap();
    assert_eq!(lkm.stats().first_update_pages, 32);
    assert_eq!(lkm.transfer_bitmap().skip_count(), 32);
    let skipped_pfn = g.translate(pid, area.start()).unwrap();
    assert!(!g.lkm().unwrap().should_transfer(skipped_pfn));

    // Entering last iteration: app is asked to prepare.
    daemon.send(t(10), CoordPayload::EnteringLastIter);
    g.service_lkm(t(11));
    assert_eq!(
        payloads(sock.recv(t(12))),
        vec![CoordPayload::PrepareSuspension]
    );
    assert_eq!(g.lkm().unwrap().state(), LkmState::EnteringLastIter);

    // App prepares (say, collects garbage) and reports ready, flagging the
    // first 4 pages as must-send (live survivors).
    let survivors = pages(0x100, 4);
    sock.send(
        t(12),
        CoordPayload::SuspensionReady {
            areas: vec![area],
            must_send: vec![survivors],
        },
    );
    g.service_lkm(t(13));
    let lkm = g.lkm().unwrap();
    assert_eq!(lkm.state(), LkmState::SuspensionReady);
    assert_eq!(lkm.stats().final_set_pages, 4);
    assert!(lkm.should_transfer(skipped_pfn), "survivor must transfer");
    let garbage_pfn = g.translate(pid, Vaddr((0x100 + 10) * PAGE_SIZE)).unwrap();
    assert!(!g.lkm().unwrap().should_transfer(garbage_pfn));

    // Daemon learns it may suspend, with the final-update duration.
    let msgs = daemon.recv(t(14));
    assert_eq!(msgs.len(), 1);
    let CoordPayload::ReadyToSuspend {
        final_update,
        stragglers,
    } = &msgs[0].payload
    else {
        panic!("expected ReadyToSuspend, got {:?}", msgs[0].payload);
    };
    assert_eq!(*stragglers, 0);
    assert!(
        *final_update < SimDuration::from_micros(300),
        "final update took {final_update}"
    );

    // VM resumes: LKM resets for the next migration.
    daemon.send(t(20), CoordPayload::VmResumed);
    g.service_lkm(t(21));
    let lkm = g.lkm().unwrap();
    assert_eq!(lkm.state(), LkmState::Initialized);
    assert_eq!(lkm.transfer_bitmap().skip_count(), 0, "bitmap reset");
    assert_eq!(payloads(sock.recv(t(22))), vec![CoordPayload::VmResumed]);
}

#[test]
fn shrink_is_applied_immediately_and_expansion_deferred() {
    let mut g = guest();
    let pid = g.spawn("app");
    let area = g
        .alloc_map(pid, Vaddr(0x200 * PAGE_SIZE), 16, PageClass::Anon)
        .unwrap();
    let daemon = g.load_lkm(LkmConfig::default());
    let sock = g.subscribe_netlink(pid);

    daemon.send(t(0), CoordPayload::MigrationBegin);
    g.service_lkm(t(1));
    sock.recv(t(2));
    sock.send(t(2), CoordPayload::SkipOverAreas(vec![area]));
    g.service_lkm(t(3));
    assert_eq!(g.lkm().unwrap().transfer_bitmap().skip_count(), 16);

    // The area shrinks by its last 6 pages; the app frees them.
    let leaving = pages(0x200 + 10, 6);
    let leaving_pfns: Vec<_> = (10..16)
        .map(|i| g.translate(pid, Vaddr((0x200 + i) * PAGE_SIZE)).unwrap())
        .collect();
    g.unmap_free(pid, leaving);
    sock.send(
        t(3),
        CoordPayload::AreaShrunk {
            left: vec![leaving],
        },
    );
    g.service_lkm(t(4));
    let lkm = g.lkm().unwrap();
    assert_eq!(lkm.stats().shrink_pages, 6);
    assert_eq!(lkm.transfer_bitmap().skip_count(), 10);
    for pfn in leaving_pfns {
        assert!(
            lkm.should_transfer(pfn),
            "freed frame must regain its transfer bit even though the page \
             table no longer maps it"
        );
    }

    // The area then expands by 8 pages; no notification is required and the
    // bitmap must NOT change until the final update.
    let expansion = g
        .alloc_map(pid, Vaddr((0x200 + 16) * PAGE_SIZE), 8, PageClass::Anon)
        .unwrap();
    g.service_lkm(t(5));
    assert_eq!(g.lkm().unwrap().transfer_bitmap().skip_count(), 10);

    // Final update reconciles the expansion. The reported grown area spans
    // [0x200, 0x218) but pages [0x20a, 0x210) were freed and stay unmapped,
    // so the walk finds 8 newly mapped expansion pages (6 of which reuse
    // the frames freed by the shrink).
    daemon.send(t(6), CoordPayload::EnteringLastIter);
    g.service_lkm(t(7));
    sock.recv(t(8));
    let grown = VaRange::new(Vaddr(0x200 * PAGE_SIZE), expansion.end());
    sock.send(
        t(8),
        CoordPayload::SuspensionReady {
            areas: vec![grown],
            must_send: vec![],
        },
    );
    g.service_lkm(t(9));
    let lkm = g.lkm().unwrap();
    assert_eq!(lkm.stats().final_expand_pages, 8);
    // Skip set: the original 10 still-skipped pages + 8 expansion pages.
    assert_eq!(lkm.transfer_bitmap().skip_count(), 18);
}

#[test]
fn straggler_is_unskipped_after_timeout() {
    let mut g = guest();
    let pid_good = g.spawn("good");
    let pid_bad = g.spawn("bad");
    let area_good = g
        .alloc_map(pid_good, Vaddr(0x100 * PAGE_SIZE), 8, PageClass::Anon)
        .unwrap();
    let area_bad = g
        .alloc_map(pid_bad, Vaddr(0x500 * PAGE_SIZE), 8, PageClass::Anon)
        .unwrap();
    let daemon = g.load_lkm(LkmConfig {
        reply_timeout: SimDuration::from_millis(100),
        ..LkmConfig::default()
    });
    let sock_good = g.subscribe_netlink(pid_good);
    let sock_bad = g.subscribe_netlink(pid_bad);

    daemon.send(t(0), CoordPayload::MigrationBegin);
    g.service_lkm(t(1));
    sock_good.recv(t(2));
    sock_bad.recv(t(2));
    sock_good.send(t(2), CoordPayload::SkipOverAreas(vec![area_good]));
    sock_bad.send(t(2), CoordPayload::SkipOverAreas(vec![area_bad]));
    g.service_lkm(t(3));
    assert_eq!(g.lkm().unwrap().transfer_bitmap().skip_count(), 16);

    daemon.send(t(10), CoordPayload::EnteringLastIter);
    g.service_lkm(t(11));
    // Only the good app replies.
    sock_good.send(
        t(12),
        CoordPayload::SuspensionReady {
            areas: vec![area_good],
            must_send: vec![],
        },
    );
    g.service_lkm(t(13));
    assert_eq!(
        g.lkm().unwrap().state(),
        LkmState::EnteringLastIter,
        "must wait for the second app"
    );

    // After the deadline the bad app is forcibly un-skipped.
    g.service_lkm(t(120));
    let lkm = g.lkm().unwrap();
    assert_eq!(lkm.state(), LkmState::SuspensionReady);
    assert_eq!(lkm.stats().stragglers, 1);
    assert_eq!(
        lkm.transfer_bitmap().skip_count(),
        8,
        "only the cooperative app's pages stay skipped"
    );
    // BeginAck (from MigrationBegin) followed by the straggler-flagged
    // ready notification.
    let msgs = daemon.recv(t(121));
    assert_eq!(msgs.len(), 2);
    assert_eq!(msgs[0].payload, CoordPayload::BeginAck);
    let CoordPayload::ReadyToSuspend { stragglers, .. } = &msgs[1].payload else {
        panic!("expected ReadyToSuspend, got {:?}", msgs[1].payload);
    };
    assert_eq!(*stragglers, 1);
}

#[test]
fn rewalk_final_update_recomputes_from_page_tables() {
    let mut g = guest();
    let pid = g.spawn("app");
    let area = g
        .alloc_map(pid, Vaddr(0x300 * PAGE_SIZE), 16, PageClass::Anon)
        .unwrap();
    let daemon = g.load_lkm(LkmConfig {
        rewalk_final_update: true,
        ..LkmConfig::default()
    });
    let sock = g.subscribe_netlink(pid);

    daemon.send(t(0), CoordPayload::MigrationBegin);
    g.service_lkm(t(1));
    sock.recv(t(2));
    sock.send(t(2), CoordPayload::SkipOverAreas(vec![area]));
    g.service_lkm(t(3));
    assert_eq!(g.lkm().unwrap().transfer_bitmap().skip_count(), 16);

    // Shrink notifications are ignored under the rewalk strategy.
    g.unmap_free(pid, pages(0x300 + 12, 4));
    sock.send(
        t(3),
        CoordPayload::AreaShrunk {
            left: vec![pages(0x300 + 12, 4)],
        },
    );
    g.service_lkm(t(4));
    assert_eq!(
        g.lkm().unwrap().transfer_bitmap().skip_count(),
        16,
        "no intermediate updates under rewalk strategy"
    );

    // Final update re-walks: 12 pages still mapped get skipped, the 4
    // freed frames regain their transfer bits.
    daemon.send(t(5), CoordPayload::EnteringLastIter);
    g.service_lkm(t(6));
    sock.recv(t(7));
    sock.send(
        t(7),
        CoordPayload::SuspensionReady {
            areas: vec![pages(0x300, 12)],
            must_send: vec![],
        },
    );
    g.service_lkm(t(8));
    assert_eq!(g.lkm().unwrap().transfer_bitmap().skip_count(), 12);
    assert_eq!(g.lkm().unwrap().state(), LkmState::SuspensionReady);
}

#[test]
fn lkm_memory_footprint_is_small() {
    let mut g = GuestKernel::boot(
        GuestOsConfig {
            spec: VmSpec::new(2 * 1024 * 1024 * 1024, 4),
            kernel_bytes: 64 * 1024 * 1024,
            pagecache_bytes: 64 * 1024 * 1024,
            kernel_dirty_rate: 0.0,
            pagecache_dirty_rate: 0.0,
        },
        DetRng::new(1),
    );
    let pid = g.spawn("java");
    // A 1 GiB skip-over area, like derby's Young generation.
    let npages = 1024 * 1024 * 1024 / PAGE_SIZE;
    let area = g
        .alloc_map(pid, Vaddr(0x7f00_0000_0000), npages, PageClass::HeapYoung)
        .unwrap();
    let daemon = g.load_lkm(LkmConfig::default());
    let sock = g.subscribe_netlink(pid);
    daemon.send(t(0), CoordPayload::MigrationBegin);
    g.service_lkm(t(1));
    sock.recv(t(2));
    sock.send(t(2), CoordPayload::SkipOverAreas(vec![area]));
    g.service_lkm(t(3));
    let lkm = g.lkm().unwrap();
    assert_eq!(lkm.stats().first_update_pages, npages);
    // The PFN cache counts 4 bytes per entry, as the paper does: exactly
    // 1 MiB for the 1 GiB area.
    assert_eq!(lkm.stats().peak_cache_bytes, 1024 * 1024);
    // Paper: transfer bitmap 32 KiB/GiB of VM + PFN cache 1 MiB/GiB of
    // skip-over area. 2 GiB VM + 1 GiB area = 64 KiB + 1 MiB ≈ 1.06 MiB.
    let footprint = lkm.memory_footprint();
    assert!(
        footprint <= 1_200_000,
        "LKM footprint {footprint} bytes exceeds ~1 MiB"
    );
}

#[test]
fn proc_entry_registers_skip_over_areas() {
    use guestos::procfs::{format_ranges, ProcSkipOverEntry};

    let mut g = guest();
    let pid = g.spawn("app");
    let area = g
        .alloc_map(pid, Vaddr(0x700 * PAGE_SIZE), 16, PageClass::Anon)
        .unwrap();
    let daemon = g.load_lkm(LkmConfig::default());
    let proc_entry = ProcSkipOverEntry::open(g.subscribe_netlink(pid));

    daemon.send(t(0), CoordPayload::MigrationBegin);
    g.service_lkm(t(1));
    // The application writes its areas to /proc instead of replying on
    // netlink (§3.3.2).
    let n = proc_entry
        .write(t(2), &format_ranges(&[area]))
        .expect("valid write");
    assert_eq!(n, 1);
    g.service_lkm(t(3));
    assert_eq!(g.lkm().unwrap().transfer_bitmap().skip_count(), 16);

    // Malformed writes are rejected without touching the bitmap.
    assert!(proc_entry.write(t(4), "not-a-range").is_err());
    g.service_lkm(t(5));
    assert_eq!(g.lkm().unwrap().transfer_bitmap().skip_count(), 16);
}

/// Services the LKM one millisecond after the last service.
fn tick(g: &mut GuestKernel, now: &mut u64) {
    *now += 1;
    g.service_lkm(t(*now));
}

/// Asserts the LKM's cold-bit count is `expect` and equals the popcount of
/// its cold map (0 without a map).
fn assert_cold_count(g: &GuestKernel, expect: u64) {
    let lkm = g.lkm().unwrap();
    assert_eq!(
        lkm.cold_count(),
        lkm.cold_bitmap().map_or(0, |m| m.count_set())
    );
    assert_eq!(lkm.cold_count(), expect);
}

/// The LKM's cold-bit count — what the migration engine compares after
/// every quantum instead of popcounting the map — equals the cold map's
/// popcount through every reply shape and across the map's lifetime.
#[test]
fn cold_count_tracks_the_cold_map() {
    let mut g = guest();
    let pid = g.spawn("app");
    g.alloc_map(pid, Vaddr(0x100 * PAGE_SIZE), 64, PageClass::Anon)
        .unwrap();
    let daemon = g.load_lkm(LkmConfig::default());
    let sock = g.subscribe_netlink(pid);
    // A subscriber whose process does not exist.
    let ghost = g.subscribe_netlink(guestos::process::Pid(999));
    let mut now = 0;
    assert_cold_count(&g, 0);

    for migration in 0..2 {
        daemon.send(t(now), CoordPayload::MigrationBegin);
        tick(&mut g, &mut now);
        daemon.send(t(now), CoordPayload::QueryColdMap);
        tick(&mut g, &mut now);
        assert!(payloads(sock.recv(t(now + 1))).contains(&CoordPayload::QueryColdRegions));
        // A fresh MigrationBegin starts without the last migration's map.
        assert_cold_count(&g, 0);
        if migration == 0 {
            // Overlapping ranges: pages 0x100..0x124, 36 distinct pages.
            sock.send(
                t(now),
                CoordPayload::ColdRegions(vec![pages(0x100, 20), pages(0x110, 20)]),
            );
            tick(&mut g, &mut now);
            assert_cold_count(&g, 36);
            // A repeated reply sets no new bit.
            sock.send(t(now), CoordPayload::ColdRegions(vec![pages(0x100, 36)]));
            tick(&mut g, &mut now);
            assert_cold_count(&g, 36);
            // An empty reply, and one from a pid without a process.
            sock.send(t(now), CoordPayload::ColdRegions(vec![]));
            ghost.send(t(now), CoordPayload::ColdRegions(vec![pages(0x130, 8)]));
            tick(&mut g, &mut now);
            assert_cold_count(&g, 36);
            // The migration ends and its map goes with it.
            daemon.send(t(now), CoordPayload::VmResumed);
            tick(&mut g, &mut now);
            assert_cold_count(&g, 0);
        } else {
            sock.send(t(now), CoordPayload::ColdRegions(vec![pages(0x120, 10)]));
            tick(&mut g, &mut now);
            assert_cold_count(&g, 10);
            // AbortAssist drops the map.
            daemon.send(t(now), CoordPayload::AbortAssist);
            tick(&mut g, &mut now);
            assert_eq!(g.lkm().unwrap().state(), LkmState::Degraded);
            assert!(g.lkm().unwrap().cold_bitmap().is_none());
            assert_cold_count(&g, 0);
        }
    }
}
