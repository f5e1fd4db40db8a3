//! A memcached-like caching application (§6 extension).
//!
//! The paper's framework also applies to applications with caching
//! functionality: the application registers part of its caching memory as a
//! skip-over area, effectively shrinking the cache at the destination. When
//! asked to prepare for suspension it purges the least-recently-used
//! entries so the remaining valid data are compact, and after resumption it
//! serves with a colder cache — paying a temporary hit-rate penalty while
//! the purged region refills.

use guestos::app::GuestApp;
use guestos::coord::CoordPayload;
use guestos::kernel::GuestKernel;
use guestos::netlink::NetlinkSocket;
use guestos::process::Pid;
use simkit::{DetRng, SimDuration, SimTime};
use vmem::{PageClass, VaRange, Vaddr, PAGE_SIZE};

/// VA base of the cache region.
const CACHE_BASE: u64 = 0x7e00_0000_0000;

/// Share of churn writes that land in the cold band (when one is
/// configured): the long tail of resident entries that are read-mostly but
/// occasionally updated, re-dirtying an already-transferred page.
const COLD_TOUCH_CHANCE: f64 = 0.1;

/// Configuration of the cache application.
#[derive(Debug, Clone)]
pub struct CacheAppConfig {
    /// Total cache memory.
    pub cache_bytes: u64,
    /// Fraction of the cache (the LRU tail) offered as skip-over area.
    pub skip_fraction: f64,
    /// Cache churn: bytes written per second (inserts and updates).
    pub write_rate: f64,
    /// Request throughput at full cache warmth.
    pub ops_per_sec: f64,
    /// Fraction of throughput lost right after resuming with the purged
    /// region cold.
    pub miss_penalty: f64,
    /// Seconds to refill the purged region to full warmth.
    pub refill_secs: f64,
    /// Fraction of the cache held by the long-tail resident set: entries
    /// that stay live (they must migrate) but are updated only rarely. The
    /// band sits at the head of the region, is reported as a cold region
    /// when the cold assist queries for one, and receives
    /// [`COLD_TOUCH_CHANCE`] of the churn. `0.0` (the default) disables the
    /// band without changing a single rng draw. Clamped so the band never
    /// overlaps the skip-over tail.
    pub cold_fraction: f64,
}

impl Default for CacheAppConfig {
    fn default() -> Self {
        Self {
            cache_bytes: 512 * 1024 * 1024,
            skip_fraction: 0.5,
            write_rate: 20e6,
            ops_per_sec: 10_000.0,
            miss_penalty: 0.3,
            refill_secs: 30.0,
            cold_fraction: 0.0,
        }
    }
}

/// The cache server process.
pub struct CacheApp {
    pid: Pid,
    sock: Option<NetlinkSocket>,
    region: VaRange,
    config: CacheAppConfig,
    rng: DetRng,
    ops: f64,
    write_carry: f64,
    /// Tail purged and considered empty (between prepare and refill).
    purged: bool,
    resumed_at: Option<SimTime>,
}

impl CacheApp {
    /// Launches the cache app, warming the whole cache region.
    ///
    /// # Panics
    ///
    /// Panics if the guest cannot back the cache region.
    pub fn launch(
        kernel: &mut GuestKernel,
        config: CacheAppConfig,
        assisted: bool,
        rng: DetRng,
    ) -> Self {
        let pid = kernel.spawn("cached");
        let pages = config.cache_bytes / PAGE_SIZE;
        let region = kernel
            .alloc_map(pid, Vaddr(CACHE_BASE), pages, PageClass::AppCache)
            .expect("cache region fits in guest memory");
        kernel.write_range(pid, region, PageClass::AppCache);
        let sock = assisted.then(|| kernel.subscribe_netlink(pid));
        Self {
            pid,
            sock,
            region,
            config,
            rng,
            ops: 0.0,
            write_carry: 0.0,
            purged: false,
            resumed_at: None,
        }
    }

    /// The skip-over area: the LRU tail of the cache.
    pub fn tail_range(&self) -> VaRange {
        let keep = ((self.region.len() as f64) * (1.0 - self.config.skip_fraction)) as u64;
        VaRange::new(Vaddr(self.region.start().0 + keep), self.region.end()).align_inward()
    }

    /// Pages in the cold band (the long-tail resident set), clamped to the
    /// head so coldness never overlaps the skip-over tail.
    fn cold_pages(&self) -> u64 {
        let total = self.region.page_count();
        let tail_start = self.tail_range().start().vpn() - self.region.start().vpn();
        (((total as f64) * self.config.cold_fraction.clamp(0.0, 1.0)) as u64).min(tail_start)
    }

    /// The cold band: live-but-rarely-updated entries at the head of the
    /// cache. Empty when `cold_fraction` is zero.
    pub fn cold_range(&self) -> VaRange {
        VaRange::from_len(self.region.start(), self.cold_pages() * PAGE_SIZE)
    }

    /// Current warmth factor in `[1 - miss_penalty, 1]`.
    fn warmth(&self, now: SimTime) -> f64 {
        let Some(resumed) = self.resumed_at else {
            return 1.0;
        };
        let since = now.saturating_since(resumed).as_secs_f64();
        let progress = (since / self.config.refill_secs).min(1.0);
        1.0 - self.config.miss_penalty * (1.0 - progress)
    }

    /// A hot-band write: a page of `[cold_pages, tail_start_page)`. When
    /// the cold band reaches the skip-over tail there is no hot band, and
    /// the write updates the cold band instead. The branch comes before
    /// any draw, so a non-empty hot band draws exactly as before. (A
    /// region that is all tail, `skip_fraction` 1.0, has no head at all;
    /// its writes still land on the first page.)
    fn hot_page(&mut self, cold_pages: u64, tail_start_page: u64) -> u64 {
        if tail_start_page > cold_pages {
            cold_pages + self.rng.below(tail_start_page - cold_pages)
        } else {
            self.rng.below(cold_pages.max(1))
        }
    }

    fn handle_messages(&mut self, now: SimTime) {
        let Some(sock) = &self.sock else { return };
        for msg in sock.recv(now) {
            match msg.payload {
                CoordPayload::QuerySkipOver => {
                    // Cache servers register through the /proc entry
                    // (§3.3.2); the LKM treats it like a netlink report.
                    guestos::procfs::write_skip_over(sock, now, &[self.tail_range()])
                        .expect("page-aligned tail range is always valid");
                }
                CoordPayload::PrepareSuspension => {
                    // Purge the LRU tail: the remaining valid entries are
                    // already compact in the head of the region.
                    self.purged = true;
                    sock.send(
                        now,
                        CoordPayload::SuspensionReady {
                            areas: vec![self.tail_range()],
                            must_send: vec![],
                        },
                    );
                }
                CoordPayload::QueryColdRegions => {
                    let cold = self.cold_range();
                    if !cold.is_empty() {
                        sock.send(now, CoordPayload::ColdRegions(vec![cold]));
                    }
                }
                CoordPayload::VmResumed => {
                    self.resumed_at = Some(now);
                }
                _ => {}
            }
        }
    }
}

impl GuestApp for CacheApp {
    fn pid(&self) -> Pid {
        self.pid
    }

    fn advance(&mut self, now: SimTime, dt: SimDuration, kernel: &mut GuestKernel) {
        self.handle_messages(now);
        let warmth = self.warmth(now);

        // Cache churn: updates hit the hot head mostly; inserts refill the
        // tail once it was purged and the VM resumed.
        let bytes = self.config.write_rate * dt.as_secs_f64() + self.write_carry;
        let pages = (bytes / PAGE_SIZE as f64) as u64;
        self.write_carry = bytes - (pages * PAGE_SIZE) as f64;
        let total_pages = self.region.page_count();
        let tail_start_page = self.tail_range().start().vpn() - self.region.start().vpn();
        let tail_pages = total_pages - tail_start_page;
        let cold_pages = self.cold_pages();
        // The `cold_pages > 0` guards short-circuit before touching the rng,
        // so a zero cold fraction consumes exactly the historical draws.
        let mut writes = Vec::with_capacity(pages as usize);
        for _ in 0..pages {
            let page = if self.purged && self.resumed_at.is_none() {
                // Between purge and resume: only the compact head is
                // touched, keeping the tail empty as the paper requires.
                if cold_pages > 0 && self.rng.chance(COLD_TOUCH_CHANCE) {
                    self.rng.below(cold_pages)
                } else {
                    self.hot_page(cold_pages, tail_start_page)
                }
            } else if cold_pages > 0 && self.rng.chance(COLD_TOUCH_CHANCE) {
                // Long-tail update: re-dirty a resident cold entry.
                self.rng.below(cold_pages)
            } else if self.rng.chance(0.8) || tail_pages == 0 {
                // With no tail to insert into, inserts update the head too.
                self.hot_page(cold_pages, tail_start_page)
            } else {
                tail_start_page + self.rng.below(tail_pages)
            };
            writes.push(page);
        }
        kernel.write_pages(self.pid, self.region.start(), &writes, PageClass::AppCache);

        self.ops += self.config.ops_per_sec * warmth * dt.as_secs_f64();
    }

    fn ops_completed(&self) -> u64 {
        self.ops as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guestos::kernel::GuestOsConfig;
    use simkit::units::MIB;
    use vmem::VmSpec;

    fn boot() -> GuestKernel {
        GuestKernel::boot(
            GuestOsConfig {
                spec: VmSpec::new(1024 * MIB, 2),
                kernel_bytes: 16 * MIB,
                pagecache_bytes: 16 * MIB,
                kernel_dirty_rate: 0.0,
                pagecache_dirty_rate: 0.0,
            },
            DetRng::new(2),
        )
    }

    #[test]
    fn launch_warms_cache() {
        let mut kernel = boot();
        let app = CacheApp::launch(
            &mut kernel,
            CacheAppConfig {
                cache_bytes: 64 * MIB,
                ..CacheAppConfig::default()
            },
            false,
            DetRng::new(3),
        );
        let pfn = kernel.translate(app.pid(), Vaddr(CACHE_BASE)).unwrap();
        assert_eq!(kernel.memory().page(pfn).class, PageClass::AppCache);
        assert_eq!(kernel.memory().page(pfn).version, 1);
    }

    #[test]
    fn tail_is_half_by_default() {
        let mut kernel = boot();
        let app = CacheApp::launch(
            &mut kernel,
            CacheAppConfig {
                cache_bytes: 64 * MIB,
                ..CacheAppConfig::default()
            },
            false,
            DetRng::new(3),
        );
        assert_eq!(app.tail_range().len(), 32 * MIB);
    }

    #[test]
    fn cold_range_defaults_empty_and_clamps_to_head() {
        let mut kernel = boot();
        let app = CacheApp::launch(
            &mut kernel,
            CacheAppConfig {
                cache_bytes: 64 * MIB,
                ..CacheAppConfig::default()
            },
            false,
            DetRng::new(3),
        );
        assert!(app.cold_range().is_empty());

        let mut kernel = boot();
        let app = CacheApp::launch(
            &mut kernel,
            CacheAppConfig {
                cache_bytes: 64 * MIB,
                skip_fraction: 0.5,
                cold_fraction: 0.8,
                ..CacheAppConfig::default()
            },
            false,
            DetRng::new(3),
        );
        // 0.8 of the cache would reach into the skip-over tail; the band is
        // clamped to the 32 MiB head.
        assert_eq!(app.cold_range().len(), 32 * MIB);
        assert_eq!(app.cold_range().start().0, CACHE_BASE);

        let mut kernel = boot();
        let app = CacheApp::launch(
            &mut kernel,
            CacheAppConfig {
                cache_bytes: 64 * MIB,
                skip_fraction: 0.1,
                cold_fraction: 0.25,
                ..CacheAppConfig::default()
            },
            false,
            DetRng::new(3),
        );
        assert_eq!(app.cold_range().len(), 16 * MIB);
    }

    /// Launches a 64 MiB cache that writes 1000 pages per simulated
    /// second.
    fn writer(kernel: &mut GuestKernel, skip_fraction: f64, cold_fraction: f64) -> CacheApp {
        CacheApp::launch(
            kernel,
            CacheAppConfig {
                cache_bytes: 64 * MIB,
                skip_fraction,
                cold_fraction,
                write_rate: 1000.0 * PAGE_SIZE as f64,
                ..CacheAppConfig::default()
            },
            false,
            DetRng::new(3),
        )
    }

    /// Writes per page of the region since launch (which wrote each once).
    fn writes_per_page(app: &CacheApp, kernel: &GuestKernel) -> Vec<u64> {
        app.region
            .vpns()
            .map(|vpn| {
                let pfn = kernel.translate(app.pid(), Vaddr(vpn * PAGE_SIZE)).unwrap();
                kernel.memory().page(pfn).version - 1
            })
            .collect()
    }

    /// (skip_fraction, cold_fraction) pairs: an empty tail, a cold band
    /// that fills the head (no hot band), and one a page short of it.
    const BANDS: [(f64, f64); 6] = [
        (0.0, 0.0),
        (0.1, 0.0),
        (0.5, 0.0),
        (0.5, 0.8),
        (0.0, 1.0),
        (0.1, 0.9),
    ];

    #[test]
    fn every_write_lands_in_the_region() {
        // With skip_fraction 0.0 the tail is empty, so inserts must update
        // the head instead of a page one past the region; with the cold
        // band reaching the tail, hot writes must update the cold band
        // instead of the tail's first page.
        for (skip_fraction, cold_fraction) in BANDS {
            let mut kernel = boot();
            let mut app = writer(&mut kernel, skip_fraction, cold_fraction);
            app.advance(SimTime::ZERO, SimDuration::from_secs(1), &mut kernel);
            let landed: u64 = writes_per_page(&app, &kernel).iter().sum();
            assert_eq!(landed, 1000, "skip {skip_fraction} cold {cold_fraction}");
        }
    }

    #[test]
    fn purged_tail_stays_untouched_until_resume() {
        for (skip_fraction, cold_fraction) in BANDS {
            let mut kernel = boot();
            let mut app = writer(&mut kernel, skip_fraction, cold_fraction);
            app.purged = true;
            app.advance(SimTime::ZERO, SimDuration::from_secs(1), &mut kernel);
            let tail_start = app.tail_range().start().vpn() - app.region.start().vpn();
            let per_page = writes_per_page(&app, &kernel);
            let (head, tail) = per_page.split_at(tail_start as usize);
            let case = format!("skip {skip_fraction} cold {cold_fraction}");
            assert_eq!(head.iter().sum::<u64>(), 1000, "{case}");
            assert_eq!(tail.iter().sum::<u64>(), 0, "{case}");
        }
    }

    #[test]
    fn warmth_recovers_after_resume() {
        let mut kernel = boot();
        let mut app = CacheApp::launch(
            &mut kernel,
            CacheAppConfig {
                cache_bytes: 64 * MIB,
                write_rate: 0.0,
                miss_penalty: 0.4,
                refill_secs: 10.0,
                ..CacheAppConfig::default()
            },
            false,
            DetRng::new(3),
        );
        app.resumed_at = Some(SimTime::ZERO);
        let cold = app.warmth(SimTime::ZERO);
        assert!((cold - 0.6).abs() < 1e-9);
        let mid = app.warmth(SimTime::ZERO + SimDuration::from_secs(5));
        assert!((mid - 0.8).abs() < 1e-9);
        let warm = app.warmth(SimTime::ZERO + SimDuration::from_secs(20));
        assert!((warm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ops_accumulate_with_dt() {
        let mut kernel = boot();
        let mut app = CacheApp::launch(
            &mut kernel,
            CacheAppConfig {
                cache_bytes: 64 * MIB,
                ops_per_sec: 100.0,
                write_rate: 1e6,
                ..CacheAppConfig::default()
            },
            false,
            DetRng::new(3),
        );
        let mut now = SimTime::ZERO;
        for _ in 0..1000 {
            app.advance(now, SimDuration::from_millis(10), &mut kernel);
            now += SimDuration::from_millis(10);
        }
        let ops = app.ops_completed();
        assert!((995..=1005).contains(&ops), "ops {ops}");
    }
}
