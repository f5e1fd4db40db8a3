//! Continuous checkpoint replication with memory deprotection.
//!
//! The paper's closest relative is RemusDB (§2): a high-availability system
//! that continuously replicates VM checkpoints and explores *omitting
//! selective memory contents* from them based on application input — the
//! same insight as skip-over areas, applied to replication instead of
//! migration ("these contents also need no replication in high-availability
//! systems", §3.1).
//!
//! [`CheckpointEngine`] implements a Remus-style epoch loop: run the VM for
//! an epoch, stall it briefly to snapshot the pages dirtied during the
//! epoch, resume it while the snapshot streams to the backup. With
//! assistance enabled, pages in skip-over areas are *deprotected* — left
//! out of every checkpoint — so a Java VM's Young-generation churn stops
//! inflating the replication stream.

use crate::vmhost::MigratableVm;
use guestos::CoordPayload;
use netsim::PAGE_HEADER_BYTES;
use simkit::units::Bandwidth;
use simkit::{SimClock, SimDuration};
use vmem::{Pfn, PAGE_SIZE};

/// Configuration of the checkpoint replicator.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Epoch length (Remus uses tens to hundreds of milliseconds).
    pub interval: SimDuration,
    /// Number of epochs to replicate.
    pub epochs: u32,
    /// Consult the guest LKM's transfer bitmap (memory deprotection).
    pub assisted: bool,
    /// Replication link bandwidth.
    pub bandwidth: Bandwidth,
    /// Co-simulation quantum while the VM runs.
    pub quantum: SimDuration,
    /// Copy cost per snapshotted page (the stop-and-copy-to-buffer stall).
    pub snapshot_cost_per_page: SimDuration,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        Self {
            interval: SimDuration::from_millis(200),
            epochs: 50,
            assisted: false,
            bandwidth: Bandwidth::gigabit_ethernet(),
            quantum: SimDuration::from_millis(1),
            snapshot_cost_per_page: SimDuration::from_nanos(350),
        }
    }
}

/// What one epoch did.
#[derive(Debug, Clone, Copy)]
pub struct EpochStats {
    /// Pages captured into the checkpoint.
    pub pages: u64,
    /// Pages left out thanks to deprotection.
    pub pages_deprotected: u64,
    /// Bytes put on the replication stream.
    pub bytes: u64,
    /// VM stall while the snapshot was taken.
    pub stall: SimDuration,
    /// Extra time the epoch stretched because the link had backlog.
    pub backlog_wait: SimDuration,
}

/// Aggregate replication report.
#[derive(Debug, Clone)]
pub struct CheckpointReport {
    /// Per-epoch statistics.
    pub epochs: Vec<EpochStats>,
    /// Total wall time.
    pub total_duration: SimDuration,
    /// Total replication traffic.
    pub total_bytes: u64,
    /// Sum of VM stalls.
    pub total_stall: SimDuration,
}

impl CheckpointReport {
    /// Mean checkpoint size in bytes.
    pub fn mean_bytes(&self) -> f64 {
        if self.epochs.is_empty() {
            0.0
        } else {
            self.total_bytes as f64 / self.epochs.len() as f64
        }
    }
}

/// The Remus-style checkpoint replicator.
#[derive(Debug, Clone)]
pub struct CheckpointEngine {
    config: CheckpointConfig,
}

impl CheckpointEngine {
    /// Creates an engine.
    pub fn new(config: CheckpointConfig) -> Self {
        Self { config }
    }

    /// Replicates `vm` for the configured number of epochs over a
    /// dedicated replication NIC at the configured bandwidth, which decides
    /// how much backlog one epoch absorbs and how long the guest throttles
    /// when the stream falls behind.
    ///
    /// # Panics
    ///
    /// Panics if assistance is requested but the guest has no LKM.
    pub fn replicate(&self, vm: &mut dyn MigratableVm, clock: &mut SimClock) -> CheckpointReport {
        let t0 = clock.now();
        let port = if self.config.assisted {
            Some(
                vm.daemon_port()
                    .expect("assisted checkpointing requires a loaded LKM"),
            )
        } else {
            None
        };

        vm.kernel_mut().memory_mut().dirty_log_mut().enable();
        if let Some(port) = &port {
            // Protection begins: the LKM queries applications and performs
            // the first bitmap update, as for a migration.
            port.send(clock.now(), CoordPayload::MigrationBegin);
        }

        let mut epochs = Vec::with_capacity(self.config.epochs as usize);
        let mut backlog_bytes = 0u64;

        for _ in 0..self.config.epochs {
            // Run the epoch.
            let mut ran = SimDuration::ZERO;
            while ran < self.config.interval {
                let dt = self.config.quantum.min(self.config.interval - ran);
                vm.advance_guest(clock.now(), dt);
                clock.advance(dt);
                ran += dt;
            }

            // Snapshot: brief stall proportional to the pages captured.
            let snapshot = vm
                .kernel_mut()
                .memory_mut()
                .dirty_log_mut()
                .read_and_clear();
            let mut pages = 0u64;
            let mut deprotected = 0u64;
            for pfn in snapshot.iter_set() {
                if self.skip(vm, pfn) {
                    deprotected += 1;
                } else {
                    pages += 1;
                }
            }
            let stall = self.config.snapshot_cost_per_page * pages;
            clock.advance(stall);

            // Stream asynchronously: backlog carries into the next epoch;
            // if it exceeds one epoch of link capacity, the VM must wait
            // (Remus throttles the guest when the link falls behind).
            let bytes = pages * (PAGE_SIZE + PAGE_HEADER_BYTES);
            backlog_bytes += bytes;
            let capacity = self.config.bandwidth.bytes_in(self.config.interval);
            let backlog_wait = if backlog_bytes > capacity {
                let excess = backlog_bytes - capacity;
                backlog_bytes = capacity;
                let wait = self.config.bandwidth.time_to_send(excess);
                clock.advance(wait);
                wait
            } else {
                backlog_bytes = backlog_bytes.saturating_sub(capacity);
                SimDuration::ZERO
            };

            epochs.push(EpochStats {
                pages,
                pages_deprotected: deprotected,
                bytes,
                stall,
                backlog_wait,
            });
        }

        vm.kernel_mut().memory_mut().dirty_log_mut().disable();
        let total_bytes = epochs.iter().map(|e| e.bytes).sum();
        let total_stall = epochs.iter().map(|e| e.stall).sum();
        CheckpointReport {
            epochs,
            total_duration: clock.now().saturating_since(t0),
            total_bytes,
            total_stall,
        }
    }

    fn skip(&self, vm: &dyn MigratableVm, pfn: Pfn) -> bool {
        if !self.config.assisted {
            return false;
        }
        match vm.kernel().lkm() {
            Some(lkm) => !lkm.should_transfer(pfn),
            None => false,
        }
    }
}
