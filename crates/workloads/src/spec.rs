//! Workload specifications: the heap-usage characteristics of one workload.

use jheap::config::{GcCostModel, JvmConfig};
use jheap::mutator::{MutatorProfile, SteadyMutator};

use simkit::SimDuration;

/// The paper's three workload categories (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// High object allocation rate, mostly short-lived objects; the Young
    /// generation quickly grows to its maximum (derby, compiler, xml,
    /// sunflow).
    HighAllocShortLived,
    /// Medium allocation rate, mostly short-lived objects (serial, crypto,
    /// mpeg, compress).
    MediumAllocShortLived,
    /// Low allocation rate, mostly long-lived objects: small Young, large
    /// Old generation (scimark).
    LowAllocLongLived,
}

impl Category {
    /// Category number as the paper labels them (1-3).
    pub fn number(self) -> u32 {
        match self {
            Category::HighAllocShortLived => 1,
            Category::MediumAllocShortLived => 2,
            Category::LowAllocLongLived => 3,
        }
    }
}

/// A complete workload model.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Workload name (Table 1).
    pub name: &'static str,
    /// Description (Table 1).
    pub description: &'static str,
    /// Heap-usage category.
    pub category: Category,
    /// Eden allocation rate, bytes/second.
    pub alloc_rate: f64,
    /// Fraction of Eden live at a minor GC.
    pub eden_survival: f64,
    /// Fraction of From surviving again (promoted).
    pub from_survival: f64,
    /// Long-lived Old-generation data resident at launch.
    pub old_resident: u64,
    /// Old-generation capacity; exceeding it triggers a full GC.
    pub old_max: u64,
    /// Old-generation working set actively rewritten.
    pub old_ws_bytes: u64,
    /// Old-generation rewrite rate, bytes/second.
    pub old_write_rate: f64,
    /// Operations per second of un-paused execution.
    pub ops_per_sec: f64,
    /// Upper bound on time-to-safepoint for asynchronous GC requests.
    pub safepoint_max: SimDuration,
    /// Default maximum Young generation size for this workload's
    /// experiments.
    pub default_young_max: u64,
    /// Ergonomics: grow the Young generation while GCs are closer together
    /// than this.
    pub grow_below_interval: SimDuration,
    /// Multiplier on GC pause costs (per-workload card/root scanning
    /// differences; compiler's GCs are the longest in Figure 5c).
    pub gc_cost_scale: f64,
}

impl WorkloadSpec {
    /// Builds the JVM configuration for this workload with the given
    /// maximum Young generation size.
    pub fn jvm_config(&self, young_max: u64) -> JvmConfig {
        let base = GcCostModel::default();
        let mut config = JvmConfig::with_young_max(young_max);
        config.old_resident = self.old_resident;
        config.old_max = self.old_max;
        config.grow_below_interval = self.grow_below_interval;
        config.gc_costs = GcCostModel {
            minor_base: base.minor_base,
            scan_cost_per_byte: base.scan_cost_per_byte * self.gc_cost_scale,
            copy_cost_per_byte: base.copy_cost_per_byte * self.gc_cost_scale,
            full_base: base.full_base,
            full_cost_per_byte: base.full_cost_per_byte,
        };
        config
    }

    /// The mutator profile this workload exhibits.
    pub fn profile(&self) -> MutatorProfile {
        MutatorProfile {
            alloc_rate: self.alloc_rate,
            old_write_rate: self.old_write_rate,
            old_ws_bytes: self.old_ws_bytes,
            ops_per_sec: self.ops_per_sec,
            eden_survival: self.eden_survival,
            from_survival: self.from_survival,
            safepoint_max: self.safepoint_max,
        }
    }

    /// Builds a boxed mutator for launching a JVM.
    pub fn mutator(&self) -> Box<SteadyMutator> {
        Box::new(SteadyMutator::new(self.name, self.profile()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::units::MIB;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "test",
            description: "test workload",
            category: Category::MediumAllocShortLived,
            alloc_rate: 100e6,
            eden_survival: 0.02,
            from_survival: 0.1,
            old_resident: 32 * MIB,
            old_max: 532 * MIB,
            old_ws_bytes: 16 * MIB,
            old_write_rate: 1e6,
            ops_per_sec: 10.0,
            safepoint_max: SimDuration::from_millis(100),
            default_young_max: 512 * MIB,
            grow_below_interval: SimDuration::from_secs(4),
            gc_cost_scale: 1.5,
        }
    }

    #[test]
    fn jvm_config_applies_scale_and_sizes() {
        let s = spec();
        let c = s.jvm_config(256 * MIB);
        assert_eq!(c.young_max, 256 * MIB);
        assert_eq!(c.old_resident, 32 * MIB);
        let base = GcCostModel::default();
        assert!((c.gc_costs.scan_cost_per_byte - base.scan_cost_per_byte * 1.5).abs() < 1e-15);
    }

    #[test]
    fn profile_mirrors_spec() {
        let s = spec();
        let p = s.profile();
        assert_eq!(p.alloc_rate, 100e6);
        assert_eq!(p.eden_survival, 0.02);
        assert_eq!(p.safepoint_max, SimDuration::from_millis(100));
    }

    #[test]
    fn category_numbers() {
        assert_eq!(Category::HighAllocShortLived.number(), 1);
        assert_eq!(Category::MediumAllocShortLived.number(), 2);
        assert_eq!(Category::LowAllocLongLived.number(), 3);
    }
}
