//! The SPECjvm2008-like workload catalog (Table 1).
//!
//! Each model is calibrated against the paper's measurements:
//!
//! * **Table 2/3** — observed Young/Old generation sizes at migration time
//!   (via allocation rate × ergonomics growth, resident Old data, and
//!   promotion rate);
//! * **Figure 5** — heap consumption, garbage ratios, and minor-GC
//!   durations;
//! * **§4.2** — Category-1 workloads fill a 1 GiB Young generation every
//!   ~3 seconds; derby's enforced GC takes ~0.9 s; compiler's GCs are the
//!   longest (~1.5 s); scimark keeps mostly long-lived data and rewrites
//!   a large Old-generation working set (the LU factorization matrices).

use crate::spec::{Category, WorkloadSpec};
use simkit::units::MIB;
use simkit::SimDuration;

/// Apache Derby database with business logic.
pub fn derby() -> WorkloadSpec {
    WorkloadSpec {
        name: "derby",
        description: "Apache Derby database with business logic",
        category: Category::HighAllocShortLived,
        alloc_rate: 380e6,
        eden_survival: 0.012,
        from_survival: 0.16,
        old_resident: 40 * MIB,
        old_max: 540 * MIB,
        old_ws_bytes: 30 * MIB,
        old_write_rate: 3e6,
        ops_per_sec: 0.78,
        safepoint_max: SimDuration::from_millis(150),
        default_young_max: 1024 * MIB,
        grow_below_interval: SimDuration::from_secs(4),
        gc_cost_scale: 1.0,
    }
}

/// OpenJDK 7 front-end compiler.
pub fn compiler() -> WorkloadSpec {
    WorkloadSpec {
        name: "compiler",
        description: "OpenJDK 7 front-end compiler",
        category: Category::HighAllocShortLived,
        alloc_rate: 250e6,
        eden_survival: 0.05,
        from_survival: 0.015,
        old_resident: 60 * MIB,
        old_max: 560 * MIB,
        old_ws_bytes: 20 * MIB,
        old_write_rate: 2e6,
        ops_per_sec: 18.0,
        safepoint_max: SimDuration::from_millis(1400),
        default_young_max: 512 * MIB,
        grow_below_interval: SimDuration::from_secs(4),
        gc_cost_scale: 1.4,
    }
}

/// Apply style sheets to XML documents.
pub fn xml() -> WorkloadSpec {
    WorkloadSpec {
        name: "xml",
        description: "Apply style sheets to XML documents",
        category: Category::HighAllocShortLived,
        alloc_rate: 400e6,
        eden_survival: 0.012,
        from_survival: 0.01,
        old_resident: 20 * MIB,
        old_max: 520 * MIB,
        old_ws_bytes: 10 * MIB,
        old_write_rate: 1e6,
        ops_per_sec: 28.0,
        safepoint_max: SimDuration::from_millis(300),
        default_young_max: 1536 * MIB,
        grow_below_interval: SimDuration::from_secs(4),
        gc_cost_scale: 0.9,
    }
}

/// An open-source image rendering system.
pub fn sunflow() -> WorkloadSpec {
    WorkloadSpec {
        name: "sunflow",
        description: "An open-source image rendering system",
        category: Category::HighAllocShortLived,
        alloc_rate: 300e6,
        eden_survival: 0.02,
        from_survival: 0.05,
        old_resident: 40 * MIB,
        old_max: 540 * MIB,
        old_ws_bytes: 20 * MIB,
        old_write_rate: 1.5e6,
        ops_per_sec: 4.2,
        safepoint_max: SimDuration::from_millis(400),
        default_young_max: 1024 * MIB,
        grow_below_interval: SimDuration::from_secs(4),
        gc_cost_scale: 1.0,
    }
}

/// Serialize and deserialize primitives and objects.
pub fn serial() -> WorkloadSpec {
    WorkloadSpec {
        name: "serial",
        description: "Serialize and deserialize primitives and objects",
        category: Category::MediumAllocShortLived,
        alloc_rate: 100e6,
        eden_survival: 0.02,
        from_survival: 0.05,
        old_resident: 45 * MIB,
        old_max: 545 * MIB,
        old_ws_bytes: 20 * MIB,
        old_write_rate: 2e6,
        ops_per_sec: 24.0,
        safepoint_max: SimDuration::from_millis(100),
        default_young_max: 1024 * MIB,
        grow_below_interval: SimDuration::from_secs(3),
        gc_cost_scale: 1.0,
    }
}

/// Sign and verify with cryptographic hashes.
pub fn crypto() -> WorkloadSpec {
    WorkloadSpec {
        name: "crypto",
        description: "Sign and verify with cryptographic hashes",
        category: Category::MediumAllocShortLived,
        alloc_rate: 190e6,
        eden_survival: 0.008,
        from_survival: 0.01,
        old_resident: 12 * MIB,
        old_max: 512 * MIB,
        old_ws_bytes: 8 * MIB,
        old_write_rate: 1e6,
        ops_per_sec: 32.0,
        safepoint_max: SimDuration::from_millis(120),
        default_young_max: 1024 * MIB,
        grow_below_interval: SimDuration::from_millis(1900),
        gc_cost_scale: 1.0,
    }
}

/// Compute the LU factorization of matrices.
pub fn scimark() -> WorkloadSpec {
    WorkloadSpec {
        name: "scimark",
        description: "Compute the LU factorization of matrices",
        category: Category::LowAllocLongLived,
        alloc_rate: 22e6,
        eden_survival: 0.12,
        from_survival: 0.15,
        old_resident: 430 * MIB,
        old_max: 560 * MIB,
        old_ws_bytes: 130 * MIB,
        old_write_rate: 500e6,
        ops_per_sec: 0.33,
        safepoint_max: SimDuration::from_millis(200),
        default_young_max: 1024 * MIB,
        grow_below_interval: SimDuration::from_secs(4),
        // Scimark's minor GCs trace pointer-dense matrix blocks: slow per
        // byte. This is the paper's point that for long-lived data,
        // collection may not beat transmission.
        gc_cost_scale: 4.0,
    }
}

/// MP3 decoding.
pub fn mpeg() -> WorkloadSpec {
    WorkloadSpec {
        name: "mpeg",
        description: "MP3 decoding",
        category: Category::MediumAllocShortLived,
        alloc_rate: 70e6,
        eden_survival: 0.015,
        from_survival: 0.03,
        old_resident: 40 * MIB,
        old_max: 540 * MIB,
        old_ws_bytes: 15 * MIB,
        old_write_rate: 1e6,
        ops_per_sec: 58.0,
        safepoint_max: SimDuration::from_millis(50),
        default_young_max: 1024 * MIB,
        grow_below_interval: SimDuration::from_millis(2500),
        gc_cost_scale: 1.0,
    }
}

/// Compression by a modified Lempel-Ziv method.
pub fn compress() -> WorkloadSpec {
    WorkloadSpec {
        name: "compress",
        description: "Compression by a modified Lempel-Ziv method",
        category: Category::MediumAllocShortLived,
        alloc_rate: 90e6,
        eden_survival: 0.02,
        from_survival: 0.04,
        old_resident: 50 * MIB,
        old_max: 550 * MIB,
        old_ws_bytes: 25 * MIB,
        old_write_rate: 2e6,
        ops_per_sec: 44.0,
        safepoint_max: SimDuration::from_millis(80),
        default_young_max: 1024 * MIB,
        grow_below_interval: SimDuration::from_secs(3),
        gc_cost_scale: 1.0,
    }
}

/// A Jython-like workload (§6: "applications written in other languages
/// that run on JVM and use JVM's garbage collectors... Jython, an
/// implementation of Python... can leverage JAVMM as it is").
///
/// Dynamic-language runtimes box aggressively: very high allocation rates
/// of very short-lived objects — squarely Category 1.
pub fn jython_like() -> WorkloadSpec {
    WorkloadSpec {
        name: "jython",
        description: "Python-on-JVM web request handling (Jython)",
        category: Category::HighAllocShortLived,
        alloc_rate: 320e6,
        eden_survival: 0.015,
        from_survival: 0.05,
        old_resident: 70 * MIB,
        old_max: 570 * MIB,
        old_ws_bytes: 25 * MIB,
        old_write_rate: 2e6,
        ops_per_sec: 850.0,
        safepoint_max: SimDuration::from_millis(60),
        default_young_max: 1024 * MIB,
        grow_below_interval: SimDuration::from_secs(4),
        gc_cost_scale: 1.0,
    }
}

/// A JRuby-like workload (§6; Ruby-on-JVM application serving).
pub fn jruby_like() -> WorkloadSpec {
    WorkloadSpec {
        name: "jruby",
        description: "Ruby-on-JVM application serving (JRuby)",
        category: Category::HighAllocShortLived,
        alloc_rate: 260e6,
        eden_survival: 0.02,
        from_survival: 0.06,
        old_resident: 90 * MIB,
        old_max: 590 * MIB,
        old_ws_bytes: 30 * MIB,
        old_write_rate: 2.5e6,
        ops_per_sec: 620.0,
        safepoint_max: SimDuration::from_millis(80),
        default_young_max: 1024 * MIB,
        grow_below_interval: SimDuration::from_secs(4),
        gc_cost_scale: 1.0,
    }
}

/// All nine workloads in the paper's Table 1 order.
pub fn all() -> Vec<WorkloadSpec> {
    vec![
        derby(),
        compiler(),
        xml(),
        sunflow(),
        serial(),
        crypto(),
        scimark(),
        mpeg(),
        compress(),
    ]
}

/// Every workload [`by_name`] knows: the nine of [`all`], then the §6
/// JVM-language workloads `jython` and `jruby`.
pub fn known() -> Vec<WorkloadSpec> {
    let mut known = all();
    known.extend([jython_like(), jruby_like()]);
    known
}

/// Looks a workload up by name among [`known`].
pub fn by_name(name: &str) -> Option<WorkloadSpec> {
    known().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_nine_unique_workloads() {
        let names: Vec<&str> = all().iter().map(|w| w.name).collect();
        assert_eq!(names.len(), 9);
        let set: std::collections::BTreeSet<&&str> = names.iter().collect();
        assert_eq!(set.len(), 9);
    }

    #[test]
    fn categories_match_the_paper() {
        for w in ["derby", "compiler", "xml", "sunflow"] {
            assert_eq!(by_name(w).unwrap().category.number(), 1, "{w}");
        }
        for w in ["serial", "crypto", "mpeg", "compress"] {
            assert_eq!(by_name(w).unwrap().category.number(), 2, "{w}");
        }
        assert_eq!(by_name("scimark").unwrap().category.number(), 3);
    }

    #[test]
    fn category1_outpaces_gigabit() {
        // Observation 1: Category-1 dirtying beats the link, which is what
        // breaks vanilla pre-copy.
        let gigabit = 117.5e6;
        for w in all() {
            if w.category.number() == 1 {
                assert!(w.alloc_rate > gigabit, "{} too slow", w.name);
            }
        }
    }

    #[test]
    fn survival_fractions_follow_observation_2() {
        // >97% of the Young generation is garbage for everything but
        // scimark (Figure 5b).
        for w in all() {
            if w.name == "scimark" {
                assert!(w.eden_survival > 0.1);
                continue;
            } else {
                assert!(w.eden_survival < 0.06, "{}", w.name);
            }
        }
    }

    #[test]
    fn by_name_misses_gracefully() {
        assert!(by_name("nosuch").is_none());
    }

    #[test]
    fn jvm_language_workloads_are_category1() {
        for w in [jython_like(), jruby_like()] {
            assert_eq!(w.category.number(), 1, "{}", w.name);
            assert!(w.alloc_rate > 117.5e6, "{} must outpace gigabit", w.name);
        }
        assert!(by_name("jython").is_some());
        assert!(by_name("jruby").is_some());
    }
}
