//! Per-page metadata: content versions and content classes.
//!
//! The simulation does not store 4 KiB page bodies. Each page carries a
//! monotonically increasing *version* — bumped on every guest write — and a
//! *class* describing what kind of data lives there. Migration correctness
//! is then checkable exactly: the destination must hold the source's final
//! version for every page the protocol promises to transfer, and the class
//! drives the compressibility model of the §6 compression extension.
//!
//! [`crate::memory::GuestMemory`] stores both in one packed word per page;
//! [`PageInfo`] is the decoded view of that word.

/// What kind of content a page holds.
///
/// Classes matter for two things: background dirtying behaviour (kernel
/// pages churn slowly; Eden pages churn violently) and compression ratio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PageClass {
    /// Never-written, zero-filled memory.
    #[default]
    Zero,
    /// Guest kernel text/data.
    Kernel,
    /// Page-cache contents.
    PageCache,
    /// Ordinary process anonymous memory.
    Anon,
    /// JIT code cache.
    Code,
    /// Java heap, Young generation.
    HeapYoung,
    /// Java heap, Old generation.
    HeapOld,
    /// JVM metadata (metaspace, interned strings).
    JvmMeta,
    /// Application cache contents (e.g. memcached values, §6 extension).
    AppCache,
}

impl PageClass {
    /// All page classes, for table-driven accounting.
    pub const ALL: [PageClass; 9] = [
        PageClass::Zero,
        PageClass::Kernel,
        PageClass::PageCache,
        PageClass::Anon,
        PageClass::Code,
        PageClass::HeapYoung,
        PageClass::HeapOld,
        PageClass::JvmMeta,
        PageClass::AppCache,
    ];

    /// A stable dense index for per-class counters.
    pub fn index(self) -> usize {
        match self {
            PageClass::Zero => 0,
            PageClass::Kernel => 1,
            PageClass::PageCache => 2,
            PageClass::Anon => 3,
            PageClass::Code => 4,
            PageClass::HeapYoung => 5,
            PageClass::HeapOld => 6,
            PageClass::JvmMeta => 7,
            PageClass::AppCache => 8,
        }
    }

    /// A short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            PageClass::Zero => "zero",
            PageClass::Kernel => "kernel",
            PageClass::PageCache => "pagecache",
            PageClass::Anon => "anon",
            PageClass::Code => "code",
            PageClass::HeapYoung => "heap-young",
            PageClass::HeapOld => "heap-old",
            PageClass::JvmMeta => "jvm-meta",
            PageClass::AppCache => "app-cache",
        }
    }

    /// A representative compression ratio (compressed/original) for the
    /// page's content, used by the §6 selective-compression extension.
    ///
    /// Values follow common observations: zero pages collapse entirely,
    /// text-like data compresses well, pointer-dense heap data moderately,
    /// code poorly.
    pub fn compression_ratio(self) -> f64 {
        match self {
            PageClass::Zero => 0.01,
            PageClass::Kernel => 0.55,
            PageClass::PageCache => 0.45,
            PageClass::Anon => 0.50,
            PageClass::Code => 0.75,
            PageClass::HeapYoung => 0.40,
            PageClass::HeapOld => 0.45,
            PageClass::JvmMeta => 0.35,
            PageClass::AppCache => 0.60,
        }
    }
}

/// Metadata for one guest page: the decoded view of its
/// [`crate::memory::GuestMemory`] word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageInfo {
    /// Content version; 0 means never written.
    pub version: u64,
    /// Current content class.
    pub class: PageClass,
}

impl PageInfo {
    /// Returns `true` when the page has never been written.
    pub fn is_pristine(&self) -> bool {
        self.version == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_pristine_zero() {
        let p = PageInfo::default();
        assert!(p.is_pristine());
        assert_eq!(p.class, PageClass::Zero);
    }

    #[test]
    fn indices_are_dense_and_unique() {
        let mut seen = [false; PageClass::ALL.len()];
        for class in PageClass::ALL {
            let i = class.index();
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
            assert!(!class.label().is_empty());
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn ratios_are_sane() {
        for class in PageClass::ALL {
            let r = class.compression_ratio();
            assert!((0.0..=1.0).contains(&r), "{class:?} ratio {r}");
        }
        assert!(PageClass::Zero.compression_ratio() < PageClass::Code.compression_ratio());
    }
}
