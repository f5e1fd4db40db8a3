#![warn(missing_docs)]
//! `vmem` — the guest memory substrate of the JAVMM reproduction.
//!
//! Models everything the migration machinery needs from a VM's memory:
//!
//! * pseudo-physical pages with content versions ([`memory::GuestMemory`],
//!   one packed word per page, decoded as [`page::PageInfo`]) — versions
//!   make migration correctness exactly checkable at the destination;
//! * the hypervisor's log-dirty mode ([`dirty::DirtyLog`]) with first-touch
//!   fault reporting, the mechanism behind pre-copy and its overhead;
//! * the framework's transfer bitmap ([`transfer::TransferBitmap`]);
//! * per-process page tables ([`pagetable::PageTable`]), stored as
//!   512-entry leaf arrays as on x86-64 but with 32-bit entries, for the VA→PFN
//!   semantic-gap bridging of §3.3.2. The LKM's PFN cache, which answers
//!   skip-over-area shrink notifications after frames were reclaimed
//!   (§3.3.4), is a page table too.

pub mod addr;
pub mod bitmap;
pub mod dirty;
pub mod layout;
pub mod memory;
pub mod page;
pub mod pagetable;
pub mod transfer;

pub use addr::{Pfn, VaRange, Vaddr, PAGE_SIZE};
pub use bitmap::Bitmap;
pub use dirty::DirtyLog;
pub use layout::VmSpec;
pub use memory::GuestMemory;
pub use page::{PageClass, PageInfo};
pub use pagetable::PageTable;
pub use transfer::TransferBitmap;
