//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access, so the workspace vendors
//! the tiny slice of `rand`'s API it actually consumes: the [`RngCore`]
//! trait that `simkit`'s deterministic generator implements so it can be
//! plugged into `rand`-based consumers. The trait contract matches
//! `rand_core` 0.9.

/// A random number generator core, mirroring `rand_core::RngCore`.
pub trait RngCore {
    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32;

    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}
