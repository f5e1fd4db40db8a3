//! Simulated time: instants and durations with nanosecond resolution.
//!
//! All components of the simulation share a single notion of time, anchored
//! at the start of an experiment. Nanosecond `u64` arithmetic gives ~584
//! years of range, far beyond any migration run, while keeping every
//! computation exact and deterministic.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of simulated time.
///
/// # Examples
///
/// ```
/// use simkit::time::SimDuration;
///
/// let d = SimDuration::from_millis(1500);
/// assert_eq!(d.as_secs_f64(), 1.5);
/// assert_eq!(d, SimDuration::from_secs(1) + SimDuration::from_millis(500));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: Self = Self(0);
    /// The maximum representable duration.
    pub const MAX: Self = Self(u64::MAX);

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Self(ns)
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Self(us * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to nanoseconds.
    ///
    /// Negative and non-finite inputs saturate to zero; values too large to
    /// represent saturate to [`SimDuration::MAX`].
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return Self::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            Self::MAX
        } else {
            Self(ns.round() as u64)
        }
    }

    /// Returns the duration in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration in whole microseconds, truncating.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the duration in whole seconds, truncating.
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Returns the duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns `true` when the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Adds two durations, saturating at [`SimDuration::MAX`].
    pub const fn saturating_add(self, rhs: Self) -> Self {
        Self(self.0.saturating_add(rhs.0))
    }

    /// Subtracts `rhs`, saturating at zero.
    pub const fn saturating_sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies the duration by a fractional factor, saturating.
    pub fn mul_f64(self, factor: f64) -> Self {
        Self::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: Self) -> Self {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: Self) -> Self {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for SimDuration {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = Self;
    fn mul(self, rhs: u64) -> Self {
        Self(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = Self;
    fn div(self, rhs: u64) -> Self {
        Self(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |acc, d| acc.saturating_add(d))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// An instant of simulated time, measured from the start of the experiment.
///
/// # Examples
///
/// ```
/// use simkit::time::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_secs(2);
/// assert_eq!(t.elapsed_since(SimTime::ZERO), SimDuration::from_secs(2));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The experiment epoch.
    pub const ZERO: Self = Self(0);

    /// Creates an instant `ns` nanoseconds after the epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        Self(ns)
    }

    /// Returns nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn elapsed_since(self, earlier: Self) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("elapsed_since: earlier instant is in the future"),
        )
    }

    /// Returns the duration since `earlier`, or zero if `earlier` is later.
    pub const fn saturating_since(self, earlier: Self) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = Self;
    fn add(self, rhs: SimDuration) -> Self {
        Self(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = Self;
    fn sub(self, rhs: SimDuration) -> Self {
        Self(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: Self) -> SimDuration {
        self.elapsed_since(rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1000));
    }

    #[test]
    fn duration_float_roundtrip() {
        let d = SimDuration::from_secs_f64(0.125);
        assert_eq!(d.as_nanos(), 125_000_000);
        assert_eq!(d.as_secs_f64(), 0.125);
    }

    #[test]
    fn duration_float_saturates() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1e30), SimDuration::MAX);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(300);
        let b = SimDuration::from_millis(200);
        assert_eq!(a + b, SimDuration::from_millis(500));
        assert_eq!(a - b, SimDuration::from_millis(100));
        assert_eq!(a * 3, SimDuration::from_millis(900));
        assert_eq!(a / 3, SimDuration::from_millis(100));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::ZERO + SimDuration::from_secs(5);
        let t1 = t0 + SimDuration::from_millis(250);
        assert_eq!(t1 - t0, SimDuration::from_millis(250));
        assert_eq!(t0.saturating_since(t1), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "earlier instant is in the future")]
    fn elapsed_since_panics_on_future() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_secs(1);
        let _ = t0.elapsed_since(t1);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimDuration::from_micros(5).to_string(), "5.000us");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }
}
