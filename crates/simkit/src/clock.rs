//! The simulation clock shared by every component of an experiment.

use crate::time::{SimDuration, SimTime};

/// A monotonically advancing simulated clock.
///
/// The co-simulation driver owns the clock and advances it in small quanta;
/// everything else reads it. Keeping a single clock per experiment is what
/// makes runs deterministic and lets an "external" throughput analyzer
/// observe VM pauses, as the paper's probe does.
///
/// # Examples
///
/// ```
/// use simkit::clock::SimClock;
/// use simkit::time::SimDuration;
///
/// let mut clock = SimClock::new();
/// clock.advance(SimDuration::from_millis(3));
/// assert_eq!(clock.now().as_nanos(), 3_000_000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: SimTime,
}

impl SimClock {
    /// Creates a clock at the experiment epoch.
    pub fn new() -> Self {
        Self { now: SimTime::ZERO }
    }

    /// Returns the current instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock by `dt` and returns the new instant.
    pub fn advance(&mut self, dt: SimDuration) -> SimTime {
        self.now += dt;
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_epoch() {
        assert_eq!(SimClock::new().now(), SimTime::ZERO);
    }

    #[test]
    fn advance_accumulates() {
        let mut c = SimClock::new();
        c.advance(SimDuration::from_secs(1));
        c.advance(SimDuration::from_millis(500));
        assert_eq!(c.now().as_secs_f64(), 1.5);
    }
}
