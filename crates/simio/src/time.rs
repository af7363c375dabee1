//! Simulation time.
//!
//! Time is modelled as seconds since the start of the simulation, stored in
//! an `f64`. The newtype guarantees the value is finite and non-negative,
//! which gives us a total order ([`Ord`]) that the event queue relies on.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in seconds since simulation start.
///
/// Construction is checked: `SimTime` values are always finite and
/// non-negative, so they form a total order and can be used as binary-heap
/// keys without `PartialOrd` escape hatches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTime(f64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time point from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or infinite.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime must be finite and non-negative, got {secs}"
        );
        SimTime(secs)
    }

    /// Returns the time as seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The later of two time points.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two time points.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Values are guaranteed finite, so total_cmp agrees with the
        // arithmetic order.
        self.0.total_cmp(&other.0)
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;

    #[inline]
    fn add(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 + rhs)
    }
}

impl AddAssign<f64> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: f64) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = f64;

    #[inline]
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl Default for SimTime {
    fn default() -> Self {
        SimTime::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_default() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
        assert_eq!(SimTime::ZERO.as_secs(), 0.0);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1.5) + 0.5;
        assert_eq!(t.as_secs(), 2.0);
        assert_eq!(t - SimTime::from_secs(0.5), 1.5);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_negative() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_nan() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn add_assign_advances() {
        let mut t = SimTime::ZERO;
        t += 2.5;
        assert_eq!(t.as_secs(), 2.5);
    }
}
