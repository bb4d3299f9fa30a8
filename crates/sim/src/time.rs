//! Integer simulated time.
//!
//! All simulated timing in this workspace is expressed in whole nanoseconds.
//! The paper's disk constants are exact in this unit (2.16 ms =
//! 2,160,000 ns; 0.03 ms = 30,000 ns), additions never lose precision, and
//! event ordering never depends on floating-point rounding.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulated clock, in nanoseconds since the
/// start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A non-negative span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch, `t = 0`.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs an instant from raw nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since the epoch.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in milliseconds (lossy, for reporting).
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1.0e6
    }

    /// This instant expressed in seconds (lossy, for reporting).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1.0e9
    }

    /// Span since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self`.
    #[must_use]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "since() requires earlier <= self ({} > {})",
            earlier.0,
            self.0
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Later of two instants.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Constructs a span from raw nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Constructs a span from whole microseconds.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Constructs a span from whole milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Constructs a span from fractional milliseconds, rounding to the
    /// nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or not finite.
    #[must_use]
    pub fn from_millis_f64(ms: f64) -> Self {
        assert!(
            ms.is_finite() && ms >= 0.0,
            "duration must be >= 0, got {ms}"
        );
        SimDuration((ms * 1.0e6).round() as u64)
    }

    /// Raw nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This span in milliseconds (lossy, for reporting).
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1.0e6
    }

    /// This span in seconds (lossy, for reporting).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1.0e9
    }

    /// `true` for the zero-length span.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[must_use]
    pub const fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("simulated time overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_add(rhs.0)
                .expect("simulated duration overflow"),
        )
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        assert!(self.0 >= rhs.0, "duration subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(
            self.0
                .checked_mul(rhs)
                .expect("simulated duration overflow"),
        )
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_are_exact() {
        assert_eq!(SimDuration::from_millis_f64(2.16).as_nanos(), 2_160_000);
        assert_eq!(SimDuration::from_millis_f64(8.33).as_nanos(), 8_330_000);
        assert_eq!(SimDuration::from_millis_f64(0.03).as_nanos(), 30_000);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(5);
        assert_eq!(t.as_nanos(), 5_000_000);
        let t2 = t + SimDuration::from_micros(1);
        assert_eq!((t2 - t).as_nanos(), 1_000);
        assert_eq!(t2.max(t), t2);
        assert_eq!(t.max(t2), t2);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(3);
        let b = SimDuration::from_millis(1);
        assert_eq!((a - b).as_millis_f64(), 2.0);
        assert_eq!((a + b).as_millis_f64(), 4.0);
        assert_eq!((a * 4).as_millis_f64(), 12.0);
        assert_eq!((a / 3).as_millis_f64(), 1.0);
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "earlier <= self")]
    fn since_rejects_future() {
        let t = SimTime::from_nanos(10);
        let _ = t.since(SimTime::from_nanos(20));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn duration_sub_underflow_panics() {
        let _ = SimDuration::from_nanos(1) - SimDuration::from_nanos(2);
    }

    #[test]
    #[should_panic(expected = "must be >= 0")]
    fn negative_millis_rejected() {
        let _ = SimDuration::from_millis_f64(-1.0);
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert!(SimDuration::from_nanos(1) < SimDuration::from_nanos(2));
        assert_eq!(SimDuration::from_millis(2).to_string(), "2.000ms");
    }

    #[test]
    fn conversions_round_trip() {
        let d = SimDuration::from_millis_f64(16.666667);
        assert!((d.as_millis_f64() - 16.666667).abs() < 1e-9);
        assert!((d.as_secs_f64() - 0.016666667).abs() < 1e-12);
    }
}
