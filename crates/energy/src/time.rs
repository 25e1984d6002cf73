//! Simulation time, kept as integer nanoseconds.
//!
//! Using an integer base unit keeps long simulations free of floating-point
//! drift; conversions to seconds happen only at the electrical-integration
//! boundary.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulation clock, in nanoseconds since power-up of the
/// test bench.
///
/// `SimTime` is a monotonically non-decreasing counter owned by the
/// simulation harness; components receive it read-only so that their
/// behaviour can depend on wall-clock-like time (harvest profiles, UART
/// baud intervals) without owning a clock themselves.
///
/// # Example
///
/// ```
/// use edb_energy::SimTime;
/// let t = SimTime::from_ms(2).advance_ns(500);
/// assert_eq!(t.as_ns(), 2_000_500);
/// assert!(t > SimTime::from_us(1999));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of simulation time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from raw nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanosecond count.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Time expressed in (floating-point) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Time expressed in (floating-point) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 * 1e-6
    }

    /// Returns this instant advanced by `ns` nanoseconds.
    #[must_use]
    pub const fn advance_ns(self, ns: u64) -> Self {
        SimTime(self.0 + ns)
    }

    /// Returns this instant advanced by a floating-point number of seconds
    /// (rounded to the nearest nanosecond).
    #[must_use]
    pub fn advance_secs(self, secs: f64) -> Self {
        SimTime(self.0 + (secs * 1e9).round() as u64)
    }

    /// This instant advanced by `rhs`, saturating at the end of the
    /// clock instead of overflowing.
    #[must_use]
    pub const fn saturating_add(self, rhs: SimTime) -> Self {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// The elapsed time since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.6}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(1).as_ns(), 1_000_000_000);
        assert_eq!(SimTime::from_ms(3).as_ns(), 3_000_000);
        assert_eq!(SimTime::from_us(7).as_ns(), 7_000);
        assert!((SimTime::from_ms(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn advance_and_since() {
        let a = SimTime::from_us(10);
        let b = a.advance_ns(250);
        assert_eq!(b.since(a).as_ns(), 250);
        assert_eq!(a.since(b), SimTime::ZERO);
    }

    #[test]
    fn advance_secs_rounds_to_ns() {
        let t = SimTime::ZERO.advance_secs(250e-9);
        assert_eq!(t.as_ns(), 250);
    }

    #[test]
    fn ordering_and_arithmetic() {
        let a = SimTime::from_ms(1);
        let b = SimTime::from_ms(2);
        assert!(a < b);
        assert_eq!((b - a).as_ns(), 1_000_000);
        assert_eq!((a + b).as_ns(), 3_000_000);
    }

    #[test]
    fn display_picks_readable_unit() {
        assert_eq!(format!("{}", SimTime::from_ns(12)), "12ns");
        assert_eq!(format!("{}", SimTime::from_ms(5)), "5.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(2)), "2.000000s");
    }
}
