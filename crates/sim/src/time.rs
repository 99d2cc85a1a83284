//! Virtual time for discrete-event simulation.
//!
//! Time is measured in integer **picoseconds** stored in a `u64`. This gives
//! exact arithmetic (no floating-point drift when summing millions of device
//! events) while still representing ~213 days of simulated time — far beyond
//! any experiment in the paper. Picosecond resolution is required because a
//! single 8-byte read over a 125 GB/s DRAM interface occupies only 64 ps.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per nanosecond.
const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
const PS_PER_S: u64 = 1_000_000_000_000;

/// A span of virtual time (picosecond resolution).
///
/// `SimDuration` is the additive companion of [`SimTime`]: durations add to
/// durations and to times, times subtract to durations.
///
/// # Example
///
/// ```
/// use smartsage_sim::SimDuration;
/// let page_read = SimDuration::from_micros(50);
/// let bus = SimDuration::from_nanos(400);
/// assert!(page_read > bus);
/// assert_eq!((page_read + bus).as_nanos_f64(), 50_400.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw picoseconds.
    #[inline]
    pub const fn from_picos(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Creates a duration from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }

    /// Creates a duration from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }

    /// Creates a duration from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * PS_PER_MS)
    }

    /// Creates a duration from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * PS_PER_S)
    }

    /// Creates a duration from a floating-point second count,
    /// rounding to the nearest picosecond. Negative inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((s * PS_PER_S as f64).round() as u64)
    }

    /// Raw picoseconds.
    #[inline]
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// Duration in (truncated) nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0 / PS_PER_NS
    }

    /// Duration in nanoseconds as `f64`.
    #[inline]
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Duration in microseconds as `f64`.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Duration in milliseconds as `f64`.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }

    /// Duration in seconds as `f64`.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Saturating subtraction; returns [`SimDuration::ZERO`] on underflow.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies the duration by an integer count.
    ///
    /// # Panics
    ///
    /// Panics on overflow in debug builds (saturates in release via
    /// `saturating_mul` is intentionally *not* used: overflow here indicates
    /// a modelling bug).
    #[inline]
    pub fn mul_u64(self, n: u64) -> SimDuration {
        SimDuration(self.0 * n)
    }

    /// Scales the duration by a floating-point factor (clamped at zero).
    #[inline]
    pub fn mul_f64(self, f: f64) -> SimDuration {
        if f <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((self.0 as f64 * f).round() as u64)
    }

    /// Ratio between two durations as `f64`. Returns 0.0 when `rhs` is zero.
    #[inline]
    pub fn ratio(self, rhs: SimDuration) -> f64 {
        if rhs.0 == 0 {
            0.0
        } else {
            self.0 as f64 / rhs.0 as f64
        }
    }

    /// `true` if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    /// # Panics
    /// Panics on underflow; use [`SimDuration::saturating_sub`] when the
    /// operands are not known to be ordered.
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        self.mul_u64(rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    /// Panics if `rhs` is zero.
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= PS_PER_S {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ps >= PS_PER_MS {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ps >= PS_PER_US {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else if ps >= PS_PER_NS {
            write!(f, "{:.3}ns", self.as_nanos_f64())
        } else {
            write!(f, "{ps}ps")
        }
    }
}

/// An absolute instant on the virtual timeline (picoseconds since epoch).
///
/// # Example
///
/// ```
/// use smartsage_sim::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_micros(3);
/// assert_eq!(t.elapsed_since(SimTime::ZERO), SimDuration::from_micros(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from raw picoseconds since the epoch.
    #[inline]
    pub const fn from_picos(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Time since the epoch as a duration.
    #[inline]
    pub const fn since_epoch(self) -> SimDuration {
        SimDuration(self.0)
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    #[inline]
    pub fn elapsed_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0 - earlier.0)
    }

    /// Duration elapsed since `earlier`, clamping to zero if `earlier`
    /// is actually later.
    #[inline]
    pub fn saturating_elapsed_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    /// # Panics
    /// Panics if the result would precede the epoch.
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// # Panics
    /// Panics if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", self.since_epoch())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_unit_conversions_are_exact() {
        assert_eq!(SimDuration::from_nanos(1).as_picos(), 1_000);
        assert_eq!(SimDuration::from_micros(1).as_picos(), 1_000_000);
        assert_eq!(SimDuration::from_millis(1).as_picos(), 1_000_000_000);
        assert_eq!(SimDuration::from_secs(1).as_picos(), 1_000_000_000_000);
        assert_eq!(SimDuration::from_secs(2).as_secs_f64(), 2.0);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_nanos(100);
        let b = SimDuration::from_nanos(50);
        assert_eq!(a + b, SimDuration::from_nanos(150));
        assert_eq!(a - b, SimDuration::from_nanos(50));
        assert_eq!(a * 3, SimDuration::from_nanos(300));
        assert_eq!(a / 4, SimDuration::from_nanos(25));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        assert_eq!(a.ratio(b), 2.0);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn duration_from_float_rounds_and_clamps() {
        assert_eq!(SimDuration::from_secs_f64(0.001).as_picos(), PS_PER_MS);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn time_ordering_and_elapsed() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_micros(10);
        let t2 = t1 + SimDuration::from_micros(5);
        assert!(t0 < t1 && t1 < t2);
        assert_eq!(t2.elapsed_since(t0), SimDuration::from_micros(15));
        assert_eq!(t2 - t1, SimDuration::from_micros(5));
        assert_eq!(t0.saturating_elapsed_since(t2), SimDuration::ZERO);
        assert_eq!(t1.max(t2), t2);
        assert_eq!(t1.min(t2), t1);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_picos(5)), "5ps");
        assert_eq!(format!("{}", SimDuration::from_nanos(5)), "5.000ns");
        assert_eq!(format!("{}", SimDuration::from_micros(5)), "5.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(5)), "5.000s");
        assert_eq!(
            format!("{}", SimTime::ZERO + SimDuration::from_micros(2)),
            "t+2.000us"
        );
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_nanos).sum();
        assert_eq!(total, SimDuration::from_nanos(10));
    }
}
