use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in nanoseconds since the start of the simulation.
///
/// A `u64` of nanoseconds covers ~584 years of simulated time, far beyond any
/// experiment in this workspace.
///
/// # Examples
///
/// ```
/// use hermes_sim::{SimDuration, SimTime};
/// let t = SimTime::ZERO + SimDuration::micros(5);
/// assert_eq!(t.as_nanos(), 5_000);
/// assert_eq!(t - SimTime::ZERO, SimDuration::micros(5));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time point `nanos` nanoseconds after simulation start.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`.
    ///
    /// Returns [`SimDuration::ZERO`] if `earlier` is in the future, mirroring
    /// `std::time::Instant::saturating_duration_since`.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
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

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("subtracted a later SimTime from an earlier one"),
        )
    }
}

/// A span of virtual time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use hermes_sim::SimDuration;
/// let rtt = SimDuration::micros(2) + SimDuration::micros(2);
/// assert_eq!(rtt.as_nanos(), 4_000);
/// assert_eq!(SimDuration::millis(1) / 2, SimDuration::micros(500));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `n` nanoseconds.
    #[inline]
    pub const fn nanos(n: u64) -> Self {
        SimDuration(n)
    }

    /// Creates a duration of `n` microseconds.
    #[inline]
    pub const fn micros(n: u64) -> Self {
        SimDuration(n * 1_000)
    }

    /// Creates a duration of `n` milliseconds.
    #[inline]
    pub const fn millis(n: u64) -> Self {
        SimDuration(n * 1_000_000)
    }

    /// Creates a duration of `n` seconds.
    #[inline]
    pub const fn secs(n: u64) -> Self {
        SimDuration(n * 1_000_000_000)
    }

    /// Creates a duration from a float number of seconds, rounding to the
    /// nearest nanosecond (negative inputs clamp to zero).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration((secs.max(0.0) * 1e9).round() as u64)
    }

    /// Length in nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Length in seconds, as a float (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating multiplication by an integer factor.
    #[inline]
    #[must_use]
    pub fn saturating_mul(self, factor: u64) -> Self {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// Whether this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == 0 {
            write!(f, "0ns")
        } else if ns.is_multiple_of(1_000_000_000) {
            write!(f, "{}s", ns / 1_000_000_000)
        } else if ns.is_multiple_of(1_000_000) {
            write!(f, "{}ms", ns / 1_000_000)
        } else if ns.is_multiple_of(1_000) {
            write!(f, "{}us", ns / 1_000)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
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
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("subtracted a longer SimDuration from a shorter one"),
        )
    }
}

impl core::ops::Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl core::ops::Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_convert_units() {
        assert_eq!(SimDuration::micros(1).as_nanos(), 1_000);
        assert_eq!(SimDuration::millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimDuration::secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_nanos(), 500_000_000);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::micros(10);
        assert_eq!(t1 - t0, SimDuration::micros(10));
        assert_eq!(t0.saturating_since(t1), SimDuration::ZERO);
        assert_eq!(t1.saturating_since(t0), SimDuration::micros(10));
        let mut t = t0;
        t += SimDuration::nanos(3);
        assert_eq!(t.as_nanos(), 3);
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn time_subtraction_underflow_panics() {
        let _ = SimTime::ZERO - SimTime::from_nanos(1);
    }

    #[test]
    fn duration_arithmetic() {
        assert_eq!(SimDuration::micros(2) * 3, SimDuration::micros(6));
        assert_eq!(SimDuration::micros(6) / 3, SimDuration::micros(2));
        assert_eq!(
            SimDuration::micros(6) - SimDuration::micros(2),
            SimDuration::micros(4)
        );
        assert_eq!(
            SimDuration::nanos(u64::MAX).saturating_mul(2).as_nanos(),
            u64::MAX
        );
    }

    #[test]
    fn debug_formats_pick_natural_units() {
        assert_eq!(format!("{:?}", SimDuration::ZERO), "0ns");
        assert_eq!(format!("{:?}", SimDuration::nanos(17)), "17ns");
        assert_eq!(format!("{:?}", SimDuration::micros(3)), "3us");
        assert_eq!(format!("{:?}", SimDuration::millis(150)), "150ms");
        assert_eq!(format!("{:?}", SimDuration::secs(2)), "2s");
        assert_eq!(format!("{:?}", SimTime::from_nanos(2_000)), "t+2us");
    }

    #[test]
    fn float_views() {
        assert!((SimDuration::millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }
}
