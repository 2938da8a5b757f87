//! Simulation time and durations.
//!
//! Simulation time is kept in **integer milliseconds** so that the event
//! queue has a total order with no floating-point drift. The paper expresses
//! job walltimes in seconds; constructors are provided for both units.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute point on the simulation clock, in milliseconds since the
/// simulation epoch (t = 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A non-negative span of simulation time, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch, t = 0.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; no event is ever scheduled at or after this time.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// A time `ms` milliseconds after the epoch.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// A time `secs` seconds after the epoch, saturating at
    /// [`SimTime::MAX`].
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs.saturating_mul(1000))
    }

    /// A time `secs` (fractional) seconds after the epoch, rounded to the
    /// nearest millisecond. Negative and non-finite inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(secs_to_millis(secs))
    }

    /// Milliseconds since the epoch.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds since the epoch (truncating).
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// Seconds since the epoch as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`; simulation clocks never run
    /// backwards, so this indicates a logic error in the caller.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: `earlier` is after `self`"),
        )
    }

    /// The duration elapsed since `earlier`, or zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// A duration of `ms` milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// A duration of `secs` whole seconds, saturating at
    /// [`SimDuration::MAX`] — trace fields are outside input, and a
    /// requested time of `i64::MAX` seconds is a job that never ends, not
    /// a short one.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs.saturating_mul(1000))
    }

    /// A duration of `secs` (fractional) seconds, rounded to the nearest
    /// millisecond. Negative and non-finite inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(secs_to_millis(secs))
    }

    /// Length in milliseconds.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Length in whole seconds (truncating).
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// Length in seconds as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// `true` if this is the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The longer of two durations.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The shorter of two durations.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

#[inline]
fn secs_to_millis(secs: f64) -> u64 {
    if secs.is_nan() || secs <= 0.0 {
        return 0;
    }
    let ms = secs * 1000.0;
    if ms >= u64::MAX as f64 {
        u64::MAX
    } else {
        ms.round() as u64
    }
}

/// Saturates at [`SimTime::MAX`]: an instant past the far future is the
/// far future, never a wrapped-around early one.
impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(d.0)
                .expect("SimTime - SimDuration underflow"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, earlier: SimTime) -> SimDuration {
        self.since(earlier)
    }
}

/// Saturates at [`SimDuration::MAX`].
impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, other: SimDuration) {
        *self = *self + other;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(other.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, other: SimDuration) {
        *self = *self - other;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_ms(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_ms(self.0))
    }
}

/// Render a millisecond count as `H:MM:SS.mmm`, eliding zero fields from the
/// left (`12.000` → `12s`, `90_500` ms → `1:30.500`).
fn format_ms(ms: u64) -> String {
    let millis = ms % 1000;
    let total_secs = ms / 1000;
    let secs = total_secs % 60;
    let mins = (total_secs / 60) % 60;
    let hours = total_secs / 3600;
    if hours > 0 {
        format!("{hours}:{mins:02}:{secs:02}.{millis:03}")
    } else if mins > 0 {
        format!("{mins}:{secs:02}.{millis:03}")
    } else if millis > 0 {
        format!("{secs}.{millis:03}s")
    } else {
        format!("{secs}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units_agree() {
        assert_eq!(SimTime::from_secs(3), SimTime::from_millis(3000));
        assert_eq!(SimDuration::from_secs(3), SimDuration::from_millis(3000));
        assert_eq!(SimTime::from_secs_f64(1.5), SimTime::from_millis(1500));
        assert_eq!(
            SimDuration::from_secs_f64(0.0004),
            SimDuration::from_millis(0)
        );
    }

    #[test]
    fn float_roundtrip() {
        let t = SimTime::from_millis(123_456);
        assert!((t.as_secs_f64() - 123.456).abs() < 1e-9);
        assert_eq!(t.as_secs(), 123);
    }

    #[test]
    fn negative_and_nan_seconds_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-5.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!(t + d, SimTime::from_secs(14));
        assert_eq!((t + d) - t, d);
        assert_eq!(t - d, SimTime::from_secs(6));
        assert_eq!(d + d, SimDuration::from_secs(8));
        assert_eq!(d * 3, SimDuration::from_secs(12));
        assert_eq!(d / 2, SimDuration::from_secs(2));
        assert_eq!(d - SimDuration::from_secs(1), SimDuration::from_secs(3));
    }

    /// A duration too long to represent is the longest one, and an instant
    /// past the far future is the far future — in debug builds too, where
    /// the unchecked operators used to panic, and never a wrapped-around
    /// small value, which release builds used to yield.
    #[test]
    fn construction_and_addition_saturate() {
        let never = i64::MAX as u64;
        assert_eq!(SimDuration::from_secs(never), SimDuration::MAX);
        assert_eq!(SimTime::from_secs(never), SimTime::MAX);
        let t = SimTime::from_secs(10);
        assert_eq!(t + SimDuration::MAX, SimTime::MAX);
        assert_eq!(
            SimDuration::MAX + SimDuration::from_secs(1),
            SimDuration::MAX
        );
        let (mut at, mut span) = (t, SimDuration::from_secs(1));
        at += SimDuration::MAX;
        span += SimDuration::MAX;
        assert_eq!((at, span), (SimTime::MAX, SimDuration::MAX));
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn since_panics_backwards() {
        let _ = SimTime::from_secs(1).since(SimTime::from_secs(2));
    }

    #[test]
    fn saturating_since_clamps() {
        assert_eq!(
            SimTime::from_secs(1).saturating_since(SimTime::from_secs(2)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimTime::from_secs(5).saturating_since(SimTime::from_secs(2)),
            SimDuration::from_secs(3)
        );
    }

    #[test]
    fn ordering_is_total() {
        let mut times = vec![
            SimTime::from_millis(5),
            SimTime::ZERO,
            SimTime::from_millis(2),
        ];
        times.sort();
        assert_eq!(
            times,
            vec![
                SimTime::ZERO,
                SimTime::from_millis(2),
                SimTime::from_millis(5)
            ]
        );
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_secs(12).to_string(), "12s");
        assert_eq!(SimDuration::from_millis(90_500).to_string(), "1:30.500");
        assert_eq!(
            SimDuration::from_secs(3 * 3600 + 62).to_string(),
            "3:01:02.000"
        );
        assert_eq!(SimTime::from_secs(7).to_string(), "t=7s");
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let x = SimDuration::from_secs(1);
        let y = SimDuration::from_secs(9);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
    }
}
