//! The true-time axis of the simulation.
//!
//! [`SimTime`] is a nanosecond count since the simulation epoch. It is the
//! ground truth every clock in an experiment is measured against — the
//! analogue of the paper's "'true' time according to the national
//! standards". Only the simulation kernel hands out `SimTime`s; protocol
//! code must go through a [`crate::clock::SimClock`] and therefore only
//! ever sees (possibly wrong) local time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use ntp_wire::NtpTimestamp;

/// Where the simulation epoch sits on the NTP timescale: 2026-01-01 is
/// roughly 3_975_868_800 s after 1900-01-01 (era 0). The exact value is
/// irrelevant to every experiment — only differences matter — but using a
/// realistic constant keeps serialized packets plausible.
pub const NTP_EPOCH_OFFSET_SECONDS: u64 = 3_975_868_800;

/// Absolute true time: nanoseconds since the simulation epoch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub i64);

/// A span of true time, in nanoseconds. May be negative.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub i64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole seconds since the epoch.
    pub const fn from_secs(s: i64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from milliseconds since the epoch.
    pub const fn from_millis(ms: i64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> i64 {
        self.0
    }

    /// Seconds since the epoch as `f64` (plots / statistics).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Convert true time to the NTP timestamp a *perfect* clock would show.
    pub fn to_ntp(self) -> NtpTimestamp {
        let epoch_ns = NTP_EPOCH_OFFSET_SECONDS as i128 * 1_000_000_000;
        NtpTimestamp::from_era_nanos(epoch_ns + self.0 as i128)
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From whole seconds.
    pub const fn from_secs(s: i64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// From whole milliseconds.
    pub const fn from_millis(ms: i64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// From whole microseconds.
    pub const fn from_micros(us: i64) -> Self {
        SimDuration(us * 1_000)
    }

    /// From (possibly fractional) seconds. Rounds to the nearest ns.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s * 1e9).round() as i64)
    }

    /// From fractional milliseconds.
    pub fn from_millis_f64(ms: f64) -> Self {
        SimDuration((ms * 1e6).round() as i64)
    }

    /// Nanosecond count.
    pub const fn as_nanos(self) -> i64 {
        self.0
    }

    /// Span in seconds, `f64`.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Span in milliseconds, `f64`.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True when negative.
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Clamp below at zero (used when a jitter sample would make a delay
    /// negative).
    pub fn max_zero(self) -> Self {
        SimDuration(self.0.max(0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({:.6}s)", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({:.6}s)", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_millis(2500);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d).as_nanos(), 12_500_000_000);
    }

    #[test]
    fn to_ntp_differences_match() {
        let a = SimTime::from_secs(100);
        let b = SimTime::from_millis(100_250);
        let d = b.to_ntp().wrapping_sub(a.to_ntp());
        assert!((d.as_millis_f64() - 250.0).abs() < 1e-3);
    }

    #[test]
    fn to_ntp_epoch_constant() {
        let ts = SimTime::ZERO.to_ntp();
        assert_eq!(ts.seconds() as u64, NTP_EPOCH_OFFSET_SECONDS % (1 << 32));
        assert_eq!(ts.fraction(), 0);
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_secs_f64(0.001), SimDuration::from_millis(1));
        assert_eq!(SimDuration::from_millis_f64(1.5).as_nanos(), 1_500_000);
        assert!(SimDuration::from_millis(-1).is_negative());
        assert_eq!(SimDuration::from_millis(-1).max_zero(), SimDuration::ZERO);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use devtools::prop;
    use devtools::{prop_assert_eq, props};

    props! {
        /// `to_ntp` is the exact 128-bit conversion for any tick, also
        /// where the NTP-epoch sum leaves the `i64` range.
        fn to_ntp_matches_i128_conversion(tick in prop::any_u64()) {
            const NS: i128 = 1_000_000_000;
            let n = (NTP_EPOCH_OFFSET_SECONDS as i128 * NS + i128::from(tick as i64))
                .rem_euclid((1i128 << 32) * NS);
            let (secs, sub) = ((n / NS) as u64, (n % NS) as u64);
            let fraction = (((sub as u128) << 32) + NS as u128 / 2) / NS as u128;
            prop_assert_eq!(
                SimTime(tick as i64).to_ntp(),
                NtpTimestamp::from_bits((secs << 32) | fraction as u64)
            );
        }
    }
}
