//! NTP fixed-point time types.
//!
//! Three types cover everything the protocol and the simulators need:
//!
//! * [`NtpTimestamp`] — the 64-bit on-wire timestamp: unsigned seconds since
//!   the NTP era origin (1900-01-01T00:00:00Z for era 0) in the high 32 bits
//!   and a binary fraction of a second in the low 32 bits (~233 ps
//!   resolution).
//! * [`NtpShort`] — the 32-bit `16.16` format used by the root delay and
//!   root dispersion header fields.
//! * [`NtpDuration`] — a *signed* 64-bit `32.32` span, the result of
//!   subtracting two timestamps. Offsets, delays and drift corrections are
//!   all [`NtpDuration`]s.
//!
//! All arithmetic is exact integer arithmetic; floating point appears only
//! at the explicit `as_seconds_f64` / `from_seconds_f64` boundaries so that
//! protocol state never accumulates rounding error.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Nanoseconds per second, as used by the ns-based conversions.
pub const NANOS_PER_SEC: i128 = 1_000_000_000;

/// 64-bit NTP timestamp: 32-bit seconds since the era origin, 32-bit
/// fraction. Era wraparound is handled by doing all differences in
/// wrapping two's-complement arithmetic, which is correct as long as the
/// two timestamps are within ±68 years of each other (RFC 5905 §6).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NtpTimestamp(u64);

impl NtpTimestamp {
    /// The all-zeros timestamp, which the protocol uses as "unset".
    pub const ZERO: NtpTimestamp = NtpTimestamp(0);

    /// Construct from the raw 64-bit wire representation.
    #[inline]
    pub const fn from_bits(bits: u64) -> Self {
        NtpTimestamp(bits)
    }

    /// The raw 64-bit wire representation.
    #[inline]
    pub const fn to_bits(self) -> u64 {
        self.0
    }

    /// Construct from whole seconds (since the era origin) and a 32-bit
    /// binary fraction.
    #[inline]
    pub const fn from_parts(seconds: u32, fraction: u32) -> Self {
        NtpTimestamp(((seconds as u64) << 32) | fraction as u64)
    }

    /// Whole-seconds part.
    #[inline]
    pub const fn seconds(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// Binary-fraction part.
    #[inline]
    pub const fn fraction(self) -> u32 {
        self.0 as u32
    }

    /// True if this is the unset/zero timestamp.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Convert a count of nanoseconds since the era origin into a
    /// timestamp. Input is taken modulo one era (2^32 seconds).
    pub fn from_era_nanos(nanos: i128) -> Self {
        const ERA_NANOS: i128 = (1i128 << 32) * NANOS_PER_SEC;
        const NS: u64 = NANOS_PER_SEC as u64;
        // One era (≈ 4.3·10¹⁸ ns) is below 2⁶³, so an input in the `i64`
        // range reduces in 64-bit arithmetic; only a wider one needs `i128`.
        let n = match i64::try_from(nanos) {
            Ok(n) => n.rem_euclid(ERA_NANOS as i64) as u64,
            Err(_) => nanos.rem_euclid(ERA_NANOS) as u64,
        };
        let (secs, sub_nanos) = (n / NS, n % NS);
        // fraction = sub_nanos · 2³² / 10⁹, rounded to nearest. The shift
        // stays below 2⁶², and the largest sub-second count, 999,999,999,
        // rounds to 4,294,967,292: rounding never carries into the seconds.
        let fraction = ((sub_nanos << 32) + NS / 2) / NS;
        NtpTimestamp((secs << 32) | fraction)
    }

    /// Nanoseconds since the era origin (always in `[0, 2^32 s)`).
    pub fn to_era_nanos(self) -> i128 {
        let secs = self.seconds() as i128 * NANOS_PER_SEC;
        let frac = ((self.fraction() as i128 * NANOS_PER_SEC) + (1 << 31)) >> 32;
        secs + frac
    }

    /// Seconds since the era origin as `f64` (test/diagnostic use only).
    pub fn as_seconds_f64(self) -> f64 {
        self.seconds() as f64 + self.fraction() as f64 / 4294967296.0
    }

    /// The signed difference `self - other`, correct for any pair of
    /// timestamps less than ±68 years apart, across era boundaries.
    #[inline]
    pub fn wrapping_sub(self, other: NtpTimestamp) -> NtpDuration {
        NtpDuration(self.0.wrapping_sub(other.0) as i64)
    }

    /// Add a signed duration, wrapping at era boundaries.
    #[inline]
    pub fn wrapping_add_duration(self, d: NtpDuration) -> NtpTimestamp {
        NtpTimestamp(self.0.wrapping_add(d.0 as u64))
    }
}

impl fmt::Debug for NtpTimestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NtpTimestamp({}.{:08x})", self.seconds(), self.fraction())
    }
}

impl fmt::Display for NtpTimestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_seconds_f64())
    }
}

impl Sub for NtpTimestamp {
    type Output = NtpDuration;
    fn sub(self, rhs: Self) -> NtpDuration {
        self.wrapping_sub(rhs)
    }
}

impl Add<NtpDuration> for NtpTimestamp {
    type Output = NtpTimestamp;
    fn add(self, rhs: NtpDuration) -> NtpTimestamp {
        self.wrapping_add_duration(rhs)
    }
}

impl Sub<NtpDuration> for NtpTimestamp {
    type Output = NtpTimestamp;
    fn sub(self, rhs: NtpDuration) -> NtpTimestamp {
        self.wrapping_add_duration(-rhs)
    }
}

/// Signed `32.32` fixed-point span of time. One unit of the fraction is
/// 2⁻³² s ≈ 233 ps; the representable range is ±2³¹ s ≈ ±68 years.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NtpDuration(i64);

impl NtpDuration {
    /// Zero-length duration.
    pub const ZERO: NtpDuration = NtpDuration(0);
    /// Exactly one second.
    pub const ONE_SECOND: NtpDuration = NtpDuration(1 << 32);

    /// Construct from the raw `32.32` bits.
    #[inline]
    pub const fn from_bits(bits: i64) -> Self {
        NtpDuration(bits)
    }

    /// Raw `32.32` bits.
    #[inline]
    pub const fn to_bits(self) -> i64 {
        self.0
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_seconds(s: i32) -> Self {
        NtpDuration((s as i64) << 32)
    }

    /// Construct from milliseconds (exact to fixed-point rounding).
    pub fn from_millis(ms: i64) -> Self {
        NtpDuration(((ms as i128 * (1i128 << 32) + 500) / 1000) as i64)
    }

    /// Construct from microseconds.
    pub fn from_micros(us: i64) -> Self {
        NtpDuration(((us as i128 * (1i128 << 32) + 500_000) / 1_000_000) as i64)
    }

    /// Construct from nanoseconds.
    pub fn from_nanos(ns: i64) -> Self {
        NtpDuration(((ns as i128 * (1i128 << 32) + NANOS_PER_SEC / 2) / NANOS_PER_SEC) as i64)
    }

    /// Duration as nanoseconds, rounded to nearest.
    pub fn as_nanos(self) -> i64 {
        let wide = self.0 as i128 * NANOS_PER_SEC;
        // Round-to-nearest shift for signed values.
        ((wide + (1i128 << 31)) >> 32) as i64
    }

    /// Duration as (possibly fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.as_seconds_f64() * 1e3
    }

    /// Duration as seconds, `f64` (diagnostics / statistics only).
    pub fn as_seconds_f64(self) -> f64 {
        self.0 as f64 / 4294967296.0
    }

    /// Construct from seconds expressed as `f64`. Saturates at the
    /// representable range.
    pub fn from_seconds_f64(s: f64) -> Self {
        let bits = (s * 4294967296.0).round();
        if bits >= i64::MAX as f64 {
            NtpDuration(i64::MAX)
        } else if bits <= i64::MIN as f64 {
            NtpDuration(i64::MIN)
        } else {
            NtpDuration(bits as i64)
        }
    }

    /// Absolute value (saturating at `i64::MAX`).
    pub fn abs(self) -> Self {
        NtpDuration(self.0.saturating_abs())
    }

    /// True when the span is negative.
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Halve the duration (used by the offset formula), rounding toward
    /// negative infinity as arithmetic shift does.
    pub const fn half(self) -> Self {
        NtpDuration(self.0 >> 1)
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Self) -> Self {
        NtpDuration(self.0.saturating_add(rhs.0))
    }

    /// Truncate to the 32-bit [`NtpShort`] format, saturating: negative
    /// spans become zero and spans over 2¹⁵ s become the maximum.
    pub fn to_short_saturating(self) -> NtpShort {
        if self.0 <= 0 {
            return NtpShort(0);
        }
        // NtpShort is 16.16; our value is 32.32 — shift right by 16.
        let v = self.0 >> 16;
        if v > u32::MAX as i64 {
            NtpShort(u32::MAX)
        } else {
            NtpShort(v as u32)
        }
    }
}

impl fmt::Debug for NtpDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NtpDuration({:.6}s)", self.as_seconds_f64())
    }
}

impl fmt::Display for NtpDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+.3}ms", self.as_millis_f64())
    }
}

impl Add for NtpDuration {
    type Output = NtpDuration;
    fn add(self, rhs: Self) -> Self {
        NtpDuration(self.0.wrapping_add(rhs.0))
    }
}

impl AddAssign for NtpDuration {
    fn add_assign(&mut self, rhs: Self) {
        self.0 = self.0.wrapping_add(rhs.0);
    }
}

impl Sub for NtpDuration {
    type Output = NtpDuration;
    fn sub(self, rhs: Self) -> Self {
        NtpDuration(self.0.wrapping_sub(rhs.0))
    }
}

impl SubAssign for NtpDuration {
    fn sub_assign(&mut self, rhs: Self) {
        self.0 = self.0.wrapping_sub(rhs.0);
    }
}

impl Neg for NtpDuration {
    type Output = NtpDuration;
    fn neg(self) -> Self {
        NtpDuration(self.0.wrapping_neg())
    }
}

impl Mul<i64> for NtpDuration {
    type Output = NtpDuration;
    fn mul(self, rhs: i64) -> Self {
        NtpDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<i64> for NtpDuration {
    type Output = NtpDuration;
    fn div(self, rhs: i64) -> Self {
        NtpDuration(self.0 / rhs)
    }
}

/// 32-bit `16.16` unsigned fixed point, used for root delay and root
/// dispersion in the packet header.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NtpShort(u32);

impl NtpShort {
    /// Zero.
    pub const ZERO: NtpShort = NtpShort(0);

    /// Construct from the raw wire bits.
    #[inline]
    pub const fn from_bits(bits: u32) -> Self {
        NtpShort(bits)
    }

    /// Raw wire bits.
    #[inline]
    pub const fn to_bits(self) -> u32 {
        self.0
    }

    /// Construct from milliseconds, saturating at the format's ~65.5 ks cap.
    pub fn from_millis(ms: u32) -> Self {
        let v = (ms as u64 * 65536 + 500) / 1000;
        NtpShort(v.min(u32::MAX as u64) as u32)
    }

    /// Value as seconds (`f64`).
    pub fn as_seconds_f64(self) -> f64 {
        self.0 as f64 / 65536.0
    }

    /// Widen to the signed `32.32` duration type.
    pub fn to_duration(self) -> NtpDuration {
        NtpDuration::from_bits((self.0 as i64) << 16)
    }
}

impl fmt::Debug for NtpShort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NtpShort({:.3}s)", self.as_seconds_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_parts_roundtrip() {
        let ts = NtpTimestamp::from_parts(0xDEADBEEF, 0x80000000);
        assert_eq!(ts.seconds(), 0xDEADBEEF);
        assert_eq!(ts.fraction(), 0x80000000);
        assert_eq!(NtpTimestamp::from_bits(ts.to_bits()), ts);
    }

    #[test]
    fn era_nanos_roundtrip_exact_seconds() {
        let ns = 1234 * NANOS_PER_SEC;
        let ts = NtpTimestamp::from_era_nanos(ns);
        assert_eq!(ts.seconds(), 1234);
        assert_eq!(ts.fraction(), 0);
        assert_eq!(ts.to_era_nanos(), ns);
    }

    #[test]
    fn era_nanos_roundtrip_subsecond() {
        let ns = 5 * NANOS_PER_SEC + 500_000_000; // 5.5 s
        let ts = NtpTimestamp::from_era_nanos(ns);
        assert_eq!(ts.seconds(), 5);
        assert_eq!(ts.fraction(), 0x8000_0000);
        assert_eq!(ts.to_era_nanos(), ns);
    }

    #[test]
    fn era_nanos_negative_wraps_into_previous_era() {
        let ts = NtpTimestamp::from_era_nanos(-NANOS_PER_SEC);
        assert_eq!(ts.seconds(), u32::MAX);
    }

    #[test]
    fn wrapping_sub_across_era_boundary() {
        let before = NtpTimestamp::from_parts(u32::MAX, 0);
        let after = NtpTimestamp::from_parts(1, 0);
        let d = after.wrapping_sub(before);
        assert_eq!(d, NtpDuration::from_seconds(2));
        let back = before.wrapping_add_duration(d);
        assert_eq!(back, after);
    }

    #[test]
    fn duration_millis_conversions() {
        let d = NtpDuration::from_millis(1500);
        assert!((d.as_seconds_f64() - 1.5).abs() < 1e-9);
        assert!((d.as_millis_f64() - 1500.0).abs() < 1e-6);
        let neg = NtpDuration::from_millis(-250);
        assert!((neg.as_millis_f64() + 250.0).abs() < 1e-6);
    }

    #[test]
    fn duration_nanos_roundtrip_within_rounding() {
        for ns in [0i64, 1, -1, 999_999_999, -999_999_999, 1_000_000_000] {
            let d = NtpDuration::from_nanos(ns);
            assert!((d.as_nanos() - ns).abs() <= 1, "ns={ns} got {}", d.as_nanos());
        }
    }

    #[test]
    fn duration_half_and_neg() {
        // half() floors, so doubling may lose the lowest bit (≈233 ps).
        let d = NtpDuration::from_millis(10);
        let twice = d.half() + d.half();
        assert!((twice - d).abs() <= NtpDuration::from_bits(1));
        let even = NtpDuration::from_bits(1 << 20);
        assert_eq!(even.half() + even.half(), even);
        assert_eq!(-(-d), d);
    }

    #[test]
    fn short_roundtrip() {
        let s = NtpShort::from_millis(125);
        assert!((s.as_seconds_f64() - 0.125).abs() < 1e-4);
        let widened = s.to_duration();
        assert!((widened.as_millis_f64() - 125.0).abs() < 0.1);
    }

    #[test]
    fn duration_to_short_saturates() {
        assert_eq!(NtpDuration::from_millis(-5).to_short_saturating(), NtpShort::ZERO);
        let huge = NtpDuration::from_seconds(100_000);
        assert_eq!(huge.to_short_saturating().to_bits(), u32::MAX);
    }

    #[test]
    fn from_seconds_f64_saturates() {
        assert_eq!(NtpDuration::from_seconds_f64(1e30).to_bits(), i64::MAX);
        assert_eq!(NtpDuration::from_seconds_f64(-1e30).to_bits(), i64::MIN);
    }

    #[test]
    fn largest_subsecond_count_rounds_without_carry() {
        // 999,999,999 ns is 4,294,967,291.7 fraction units: it rounds to
        // 4,294,967,292, below 2^32, so no carry into the seconds exists.
        let ns = NANOS_PER_SEC - 1;
        let ts = NtpTimestamp::from_era_nanos(ns);
        assert_eq!((ts.seconds(), ts.fraction()), (0, 4_294_967_292));
        assert!((ts.to_era_nanos() - ns).abs() <= 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use devtools::prop;
    use devtools::{prop_assert_eq, props};

    /// The 128-bit conversion the 64-bit one replaced, kept as its oracle.
    fn from_era_nanos_i128(nanos: i128) -> NtpTimestamp {
        let era_len = (1i128 << 32) * NANOS_PER_SEC;
        let n = nanos.rem_euclid(era_len);
        let secs = (n / NANOS_PER_SEC) as u64;
        let sub_nanos = (n % NANOS_PER_SEC) as u64;
        let fraction =
            (((sub_nanos as u128) << 32) + (NANOS_PER_SEC as u128 / 2)) / NANOS_PER_SEC as u128;
        if fraction >= 1u128 << 32 {
            NtpTimestamp((secs.wrapping_add(1) & 0xFFFF_FFFF) << 32)
        } else {
            NtpTimestamp(((secs & 0xFFFF_FFFF) << 32) | fraction as u64)
        }
    }

    const ERA: i128 = (1i128 << 32) * NANOS_PER_SEC;

    props! {
        /// Inputs within ±2¹⁰⁰ ns, mostly outside the `i64` range.
        fn wide_inputs_match_i128(
            hi in prop::ints_incl(-(1 << 36), (1 << 36) - 1),
            lo in prop::any_u64()
        ) {
            let nanos = (i128::from(hi) << 64) | i128::from(lo);
            prop_assert_eq!(NtpTimestamp::from_era_nanos(nanos), from_era_nanos_i128(nanos));
        }

        /// Any `i64` input: the 64-bit reduction.
        fn i64_inputs_match_i128(n in prop::any_u64()) {
            let nanos = i128::from(n as i64);
            prop_assert_eq!(NtpTimestamp::from_era_nanos(nanos), from_era_nanos_i128(nanos));
        }

        /// Era multiples ±1 ns, and sub-second counts near 999,999,999.
        fn era_and_second_edges_match_i128(
            eras in prop::ints_incl(-(1 << 38), 1 << 38),
            off in prop::ints_incl(-1, 1),
            secs in prop::ints(-(1 << 40)..(1 << 40)),
            sub in prop::ints_incl(999_999_000, 999_999_999)
        ) {
            let at_era = i128::from(eras) * ERA + i128::from(off);
            let near_second = i128::from(secs) * NANOS_PER_SEC + i128::from(sub);
            for nanos in [at_era, near_second] {
                prop_assert_eq!(NtpTimestamp::from_era_nanos(nanos), from_era_nanos_i128(nanos));
            }
        }
    }

    #[test]
    fn fixed_edges_match_i128() {
        let mut edges = Vec::new();
        for bound in [i64::MIN, i64::MAX] {
            edges.extend((-1..=1).map(|d| i128::from(bound) + d));
        }
        for eras in -3..=3 {
            edges.extend((-1..=1).map(|d| eras * ERA + d));
        }
        for secs in [-1i128, 0, 1, (1 << 32) - 1] {
            edges.extend((999_999_990..NANOS_PER_SEC).map(|sub| secs * NANOS_PER_SEC + sub));
        }
        for nanos in edges {
            assert_eq!(NtpTimestamp::from_era_nanos(nanos), from_era_nanos_i128(nanos), "{nanos}");
        }
    }
}
