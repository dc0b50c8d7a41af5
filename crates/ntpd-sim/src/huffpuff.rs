//! The huff-n'-puff filter (RFC 5905 appendix; `ntpd`'s `tinker huffpuff`).
//!
//! NTP's own defense against exactly the pathology this paper studies:
//! **one-sided path congestion**. The filter remembers the minimum
//! round-trip delay seen over a sliding window (long enough to cover
//! congested episodes); when a sample's delay exceeds that baseline, the
//! excess is assumed to sit entirely on one leg, so the offset is
//! corrected by half the excess — toward zero, in the direction the
//! offset sign implies:
//!
//! ```text
//! θ' = θ − (δ − δ_min)/2   if θ > 0
//! θ' = θ + (δ − δ_min)/2   if θ < 0
//! ```
//!
//! Comparing SNTP + huff-n'-puff against MNTP (see
//! `experiments::extended`) answers a question the paper leaves open: how
//! much of MNTP's win could a *transport-only* heuristic recover, without
//! any cross-layer hints? (Answer: a good chunk of the bias, but none of
//! the loss avoidance — and it needs the RTT baseline to be clean.)

use std::collections::VecDeque;

/// Sliding-window minimum-delay tracker plus the offset correction.
///
/// ```
/// use ntpd_sim::HuffPuff;
///
/// let mut hp = HuffPuff::new(600.0);
/// // Establish an 80 ms RTT baseline.
/// for i in 0..5 { hp.correct(i as f64 * 5.0, 0.001, 0.080); }
/// // A sample whose return leg queued for 300 ms reads −150 ms;
/// // the filter removes the excess-delay bias.
/// let corrected = hp.correct(30.0, -0.150, 0.380);
/// assert!(corrected.abs() < 0.005);
/// ```
#[derive(Clone, Debug)]
pub struct HuffPuff {
    /// `(local time secs, delay secs)` samples inside the window.
    window: VecDeque<(f64, f64)>,
    /// Window span, seconds (ntpd default: 900 s × number of bins; we
    /// keep the raw samples instead of binning).
    span_secs: f64,
}

impl HuffPuff {
    /// New filter with the given window span. `ntpd`'s default is
    /// 7200 s; congested episodes must be shorter than the span or the
    /// baseline itself inflates.
    pub fn new(span_secs: f64) -> Self {
        HuffPuff { window: VecDeque::new(), span_secs }
    }

    /// The current minimum-delay baseline, if any samples are in window.
    pub fn min_delay(&self) -> Option<f64> {
        self.window.iter().map(|&(_, d)| d).reduce(f64::min)
    }

    /// Record a sample and return the corrected offset. Units: seconds.
    pub fn correct(&mut self, now_secs: f64, offset: f64, delay: f64) -> f64 {
        // Expire old samples.
        while let Some(&(t, _)) = self.window.front() {
            if now_secs - t > self.span_secs {
                self.window.pop_front();
            } else {
                break;
            }
        }
        self.window.push_back((now_secs, delay));
        let min = self.min_delay().expect("just pushed");
        let excess = delay - min;
        if excess <= 0.0 {
            return offset;
        }
        let half = excess / 2.0;
        if offset > 0.0 {
            (offset - half).max(0.0).min(offset)
        } else {
            (offset + half).min(0.0).max(offset)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_samples_pass_through() {
        let mut hp = HuffPuff::new(600.0);
        // Identical delays: no excess, offsets untouched.
        for i in 0..10 {
            let out = hp.correct(i as f64 * 5.0, 0.012, 0.080);
            assert_eq!(out, 0.012);
        }
    }

    #[test]
    fn one_sided_congestion_is_removed() {
        let mut hp = HuffPuff::new(600.0);
        // Establish an 80 ms RTT baseline.
        for i in 0..5 {
            hp.correct(i as f64 * 5.0, 0.001, 0.080);
        }
        // A congested sample: 300 ms extra on the return leg makes the
        // offset read −150 ms and the delay 380 ms.
        let corrected = hp.correct(30.0, -0.150, 0.380);
        assert!(
            corrected.abs() < 0.005,
            "excess-delay bias should be removed, got {corrected}"
        );
    }

    #[test]
    fn correction_never_flips_sign_or_grows_offset() {
        let mut hp = HuffPuff::new(600.0);
        for i in 0..5 {
            hp.correct(i as f64 * 5.0, 0.0, 0.060);
        }
        // Excess larger than 2|offset|: clamped at zero, not flipped.
        let corrected = hp.correct(30.0, -0.020, 0.500);
        assert_eq!(corrected, 0.0);
        // Positive offsets shrink toward zero, never below.
        let corrected = hp.correct(35.0, 0.030, 0.200);
        assert!((0.0..=0.030).contains(&corrected));
    }

    #[test]
    fn window_expires_old_baseline() {
        let mut hp = HuffPuff::new(100.0);
        hp.correct(0.0, 0.0, 0.040); // old fast baseline
        // 200 s later the old sample is out of window; a slow regime
        // becomes its own baseline and is NOT treated as excess.
        let out = hp.correct(200.0, -0.050, 0.300);
        assert_eq!(out, -0.050, "new regime must not be corrected against stale baseline");
    }

    #[test]
    fn genuine_offset_with_clean_delay_is_kept() {
        let mut hp = HuffPuff::new(600.0);
        for i in 0..5 {
            hp.correct(i as f64 * 5.0, 0.250, 0.080);
        }
        // The clock really is 250 ms off; delay at baseline → no change.
        let out = hp.correct(30.0, 0.250, 0.080);
        assert_eq!(out, 0.250);
    }
}
