//! MNTP's filtering heuristics (paper §4.2).
//!
//! Two independent rejection mechanisms live here:
//!
//! 1. **False-ticker rejection** ([`reject_false_tickers`]) for the
//!    multi-source warmup rounds: "We calculate the mean and standard
//!    deviation of the offsets and classify the time sources whose
//!    offsets exceed the mean plus one standard deviation as false
//!    tickers."
//! 2. **Trend-line outlier rejection** ([`TrendFilter`]): fit a degree-1
//!    least-squares line through the recorded `(time, offset)` samples —
//!    the clock's drift — extend it to predict where the next sample
//!    should land, and compare the new sample's *squared* error against
//!    the distribution of past squared errors; a sample more than one
//!    standard deviation above the mean squared error is rejected.
//!
//!    (The paper says "one standard deviation above *or below* the mean";
//!    rejecting samples for fitting *too well* would discard the best
//!    data, so — like the authors' released Python implementation — only
//!    the upper tail rejects. The deviation is noted in DESIGN.md.)
//!
//! Following the §5.3 tuner insight, the drift estimate is re-fit with
//! every accepted sample (configurable off for the ablation that
//! reproduces the pre-fix behaviour of rejecting everything after a bad
//! early estimate).

use clocksim::fit::{fit_line, LineFit};

/// Verdict for one source in a multi-source warmup round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FalseTickerVerdict {
    /// The source's offset is consistent with the round.
    Truechimer,
    /// The source deviates by more than mean + 1σ: rejected.
    FalseTicker,
}

/// Classify each offset of one round. With fewer than two offsets nothing
/// can be rejected. Returns one verdict per input, in order.
pub fn reject_false_tickers(offsets_ms: &[f64], sigma_mult: f64) -> Vec<FalseTickerVerdict> {
    if offsets_ms.len() < 2 {
        return vec![FalseTickerVerdict::Truechimer; offsets_ms.len()];
    }
    let mean = clocksim::stats::mean(offsets_ms);
    let std = clocksim::stats::stddev(offsets_ms);
    offsets_ms
        .iter()
        .map(|&o| {
            if (o - mean).abs() > sigma_mult * std && std > 0.0 {
                FalseTickerVerdict::FalseTicker
            } else {
                FalseTickerVerdict::Truechimer
            }
        })
        .collect()
}

/// Combine a round's surviving offsets into one value (mean of
/// truechimers; falls back to the plain mean if everything was rejected,
/// which can only happen with pathological σ).
pub fn combine_round(offsets_ms: &[f64], verdicts: &[FalseTickerVerdict]) -> f64 {
    let survivors: Vec<f64> = offsets_ms
        .iter()
        .zip(verdicts)
        .filter(|(_, v)| **v == FalseTickerVerdict::Truechimer)
        .map(|(o, _)| *o)
        .collect();
    if survivors.is_empty() {
        clocksim::stats::mean(offsets_ms)
    } else {
        clocksim::stats::mean(&survivors)
    }
}

/// The drift trend-line filter.
///
/// ```
/// use mntp::TrendFilter;
///
/// let mut filter = TrendFilter::new(1.0, true);
/// // Samples along a −20 ppm drift line are accepted…
/// for i in 0..10 {
///     let t = i as f64 * 15.0;
///     assert!(filter.offer(t, -0.02 * t));
/// }
/// // …and the drift estimate recovers the slope.
/// assert!((filter.drift_ppm().unwrap() + 20.0).abs() < 0.5);
/// // A 300 ms wireless spike is rejected.
/// assert!(!filter.offer(150.0, 300.0));
/// ```
#[derive(Clone, Debug)]
pub struct TrendFilter {
    /// Accepted samples: (elapsed local seconds, offset ms).
    points: Vec<(f64, f64)>,
    /// Squared prediction errors of accepted samples (for the 1σ band).
    sq_errors: Vec<f64>,
    /// Current fit, refreshed on accept when re-estimation is on.
    fit: Option<LineFit>,
    sigma_mult: f64,
    reestimate: bool,
    /// Minimum half-width of the accept band, in ms² of squared error.
    /// Without a floor, a run of near-perfect samples collapses the band
    /// to numerical noise and everything afterwards is rejected.
    min_band_ms2: f64,
    /// Fit over at most this many most-recent points, so the trend can
    /// follow slow curvature (temperature, wander) instead of being
    /// anchored by stale history.
    fit_window: usize,
    /// Samples collected before the trend exists; seeded by consensus.
    bootstrap: Vec<(f64, f64)>,
    /// Re-anchor once this many consecutive rejections agree with each
    /// other — the §5.3 lesson generalized: a filter that can wedge shut
    /// is worse than one that occasionally lets noise in. Genuine trend
    /// shifts produce mutually consistent rejections; channel spikes are
    /// heavy-tailed and never agree.
    reanchor_after: usize,
    recent_rejects: Vec<(f64, f64)>,
}

impl TrendFilter {
    /// New empty filter.
    pub fn new(sigma_mult: f64, reestimate: bool) -> Self {
        TrendFilter {
            points: Vec::new(),
            sq_errors: Vec::new(),
            fit: None,
            sigma_mult,
            reestimate,
            min_band_ms2: 64.0, // (8 ms)²: typical good-channel SNTP noise is never an outlier
            fit_window: 512,
            bootstrap: Vec::new(),
            reanchor_after: 5,
            recent_rejects: Vec::new(),
        }
    }

    /// Number of accepted samples recorded.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no samples are recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The current drift estimate: the slope of the trend line, in
    /// ms of offset per second — i.e. *parts per thousand*. Multiply by
    /// 1000 for ppm.
    pub fn drift_ms_per_sec(&self) -> Option<f64> {
        self.fit.map(|f| f.slope)
    }

    /// The current drift estimate in ppm.
    pub fn drift_ppm(&self) -> Option<f64> {
        self.drift_ms_per_sec().map(|s| s * 1000.0)
    }

    /// Predicted offset at elapsed time `t_secs`, if a trend exists.
    pub fn predict(&self, t_secs: f64) -> Option<f64> {
        self.fit.map(|f| f.predict(t_secs))
    }

    /// Record a sample unconditionally (warmup bootstrap, before the
    /// trend exists) and refresh the fit.
    pub fn record_unchecked(&mut self, t_secs: f64, offset_ms: f64) {
        self.push_point(t_secs, offset_ms);
    }

    fn push_point(&mut self, t_secs: f64, offset_ms: f64) {
        // Track this sample's squared error against the pre-update trend,
        // seeding the error distribution the accept band uses.
        if let Some(f) = self.fit {
            let e = offset_ms - f.predict(t_secs);
            self.sq_errors.push(e * e);
            // Bounded history: old error statistics should age out so
            // the band tracks current channel conditions.
            if self.sq_errors.len() > 64 {
                self.sq_errors.remove(0);
            }
        }
        self.points.push((t_secs, offset_ms));
        if self.reestimate || self.fit.is_none() {
            self.refit();
        }
    }

    fn window(&self) -> &[(f64, f64)] {
        let start = self.points.len().saturating_sub(self.fit_window);
        self.points.get(start..).unwrap_or(&[])
    }

    /// Re-fit the trend from the most recent `fit_window` points (the
    /// warmup → regular transition calls this even when per-sample
    /// re-estimation is off).
    pub fn refit(&mut self) {
        self.fit = fit_line(self.window());
    }

    /// The accept/reject decision for a new sample.
    ///
    /// Before a trend exists, samples are buffered and judged against
    /// the running median of the buffer (the channel can be hostile at
    /// startup — paper §4.2's "a network could be completely lossy at
    /// the start" concern generalizes to *biased* at the start); once
    /// five samples are buffered, the consensus subset seeds the trend.
    pub fn offer(&mut self, t_secs: f64, offset_ms: f64) -> bool {
        const BOOTSTRAP_LEN: usize = 5;
        const BOOTSTRAP_TOLERANCE_MS: f64 = 20.0;
        let Some(f) = self.fit else {
            self.bootstrap.push((t_secs, offset_ms));
            let med = {
                let vals: Vec<f64> = self.bootstrap.iter().map(|p| p.1).collect();
                clocksim::stats::median(&vals)
            };
            let verdict = (offset_ms - med).abs() <= BOOTSTRAP_TOLERANCE_MS;
            if self.bootstrap.len() >= BOOTSTRAP_LEN {
                // Seed from the consensus subset around the median.
                let seed: Vec<(f64, f64)> = self
                    .bootstrap
                    .drain(..)
                    .filter(|(_, o)| (o - med).abs() <= BOOTSTRAP_TOLERANCE_MS)
                    .collect();
                self.points = seed;
                self.refit();
                // Seed the error history too, so the accept band is live
                // from the very next sample instead of waving the first
                // few through.
                if let Some(f) = self.fit {
                    for &(t, o) in &self.points {
                        let e = o - f.predict(t);
                        self.sq_errors.push(e * e);
                    }
                }
            }
            return verdict;
        };
        let err = offset_ms - f.predict(t_secs);
        let sq = err * err;
        // Accept band: mean + sigma_mult * std of past squared errors —
        // the paper's wording, over a sliding window (old squared errors
        // age out, so one accepted burst cannot widen the band forever)
        // and with a floor (good-channel SNTP noise is never an
        // outlier). With fewer than 3 recorded errors the band is too
        // unstable — accept to keep bootstrapping.
        let accept = if self.sq_errors.len() < 3 {
            true
        } else {
            let mean = clocksim::stats::mean(&self.sq_errors);
            let std = clocksim::stats::stddev(&self.sq_errors);
            sq <= (mean + self.sigma_mult * std).max(self.min_band_ms2)
        };
        if accept {
            self.push_point(t_secs, offset_ms);
            self.recent_rejects.clear();
            return true;
        }
        self.recent_rejects.push((t_secs, offset_ms));
        if self.recent_rejects.len() > self.reanchor_after {
            self.recent_rejects.remove(0);
        }
        // Wedge escape: if the rejected samples are mutually consistent
        // (they fit their own line with small residuals), the *trend*
        // moved, not the channel. Re-anchor by stepping the intercept to
        // the cluster while keeping the slope (which carries far more
        // history than five points could re-estimate), then absorb the
        // cluster so future fits refine the slope from fresh data.
        if self.recent_rejects.len() == self.reanchor_after {
            if let Some(cluster_fit) = fit_line(&self.recent_rejects) {
                let worst = self
                    .recent_rejects
                    .iter()
                    .map(|&(t, o)| (o - cluster_fit.predict(t)).abs())
                    .fold(0.0f64, f64::max);
                // Much tighter than the accept band: a genuine trend
                // shift reproduces to a few ms (good-channel noise);
                // clusters of false-ticker or queueing leaks spread over
                // tens of ms and must not re-anchor the trend.
                if worst <= 5.0 {
                    let delta = if let Some(f) = self.fit {
                        let residuals: Vec<f64> = self
                            .recent_rejects
                            .iter()
                            .map(|&(t, o)| o - f.predict(t))
                            .collect();
                        clocksim::stats::mean(&residuals)
                    } else {
                        0.0
                    };
                    for p in &mut self.points {
                        p.1 += delta;
                    }
                    let cluster = std::mem::take(&mut self.recent_rejects);
                    for (t, o) in cluster {
                        self.points.push((t, o));
                    }
                    self.sq_errors.clear();
                    self.refit();
                    return true;
                }
            }
        }
        false
    }

    /// Read-only view of recorded points (diagnostics, tuner).
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Shift every recorded offset by `delta_ms`. Called after the driver
    /// *steps* the clock by `-delta_ms`, so that history stays in the
    /// corrected clock's frame and keeps predicting future measurements.
    pub fn translate(&mut self, delta_ms: f64) {
        for p in &mut self.points {
            p.1 += delta_ms;
        }
        self.refit();
    }

    /// Apply a rate change of `delta_ms_per_sec` pivoting at elapsed time
    /// `pivot_secs`. Called after a frequency trim: future offsets will
    /// follow the old trend plus `delta·(t − pivot)`, so history is
    /// sheared by the same transform to stay predictive.
    pub fn apply_rate_change(&mut self, delta_ms_per_sec: f64, pivot_secs: f64) {
        for p in &mut self.points {
            p.1 += delta_ms_per_sec * (p.0 - pivot_secs);
        }
        self.refit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn false_ticker_rejection_flags_the_outlier() {
        let offsets = [2.0, 3.0, 250.0];
        let v = reject_false_tickers(&offsets, 1.0);
        assert_eq!(v[0], FalseTickerVerdict::Truechimer);
        assert_eq!(v[1], FalseTickerVerdict::Truechimer);
        assert_eq!(v[2], FalseTickerVerdict::FalseTicker);
        let combined = combine_round(&offsets, &v);
        assert!((combined - 2.5).abs() < 1e-12);
    }

    #[test]
    fn agreeing_sources_lose_at_most_the_extreme() {
        // With three samples, the extreme one usually deviates by more
        // than 1σ — the paper's rule is deliberately aggressive ("to
        // ensure very tight clock synchronization"). What matters is that
        // the combination stays near the consensus.
        let offsets = [5.0, 5.5, 4.5];
        let v = reject_false_tickers(&offsets, 1.0);
        // The midpoint source always survives (its deviation is ≤ σ).
        assert_eq!(v[0], FalseTickerVerdict::Truechimer);
        let combined = combine_round(&offsets, &v);
        assert!((combined - 5.0).abs() <= 0.5, "combined={combined}");
    }

    #[test]
    fn single_source_cannot_be_rejected() {
        let v = reject_false_tickers(&[999.0], 1.0);
        assert_eq!(v, vec![FalseTickerVerdict::Truechimer]);
    }

    #[test]
    fn identical_sources_never_rejected() {
        let v = reject_false_tickers(&[7.0, 7.0, 7.0], 1.0);
        assert!(v.iter().all(|x| *x == FalseTickerVerdict::Truechimer));
    }

    fn seeded_filter(drift_ms_per_s: f64, n: usize) -> TrendFilter {
        let mut f = TrendFilter::new(1.0, true);
        for i in 0..n {
            let t = i as f64 * 15.0;
            // Small deterministic jitter around the drift line.
            let jitter = [(0.4), (-0.3), (0.1), (-0.2), (0.25)][i % 5];
            f.record_unchecked(t, drift_ms_per_s * t + jitter);
        }
        f
    }

    #[test]
    fn drift_estimate_matches_seeded_slope() {
        let f = seeded_filter(0.01, 10); // 10 ppm
        let ppm = f.drift_ppm().unwrap();
        assert!((ppm - 10.0).abs() < 1.0, "ppm={ppm}");
    }

    #[test]
    fn inlier_accepted_outlier_rejected() {
        let mut f = seeded_filter(0.01, 10);
        let t = 200.0;
        let on_trend = 0.01 * t;
        assert!(f.offer(t, on_trend + 0.2), "near-trend sample must pass");
        // A 300 ms outlier (wireless spike) must be rejected.
        assert!(!f.offer(t + 15.0, on_trend + 300.0));
        // Ten seeded points plus the inlier; the outlier left no trace.
        assert_eq!(f.len(), 11);
    }

    #[test]
    fn first_samples_bootstrap_without_trend() {
        let mut f = TrendFilter::new(1.0, true);
        assert!(f.offer(0.0, 3.0));
        assert!(f.offer(15.0, 3.2));
        assert!(f.offer(30.0, 2.9));
        assert!(f.offer(45.0, 3.1));
        assert!(f.offer(60.0, 3.0));
        // Five consistent samples seed the trend.
        assert_eq!(f.len(), 5);
        assert!(f.drift_ppm().is_some());
    }

    #[test]
    fn hostile_bootstrap_outliers_do_not_seed_the_trend() {
        let mut f = TrendFilter::new(1.0, true);
        // The channel is hostile at startup: two wild samples among the
        // first five must neither be "accepted" nor enter the seed.
        assert!(f.offer(0.0, 1.0));
        assert!(!f.offer(5.0, -173.0), "wild sample accepted during bootstrap");
        assert!(f.offer(10.0, 0.5));
        assert!(!f.offer(15.0, -77.0));
        assert!(f.offer(20.0, 1.5));
        // Seeded from the consensus subset only.
        assert_eq!(f.len(), 3);
        let p = f.predict(25.0).unwrap();
        assert!(p.abs() < 10.0, "trend seeded near consensus, p={p}");
    }

    #[test]
    fn no_reestimate_keeps_initial_fit() {
        let mut f = TrendFilter::new(1.0, false);
        for i in 0..10 {
            f.record_unchecked(i as f64 * 10.0, 0.02 * (i as f64 * 10.0));
        }
        f.refit();
        let before = f.drift_ppm().unwrap();
        // Accept several samples from a *different* slope; the fit must
        // not move (this is the pre-§5.3-fix behaviour).
        for i in 10..14 {
            let t = i as f64 * 10.0;
            f.offer(t, 0.02 * 90.0 + 0.001 * (t - 90.0));
        }
        let after = f.drift_ppm().unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn reestimate_adapts_the_fit() {
        let mut f = TrendFilter::new(1.0, true);
        for i in 0..10 {
            f.record_unchecked(i as f64 * 10.0, 0.02 * (i as f64 * 10.0));
        }
        let before = f.drift_ppm().unwrap();
        for i in 10..40 {
            let t = i as f64 * 10.0;
            // Slope gently flattens.
            f.offer(t, 0.02 * 90.0 + 0.005 * (t - 90.0));
        }
        let after = f.drift_ppm().unwrap();
        assert!(after < before, "fit should adapt: {before} -> {after}");
    }

    #[test]
    fn prediction_extends_the_line() {
        let f = seeded_filter(0.05, 20);
        let p = f.predict(1000.0).unwrap();
        assert!((p - 50.0).abs() < 2.0, "p={p}");
    }

    #[test]
    fn counts_start_zero() {
        let f = TrendFilter::new(1.0, true);
        assert_eq!(f.len(), 0);
        assert!(f.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use devtools::prop;
    use devtools::{prop_assert, prop_assert_eq, props};

    props! {
        /// Samples on a noiseless line are always accepted, whatever the
        /// slope.
        fn clean_line_never_rejected(slope in prop::floats(-0.1..0.1), n in prop::sizes(5..40)) {
            let mut f = TrendFilter::new(1.0, true);
            for i in 0..n {
                let t = i as f64 * 15.0;
                prop_assert!(f.offer(t, slope * t));
            }
            prop_assert_eq!(f.len(), n);
        }

        /// False-ticker verdicts never reject the majority when all
        /// offsets are equal, and never reject more than half of three
        /// agreeing-plus-one-outlier rounds.
        fn false_ticker_rejection_bounded(base in prop::floats(-50.0..50.0), outlier in prop::floats(200.0..500.0)) {
            let offsets = [base, base + 1.0, base - 1.0, base + outlier];
            let v = reject_false_tickers(&offsets, 1.0);
            let rejected = v.iter().filter(|x| **x == FalseTickerVerdict::FalseTicker).count();
            prop_assert!(rejected <= 2);
            prop_assert_eq!(v[3], FalseTickerVerdict::FalseTicker);
        }
    }

    /// The case `proptest` shrank to and pinned in
    /// `proptest-regressions/filter.txt` before the workspace went
    /// hermetic (`cc aad29e72…`): a clean line with slope
    /// −0.01828777755328621 over 15 samples must be fully accepted. Kept
    /// as an explicit unit test so the historical failure stays covered
    /// without the proptest seed-file machinery.
    #[test]
    fn regression_clean_line_slope_neg_0_0183_n15() {
        let slope = -0.018_287_777_553_286_21;
        let n = 15usize;
        let mut f = TrendFilter::new(1.0, true);
        for i in 0..n {
            let t = i as f64 * 15.0;
            assert!(f.offer(t, slope * t), "sample {i} rejected");
        }
        assert_eq!(f.len(), n);
    }
}
