//! Model-validation experiments — checks the paper could not run because
//! it had no ground truth, and we can because the simulator does.
//!
//! * [`drift_estimation_accuracy`] — how close does MNTP's least-squares
//!   `estimateDrift` get to the oscillator's true skew, across a sweep
//!   of skews? (Validates Algorithm 1's core estimator.)
//! * [`temperature_step`] — the paper notes wired drift "is dependent on
//!   the temperature of the vendor-specific oscillator"; here the
//!   ambient temperature steps mid-run and MNTP's re-estimated trend
//!   must follow the changed drift.

use clocksim::temperature::TemperatureProfile;
use clocksim::time::{SimDuration, SimTime};
use clocksim::{ClockControl, OscillatorConfig, SimClock, SimRng};
use mntp::{Mntp, MntpAction, MntpConfig};
use netsim::Testbed;
use sntp::perform_exchange;

use crate::harness::default_pool;
use crate::render;

/// One row of the drift-estimation sweep.
#[derive(Clone, Copy, Debug)]
pub struct DriftRow {
    /// True oscillator skew, ppm.
    pub true_ppm: f64,
    /// MNTP's estimate after warmup, ppm.
    pub estimated_ppm: f64,
}

impl DriftRow {
    /// Estimation error, ppm. (Offset slope = −skew, so the estimator's
    /// sign is inverted relative to the oscillator's.)
    pub fn error_ppm(&self) -> f64 {
        self.estimated_ppm + self.true_ppm
    }
}

/// Warm MNTP up on a wired path against a clock with known skew and
/// report the drift estimate.
pub fn drift_estimation_accuracy(seed: u64) -> Vec<DriftRow> {
    let skews = [-50.0, -20.0, -5.0, 0.0, 5.0, 20.0, 50.0];
    skews
        .iter()
        .map(|&ppm| {
            let mut tb = Testbed::wired(seed);
            let mut pool = default_pool(seed + 1);
            let osc = OscillatorConfig::perfect().with_skew_ppm(ppm).build(SimRng::new(seed + 2));
            let mut clock = SimClock::new(osc, SimTime::ZERO);
            let cfg = MntpConfig {
                warmup_period_secs: 1800.0,
                warmup_wait_secs: 15.0,
                min_warmup_samples: 10,
                ..Default::default()
            };
            let mut engine = Mntp::new(cfg);
            let mut t_secs = 0u64;
            while t_secs <= 2000 {
                let t = SimTime::ZERO + SimDuration::from_secs(t_secs as i64);
                let now_local = clock.now(t);
                if let MntpAction::QueryMultiple(n) = engine.on_tick(now_local, None) {
                    let ids = pool.pick_distinct(n);
                    let offsets: Vec<f64> = ids
                        .into_iter()
                        .filter_map(|id| {
                            perform_exchange(&mut tb, pool.server_mut(id), &mut clock, t)
                                .ok()
                                .map(|d| d.sample.offset.as_millis_f64())
                        })
                        .collect();
                    engine.on_warmup_round(clock.now(t), &offsets);
                }
                t_secs += 1;
            }
            DriftRow { true_ppm: ppm, estimated_ppm: engine.drift_ppm().unwrap_or(f64::NAN) }
        })
        .collect()
}

/// Render the drift sweep.
pub fn render_drift(rows: &[DriftRow]) -> String {
    let mut out = String::from(
        "Validation — MNTP drift estimator vs ground-truth oscillator skew\n\
         (offset slope = −skew, so a perfect estimate is the negated skew)\n\n",
    );
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:+.0}", r.true_ppm),
                format!("{:+.2}", r.estimated_ppm),
                format!("{:+.2}", r.error_ppm()),
            ]
        })
        .collect();
    out.push_str(&render::table(&["true skew (ppm)", "estimate (ppm)", "error (ppm)"], &table_rows));
    out
}

/// Result of the temperature-step experiment.
#[derive(Clone, Debug)]
pub struct TemperatureStepResult {
    /// Trend slope over the first (cool) hour, ppm.
    pub slope_before_ppm: f64,
    /// Trend slope over the last (hot) hour, ppm.
    pub slope_after_ppm: f64,
    /// Ground-truth rate change implied by the thermal coefficient, ppm.
    pub true_change_ppm: f64,
}

/// Run a wired free-running clock whose ambient temperature jumps 20 °C
/// at the half-way point; fit MNTP-accepted samples on each side.
pub fn temperature_step(seed: u64) -> TemperatureStepResult {
    let temp_coeff = 0.4; // ppm/°C — a poor phone crystal far from turnover
    let step_c = 20.0;
    let osc_cfg = OscillatorConfig {
        skew_ppm: 12.0,
        wander_sigma_ppm: 0.1,
        wander_tau_secs: 900.0,
        temp_coeff_ppm_per_c: temp_coeff,
        temp_ref_c: 25.0,
        temperature: TemperatureProfile::Steps(vec![(0.0, 25.0), (3600.0, 45.0)]),
    };
    let mut tb = Testbed::wired(seed);
    let mut pool = default_pool(seed + 1);
    let mut clock = SimClock::new(osc_cfg.build(SimRng::new(seed + 2)), SimTime::ZERO);
    // Collect raw accepted samples with the baseline filter.
    let cfg = MntpConfig::baseline(5.0);
    let mut filter = mntp::TrendFilter::new(cfg.filter_sigma, cfg.reestimate_drift);
    let mut accepted: Vec<(f64, f64)> = Vec::new();
    for i in 0..(2 * 3600 / 5) {
        let t = SimTime::from_secs(i * 5);
        let id = pool.pick();
        if let Ok(done) = perform_exchange(&mut tb, pool.server_mut(id), &mut clock, t) {
            let ms = done.sample.offset.as_millis_f64();
            if filter.offer(t.as_secs_f64(), ms) {
                accepted.push((t.as_secs_f64(), ms));
            }
        }
    }
    let before: Vec<(f64, f64)> =
        accepted.iter().copied().filter(|(t, _)| *t < 3300.0).collect();
    let after: Vec<(f64, f64)> =
        accepted.iter().copied().filter(|(t, _)| *t > 3900.0).collect();
    let slope = |pts: &[(f64, f64)]| {
        clocksim::fit::fit_line(pts).map(|f| f.slope * 1000.0).unwrap_or(f64::NAN)
    };
    TemperatureStepResult {
        slope_before_ppm: slope(&before),
        slope_after_ppm: slope(&after),
        true_change_ppm: temp_coeff * step_c,
    }
}

/// Render the temperature-step result.
pub fn render_temperature(r: &TemperatureStepResult) -> String {
    format!(
        "Validation — temperature step (25 → 45 °C at t = 1 h, 0.4 ppm/°C crystal)\n\n\
         trend slope before: {:+.2} ppm\n\
         trend slope after : {:+.2} ppm\n\
         measured change   : {:+.2} ppm (ground truth: −{:.1} ppm on the offset slope)\n",
        r.slope_before_ppm,
        r.slope_after_ppm,
        r.slope_after_ppm - r.slope_before_ppm,
        r.true_change_ppm
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_estimates_track_truth() {
        for row in drift_estimation_accuracy(141) {
            assert!(
                row.error_ppm().abs() < 3.0,
                "skew {} ppm estimated {} ppm",
                row.true_ppm,
                row.estimated_ppm
            );
        }
    }

    #[test]
    fn temperature_step_shifts_the_trend() {
        let r = temperature_step(142);
        let change = r.slope_after_ppm - r.slope_before_ppm;
        // Offset slope change = −(thermal rate change) = −8 ppm.
        assert!(
            (change + r.true_change_ppm).abs() < 3.0,
            "change {change} ppm vs expected −{} ppm",
            r.true_change_ppm
        );
    }
}
