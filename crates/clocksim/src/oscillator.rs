//! Crystal-oscillator frequency-error models.
//!
//! A clock advances at rate `1 + e(t)` where `e(t)` is the oscillator's
//! fractional frequency error. Following the structure the paper leans on
//! (§4.2: "the constant skew factor of the clock dominates its variable
//! counterpart", citing Murdoch), `e(t)` is modelled as
//!
//! ```text
//! e(t) = skew + wander(t) + temp_coeff * (T(t) - T_ref) [all in ppm]
//! ```
//!
//! * `skew` — the dominant constant term, set by manufacturing tolerance
//!   (consumer crystals: a few to a few tens of ppm).
//! * `wander(t)` — a mean-reverting Ornstein–Uhlenbeck term capturing
//!   random frequency wander (aging and noise), small relative to `skew`.
//! * thermal term — deviation from the reference temperature scaled by the
//!   crystal's thermal coefficient (AT-cut quartz: ~0.03–0.1 ppm/°C near
//!   turnover, much worse away from it; we expose the coefficient).

use crate::rng::SimRng;
use crate::temperature::TemperatureProfile;
use crate::time::{SimDuration, SimTime};

/// Static description of an oscillator. Construct via the presets or
/// literal struct syntax, then call [`OscillatorConfig::build`].
#[derive(Clone, Debug)]
pub struct OscillatorConfig {
    /// Constant frequency error, ppm. Positive = clock runs fast.
    pub skew_ppm: f64,
    /// Stationary standard deviation of the wander term, ppm.
    pub wander_sigma_ppm: f64,
    /// Mean-reversion time constant of the wander term, seconds.
    pub wander_tau_secs: f64,
    /// Thermal coefficient, ppm per °C away from `temp_ref_c`.
    pub temp_coeff_ppm_per_c: f64,
    /// Reference (turnover) temperature, °C.
    pub temp_ref_c: f64,
    /// Ambient temperature profile.
    pub temperature: TemperatureProfile,
}

impl OscillatorConfig {
    /// A decent laptop crystal: +8 ppm constant skew, mild wander.
    /// Roughly matches the steady drift visible in the paper's wired
    /// no-correction traces.
    pub fn laptop() -> Self {
        OscillatorConfig {
            skew_ppm: 8.0,
            wander_sigma_ppm: 0.4,
            wander_tau_secs: 900.0,
            temp_coeff_ppm_per_c: 0.05,
            temp_ref_c: 25.0,
            temperature: TemperatureProfile::room(),
        }
    }

    /// A cheap phone crystal: larger skew and wander.
    pub fn phone() -> Self {
        OscillatorConfig {
            skew_ppm: 18.0,
            wander_sigma_ppm: 1.2,
            wander_tau_secs: 600.0,
            temp_coeff_ppm_per_c: 0.12,
            temp_ref_c: 25.0,
            temperature: TemperatureProfile::room(),
        }
    }

    /// An ideal oscillator with zero error (for tests).
    pub fn perfect() -> Self {
        OscillatorConfig {
            skew_ppm: 0.0,
            wander_sigma_ppm: 0.0,
            wander_tau_secs: 1.0,
            temp_coeff_ppm_per_c: 0.0,
            temp_ref_c: 25.0,
            temperature: TemperatureProfile::room(),
        }
    }

    /// Override the constant skew (builder-style).
    pub fn with_skew_ppm(mut self, ppm: f64) -> Self {
        self.skew_ppm = ppm;
        self
    }

    /// Override the temperature profile (builder-style).
    pub fn with_temperature(mut self, t: TemperatureProfile) -> Self {
        self.temperature = t;
        self
    }

    /// Instantiate the stochastic state.
    pub fn build(self, rng: SimRng) -> Oscillator {
        Oscillator { config: self, wander_ppm: 0.0, rng }
    }
}

/// Live oscillator state: configuration plus the current wander value and
/// its RNG stream.
#[derive(Clone, Debug)]
pub struct Oscillator {
    config: OscillatorConfig,
    wander_ppm: f64,
    rng: SimRng,
}

impl Oscillator {
    /// Current total fractional frequency error, ppm, at true time `t`.
    pub fn frequency_error_ppm(&self, t: SimTime) -> f64 {
        let temp = self.config.temperature.at(t);
        self.config.skew_ppm
            + self.wander_ppm
            + self.config.temp_coeff_ppm_per_c * (temp - self.config.temp_ref_c)
    }

    /// Advance the wander process by `dt` using the exact OU transition:
    /// `w' = w·e^{−dt/τ} + σ·√(1−e^{−2dt/τ})·N(0,1)`.
    pub fn advance(&mut self, dt: SimDuration) {
        if self.config.wander_sigma_ppm == 0.0 {
            return;
        }
        let dt_s = dt.as_secs_f64().max(0.0);
        let a = (-dt_s / self.config.wander_tau_secs).exp();
        let noise_sigma = self.config.wander_sigma_ppm * (1.0 - a * a).sqrt();
        self.wander_ppm = self.wander_ppm * a + noise_sigma * self.rng.gauss();
    }

    /// The static configuration.
    pub fn config(&self) -> &OscillatorConfig {
        &self.config
    }

    /// Current wander component, ppm (diagnostics).
    pub fn wander_ppm(&self) -> f64 {
        self.wander_ppm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_oscillator_has_zero_error() {
        let mut osc = OscillatorConfig::perfect().build(SimRng::new(1));
        for i in 0..100 {
            osc.advance(SimDuration::from_secs(5));
            assert_eq!(osc.frequency_error_ppm(SimTime::from_secs(i * 5)), 0.0);
        }
    }

    #[test]
    fn constant_skew_dominates() {
        let mut osc = OscillatorConfig::laptop().build(SimRng::new(2));
        for _ in 0..1000 {
            osc.advance(SimDuration::from_secs(5));
        }
        let e = osc.frequency_error_ppm(SimTime::from_secs(5000));
        // Wander sigma is 0.4 ppm; error should stay within ~5 sigma of skew.
        assert!((e - 8.0).abs() < 2.0, "e={e}");
    }

    #[test]
    fn wander_is_mean_reverting() {
        let cfg = OscillatorConfig {
            skew_ppm: 0.0,
            wander_sigma_ppm: 1.0,
            wander_tau_secs: 100.0,
            temp_coeff_ppm_per_c: 0.0,
            temp_ref_c: 25.0,
            temperature: TemperatureProfile::room(),
        };
        let mut osc = cfg.build(SimRng::new(3));
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        let n = 20_000;
        for _ in 0..n {
            osc.advance(SimDuration::from_secs(10));
            let w = osc.wander_ppm();
            sum += w;
            sumsq += w * w;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.1, "mean={mean}");
        assert!((var - 1.0).abs() < 0.15, "var={var}");
    }

    #[test]
    fn thermal_term_scales_with_temperature() {
        let cfg = OscillatorConfig::laptop()
            .with_temperature(TemperatureProfile::Constant(35.0))
            .with_skew_ppm(0.0);
        let cfg = OscillatorConfig { wander_sigma_ppm: 0.0, ..cfg };
        let osc = cfg.build(SimRng::new(4));
        let e = osc.frequency_error_ppm(SimTime::ZERO);
        // 10 °C over reference * 0.05 ppm/°C.
        assert!((e - 0.5).abs() < 1e-12, "e={e}");
    }

    #[test]
    fn advance_with_zero_dt_is_noop_for_perfect() {
        let mut osc = OscillatorConfig::perfect().build(SimRng::new(5));
        osc.advance(SimDuration::ZERO);
        assert_eq!(osc.wander_ppm(), 0.0);
    }
}
