//! Online self-tuning of MNTP's regular-phase pacing — the paper's §7
//! future work ("we also plan to investigate self-tuning of parameter
//! settings").
//!
//! The tuner (§5.3) searches parameters *offline* against a recorded
//! trace. This module closes the loop *online*: the regular-phase wait
//! time adapts to what the filter observes, using the classic
//! additive-increase / multiplicative-decrease shape —
//!
//! * every **accepted** sample is evidence the trend is tracking well →
//!   stretch the wait additively (fewer requests, less energy; the
//!   paper's efficiency goal);
//! * a **rejected** sample or a **failed** round is evidence the channel
//!   or the drift estimate is misbehaving → halve the wait (re-verify
//!   the trend quickly), bounded below.
//!
//! The controller only touches `regularWaitTime`; the warmup parameters
//! stay fixed (warmup is a one-off cost, and adapting it online would
//! require the very trend the warmup exists to build).

use crate::engine::SampleVerdict;

/// AIMD controller configuration.
#[derive(Clone, Debug)]
pub struct AutoTuneConfig {
    /// Lower bound on the regular wait, seconds.
    pub min_wait_secs: f64,
    /// Upper bound on the regular wait, seconds.
    pub max_wait_secs: f64,
    /// Additive increase per accepted sample, seconds.
    pub increase_secs: f64,
    /// Multiplicative decrease factor on rejection/failure.
    pub decrease_factor: f64,
}

impl Default for AutoTuneConfig {
    fn default() -> Self {
        AutoTuneConfig {
            min_wait_secs: 15.0,
            max_wait_secs: 1800.0,
            increase_secs: 30.0,
            decrease_factor: 0.5,
        }
    }
}

/// The AIMD pacing controller.
#[derive(Clone, Debug)]
pub struct AutoTuner {
    cfg: AutoTuneConfig,
    wait_secs: f64,
    /// Backoffs made (diagnostics).
    pub decreases: u64,
}

impl AutoTuner {
    /// Start at the configured minimum (sample eagerly until the trend
    /// earns trust).
    pub fn new(cfg: AutoTuneConfig) -> Self {
        let wait = cfg.min_wait_secs;
        AutoTuner { cfg, wait_secs: wait, decreases: 0 }
    }

    /// The wait the engine should currently use.
    pub fn wait_secs(&self) -> f64 {
        self.wait_secs
    }

    /// Feed a regular-phase verdict; returns the new wait.
    pub fn on_verdict(&mut self, verdict: &SampleVerdict) -> f64 {
        match verdict {
            SampleVerdict::Accepted { .. } => {
                self.wait_secs =
                    (self.wait_secs + self.cfg.increase_secs).min(self.cfg.max_wait_secs);
            }
            SampleVerdict::Rejected { .. } => self.backoff(),
            // Just back from an outage: sample eagerly while the fresh
            // warmup rebuilds trust in the trend.
            SampleVerdict::Recovered { .. } => self.backoff(),
        }
        self.wait_secs
    }

    /// Feed a failed query round (all losses).
    pub fn on_failure(&mut self) -> f64 {
        self.backoff();
        self.wait_secs
    }

    fn backoff(&mut self) {
        self.wait_secs =
            (self.wait_secs * self.cfg.decrease_factor).max(self.cfg.min_wait_secs);
        self.decreases += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc() -> SampleVerdict {
        SampleVerdict::Accepted { offset_ms: 1.0 }
    }

    fn rej() -> SampleVerdict {
        SampleVerdict::Rejected { offset_ms: 200.0 }
    }

    #[test]
    fn acceptance_stretches_wait_to_cap() {
        let mut at = AutoTuner::new(AutoTuneConfig::default());
        assert_eq!(at.wait_secs(), 15.0);
        let waits: Vec<f64> = (0..100).map(|_| at.on_verdict(&acc())).collect();
        // Additive 30 s steps: the 60th acceptance is the first at the cap.
        assert_eq!(waits[58], 15.0 + 59.0 * 30.0);
        assert_eq!(waits[59], 1800.0);
        assert_eq!(at.wait_secs(), 1800.0);
    }

    #[test]
    fn rejection_halves_wait_to_floor() {
        let mut at = AutoTuner::new(AutoTuneConfig::default());
        for _ in 0..20 {
            at.on_verdict(&acc());
        }
        let stretched = at.wait_secs();
        assert!(stretched > 500.0);
        at.on_verdict(&rej());
        assert!((at.wait_secs() - stretched / 2.0).abs() < 1e-9);
        for _ in 0..20 {
            at.on_verdict(&rej());
        }
        assert_eq!(at.wait_secs(), 15.0);
    }

    #[test]
    fn failures_also_back_off() {
        let mut at = AutoTuner::new(AutoTuneConfig::default());
        for _ in 0..10 {
            at.on_verdict(&acc());
        }
        let before = at.wait_secs();
        at.on_failure();
        assert!(at.wait_secs() < before);
    }

    #[test]
    fn sawtooth_converges_between_bounds() {
        // A 1-in-5 rejection pattern: the wait settles into a sawtooth
        // strictly inside the bounds.
        let mut at = AutoTuner::new(AutoTuneConfig::default());
        let mut waits = Vec::new();
        for i in 0..200 {
            if i % 5 == 4 {
                at.on_verdict(&rej());
            } else {
                at.on_verdict(&acc());
            }
            waits.push(at.wait_secs());
        }
        let late = &waits[100..];
        let min = late.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = late.iter().cloned().fold(0.0f64, f64::max);
        assert!(min >= 15.0 && max <= 1800.0);
        assert!(max < 600.0, "sawtooth ceiling {max}");
        assert!(max > min, "should oscillate");
    }
}
