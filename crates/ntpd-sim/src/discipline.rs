//! The clock discipline loop (RFC 5905 §11.3 and appendix A.5.5.1,
//! simplified).
//!
//! Consumes system offsets from the mitigation pipeline and produces
//! clock commands: a **step** when the offset exceeds the 128 ms step
//! threshold (after a sanity interval), otherwise a **phase slew** plus a
//! **frequency trim** from the hybrid PLL/FLL. The poll interval adapts
//! between `poll_min` and `poll_max`: good agreement (offset well inside
//! jitter) raises it, repeated surprises lower it.

use clocksim::ClockCommand;
use ntp_wire::NtpDuration;

/// Discipline tuning.
#[derive(Clone, Debug)]
pub struct DisciplineConfig {
    /// Step threshold, s (RFC: 0.128).
    pub step_threshold: f64,
    /// Panic threshold, s (RFC: 1000; offsets beyond this are refused).
    pub panic_threshold: f64,
    /// Minimum poll exponent (2^x s). RFC default 6 → 64 s.
    pub poll_min: i8,
    /// Maximum poll exponent. RFC default 10 → 1024 s.
    pub poll_max: i8,
    /// PLL time constant scale: loop gain is `1 / 2^(poll_tc)` relative
    /// to the poll interval.
    pub pll_gain: f64,
    /// FLL gain (fraction of measured frequency error corrected per
    /// update).
    pub fll_gain: f64,
    /// Minimum spacing between FLL-eligible updates, s. Below this the
    /// slope measurement is noise-dominated (the Allan-intercept rule,
    /// simplified), so only the PLL acts.
    pub fll_min_dt: f64,
    /// Per-update frequency trim clamp, ppm.
    pub trim_clamp_ppm: f64,
    /// Total accumulated trim clamp, ppm (kernel discipline limit).
    pub trim_total_clamp_ppm: f64,
}

impl Default for DisciplineConfig {
    fn default() -> Self {
        DisciplineConfig {
            step_threshold: 0.128,
            panic_threshold: 1000.0,
            poll_min: 6,
            poll_max: 10,
            pll_gain: 0.4,
            fll_gain: 0.25,
            fll_min_dt: 256.0,
            trim_clamp_ppm: 10.0,
            trim_total_clamp_ppm: 500.0,
        }
    }
}

/// Outcome of one discipline update.
#[derive(Clone, Debug, PartialEq)]
pub enum DisciplineVerdict {
    /// Offset beyond the panic threshold: refused (a real ntpd exits).
    Panic,
    /// Clock stepped.
    Stepped,
    /// Clock slewed/trimmed normally.
    Adjusted,
}

/// The discipline state machine.
#[derive(Clone, Debug)]
pub struct Discipline {
    cfg: DisciplineConfig,
    /// Current poll exponent.
    poll_exp: i8,
    /// Consecutive in-band updates (drives poll raising).
    calm_streak: u32,
    /// Commands produced by the last update.
    pending: Vec<ClockCommand>,
    /// Local time of the last FLL engagement, and the offset then.
    fll_anchor: Option<(f64, f64)>,
    /// Accumulated frequency trim, ppm.
    total_trim_ppm: f64,
}

impl Discipline {
    /// New discipline at the minimum poll interval.
    pub fn new(cfg: DisciplineConfig) -> Self {
        let poll = cfg.poll_min;
        Discipline {
            cfg,
            poll_exp: poll,
            calm_streak: 0,
            pending: Vec::new(),
            fll_anchor: None,
            total_trim_ppm: 0.0,
        }
    }

    /// Current poll interval, seconds.
    pub fn poll_interval_secs(&self) -> f64 {
        2f64.powi(self.poll_exp as i32)
    }

    /// Current poll exponent.
    pub fn poll_exp(&self) -> i8 {
        self.poll_exp
    }

    /// Drain pending clock commands.
    pub fn take_commands(&mut self) -> Vec<ClockCommand> {
        std::mem::take(&mut self.pending)
    }

    /// Feed one system offset (seconds) with the system jitter estimate
    /// (seconds) at local time `now_secs`.
    pub fn update(&mut self, now_secs: f64, offset: f64, jitter: f64) -> DisciplineVerdict {
        if offset.abs() > self.cfg.panic_threshold {
            return DisciplineVerdict::Panic;
        }
        if offset.abs() > self.cfg.step_threshold {
            self.pending
                .push(ClockCommand::Step(NtpDuration::from_seconds_f64(offset)));
            self.poll_exp = self.cfg.poll_min;
            self.calm_streak = 0;
            self.fll_anchor = None; // pre-step offsets are meaningless now
            return DisciplineVerdict::Stepped;
        }

        // FLL term: the offset's slope is the frequency error of the
        // *server relative to us* — a clock running fast sees offsets
        // drift negative, so the slope itself is the correction to apply
        // (scaled by the gain). Engaged only across spans of at least
        // `fll_min_dt`: over shorter spans a fraction of a millisecond of
        // path noise masquerades as tens of ppm.
        match self.fll_anchor {
            None => self.fll_anchor = Some((now_secs, offset)),
            Some((t0, o0)) => {
                let dt = now_secs - t0;
                if dt >= self.cfg.fll_min_dt {
                    let offset_slope_ppm = (offset - o0) / dt * 1e6;
                    let trim = (self.cfg.fll_gain * offset_slope_ppm)
                        .clamp(-self.cfg.trim_clamp_ppm, self.cfg.trim_clamp_ppm);
                    let clamped_total = (self.total_trim_ppm + trim)
                        .clamp(-self.cfg.trim_total_clamp_ppm, self.cfg.trim_total_clamp_ppm);
                    let applied = clamped_total - self.total_trim_ppm;
                    if applied.abs() > 1e-4 {
                        self.total_trim_ppm += applied;
                        self.pending.push(ClockCommand::TrimFrequencyPpm(applied));
                    }
                    self.fll_anchor = Some((now_secs, offset));
                }
            }
        }
        // PLL term: correct a fraction of the phase error by slewing.
        let phase = self.cfg.pll_gain * offset;
        self.pending
            .push(ClockCommand::Slew(NtpDuration::from_seconds_f64(phase)));

        // Poll adaptation: compare offset to jitter.
        if offset.abs() < jitter.max(1e-3) * 2.0 {
            self.calm_streak += 1;
            if self.calm_streak >= 4 && self.poll_exp < self.cfg.poll_max {
                self.poll_exp += 1;
                self.calm_streak = 0;
            }
        } else {
            self.calm_streak = 0;
            if self.poll_exp > self.cfg.poll_min {
                self.poll_exp -= 1;
            }
        }

        DisciplineVerdict::Adjusted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_offset_steps() {
        let mut d = Discipline::new(DisciplineConfig::default());
        let v = d.update(0.0, 0.5, 0.001);
        assert_eq!(v, DisciplineVerdict::Stepped);
        let cmds = d.take_commands();
        assert!(
            matches!(cmds.as_slice(), [ClockCommand::Step(_)]),
            "{cmds:?}"
        );
    }

    #[test]
    fn panic_offset_refused() {
        let mut d = Discipline::new(DisciplineConfig::default());
        assert_eq!(d.update(0.0, 2000.0, 0.001), DisciplineVerdict::Panic);
        assert!(d.take_commands().is_empty());
    }

    #[test]
    fn small_offset_slews() {
        let mut d = Discipline::new(DisciplineConfig::default());
        let v = d.update(0.0, 0.010, 0.002);
        assert_eq!(v, DisciplineVerdict::Adjusted);
        let cmds = d.take_commands();
        assert!(cmds.iter().any(|c| matches!(c, ClockCommand::Slew(_))));
    }

    #[test]
    fn fll_corrects_persistent_drift() {
        let mut d = Discipline::new(DisciplineConfig::default());
        // Offsets shrinking 1 ms per 64 s: the client clock runs fast by
        // 15.6 ppm. The FLL engages once fll_min_dt (256 s) has elapsed.
        let mut trims = Vec::new();
        for i in 0..8 {
            let t = i as f64 * 64.0;
            d.update(t, -0.001 * i as f64, 0.001);
            for c in d.take_commands() {
                if let ClockCommand::TrimFrequencyPpm(p) = c {
                    trims.push(p);
                }
            }
        }
        let total: f64 = trims.iter().sum();
        // Fast clock → negative trim; clamped at 10 ppm per engagement.
        assert!(total < -2.0 && total > -20.0, "total trim {total}, trims={trims:?}");
        assert!(trims.iter().all(|t| t.abs() <= 10.0 + 1e-9));
    }

    #[test]
    fn poll_rises_when_calm_falls_when_noisy() {
        let mut d = Discipline::new(DisciplineConfig::default());
        assert_eq!(d.poll_exp(), 6);
        // Four calm updates raise the poll once.
        for i in 0..4 {
            d.update(i as f64 * 64.0, 0.0001, 0.001);
            d.take_commands();
        }
        assert_eq!(d.poll_exp(), 7);
        // A surprise drops it back.
        d.update(300.0, 0.050, 0.001);
        assert_eq!(d.poll_exp(), 6);
    }

    #[test]
    fn poll_clamped_to_bounds() {
        let mut d = Discipline::new(DisciplineConfig::default());
        for i in 0..100 {
            d.update(i as f64 * 64.0, 0.0, 0.001);
            d.take_commands();
        }
        assert_eq!(d.poll_exp(), 10);
        for i in 0..100 {
            d.update(10_000.0 + i as f64, 0.05, 0.001);
            d.take_commands();
        }
        assert_eq!(d.poll_exp(), 6);
    }

    #[test]
    fn step_resets_poll() {
        let mut d = Discipline::new(DisciplineConfig::default());
        for i in 0..8 {
            d.update(i as f64 * 64.0, 0.0, 0.001);
            d.take_commands();
        }
        assert!(d.poll_exp() > 6);
        d.update(1000.0, 0.5, 0.001);
        assert_eq!(d.poll_exp(), 6);
    }
}
