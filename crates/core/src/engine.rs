//! Algorithm 1: the MNTP two-phase clock-synchronization engine.
//!
//! Sans-io: the engine never touches a socket or a clock. The driver
//! calls [`Mntp::on_tick`] with the current *local* time and the current
//! wireless hints; the engine answers with what to do
//! ([`MntpAction::QueryMultiple`] during warmup,
//! [`MntpAction::QuerySingle`] during the regular phase,
//! [`MntpAction::Deferred`] when a request was due but the hint gate
//! said no, or [`MntpAction::Wait`] when nothing is due). The driver
//! performs the exchanges and feeds results back through
//! [`Mntp::on_warmup_round`] (a [`WarmupVerdict`], or `None` for a round
//! nobody answered), [`Mntp::on_regular_sample`] (a [`SampleVerdict`])
//! or [`Mntp::on_query_failed`]; clock corrections accumulate in a
//! command queue drained with [`Mntp::take_commands`]. Every decision
//! comes back as a value: the engine keeps no counters for callers to
//! diff.
//!
//! Phase logic follows the paper exactly:
//!
//! * **Warmup** (steps 4–14): gate on hints; query `warmup_sources` pool
//!   references in parallel every `warmupWaitTime`; reject false tickers
//!   (mean + 1σ); record until `warmupPeriod` has elapsed *and* at least
//!   `min_warmup_samples` offsets are recorded (the trend needs 10
//!   points, §4.2); then estimate drift by least squares.
//! * **Regular** (steps 16–26): correct clock drift; gate on hints;
//!   query a single source every `regularWaitTime`; accept/reject each
//!   sample against the extended trend line; accepted samples correct
//!   the clock and (per the §5.3 fix) re-estimate the drift.
//! * **Reset** (steps 23–24): after `resetPeriod`, restart from warmup.
//!
//! Beyond the paper, the engine has a **holdover** phase for graceful
//! degradation: when `holdover_after_failures` consecutive regular-phase
//! query rounds fail (servers unreachable), it stops expecting samples
//! and *freewheels on the fitted drift model* — the frequency trim
//! already applied keeps the clock running at the estimated true rate,
//! so error grows at the small residual drift instead of the raw
//! oscillator skew. Probes continue with capped exponential backoff;
//! the first successful sample yields [`SampleVerdict::Recovered`],
//! corrects the clock, and re-enters warmup to rebuild the trend. The
//! reset timer is suspended while in holdover (restarting warmup with
//! no reachable servers would discard the very model being freewheeled
//! on).

use clocksim::ClockCommand;
use netsim::WirelessHints;
use ntp_wire::{NtpDuration, NtpTimestamp};

use crate::config::{ApplyMode, MntpConfig};
use crate::filter::{combine_round, reject_false_tickers, FalseTickerVerdict, TrendFilter};
use crate::gate::HintGate;

/// Which phase of Algorithm 1 the engine is in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Steps 4–14: multi-source sampling, trend construction.
    Warmup,
    /// Steps 16–26: single-source sampling, clock correction.
    Regular,
    /// All servers unreachable: freewheel on the fitted drift model and
    /// probe with backoff until one answers.
    Holdover,
}

/// What the driver should do right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MntpAction {
    /// Nothing is due.
    Wait,
    /// A request was due, but the hint gate judged the channel
    /// unfavorable (steps 5 / 17); it stays due for the next tick.
    Deferred,
    /// Query this many distinct pool sources in parallel (warmup).
    QueryMultiple(usize),
    /// Query one source (regular phase).
    QuerySingle,
}

/// The engine's verdict on a warmup round that at least one source
/// answered.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WarmupVerdict {
    /// The round's combined offset after false-ticker rejection, ms.
    pub combined_ms: f64,
    /// Whether the trend filter recorded it.
    pub recorded: bool,
    /// How many of the round's offsets the mean + 1σ test rejected.
    pub false_tickers: usize,
}

/// The engine's verdict on a regular-phase sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SampleVerdict {
    /// Consistent with the trend: recorded (and clock corrected, if an
    /// apply mode is on).
    Accepted {
        /// The sample's offset, ms.
        offset_ms: f64,
    },
    /// Outlier: discarded.
    Rejected {
        /// The discarded offset, ms.
        offset_ms: f64,
    },
    /// First sample after a holdover episode: connectivity is back, the
    /// clock was corrected by this offset, and warmup restarts.
    Recovered {
        /// The recovery sample's offset, ms.
        offset_ms: f64,
    },
}

/// The MNTP engine.
#[derive(Clone, Debug)]
pub struct Mntp {
    cfg: MntpConfig,
    gate: HintGate,
    filter: TrendFilter,
    phase: Phase,
    /// Local time the current cycle (warmup start) began.
    cycle_start: Option<NtpTimestamp>,
    /// Local time before which no request is due.
    next_request: Option<NtpTimestamp>,
    /// Query rounds failed since the last success (holdover trigger and
    /// backoff exponent).
    consecutive_failures: u32,
    /// Offsets of consecutive rejected regular samples (stepout
    /// tracking; cleared on any accept/recover/reset).
    reject_streak: Vec<f64>,
    pending: Vec<ClockCommand>,
}

impl Mntp {
    /// New engine in warmup.
    pub fn new(cfg: MntpConfig) -> Self {
        let gate = HintGate::new(&cfg);
        let filter = TrendFilter::new(cfg.filter_sigma, cfg.reestimate_drift);
        Mntp {
            cfg,
            gate,
            filter,
            phase: Phase::Warmup,
            cycle_start: None,
            next_request: None,
            consecutive_failures: 0,
            reject_streak: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Current drift estimate in ppm, once a trend exists.
    pub fn drift_ppm(&self) -> Option<f64> {
        self.filter.drift_ppm()
    }

    /// Predicted trend offset (ms) at local time `now` — the blue
    /// "corrected drift" line of the paper's Figure 12.
    pub fn predicted_offset_ms(&self, now: NtpTimestamp) -> Option<f64> {
        let start = self.cycle_start?;
        self.filter.predict(elapsed_secs(start, now))
    }

    /// Drain the clock commands produced since the last call.
    pub fn take_commands(&mut self) -> Vec<ClockCommand> {
        std::mem::take(&mut self.pending)
    }

    /// Read-only access to the trend filter (tuner / diagnostics).
    pub fn filter(&self) -> &TrendFilter {
        &self.filter
    }

    /// Adjust the regular-phase wait at runtime (the self-tuning hook,
    /// [`crate::autotune`]). Takes effect from the next scheduling
    /// decision.
    pub fn set_regular_wait_secs(&mut self, secs: f64) {
        self.cfg.regular_wait_secs = secs.max(1.0);
    }

    /// Failures recorded since the last successful round.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    fn reset(&mut self, now: NtpTimestamp) {
        self.phase = Phase::Warmup;
        self.reject_streak.clear();
        self.cycle_start = Some(now);
        self.next_request = Some(now);
        // The applied frequency trim persists — the clock really is
        // better; the new warmup estimates the *residual* drift.
        self.filter = TrendFilter::new(self.cfg.filter_sigma, self.cfg.reestimate_drift);
    }

    /// Step the engine at local time `now` with the current hints.
    pub fn on_tick(&mut self, now: NtpTimestamp, hints: Option<&WirelessHints>) -> MntpAction {
        let start = *self.cycle_start.get_or_insert(now);
        if self.next_request.is_none() {
            self.next_request = Some(now);
        }
        // Step 23: reset after resetPeriod — suspended during holdover,
        // where discarding the drift model would break the freewheel.
        if self.phase != Phase::Holdover
            && elapsed_secs(start, now) >= self.cfg.reset_period_secs
        {
            self.reset(now);
        }

        // Warmup → regular transition (steps 11–13 + 16).
        if self.phase == Phase::Warmup
            && elapsed_secs(self.cycle_start.unwrap_or(now), now) >= self.cfg.warmup_period_secs
            && self.filter.len() >= self.cfg.min_warmup_samples
        {
            self.filter.refit();
            self.phase = Phase::Regular;
            if self.cfg.drift_correction {
                self.emit_trim_update(now);
            }
        }

        // `next_request` was seeded at the top of the tick; a `None` here
        // would mean a reset cleared it mid-tick, and "due now" is the
        // sane reading of that state.
        let due = self.next_request.unwrap_or(now);
        if now.wrapping_sub(due).is_negative() {
            return MntpAction::Wait;
        }
        // Steps 5 / 17: acquire offset only when the channel is stable.
        // Holdover probes bypass the gate: with every server down, a
        // marginal channel is no reason not to *try* (and a gate stuck
        // unfavorable must never be able to starve recovery).
        if self.phase != Phase::Holdover && !self.gate.favorable(hints) {
            return MntpAction::Deferred;
        }
        match self.phase {
            Phase::Warmup => MntpAction::QueryMultiple(self.cfg.warmup_sources),
            Phase::Regular | Phase::Holdover => MntpAction::QuerySingle,
        }
    }

    /// Maintain the frequency trim so the clock runs at the estimated
    /// true rate (step 16, re-run each regular round).
    ///
    /// Every emitted trim also shears the recorded history to the new
    /// rate, so the filter's fitted slope is always the *residual*
    /// drift still uncorrected — the next update trims by that
    /// residual, not by the total. (Comparing the post-shear fit
    /// against the cumulative trim would undo each correction on the
    /// following round and leave the clock running at its raw skew.)
    fn emit_trim_update(&mut self, now: NtpTimestamp) {
        if self.cfg.apply_mode == ApplyMode::RecordOnly {
            return;
        }
        let Some(residual) = self.filter.drift_ppm() else { return };
        if residual.abs() > 0.1 {
            self.pending.push(ClockCommand::TrimFrequencyPpm(residual));
            // Future offsets will flatten by `residual`; shear history so
            // the trend keeps predicting what will actually be measured.
            if let Some(start) = self.cycle_start {
                let pivot = elapsed_secs(start, now);
                self.filter.apply_rate_change(-residual * 1e-3, pivot);
            }
        }
    }

    /// Feed back a completed warmup round: one offset (ms) per source
    /// that answered. Schedules the next warmup request and returns the
    /// round's [`WarmupVerdict`]. A round nobody answered is a failed
    /// query round ([`Mntp::on_query_failed`]) and returns `None`.
    pub fn on_warmup_round(
        &mut self,
        now: NtpTimestamp,
        offsets_ms: &[f64],
    ) -> Option<WarmupVerdict> {
        if offsets_ms.is_empty() {
            self.on_query_failed(now);
            return None;
        }
        self.schedule_next(now, self.cfg.warmup_wait_secs);
        self.consecutive_failures = 0;
        let verdicts = reject_false_tickers(offsets_ms, self.cfg.filter_sigma);
        let false_tickers =
            verdicts.iter().filter(|v| **v == FalseTickerVerdict::FalseTicker).count();
        let combined_ms = combine_round(offsets_ms, &verdicts);
        let t = elapsed_secs(self.cycle_start.unwrap_or(now), now);
        // Steps 7–9: bootstrap the first min_warmup_samples unchecked,
        // then run the trend accept test on later warmup samples too.
        let recorded = if self.filter.len() < self.cfg.min_warmup_samples {
            self.filter.record_unchecked(t, combined_ms);
            true
        } else {
            self.filter.offer(t, combined_ms)
        };
        Some(WarmupVerdict { combined_ms, recorded, false_tickers })
    }

    /// Feed back a regular-phase sample (offset in ms). Returns the
    /// verdict; accepted samples enqueue clock corrections per the apply
    /// mode. In holdover, any sample at all means the network is back:
    /// the verdict is [`SampleVerdict::Recovered`], the clock is
    /// corrected by the sample, and the engine re-enters warmup to
    /// rebuild its trend (keeping the applied frequency trim).
    pub fn on_regular_sample(&mut self, now: NtpTimestamp, offset_ms: f64) -> SampleVerdict {
        if self.phase == Phase::Holdover {
            return self.recover(now, offset_ms);
        }
        self.consecutive_failures = 0;
        self.schedule_next(now, self.cfg.regular_wait_secs);
        // Step 16 re-runs drift correction each round.
        if self.cfg.drift_correction {
            self.emit_trim_update(now);
        }
        let t = elapsed_secs(self.cycle_start.unwrap_or(now), now);
        if self.filter.offer(t, offset_ms) {
            self.reject_streak.clear();
            if self.correct(offset_ms) {
                self.filter.translate(-offset_ms);
            }
            SampleVerdict::Accepted { offset_ms }
        } else {
            self.stepout(offset_ms);
            SampleVerdict::Rejected { offset_ms }
        }
    }

    /// Queue a correction by `offset_ms` per the apply mode; returns
    /// whether one was queued. A slew past the step threshold becomes a
    /// step: a rate-capped slew would take minutes, during which every
    /// new sample measures the uncorrected remainder against an
    /// already-translated trend.
    fn correct(&mut self, offset_ms: f64) -> bool {
        let step = match self.cfg.apply_mode {
            ApplyMode::RecordOnly => return false,
            ApplyMode::Step => true,
            ApplyMode::Slew => self.cfg.step_threshold_ms.is_some_and(|t| offset_ms.abs() > t),
        };
        let offset = NtpDuration::from_seconds_f64(offset_ms / 1e3);
        let command = if step { ClockCommand::Step(offset) } else { ClockCommand::Slew(offset) };
        self.pending.push(command);
        true
    }

    /// Track a rejected offset and force a step once the streak says
    /// the filter — not the clock — is the thing that's wrong. The
    /// trend itself is untouched: it was predicting the *corrected*
    /// clock all along, so stepping the clock to it reconciles the two
    /// without a translate.
    fn stepout(&mut self, offset_ms: f64) {
        let (Some(k), Some(threshold)) = (self.cfg.stepout_rejects, self.cfg.step_threshold_ms)
        else {
            return;
        };
        self.reject_streak.push(offset_ms);
        if self.reject_streak.len() < k.max(1) as usize {
            return;
        }
        let mut sorted = self.reject_streak.clone();
        sorted.sort_by(f64::total_cmp);
        let Some(&median) = sorted.get(sorted.len() / 2) else {
            return; // unreachable: the streak was just pushed to
        };
        self.reject_streak.clear();
        if median.abs() > threshold && self.cfg.apply_mode != ApplyMode::RecordOnly {
            self.pending.push(ClockCommand::Step(NtpDuration::from_seconds_f64(median / 1e3)));
        }
    }

    /// Report a failed query round (every request lost).
    ///
    /// In the regular phase, `holdover_after_failures` consecutive
    /// failures trip the engine into [`Phase::Holdover`]. Holdover
    /// probes back off exponentially from `holdover_base_wait_secs`,
    /// capped at `holdover_max_wait_secs` — the next probe is always
    /// scheduled, so no failure pattern can stop the engine from
    /// querying (the liveness property pinned by the prop tests).
    pub fn on_query_failed(&mut self, now: NtpTimestamp) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if self.phase == Phase::Regular
            && self.consecutive_failures >= self.cfg.holdover_after_failures
        {
            self.phase = Phase::Holdover;
        }
        let wait = match self.phase {
            Phase::Warmup => self.cfg.warmup_wait_secs,
            Phase::Regular => self.cfg.regular_wait_secs,
            Phase::Holdover => {
                let over = self.consecutive_failures.saturating_sub(self.cfg.holdover_after_failures);
                (self.cfg.holdover_base_wait_secs * 2f64.powi(over.min(16) as i32))
                    .min(self.cfg.holdover_max_wait_secs)
            }
        };
        self.schedule_next(now, wait);
    }

    /// A sample arrived while freewheeling: correct the clock, restart
    /// warmup (trim and cycle history retained by the clock, trend
    /// rebuilt from scratch).
    fn recover(&mut self, now: NtpTimestamp, offset_ms: f64) -> SampleVerdict {
        self.consecutive_failures = 0;
        self.reject_streak.clear();
        self.correct(offset_ms);
        self.phase = Phase::Warmup;
        self.cycle_start = Some(now);
        self.filter = TrendFilter::new(self.cfg.filter_sigma, self.cfg.reestimate_drift);
        self.schedule_next(now, self.cfg.warmup_wait_secs);
        SampleVerdict::Recovered { offset_ms }
    }

    fn schedule_next(&mut self, now: NtpTimestamp, wait_secs: f64) {
        self.next_request =
            Some(now.wrapping_add_duration(NtpDuration::from_seconds_f64(wait_secs)));
    }
}

fn elapsed_secs(start: NtpTimestamp, now: NtpTimestamp) -> f64 {
    now.wrapping_sub(start).as_seconds_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(secs: f64) -> NtpTimestamp {
        NtpTimestamp::from_parts(1000, 0)
            .wrapping_add_duration(NtpDuration::from_seconds_f64(secs))
    }

    fn good_hints() -> WirelessHints {
        WirelessHints { rssi_dbm: -60.0, noise_dbm: -92.0 }
    }

    fn bad_hints() -> WirelessHints {
        WirelessHints { rssi_dbm: -80.0, noise_dbm: -65.0 }
    }

    fn fast_cfg() -> MntpConfig {
        MntpConfig {
            warmup_period_secs: 100.0,
            warmup_wait_secs: 10.0,
            regular_wait_secs: 20.0,
            reset_period_secs: 10_000.0,
            min_warmup_samples: 5,
            ..Default::default()
        }
    }

    /// Answer every warmup round with `offsets` until the engine enters
    /// the regular phase; returns the time reached and how many rounds
    /// the engine digested.
    fn warm(m: &mut Mntp, offsets: &[f64]) -> (f64, usize) {
        let (mut t, mut rounds) = (0.0, 0);
        while m.phase() == Phase::Warmup {
            if let MntpAction::QueryMultiple(n) = m.on_tick(ts(t), Some(&good_hints())) {
                assert_eq!(n, 3);
                rounds += usize::from(m.on_warmup_round(ts(t), offsets).is_some());
            }
            t += 1.0;
            assert!(t < 1000.0, "warmup never completed");
        }
        (t, rounds)
    }

    /// A `fast_cfg` engine (with `cfg` applied) warmed up on clean
    /// samples around 1 ms; returns it in the regular phase and the time.
    fn warmed_up_with(cfg: MntpConfig) -> (Mntp, f64) {
        let mut m = Mntp::new(cfg);
        let (t, _) = warm(&mut m, &[1.0, 1.1, 0.9]);
        (m, t)
    }

    fn warmed_up() -> (Mntp, f64) {
        warmed_up_with(fast_cfg())
    }

    /// `fast_cfg` with the given apply mode.
    fn mode(apply_mode: ApplyMode) -> MntpConfig {
        MntpConfig { apply_mode, ..fast_cfg() }
    }

    #[test]
    fn starts_in_warmup_and_queries_multiple() {
        let mut m = Mntp::new(fast_cfg());
        assert_eq!(m.phase(), Phase::Warmup);
        assert_eq!(m.on_tick(ts(0.0), Some(&good_hints())), MntpAction::QueryMultiple(3));
    }

    #[test]
    fn gate_defers_queries() {
        let mut m = Mntp::new(fast_cfg());
        assert_eq!(m.on_tick(ts(0.0), Some(&bad_hints())), MntpAction::Deferred);
        // Channel recovers: query goes out.
        assert_eq!(m.on_tick(ts(1.0), Some(&good_hints())), MntpAction::QueryMultiple(3));
    }

    #[test]
    fn warmup_respects_wait_time() {
        let mut m = Mntp::new(fast_cfg());
        assert_eq!(m.on_tick(ts(0.0), Some(&good_hints())), MntpAction::QueryMultiple(3));
        m.on_warmup_round(ts(0.0), &[1.0, 1.0, 1.0]);
        // Next request only after warmup_wait_secs = 10; an undue
        // request is a plain wait, even on a bad channel.
        assert_eq!(m.on_tick(ts(5.0), Some(&good_hints())), MntpAction::Wait);
        assert_eq!(m.on_tick(ts(6.0), Some(&bad_hints())), MntpAction::Wait);
        assert_eq!(m.on_tick(ts(10.0), Some(&good_hints())), MntpAction::QueryMultiple(3));
    }

    #[test]
    fn transitions_to_regular_after_period_and_samples() {
        let mut m = Mntp::new(fast_cfg());
        let (t, rounds) = warm(&mut m, &[1.0, 1.1, 0.9]);
        assert_eq!(m.phase(), Phase::Regular);
        assert!(t >= 100.0, "period must elapse, t={t}");
        assert!(rounds >= 5);
        assert!(m.drift_ppm().is_some());
    }

    #[test]
    fn insufficient_samples_extend_warmup() {
        let mut m = Mntp::new(fast_cfg());
        // Never answer any query: no samples recorded.
        for i in 0..30 {
            let t = i as f64 * 10.0;
            if let MntpAction::QueryMultiple(_) = m.on_tick(ts(t), Some(&good_hints())) {
                m.on_query_failed(ts(t));
            }
        }
        // Way past warmup_period, but still warming up.
        assert_eq!(m.phase(), Phase::Warmup);
        assert!(m.consecutive_failures() > 10);
    }

    #[test]
    fn regular_phase_accepts_inliers_rejects_outliers() {
        let (mut m, t0) = warmed_up();
        let mut t = t0 + 20.0;
        // On-trend sample (trend ≈ 1.0 ms flat).
        assert_eq!(m.on_tick(ts(t), Some(&good_hints())), MntpAction::QuerySingle);
        assert!(matches!(m.on_regular_sample(ts(t), 1.05), SampleVerdict::Accepted { .. }));
        t += 20.0;
        m.on_tick(ts(t), Some(&good_hints()));
        assert_eq!(m.on_regular_sample(ts(t), 350.0), SampleVerdict::Rejected { offset_ms: 350.0 });
    }

    #[test]
    fn false_tickers_rejected_in_warmup() {
        let mut m = Mntp::new(fast_cfg());
        m.on_tick(ts(0.0), Some(&good_hints()));
        let v = m.on_warmup_round(ts(0.0), &[1.0, 1.2, 300.0]).expect("answered round");
        assert_eq!(v.false_tickers, 1);
        assert!(v.recorded);
        // Combined value excludes the false ticker: the recorded point is
        // near 1.1, so a later 1.1-ish round keeps the trend near 1.
        assert!(v.combined_ms < 5.0);
        assert_eq!(m.filter().points()[0].1, v.combined_ms);
    }

    #[test]
    fn reset_after_reset_period() {
        let mut m = Mntp::new(MntpConfig { reset_period_secs: 500.0, ..fast_cfg() });
        warm(&mut m, &[0.5, 0.6, 0.4]);
        assert_eq!(m.phase(), Phase::Regular);
        // Crossing the reset boundary restarts warmup, which queries at
        // once.
        assert_eq!(m.on_tick(ts(501.0), Some(&good_hints())), MntpAction::QueryMultiple(3));
        assert_eq!(m.phase(), Phase::Warmup);
        assert!(m.filter().is_empty(), "trend cleared on reset");
    }

    #[test]
    fn record_only_mode_emits_no_commands() {
        let (mut m, t0) = warmed_up();
        m.on_tick(ts(t0 + 20.0), Some(&good_hints()));
        m.on_regular_sample(ts(t0 + 20.0), 1.0);
        assert!(m.take_commands().is_empty());
    }

    #[test]
    fn step_mode_emits_step_commands() {
        let mut m = Mntp::new(mode(ApplyMode::Step));
        let (t, _) = warm(&mut m, &[2.0, 2.1, 1.9]);
        m.on_tick(ts(t + 20.0), Some(&good_hints()));
        m.on_regular_sample(ts(t + 20.0), 2.0);
        let cmds = m.take_commands();
        assert!(
            cmds.iter().any(|c| matches!(c, ClockCommand::Step(_))),
            "expected a step, got {cmds:?}"
        );
    }

    #[test]
    fn slew_mode_steps_past_the_threshold() {
        let mk = |threshold| {
            let mut m =
                Mntp::new(MntpConfig { step_threshold_ms: threshold, ..mode(ApplyMode::Slew) });
            let (t, _) = warm(&mut m, &[2.0, 2.1, 1.9]);
            m.on_tick(ts(t + 20.0), Some(&good_hints()));
            m.on_regular_sample(ts(t + 20.0), 2.0);
            m.take_commands()
        };
        // Under the threshold (or with none set): a bounded-rate slew.
        assert!(mk(None).iter().any(|c| matches!(c, ClockCommand::Slew(_))));
        assert!(mk(Some(10.0)).iter().any(|c| matches!(c, ClockCommand::Slew(_))));
        // Past it: the correction is applied as a step.
        assert!(mk(Some(0.5)).iter().any(|c| matches!(c, ClockCommand::Step(_))));
    }

    #[test]
    fn rejection_streak_forces_a_stepout() {
        let (mut m, mut t) = warmed_up_with(MntpConfig {
            step_threshold_ms: Some(50.0),
            stepout_rejects: Some(3),
            ..mode(ApplyMode::Slew)
        });
        let steps = |cmds: &[ClockCommand]| -> Vec<f64> {
            cmds.iter()
                .filter_map(|c| match c {
                    ClockCommand::Step(d) => Some(d.as_seconds_f64() * 1e3),
                    _ => None,
                })
                .collect()
        };
        // Noisy +80 ms-ish samples: each is rejected by the trend, and
        // the spread keeps the filter's own re-anchor (residual bar a
        // few ms) from firing — the stuck-client shape.
        let mut stepped = Vec::new();
        for off in [71.0, 95.0, 83.0] {
            m.on_tick(ts(t + 20.0), Some(&good_hints()));
            t += 20.0;
            assert!(matches!(m.on_regular_sample(ts(t), off), SampleVerdict::Rejected { .. }));
            stepped.extend(m.take_commands());
        }
        let step = steps(&stepped);
        assert_eq!(step.len(), 1, "third consecutive reject forces one step: {stepped:?}");
        assert!((step[0] - 83.0).abs() < 1e-6, "steps by the streak median, got {}", step[0]);
        // The streak is consumed: three more small rejects don't step.
        for off in [9.0, 9.5, 10.0] {
            m.on_tick(ts(t + 20.0), Some(&good_hints()));
            t += 20.0;
            m.on_regular_sample(ts(t), off);
        }
        assert!(steps(&m.take_commands()).is_empty());
    }

    #[test]
    fn missing_hints_still_work() {
        // Wired/cellular host: gate passes, algorithm runs.
        let mut m = Mntp::new(fast_cfg());
        assert_eq!(m.on_tick(ts(0.0), None), MntpAction::QueryMultiple(3));
    }

    #[test]
    fn predicted_offset_tracks_trend() {
        let (m, t) = warmed_up();
        let p = m.predicted_offset_ms(ts(t + 100.0)).unwrap();
        assert!((p - 1.0).abs() < 0.5, "prediction {p} should sit near 1 ms");
    }

    #[test]
    fn empty_warmup_round_counts_as_failure() {
        let mut m = Mntp::new(fast_cfg());
        m.on_tick(ts(0.0), Some(&good_hints()));
        assert_eq!(m.on_warmup_round(ts(0.0), &[]), None);
        assert_eq!(m.consecutive_failures(), 1);
        assert!(m.filter().is_empty(), "nothing recorded");
        // The failed round waits warmup_wait_secs like an answered one.
        assert_eq!(m.on_tick(ts(9.0), Some(&good_hints())), MntpAction::Wait);
        assert_eq!(m.on_tick(ts(10.0), Some(&good_hints())), MntpAction::QueryMultiple(3));
    }

    /// Drive the warmed-up engine through `n` consecutive regular-phase
    /// failures, returning the time of the last one.
    fn fail_times(m: &mut Mntp, mut t: f64, n: usize) -> f64 {
        for _ in 0..n {
            while m.on_tick(ts(t), Some(&good_hints())) != MntpAction::QuerySingle {
                t += 1.0;
                assert!(t < 10_000.0, "query never became due");
            }
            m.on_query_failed(ts(t));
        }
        t
    }

    #[test]
    fn consecutive_failures_trip_holdover_with_longer_wait() {
        let (mut m, t0) = warmed_up();
        let t = fail_times(&mut m, t0, 2);
        assert_eq!(m.phase(), Phase::Regular);
        let t = fail_times(&mut m, t, 1);
        assert_eq!(m.phase(), Phase::Holdover);
        assert_eq!(m.consecutive_failures(), 3);
        // First holdover probe waits holdover_base_wait_secs (30), not
        // the 20 s regular wait.
        assert_eq!(m.on_tick(ts(t + 20.0), Some(&good_hints())), MntpAction::Wait);
        assert_eq!(m.on_tick(ts(t + 31.0), Some(&good_hints())), MntpAction::QuerySingle);
    }

    #[test]
    fn holdover_backoff_doubles_to_cap() {
        let (mut m, t0) = warmed_up();
        let mut t = fail_times(&mut m, t0, 3);
        assert_eq!(m.phase(), Phase::Holdover);
        // Keep failing; gaps between probes double 30 → 480 and stay.
        let mut last = t;
        for expect in [30.0, 60.0, 120.0, 240.0, 480.0, 480.0] {
            while m.on_tick(ts(t), Some(&good_hints())) != MntpAction::QuerySingle {
                t += 1.0;
                assert!(t < 20_000.0, "probe never became due");
            }
            assert!(
                (t - last - expect).abs() <= 1.0,
                "gap {} vs expected {expect}",
                t - last
            );
            last = t;
            m.on_query_failed(ts(t));
        }
    }

    #[test]
    fn holdover_probe_bypasses_the_gate() {
        let (mut m, t0) = warmed_up();
        let mut t = fail_times(&mut m, t0, 3);
        assert_eq!(m.phase(), Phase::Holdover);
        // Channel is terrible, but the probe still goes out when due —
        // a stuck-unfavorable gate must not starve recovery. Every tick
        // before it is a plain wait, never a deferral.
        let mut action = MntpAction::Wait;
        for _ in 0..600 {
            action = m.on_tick(ts(t), Some(&bad_hints()));
            if action != MntpAction::Wait {
                break;
            }
            t += 1.0;
        }
        assert_eq!(action, MntpAction::QuerySingle);
    }

    #[test]
    fn recovery_steps_clock_and_restarts_warmup() {
        let (mut m, t) = warmed_up_with(mode(ApplyMode::Step));
        assert_eq!(m.phase(), Phase::Regular);
        m.take_commands();
        let mut t = fail_times(&mut m, t, 3);
        assert_eq!(m.phase(), Phase::Holdover);
        // Network comes back: the next probe's sample is the recovery.
        while m.on_tick(ts(t), Some(&good_hints())) != MntpAction::QuerySingle {
            t += 1.0;
        }
        let v = m.on_regular_sample(ts(t), -250.0);
        assert_eq!(v, SampleVerdict::Recovered { offset_ms: -250.0 });
        assert_eq!(m.phase(), Phase::Warmup);
        assert_eq!(m.consecutive_failures(), 0);
        let cmds = m.take_commands();
        assert!(
            cmds.iter().any(|c| matches!(c, ClockCommand::Step(_))),
            "recovery must correct the clock, got {cmds:?}"
        );
        assert!(m.filter().is_empty(), "trend rebuilt from scratch");
    }

    #[test]
    fn reset_timer_suspended_in_holdover() {
        let (mut m, t) = warmed_up_with(MntpConfig { reset_period_secs: 500.0, ..fast_cfg() });
        fail_times(&mut m, t, 3);
        assert_eq!(m.phase(), Phase::Holdover);
        // Far past the reset boundary: still freewheeling, probing
        // rather than restarting warmup, with the trend kept —
        // restarting warmup with no reachable servers would discard the
        // drift model being freewheeled on.
        assert_eq!(m.on_tick(ts(2000.0), Some(&good_hints())), MntpAction::QuerySingle);
        assert_eq!(m.phase(), Phase::Holdover);
        assert!(!m.filter().is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use devtools::prop;
    use devtools::{prop_assert, props};

    fn mk_ts(secs: f64) -> NtpTimestamp {
        NtpTimestamp::from_parts(1000, 0)
            .wrapping_add_duration(NtpDuration::from_seconds_f64(secs))
    }

    props! {
        /// Liveness: after ANY sequence of query successes (1) and
        /// failures (0) — including those that trip holdover — the
        /// engine always asks for another query within a bounded wait.
        /// No reachable state leaves `on_tick` returning `Wait` (or
        /// `Deferred`) forever.
        fn scheduler_always_queries_again(events in prop::vecs(prop::ints(0..2), 0..48)) {
            let cfg = MntpConfig {
                warmup_period_secs: 60.0,
                warmup_wait_secs: 5.0,
                regular_wait_secs: 20.0,
                reset_period_secs: 4000.0,
                min_warmup_samples: 5,
                ..Default::default()
            };
            // Longest legal gap is holdover_max_wait_secs = 480.
            let bound = cfg.holdover_max_wait_secs + 120.0;
            let hints = WirelessHints { rssi_dbm: -60.0, noise_dbm: -92.0 };
            let mut m = Mntp::new(cfg);
            let mut t = 0.0;
            for &ev in &events {
                let start = t;
                let action = loop {
                    let a = m.on_tick(mk_ts(t), Some(&hints));
                    if !matches!(a, MntpAction::Wait | MntpAction::Deferred) {
                        break a;
                    }
                    t += 1.0;
                    prop_assert!(
                        t - start < bound,
                        "engine stopped querying in phase {:?} after {} events",
                        m.phase(),
                        events.len()
                    );
                };
                match (action, ev == 1) {
                    (MntpAction::QueryMultiple(_), true) => {
                        m.on_warmup_round(mk_ts(t), &[1.0, 1.1, 0.9]);
                    }
                    (MntpAction::QuerySingle, true) => {
                        m.on_regular_sample(mk_ts(t), 1.0);
                    }
                    (_, false) => m.on_query_failed(mk_ts(t)),
                    (MntpAction::Wait | MntpAction::Deferred, true) => {
                        unreachable!("loop broke on a query")
                    }
                }
            }
            // After the whole history, one more query must still come.
            let start = t;
            loop {
                let a = m.on_tick(mk_ts(t), Some(&hints));
                if !matches!(a, MntpAction::Wait | MntpAction::Deferred) {
                    break;
                }
                t += 1.0;
                prop_assert!(
                    t - start < bound,
                    "engine never queried again, stuck in phase {:?}",
                    m.phase()
                );
            }
        }
    }
}
