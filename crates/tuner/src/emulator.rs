//! The tuner's emulation component: replay Algorithm 1 over a trace.
//!
//! The emulator drives the *real* [`mntp::Mntp`] engine with the recorded
//! hints and offsets, so whatever the engine would have done live — gate
//! deferrals, false-ticker rejection, trend filtering, resets — it does
//! here, deterministically and thousands of times faster. The output per
//! accepted sample is both the raw offset and the **corrected offset**
//! (raw minus the trend prediction at that instant): the corrected series
//! is what a drift-disciplined clock would exhibit, and its RMSE against
//! zero is the paper's tuning metric.

use mntp::{Mntp, MntpAction, MntpConfig, SampleVerdict};
use ntp_wire::{NtpDuration, NtpTimestamp};

use crate::trace::Trace;

/// The emulator's output for one configuration.
#[derive(Clone, Debug, Default)]
pub struct EmulationResult {
    /// Accepted samples: `(t_secs, raw offset ms, corrected offset ms)`.
    pub accepted: Vec<(f64, f64, f64)>,
    /// Rejected samples: `(t_secs, raw offset ms)`.
    pub rejected: Vec<(f64, f64)>,
    /// Query instants where the gate deferred.
    pub deferred: u64,
    /// Query instants that found no responses in the trace.
    pub failed: u64,
    /// Total requests MNTP would have emitted (one per query instant, as
    /// the paper's Table 2 counts them).
    pub requests: u64,
}

impl EmulationResult {
    /// RMSE of the corrected offsets against a perfect clock (0 ms) —
    /// the paper's tuning metric.
    pub fn rmse_ms(&self) -> f64 {
        if self.accepted.is_empty() {
            return f64::INFINITY;
        }
        let sum: f64 = self.accepted.iter().map(|(_, _, c)| c * c).sum();
        (sum / self.accepted.len() as f64).sqrt()
    }
}

fn local(t_secs: f64) -> NtpTimestamp {
    NtpTimestamp::from_parts(10_000, 0)
        .wrapping_add_duration(NtpDuration::from_seconds_f64(t_secs))
}

/// Replay `cfg` over `trace`.
pub fn emulate(cfg: &MntpConfig, trace: &Trace) -> EmulationResult {
    let mut engine = Mntp::new(cfg.clone());
    let mut out = EmulationResult::default();
    for row in &trace.rows {
        let now = local(row.t_secs);
        match engine.on_tick(now, row.hints.as_ref()) {
            MntpAction::Wait => {}
            MntpAction::Deferred => out.deferred += 1,
            MntpAction::QueryMultiple(n) => {
                out.requests += 1;
                let offsets: Vec<f64> =
                    row.offsets_ms.iter().flatten().copied().take(n).collect();
                // Corrected value uses the prediction available *before*
                // this round updates the trend, applied to the engine's
                // combined (post-false-ticker) offset.
                let predicted = engine.predicted_offset_ms(now);
                match engine.on_warmup_round(now, &offsets) {
                    None => out.failed += 1,
                    Some(v) => {
                        let corrected = predicted.map(|p| v.combined_ms - p).unwrap_or(0.0);
                        if v.recorded {
                            out.accepted.push((row.t_secs, v.combined_ms, corrected));
                        } else {
                            out.rejected.push((row.t_secs, v.combined_ms));
                        }
                    }
                }
            }
            MntpAction::QuerySingle => {
                out.requests += 1;
                match row.offsets_ms.iter().flatten().next() {
                    None => {
                        engine.on_query_failed(now);
                        out.failed += 1;
                    }
                    Some(&raw) => {
                        let predicted = engine.predicted_offset_ms(now);
                        match engine.on_regular_sample(now, raw) {
                            SampleVerdict::Accepted { offset_ms } => {
                                let corrected =
                                    predicted.map(|p| offset_ms - p).unwrap_or(0.0);
                                out.accepted.push((row.t_secs, offset_ms, corrected));
                            }
                            SampleVerdict::Rejected { offset_ms } => {
                                out.rejected.push((row.t_secs, offset_ms));
                            }
                            // Traces replayed here never starve the engine
                            // long enough to reach holdover, but the arm
                            // must exist; treat the recovery sample like an
                            // acceptance with no trend prediction yet.
                            SampleVerdict::Recovered { offset_ms } => {
                                out.accepted.push((row.t_secs, offset_ms, 0.0));
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceRow;
    use netsim::WirelessHints;

    fn good_hints() -> Option<WirelessHints> {
        Some(WirelessHints { rssi_dbm: -60.0, noise_dbm: -92.0 })
    }

    /// Synthetic trace: clean drift of `slope_ms_per_s`, occasional large
    /// spikes, 5 s cadence.
    fn synthetic_trace(duration_secs: u64, slope: f64, spike_every: usize) -> Trace {
        let mut rows = Vec::new();
        let mut i = 0usize;
        let mut t = 0.0;
        while t <= duration_secs as f64 {
            let base = slope * t;
            let jitter = [(0.8), (-0.6), (0.2), (-0.4), (0.5)][i % 5];
            let spike = if spike_every > 0 && i % spike_every == spike_every - 1 {
                250.0
            } else {
                0.0
            };
            let o = base + jitter + spike;
            rows.push(TraceRow {
                t_secs: t,
                hints: good_hints(),
                offsets_ms: vec![Some(o), Some(o + 0.3), Some(o - 0.3)],
            });
            i += 1;
            t += 5.0;
        }
        Trace { rows, interval_secs: 5.0 }
    }

    fn quick_cfg() -> MntpConfig {
        MntpConfig::from_tuner_minutes(5.0, 0.25, 2.0, 240.0)
    }

    #[test]
    fn clean_trace_yields_low_rmse() {
        let trace = synthetic_trace(3600, -0.02, 0); // −20 ppm drift, no spikes
        let r = emulate(&quick_cfg(), &trace);
        assert!(r.accepted.len() > 20, "accepted={}", r.accepted.len());
        assert!(r.rmse_ms() < 5.0, "rmse={}", r.rmse_ms());
    }

    #[test]
    fn spikes_are_rejected_after_warmup() {
        let trace = synthetic_trace(3600, -0.02, 7);
        let r = emulate(&quick_cfg(), &trace);
        assert!(!r.rejected.is_empty(), "some spikes must be rejected");
        // The rejected set is dominated by the injected 250 ms spikes
        // (a borderline ordinary sample may occasionally be rejected at
        // the band edge, which is fine).
        let spikes = r.rejected.iter().filter(|(t, o)| (o - (-0.02 * t)).abs() > 50.0).count();
        assert!(
            spikes * 2 >= r.rejected.len(),
            "spikes {spikes} of {} rejected",
            r.rejected.len()
        );
        assert!(spikes > 0);
    }

    #[test]
    fn bad_hints_defer_everything() {
        let mut trace = synthetic_trace(600, 0.0, 0);
        for r in &mut trace.rows {
            r.hints = Some(WirelessHints { rssi_dbm: -85.0, noise_dbm: -60.0 });
        }
        let r = emulate(&quick_cfg(), &trace);
        assert_eq!(r.requests, 0);
        assert!(r.deferred > 0);
        assert!(r.rmse_ms().is_infinite());
    }

    #[test]
    fn empty_rows_count_as_failures() {
        let mut trace = synthetic_trace(600, 0.0, 0);
        for r in &mut trace.rows {
            r.offsets_ms = vec![None, None, None];
        }
        let r = emulate(&quick_cfg(), &trace);
        assert!(r.failed > 0);
        assert!(r.accepted.is_empty());
    }

    #[test]
    fn longer_warmup_reduces_rmse() {
        // The Table 2 trend: more tuning requests → better RMSE.
        let trace = synthetic_trace(4 * 3600, -0.03, 11);
        let short = emulate(&MntpConfig::from_tuner_minutes(10.0, 0.25, 15.0, 240.0), &trace);
        let long = emulate(&MntpConfig::from_tuner_minutes(90.0, 0.084, 15.0, 240.0), &trace);
        assert!(long.requests > short.requests);
        assert!(
            long.rmse_ms() <= short.rmse_ms() + 0.5,
            "short={} long={}",
            short.rmse_ms(),
            long.rmse_ms()
        );
    }

    /// The §5.3 regression story: without per-sample drift re-estimation,
    /// a warmup whose samples are too few to pin the slope leaves the
    /// filter so conservative that the regular phase rejects everything.
    /// Re-estimation fixes it.
    #[test]
    fn reestimation_prevents_total_rejection() {
        let trace = synthetic_trace(4 * 3600, -0.05, 0);
        let base = MntpConfig::from_tuner_minutes(5.0, 1.0, 5.0, 240.0);
        let fixed = emulate(&MntpConfig { reestimate_drift: true, ..base.clone() }, &trace);
        let broken = emulate(&MntpConfig { reestimate_drift: false, ..base }, &trace);
        let fixed_reg_accept =
            fixed.accepted.iter().filter(|(t, _, _)| *t > 600.0).count();
        let broken_reg_accept =
            broken.accepted.iter().filter(|(t, _, _)| *t > 600.0).count();
        assert!(
            fixed_reg_accept > broken_reg_accept,
            "re-estimation should accept more: fixed={fixed_reg_accept} broken={broken_reg_accept}"
        );
    }

    #[test]
    fn deterministic() {
        let trace = synthetic_trace(1800, -0.02, 9);
        let a = emulate(&quick_cfg(), &trace);
        let b = emulate(&quick_cfg(), &trace);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.requests, b.requests);
    }
}
