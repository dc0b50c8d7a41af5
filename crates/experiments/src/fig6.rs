//! Figure 6: reported SNTP vs MNTP offsets on a wireless network with
//! NTP clock correction — the headline head-to-head.
//!
//! Paper: SNTP offsets reach 292 ms; MNTP's maximum is 23 ms — "a
//! 12-fold improvement over standard SNTP on a wireless network with
//! lossy conditions", with every outlier discarded by MNTP's filter.

use clocksim::stats::Summary;
use mntp::MntpConfig;
use netsim::testbed::TestbedConfig;
use netsim::Testbed;

use crate::harness::{default_pool, paired_run, ClockMode, PairedRun};
use crate::render;

/// The reproduced Figure 6 (also reused by Figures 7/8/12 variants).
#[derive(Clone, Debug)]
pub struct HeadToHead {
    /// The paired run.
    pub run: PairedRun,
    /// Summary of |SNTP offset|.
    pub sntp_abs: Summary,
    /// Summary of |accepted MNTP offset|.
    pub mntp_abs: Summary,
}

impl HeadToHead {
    /// The paper's headline ratio: max |SNTP| / max |MNTP accepted|.
    pub fn improvement_factor(&self) -> f64 {
        if self.mntp_abs.max_abs() == 0.0 {
            return f64::INFINITY;
        }
        self.sntp_abs.max_abs() / self.mntp_abs.max_abs()
    }
}

/// Run the Figure 6 configuration: wireless, NTP-corrected clock, both
/// clients polling every 5 s for `duration` (paper: one hour).
pub fn run(seed: u64, duration: u64) -> HeadToHead {
    let mut tb = Testbed::wireless(TestbedConfig::default(), seed);
    let mut pool = default_pool(seed + 1);
    let mut clock = ClockMode::NtpCorrected.build(seed + 2);
    let cfg = MntpConfig::baseline(5.0);
    let run = paired_run(&mut tb, None, &mut pool, &mut clock, duration, 5.0, &cfg);
    summarize(run)
}

/// Run one trial per seed, fanned out over the `devtools::par` pool. Each
/// trial owns its `SimRng` streams, so the returned vector is
/// bit-identical to running [`run`] serially per seed, in seed order.
pub fn run_seeds(pool: &devtools::par::Pool, seeds: &[u64], duration: u64) -> Vec<HeadToHead> {
    pool.map(seeds.to_vec(), |seed| run(seed, duration))
}

/// Build the summaries.
pub fn summarize(run: PairedRun) -> HeadToHead {
    let sntp_abs = Summary::of(&run.sntp_abs());
    let mntp: Vec<f64> = run.mntp_accepted().iter().map(|o| o.abs()).collect();
    HeadToHead { sntp_abs, mntp_abs: Summary::of(&mntp), run }
}

/// Render.
pub fn render_with(r: &HeadToHead, title: &str, paper_note: &str) -> String {
    let mut out = format!("{title}\n{paper_note}\n\n");
    out.push_str(&format!(
        "SNTP:  n={} max|o|={:.0} ms mean|o|={:.1} ms ({} losses)\n",
        r.sntp_abs.n,
        r.sntp_abs.max,
        r.sntp_abs.mean,
        r.run.sntp_losses
    ));
    out.push_str(&format!(
        "MNTP:  accepted={} rejected={} deferred={} max|o|={:.0} ms mean|o|={:.1} ms\n",
        r.mntp_abs.n,
        r.run.mntp_rejected().len(),
        r.run.mntp_deferrals(),
        r.mntp_abs.max,
        r.mntp_abs.mean
    ));
    out.push_str(&format!("improvement (max|SNTP| / max|MNTP|): {:.1}x\n\n", r.improvement_factor()));
    let accepted: Vec<(f64, f64)> = r
        .run
        .mntp_events
        .iter()
        .filter_map(|(t, _, e)| match e {
            crate::harness::MntpEvent::Accepted { offset_ms, .. } => Some((*t, *offset_ms)),
            _ => None,
        })
        .collect();
    let rejected: Vec<(f64, f64)> = r
        .run
        .mntp_events
        .iter()
        .filter_map(|(t, _, e)| match e {
            crate::harness::MntpEvent::Rejected { offset_ms } => Some((*t, *offset_ms)),
            _ => None,
        })
        .collect();
    out.push_str(&render::scatter(
        "offsets over time (ms)",
        &[
            ("sntp", '.', &r.run.sntp_offsets),
            ("mntp accepted", 'A', &accepted),
            ("mntp rejected", 'x', &rejected),
        ],
        72,
        16,
    ));
    out
}

/// Default rendering for Figure 6.
pub fn render(r: &HeadToHead) -> String {
    render_with(
        r,
        "Figure 6 — SNTP vs MNTP on wireless, NTP-corrected clock",
        "(paper: SNTP max 292 ms; MNTP max 23 ms; ≈12x)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mntp_beats_sntp_by_paper_margin() {
        // Average over seeds: the paper reports one run; we check the
        // shape holds across several. The multi-seed fan-out runs the
        // trials through the pool.
        let pool = devtools::par::Pool::from_env();
        let mut factors = Vec::new();
        for r in run_seeds(&pool, &[31, 32, 33], 3600) {
            assert!(r.mntp_abs.n >= 20, "accepted {}", r.mntp_abs.n);
            assert!(r.mntp_abs.max < 80.0, "MNTP max {}", r.mntp_abs.max);
            assert!(r.sntp_abs.max > 150.0, "SNTP max {}", r.sntp_abs.max);
            factors.push(r.improvement_factor());
        }
        let mean_factor = clocksim::stats::mean(&factors);
        assert!(mean_factor > 5.0, "mean improvement {mean_factor} ({factors:?})");
    }

    #[test]
    fn outliers_are_rejected_not_accepted() {
        let r = run(34, 3600);
        let rejected = r.run.mntp_rejected();
        assert!(!rejected.is_empty(), "channel spikes must trip the filter");
        // Rejections should on average sit much farther from zero than
        // acceptances (on a corrected clock the trend is near zero).
        let mean_rej =
            clocksim::stats::mean(&rejected.iter().map(|o| o.abs()).collect::<Vec<_>>());
        assert!(
            mean_rej > r.mntp_abs.mean * 2.0,
            "rej mean {mean_rej} vs accepted mean {}",
            r.mntp_abs.mean
        );
    }

    #[test]
    fn gate_defers_during_bad_channel() {
        let r = run(35, 1800);
        assert!(r.run.mntp_deferrals() > 50, "deferrals {}", r.run.mntp_deferrals());
    }
}
