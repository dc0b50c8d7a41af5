//! Ablations of MNTP's design choices (DESIGN.md §6): what does each
//! mechanism buy? Every ablation runs the same wireless head-to-head as
//! Figure 6 with one mechanism altered, and reports the accepted-offset
//! quality plus the network cost.

use clocksim::stats::Summary;
use clocksim::time::{SimDuration, SimTime};
use mntp::{HintGate, MntpConfig, TrendFilter};
use netsim::testbed::TestbedConfig;
use netsim::Testbed;
use sntp::perform_exchange;

use crate::harness::{default_pool, ClockMode};
use crate::render;

/// Which mechanisms are active in an ablation arm.
#[derive(Clone, Copy, Debug)]
pub struct Mechanisms {
    /// Wireless-hint gate active.
    pub gate: bool,
    /// Trend filter active.
    pub filter: bool,
    /// σ multiplier for both filters.
    pub sigma: f64,
    /// SNR-margin threshold, dB.
    pub snr_margin_db: f64,
    /// Per-sample drift re-estimation.
    pub reestimate: bool,
}

impl Mechanisms {
    /// Full MNTP baseline.
    pub fn full() -> Self {
        Mechanisms { gate: true, filter: true, sigma: 1.0, snr_margin_db: 20.0, reestimate: true }
    }
}

/// One ablation arm's outcome.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Arm label.
    pub label: String,
    /// Summary of |accepted offset| (or all offsets if the filter is
    /// off), ms.
    pub accepted: Summary,
    /// Samples taken / rejected / deferred.
    pub counts: (usize, usize, usize),
}

/// Run one arm over `duration` seconds of the Figure 6 configuration.
pub fn run_arm(label: &str, m: Mechanisms, seed: u64, duration: u64) -> AblationRow {
    let cfg = MntpConfig {
        snr_margin_min_db: m.snr_margin_db,
        filter_sigma: m.sigma,
        reestimate_drift: m.reestimate,
        ..MntpConfig::baseline(5.0)
    };
    let mut tb = Testbed::wireless(TestbedConfig::default(), seed);
    let mut pool = default_pool(seed + 1);
    let mut clock = ClockMode::NtpCorrected.build(seed + 2);
    let gate = HintGate::new(&cfg);
    let mut filter = TrendFilter::new(cfg.filter_sigma, cfg.reestimate_drift);
    let mut accepted = Vec::new();
    let mut rejected = 0usize;
    let mut deferred = 0usize;
    let polls = duration / 5;
    for i in 0..=polls {
        let t = SimTime::ZERO + SimDuration::from_secs((i * 5) as i64);
        let hints = tb.hints(t);
        if m.gate && !gate.favorable(hints.as_ref()) {
            deferred += 1;
            continue;
        }
        let id = pool.pick();
        let Ok(done) = perform_exchange(&mut tb, pool.server_mut(id), &mut clock, t) else {
            continue;
        };
        let ms = done.sample.offset.as_millis_f64();
        if m.filter {
            if filter.offer(t.as_secs_f64(), ms) {
                accepted.push(ms.abs());
            } else {
                rejected += 1;
            }
        } else {
            accepted.push(ms.abs());
        }
    }
    AblationRow {
        label: label.to_string(),
        accepted: Summary::of(&accepted),
        counts: (accepted.len(), rejected, deferred),
    }
}

/// The standard ablation arms, in report order.
pub fn suite_arms() -> Vec<(&'static str, Mechanisms)> {
    vec![
        ("full MNTP", Mechanisms::full()),
        ("gate only (no filter)", Mechanisms { filter: false, ..Mechanisms::full() }),
        ("filter only (no gate)", Mechanisms { gate: false, ..Mechanisms::full() }),
        ("neither (plain SNTP)", Mechanisms { gate: false, filter: false, ..Mechanisms::full() }),
        ("SNR margin 10 dB", Mechanisms { snr_margin_db: 10.0, ..Mechanisms::full() }),
        ("SNR margin 25 dB", Mechanisms { snr_margin_db: 25.0, ..Mechanisms::full() }),
        ("no drift re-estimation", Mechanisms { reestimate: false, ..Mechanisms::full() }),
        ("filter σ = 2", Mechanisms { sigma: 2.0, ..Mechanisms::full() }),
    ]
}

/// Run the standard ablation suite over `pool`. Every arm is an
/// independent trial (own testbed, pool, clock, filter state), so the
/// fan-out is bit-identical to the serial loop in arm order.
pub fn run_suite_on(pool: &devtools::par::Pool, seed: u64, duration: u64) -> Vec<AblationRow> {
    pool.map(suite_arms(), |(label, m)| run_arm(label, m, seed, duration))
}

/// Render the suite.
pub fn render_suite(rows: &[AblationRow]) -> String {
    let mut out = String::from("Ablations — what each MNTP mechanism buys (Figure 6 setting)\n\n");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                r.counts.0.to_string(),
                r.counts.1.to_string(),
                r.counts.2.to_string(),
                render::f1(r.accepted.mean),
                render::f1(r.accepted.max),
            ]
        })
        .collect();
    out.push_str(&render::table(
        &["arm", "accepted", "rejected", "deferred", "mean|o|", "max|o|"],
        &table_rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_mechanisms_contribute() {
        let rows = run_suite_on(&devtools::par::Pool::from_env(), 901, 1800);
        let by = |label: &str| rows.iter().find(|r| r.label.contains(label)).unwrap();
        let full = by("full MNTP");
        let gate_only = by("gate only");
        let filter_only = by("filter only");
        let neither = by("neither");
        // Full beats either alone on worst case; both alone beat nothing.
        assert!(full.accepted.max <= gate_only.accepted.max + 1.0);
        assert!(full.accepted.max <= filter_only.accepted.max + 1.0);
        assert!(neither.accepted.max > 2.0 * full.accepted.max, "neither {} vs full {}", neither.accepted.max, full.accepted.max);
    }

    #[test]
    fn lower_snr_threshold_lets_more_noise_in() {
        let rows = run_suite_on(&devtools::par::Pool::from_env(), 902, 1800);
        let by = |label: &str| rows.iter().find(|r| r.label.contains(label)).unwrap();
        let loose = by("10 dB");
        let full = by("full MNTP");
        // The looser gate defers less…
        assert!(loose.counts.2 < full.counts.2);
        // …and pays for it in sample quality (mean or max).
        assert!(
            loose.accepted.mean + 0.5 >= full.accepted.mean
                || loose.accepted.max >= full.accepted.max,
            "loose {:?} vs full {:?}",
            (loose.accepted.mean, loose.accepted.max),
            (full.accepted.mean, full.accepted.max)
        );
    }
}
