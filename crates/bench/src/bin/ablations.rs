//! Runtime cost of MNTP's mechanisms (the quality side of these
//! ablations is produced by `repro -- ablations`).
//!
//! Covers the DESIGN.md §6 list: gate-only / filter-only, threshold
//! sensitivity, drift re-estimation, warmup source count, and the
//! trend-fit degree.
//!
//! `cargo run --release -p mntp-bench --bin ablations [FILTER] [--quick]`
//! writes `results/bench/BENCH_ablations.json`.

use devtools::bench::Suite;
use std::hint::black_box;

use clocksim::fit::{fit_line, fit_poly};
use experiments::ablations::{run_arm, Mechanisms};

fn bench_mechanism_combinations(s: &mut Suite) {
    for (name, m) in [
        ("full", Mechanisms::full()),
        ("gate_only", Mechanisms { filter: false, ..Mechanisms::full() }),
        ("filter_only", Mechanisms { gate: false, ..Mechanisms::full() }),
        ("neither", Mechanisms { gate: false, filter: false, ..Mechanisms::full() }),
    ] {
        s.bench(&format!("mechanisms_{name}_10min"), |b| {
            b.iter(|| run_arm(name, black_box(m), 1, 600))
        });
    }
}

fn bench_threshold_sensitivity(s: &mut Suite) {
    for snr in [10.0, 15.0, 20.0, 25.0] {
        let m = Mechanisms { snr_margin_db: snr, ..Mechanisms::full() };
        s.bench(&format!("snr_margin_{snr}dB_10min"), |b| {
            b.iter(|| run_arm("thr", black_box(m), 2, 600))
        });
    }
}

fn bench_reestimation(s: &mut Suite) {
    for (name, re) in [("reestimate_on", true), ("reestimate_off", false)] {
        let m = Mechanisms { reestimate: re, ..Mechanisms::full() };
        s.bench(&format!("{name}_10min"), |b| b.iter(|| run_arm(name, black_box(m), 3, 600)));
    }
}

/// Warmup source count: cost of 1/3/5-source warmup rounds in the full
/// Algorithm 1.
fn bench_warmup_sources(s: &mut Suite) {
    use experiments::harness::{default_pool, ClockMode};
    use mntp::{drive, DriverConfig, MntpConfig, MntpDiscipline};
    use netsim::testbed::TestbedConfig;
    use netsim::Testbed;

    for sources in [1usize, 3, 5] {
        s.bench(&format!("warmup_sources_{sources}_10min"), |b| {
            b.iter(|| {
                let cfg = MntpConfig {
                    warmup_period_secs: 300.0,
                    warmup_wait_secs: 10.0,
                    regular_wait_secs: 30.0,
                    warmup_sources: sources,
                    ..Default::default()
                };
                let mut tb = Testbed::wireless(TestbedConfig::default(), 4);
                let mut pool = default_pool(5);
                let mut clock = ClockMode::free_running_default().build(6);
                let mut d = MntpDiscipline::full(cfg);
                drive(&mut d, &mut tb, &mut pool, &mut clock, None, &DriverConfig::span(600, 1.0))
            })
        });
    }
}

/// Trend-fit degree (the paper chose degree 1; degree 0 ignores drift,
/// degree 2 chases curvature).
fn bench_fit_degree(s: &mut Suite) {
    let points: Vec<(f64, f64)> = (0..256)
        .map(|i| (i as f64 * 15.0, -0.03 * (i as f64 * 15.0) + ((i * 11 % 7) as f64 - 3.0)))
        .collect();
    s.bench("fit_degree_0", |b| b.iter(|| fit_poly(black_box(&points), 0)));
    s.bench("fit_degree_1", |b| b.iter(|| fit_line(black_box(&points))));
    s.bench("fit_degree_2", |b| b.iter(|| fit_poly(black_box(&points), 2)));
}

fn main() {
    let mut s = Suite::from_args("ablations");
    // Whole-simulation arms: small sample counts, like the old criterion
    // `sample_size(10)` groups.
    s.set_samples(10);
    bench_mechanism_combinations(&mut s);
    bench_threshold_sensitivity(&mut s);
    bench_reestimation(&mut s);
    bench_warmup_sources(&mut s);
    // The fit benches are cheap micro-ops; give them full samples.
    s.reset_samples();
    bench_fit_degree(&mut s);
    s.finish().expect("write bench report");
}
