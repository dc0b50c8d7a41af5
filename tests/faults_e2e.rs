//! Fault-injection end to end: the robustness acceptance criterion.
//!
//! Under a 100% server-outage window, the hardened MNTP client must
//! enter holdover, keep its true clock error bounded by the residual of
//! its *fitted* drift (not the raw oscillator skew), and re-sync once
//! the outage lifts — while the naive stepping SNTP baseline visibly
//! degrades at the raw skew for the whole window. The same fault
//! schedule must also replay bit-identically.

use clocksim::time::{SimDuration, SimTime};
use clocksim::{OscillatorConfig, SimClock, SimRng};
use mntp::{drive, ApplyMode, DriverConfig, MntpConfig, MntpDiscipline, RobustConfig};
use netsim::testbed::TestbedConfig;
use netsim::{FaultInjector, FaultKind, FaultSchedule, ServerSet, Testbed};
use sntp::{perform_exchange_with, PoolConfig, ServerPool};

/// The outage window, seconds into the run.
const OUTAGE: (f64, f64) = (1800.0, 3000.0);
const DURATION: u64 = 5400;
/// Raw oscillator skew: 40 ppm accumulates 48 ms over the 1200 s
/// window — what an undisciplined clock loses.
const SKEW_PPM: f64 = 40.0;

fn outage_schedule() -> FaultSchedule {
    FaultSchedule::none().window(
        OUTAGE.0,
        OUTAGE.1,
        FaultKind::ServerOutage { servers: ServerSet::All },
    )
}

fn free_clock(seed: u64) -> SimClock {
    let osc = OscillatorConfig::laptop().with_skew_ppm(SKEW_PPM).build(SimRng::new(seed));
    SimClock::new(osc, SimTime::ZERO)
}

fn mntp_outage_run(seed: u64) -> mntp::MntpRun {
    let mut tb = Testbed::wireless(TestbedConfig::default(), seed);
    let mut pool = ServerPool::new(PoolConfig::default(), seed + 1);
    let mut clock = free_clock(seed + 2);
    let mut faults = FaultInjector::new(outage_schedule(), seed + 3);
    let cfg = MntpConfig {
        warmup_period_secs: 300.0,
        warmup_wait_secs: 10.0,
        regular_wait_secs: 30.0,
        reset_period_secs: 1e9,
        apply_mode: ApplyMode::Step,
        ..Default::default()
    };
    let mut d = MntpDiscipline::hardened(cfg, &RobustConfig::default(), pool.len());
    let dcfg = DriverConfig {
        timeout: Some(SimDuration::from_secs_f64(1.0)),
        ..DriverConfig::span(DURATION, 1.0)
    };
    drive(&mut d, &mut tb, &mut pool, &mut clock, Some(&mut faults), &dcfg)
}

/// Naive SNTP through the same fault layer: poll every 5 s, step on
/// every reply, no health tracking. Returns `(t, true error ms)`.
fn sntp_outage_errors(seed: u64) -> Vec<(f64, f64)> {
    let mut tb = Testbed::wireless(TestbedConfig::default(), seed);
    let mut pool = ServerPool::new(PoolConfig::default(), seed + 1);
    let mut clock = free_clock(seed + 2);
    let mut faults = FaultInjector::new(outage_schedule(), seed + 3);
    let timeout = Some(SimDuration::from_secs_f64(1.0));
    let mut errors = Vec::new();
    for i in 0..=(DURATION / 5) {
        let t = SimTime::ZERO + SimDuration::from_secs((i * 5) as i64);
        let id = pool.pick();
        if let Ok(done) = perform_exchange_with(
            &mut tb,
            pool.server_mut(id),
            &mut clock,
            t,
            Some(&mut faults),
            timeout,
            None,
        ) {
            clocksim::ClockCommand::Step(done.sample.offset).apply(&mut clock, t);
        }
        errors.push((t.as_secs_f64(), clock.true_error(t).as_millis_f64()));
    }
    errors
}

fn max_abs_in(errors: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    errors
        .iter()
        .filter(|(t, _)| *t >= lo && *t < hi)
        .map(|(_, e)| e.abs())
        .fold(0.0, f64::max)
}

#[test]
fn holdover_bounds_outage_error_and_resyncs_while_sntp_degrades() {
    let run = mntp_outage_run(4242);
    let sntp = sntp_outage_errors(5252);

    // The outage must actually have forced holdover probes.
    assert!(run.holdover_failures() > 0, "no holdover probes recorded");

    // During the window: MNTP freewheels on the *fitted* drift, so its
    // error stays well below what the raw 40 ppm skew accumulates…
    let mntp_during = max_abs_in(&run.true_error_ms, OUTAGE.0, OUTAGE.1);
    assert!(
        mntp_during < 15.0,
        "holdover error {mntp_during} ms not bounded by the fitted-drift residual"
    );
    // …while naive SNTP visibly degrades at the raw skew.
    let sntp_during = max_abs_in(&sntp, OUTAGE.0, OUTAGE.1);
    assert!(sntp_during > 25.0, "sntp should degrade during the outage, max {sntp_during}");
    assert!(
        sntp_during > 2.0 * mntp_during,
        "sntp during {sntp_during} vs mntp during {mntp_during}"
    );

    // Recovery: the first successful probe after the window corrects
    // the clock and restarts warmup.
    let recs = run.recoveries();
    assert!(!recs.is_empty(), "no recovery recorded after the outage");
    assert!(
        recs[0].0 >= OUTAGE.1,
        "recovery at {} but window ends at {}",
        recs[0].0,
        OUTAGE.1
    );
    // Post-recovery the client re-syncs: bounded error again, below the
    // degradation the outage caused the baseline.
    let mntp_post = max_abs_in(&run.true_error_ms, 3600.0, DURATION as f64);
    assert!(mntp_post < 15.0, "post-recovery error {mntp_post} ms");
    assert!(mntp_post < sntp_during, "post {mntp_post} vs outage degradation {sntp_during}");
}

#[test]
fn fault_runs_replay_bit_identically() {
    let a = mntp_outage_run(4242);
    let b = mntp_outage_run(4242);
    assert_eq!(a.true_error_ms, b.true_error_ms);
    assert_eq!(a.records.len(), b.records.len());
    for (x, y) in a.records.iter().zip(b.records.iter()) {
        assert_eq!(x.t_secs, y.t_secs);
        assert_eq!(x.outcome, y.outcome);
    }
    let s1 = sntp_outage_errors(5252);
    let s2 = sntp_outage_errors(5252);
    assert_eq!(s1, s2);
}
