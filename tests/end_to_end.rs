//! Cross-crate integration: the full MNTP pipeline (wire codec → network
//! simulation → engine → clock discipline) driven end to end.

use mntp_repro::clocksim::time::SimTime;
use mntp_repro::clocksim::{OscillatorConfig, SimClock, SimRng};
use mntp_repro::mntp::{
    drive, ApplyMode, DriverConfig, MntpConfig, MntpDiscipline, QueryOutcome,
};
use mntp_repro::netsim::testbed::TestbedConfig;
use mntp_repro::netsim::Testbed;
use mntp_repro::sntp::{PoolConfig, ServerPool};

fn drifting_clock(ppm: f64, seed: u64) -> SimClock {
    let osc = OscillatorConfig::laptop().with_skew_ppm(ppm).build(SimRng::new(seed));
    SimClock::new(osc, SimTime::ZERO)
}

/// Full Algorithm 1 in Step mode must actually *hold* a badly drifting
/// clock: after warmup, the true clock error stays bounded, while an
/// undisciplined clock would have drifted off by hundreds of ms.
#[test]
fn full_mntp_disciplines_a_drifting_clock() {
    let mut tb = Testbed::wireless(TestbedConfig::default(), 1);
    let mut pool = ServerPool::new(PoolConfig::default(), 2);
    let mut clock = drifting_clock(40.0, 3);
    let cfg = MntpConfig {
        warmup_period_secs: 600.0,
        warmup_wait_secs: 15.0,
        regular_wait_secs: 60.0,
        reset_period_secs: 1e9,
        apply_mode: ApplyMode::Step,
        ..Default::default()
    };
    let mut d = MntpDiscipline::full(cfg);
    let span = DriverConfig::span(2 * 3600, 1.0);
    let run = drive(&mut d, &mut tb, &mut pool, &mut clock, None, &span);
    // 40 ppm over 2 h = 288 ms if untouched.
    let late: Vec<f64> = run
        .true_error_ms
        .iter()
        .filter(|(t, _)| *t > 1800.0)
        .map(|(_, e)| e.abs())
        .collect();
    assert!(!late.is_empty());
    let worst = late.iter().cloned().fold(0.0, f64::max);
    assert!(worst < 100.0, "disciplined clock drifted to {worst} ms");
    let median = {
        let mut v = late.clone();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    assert!(median < 40.0, "median disciplined error {median} ms");
}

/// The engine's phases must be visible in the run record: multi-source
/// warmup rounds first, single-source queries after.
#[test]
fn warmup_precedes_regular_phase() {
    let mut tb = Testbed::wireless(TestbedConfig::default(), 4);
    let mut pool = ServerPool::new(PoolConfig::default(), 5);
    let mut clock = drifting_clock(10.0, 6);
    let cfg = MntpConfig {
        warmup_period_secs: 300.0,
        warmup_wait_secs: 10.0,
        regular_wait_secs: 30.0,
        reset_period_secs: 1e9,
        ..Default::default()
    };
    let mut d = MntpDiscipline::full(cfg);
    let run = drive(&mut d, &mut tb, &mut pool, &mut clock, None, &DriverConfig::span(1800, 1.0));
    let first_regular = run
        .records
        .iter()
        .find(|r| matches!(r.outcome, QueryOutcome::Accepted { .. } | QueryOutcome::Rejected { .. }))
        .map(|r| r.t_secs);
    let last_warmup = run
        .records
        .iter()
        .filter(|r| matches!(r.outcome, QueryOutcome::WarmupRound { .. }))
        .map(|r| r.t_secs)
        .fold(0.0f64, f64::max);
    let first_regular = first_regular.expect("regular phase reached");
    assert!(
        last_warmup < first_regular,
        "warmup rounds (last at {last_warmup}) must precede regular queries (first at {first_regular})"
    );
    assert!(first_regular >= 300.0, "regular phase cannot start before warmupPeriod");
}

/// Determinism across the whole stack: identical seeds → identical runs,
/// different seeds → different runs.
#[test]
fn whole_stack_determinism() {
    let go = |seed: u64| {
        let mut tb = Testbed::wireless(TestbedConfig::default(), seed);
        let mut pool = ServerPool::new(PoolConfig::default(), seed + 1);
        let mut clock = drifting_clock(20.0, seed + 2);
        let mut d = MntpDiscipline::full(MntpConfig::default());
        let span = DriverConfig::span(900, 1.0);
        let run = drive(&mut d, &mut tb, &mut pool, &mut clock, None, &span);
        run.records
            .iter()
            .map(|r| format!("{:.3}:{:?}", r.t_secs, r.outcome))
            .collect::<Vec<_>>()
    };
    assert_eq!(go(7), go(7));
    assert_ne!(go(7), go(8));
}

/// The reset period restarts the cycle: a run longer than resetPeriod
/// contains a second block of warmup rounds.
#[test]
fn reset_period_triggers_new_warmup() {
    let mut tb = Testbed::wireless(TestbedConfig::default(), 9);
    let mut pool = ServerPool::new(PoolConfig::default(), 10);
    let mut clock = drifting_clock(15.0, 11);
    let cfg = MntpConfig {
        warmup_period_secs: 200.0,
        warmup_wait_secs: 10.0,
        regular_wait_secs: 30.0,
        reset_period_secs: 900.0,
        ..Default::default()
    };
    let mut d = MntpDiscipline::full(cfg);
    let run = drive(&mut d, &mut tb, &mut pool, &mut clock, None, &DriverConfig::span(1800, 1.0));
    let warmups_after_reset = run
        .records
        .iter()
        .filter(|r| r.t_secs > 950.0 && matches!(r.outcome, QueryOutcome::WarmupRound { .. }))
        .count();
    assert!(warmups_after_reset > 0, "no warmup rounds after the reset boundary");
}
