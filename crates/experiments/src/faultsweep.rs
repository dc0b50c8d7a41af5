//! Beyond the paper: the fault sweep — how each client survives
//! episodic network failure.
//!
//! Every scenario in the grid injects one fault family through a
//! [`netsim::FleetFaultPlan`] — the device is client 0 of the plan —
//! while three clients discipline their own clocks over
//! otherwise-identical wireless conditions:
//!
//! * **SNTP (naive)** — poll every 5 s, step on every reply, no retry
//!   policy beyond the next poll. This is the §5.1 baseline; under an
//!   outage it freewheels at the raw oscillator skew.
//! * **MNTP (hardened)** — Algorithm 1 as
//!   [`mntp::MntpDiscipline::hardened`]: health-tracked server
//!   selection, kiss-o'-death honoring, and the holdover phase that
//!   freewheels on the *fitted* drift and re-syncs on recovery.
//! * **NTP (ntpd-sim)** — the full RFC 5905 mitigation pipeline as
//!   [`ntpd_sim::NtpdDiscipline`]; its reachability registers and poll
//!   backoff are its native hardening.
//!
//! All three run under [`mntp::drive`] through the scenario's one plan,
//! each arm with fresh one-shot latches, under the same per-query
//! timeout. A plan's draw is a hash of (window, client, instant,
//! direction), so requests of two arms that leave at the same instant
//! meet the same storm draw.
//!
//! The table reports |true clock error| *during* the fault window and
//! *after* recovery time has passed, plus polls sent — the survival /
//! accuracy trade each client makes.

use clocksim::stats::Summary;
use clocksim::time::SimDuration;
use mntp::{drive, ApplyMode, DriverConfig, MntpConfig, MntpDiscipline, RobustConfig};
use netsim::testbed::TestbedConfig;
use netsim::{ChaosEvent, ClientRange, DeviceChaos, FleetFaultPlan, ServerSet, Testbed};
use ntpd_sim::{NtpdConfig, NtpdDiscipline};

use crate::harness::{default_pool, ClockMode};
use crate::render;

/// Per-query round-trip budget shared by all three arms, seconds.
const TIMEOUT_SECS: f64 = 1.0;

/// One fault scenario of the sweep.
#[derive(Clone, Debug)]
pub struct FaultScenario {
    /// Scenario name (table row label).
    pub name: &'static str,
    /// The scenario's seed: the plan's and, offset per arm, the
    /// testbed's, pool's and clock's.
    pub seed: u64,
    /// The injected faults, shared by the three arms.
    pub plan: FleetFaultPlan,
    /// `[start, end)` of the fault episode, seconds — the "during"
    /// metric window.
    pub during: (f64, f64),
    /// Post-recovery metrics start here (leaves room for holdover
    /// probe backoff plus a fresh warmup).
    pub post_from: f64,
}

/// The fault grid, positioned relative to `duration` so quick and full
/// horizons exercise the same phases (fault lands in the regular phase,
/// recovery window before the end). Scenario `i` takes the seed
/// `seed + 1000 i`.
pub fn scenario_grid(seed: u64, duration: u64) -> Vec<FaultScenario> {
    let d = duration as f64;
    let w0 = (d * 0.33).floor();
    let w1 = (d * 0.55).floor();
    let post = (d * 0.78).floor();
    let device = ClientRange::all(1);
    let windowed = |event| vec![(w0, w1, event)];
    let grid = [
        ("clean", Vec::new()),
        (
            "loss-storm-80",
            windowed(ChaosEvent::RegionalLossStorm { region: device, loss_prob: 0.8 }),
        ),
        ("total-outage", windowed(ChaosEvent::ServerOutage { servers: ServerSet::All })),
        (
            "kod-rate-limit",
            windowed(ChaosEvent::KissODeath { servers: ServerSet::All, min_poll_secs: 3600.0 }),
        ),
        (
            "delay-spike-asym",
            windowed(ChaosEvent::RegionalDelaySpike {
                region: device,
                extra_up_ms: 150.0,
                extra_down_ms: 0.0,
            }),
        ),
        (
            "clock-step-400",
            vec![(w0, w0, ChaosEvent::ClockStepWave { region: device, offset_ms: -400.0 })],
        ),
        (
            "corrupt-duplicate",
            vec![
                (w0, w1, ChaosEvent::CorruptReply { prob: 0.5 }),
                (w0, w1, ChaosEvent::DuplicateReply { prob: 0.5 }),
            ],
        ),
    ];
    grid.into_iter()
        .enumerate()
        .map(|(i, (name, events))| {
            let seed = seed + 1000 * i as u64;
            let plan =
                events.into_iter().fold(FleetFaultPlan::new(seed), |plan, (from, to, event)| {
                    plan.window(from, to, event)
                });
            FaultScenario { name, seed, plan, during: (w0, w1), post_from: post }
        })
        .collect()
}

/// One protocol's survival numbers for one scenario.
#[derive(Clone, Debug)]
pub struct FaultArmStats {
    /// Protocol label.
    pub name: &'static str,
    /// |true error| (ms) while the fault is active.
    pub during: Summary,
    /// |true error| (ms) after `post_from`.
    pub post: Summary,
    /// Polls sent over the whole run.
    pub polls: u64,
    /// Kiss-o'-death replies seen (only the hardened client counts
    /// them; the others fold KoD into generic failure).
    pub kod: u64,
}

/// One scenario row: the three arms over the same fault plan.
#[derive(Clone, Debug)]
pub struct FaultScenarioResult {
    /// Scenario name.
    pub name: &'static str,
    /// The fault window the metrics split on.
    pub during: (f64, f64),
    /// SNTP / MNTP / ntpd survival stats.
    pub arms: Vec<FaultArmStats>,
}

fn split_errors(
    errors: &[(f64, f64)],
    during: (f64, f64),
    post_from: f64,
) -> (Summary, Summary) {
    let within = |lo: f64, hi: f64| -> Vec<f64> {
        errors.iter().filter(|(t, _)| *t >= lo && *t < hi).map(|(_, e)| e.abs()).collect()
    };
    (Summary::of(&within(during.0, during.1)), Summary::of(&within(post_from, f64::INFINITY)))
}

/// One-second ticks over `duration` under the shared per-query timeout:
/// the MNTP and ntpd arms' driver grid.
fn timed_span(duration: u64) -> DriverConfig {
    DriverConfig {
        timeout: Some(SimDuration::from_secs_f64(TIMEOUT_SECS)),
        ..DriverConfig::span(duration, 1.0)
    }
}

/// Naive SNTP under faults: poll every 5 s through the plan with
/// the shared timeout, step on every reply — no health tracking, no
/// backoff. What a stock mobile SNTP client does when the network
/// misbehaves.
fn sntp_arm(sc: &FaultScenario, seed: u64, duration: u64) -> FaultArmStats {
    let mut tb = Testbed::wireless(TestbedConfig::default(), seed);
    let mut pool = default_pool(seed + 1);
    let mut clock = ClockMode::free_running_default().build(seed + 2);
    let mut faults = DeviceChaos::new(sc.plan.clone());
    let mut d = mntp::SntpDiscipline::naive();
    let dcfg = DriverConfig {
        ticks: duration / 5,
        tick_secs: 5.0,
        sample_every_tick: true,
        timeout: Some(SimDuration::from_secs_f64(TIMEOUT_SECS)),
    };
    let run = drive(&mut d, &mut tb, &mut pool, &mut clock, Some(&mut faults), &dcfg);
    let (during, post) = split_errors(&run.true_error_ms, sc.during, sc.post_from);
    FaultArmStats { name: "SNTP (naive)", during, post, polls: run.polls_sent, kod: 0 }
}

/// The hardened MNTP client under faults.
fn mntp_arm(sc: &FaultScenario, seed: u64, duration: u64) -> FaultArmStats {
    let mut tb = Testbed::wireless(TestbedConfig::default(), seed);
    let mut pool = default_pool(seed + 1);
    let mut clock = ClockMode::free_running_default().build(seed + 2);
    let mut faults = DeviceChaos::new(sc.plan.clone());
    let cfg = MntpConfig {
        warmup_period_secs: 300.0,
        warmup_wait_secs: 10.0,
        regular_wait_secs: 30.0,
        reset_period_secs: duration as f64 + 1.0,
        apply_mode: ApplyMode::Step,
        ..Default::default()
    };
    let mut d = MntpDiscipline::hardened(cfg, &RobustConfig::default(), pool.len());
    let dcfg = timed_span(duration);
    let run = drive(&mut d, &mut tb, &mut pool, &mut clock, Some(&mut faults), &dcfg);
    let (during, post) = split_errors(&run.true_error_ms, sc.during, sc.post_from);
    let polls = run
        .records
        .iter()
        .filter(|r| !matches!(r.outcome, mntp::QueryOutcome::Deferred))
        .count() as u64;
    FaultArmStats { name: "MNTP (hardened)", during, post, polls, kod: run.kod_count() as u64 }
}

/// ntpd-sim under faults.
fn ntpd_arm(sc: &FaultScenario, seed: u64, duration: u64) -> FaultArmStats {
    let mut tb = Testbed::wireless(TestbedConfig::default(), seed);
    let mut pool = default_pool(seed + 1);
    let mut clock = ClockMode::free_running_default().build(seed + 2);
    let mut faults = DeviceChaos::new(sc.plan.clone());
    let mut d = NtpdDiscipline::new(&NtpdConfig::with_peers(vec![0, 1, 2, 3]));
    let dcfg = timed_span(duration);
    let run = drive(&mut d, &mut tb, &mut pool, &mut clock, Some(&mut faults), &dcfg);
    let (during, post) = split_errors(&run.true_error_ms, sc.during, sc.post_from);
    FaultArmStats { name: "NTP (ntpd-sim)", during, post, polls: run.polls_sent, kod: 0 }
}

/// Run the sweep: every scenario × every protocol, each run an
/// independent trial with its own seeds. The 3 × |grid| runs fan out
/// over `pool` as one task each; results come back in grid order
/// regardless of worker count.
pub fn run_sweep_on(
    pool: &devtools::par::Pool,
    seed: u64,
    duration: u64,
) -> Vec<FaultScenarioResult> {
    type Arm = fn(&FaultScenario, u64, u64) -> FaultArmStats;
    let arms: [(Arm, u64); 3] = [(sntp_arm, 0), (mntp_arm, 10), (ntpd_arm, 20)];
    let grid = scenario_grid(seed, duration);
    let mut runs = Vec::with_capacity(grid.len() * arms.len());
    for sc in &grid {
        runs.extend(arms.map(|(arm, offset)| (sc, arm, sc.seed + offset)));
    }
    let mut flat = pool.map(runs, |(sc, arm, arm_seed)| arm(sc, arm_seed, duration)).into_iter();
    grid.iter()
        .map(|sc| FaultScenarioResult {
            name: sc.name,
            during: sc.during,
            arms: (0..3).map(|_| flat.next().expect("arm result")).collect(),
        })
        .collect()
}

/// Render the survival/accuracy table.
pub fn render_sweep(rows: &[FaultScenarioResult]) -> String {
    let mut out = String::from(
        "Fault sweep — |true clock error| (ms) during the fault window and after recovery\n\
         (each protocol disciplines its own free-running clock; same wireless conditions)\n\n",
    );
    let mut table_rows = Vec::new();
    for sc in rows {
        for arm in &sc.arms {
            table_rows.push(vec![
                sc.name.to_string(),
                arm.name.to_string(),
                render::f1(arm.during.median),
                render::f1(arm.during.p95),
                render::f1(arm.during.max),
                render::f1(arm.post.p95),
                render::f1(arm.post.max),
                arm.polls.to_string(),
                arm.kod.to_string(),
            ]);
        }
    }
    out.push_str(&render::table(
        &[
            "scenario",
            "protocol",
            "dur p50",
            "dur p95",
            "dur max",
            "post p95",
            "post max",
            "polls",
            "kod",
        ],
        &table_rows,
    ));
    out.push_str(
        "\nReading guide: under total-outage, MNTP's holdover keeps the during-window error\n\
         near the residual of its fitted drift and re-syncs after the window (small post\n\
         error), while naive SNTP freewheels at the raw oscillator skew during the window.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_the_fault_families() {
        let grid = scenario_grid(2016, 5400);
        assert_eq!(grid.len(), 7);
        assert_eq!(grid[0].name, "clean");
        assert!(grid.iter().any(|s| s.name == "total-outage"));
        for sc in &grid {
            assert!(sc.during.0 < sc.during.1);
            assert!(sc.post_from > sc.during.1, "{}: post must start after the window", sc.name);
        }
    }

    #[test]
    fn sweep_outage_row_shows_mntp_surviving() {
        let pool = devtools::par::Pool::with_jobs(1);
        let rows = run_sweep_on(&pool, 77, 1800);
        assert_eq!(rows.len(), 7);
        let outage = rows.iter().find(|r| r.name == "total-outage").unwrap();
        let sntp = &outage.arms[0];
        let mntp = &outage.arms[1];
        assert!(sntp.during.n > 0 && mntp.during.n > 0);
        // Holdover bounds the during-window error below naive SNTP's
        // freewheel-plus-spikes, and the client re-syncs afterwards.
        assert!(
            mntp.during.max < sntp.during.max,
            "mntp during max {} vs sntp {}",
            mntp.during.max,
            sntp.during.max
        );
        assert!(
            mntp.post.p95 < sntp.during.max,
            "post p95 {} should sit below the outage degradation {}",
            mntp.post.p95,
            sntp.during.max
        );
        // The hardened client is also far cheaper on the network.
        assert!(mntp.polls < sntp.polls / 2, "polls {} vs {}", mntp.polls, sntp.polls);
    }

    #[test]
    fn sweep_is_deterministic_across_worker_counts() {
        let one = run_sweep_on(&devtools::par::Pool::with_jobs(1), 99, 1800);
        let eight = run_sweep_on(&devtools::par::Pool::with_jobs(8), 99, 1800);
        assert_eq!(render_sweep(&one), render_sweep(&eight));
    }
}
