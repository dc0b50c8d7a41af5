//! The generic driver that runs one client stack against a simulated
//! testbed.
//!
//! [`drive`] ticks a [`crate::discipline::Discipline`] through simulated
//! time: ask the discipline what to do, carry each requested exchange
//! across the (possibly fault-injected) network, hand the round back,
//! apply emitted clock commands, and sample ground-truth clock error. A
//! [`DriverConfig`] sets the tick grid, the sampling cadence and the
//! per-query timeout; [`DriverConfig::span`] builds the common one.
//! [`crate::fleet::run_fleet_on`] is the N-client counterpart.
//!
//! Every single-device arm that fits that skeleton calls [`drive`]
//! directly. A few experiment loops do not fit it and loop by hand:
//!
//! * `experiments::harness::paired_run` interleaves an SNTP and an MNTP
//!   client on one clock within each tick — two clients in lockstep,
//!   where `drive` runs one. `harness::sntp_run` is its SNTP half alone,
//!   a raw sampler that keeps every reported offset and loss.
//! * `experiments::ablations::run_arm` samples hints on every tick even
//!   with its gate off, so all arms see the same channel draws; `drive`
//!   deliberately samples hints only for disciplines that read them.
//! * `experiments::extended`'s SNTP, vendor and huff-n'-puff arms do
//!   per-poll work no discipline has a hook for: radio-energy metering,
//!   a vendor policy's own state machine, two estimators over one
//!   sample stream.
//! * `experiments::validation` drives the bare engine and trend filter
//!   to read their internal estimates, and `tuner::record_trace` logs
//!   hints and per-source offsets without ever correcting the clock.

use clocksim::time::{SimDuration, SimTime};
use clocksim::SimClock;
use netsim::{DeviceChaos, Testbed, WirelessHints};
use sntp::{perform_exchange_with, HealthConfig, ServerPool};

use crate::discipline::{Directive, Discipline, ExchangeResult};

/// What happened at one query instant.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryOutcome {
    /// The hint gate deferred the request.
    Deferred,
    /// The query was sent but every packet was lost.
    Failed,
    /// A warmup round completed with these per-source offsets (ms) and
    /// this many of them rejected as false tickers.
    WarmupRound {
        /// Offset reported by each responding source, ms.
        offsets_ms: Vec<f64>,
        /// How many of them the mean+1σ test rejected.
        false_tickers: usize,
    },
    /// A sample was accepted by the filter.
    Accepted {
        /// The accepted offset, ms.
        offset_ms: f64,
    },
    /// A sample was rejected by the filter.
    Rejected {
        /// The rejected offset, ms.
        offset_ms: f64,
    },
    /// First successful sample after a holdover outage: the engine
    /// corrected the clock and restarted warmup.
    Recovered {
        /// The offset observed at recovery, ms.
        offset_ms: f64,
    },
    /// A holdover-phase probe failed; the engine keeps freewheeling on
    /// the fitted drift.
    HoldoverFailed {
        /// The trend model's offset prediction at the failed probe, ms
        /// (`None` if no trend was ever fitted).
        predicted_ms: Option<f64>,
    },
    /// The selected server answered with a kiss-o'-death packet.
    KissODeath {
        /// The ASCII kiss code (e.g. `*b"RATE"`).
        code: [u8; 4],
    },
}

/// One record of an MNTP run.
#[derive(Clone, Debug)]
pub struct MntpRunRecord {
    /// True time of the event, seconds since run start.
    pub t_secs: f64,
    /// Wireless hints at the event (None on wired/cellular hops).
    pub hints: Option<WirelessHints>,
    /// What happened.
    pub outcome: QueryOutcome,
}

/// A completed run: per-event records plus ground-truth clock error.
///
/// Accepted/rejected offsets are cached as records are
/// [`push`](MntpRun::push)ed, so the accessors return slices instead of
/// re-scanning (and re-allocating from) the record stream per call.
#[derive(Clone, Debug, Default)]
pub struct MntpRun {
    /// Per-query-instant records. Push through [`MntpRun::push`] so the
    /// offset caches stay coherent.
    pub records: Vec<MntpRunRecord>,
    /// `(t_secs, clock true error ms)` sampled every few seconds —
    /// evaluation-only.
    pub true_error_ms: Vec<(f64, f64)>,
    /// Total exchanges attempted (one per server actually queried).
    pub polls_sent: u64,
    accepted: Vec<f64>,
    rejected: Vec<f64>,
}

impl MntpRun {
    /// Append a record, maintaining the accepted/rejected offset caches.
    pub fn push(&mut self, rec: MntpRunRecord) {
        match rec.outcome {
            QueryOutcome::Accepted { offset_ms } => self.accepted.push(offset_ms),
            QueryOutcome::Rejected { offset_ms } => self.rejected.push(offset_ms),
            _ => {}
        }
        self.records.push(rec);
    }

    /// All accepted offsets, ms, in record order.
    pub fn accepted_offsets(&self) -> &[f64] {
        &self.accepted
    }

    /// All rejected offsets, ms, in record order.
    pub fn rejected_offsets(&self) -> &[f64] {
        &self.rejected
    }

    /// Count of deferred query instants.
    pub fn deferrals(&self) -> usize {
        self.records.iter().filter(|r| r.outcome == QueryOutcome::Deferred).count()
    }

    /// Count of kiss-o'-death replies received.
    pub fn kod_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, QueryOutcome::KissODeath { .. }))
            .count()
    }

    /// Count of failed holdover probes.
    pub fn holdover_failures(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, QueryOutcome::HoldoverFailed { .. }))
            .count()
    }

    /// `(t_secs, offset_ms)` of every post-outage recovery.
    pub fn recoveries(&self) -> Vec<(f64, f64)> {
        self.records
            .iter()
            .filter_map(|r| match r.outcome {
                QueryOutcome::Recovered { offset_ms } => Some((r.t_secs, offset_ms)),
                _ => None,
            })
            .collect()
    }
}

/// Tick/exchange policy for one [`drive`] run.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// Inclusive tick count: the loop runs `0..=ticks`.
    pub ticks: u64,
    /// Seconds of simulated time per tick.
    pub tick_secs: f64,
    /// `true`: sample ground-truth clock error on every tick (the
    /// baseline loops); `false`: sample every ~5 s of simulated time.
    pub sample_every_tick: bool,
    /// Per-exchange round-trip budget: replies arriving later are
    /// abandoned and the query fails with `ExchangeError::Timeout`.
    pub timeout: Option<SimDuration>,
}

impl DriverConfig {
    /// Cover `duration_secs` of simulated time in ticks of `tick_secs`
    /// (`ceil(duration / tick)` ticks after the one at zero), sampling
    /// ground truth every ~5 s, with no timeout.
    pub fn span(duration_secs: u64, tick_secs: f64) -> Self {
        DriverConfig {
            ticks: (duration_secs as f64 / tick_secs).ceil() as u64,
            tick_secs,
            sample_every_tick: false,
            timeout: None,
        }
    }
}

/// Run a [`Discipline`] against the testbed for `cfg.ticks` ticks.
///
/// The single-device driver loop (see the module docs for the loops
/// that stay hand-written). Per tick:
///
/// 1. sample wireless hints, iff the discipline wants them (sampling
///    advances the testbed's background processes, so hint-blind
///    clients must not trigger it);
/// 2. [`Discipline::poll`] — the discipline reads its clock and decides;
/// 3. one exchange per requested server through
///    [`perform_exchange_with`], through the device's fault plan when
///    one is supplied and under `cfg.timeout`;
/// 4. [`Discipline::complete`] digests the round and optionally yields
///    a record;
/// 5. emitted clock commands are applied at the tick instant;
/// 6. ground-truth clock error is sampled per `cfg.sample_every_tick`.
pub fn drive(
    discipline: &mut dyn Discipline,
    testbed: &mut Testbed,
    pool: &mut ServerPool,
    clock: &mut SimClock,
    mut faults: Option<&mut DeviceChaos>,
    cfg: &DriverConfig,
) -> MntpRun {
    let mut run = MntpRun::default();
    for i in 0..=cfg.ticks {
        let t = SimTime::ZERO + SimDuration::from_secs_f64(i as f64 * cfg.tick_secs);
        let hints = if discipline.wants_hints() { testbed.hints(t) } else { None };
        match discipline.poll(t, clock, hints.as_ref(), pool) {
            Directive::Idle { record_deferred } => {
                if record_deferred {
                    run.push(MntpRunRecord {
                        t_secs: t.as_secs_f64(),
                        hints,
                        outcome: QueryOutcome::Deferred,
                    });
                }
            }
            Directive::Query(ids) => {
                let mut round = Vec::with_capacity(ids.len());
                for id in ids {
                    run.polls_sent += 1;
                    let outcome = perform_exchange_with(
                        testbed,
                        pool.server_mut(id),
                        clock,
                        t,
                        faults.as_deref_mut(),
                        cfg.timeout,
                        None,
                    );
                    round.push(ExchangeResult { server_id: id, outcome });
                }
                if let Some(outcome) = discipline.complete(t, clock, &round) {
                    run.push(MntpRunRecord { t_secs: t.as_secs_f64(), hints, outcome });
                }
            }
        }
        for cmd in discipline.take_commands() {
            cmd.apply(clock, t);
        }
        let sample_due =
            cfg.sample_every_tick || (i as f64 * cfg.tick_secs) % 5.0 < cfg.tick_secs;
        if sample_due {
            run.true_error_ms.push((t.as_secs_f64(), clock.true_error(t).as_millis_f64()));
        }
    }
    run
}

/// Configuration of the hardened client stack
/// ([`crate::discipline::MntpDiscipline::hardened`]).
#[derive(Clone, Debug)]
pub struct RobustConfig {
    /// Per-server health policy (demotion bans, kiss-o'-death honoring).
    pub health: HealthConfig,
    /// Seed for the health tracker's selection RNG.
    pub health_seed: u64,
}

impl Default for RobustConfig {
    fn default() -> Self {
        RobustConfig { health: HealthConfig::default(), health_seed: 0x4d4e5450 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MntpConfig;
    use crate::discipline::{MntpDiscipline, SntpDiscipline};
    use clocksim::{OscillatorConfig, SimRng};
    use netsim::testbed::TestbedConfig;
    use sntp::PoolConfig;

    fn clock(skew_ppm: f64, seed: u64) -> SimClock {
        let osc = OscillatorConfig::laptop().with_skew_ppm(skew_ppm).build(SimRng::new(seed));
        SimClock::new(osc, SimTime::ZERO)
    }

    /// The §5.1 baseline: poll every 5 s, gate + filter only, ground
    /// truth on every tick.
    fn baseline(tb: &mut Testbed, pool: &mut ServerPool, c: &mut SimClock, secs: u64) -> MntpRun {
        let mut d = SntpDiscipline::baseline(&MntpConfig::baseline(5.0));
        let dcfg = DriverConfig { sample_every_tick: true, ..DriverConfig::span(secs, 5.0) };
        drive(&mut d, tb, pool, c, None, &dcfg)
    }

    /// The hardened engine through a fault plan, 1 s query timeout.
    fn hardened(
        cfg: MntpConfig,
        tb: &mut Testbed,
        pool: &mut ServerPool,
        c: &mut SimClock,
        faults: &mut DeviceChaos,
        secs: u64,
    ) -> MntpRun {
        let mut d = MntpDiscipline::hardened(cfg, &RobustConfig::default(), pool.len());
        let dcfg = DriverConfig {
            timeout: Some(SimDuration::from_secs(1)),
            ..DriverConfig::span(secs, 1.0)
        };
        drive(&mut d, tb, pool, c, Some(faults), &dcfg)
    }

    #[test]
    fn baseline_run_on_wireless_rejects_spikes() {
        let mut tb = Testbed::wireless(TestbedConfig::default(), 1);
        let mut pool = ServerPool::new(PoolConfig::default(), 2);
        let mut c = clock(0.0, 3);
        let run = baseline(&mut tb, &mut pool, &mut c, 1800);
        let accepted = run.accepted_offsets();
        let rejected = run.rejected_offsets();
        assert!(!accepted.is_empty());
        assert!(run.deferrals() > 0, "gate should defer sometimes");
        // Accepted spread must be far tighter than what rejection removed.
        if !rejected.is_empty() {
            let max_acc = accepted.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
            let max_rej = rejected.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
            assert!(max_rej > max_acc, "rejected {max_rej} vs accepted {max_acc}");
        }
    }

    #[test]
    fn offset_caches_match_record_scan() {
        let mut tb = Testbed::wireless(TestbedConfig::default(), 1);
        let mut pool = ServerPool::new(PoolConfig::default(), 2);
        let mut c = clock(0.0, 3);
        let run = baseline(&mut tb, &mut pool, &mut c, 900);
        let scanned: Vec<f64> = run
            .records
            .iter()
            .filter_map(|r| match r.outcome {
                QueryOutcome::Accepted { offset_ms } => Some(offset_ms),
                _ => None,
            })
            .collect();
        assert_eq!(run.accepted_offsets(), scanned.as_slice());
        assert!(run.polls_sent > 0);
    }

    #[test]
    fn full_run_reaches_regular_phase_and_records() {
        let mut tb = Testbed::wireless(TestbedConfig::default(), 4);
        let mut pool = ServerPool::new(PoolConfig::default(), 5);
        let mut c = clock(10.0, 6);
        let cfg = MntpConfig {
            warmup_period_secs: 300.0,
            warmup_wait_secs: 15.0,
            regular_wait_secs: 60.0,
            reset_period_secs: 100_000.0,
            ..Default::default()
        };
        let mut d = MntpDiscipline::full(cfg);
        let run = drive(&mut d, &mut tb, &mut pool, &mut c, None, &DriverConfig::span(3600, 1.0));
        let warmup_rounds = run
            .records
            .iter()
            .filter(|r| matches!(r.outcome, QueryOutcome::WarmupRound { .. }))
            .count();
        assert!(warmup_rounds >= 10, "warmup rounds {warmup_rounds}");
        let regular = run
            .records
            .iter()
            .filter(|r| {
                matches!(
                    r.outcome,
                    QueryOutcome::Accepted { .. } | QueryOutcome::Rejected { .. }
                )
            })
            .count();
        assert!(regular >= 10, "regular samples {regular}");
        assert!(!run.true_error_ms.is_empty());
    }

    #[test]
    fn autotuned_driver_stretches_pacing_and_still_tracks() {
        let mut tb = Testbed::wireless(netsim::testbed::TestbedConfig::default(), 21);
        let mut pool = ServerPool::new(sntp::PoolConfig::default(), 22);
        let osc =
            clocksim::OscillatorConfig::laptop().with_skew_ppm(25.0).build(SimRng::new(23));
        let mut c = SimClock::new(osc, SimTime::ZERO);
        let cfg = MntpConfig {
            warmup_period_secs: 300.0,
            warmup_wait_secs: 10.0,
            regular_wait_secs: 30.0,
            reset_period_secs: 1e9,
            apply_mode: crate::config::ApplyMode::Step,
            ..Default::default()
        };
        let mut d = MntpDiscipline::autotuned(cfg, crate::autotune::AutoTuneConfig::default());
        let run = drive(&mut d, &mut tb, &mut pool, &mut c, None, &DriverConfig::span(3600, 1.0));
        let tuner = d.into_tuner().expect("autotuned discipline carries a tuner");
        // The tuner must have stretched the wait beyond its floor…
        assert!(tuner.wait_secs() > 15.0, "wait {}", tuner.wait_secs());
        // …while the clock stays disciplined after warmup.
        let late: Vec<f64> = run
            .true_error_ms
            .iter()
            .filter(|(t, _)| *t > 1200.0)
            .map(|(_, e)| e.abs())
            .collect();
        let worst = late.iter().cloned().fold(0.0, f64::max);
        assert!(worst < 120.0, "worst disciplined error {worst}");
    }

    #[test]
    fn faulted_run_survives_total_outage_and_recovers() {
        use netsim::{ChaosEvent, FleetFaultPlan, ServerSet};
        let go = || {
            let mut tb = Testbed::wireless(TestbedConfig::default(), 31);
            let mut pool = ServerPool::new(PoolConfig::default(), 32);
            let mut c = clock(25.0, 33);
            let cfg = MntpConfig {
                warmup_period_secs: 300.0,
                warmup_wait_secs: 10.0,
                regular_wait_secs: 30.0,
                reset_period_secs: 1e9,
                apply_mode: crate::config::ApplyMode::Step,
                ..Default::default()
            };
            let plan = FleetFaultPlan::new(34).window(
                1800.0,
                3000.0,
                ChaosEvent::ServerOutage { servers: ServerSet::All },
            );
            let mut faults = DeviceChaos::new(plan);
            hardened(cfg, &mut tb, &mut pool, &mut c, &mut faults, 5400)
        };
        let run = go();
        assert!(run.holdover_failures() > 0, "outage should force holdover probes");
        let recs = run.recoveries();
        assert!(!recs.is_empty(), "engine must recover after the outage");
        assert!(recs[0].0 > 3000.0, "recovery only after the window ends, got {}", recs[0].0);
        // Bit-identical replay: same seeds, same run.
        let again = go();
        assert_eq!(run.records.len(), again.records.len());
        assert_eq!(run.true_error_ms, again.true_error_ms);
    }

    #[test]
    fn faulted_run_records_kiss_o_death() {
        use netsim::{ChaosEvent, FleetFaultPlan, ServerSet};
        let mut tb = Testbed::wireless(TestbedConfig::default(), 41);
        let mut pool = ServerPool::new(PoolConfig::default(), 42);
        let mut c = clock(10.0, 43);
        let cfg = MntpConfig {
            warmup_period_secs: 120.0,
            warmup_wait_secs: 10.0,
            regular_wait_secs: 20.0,
            reset_period_secs: 1e9,
            ..Default::default()
        };
        // Every server rate-limits hard during the regular phase.
        let plan = FleetFaultPlan::new(44).window(
            300.0,
            600.0,
            ChaosEvent::KissODeath { servers: ServerSet::All, min_poll_secs: 3600.0 },
        );
        let mut faults = DeviceChaos::new(plan);
        let run = hardened(cfg, &mut tb, &mut pool, &mut c, &mut faults, 900);
        assert!(run.kod_count() > 0, "KoD replies should be recorded");
    }

    #[test]
    fn deterministic_given_seeds() {
        let go = || {
            let mut tb = Testbed::wireless(TestbedConfig::default(), 7);
            let mut pool = ServerPool::new(PoolConfig::default(), 8);
            let mut c = clock(5.0, 9);
            let run = baseline(&mut tb, &mut pool, &mut c, 600);
            run.accepted_offsets().to_vec()
        };
        assert_eq!(go(), go());
    }
}
