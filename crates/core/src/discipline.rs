//! The client-stack abstraction: one [`Discipline`] trait behind which
//! every clock-synchronization client in the workspace lives.
//!
//! A discipline is the *decision* half of a client: when to poll, which
//! servers to ask, what to make of each reply, and which clock commands
//! to emit. The *mechanics* — ticking simulated time, carrying packets
//! through the (possibly fault-injected) network, applying clock
//! commands, sampling ground truth — live in the generic drivers:
//! [`crate::driver::drive`] for one client, [`crate::fleet::run_fleet_on`]
//! for a fleet. Three disciplines ship in-tree:
//!
//! * [`SntpDiscipline`] — naive SNTP (fixed cadence, step on every
//!   reply) and the paper's §5.1 gate+filter baseline, selected by
//!   constructor;
//! * [`MntpDiscipline`] — the full Algorithm 1 engine, optionally
//!   wrapped with the AIMD auto-tuner and/or the hardened
//!   health-tracking stack;
//! * `NtpdDiscipline` (in the `ntpd-sim` crate) — the RFC 5905
//!   mitigation pipeline.
//!
//! The trait is object-safe on purpose: the fleet simulator drives a
//! heterogeneous `Vec<Box<dyn Discipline>>` of thousands of clients
//! through the same hooks.

use clocksim::{ClockCommand, ClockControl, SimClock};
use clocksim::time::SimTime;
use netsim::WirelessHints;
use sntp::{CompletedExchange, ExchangeError, HealthTracker, ServerSelect};

use crate::autotune::AutoTuner;
use crate::config::MntpConfig;
use crate::driver::{QueryOutcome, RobustConfig};
use crate::engine::{Mntp, MntpAction, Phase, SampleVerdict};
use crate::filter::TrendFilter;
use crate::gate::HintGate;

/// What a discipline wants to do at one tick.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Directive {
    /// Do nothing this tick.
    Idle {
        /// Record a [`QueryOutcome::Deferred`] event for this tick
        /// (true when a scheduler *wanted* to poll but a gate said no;
        /// false when the tick simply wasn't a poll instant).
        record_deferred: bool,
    },
    /// Query these servers, in order, this tick.
    Query(Vec<usize>),
}

/// One server's answer within a query round.
#[derive(Clone, Copy, Debug)]
pub struct ExchangeResult {
    /// The server that was queried.
    pub server_id: usize,
    /// What came back.
    pub outcome: Result<CompletedExchange, ExchangeError>,
}

/// A clock-synchronization client stack, as seen by the generic driver.
///
/// Per tick the driver calls [`poll`](Discipline::poll); if it returns
/// [`Directive::Query`] the driver performs one exchange per listed
/// server and hands the full round to
/// [`complete`](Discipline::complete); finally
/// [`take_commands`](Discipline::take_commands) is drained and applied
/// to the client clock. Implementations read the clock themselves (via
/// the `clock` argument) at exactly the points their algorithms need a
/// local timestamp — the driver never pre-reads it for them, because
/// exchanges advance the clock position and the *post*-exchange local
/// time is what engines like MNTP observe.
///
/// `Send` is a supertrait: the fleet runner moves boxed disciplines to
/// worker threads when ticking shards in parallel. Every discipline is
/// plain owned data, so the bound costs implementations nothing.
pub trait Discipline: Send {
    /// Whether this discipline consumes link-layer wireless hints. The
    /// driver only samples (and thereby advances) the testbed's hint
    /// process for disciplines that want it, so hint-blind clients
    /// (ntpd, naive SNTP) perturb nothing they never read.
    fn wants_hints(&self) -> bool {
        true
    }

    /// Decide what to do at tick instant `t`. Server selection draws
    /// from `select` — the shared `ServerPool` in single-client
    /// drivers, a per-client `PickLane` in the fleet runner.
    fn poll(
        &mut self,
        t: SimTime,
        clock: &mut SimClock,
        hints: Option<&WirelessHints>,
        select: &mut dyn ServerSelect,
    ) -> Directive;

    /// Digest a completed query round (one entry per server queried, in
    /// query order). Returns the outcome to record, if any.
    fn complete(
        &mut self,
        t: SimTime,
        clock: &mut SimClock,
        round: &[ExchangeResult],
    ) -> Option<QueryOutcome>;

    /// Drain pending clock commands; the driver applies them at the
    /// current tick instant.
    fn take_commands(&mut self) -> Vec<ClockCommand>;
}

/// Which kind of round an [`MntpDiscipline`] has in flight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RoundKind {
    /// Warmup: distinct sources whose offsets go to the engine's
    /// false-ticker test.
    Warmup,
    /// Regular phase: one source, whose answer is the sample.
    Single,
    /// Resilient regular phase: distinct sources combined by selection.
    FanOut,
}

/// The full MNTP Algorithm 1 engine as a [`Discipline`].
///
/// Four configurations:
/// [`full`](MntpDiscipline::full) (plain engine),
/// [`autotuned`](MntpDiscipline::autotuned) (AIMD wait tuning),
/// [`hardened`](MntpDiscipline::hardened) (health-tracked server
/// selection, kiss-o'-death honoring, holdover observability), and
/// [`resilient`](MntpDiscipline::resilient) (hardened plus regular-phase
/// fan-out through falseticker-resilient selection).
/// [`with_autotune`](MntpDiscipline::with_autotune) adds the tuner to any
/// of them.
///
/// Every round goes through one [`complete`](Discipline::complete):
/// health is recorded for each answer, the round yields at most one
/// sample, and the engine's verdict on it becomes the round's
/// [`QueryOutcome`]; a round with no sample takes the one failure path.
pub struct MntpDiscipline {
    engine: Mntp,
    tuner: Option<AutoTuner>,
    health: Option<HealthTracker>,
    round: RoundKind,
    /// When set, regular-phase rounds query this many *distinct*
    /// servers and run intersection/cluster/combine selection
    /// ([`crate::selection::select_round`]) over the answers instead of
    /// trusting a single source.
    resilient_fanout: Option<usize>,
}

impl MntpDiscipline {
    /// Plain engine: pool-uniform server selection, no tuner.
    pub fn full(cfg: MntpConfig) -> Self {
        MntpDiscipline {
            engine: Mntp::new(cfg),
            tuner: None,
            health: None,
            round: RoundKind::Single,
            resilient_fanout: None,
        }
    }

    /// Engine plus the AIMD self-tuner adjusting the regular-phase wait.
    pub fn autotuned(cfg: MntpConfig, tune: crate::autotune::AutoTuneConfig) -> Self {
        MntpDiscipline::full(cfg).with_autotune(tune)
    }

    /// The hardened stack: server selection through a health tracker
    /// sized for a pool of `pool_len` servers, per
    /// [`RobustConfig::health`].
    pub fn hardened(cfg: MntpConfig, rcfg: &RobustConfig, pool_len: usize) -> Self {
        let health = HealthTracker::new(pool_len, rcfg.health, rcfg.health_seed);
        MntpDiscipline { health: Some(health), ..MntpDiscipline::full(cfg) }
    }

    /// The falseticker-resilient stack: [`hardened`] plus regular-phase
    /// fan-out — every regular round queries `fanout` distinct servers
    /// and feeds the answers through the RFC 5905-style
    /// intersection/cluster/combine selection, so a pool member that
    /// turns falseticker *mid-run* (after warmup vetting) is outvoted
    /// and demoted instead of steering the clock.
    ///
    /// [`hardened`]: MntpDiscipline::hardened
    pub fn resilient(
        cfg: MntpConfig,
        rcfg: &RobustConfig,
        pool_len: usize,
        fanout: usize,
    ) -> Self {
        let mut d = MntpDiscipline::hardened(cfg, rcfg, pool_len);
        d.resilient_fanout = Some(fanout.clamp(2, pool_len.max(2)));
        d
    }

    /// Attach an AIMD wait tuner to any stack (builder-style). The
    /// hardened and resilient constructors ship without one; a fleet
    /// that wants rejection streaks to speed sampling up — so a stepped
    /// or re-anchoring client re-converges in rounds, not multiples of
    /// the full regular wait — opts in here.
    pub fn with_autotune(mut self, tune: crate::autotune::AutoTuneConfig) -> Self {
        self.tuner = Some(AutoTuner::new(tune));
        self
    }

    /// Hand the tuner back (for reporting), consuming the discipline.
    pub fn into_tuner(self) -> Option<AutoTuner> {
        self.tuner
    }

    /// Observability: the engine's current phase.
    pub fn phase(&self) -> Phase {
        self.engine.phase()
    }

    /// The servers for a round of the current kind: `n` distinct ones,
    /// or one for a single round; drawn by the health tracker when the
    /// stack has one, else from `select`.
    fn pick(&mut self, n: usize, t: SimTime, select: &mut dyn ServerSelect) -> Vec<usize> {
        let single = self.round == RoundKind::Single;
        match &mut self.health {
            Some(h) if single => vec![h.pick(t.as_secs_f64())],
            Some(h) => h.pick_distinct(n, t.as_secs_f64()),
            None if single => vec![select.pick()],
            None => select.pick_distinct(n),
        }
    }
}

impl Discipline for MntpDiscipline {
    fn poll(
        &mut self,
        t: SimTime,
        clock: &mut SimClock,
        hints: Option<&WirelessHints>,
        select: &mut dyn ServerSelect,
    ) -> Directive {
        let (round, n) = match self.engine.on_tick(clock.now(t), hints) {
            MntpAction::Wait => return Directive::Idle { record_deferred: false },
            MntpAction::Deferred => return Directive::Idle { record_deferred: true },
            MntpAction::QueryMultiple(n) => (RoundKind::Warmup, n),
            MntpAction::QuerySingle => match self.resilient_fanout {
                Some(n) => (RoundKind::FanOut, n),
                None => (RoundKind::Single, 1),
            },
        };
        self.round = round;
        Directive::Query(self.pick(n, t, select))
    }

    fn complete(
        &mut self,
        t: SimTime,
        clock: &mut SimClock,
        round: &[ExchangeResult],
    ) -> Option<QueryOutcome> {
        let ts = t.as_secs_f64();
        if let Some(h) = &mut self.health {
            for r in round {
                match r.outcome {
                    Ok(_) => h.on_success(r.server_id, ts),
                    Err(ExchangeError::KissODeath(code)) => h.on_kod(r.server_id, code, ts),
                    Err(_) => h.on_failure(r.server_id, ts),
                }
            }
        }
        let now = clock.now(t);
        let answer_ms =
            |r: &ExchangeResult| r.outcome.ok().map(|d| d.sample.offset.as_millis_f64());
        let sample = match self.round {
            RoundKind::Warmup => {
                // An unanswered warmup round is a plain failure: never a
                // KoD record, and no tuner input.
                let offsets: Vec<f64> = round.iter().filter_map(answer_ms).collect();
                return Some(match self.engine.on_warmup_round(now, &offsets) {
                    Some(v) => QueryOutcome::WarmupRound {
                        offsets_ms: offsets,
                        false_tickers: v.false_tickers,
                    },
                    None => QueryOutcome::Failed,
                });
            }
            RoundKind::Single => round.first().and_then(answer_ms),
            // Servers the selection discarded are demoted, so future
            // rounds de-prioritize them.
            RoundKind::FanOut => crate::selection::select_round(round).map(|sel| {
                if let Some(h) = &mut self.health {
                    for id in &sel.discarded {
                        h.on_failure(*id, ts);
                    }
                }
                sel.offset_ms
            }),
        };
        let Some(sample) = sample else {
            self.engine.on_query_failed(now);
            if self.health.is_none() {
                // The plain stacks report every failure alike and let
                // the tuner back off.
                if let Some(tu) = &mut self.tuner {
                    self.engine.set_regular_wait_secs(tu.on_failure());
                }
                return Some(QueryOutcome::Failed);
            }
            // The health stacks surface a KoD if one arrived (the
            // fleet's rate accounting depends on it) and report failed
            // holdover probes.
            let kod = round.iter().find_map(|r| match r.outcome {
                Err(ExchangeError::KissODeath(code)) => Some(code),
                _ => None,
            });
            return Some(match kod {
                Some(code) => QueryOutcome::KissODeath { code },
                None if self.engine.phase() == Phase::Holdover => QueryOutcome::HoldoverFailed {
                    predicted_ms: self.engine.predicted_offset_ms(now),
                },
                None => QueryOutcome::Failed,
            });
        };
        let verdict = self.engine.on_regular_sample(now, sample);
        if let Some(tu) = &mut self.tuner {
            self.engine.set_regular_wait_secs(tu.on_verdict(&verdict));
        }
        Some(match verdict {
            SampleVerdict::Accepted { offset_ms } => QueryOutcome::Accepted { offset_ms },
            SampleVerdict::Rejected { offset_ms } => QueryOutcome::Rejected { offset_ms },
            SampleVerdict::Recovered { offset_ms } => QueryOutcome::Recovered { offset_ms },
        })
    }

    fn take_commands(&mut self) -> Vec<ClockCommand> {
        self.engine.take_commands()
    }
}

/// Plain SNTP as a [`Discipline`]: either the naive client (poll on a
/// fixed cadence, step the clock on every reply — what a stock mobile
/// SNTP client does) or the paper's §5.1 baseline (hint gate + trend
/// filter over a fixed cadence, clock untouched).
pub struct SntpDiscipline {
    gate: Option<HintGate>,
    filter: Option<TrendFilter>,
    step_on_reply: bool,
    /// Self-paced cadence, seconds. `None` means "query every driver
    /// tick" (single-client `drive` runs tick at the poll
    /// period); the fleet world ticks faster than any one client polls,
    /// so fleet clients pace themselves.
    poll_period_secs: Option<f64>,
    polls_done: u64,
    pending: Vec<ClockCommand>,
}

impl SntpDiscipline {
    /// The §5.1 baseline: gate + filter, no clock commands.
    pub fn baseline(cfg: &MntpConfig) -> Self {
        SntpDiscipline {
            gate: Some(HintGate::new(cfg)),
            filter: Some(TrendFilter::new(cfg.filter_sigma, cfg.reestimate_drift)),
            step_on_reply: false,
            poll_period_secs: None,
            polls_done: 0,
            pending: Vec::new(),
        }
    }

    /// The naive client: no gate, no filter, step on every reply.
    pub fn naive() -> Self {
        SntpDiscipline {
            gate: None,
            filter: None,
            step_on_reply: true,
            poll_period_secs: None,
            polls_done: 0,
            pending: Vec::new(),
        }
    }

    /// Make the discipline pace itself at `period_secs` instead of
    /// querying on every driver tick (builder-style).
    pub fn self_paced(mut self, period_secs: f64) -> Self {
        self.poll_period_secs = Some(period_secs);
        self
    }
}

impl Discipline for SntpDiscipline {
    fn wants_hints(&self) -> bool {
        self.gate.is_some()
    }

    fn poll(
        &mut self,
        t: SimTime,
        _clock: &mut SimClock,
        hints: Option<&WirelessHints>,
        select: &mut dyn ServerSelect,
    ) -> Directive {
        if let Some(period) = self.poll_period_secs {
            // Due when t reaches the next multiple of the period; both
            // sides are exact products, so no epsilon is needed.
            if t.as_secs_f64() < self.polls_done as f64 * period {
                return Directive::Idle { record_deferred: false };
            }
            self.polls_done += 1;
        }
        if let Some(g) = &self.gate {
            if !g.favorable(hints) {
                return Directive::Idle { record_deferred: true };
            }
        }
        Directive::Query(vec![select.pick()])
    }

    fn complete(
        &mut self,
        t: SimTime,
        _clock: &mut SimClock,
        round: &[ExchangeResult],
    ) -> Option<QueryOutcome> {
        let Some(r) = round.first() else {
            return Some(QueryOutcome::Failed);
        };
        Some(match r.outcome {
            Ok(done) => {
                let ms = done.sample.offset.as_millis_f64();
                if self.step_on_reply {
                    self.pending.push(ClockCommand::Step(done.sample.offset));
                }
                match &mut self.filter {
                    Some(f) => {
                        if f.offer(t.as_secs_f64(), ms) {
                            QueryOutcome::Accepted { offset_ms: ms }
                        } else {
                            QueryOutcome::Rejected { offset_ms: ms }
                        }
                    }
                    None => QueryOutcome::Accepted { offset_ms: ms },
                }
            }
            Err(_) => QueryOutcome::Failed,
        })
    }

    fn take_commands(&mut self) -> Vec<ClockCommand> {
        std::mem::take(&mut self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksim::rng::SimRng;
    use clocksim::time::SimDuration;
    use clocksim::OscillatorConfig;
    use ntp_wire::NtpDuration;
    use sntp::exchange::CompletedExchange;
    use sntp::{OffsetSample, PickLane};

    fn mk_clock(seed: u64) -> SimClock {
        let osc = OscillatorConfig::laptop().with_skew_ppm(20.0).build(SimRng::new(seed));
        SimClock::new(osc, SimTime::ZERO)
    }

    fn good_hints() -> WirelessHints {
        WirelessHints { rssi_dbm: -40.0, noise_dbm: -95.0 }
    }

    fn ok(server_id: usize, offset_ms: f64) -> ExchangeResult {
        let sample = OffsetSample {
            offset: NtpDuration::from_seconds_f64(offset_ms / 1e3),
            delay: NtpDuration::from_seconds_f64(0.02),
            t1: ntp_wire::NtpTimestamp::from_parts(0, 0),
            t4: ntp_wire::NtpTimestamp::from_parts(0, 0),
            stratum: 2,
        };
        ExchangeResult {
            server_id,
            outcome: Ok(CompletedExchange {
                sample,
                true_fwd: SimDuration::from_millis(10),
                true_back: SimDuration::from_millis(10),
                completed_at: SimTime::ZERO,
                server_id,
            }),
        }
    }

    fn kod(server_id: usize) -> ExchangeResult {
        ExchangeResult { server_id, outcome: Err(ExchangeError::KissODeath(*b"RATE")) }
    }

    fn lost(server_id: usize) -> ExchangeResult {
        ExchangeResult { server_id, outcome: Err(ExchangeError::Blackholed) }
    }

    /// One client on a one-second tick grid.
    struct Rig {
        clk: SimClock,
        lane: PickLane,
        s: u64,
    }

    impl Rig {
        /// Tick `d` until it queries, answer the `k`-th server asked
        /// with `answer(phase, k, id)` (`phase` is the engine's when it
        /// asked), and return what `complete` made of the round.
        fn round(
            &mut self,
            d: &mut MntpDiscipline,
            answer: impl Fn(Phase, usize, usize) -> ExchangeResult,
        ) -> QueryOutcome {
            loop {
                let t = SimTime::ZERO + SimDuration::from_secs_f64(self.s as f64);
                self.s += 1;
                assert!(self.s < 100_000, "no query came due");
                if let Directive::Query(ids) =
                    d.poll(t, &mut self.clk, Some(&good_hints()), &mut self.lane)
                {
                    let phase = d.phase();
                    let round: Vec<ExchangeResult> =
                        ids.iter().enumerate().map(|(k, &id)| answer(phase, k, id)).collect();
                    return d
                        .complete(t, &mut self.clk, &round)
                        .expect("MNTP rounds have outcomes");
                }
            }
        }
    }

    /// Each MNTP stack's outcome for (a) a warmup round with a false
    /// ticker, (b) a warmup round with no answer, (c) a regular round of
    /// RATE kisses and (d) a failed holdover probe. The plain stacks
    /// report regular failures as `Failed` and back their tuner off; the
    /// health stacks report the KoD and the holdover and leave any tuner
    /// alone.
    #[test]
    fn each_stack_reports_its_round_outcomes() {
        let cfg = MntpConfig {
            warmup_period_secs: 100.0,
            warmup_wait_secs: 10.0,
            regular_wait_secs: 20.0,
            min_warmup_samples: 5,
            ..Default::default()
        };
        let rcfg = RobustConfig::default();
        let tune = crate::autotune::AutoTuneConfig::default;
        // (name, stack, health-tracked, tuner backoffs after (d))
        let stacks = [
            ("full", MntpDiscipline::full(cfg.clone()), false, None),
            ("autotuned", MntpDiscipline::autotuned(cfg.clone(), tune()), false, Some(4)),
            ("hardened", MntpDiscipline::hardened(cfg.clone(), &rcfg, 4), true, None),
            (
                "resilient",
                MntpDiscipline::resilient(cfg.clone(), &rcfg, 4, 3).with_autotune(tune()),
                true,
                Some(0),
            ),
        ];
        for (name, mut d, health, backoffs) in stacks {
            let mut rig = Rig { clk: mk_clock(5), lane: PickLane::new(4, 0x99), s: 0 };
            let out = rig.round(&mut d, |_, k, id| ok(id, [1.0, 1.2, 300.0][k]));
            assert!(
                matches!(out, QueryOutcome::WarmupRound { false_tickers: 1, .. }),
                "{name} (a): {out:?}"
            );
            let out = rig.round(&mut d, |_, k, id| if k == 0 { kod(id) } else { lost(id) });
            assert_eq!(out, QueryOutcome::Failed, "{name} (b)");
            // Clean warmup rounds until the first regular round, (c).
            let out = loop {
                let out = rig.round(&mut d, |phase, _, id| match phase {
                    Phase::Warmup => ok(id, 1.0),
                    _ => kod(id),
                });
                if d.phase() != Phase::Warmup {
                    break out;
                }
            };
            let want = if health {
                QueryOutcome::KissODeath { code: *b"RATE" }
            } else {
                QueryOutcome::Failed
            };
            assert_eq!(out, want, "{name} (c)");
            for _ in 0..2 {
                rig.round(&mut d, |_, _, id| lost(id));
            }
            assert_eq!(d.phase(), Phase::Holdover, "{name}: three failures trip holdover");
            let out = rig.round(&mut d, |_, _, id| lost(id));
            assert_eq!(
                matches!(out, QueryOutcome::HoldoverFailed { .. }),
                health,
                "{name} (d): {out:?}"
            );
            if !health {
                assert_eq!(out, QueryOutcome::Failed, "{name} (d)");
            }
            // (e) No regular round before (c) had a sample, so every
            // backoff is a failure's.
            assert_eq!(d.into_tuner().map(|tu| tu.decreases), backoffs, "{name} (e)");
        }
    }

    /// Drive a discipline for `secs` one-second ticks, answering every
    /// queried server via `respond`. Returns how many query rounds the
    /// discipline issued in each half of the horizon.
    fn drive_for(
        d: &mut MntpDiscipline,
        clk: &mut SimClock,
        secs: u64,
        mut respond: impl FnMut(usize, usize) -> ExchangeResult,
    ) -> (u64, u64) {
        let hints = good_hints();
        let mut lane = PickLane::new(4, 0x77);
        let (mut first_half, mut second_half) = (0u64, 0u64);
        let mut rounds_done = 0usize;
        for s in 0..secs {
            let t = SimTime::ZERO + SimDuration::from_secs_f64(s as f64);
            match d.poll(t, clk, Some(&hints), &mut lane) {
                Directive::Idle { .. } => {}
                Directive::Query(ids) => {
                    if s < secs / 2 {
                        first_half += 1;
                    } else {
                        second_half += 1;
                    }
                    let round: Vec<ExchangeResult> =
                        ids.iter().map(|id| respond(*id, rounds_done)).collect();
                    rounds_done += 1;
                    let _ = d.complete(t, clk, &round);
                }
            }
            for cmd in d.take_commands() {
                cmd.apply(clk, t);
            }
        }
        (first_half, second_half)
    }

    /// A pool member that turns falseticker mid-run is outvoted: the
    /// resilient fan-out keeps accepted regular-phase offsets near the
    /// honest servers' truth instead of following the liar.
    #[test]
    fn resilient_round_outvotes_midrun_falseticker() {
        let rcfg = RobustConfig::default();
        let mut d = MntpDiscipline::resilient(MntpConfig::default(), &rcfg, 4, 3);
        let mut clk = mk_clock(5);
        let hints = good_hints();
        let mut lane = PickLane::new(4, 0x99);
        let mut accepted = Vec::new();
        let mut saw_fanout_round = false;
        for s in 0..4000u64 {
            let t = SimTime::ZERO + SimDuration::from_secs_f64(s as f64);
            match d.poll(t, &mut clk, Some(&hints), &mut lane) {
                Directive::Idle { .. } => {}
                Directive::Query(ids) => {
                    let regular = d.phase() == Phase::Regular;
                    if regular && ids.len() >= 2 {
                        saw_fanout_round = true;
                    }
                    // Server 3 goes bad at t=1000s: +500 ms forever.
                    let round: Vec<ExchangeResult> = ids
                        .iter()
                        .map(|id| {
                            if *id == 3 && s >= 1000 {
                                ok(*id, 505.0)
                            } else {
                                ok(*id, 5.0)
                            }
                        })
                        .collect();
                    if let Some(QueryOutcome::Accepted { offset_ms }) =
                        d.complete(t, &mut clk, &round)
                    {
                        if regular && s >= 1000 {
                            accepted.push(offset_ms);
                        }
                    }
                }
            }
            for cmd in d.take_commands() {
                cmd.apply(&mut clk, t);
            }
        }
        assert!(saw_fanout_round, "resilient discipline never fanned out a regular round");
        assert!(!accepted.is_empty(), "no regular samples accepted after onset");
        for ms in &accepted {
            assert!(
                ms.abs() < 100.0,
                "falseticker steered an accepted regular sample: {ms} ms"
            );
        }
    }

    /// Fanout is clamped into [2, pool size].
    #[test]
    fn resilient_fanout_is_clamped() {
        let rcfg = RobustConfig::default();
        let d = MntpDiscipline::resilient(MntpConfig::default(), &rcfg, 4, 99);
        assert_eq!(d.resilient_fanout, Some(4));
        let d = MntpDiscipline::resilient(MntpConfig::default(), &rcfg, 4, 0);
        assert_eq!(d.resilient_fanout, Some(2));
    }

    mod proptests {
        use super::*;
        use devtools::prop;
        use devtools::{prop_assert, props};

        fn outcome_for(code: i64, server_id: usize) -> ExchangeResult {
            match code {
                0 => ok(server_id, 5.0),
                1 => kod(server_id),
                2 => lost(server_id),
                _ => ExchangeResult { server_id, outcome: Err(ExchangeError::RejectedReply) },
            }
        }

        props! {
            /// Robustness floor for the fleet's hardened stacks: no
            /// success/KoD/failure sequence wedges the client — whatever
            /// the servers did historically, it keeps issuing queries.
            fn no_outcome_sequence_wedges_hardened_client(
                codes in prop::vecs(prop::ints(0..4), 1..40),
                resilient in prop::ints(0..2),
            ) {
                let rcfg = RobustConfig::default();
                let mut d = if resilient == 1 {
                    MntpDiscipline::resilient(MntpConfig::default(), &rcfg, 4, 3)
                } else {
                    MntpDiscipline::hardened(MntpConfig::default(), &rcfg, 4)
                };
                let mut clk = mk_clock(11);
                let (first, second) = drive_for(&mut d, &mut clk, 4000, |id, round| {
                    let code = codes.get(round % codes.len()).copied().unwrap_or(0);
                    outcome_for(code, id)
                });
                prop_assert!(first > 0, "client never queried at all");
                prop_assert!(
                    second > 0,
                    "client wedged: {first} rounds early, none in the second half"
                );
            }
        }
    }
}
