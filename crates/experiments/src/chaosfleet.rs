//! Chaos fleet: a regional fault timeline over a 100k-client world.
//!
//! The robustness counterpart of the [`crate::fleet`] sweep: instead of
//! asking how accurate a healthy fleet is, this experiment schedules a
//! deterministic population-fault timeline ([`netsim::chaos`]) over one
//! shared world and measures *degradation and recovery* per phase:
//!
//! 1. **steady** — fault-free baseline; the yardstick for everything
//!    after.
//! 2. **outage** — a regional loss storm blankets one fault domain (the
//!    first quarter of the client population) while server 0 blackholes
//!    entirely.
//! 3. **recovery** — the storm lifts and server 0 restarts with cold
//!    rate state; the reconnecting herd must be served, not mass-RATE'd
//!    (the graceful-degradation ladder's job).
//! 4. **falseticker** — a pool server's reference clock steps by a
//!    quarter second and stays wrong. The resilient arm's fan-out
//!    selection ([`mntp::select_round`]) must discard it; the ablation
//!    arm (identical clients, single-server rounds) shows what the
//!    trend filter alone makes of a lying source.
//! 5. **step wave** — every client in the fault domain steps its clock
//!    within a one-minute window (an NTP leap-mishap caricature);
//!    measured by time back to spec.
//!
//! Both arms run the same plan, seeds, and world. The artifact also
//! replays the resilient arm serially (shards=1, jobs=1) and asserts
//! the sharded run matches sample-for-sample — the chaos runner's
//! determinism contract, checked inside the artifact itself.

use devtools::par::Pool;
use loganalysis::recovery::{peak_error, time_to_reconvergence, RecoveryConfig};
use mntp::{
    run_fleet_chaos_on, ApplyMode, AutoTuneConfig, ChaosSession, Directive, Discipline,
    ExchangeResult, FleetClient, FleetRun, FleetRunConfig, MntpConfig, MntpDiscipline,
    QueryOutcome, RobustConfig,
};
use netsim::chaos::{ChaosEvent, ClientRange, FleetFaultPlan};
use netsim::fleet::{DegradationConfig, FleetConfig, FleetNet, ServerModelConfig};
use netsim::ServerSet;
use sntp::fleet::RequestShape;
use sntp::{PickLane, PoolConfig, ServerPool};

use clocksim::rng::SimRng;
use clocksim::time::{SimDuration, SimTime};
use clocksim::{OscillatorConfig, SimClock};

/// Servers in the shared pool.
const SERVERS: usize = 4;

/// Shards for the parallel runs (fixed: shard count must not be
/// able to leak into artifact bytes).
const SHARDS: usize = 8;

/// Fan-out of the resilient arm's selection rounds.
const FANOUT: usize = 3;

/// The pool member that turns falseticker.
const LIAR: usize = 1;

/// The server the regional outage blackholes.
const DARK: usize = 0;

/// One named phase of the timeline, `[start_secs, end_secs)`.
#[derive(Clone, Copy, Debug)]
pub struct PhaseSpec {
    /// Phase label.
    pub name: &'static str,
    /// Start, seconds of true time (inclusive).
    pub start_secs: f64,
    /// End, seconds of true time (exclusive).
    pub end_secs: f64,
}

/// The fault timeline: phase boundaries plus the knobs the plan is
/// built from. One instance describes both arms of one artifact.
#[derive(Clone, Debug)]
pub struct Timeline {
    /// Total clients in the world.
    pub n_clients: usize,
    /// The regional fault domain (a contiguous id range: the first
    /// quarter of the population).
    pub domain: ClientRange,
    /// Total run length, seconds.
    pub duration_secs: u64,
    /// The five phases, in order: steady, outage, recovery,
    /// falseticker, wave.
    pub phases: [PhaseSpec; 5],
    /// How long the step wave takes to sweep the domain, seconds.
    pub wave_sweep_secs: f64,
}

impl Timeline {
    /// The committed-artifact timeline (100k clients, 45 min) or the
    /// `--quick` one (2k clients, same shape compressed 2x).
    pub fn new(quick: bool) -> Timeline {
        let (n, unit) = if quick { (2_000, 150.0) } else { (100_000, 300.0) };
        // Phase boundaries in units: steady 2, outage 1, recovery 2,
        // falseticker 2, wave 2.
        let b = [0.0, 2.0 * unit, 3.0 * unit, 5.0 * unit, 7.0 * unit, 9.0 * unit];
        Timeline {
            n_clients: n,
            domain: ClientRange::new(0, (n / 4) as u32),
            duration_secs: b[5] as u64,
            phases: [
                PhaseSpec { name: "steady", start_secs: b[0], end_secs: b[1] },
                PhaseSpec { name: "outage", start_secs: b[1], end_secs: b[2] },
                PhaseSpec { name: "recovery", start_secs: b[2], end_secs: b[3] },
                PhaseSpec { name: "falseticker", start_secs: b[3], end_secs: b[4] },
                PhaseSpec { name: "step wave", start_secs: b[4], end_secs: b[5] },
            ],
            wave_sweep_secs: 60.0,
        }
    }

    /// The fault plan this timeline schedules.
    pub fn plan(&self, seed: u64) -> FleetFaultPlan {
        let outage = self.phases[1];
        let falseticker = self.phases[3];
        let wave = self.phases[4];
        FleetFaultPlan::new(seed)
            .window(
                outage.start_secs,
                outage.end_secs,
                ChaosEvent::RegionalLossStorm { region: self.domain, loss_prob: 0.9 },
            )
            .window(
                outage.start_secs,
                outage.end_secs,
                ChaosEvent::ServerOutage { servers: ServerSet::One(DARK) },
            )
            .at(
                falseticker.start_secs,
                ChaosEvent::FalsetickerOnset { server: LIAR, error_ms: 250.0 },
            )
            .window(
                wave.start_secs,
                wave.start_secs + self.wave_sweep_secs,
                ChaosEvent::ClockStepWave { region: self.domain, offset_ms: -80.0 },
            )
    }
}

/// Per-phase degradation/recovery numbers for one arm.
#[derive(Clone, Debug)]
pub struct PhaseMetrics {
    /// Phase label.
    pub name: &'static str,
    /// Worst in-domain p99 |error| during the phase, ms.
    pub in_peak_p99_ms: f64,
    /// Worst out-of-domain p99 |error| during the phase, ms.
    pub out_peak_p99_ms: f64,
    /// Seconds from the phase's fault end until the in-domain p99 goes
    /// (and stays) back in spec; `None` for phases without a recovery
    /// edge, or when the series never reconverges.
    pub in_ttr_secs: Option<f64>,
}

/// Server-side totals across the pool for one arm.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerTotals {
    /// Requests reaching any server.
    pub arrivals: u64,
    /// Requests answered with time.
    pub served: u64,
    /// RATE kisses sent.
    pub kod: u64,
    /// Arrivals shed without reply by the degradation ladder.
    pub shed: u64,
    /// Arrivals dropped on backlog overflow.
    pub dropped: u64,
    /// Server process restarts (outage recoveries).
    pub restarts: u64,
}

/// One arm of the experiment: a full timeline replay.
#[derive(Clone, Debug)]
pub struct ChaosArmResult {
    /// Arm label.
    pub name: &'static str,
    /// Baseline: worst in-domain p99 over the settled half of the
    /// steady phase, ms.
    pub steady_p99_ms: f64,
    /// Per-phase metrics, in timeline order.
    pub phases: Vec<PhaseMetrics>,
    /// Whether the outage-phase in-domain p99 stayed within 3x the
    /// steady baseline (the holdover acceptance bar).
    pub outage_within_3x: bool,
    /// Client polls attempted.
    pub polls_sent: u64,
    /// Packets the plan destroyed client->server.
    pub chaos_dropped_up: u64,
    /// Replies the plan destroyed server->client.
    pub chaos_dropped_down: u64,
    /// Pool-wide service counters.
    pub servers: ServerTotals,
}

/// Everything the chaosfleet artifact reports.
#[derive(Clone, Debug)]
pub struct ChaosFleetResult {
    /// The timeline both arms replay.
    pub timeline: Timeline,
    /// Resilient arm (fan-out selection) then ablation arm
    /// (single-server rounds), same world and seeds.
    pub arms: Vec<ChaosArmResult>,
    /// Whether the serial (shards=1, jobs=1) replay of the resilient
    /// arm matched the sharded run sample-for-sample.
    pub lockstep_ok: bool,
}

fn client_clock(seed: u64) -> SimClock {
    let osc = OscillatorConfig::laptop().with_skew_ppm(30.0).build(SimRng::new(seed));
    SimClock::new(osc, SimTime::ZERO)
}

/// MNTP scaled to the timeline: warmup finishes inside the first half
/// of the steady phase (the fault phases must hit *regular*-phase
/// clients — that is where single-source trust, and therefore
/// selection, matters), regular rounds every minute, and no mid-run
/// reset (a reset re-warmup would alias with the fault windows).
fn mntp_config(tl: &Timeline) -> MntpConfig {
    MntpConfig {
        // The clients *discipline* their clocks (adjtime-style bounded
        // slew): recovery here means true error coming back, not just
        // the estimator's opinion. (The measurement-methodology default
        // is RecordOnly, under which every arm free-runs identically.)
        apply_mode: ApplyMode::Slew,
        warmup_period_secs: tl.phases[0].end_secs / 2.0,
        // 20 s warmup rounds: fast enough to clear min_warmup_samples
        // inside even the miniature test's steady phase, slow enough
        // that 100k warming clients offer ~15k req/s, inside the pool's
        // capacity (a 10 s cadence trips the overload rung during
        // warmup and the run measures self-inflicted RATE bans).
        warmup_wait_secs: 20.0,
        regular_wait_secs: 60.0,
        // Cap the holdover backoff at two regular rounds: the default
        // 480 s cap means a client that rode out the 300 s storm in
        // holdover may not even *probe* until deep into the next phase,
        // and the domain's tail never returns to baseline. A fleet
        // that wants its region back after an outage probes sooner.
        holdover_max_wait_secs: 120.0,
        // ntpd's STEPT analogue: a wave-stepped client measures an
        // ~80 ms offset, and slewing that back at the 500 ppm cap takes
        // 160 s — during which every new sample still reads the
        // unslewed remainder and fights the trend filter. Step past
        // 50 ms; slews stay bounded-rate below it.
        step_threshold_ms: Some(50.0),
        // A stepped client on a channel too noisy for the trend
        // filter's re-anchor (5 ms residual bar) would otherwise reject
        // samples forever; five straight rejects with a large median
        // force the step the filter won't bless.
        stepout_rejects: Some(5),
        reset_period_secs: 2.0 * tl.duration_secs as f64,
        ..MntpConfig::default()
    }
}

/// A discipline that sleeps until its boot instant, then delegates.
///
/// Real fleets don't boot in the same second: without a per-client
/// phase offset, 100k identically-configured MNTP engines all poll at
/// the same warmup/regular marks, the herd's bursts swamp any finite
/// server queue, and the run measures queue overflow instead of the
/// timeline's faults. The offset spreads poll schedules uniformly over
/// one regular round; it is a pure function of the global client id,
/// so every (shards, jobs) layout sees the same fleet.
struct BootStagger {
    inner: Box<dyn Discipline>,
    boot_secs: f64,
}

impl Discipline for BootStagger {
    fn wants_hints(&self) -> bool {
        self.inner.wants_hints()
    }

    fn poll(
        &mut self,
        t: SimTime,
        clock: &mut SimClock,
        hints: Option<&netsim::WirelessHints>,
        select: &mut dyn sntp::ServerSelect,
    ) -> Directive {
        if t.as_secs_f64() < self.boot_secs {
            return Directive::Idle { record_deferred: false };
        }
        self.inner.poll(t, clock, hints, select)
    }

    fn complete(
        &mut self,
        t: SimTime,
        clock: &mut SimClock,
        round: &[ExchangeResult],
    ) -> Option<QueryOutcome> {
        self.inner.complete(t, clock, round)
    }

    fn take_commands(&mut self) -> Vec<clocksim::ClockCommand> {
        self.inner.take_commands()
    }
}

/// An all-MNTP population: every client hardened, the resilient arm
/// additionally running fan-out selection rounds. Identical seeds per
/// client id in both arms — the arms differ *only* in selection.
fn build_clients(tl: &Timeline, seed: u64, resilient: bool) -> Vec<FleetClient> {
    let cfg = mntp_config(tl);
    let stagger_span = cfg.regular_wait_secs;
    (0..tl.n_clients)
        .map(|i| {
            let clock = client_clock(seed ^ (0x10_000 + i as u64));
            let select = PickLane::new(SERVERS, seed ^ (0x30_000 + i as u64));
            let rcfg = RobustConfig {
                health_seed: seed ^ (0x20_000 + i as u64),
                ..RobustConfig::default()
            };
            // AIMD wait tuning, bounded to [20 s, regular wait]: a
            // rejection streak (stepped clock, stale trend) speeds
            // sampling up so the filter's wedge escape can fire within
            // a phase instead of five full regular waits; the 20 s
            // floor stays above the ladder's 16 s ramp rung, so a
            // fast-sampling client is never the abuser the ladder sheds.
            let tune = AutoTuneConfig {
                min_wait_secs: 20.0,
                max_wait_secs: cfg.regular_wait_secs,
                increase_secs: 15.0,
                decrease_factor: 0.5,
            };
            let inner: Box<dyn Discipline> = if resilient {
                Box::new(
                    MntpDiscipline::resilient(cfg.clone(), &rcfg, SERVERS, FANOUT)
                        .with_autotune(tune),
                )
            } else {
                Box::new(MntpDiscipline::hardened(cfg.clone(), &rcfg, SERVERS).with_autotune(tune))
            };
            // Low-discrepancy boot phase: successive ids land far apart.
            let boot_secs =
                stagger_span * ((i as u64).wrapping_mul(0x9E37_79B9) % 4096) as f64 / 4096.0;
            let discipline: Box<dyn Discipline> = Box::new(BootStagger { inner, boot_secs });
            FleetClient { discipline, clock, select, shape: RequestShape::Sntp }
        })
        .collect()
}

/// Replay the timeline once. Returns the raw run plus the pool-wide
/// service counters.
fn run_arm(
    tl: &Timeline,
    seed: u64,
    resilient: bool,
    shards: usize,
    jobs: usize,
) -> (FleetRun, ServerTotals) {
    let fcfg = FleetConfig {
        clients: tl.n_clients,
        servers: SERVERS,
        shards,
        // Fleet-grade pool members: the defaults model a hobby server
        // (64-deep queue, 300 us/req). Against 100k clients even a
        // staggered warmup offers ~30k req/s pool-wide, so size each
        // member for ~17k req/s with a queue deep enough to absorb a
        // tick's worth of burst — steady state then serves cleanly and
        // the ladder engages on the *fault* herds, which is the story
        // this experiment is about.
        // The rung thresholds scale with the queue: the defaults (16/32)
        // belong to the 64-deep hobby queue and would pin this pool on
        // the overload rung from the first warmup burst. Sized so the
        // tick-aligned bursts of routine polling top out on the ramp
        // rung and only fault herds can reach overload/shedding.
        server: ServerModelConfig {
            queue_capacity: 6144,
            service_time: SimDuration::from_secs_f64(60e-6),
            overload_backlog: 4608,
            ladder: Some(DegradationConfig { ramp_backlog: 1536, ..DegradationConfig::default() }),
            ..ServerModelConfig::default()
        },
        // Lightly loaded APs: at the default download frequency the
        // shared cross-traffic source keeps the hint gate closed for
        // minutes at a stretch and the fleet's polls collapse into rare
        // idle bursts. The faults under study here come from the plan,
        // not ambient congestion, so keep the channel mostly favorable.
        initial_frequency: 0.05,
        ..FleetConfig::default()
    };
    let mut net = FleetNet::new(&fcfg, seed);
    let mut pool =
        ServerPool::new(PoolConfig { size: SERVERS, ..PoolConfig::default() }, seed ^ 0x9001);
    let mut clients = build_clients(tl, seed, resilient);
    let groups: Vec<u8> =
        (0..tl.n_clients).map(|i| u8::from(!tl.domain.contains(i as u32))).collect();
    let mut session = ChaosSession::new(tl.plan(seed ^ 0xC0A5), &mut net, groups, 2);
    let cfg = FleetRunConfig {
        start_secs: 0.0,
        duration_secs: tl.duration_secs,
        tick_secs: 1.0,
        sample_period_secs: 15.0,
        collect_arrivals: false,
        // Past-the-end cutoff: group quantiles are the only ground
        // truth this experiment needs; skip per-client series.
        steady_cutoff_secs: Some(tl.duration_secs as f64 + 1.0),
    };
    let run = run_fleet_chaos_on(
        &Pool::with_jobs(jobs),
        &mut clients,
        &mut net,
        &mut pool,
        &cfg,
        &mut session,
    );
    let mut totals = ServerTotals::default();
    for j in 0..SERVERS {
        if let Some(m) = net.server_model(j) {
            totals.arrivals += m.stats.arrivals;
            totals.served += m.stats.served;
            totals.kod += m.stats.kod_sent;
            totals.shed += m.stats.shed;
            totals.dropped += m.stats.dropped;
            totals.restarts += m.stats.restarts;
        }
    }
    (run, totals)
}

/// The in-domain / out-of-domain p99 series of a run.
fn p99_series(run: &FleetRun, group: usize) -> Vec<(f64, f64)> {
    run.group_quantiles
        .get(group)
        .map(|s| s.iter().map(|g| (g.t_secs, g.p99_ms)).collect())
        .unwrap_or_default()
}

/// Distill one arm's run into the artifact row.
fn arm_metrics(
    name: &'static str,
    tl: &Timeline,
    run: &FleetRun,
    servers: ServerTotals,
) -> ChaosArmResult {
    let series_in = p99_series(run, 0);
    let series_out = p99_series(run, 1);
    // Baseline over the settled half of the steady phase (the first
    // half is MNTP warmup).
    let steady = tl.phases[0];
    let settle = (steady.start_secs + steady.end_secs) / 2.0;
    let steady_p99 =
        peak_error(&series_in, settle, steady.end_secs).map(|(_, v)| v).unwrap_or(0.0);
    // Back-in-spec bar: 3x the steady baseline (floored well above
    // quantization noise), sustained for two sample periods.
    let rcfg = RecoveryConfig { threshold_ms: (3.0 * steady_p99).max(2.0), sustain_secs: 30.0 };
    let phases = tl
        .phases
        .iter()
        .map(|p| {
            // Recovery edges: the outage ends at its window end; the
            // wave's fault is over once the sweep finishes.
            let fault_end = match p.name {
                "recovery" => Some(tl.phases[1].end_secs),
                "step wave" => Some(p.start_secs + tl.wave_sweep_secs),
                _ => None,
            };
            PhaseMetrics {
                name: p.name,
                in_peak_p99_ms: peak_error(&series_in, p.start_secs, p.end_secs)
                    .map(|(_, v)| v)
                    .unwrap_or(0.0),
                out_peak_p99_ms: peak_error(&series_out, p.start_secs, p.end_secs)
                    .map(|(_, v)| v)
                    .unwrap_or(0.0),
                in_ttr_secs: fault_end
                    .and_then(|end| time_to_reconvergence(&series_in, end, &rcfg)),
            }
        })
        .collect::<Vec<_>>();
    let outage_peak = phases.get(1).map(|p| p.in_peak_p99_ms).unwrap_or(0.0);
    ChaosArmResult {
        name,
        steady_p99_ms: steady_p99,
        phases,
        outage_within_3x: outage_peak <= (3.0 * steady_p99).max(2.0),
        polls_sent: run.polls_sent,
        chaos_dropped_up: run.chaos_dropped_up,
        chaos_dropped_down: run.chaos_dropped_down,
        servers,
    }
}

/// Run the whole experiment (both arms plus the serial lockstep check)
/// on `pool` workers.
pub fn run_on(pool: &Pool, seed: u64, quick: bool) -> ChaosFleetResult {
    let tl = Timeline::new(quick);
    run_timeline_on(pool, seed, &tl)
}

/// [`run_on`] over an explicit timeline (tests use miniature ones).
pub fn run_timeline_on(pool: &Pool, seed: u64, tl: &Timeline) -> ChaosFleetResult {
    let jobs = pool.jobs();
    let (resilient_run, resilient_srv) = run_arm(tl, seed, true, SHARDS, jobs);
    let (ablation_run, ablation_srv) = run_arm(tl, seed, false, SHARDS, jobs);
    // Lockstep: the serial world must reproduce the sharded one
    // sample-for-sample (and poll-for-poll).
    let (serial_run, _) = run_arm(tl, seed, true, 1, 1);
    let lockstep_ok = serial_run.group_quantiles == resilient_run.group_quantiles
        && serial_run.polls_sent == resilient_run.polls_sent
        && serial_run.arrivals_per_sec == resilient_run.arrivals_per_sec
        && serial_run.chaos_dropped_up == resilient_run.chaos_dropped_up
        && serial_run.chaos_dropped_down == resilient_run.chaos_dropped_down;
    ChaosFleetResult {
        timeline: tl.clone(),
        arms: vec![
            arm_metrics("MNTP resilient (fan-out 3)", tl, &resilient_run, resilient_srv),
            arm_metrics("MNTP ablation (no selection)", tl, &ablation_run, ablation_srv),
        ],
        lockstep_ok,
    }
}

/// ASCII artifact body.
pub fn render(r: &ChaosFleetResult) -> String {
    let tl = &r.timeline;
    let mut out = String::new();
    out.push_str("Chaos fleet: regional fault timeline over a shared-world population\n");
    out.push_str(
        "(loss storm + server blackhole over one fault domain, then a pool falseticker,\n then a client clock-step wave; ladder-hardened servers; all clients MNTP)\n\n",
    );
    out.push_str(&format!(
        "  world: {} clients ({} in the fault domain), {} servers, {} s timeline\n",
        tl.n_clients,
        tl.domain.len(),
        SERVERS,
        tl.duration_secs
    ));
    for p in &tl.phases {
        out.push_str(&format!(
            "    {:<12} [{:>6.0}, {:>6.0}) s\n",
            p.name, p.start_secs, p.end_secs
        ));
    }
    out.push_str(&format!(
        "  faults: storm p=0.9 on the domain + server {DARK} dark during outage;\n          server {LIAR} steps +250 ms at falseticker onset; domain steps -80 ms\n          across {:.0} s of the wave window\n\n",
        tl.wave_sweep_secs
    ));
    for a in &r.arms {
        out.push_str(&format!(
            "{} — steady in-domain p99 {:.2} ms (settled half)\n",
            a.name, a.steady_p99_ms
        ));
        out.push_str(&format!(
            "  {:<12} {:>16} {:>17} {:>14}\n",
            "phase", "in-domain p99", "out-domain p99", "reconverge"
        ));
        for p in &a.phases {
            let ttr = match p.in_ttr_secs {
                Some(s) => format!("{s:.0} s"),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "  {:<12} {:>13.2} ms {:>14.2} ms {:>14}\n",
                p.name, p.in_peak_p99_ms, p.out_peak_p99_ms, ttr
            ));
        }
        out.push_str(&format!(
            "  outage holdover within 3x steady: {}\n",
            if a.outage_within_3x { "yes" } else { "NO" }
        ));
        out.push_str(&format!(
            "  {} polls; chaos destroyed {} up / {} down\n",
            a.polls_sent, a.chaos_dropped_up, a.chaos_dropped_down
        ));
        let s = &a.servers;
        out.push_str(&format!(
            "  servers: {} arrivals, {} served, {} RATE, {} shed, {} dropped, {} restarts\n\n",
            s.arrivals, s.served, s.kod, s.shed, s.dropped, s.restarts
        ));
    }
    out.push_str(&format!(
        "serial replay (shards=1, jobs=1) matches sharded run: {}\n",
        if r.lockstep_ok { "yes" } else { "NO" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 60-client, 375 s miniature of the real timeline.
    fn tiny_timeline() -> Timeline {
        let unit = 50.0;
        let b = [0.0, 2.0 * unit, 3.0 * unit, 5.0 * unit, 6.0 * unit, 7.5 * unit];
        Timeline {
            n_clients: 60,
            domain: ClientRange::new(0, 15),
            duration_secs: b[5] as u64,
            phases: [
                PhaseSpec { name: "steady", start_secs: b[0], end_secs: b[1] },
                PhaseSpec { name: "outage", start_secs: b[1], end_secs: b[2] },
                PhaseSpec { name: "recovery", start_secs: b[2], end_secs: b[3] },
                PhaseSpec { name: "falseticker", start_secs: b[3], end_secs: b[4] },
                PhaseSpec { name: "step wave", start_secs: b[4], end_secs: b[5] },
            ],
            wave_sweep_secs: 20.0,
        }
    }

    #[test]
    fn miniature_timeline_produces_both_arms_in_lockstep() {
        let r = run_timeline_on(&Pool::with_jobs(2), 42, &tiny_timeline());
        assert!(r.lockstep_ok, "serial and sharded replays diverged");
        assert_eq!(r.arms.len(), 2);
        for a in &r.arms {
            assert_eq!(a.phases.len(), 5);
            assert!(a.polls_sent > 0);
            assert!(
                a.chaos_dropped_up + a.chaos_dropped_down > 0,
                "{}: the storm destroyed nothing — the plan is not wired in",
                a.name
            );
            assert!(a.steady_p99_ms > 0.0);
        }
        // The wave steps every domain client by 80 ms: the in-domain
        // peak of that phase must see it.
        let wave = &r.arms[0].phases[4];
        assert!(wave.in_peak_p99_ms > 40.0, "wave peak {}", wave.in_peak_p99_ms);
    }

    #[test]
    fn run_is_deterministic() {
        let a = run_timeline_on(&Pool::with_jobs(1), 7, &tiny_timeline());
        let b = run_timeline_on(&Pool::with_jobs(3), 7, &tiny_timeline());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn render_names_every_phase_and_arm() {
        let r = run_timeline_on(&Pool::with_jobs(1), 11, &tiny_timeline());
        let txt = render(&r);
        for name in ["steady", "outage", "recovery", "falseticker", "step wave"] {
            assert!(txt.contains(name), "missing phase {name}");
        }
        assert!(txt.contains("resilient"));
        assert!(txt.contains("ablation"));
        assert!(txt.contains("matches sharded run"));
    }

    #[test]
    fn committed_timeline_shapes_are_sane() {
        for quick in [true, false] {
            let tl = Timeline::new(quick);
            assert_eq!(tl.domain.len() as usize, tl.n_clients / 4);
            assert_eq!(tl.phases[4].end_secs as u64, tl.duration_secs);
            for w in tl.phases.windows(2) {
                assert!(w[0].end_secs <= w[1].start_secs + 1e-9);
            }
            assert!(!tl.plan(1).is_empty());
        }
    }
}
