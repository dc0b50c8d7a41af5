//! The two closed-loop fleet workloads.
//!
//! * `fleet-mixed` — the `experiments::fleet` population (half naive
//!   SNTP self-paced at 5 s, 3/10 hardened MNTP, 2/10 ntpd) against the
//!   default 4-server hobby pool, through `mntp::run_fleet_on`.
//! * `fleet-chaos` — the resilient arm of `experiments::chaosfleet`
//!   (all-MNTP, fan-out 3, STEPT/stepout, AIMD autotune, boot stagger)
//!   against the fleet-grade pool under the chaos timeline, through
//!   `mntp::run_fleet_chaos_on`.
//!
//! The experiments build their populations privately, so the builders
//! below repeat those public calls with the same seeds and parameters.
//!
//! **Tick clock.** The end-to-end run measures epoch latency without
//! forking the loop: client 0's discipline is wrapped in `TickClock`,
//! which stamps the wall clock on every `poll`. The runner polls every
//! client exactly once per epoch, so successive stamps are the epoch
//! periods of the real `run_fleet_on` call.
//!
//! **Traced replay.** `replay_epochs` re-implements the epoch loop of
//! `mntp::fleet` from the same public phase functions, serially, with a
//! lap after every layer call. Its digest must equal the untraced run's.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use clocksim::rng::SimRng;
use clocksim::time::{SimDuration, SimTime};
use clocksim::{ClockCommand, ClockControl, OscillatorConfig, SimClock};
use devtools::par::Pool;
use experiments::chaosfleet::{PhaseSpec, Timeline};
use mntp::{
    run_fleet_chaos_on, run_fleet_on, ApplyMode, AutoTuneConfig, ChaosSession, Directive,
    Discipline, ExchangeResult, FleetClient, FleetRun, FleetRunConfig, GroupSample, MntpConfig,
    MntpDiscipline, QueryOutcome, RobustConfig, SntpDiscipline,
};
use netsim::chaos::{ClientChaosLatch, ClientRange, FleetFaultPlan, ServerChaosLatch};
use netsim::fleet::{DegradationConfig, FleetConfig, FleetNet, ServerModelConfig};
use netsim::WirelessHints;
use ntp_wire::NtpDuration;
use ntpd_sim::{NtpdConfig, NtpdDiscipline};
use sntp::fleet::{
    begin_fleet_exchange, complete_fleet_exchange, serve_fleet_exchange, FleetReplyInFlight,
    FleetRequestInFlight, RequestShape,
};
use sntp::{ExchangeError, PickLane, PoolConfig, ServerPool, ServerSelect};

use crate::trace::Tracer;
use crate::{Fnv, Note, Rep, Replay, Workload, WORKERS};

/// Servers in every fleet world (both experiments use 4).
const SERVERS: usize = 4;

/// Kernel shards per world (both experiments fix 8).
const SHARDS: usize = 8;

/// Reporting groups of the chaos run: in the fault domain, outside it.
const CHAOS_GROUPS: usize = 2;

/// Which population a fleet workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Population {
    /// The `experiments::fleet` three-stack mix.
    Mixed,
    /// The `experiments::chaosfleet` resilient arm under its timeline.
    Chaos,
}

/// A fleet workload: population, size and horizon.
#[derive(Clone, Copy, Debug)]
pub struct FleetSpec {
    /// Client population.
    pub population: Population,
    /// Clients in the world.
    pub clients: usize,
    /// Simulated seconds (the chaos timeline is 9 units of
    /// `duration_secs / 9`).
    pub duration_secs: u64,
}

impl FleetSpec {
    /// `fleet-mixed`: 100k clients for 120 s.
    pub const MIXED: FleetSpec =
        FleetSpec { population: Population::Mixed, clients: 100_000, duration_secs: 120 };

    /// `fleet-chaos`: 10k clients over a 900 s timeline.
    pub const CHAOS: FleetSpec =
        FleetSpec { population: Population::Chaos, clients: 10_000, duration_secs: 900 };
}

/// Everything one fleet repetition needs.
pub struct FleetWorld {
    clients: Vec<FleetClient>,
    net: FleetNet,
    pool: ServerPool,
    cfg: FleetRunConfig,
    session: Option<ChaosSession>,
    groups: Vec<u8>,
}

fn client_clock(seed: u64) -> SimClock {
    let osc = OscillatorConfig::laptop().with_skew_ppm(30.0).build(SimRng::new(seed));
    SimClock::new(osc, SimTime::ZERO)
}

/// The `experiments::fleet` client mix by id: half naive SNTP, 3/10
/// hardened MNTP, 2/10 ntpd.
fn mixed_clients(n: usize, seed: u64) -> Vec<FleetClient> {
    (0..n)
        .map(|i| {
            let clock = client_clock(seed ^ (0x10_000 + i as u64));
            let select = PickLane::new(SERVERS, seed ^ (0x30_000 + i as u64));
            let (discipline, shape): (Box<dyn Discipline>, _) = match i % 10 {
                0..=4 => (Box::new(SntpDiscipline::naive().self_paced(5.0)), RequestShape::Sntp),
                5..=7 => {
                    let rcfg = RobustConfig {
                        health_seed: seed ^ (0x20_000 + i as u64),
                        ..RobustConfig::default()
                    };
                    let d = MntpDiscipline::hardened(MntpConfig::default(), &rcfg, SERVERS);
                    (Box::new(d), RequestShape::Sntp)
                }
                _ => {
                    let peers = NtpdConfig::with_peers((0..SERVERS).collect());
                    (Box::new(NtpdDiscipline::new(&peers)), RequestShape::Ntpd)
                }
            };
            FleetClient { discipline, clock, select, shape }
        })
        .collect()
}

/// The `experiments::chaosfleet` timeline shape (steady 2 units, outage
/// 1, recovery 2, falseticker 2, step wave 2) over `n` clients, with the
/// first quarter of the population as the fault domain.
fn chaos_timeline(n: usize, duration_secs: u64) -> Timeline {
    let unit = duration_secs as f64 / 9.0;
    let b = [0.0, 2.0 * unit, 3.0 * unit, 5.0 * unit, 7.0 * unit, 9.0 * unit];
    let phase = |name, i: usize| PhaseSpec { name, start_secs: b[i], end_secs: b[i + 1] };
    Timeline {
        n_clients: n,
        domain: ClientRange::new(0, (n / 4) as u32),
        duration_secs,
        phases: [
            phase("steady", 0),
            phase("outage", 1),
            phase("recovery", 2),
            phase("falseticker", 3),
            phase("step wave", 4),
        ],
        wave_sweep_secs: 60.0,
    }
}

/// Sleeps until its boot instant, then delegates (the chaosfleet boot
/// stagger: poll schedules spread over one regular round).
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
        hints: Option<&WirelessHints>,
        select: &mut dyn ServerSelect,
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

    fn take_commands(&mut self) -> Vec<ClockCommand> {
        self.inner.take_commands()
    }
}

/// The chaosfleet resilient arm: hardened MNTP with fan-out selection,
/// STEPT/stepout and AIMD autotune, behind a boot stagger.
fn chaos_clients(tl: &Timeline, seed: u64) -> Vec<FleetClient> {
    let cfg = MntpConfig {
        apply_mode: ApplyMode::Slew,
        warmup_period_secs: tl.phases[0].end_secs / 2.0,
        warmup_wait_secs: 20.0,
        regular_wait_secs: 60.0,
        holdover_max_wait_secs: 120.0,
        step_threshold_ms: Some(50.0),
        stepout_rejects: Some(5),
        reset_period_secs: 2.0 * tl.duration_secs as f64,
        ..MntpConfig::default()
    };
    (0..tl.n_clients)
        .map(|i| {
            let clock = client_clock(seed ^ (0x10_000 + i as u64));
            let select = PickLane::new(SERVERS, seed ^ (0x30_000 + i as u64));
            let rcfg = RobustConfig {
                health_seed: seed ^ (0x20_000 + i as u64),
                ..RobustConfig::default()
            };
            let tune = AutoTuneConfig {
                min_wait_secs: 20.0,
                max_wait_secs: cfg.regular_wait_secs,
                increase_secs: 15.0,
                decrease_factor: 0.5,
            };
            let inner: Box<dyn Discipline> = Box::new(
                MntpDiscipline::resilient(cfg.clone(), &rcfg, SERVERS, 3).with_autotune(tune),
            );
            let boot_secs = cfg.regular_wait_secs
                * ((i as u64).wrapping_mul(0x9E37_79B9) % 4096) as f64
                / 4096.0;
            let discipline: Box<dyn Discipline> = Box::new(BootStagger { inner, boot_secs });
            FleetClient { discipline, clock, select, shape: RequestShape::Sntp }
        })
        .collect()
}

/// Build one repetition's world.
fn build(spec: &FleetSpec, seed: u64) -> FleetWorld {
    let pool =
        ServerPool::new(PoolConfig { size: SERVERS, ..PoolConfig::default() }, seed ^ 0x9001);
    match spec.population {
        Population::Mixed => {
            let fcfg = FleetConfig {
                clients: spec.clients,
                servers: SERVERS,
                shards: SHARDS,
                ..FleetConfig::default()
            };
            FleetWorld {
                clients: mixed_clients(spec.clients, seed),
                net: FleetNet::new(&fcfg, seed),
                pool,
                cfg: FleetRunConfig {
                    start_secs: 0.0,
                    duration_secs: spec.duration_secs,
                    tick_secs: 1.0,
                    sample_period_secs: 30.0,
                    collect_arrivals: false,
                    steady_cutoff_secs: Some(spec.duration_secs as f64 / 2.0),
                },
                session: None,
                groups: Vec::new(),
            }
        }
        Population::Chaos => {
            let tl = chaos_timeline(spec.clients, spec.duration_secs);
            let fcfg = FleetConfig {
                clients: spec.clients,
                servers: SERVERS,
                shards: SHARDS,
                server: ServerModelConfig {
                    queue_capacity: 6144,
                    service_time: SimDuration::from_secs_f64(60e-6),
                    overload_backlog: 4608,
                    ladder: Some(DegradationConfig {
                        ramp_backlog: 1536,
                        ..DegradationConfig::default()
                    }),
                    ..ServerModelConfig::default()
                },
                initial_frequency: 0.05,
                ..FleetConfig::default()
            };
            let mut net = FleetNet::new(&fcfg, seed);
            let groups: Vec<u8> =
                (0..spec.clients).map(|i| u8::from(!tl.domain.contains(i as u32))).collect();
            let session =
                ChaosSession::new(tl.plan(seed ^ 0xC0A5), &mut net, groups.clone(), CHAOS_GROUPS);
            FleetWorld {
                clients: chaos_clients(&tl, seed),
                net,
                pool,
                cfg: FleetRunConfig {
                    start_secs: 0.0,
                    duration_secs: spec.duration_secs,
                    tick_secs: 1.0,
                    sample_period_secs: 15.0,
                    collect_arrivals: false,
                    steady_cutoff_secs: Some(spec.duration_secs as f64 + 1.0),
                },
                session: Some(session),
                groups,
            }
        }
    }
}

/// Wall-clock stamps shared with a [`TickClock`].
type Stamps = Arc<Mutex<Vec<Instant>>>;

/// A forwarding discipline that stamps the wall clock on every `poll`.
struct TickClock {
    inner: Box<dyn Discipline>,
    stamps: Stamps,
}

impl Discipline for TickClock {
    fn wants_hints(&self) -> bool {
        self.inner.wants_hints()
    }

    fn poll(
        &mut self,
        t: SimTime,
        clock: &mut SimClock,
        hints: Option<&WirelessHints>,
        select: &mut dyn ServerSelect,
    ) -> Directive {
        self.stamps.lock().unwrap_or_else(PoisonError::into_inner).push(Instant::now());
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

    fn take_commands(&mut self) -> Vec<ClockCommand> {
        self.inner.take_commands()
    }
}

/// Wrap client 0's discipline in a [`TickClock`]; returns its stamps.
fn install_tick_clock(world: &mut FleetWorld) -> Stamps {
    let epochs = world.cfg.duration_secs as usize + 1;
    let stamps: Stamps = Arc::new(Mutex::new(Vec::with_capacity(epochs)));
    if let Some(first) = world.clients.first_mut() {
        let inner = std::mem::replace(&mut first.discipline, Box::new(SntpDiscipline::naive()));
        first.discipline = Box::new(TickClock { inner, stamps: Arc::clone(&stamps) });
    }
    stamps
}

/// Epochs one run steps through (`0..=ticks`).
fn epochs(cfg: &FleetRunConfig) -> u64 {
    (cfg.duration_secs as f64 / cfg.tick_secs).ceil() as u64 + 1
}

/// Run the world through the real runner on `par`'s workers.
fn run_world(world: &mut FleetWorld, par: &Pool) -> FleetRun {
    let FleetWorld { clients, net, pool, cfg, session, .. } = world;
    match session {
        Some(session) => run_fleet_chaos_on(par, clients, net, pool, cfg, session),
        None => run_fleet_on(par, clients, net, pool, cfg),
    }
}

/// Per-server counters of the capacity model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct ServerCounts {
    /// Requests that reached the server.
    pub arrivals: u64,
    /// Answered with time.
    pub served: u64,
    /// Answered with a RATE kiss.
    pub kod: u64,
    /// Dropped on backlog overflow.
    pub dropped: u64,
    /// Shed by the degradation ladder.
    pub shed: u64,
    /// Outage restarts.
    pub restarts: u64,
    /// Deepest backlog seen.
    pub peak_backlog: u64,
}

/// What a fleet run must reproduce exactly: polls, per-server counters
/// and every ground-truth sample. The per-second arrival histogram is
/// left out on purpose (see the README: it is sized from the segment,
/// so late arrivals fall off its end).
#[derive(Clone, Debug, PartialEq, Eq)]
struct FleetDigest {
    /// Client polls attempted.
    pub polls: u64,
    /// Deferred idle ticks.
    pub deferrals: u64,
    /// Requests the chaos plan destroyed on the way up.
    pub chaos_dropped_up: u64,
    /// Replies the chaos plan destroyed on the way down.
    pub chaos_dropped_down: u64,
    /// Per-server counters, by server id.
    pub servers: Vec<ServerCounts>,
    /// Digest of the error series, steady samples and group quantiles.
    pub samples: u64,
}

/// The run's outputs, gathered from whichever loop produced them.
struct Outputs<'a> {
    polls: u64,
    deferrals: u64,
    chaos_dropped_up: u64,
    chaos_dropped_down: u64,
    series: &'a [Vec<(f64, f64)>],
    steady: &'a [Vec<f32>],
    groups: &'a [Vec<GroupSample>],
}

fn digest(o: &Outputs<'_>, net: &FleetNet) -> FleetDigest {
    let mut h = Fnv::default();
    for s in o.series {
        h.word(s.len() as u64);
        for (t, e) in s {
            h.word(t.to_bits());
            h.word(e.to_bits());
        }
    }
    for s in o.steady {
        h.word(s.len() as u64);
        for e in s {
            h.word(u64::from(e.to_bits()));
        }
    }
    for g in o.groups {
        h.word(g.len() as u64);
        for q in g {
            for v in [q.t_secs, q.p50_ms, q.p99_ms, q.max_ms] {
                h.word(v.to_bits());
            }
        }
    }
    let servers = (0..net.server_count())
        .filter_map(|j| net.server_model(j))
        .map(|m| ServerCounts {
            arrivals: m.stats.arrivals,
            served: m.stats.served,
            kod: m.stats.kod_sent,
            dropped: m.stats.dropped,
            shed: m.stats.shed,
            restarts: m.stats.restarts,
            peak_backlog: m.stats.peak_backlog as u64,
        })
        .collect();
    FleetDigest {
        polls: o.polls,
        deferrals: o.deferrals,
        chaos_dropped_up: o.chaos_dropped_up,
        chaos_dropped_down: o.chaos_dropped_down,
        servers,
        samples: h.finish(),
    }
}

/// Digest of a finished [`run_world`].
fn run_digest(run: &FleetRun, world: &FleetWorld) -> FleetDigest {
    let o = Outputs {
        polls: run.polls_sent,
        deferrals: run.deferrals,
        chaos_dropped_up: run.chaos_dropped_up,
        chaos_dropped_down: run.chaos_dropped_down,
        series: &run.true_error_ms,
        steady: &run.steady_abs_ms,
        groups: &run.group_quantiles,
    };
    digest(&o, &world.net)
}

impl FleetDigest {
    fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        for w in [self.polls, self.deferrals, self.chaos_dropped_up, self.chaos_dropped_down] {
            h.word(w);
        }
        for s in &self.servers {
            for w in [s.arrivals, s.served, s.kod, s.dropped, s.shed, s.restarts, s.peak_backlog] {
                h.word(w);
            }
        }
        h.word(self.samples);
        h.finish()
    }

    /// Server-side totals.
    fn totals(&self) -> ServerCounts {
        let mut t = ServerCounts::default();
        for s in &self.servers {
            t.arrivals += s.arrivals;
            t.served += s.served;
            t.kod += s.kod;
            t.dropped += s.dropped;
            t.shed += s.shed;
            t.restarts += s.restarts;
            t.peak_backlog = t.peak_backlog.max(s.peak_backlog);
        }
        t
    }

    /// Share of client polls that got no time answer because the
    /// simulated system refused or lost them: server drops, RATE kisses
    /// and sheds, plus chaos losses in either direction.
    fn failed_share(&self) -> f64 {
        let t = self.totals();
        let failed = t.dropped + t.kod + t.shed + self.chaos_dropped_up + self.chaos_dropped_down;
        failed as f64 / self.polls.max(1) as f64
    }

    /// Every server's arrivals are accounted for exactly once.
    fn conservation_failures(&self) -> Vec<String> {
        self.servers
            .iter()
            .enumerate()
            .filter(|(_, s)| s.arrivals != s.served + s.kod + s.dropped + s.shed)
            .map(|(j, s)| {
                format!(
                    "server {j}: arrivals {} != served {} + kod {} + dropped {} + shed {}",
                    s.arrivals, s.served, s.kod, s.dropped, s.shed
                )
            })
            .collect()
    }

    fn notes(&self) -> Vec<Note> {
        let t = self.totals();
        vec![
            Note { name: "polls", value: self.polls as f64 },
            Note { name: "deferrals", value: self.deferrals as f64 },
            Note { name: "arrivals", value: t.arrivals as f64 },
            Note { name: "served", value: t.served as f64 },
            Note { name: "kod", value: t.kod as f64 },
            Note { name: "dropped", value: t.dropped as f64 },
            Note { name: "shed", value: t.shed as f64 },
            Note { name: "restarts", value: t.restarts as f64 },
            Note { name: "peak_backlog", value: t.peak_backlog as f64 },
            Note { name: "chaos_dropped_up", value: self.chaos_dropped_up as f64 },
            Note { name: "chaos_dropped_down", value: self.chaos_dropped_down as f64 },
            Note { name: "served_ratio", value: t.served as f64 / t.arrivals.max(1) as f64 },
        ]
    }
}

/// One queued exchange of a client's round (the replay's copy of the
/// runner's private `Entry`).
enum Entry {
    Fail(usize, ExchangeError),
    Sent(usize, FleetRequestInFlight),
    Reply(usize, FleetRequestInFlight, FleetReplyInFlight),
}

/// One client's round in flight across the epoch barrier.
struct Round {
    ci: usize,
    entries: Vec<Entry>,
}

/// Span table of the fleet replay. The `core.fleet.*` spans hold the
/// runner's own loop between layer calls; the rest wrap one layer call.
pub const SPANS: &[&str] = &[
    "netsim.fleet.advance",
    "netsim.lanes.hints",
    "netsim.chaos",
    "core.discipline.poll",
    "core.discipline.complete",
    "core.discipline.commands",
    "sntp.fleet.begin",
    "sntp.fleet.serve",
    "sntp.fleet.complete",
    "core.fleet.phase_a",
    "core.fleet.phase_b",
    "core.fleet.phase_c",
    "core.fleet.sample",
    "core.fleet.self",
];
const ADVANCE: usize = 0;
const HINTS: usize = 1;
const CHAOS: usize = 2;
const POLL: usize = 3;
const D_COMPLETE: usize = 4;
const COMMANDS: usize = 5;
const BEGIN: usize = 6;
const SERVE: usize = 7;
const COMPLETE: usize = 8;
const PHASE_A: usize = 9;
const PHASE_B: usize = 10;
const PHASE_C: usize = 11;
const SAMPLE: usize = 12;
const SELF: usize = 13;

/// Nearest-rank quantile with rounding, as the runner's group sampling
/// computes it.
fn group_quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted.get(idx).or(sorted.last()).copied().unwrap_or(0.0)
}

/// Apply a client's pending clock commands and take its ground-truth
/// sample when one is due (the runner's per-client bookkeeping).
fn finish_client(
    client: &mut FleetClient,
    t: SimTime,
    sample_due: bool,
    cfg: &FleetRunConfig,
    series: &mut Vec<(f64, f64)>,
    steady: &mut Vec<f32>,
    tr: &mut Tracer,
) {
    for cmd in client.discipline.take_commands() {
        cmd.apply(&mut client.clock, t);
    }
    tr.lap(COMMANDS);
    if sample_due {
        let err_ms = client.clock.true_error(t).as_millis_f64();
        match cfg.steady_cutoff_secs {
            Some(cutoff) => {
                if t.as_secs_f64() >= cutoff {
                    steady.push(err_ms.abs() as f32);
                }
            }
            None => series.push((t.as_secs_f64(), err_ms)),
        }
        tr.lap(SAMPLE);
    }
}

/// Serial traced replay of the epoch loop `run_fleet_on` /
/// `run_fleet_chaos_on` run on `world`.
fn replay_epochs(world: &mut FleetWorld, tr: &mut Tracer) -> FleetDigest {
    let FleetWorld { clients, net, pool, cfg, session, groups } = world;
    let plan: Option<FleetFaultPlan> = session.as_ref().map(|s| s.plan().clone());
    let plan = plan.as_ref();
    let group_count = if session.is_some() { CHAOS_GROUPS } else { 0 };
    let server_count = net.server_count();
    let n = clients.len();
    let mut series: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n];
    let mut steady: Vec<Vec<f32>> = vec![Vec::new(); n];
    let mut group_quantiles: Vec<Vec<GroupSample>> = vec![Vec::new(); group_count];
    let (mut polls, mut deferrals, mut up, mut down) = (0u64, 0u64, 0u64, 0u64);
    {
        let (shards, models) = net.parts();
        let mut client_latches: Vec<ClientChaosLatch> = match plan {
            Some(p) => shards.iter().map(|s| ClientChaosLatch::new(p, s.client_count())).collect(),
            None => Vec::new(),
        };
        let mut server_latch = plan.map(ServerChaosLatch::new);
        let mut rounds: Vec<Vec<Round>> = (0..shards.len()).map(|_| Vec::new()).collect();
        tr.lap(SELF);
        for i in 0..epochs(cfg) {
            let tick_offset_secs = i as f64 * cfg.tick_secs;
            let t = SimTime::ZERO + SimDuration::from_secs_f64(tick_offset_secs);
            let sample_due = tick_offset_secs % cfg.sample_period_secs < cfg.tick_secs;
            tr.lap(SELF);

            // Phase A: advance each shard, poll its clients, pay uplinks.
            for (s, shard) in shards.iter_mut().enumerate() {
                shard.advance_to(t);
                tr.lap(ADVANCE);
                let lo = shard.client_lo();
                for local in 0..shard.client_count() {
                    let ci = lo + local;
                    let (Some(client), Some(se), Some(st)) =
                        (clients.get_mut(ci), series.get_mut(ci), steady.get_mut(ci))
                    else {
                        continue;
                    };
                    if let (Some(p), Some(latch)) = (plan, client_latches.get_mut(s)) {
                        if let Some(step_ms) = p.take_client_steps(latch, local, ci as u32, t) {
                            ClockCommand::Step(NtpDuration::from_seconds_f64(step_ms / 1e3))
                                .apply(&mut client.clock, t);
                        }
                        tr.lap(CHAOS);
                    }
                    let hints = if client.discipline.wants_hints() {
                        let h = shard.lane(ci).map(|mut lane| lane.hints(t));
                        tr.lap(HINTS);
                        h
                    } else {
                        None
                    };
                    let directive = client.discipline.poll(
                        t,
                        &mut client.clock,
                        hints.as_ref(),
                        &mut client.select,
                    );
                    tr.lap(POLL);
                    match directive {
                        Directive::Idle { record_deferred } => {
                            deferrals += u64::from(record_deferred);
                            finish_client(client, t, sample_due, cfg, se, st, tr);
                        }
                        Directive::Query(ids) => {
                            let mut entries = Vec::with_capacity(ids.len());
                            for id in ids {
                                polls += 1;
                                if id >= server_count {
                                    entries.push(Entry::Fail(id, ExchangeError::Blackholed));
                                    continue;
                                }
                                let Some(mut lane) = shard.lane(ci) else {
                                    entries.push(Entry::Fail(id, ExchangeError::Blackholed));
                                    continue;
                                };
                                tr.lap(PHASE_A);
                                let begun = begin_fleet_exchange(
                                    &mut lane,
                                    &mut client.clock,
                                    ci as u32,
                                    t,
                                    client.shape,
                                );
                                tr.lap(BEGIN);
                                match begun {
                                    Ok(mut inflight) => {
                                        if let Some(p) = plan {
                                            let lost = p.drop_uplink(ci as u32, id, inflight.t_eff);
                                            if !lost {
                                                inflight.hop_up = inflight.hop_up
                                                    + p.extra_delay_up(ci as u32, inflight.t_eff);
                                            }
                                            tr.lap(CHAOS);
                                            if lost {
                                                up += 1;
                                                entries.push(Entry::Fail(
                                                    id,
                                                    ExchangeError::Blackholed,
                                                ));
                                                continue;
                                            }
                                        }
                                        entries.push(Entry::Sent(id, inflight));
                                    }
                                    Err(e) => entries.push(Entry::Fail(id, e)),
                                }
                            }
                            if let Some(r) = rounds.get_mut(s) {
                                r.push(Round { ci, entries });
                            }
                        }
                    }
                    tr.lap(PHASE_A);
                }
            }

            // Chaos server events, serially by server id.
            if let (Some(p), Some(latch)) = (plan, server_latch.as_mut()) {
                for sid in 0..server_count {
                    if p.take_restarts(latch, sid, t) {
                        if let Some(model) = models.get_mut(sid) {
                            model.restart(t);
                        }
                    }
                    if let Some(err_ms) = p.take_falseticker_onsets(latch, sid, t) {
                        pool.server_mut(sid)
                            .clock
                            .step(t, NtpDuration::from_seconds_f64(err_ms / 1e3));
                    }
                }
                tr.lap(CHAOS);
            }

            // Phase B: every request meets the server models serially,
            // in global client-id order.
            for round in rounds.iter_mut().flatten() {
                for entry in &mut round.entries {
                    let taken = std::mem::replace(entry, Entry::Fail(0, ExchangeError::Blackholed));
                    *entry = match taken {
                        Entry::Sent(id, inflight) => {
                            let Some(model) = models.get_mut(id) else {
                                continue;
                            };
                            if let Some(p) = plan {
                                let dark = p.server_down(id, inflight.t_eff + inflight.hop_up);
                                tr.lap(CHAOS);
                                if dark {
                                    up += 1;
                                    *entry = Entry::Fail(id, ExchangeError::Blackholed);
                                    continue;
                                }
                            }
                            tr.lap(PHASE_B);
                            let (_arrival, reply) = serve_fleet_exchange(
                                &inflight,
                                pool.server_mut(id),
                                model,
                                round.ci as u32,
                            );
                            tr.lap(SERVE);
                            match reply {
                                Ok(r) => Entry::Reply(id, inflight, r),
                                Err(e) => Entry::Fail(id, e),
                            }
                        }
                        other => other,
                    };
                }
            }
            tr.lap(PHASE_B);

            // Phase C: downlinks, completion, bookkeeping.
            for (s, shard) in shards.iter_mut().enumerate() {
                let Some(shard_rounds) = rounds.get_mut(s) else { continue };
                for round in shard_rounds.drain(..) {
                    let ci = round.ci;
                    let (Some(client), Some(se), Some(st)) =
                        (clients.get_mut(ci), series.get_mut(ci), steady.get_mut(ci))
                    else {
                        continue;
                    };
                    let mut results = Vec::with_capacity(round.entries.len());
                    for entry in round.entries {
                        let result = match entry {
                            Entry::Fail(id, e) => ExchangeResult { server_id: id, outcome: Err(e) },
                            Entry::Sent(id, _) => ExchangeResult {
                                server_id: id,
                                outcome: Err(ExchangeError::Blackholed),
                            },
                            Entry::Reply(id, mut inflight, mut reply) => {
                                let mut lost = false;
                                if let Some(p) = plan {
                                    if p.drop_downlink(ci as u32, id, reply.departure) {
                                        down += 1;
                                        lost = true;
                                    } else {
                                        let extra = p.extra_delay_down(ci as u32, reply.departure);
                                        reply.bb_down = reply.bb_down + extra;
                                        reply.at_wap += extra;
                                    }
                                    tr.lap(CHAOS);
                                }
                                let outcome = if lost {
                                    Err(ExchangeError::Blackholed)
                                } else {
                                    match shard.lane(ci) {
                                        Some(mut lane) => {
                                            tr.lap(PHASE_C);
                                            let o = complete_fleet_exchange(
                                                &mut lane,
                                                &mut client.clock,
                                                &mut inflight.client,
                                                &reply,
                                                id,
                                            );
                                            tr.lap(COMPLETE);
                                            o
                                        }
                                        None => Err(ExchangeError::Blackholed),
                                    }
                                };
                                ExchangeResult { server_id: id, outcome }
                            }
                        };
                        results.push(result);
                    }
                    tr.lap(PHASE_C);
                    let _ = client.discipline.complete(t, &mut client.clock, &results);
                    tr.lap(D_COMPLETE);
                    finish_client(client, t, sample_due, cfg, se, st, tr);
                    tr.lap(PHASE_C);
                }
            }

            // Group quantiles, serially in global client-id order.
            if group_count > 0 && sample_due {
                let mut per_group: Vec<Vec<f64>> = vec![Vec::new(); group_count];
                for (ci, client) in clients.iter_mut().enumerate() {
                    let g = groups.get(ci).copied().unwrap_or(0) as usize;
                    let err_ms = client.clock.true_error(t).as_millis_f64().abs();
                    if let Some(bucket) = per_group.get_mut(g) {
                        bucket.push(err_ms);
                    }
                }
                for (g, mut vals) in per_group.into_iter().enumerate() {
                    vals.sort_by(|a, b| a.total_cmp(b));
                    let sample = GroupSample {
                        t_secs: t.as_secs_f64(),
                        p50_ms: group_quantile(&vals, 0.50),
                        p99_ms: group_quantile(&vals, 0.99),
                        max_ms: vals.last().copied().unwrap_or(0.0),
                    };
                    if let Some(s) = group_quantiles.get_mut(g) {
                        s.push(sample);
                    }
                }
                tr.lap(SAMPLE);
            }
        }
    }
    let o = Outputs {
        polls,
        deferrals,
        chaos_dropped_up: up,
        chaos_dropped_down: down,
        series: &series,
        steady: &steady,
        groups: &group_quantiles,
    };
    let d = digest(&o, net);
    tr.lap(SELF);
    d
}

impl Workload for FleetSpec {
    type World = FleetWorld;
    const SPANS: &'static [&'static str] = SPANS;

    fn setup(&self, seed: u64) -> FleetWorld {
        build(self, seed)
    }

    fn run(&self, mut world: FleetWorld) -> Rep {
        let stamps = install_tick_clock(&mut world);
        let par = Pool::with_jobs(WORKERS);
        let t0 = Instant::now();
        let run = run_world(&mut world, &par);
        let run_s = t0.elapsed().as_secs_f64();
        let d = run_digest(&run, &world);
        let stamps = stamps.lock().unwrap_or_else(PoisonError::into_inner).clone();
        let steps_ms: Vec<f64> =
            stamps.windows(2).map(|w| w[1].duration_since(w[0]).as_secs_f64() * 1e3).collect();
        let mut failures = d.conservation_failures();
        let epochs = epochs(&world.cfg);
        if stamps.len() as u64 != epochs {
            failures.push(format!(
                "tick clock saw {} polls of client 0, expected {epochs}",
                stamps.len()
            ));
        }
        Rep {
            run_s,
            units: world.clients.len() as u64 * epochs,
            steps_ms,
            digest: d.hash(),
            failures,
            failed_share: d.failed_share(),
            notes: d.notes(),
        }
    }

    fn replay(&self, mut world: FleetWorld, tr: &mut Tracer) -> Replay {
        let d = replay_epochs(&mut world, tr);
        let replay = Replay {
            digest: d.hash(),
            derived: Vec::new(),
            notes: d.notes(),
            failures: d.conservation_failures(),
            units: world.clients.len() as u64 * epochs(&world.cfg),
        };
        tr.lap(SELF);
        replay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(population: Population, clients: usize, duration_secs: u64) -> FleetSpec {
        FleetSpec { population, clients, duration_secs }
    }

    #[test]
    fn tick_clock_leaves_the_digest_unchanged() {
        let spec = small(Population::Mixed, 500, 120);
        let par = Pool::with_jobs(2);
        let mut plain = build(&spec, 11);
        let a = run_world(&mut plain, &par);
        let mut wrapped = build(&spec, 11);
        let stamps = install_tick_clock(&mut wrapped);
        let b = run_world(&mut wrapped, &par);
        assert_eq!(run_digest(&a, &plain), run_digest(&b, &wrapped));
        assert_eq!(stamps.lock().map(|s| s.len()).unwrap_or(0) as u64, epochs(&wrapped.cfg));
        assert!(run_digest(&a, &plain).polls > 0);
    }

    #[test]
    fn traced_replay_matches_run_fleet_on() {
        let spec = small(Population::Mixed, 300, 90);
        let mut reference = build(&spec, 5);
        let run = run_world(&mut reference, &Pool::with_jobs(2));
        let expect = run_digest(&run, &reference);
        let mut world = build(&spec, 5);
        let got = replay_epochs(&mut world, &mut Tracer::new(SPANS));
        assert_eq!(got, expect);
        assert!(got.conservation_failures().is_empty());
    }

    #[test]
    fn traced_replay_matches_run_fleet_chaos_on() {
        let spec = small(Population::Chaos, 240, 450);
        let mut reference = build(&spec, 9);
        let run = run_world(&mut reference, &Pool::with_jobs(2));
        let expect = run_digest(&run, &reference);
        assert!(
            expect.chaos_dropped_up + expect.chaos_dropped_down > 0,
            "the chaos plan dropped nothing: the comparison would not cover it"
        );
        let mut world = build(&spec, 9);
        let got = replay_epochs(&mut world, &mut Tracer::new(SPANS));
        assert_eq!(got, expect);
    }
}
