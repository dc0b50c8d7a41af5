//! Fleet runner: drive N independent clients against a shared world.
//!
//! The single-client [`crate::drive`] loop pairs one [`Discipline`] with
//! one [`netsim::Testbed`]. This runner scales that out: every client
//! owns its discipline, its clock, its server-selection lane, and one
//! channel lane of a shared [`FleetNet`]; all of them contend for the
//! same access point and the same capacity-limited servers. One trial
//! therefore observes the full feedback loop the paper measures from
//! both ends — client offset error under contention, and the
//! server-side arrival/KoD process (Figures 11/12) that emerges from
//! thousands of independent pollers.
//!
//! # Epoch-barrier phases
//!
//! The world is partitioned into `K` kernel shards
//! ([`netsim::fleet::FleetShard`]); each driver tick is an epoch of
//! three phases:
//!
//! 1. **Phase A (shard-parallel):** advance the shard kernel, poll every
//!    client, stamp `t1` and pay the wireless uplink for each query
//!    ([`begin_fleet_exchange`]). Touches only shard-private state.
//! 2. **Phase B (serial barrier):** deliver every in-flight request to
//!    the shared server models *in global client-id order*
//!    ([`serve_fleet_exchange`]) — the one place cross-shard state
//!    meets, so its order is fixed regardless of worker count.
//! 3. **Phase C (shard-parallel):** pay the wireless downlink, stamp
//!    `t4`, classify replies ([`complete_fleet_exchange`]), complete the
//!    round, apply clock commands, sample ground truth.
//!
//! Every source of randomness is private to a shard (channel lanes,
//! clocks, selection lanes) or touched only in the serial phase (server
//! RNGs), so a trial is **byte-reproducible at any `--jobs` level and
//! any shard count** — `tests/parallel_equivalence.rs` pins this.
//!
//! The id-order barrier delivers same-tick arrivals to the server model
//! slightly out of true-time order; the model clamps them monotonically
//! (documented approximation, see DESIGN.md §10).

use clocksim::time::{SimDuration, SimTime};
use clocksim::{ClockCommand, ClockControl, SimClock};
use devtools::par::Pool;
use netsim::chaos::{ClientChaosLatch, FleetFaultPlan, ServerChaosLatch};
use netsim::fleet::{FleetNet, FleetShard};
use ntp_wire::NtpDuration;
use sntp::fleet::{
    begin_fleet_exchange, complete_fleet_exchange, serve_fleet_exchange, FleetArrival,
    FleetReplyInFlight, FleetRequestInFlight, RequestShape,
};
use sntp::{ExchangeError, PickLane, ServerPool};

use crate::discipline::{Directive, Discipline, ExchangeResult};

/// One fleet member: a discipline, its own clock, its own
/// server-selection lane, and a wire shape.
pub struct FleetClient {
    /// The client stack (naive SNTP, MNTP, or ntpd).
    pub discipline: Box<dyn Discipline>,
    /// The client's local clock.
    pub clock: SimClock,
    /// Private server-selection RNG lane (see [`sntp::ServerSelect`]):
    /// fleet clients must not share the pool's selection RNG, or the
    /// draw order would couple every client through one mutable stream.
    pub select: PickLane,
    /// Header shape of this client's requests.
    pub shape: RequestShape,
}

/// Fleet trial parameters.
#[derive(Clone, Debug)]
pub struct FleetRunConfig {
    /// True-time offset of the trial's first tick, seconds. Zero for a
    /// standalone trial; a later segment of a chained timeline (see
    /// [`run_fleet_chaos_on`]) sets this to where the previous segment
    /// stopped, so absolute-time fault windows and sampling cadences
    /// line up across segments. When nonzero, the boundary tick itself
    /// is skipped (the previous segment already ran it).
    pub start_secs: f64,
    /// Trial length, seconds.
    pub duration_secs: u64,
    /// Driver tick, seconds.
    pub tick_secs: f64,
    /// Ground-truth sampling cadence, seconds.
    pub sample_period_secs: f64,
    /// Keep the full server-side arrival log (request bytes included).
    /// Costly at large N; rate counters are always collected.
    pub collect_arrivals: bool,
    /// When set, ground-truth sampling switches to the compact
    /// steady-state form: per-client `|error|` as `f32`, only for
    /// `t ≥` this cutoff, in [`FleetRun::steady_abs_ms`] (the
    /// timestamped [`FleetRun::true_error_ms`] series stays empty).
    /// At 1M clients the full `(f64, f64)` series is ~1 GB per
    /// half-hour; the steady-state percentiles the experiments report
    /// need none of it.
    pub steady_cutoff_secs: Option<f64>,
}

impl Default for FleetRunConfig {
    fn default() -> Self {
        FleetRunConfig {
            start_secs: 0.0,
            duration_secs: 600,
            tick_secs: 1.0,
            sample_period_secs: 30.0,
            collect_arrivals: false,
            steady_cutoff_secs: None,
        }
    }
}

/// Everything a fleet trial produced.
#[derive(Default)]
pub struct FleetRun {
    /// Per-client ground-truth clock error `(t_secs, err_ms)` samples,
    /// indexed by client id (empty in steady-state mode).
    pub true_error_ms: Vec<Vec<(f64, f64)>>,
    /// Per-client steady-state `|error|` samples, ms, indexed by client
    /// id (only in steady-state mode, see
    /// [`FleetRunConfig::steady_cutoff_secs`]).
    pub steady_abs_ms: Vec<Vec<f32>>,
    /// Server-side arrival log (only when
    /// [`FleetRunConfig::collect_arrivals`] is set).
    pub arrivals: Vec<FleetArrival>,
    /// Requests reaching any server, bucketed per second of true time.
    pub arrivals_per_sec: Vec<u64>,
    /// Client-side polls attempted.
    pub polls_sent: u64,
    /// Idle ticks the disciplines chose to record as deferrals.
    pub deferrals: u64,
    /// Requests destroyed by the chaos plan before reaching a server
    /// (uplink storms and server outages).
    pub chaos_dropped_up: u64,
    /// Replies destroyed by the chaos plan on the way back.
    pub chaos_dropped_down: u64,
    /// Per-group error quantiles over time, indexed by group id (only
    /// in chaos runs with a grouped [`ChaosSession`]).
    pub group_quantiles: Vec<Vec<GroupSample>>,
}

/// One ground-truth quantile snapshot of a client group.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GroupSample {
    /// Sample instant, seconds of true time.
    pub t_secs: f64,
    /// Median `|error|` across the group, ms.
    pub p50_ms: f64,
    /// 99th-percentile `|error|` across the group, ms.
    pub p99_ms: f64,
    /// Worst `|error|` across the group, ms.
    pub max_ms: f64,
}

/// Nearest-rank quantile of an ascending-sorted slice (0 when empty).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted.get(idx).or(sorted.last()).copied().unwrap_or(0.0)
}

/// One queued exchange of one client's round, moving through the tick's
/// three phases.
enum Entry {
    /// Failed before (or at) the server; carries the client-side error.
    Fail(usize, ExchangeError),
    /// Uplink paid, awaiting the serial server phase.
    Sent(usize, FleetRequestInFlight),
    /// Served, awaiting the downlink/completion phase.
    Reply(usize, FleetRequestInFlight, FleetReplyInFlight),
}

/// One client's query round in flight across the epoch barrier.
struct PendingRound {
    /// Global client id.
    ci: usize,
    entries: Vec<Entry>,
}

/// What one shard's Phase A produced this tick.
#[derive(Default)]
struct TickOut {
    deferrals: u64,
    polls: u64,
    chaos_dropped_up: u64,
    rounds: Vec<PendingRound>,
}

/// Split `items` into consecutive chunks of the given lengths (the
/// shards' client ranges).
fn chunk_by<'a, T>(mut rest: &'a mut [T], lens: &[usize]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(lens.len());
    for &len in lens {
        let (head, tail) = rest.split_at_mut(len);
        out.push(head);
        rest = tail;
    }
    out
}

/// Post-round bookkeeping for one client: apply clock commands, sample
/// ground truth if due.
fn finish_client(
    client: &mut FleetClient,
    t: SimTime,
    sample_due: bool,
    cfg: &FleetRunConfig,
    series: &mut Vec<(f64, f64)>,
    steady: &mut Vec<f32>,
) {
    for cmd in client.discipline.take_commands() {
        cmd.apply(&mut client.clock, t);
    }
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
    }
}

/// Phase A for one shard: advance the kernel, poll clients, transmit
/// uplinks. Idle clients finish their tick here; querying clients park a
/// [`PendingRound`] for the barrier.
#[allow(clippy::too_many_arguments)]
fn shard_poll_phase(
    shard: &mut FleetShard,
    clients: &mut [FleetClient],
    series: &mut [Vec<(f64, f64)>],
    steady: &mut [Vec<f32>],
    t: SimTime,
    sample_due: bool,
    cfg: &FleetRunConfig,
    server_count: usize,
    plan: Option<&FleetFaultPlan>,
    mut latch: Option<&mut ClientChaosLatch>,
) -> TickOut {
    shard.advance_to(t);
    let lo = shard.client_lo();
    let mut out = TickOut::default();
    for (local, client) in clients.iter_mut().enumerate() {
        let ci = lo + local;
        // Chaos clock-step waves fire before the poll, so the
        // discipline sees (and gets to repair) the stepped clock.
        if let (Some(plan), Some(latch)) = (plan, latch.as_deref_mut()) {
            if let Some(step_ms) = plan.take_client_steps(latch, local, ci as u32, t) {
                ClockCommand::Step(NtpDuration::from_seconds_f64(step_ms / 1e3))
                    .apply(&mut client.clock, t);
            }
        }
        let hints = if client.discipline.wants_hints() {
            shard.lane(ci).map(|mut lane| lane.hints(t))
        } else {
            None
        };
        match client.discipline.poll(t, &mut client.clock, hints.as_ref(), &mut client.select) {
            Directive::Idle { record_deferred } => {
                if record_deferred {
                    out.deferrals += 1;
                }
                if let (Some(se), Some(st)) = (series.get_mut(local), steady.get_mut(local)) {
                    finish_client(client, t, sample_due, cfg, se, st);
                }
            }
            Directive::Query(ids) => {
                let mut entries = Vec::with_capacity(ids.len());
                for id in ids {
                    out.polls += 1;
                    if id >= server_count {
                        entries.push(Entry::Fail(id, ExchangeError::Blackholed));
                        continue;
                    }
                    let Some(mut lane) = shard.lane(ci) else {
                        entries.push(Entry::Fail(id, ExchangeError::Blackholed));
                        continue;
                    };
                    match begin_fleet_exchange(&mut lane, &mut client.clock, ci as u32, t, client.shape)
                    {
                        Ok(mut inflight) => {
                            if let Some(plan) = plan {
                                if plan.drop_uplink(ci as u32, id, inflight.t_eff) {
                                    out.chaos_dropped_up += 1;
                                    entries.push(Entry::Fail(id, ExchangeError::Blackholed));
                                    continue;
                                }
                                inflight.hop_up =
                                    inflight.hop_up + plan.extra_delay_up(ci as u32, inflight.t_eff);
                            }
                            entries.push(Entry::Sent(id, inflight));
                        }
                        Err(e) => entries.push(Entry::Fail(id, e)),
                    }
                }
                out.rounds.push(PendingRound { ci, entries });
            }
        }
    }
    out
}

/// Phase C for one shard: pay downlinks, classify replies, complete each
/// parked round, then run the same per-client bookkeeping Phase A ran
/// for idle clients. Returns the number of replies the chaos plan
/// destroyed on the downlink.
#[allow(clippy::too_many_arguments)]
fn shard_complete_phase(
    shard: &mut FleetShard,
    clients: &mut [FleetClient],
    series: &mut [Vec<(f64, f64)>],
    steady: &mut [Vec<f32>],
    rounds: Vec<PendingRound>,
    t: SimTime,
    sample_due: bool,
    cfg: &FleetRunConfig,
    plan: Option<&FleetFaultPlan>,
) -> u64 {
    let lo = shard.client_lo();
    let mut chaos_dropped_down = 0;
    for round in rounds {
        let ci = round.ci;
        let Some(local) = ci.checked_sub(lo) else { continue };
        let Some(client) = clients.get_mut(local) else { continue };
        let mut results = Vec::with_capacity(round.entries.len());
        for entry in round.entries {
            let result = match entry {
                Entry::Fail(id, e) => ExchangeResult { server_id: id, outcome: Err(e) },
                // Unreachable: the barrier resolves every Sent entry.
                Entry::Sent(id, _) => {
                    ExchangeResult { server_id: id, outcome: Err(ExchangeError::Blackholed) }
                }
                Entry::Reply(id, mut inflight, mut reply) => {
                    let chaos_fate = match plan {
                        Some(plan) if plan.drop_downlink(ci as u32, id, reply.departure) => {
                            chaos_dropped_down += 1;
                            Some(Err(ExchangeError::Blackholed))
                        }
                        Some(plan) => {
                            let extra = plan.extra_delay_down(ci as u32, reply.departure);
                            reply.bb_down = reply.bb_down + extra;
                            reply.at_wap = reply.at_wap + extra;
                            None
                        }
                        None => None,
                    };
                    let outcome = match chaos_fate {
                        Some(fate) => fate,
                        None => match shard.lane(ci) {
                            Some(mut lane) => complete_fleet_exchange(
                                &mut lane,
                                &mut client.clock,
                                &mut inflight.client,
                                &reply,
                                id,
                            ),
                            None => Err(ExchangeError::Blackholed),
                        },
                    };
                    ExchangeResult { server_id: id, outcome }
                }
            };
            results.push(result);
        }
        let _ = client.discipline.complete(t, &mut client.clock, &results);
        if let (Some(se), Some(st)) = (series.get_mut(local), steady.get_mut(local)) {
            finish_client(client, t, sample_due, cfg, se, st);
        }
    }
    chaos_dropped_down
}

/// Per-trial chaos state: a [`FleetFaultPlan`] plus the one-shot
/// latches and the group map for per-group quantile collection.
///
/// The session owns the latches so a timeline can be run as chained
/// segments (each with its own [`FleetRunConfig::start_secs`]) without
/// refiring one-shot events: the latches persist across
/// [`run_fleet_chaos_on`] calls.
pub struct ChaosSession {
    plan: FleetFaultPlan,
    /// Group id per client (for quantile collection only; the plan's
    /// fault domains are independent of this map).
    groups: Vec<u8>,
    group_count: usize,
    /// One latch chunk per shard, local indexing.
    client_latches: Vec<ClientChaosLatch>,
    server_latch: ServerChaosLatch,
}

impl ChaosSession {
    /// Build a session for `plan` over `net`'s shard layout. `groups`
    /// maps each client id to a reporting group in `0..group_count`;
    /// pass an empty map to skip group quantile collection.
    pub fn new(plan: FleetFaultPlan, net: &mut FleetNet, groups: Vec<u8>, group_count: usize) -> Self {
        let (shards, _) = net.parts();
        let client_latches =
            shards.iter().map(|s| ClientChaosLatch::new(&plan, s.client_count())).collect();
        let server_latch = ServerChaosLatch::new(&plan);
        ChaosSession { plan, groups, group_count, client_latches, server_latch }
    }

    /// The fault plan this session replays.
    pub fn plan(&self) -> &FleetFaultPlan {
        &self.plan
    }
}

/// The shared tick loop behind [`run_fleet_on`] (no chaos) and
/// [`run_fleet_chaos_on`] (fault plan active).
fn run_fleet_impl(
    par: &Pool,
    clients: &mut [FleetClient],
    net: &mut FleetNet,
    pool: &mut ServerPool,
    cfg: &FleetRunConfig,
    session: Option<&mut ChaosSession>,
) -> FleetRun {
    let ticks = (cfg.duration_secs as f64 / cfg.tick_secs).ceil() as u64;
    let server_count = net.server_count();
    let start_secs = cfg.start_secs.max(0.0);
    let (plan, client_latches, mut server_latch, groups, group_count) = match session {
        Some(s) => (
            Some(&s.plan),
            s.client_latches.as_mut_slice(),
            Some(&mut s.server_latch),
            s.groups.as_slice(),
            s.group_count,
        ),
        None => (None, &mut [] as &mut [ClientChaosLatch], None, &[] as &[u8], 0),
    };
    let mut run = FleetRun {
        true_error_ms: clients.iter().map(|_| Vec::new()).collect(),
        steady_abs_ms: clients.iter().map(|_| Vec::new()).collect(),
        arrivals_per_sec: vec![0; (start_secs + cfg.duration_secs as f64) as usize + 2],
        group_quantiles: vec![Vec::new(); group_count],
        ..FleetRun::default()
    };
    let (shards, models) = net.parts();
    let lens: Vec<usize> = shards.iter().map(FleetShard::client_count).collect();
    // A chained segment skips its boundary tick: the previous segment
    // already ran the world at `start_secs`.
    let first_tick = if start_secs > 0.0 { 1 } else { 0 };
    for i in first_tick..=ticks {
        let tick_offset_secs = start_secs + i as f64 * cfg.tick_secs;
        let t = SimTime::ZERO + SimDuration::from_secs_f64(tick_offset_secs);
        let sample_due = tick_offset_secs % cfg.sample_period_secs < cfg.tick_secs;

        // Phase A: shard-parallel polling and uplinks.
        let mut outs: Vec<TickOut> = {
            let client_chunks = chunk_by(clients, &lens);
            let series_chunks = chunk_by(&mut run.true_error_ms, &lens);
            let steady_chunks = chunk_by(&mut run.steady_abs_ms, &lens);
            let mut latch_iter = client_latches.iter_mut();
            let tasks: Vec<Box<dyn FnOnce() -> TickOut + Send + '_>> = shards
                .iter_mut()
                .zip(client_chunks)
                .zip(series_chunks.into_iter().zip(steady_chunks))
                .map(|((shard, cl), (se, st))| {
                    let cfg = &*cfg;
                    let latch = latch_iter.next();
                    Box::new(move || {
                        shard_poll_phase(
                            shard, cl, se, st, t, sample_due, cfg, server_count, plan, latch,
                        )
                    }) as Box<dyn FnOnce() -> TickOut + Send + '_>
                })
                .collect();
            par.invoke(tasks)
        };

        // Chaos server events for this tick, serially by server id:
        // restarts (outage windows that just ended) re-warm rate state,
        // falseticker onsets step reference clocks. Both must land
        // before any of this tick's requests are served.
        if let (Some(plan), Some(latch)) = (plan, server_latch.as_deref_mut()) {
            for sid in 0..server_count {
                if plan.take_restarts(latch, sid, t) {
                    if let Some(model) = models.get_mut(sid) {
                        model.restart(t);
                    }
                }
                if let Some(err_ms) = plan.take_falseticker_onsets(latch, sid, t) {
                    pool.server_mut(sid)
                        .clock
                        .step(t, NtpDuration::from_seconds_f64(err_ms / 1e3));
                }
            }
        }

        // Phase B: the epoch barrier. Every in-flight request meets the
        // shared server state here, serially, in global client-id order
        // (shards are ordered by id range, rounds by id within a shard).
        for out in &mut outs {
            run.deferrals += out.deferrals;
            run.polls_sent += out.polls;
            run.chaos_dropped_up += out.chaos_dropped_up;
            for round in &mut out.rounds {
                for entry in &mut round.entries {
                    let taken =
                        std::mem::replace(entry, Entry::Fail(0, ExchangeError::Blackholed));
                    *entry = match taken {
                        Entry::Sent(id, inflight) => {
                            let Some(model) = models.get_mut(id) else {
                                continue;
                            };
                            // An outage swallows the request at the WAP→
                            // backbone boundary: the server model never
                            // sees it (no arrival, no KoD accounting).
                            if plan
                                .is_some_and(|p| p.server_down(id, inflight.t_eff + inflight.hop_up))
                            {
                                run.chaos_dropped_up += 1;
                                *entry = Entry::Fail(id, ExchangeError::Blackholed);
                                continue;
                            }
                            let (arrival, reply) = serve_fleet_exchange(
                                &inflight,
                                pool.server_mut(id),
                                model,
                                round.ci as u32,
                            );
                            if let Some(arrival) = arrival {
                                let sec = arrival.at.as_secs_f64() as usize;
                                if let Some(bucket) = run.arrivals_per_sec.get_mut(sec) {
                                    *bucket += 1;
                                }
                                if cfg.collect_arrivals {
                                    run.arrivals.push(arrival);
                                }
                            }
                            match reply {
                                Ok(r) => Entry::Reply(id, inflight, r),
                                Err(e) => Entry::Fail(id, e),
                            }
                        }
                        other => other,
                    };
                }
            }
        }

        // Phase C: shard-parallel downlinks, completion, bookkeeping.
        {
            let client_chunks = chunk_by(clients, &lens);
            let series_chunks = chunk_by(&mut run.true_error_ms, &lens);
            let steady_chunks = chunk_by(&mut run.steady_abs_ms, &lens);
            let tasks: Vec<Box<dyn FnOnce() -> u64 + Send + '_>> = shards
                .iter_mut()
                .zip(client_chunks)
                .zip(series_chunks.into_iter().zip(steady_chunks))
                .zip(outs)
                .map(|(((shard, cl), (se, st)), out)| {
                    let cfg = &*cfg;
                    Box::new(move || {
                        shard_complete_phase(
                            shard, cl, se, st, out.rounds, t, sample_due, cfg, plan,
                        )
                    }) as Box<dyn FnOnce() -> u64 + Send + '_>
                })
                .collect();
            run.chaos_dropped_down += par.invoke(tasks).into_iter().sum::<u64>();
        }

        // Group quantiles: a serial pass in global client-id order, so
        // any (shards, jobs) collects identical series. `true_error` is
        // idempotent at the tick instant the bookkeeping above already
        // advanced every clock to.
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
                    p50_ms: quantile(&vals, 0.50),
                    p99_ms: quantile(&vals, 0.99),
                    max_ms: vals.last().copied().unwrap_or(0.0),
                };
                if let Some(series) = run.group_quantiles.get_mut(g) {
                    series.push(sample);
                }
            }
        }
    }
    run
}

/// Step every client through `cfg.duration_secs` of shared-world time,
/// ticking shards on `par`'s workers.
///
/// `pool.len()` must equal `net.server_count()`: the pool holds the
/// protocol side (clocks, packet codec) and the fleet world holds the
/// capacity side of the same servers, joined by index.
pub fn run_fleet_on(
    par: &Pool,
    clients: &mut [FleetClient],
    net: &mut FleetNet,
    pool: &mut ServerPool,
    cfg: &FleetRunConfig,
) -> FleetRun {
    run_fleet_impl(par, clients, net, pool, cfg, None)
}

/// [`run_fleet_on`] under a population fault plan: the session's
/// [`FleetFaultPlan`] drops/delays packets, blackholes and restarts
/// servers, turns pool members into falsetickers, and steps client
/// clocks in waves — all seed-deterministically at any (shards, jobs).
/// With an empty plan this is byte-identical to [`run_fleet_on`].
pub fn run_fleet_chaos_on(
    par: &Pool,
    clients: &mut [FleetClient],
    net: &mut FleetNet,
    pool: &mut ServerPool,
    cfg: &FleetRunConfig,
    session: &mut ChaosSession,
) -> FleetRun {
    run_fleet_impl(par, clients, net, pool, cfg, Some(session))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discipline::{MntpDiscipline, SntpDiscipline};
    use crate::MntpConfig;
    use clocksim::rng::SimRng;
    use clocksim::OscillatorConfig;
    use netsim::fleet::FleetConfig;
    use sntp::PoolConfig;

    fn clock(seed: u64) -> SimClock {
        let osc = OscillatorConfig::laptop().with_skew_ppm(30.0).build(SimRng::new(seed));
        SimClock::new(osc, SimTime::ZERO)
    }

    fn small_fleet(n: usize, seed: u64, shards: usize) -> (Vec<FleetClient>, FleetNet, ServerPool) {
        let fcfg = FleetConfig { clients: n, servers: 2, shards, ..FleetConfig::default() };
        let net = FleetNet::new(&fcfg, seed);
        let pool = ServerPool::new(
            PoolConfig { size: 2, false_ticker_fraction: 0.0, ..PoolConfig::default() },
            seed ^ 0x5eed,
        );
        let clients = (0..n)
            .map(|i| FleetClient {
                discipline: if i % 2 == 0 {
                    Box::new(SntpDiscipline::naive().self_paced(5.0))
                        as Box<dyn Discipline>
                } else {
                    Box::new(MntpDiscipline::full(MntpConfig::default()))
                },
                clock: clock(1000 + i as u64),
                select: PickLane::new(2, seed ^ (0x30_000 + i as u64)),
                shape: if i % 2 == 0 { RequestShape::Sntp } else { RequestShape::Ntpd },
            })
            .collect();
        (clients, net, pool)
    }

    #[test]
    fn fleet_run_produces_per_client_series_and_arrivals() {
        let (mut clients, mut net, mut pool) = small_fleet(4, 3, 1);
        let cfg = FleetRunConfig {
            duration_secs: 120,
            collect_arrivals: true,
            ..FleetRunConfig::default()
        };
        let run = run_fleet_on(&Pool::with_jobs(1), &mut clients, &mut net, &mut pool, &cfg);
        assert_eq!(run.true_error_ms.len(), 4);
        assert!(run.true_error_ms.iter().all(|s| !s.is_empty()));
        assert!(run.polls_sent > 0);
        assert!(!run.arrivals.is_empty());
        let counted: u64 = run.arrivals_per_sec.iter().sum();
        assert_eq!(counted, run.arrivals.len() as u64);
    }

    #[test]
    fn fleet_run_is_deterministic() {
        let cfg = FleetRunConfig { duration_secs: 90, ..FleetRunConfig::default() };
        let (mut c1, mut n1, mut p1) = small_fleet(3, 7, 1);
        let (mut c2, mut n2, mut p2) = small_fleet(3, 7, 1);
        let r1 = run_fleet_on(&Pool::with_jobs(1), &mut c1, &mut n1, &mut p1, &cfg);
        let r2 = run_fleet_on(&Pool::with_jobs(1), &mut c2, &mut n2, &mut p2, &cfg);
        assert_eq!(r1.true_error_ms, r2.true_error_ms);
        assert_eq!(r1.arrivals_per_sec, r2.arrivals_per_sec);
        assert_eq!(r1.polls_sent, r2.polls_sent);
    }

    /// The sharding/jobs contract end to end at the runner level: any
    /// (shard count, worker count) combination must reproduce the
    /// single-kernel serial run bit for bit.
    #[test]
    fn sharded_parallel_run_matches_serial() {
        let cfg = FleetRunConfig {
            duration_secs: 90,
            collect_arrivals: true,
            ..FleetRunConfig::default()
        };
        let fingerprint = |shards: usize, jobs: usize| {
            let (mut c, mut n, mut p) = small_fleet(5, 17, shards);
            let run = run_fleet_on(&Pool::with_jobs(jobs), &mut c, &mut n, &mut p, &cfg);
            let err_bits: Vec<Vec<(u64, u64)>> = run
                .true_error_ms
                .iter()
                .map(|s| s.iter().map(|(t, e)| (t.to_bits(), e.to_bits())).collect())
                .collect();
            let arrivals: Vec<(u32, usize, i64, bool, bool)> = run
                .arrivals
                .iter()
                .map(|a| (a.client_id, a.server_id, a.at.as_nanos(), a.dropped, a.kod))
                .collect();
            (err_bits, arrivals, run.arrivals_per_sec.clone(), run.polls_sent, run.deferrals)
        };
        let reference = fingerprint(1, 1);
        assert_eq!(fingerprint(3, 1), reference, "3 shards serial diverged");
        assert_eq!(fingerprint(3, 4), reference, "3 shards x 4 jobs diverged");
        assert_eq!(fingerprint(5, 2), reference, "one shard per client diverged");
    }

    /// An empty chaos plan is the identity: the chaos entry point must
    /// reproduce the plain runner byte for byte.
    #[test]
    fn chaos_run_with_empty_plan_matches_plain_run() {
        let cfg = FleetRunConfig {
            duration_secs: 90,
            collect_arrivals: true,
            ..FleetRunConfig::default()
        };
        let (mut c1, mut n1, mut p1) = small_fleet(4, 31, 2);
        let plain = run_fleet_on(&Pool::with_jobs(1), &mut c1, &mut n1, &mut p1, &cfg);
        let (mut c2, mut n2, mut p2) = small_fleet(4, 31, 2);
        let mut session = ChaosSession::new(FleetFaultPlan::none(), &mut n2, Vec::new(), 0);
        let chaos =
            run_fleet_chaos_on(&Pool::with_jobs(1), &mut c2, &mut n2, &mut p2, &cfg, &mut session);
        assert_eq!(plain.true_error_ms, chaos.true_error_ms);
        assert_eq!(plain.arrivals_per_sec, chaos.arrivals_per_sec);
        assert_eq!(plain.polls_sent, chaos.polls_sent);
        assert_eq!(plain.deferrals, chaos.deferrals);
        assert_eq!(chaos.chaos_dropped_up, 0);
        assert_eq!(chaos.chaos_dropped_down, 0);
    }

    fn stormy_plan(clients: u32) -> FleetFaultPlan {
        use netsim::chaos::{ChaosEvent, ClientRange};
        use netsim::ServerSet;
        FleetFaultPlan::new(0xC0FFEE)
            .window(
                20.0,
                50.0,
                ChaosEvent::RegionalLossStorm {
                    region: ClientRange::new(0, clients / 2),
                    loss_prob: 0.5,
                },
            )
            .window(30.0, 60.0, ChaosEvent::ServerOutage { servers: ServerSet::One(0) })
            .at(40.0, ChaosEvent::FalsetickerOnset { server: 1, error_ms: 150.0 })
            .window(
                60.0,
                80.0,
                ChaosEvent::ClockStepWave {
                    region: ClientRange::all(clients),
                    offset_ms: -40.0,
                },
            )
    }

    /// The chaos runner keeps the fleet contract: any (shards, jobs)
    /// reproduces the serial run bit for bit, fault plan and all.
    #[test]
    fn chaos_run_serial_matches_sharded() {
        let n = 6usize;
        let cfg = FleetRunConfig { duration_secs: 120, ..FleetRunConfig::default() };
        let fingerprint = |shards: usize, jobs: usize| {
            let (mut c, mut net, mut pool) = small_fleet(n, 41, shards);
            let groups: Vec<u8> = (0..n).map(|i| u8::from(i < n / 2)).collect();
            let mut session = ChaosSession::new(stormy_plan(n as u32), &mut net, groups, 2);
            let run = run_fleet_chaos_on(
                &Pool::with_jobs(jobs),
                &mut c,
                &mut net,
                &mut pool,
                &cfg,
                &mut session,
            );
            let err_bits: Vec<Vec<(u64, u64)>> = run
                .true_error_ms
                .iter()
                .map(|s| s.iter().map(|(t, e)| (t.to_bits(), e.to_bits())).collect())
                .collect();
            let quant_bits: Vec<Vec<(u64, u64, u64, u64)>> = run
                .group_quantiles
                .iter()
                .map(|s| {
                    s.iter()
                        .map(|q| {
                            (
                                q.t_secs.to_bits(),
                                q.p50_ms.to_bits(),
                                q.p99_ms.to_bits(),
                                q.max_ms.to_bits(),
                            )
                        })
                        .collect()
                })
                .collect();
            (
                err_bits,
                quant_bits,
                run.arrivals_per_sec.clone(),
                run.polls_sent,
                run.chaos_dropped_up,
                run.chaos_dropped_down,
            )
        };
        let reference = fingerprint(1, 1);
        assert!(reference.4 + reference.5 > 0, "plan never dropped anything — test is vacuous");
        assert_eq!(fingerprint(3, 1), reference, "3 shards serial diverged");
        assert_eq!(fingerprint(3, 4), reference, "3 shards x 4 jobs diverged");
        assert_eq!(fingerprint(6, 2), reference, "one shard per client diverged");
    }

    /// A timeline run as chained segments (via `start_secs`) replays
    /// the single uninterrupted run exactly: same world, same latches,
    /// same samples.
    #[test]
    fn chained_segments_match_single_run() {
        let n = 4usize;
        let whole_cfg = FleetRunConfig { duration_secs: 120, ..FleetRunConfig::default() };
        let (mut c1, mut n1, mut p1) = small_fleet(n, 53, 2);
        let groups: Vec<u8> = vec![0, 0, 1, 1];
        let mut s1 = ChaosSession::new(stormy_plan(n as u32), &mut n1, groups.clone(), 2);
        let whole =
            run_fleet_chaos_on(&Pool::with_jobs(1), &mut c1, &mut n1, &mut p1, &whole_cfg, &mut s1);

        let (mut c2, mut n2, mut p2) = small_fleet(n, 53, 2);
        let mut s2 = ChaosSession::new(stormy_plan(n as u32), &mut n2, groups, 2);
        let seg_a = FleetRunConfig { duration_secs: 60, ..FleetRunConfig::default() };
        let seg_b = FleetRunConfig { start_secs: 60.0, duration_secs: 60, ..FleetRunConfig::default() };
        let first =
            run_fleet_chaos_on(&Pool::with_jobs(1), &mut c2, &mut n2, &mut p2, &seg_a, &mut s2);
        let second =
            run_fleet_chaos_on(&Pool::with_jobs(1), &mut c2, &mut n2, &mut p2, &seg_b, &mut s2);

        for ci in 0..n {
            let mut joined = first.true_error_ms[ci].clone();
            joined.extend(second.true_error_ms[ci].iter().copied());
            assert_eq!(joined, whole.true_error_ms[ci], "client {ci} series diverged");
        }
        for g in 0..2 {
            let mut joined = first.group_quantiles[g].clone();
            joined.extend(second.group_quantiles[g].iter().copied());
            assert_eq!(joined, whole.group_quantiles[g], "group {g} quantiles diverged");
        }
        let mut joined_arrivals = vec![0u64; whole.arrivals_per_sec.len()];
        for (sec, count) in first
            .arrivals_per_sec
            .iter()
            .enumerate()
            .chain(second.arrivals_per_sec.iter().enumerate())
        {
            joined_arrivals[sec] += count;
        }
        assert_eq!(joined_arrivals, whole.arrivals_per_sec);
        assert_eq!(first.polls_sent + second.polls_sent, whole.polls_sent);
        assert_eq!(
            first.chaos_dropped_up + second.chaos_dropped_up,
            whole.chaos_dropped_up,
            "uplink drop counts diverged across the segment boundary"
        );
    }

    /// Steady-state collection mode: same trial, compact samples.
    #[test]
    fn steady_state_mode_matches_series_tail() {
        let mk = || small_fleet(3, 23, 2);
        let full_cfg = FleetRunConfig { duration_secs: 120, ..FleetRunConfig::default() };
        let steady_cfg =
            FleetRunConfig { steady_cutoff_secs: Some(60.0), ..full_cfg.clone() };
        let (mut c1, mut n1, mut p1) = mk();
        let full = run_fleet_on(&Pool::with_jobs(1), &mut c1, &mut n1, &mut p1, &full_cfg);
        let (mut c2, mut n2, mut p2) = mk();
        let steady = run_fleet_on(&Pool::with_jobs(1), &mut c2, &mut n2, &mut p2, &steady_cfg);
        assert!(steady.true_error_ms.iter().all(Vec::is_empty));
        for (ci, samples) in steady.steady_abs_ms.iter().enumerate() {
            let expect: Vec<f32> = full.true_error_ms[ci]
                .iter()
                .filter(|(t, _)| *t >= 60.0)
                .map(|(_, e)| e.abs() as f32)
                .collect();
            assert_eq!(samples, &expect, "client {ci} steady samples diverged");
        }
    }
}
