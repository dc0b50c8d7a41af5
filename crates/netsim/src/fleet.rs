//! Shared multi-client simulation world: N clients, M servers, one AP.
//!
//! The single-client [`crate::testbed::Testbed`] reproduces the paper's
//! §3.2 bench: one phone, one monitor node, one WAP. This module scales
//! that world out for the fleet experiments (§6 scalability discussion):
//! `N` client channels contend behind the same access point in front of
//! `M` server-side service models, so a single trial can observe both
//! ends — per-client offset error *and* the server-side arrival process
//! the paper measured from production logs (Figures 11/12).
//!
//! # Sharding
//!
//! At fleet scale (100k–1M clients) the world is partitioned by client id
//! into `K` contiguous [`FleetShard`]s, each owning a struct-of-arrays
//! [`ChannelBank`] for its id range. Shards share *nothing* mutable: the
//! one world-coupling process — the cross-traffic source behind the AP —
//! is replicated per shard from an identical RNG stream and run as a
//! due-time timer (the next instant it re-decides), so every shard
//! computes the same utilization schedule independently. Server models
//! stay global (they are driven serially, in client-id order, by the
//! fleet runner's epoch barrier — see `mntp::fleet`). Consequently `K`
//! is an execution detail: any shard count produces byte-identical
//! worlds, which is what lets the runner tick shards on parallel workers.
//!
//! # RNG lanes
//!
//! All randomness is split deterministically from the trial seed so a
//! fleet trial is reproducible at any parallelism and stable under
//! population growth (client `i`'s lane does not depend on `N` or on the
//! shard count):
//!
//! ```text
//! root = SimRng::new(seed)
//! ├── root.fork(1) = channel lane root;  channel i ← chan_root.fork(i)
//! ├── root.fork(2) = cross-traffic source (replicated per shard)
//! └── (server models are deterministic queues: no RNG lane)
//! ```
//!
//! # Server model
//!
//! [`ServerModel`] is the capacity side of a public NTP server: a
//! bounded FIFO service queue (arrivals beyond the backlog cap are
//! dropped on the floor, as a real socket buffer would) in front of the
//! kiss-o'-death policy of RFC 5905 §7.4, which it delegates to
//! [`crate::admission`] with its backlog as the load. A client polling
//! faster than the hard floor is always RATEd, and under overload the
//! floor rises to `overload_min_poll`, which is clamped by construction
//! to the 64 s back-off `sntp::pool::HealthConfig` imposes after a RATE
//! kiss — so a client that honours its ban is never re-RATEd by the same
//! server.

use std::collections::VecDeque;

use clocksim::rng::SimRng;
use clocksim::time::{SimDuration, SimTime};

use crate::admission::{Admission, Ladder, Rung};
use crate::crosstraffic::{CrossTraffic, CrossTrafficConfig};
use crate::lanes::{ChannelBank, Lane};
use crate::wifi::{WifiConfig, WirelessHints};

/// Capacity and rate-limit policy of one simulated server.
#[derive(Clone, Debug)]
pub struct ServerModelConfig {
    /// Maximum requests in the service backlog; arrivals past this are
    /// dropped without a reply (socket buffer overflow).
    pub queue_capacity: usize,
    /// Time to serve one request once it reaches the head of the queue.
    pub service_time: SimDuration,
    /// Hard per-client minimum poll spacing, seconds. Polling faster
    /// than this always draws a RATE kiss, loaded or not.
    pub min_poll_secs: f64,
    /// Per-client minimum poll spacing enforced while overloaded,
    /// seconds. Clamped to the 64 s RATE ban of `sntp::pool::HealthConfig`
    /// so a ban-honouring client can never be re-RATEd.
    pub overload_min_poll_secs: f64,
    /// Backlog length at which the overload poll floor kicks in.
    pub overload_backlog: usize,
    /// Optional graceful-degradation ladder (`None` — the default —
    /// reproduces the two-rung policy above exactly).
    pub ladder: Option<DegradationConfig>,
}

impl Default for ServerModelConfig {
    fn default() -> Self {
        ServerModelConfig {
            queue_capacity: 64,
            service_time: SimDuration::from_secs_f64(300e-6),
            min_poll_secs: 2.0,
            overload_min_poll_secs: 64.0,
            overload_backlog: 32,
            ladder: None,
        }
    }
}

/// The graceful-degradation ladder: an intermediate *ramp* rung between
/// the hard floor and the overload floor, plus priority shedding of
/// abusive pollers once the overload rung is reached.
///
/// Rungs, by backlog depth: `[0, ramp_backlog)` → hard floor;
/// `[ramp_backlog, overload_backlog)` → `ramp_min_poll_secs`;
/// `[overload_backlog, ..)` → the overload floor, and arrivals from
/// clients with `shed_strikes` consecutive RATE kisses are *shed*
/// (silently dropped) before compliant clients lose queue space. A
/// compliant gap (at or beyond the active floor) clears a client's
/// strikes. Every rung stays clamped to
/// [`HEALTH_RATE_BAN_SECS`](crate::admission::HEALTH_RATE_BAN_SECS), so
/// the ban-compliance invariant of the base policy carries over.
#[derive(Clone, Copy, Debug)]
pub struct DegradationConfig {
    /// Backlog length at which the ramp rung engages.
    pub ramp_backlog: usize,
    /// Per-client minimum poll spacing on the ramp rung, seconds.
    /// Clamped into `[min_poll_secs, overload_min_poll_secs]`.
    pub ramp_min_poll_secs: f64,
    /// Consecutive RATE kisses after which an arrival is shed instead
    /// of answered while the overload rung is active.
    pub shed_strikes: u8,
}

impl Default for DegradationConfig {
    fn default() -> Self {
        DegradationConfig { ramp_backlog: 16, ramp_min_poll_secs: 16.0, shed_strikes: 3 }
    }
}

/// What the server decided to do with one arrival.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ServiceDecision {
    /// Backlog full: the request is silently discarded.
    Dropped,
    /// The request will be answered at `depart`; `kod` selects a RATE
    /// kiss instead of a time reply.
    Served {
        /// Departure (transmit) time of the reply.
        depart: SimTime,
        /// Reply is a kiss-o'-death RATE packet.
        kod: bool,
    },
}

/// Aggregate counters for one server model.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerModelStats {
    /// Requests that reached the server.
    pub arrivals: u64,
    /// Requests answered with a time reply.
    pub served: u64,
    /// Requests dropped for backlog overflow.
    pub dropped: u64,
    /// Requests answered with a RATE kiss.
    pub kod_sent: u64,
    /// Largest backlog observed at any arrival instant.
    pub peak_backlog: usize,
    /// Requests shed by the degradation ladder (abusive pollers dropped
    /// under overload before compliant clients lose queue space).
    pub shed: u64,
    /// Times the server restarted (outage recovery).
    pub restarts: u64,
}

/// Bounded-queue service model with load-dependent RATE policy.
///
/// Deterministic: identical arrival sequences produce identical
/// decisions, so fleet trials stay byte-reproducible at any `--jobs`.
#[derive(Clone, Debug)]
pub struct ServerModel {
    cfg: ServerModelConfig,
    /// `cfg.min_poll_secs`, the floor enforced at any backlog.
    base_floor: SimDuration,
    /// Per-client RATE and shedding state, judged with the backlog as the
    /// load.
    admission: Admission,
    /// Departure times of requests still in service, oldest first.
    /// Monotone non-decreasing, so replies leave in global FIFO order
    /// and a single client's replies can never reorder.
    queue: VecDeque<SimTime>,
    /// When the server frees up after the newest queued request.
    busy_until: SimTime,
    /// Monotone clamp for arrivals delivered slightly out of order
    /// within one driver tick (clients are iterated in id order, not
    /// arrival order — a documented approximation; see DESIGN.md).
    horizon: SimTime,
    /// Counters.
    pub stats: ServerModelStats,
}

impl ServerModel {
    /// Empty model. The overload floor and the ladder's ramp rung are
    /// clamped by [`Ladder::clamped`], so neither exceeds the RATE ban.
    pub fn new(cfg: ServerModelConfig) -> Self {
        let base_floor = SimDuration::from_secs_f64(cfg.min_poll_secs);
        let overload = Rung {
            load: cfg.overload_backlog,
            floor: SimDuration::from_secs_f64(cfg.overload_min_poll_secs),
        };
        let ramp = cfg.ladder.map(|l| Rung {
            load: l.ramp_backlog,
            floor: SimDuration::from_secs_f64(l.ramp_min_poll_secs),
        });
        let ladder =
            Ladder::clamped(base_floor, overload, ramp, cfg.ladder.map(|l| l.shed_strikes));
        ServerModel {
            cfg,
            base_floor,
            admission: Admission::new(1024, ladder),
            queue: VecDeque::new(),
            busy_until: SimTime::ZERO,
            horizon: SimTime::ZERO,
            stats: ServerModelStats::default(),
        }
    }

    /// Current backlog length (requests not yet departed as of the last
    /// arrival processed).
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Admit one request from `client` arriving at `at` and decide its
    /// fate. Out-of-order arrivals are clamped forward to the latest
    /// arrival already processed.
    pub fn on_arrival(&mut self, client: u32, at: SimTime) -> ServiceDecision {
        let at = at.max(self.horizon);
        self.horizon = at;
        self.stats.arrivals += 1;

        // Drain everything that departed before this arrival.
        while self.queue.front().is_some_and(|d| *d <= at) {
            self.queue.pop_front();
        }
        let backlog = self.queue.len();
        self.stats.peak_backlog = self.stats.peak_backlog.max(backlog);

        let key = u64::from(client);
        if self.admission.sheds(key, backlog) {
            self.stats.shed += 1;
            return ServiceDecision::Dropped;
        }
        if backlog >= self.cfg.queue_capacity {
            self.stats.dropped += 1;
            return ServiceDecision::Dropped;
        }
        let kod = self.admission.rate(key, at.as_nanos(), Some(self.base_floor), backlog);

        let start = self.busy_until.max(at);
        let depart = start + self.cfg.service_time;
        self.busy_until = depart;
        self.queue.push_back(depart);
        if kod {
            self.stats.kod_sent += 1;
        } else {
            self.stats.served += 1;
        }
        ServiceDecision::Served { depart, kod }
    }

    /// Restart the server at `at` (outage recovery): the backlog is
    /// gone, the process is idle, and the rate table is *cold* — every
    /// client reads as never-seen, so the recovering herd's first polls
    /// are answered instead of mass-RATEd, and the table re-warms from
    /// post-restart behaviour alone. Ban-honoring clients therefore
    /// stay RATE-free across restarts (property-tested below); abusive
    /// pollers re-earn their strikes.
    pub fn restart(&mut self, at: SimTime) {
        let at = at.max(self.horizon);
        self.horizon = at;
        self.busy_until = at;
        self.queue.clear();
        self.admission.clear();
        self.stats.restarts += 1;
    }
}

/// Fleet world parameters.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of clients (one WiFi channel each).
    pub clients: usize,
    /// Number of server-side service models.
    pub servers: usize,
    /// Per-client channel parameters.
    pub wifi: WifiConfig,
    /// Shared cross-traffic source behind the access point.
    pub cross: CrossTrafficConfig,
    /// Initial download frequency of the cross-traffic source.
    pub initial_frequency: f64,
    /// Service model applied to every server.
    pub server: ServerModelConfig,
    /// Number of deterministic shards the client population is
    /// partitioned across (contiguous id ranges). Purely an execution
    /// detail: any value ≥ 1 produces a byte-identical world; clamped to
    /// the client count.
    pub shards: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            clients: 100,
            servers: 4,
            wifi: WifiConfig::default(),
            cross: CrossTrafficConfig::default(),
            initial_frequency: 0.4,
            server: ServerModelConfig::default(),
            shards: 1,
        }
    }
}

/// One shard of the fleet world: the channel bank for a contiguous range
/// of client ids, plus this shard's replica of the cross-traffic source.
pub struct FleetShard {
    /// Last-hop channels for this shard's id range, column-wise.
    bank: ChannelBank,
    /// This shard's replica of the shared download source contending for
    /// the AP uplink. Every shard holds an identical copy (same config,
    /// same RNG stream), so all shards compute the same utilization
    /// schedule without communicating.
    cross: CrossTraffic,
    /// When the replica next re-decides the utilization target.
    next_cross: SimTime,
    /// First global client id owned by this shard.
    lo: usize,
}

impl FleetShard {
    /// Run this shard's background process up to `t`: every
    /// cross-traffic decision due at or before `t` pushes its
    /// utilization target to the channel bank.
    pub fn advance_to(&mut self, t: SimTime) {
        while self.next_cross <= t {
            let util = self.cross.decide(self.next_cross);
            self.bank.set_utilization(util);
            self.next_cross += self.cross.decision_interval();
        }
    }

    /// First global client id owned by this shard.
    pub fn client_lo(&self) -> usize {
        self.lo
    }

    /// Number of clients owned by this shard.
    pub fn client_count(&self) -> usize {
        self.bank.len()
    }

    /// Whether global client id `client` lives in this shard.
    pub fn contains(&self, client: usize) -> bool {
        client >= self.lo && client - self.lo < self.bank.len()
    }

    /// The lane of *global* client id `client`, or `None` when the id is
    /// outside this shard's range.
    pub fn lane(&mut self, client: usize) -> Option<Lane<'_>> {
        let local = client.checked_sub(self.lo)?;
        self.bank.lane(local)
    }
}

/// The shared multi-client world: `K` deterministic shards plus the
/// global server-side service models.
pub struct FleetNet {
    shards: Vec<FleetShard>,
    servers: Vec<ServerModel>,
}

impl FleetNet {
    /// Build a fleet world from the trial seed using the documented
    /// RNG-lane scheme (see module docs).
    pub fn new(cfg: &FleetConfig, seed: u64) -> Self {
        let mut root = SimRng::new(seed);
        let mut chan_root = root.fork(1);
        let cross_rng = root.fork(2);
        // Lane RNGs are forked serially in global id order — client i's
        // stream depends only on (seed, i), never on N or the shard count.
        let mut lane_rngs: Vec<SimRng> =
            (0..cfg.clients).map(|i| chan_root.fork(i as u64)).collect();
        let servers = (0..cfg.servers)
            .map(|_| ServerModel::new(cfg.server.clone()))
            .collect();
        let k = cfg.shards.max(1).min(cfg.clients.max(1));
        let base = cfg.clients / k;
        let rem = cfg.clients % k;
        let mut shards = Vec::with_capacity(k);
        let mut lo = 0usize;
        for s in 0..k {
            let len = base + usize::from(s < rem);
            let rngs: Vec<SimRng> = lane_rngs.drain(..len).collect();
            let bank = ChannelBank::new(cfg.wifi.clone(), rngs);
            let cross =
                CrossTraffic::new(cfg.cross.clone(), cfg.initial_frequency, cross_rng.clone());
            shards.push(FleetShard { bank, cross, next_cross: SimTime::ZERO, lo });
            lo += len;
        }
        FleetNet { shards, servers }
    }

    /// Run background processes (cross-traffic decisions) on every shard
    /// up to `t`.
    pub fn advance_to(&mut self, t: SimTime) {
        for shard in &mut self.shards {
            shard.advance_to(t);
        }
    }

    /// Cross-layer hints for one client's channel at `t`, advancing the
    /// world first. `None` for an out-of-range client id.
    pub fn hints(&mut self, client: usize, t: SimTime) -> Option<WirelessHints> {
        self.advance_to(t);
        let shard = self.shards.iter_mut().find(|s| s.contains(client))?;
        shard.lane(client).map(|mut lane| lane.hints(t))
    }

    /// Simultaneous mutable access to one client's lane and one server's
    /// service model (the two ends of an exchange). `None` if either id
    /// is out of range.
    pub fn lanes(&mut self, client: usize, server: usize) -> Option<(Lane<'_>, &mut ServerModel)> {
        let server = self.servers.get_mut(server)?;
        let shard = self.shards.iter_mut().find(|s| s.contains(client))?;
        let lane = shard.lane(client)?;
        Some((lane, server))
    }

    /// Simultaneous mutable access to the shard array and the global
    /// server models — the split the epoch-barrier fleet runner needs to
    /// tick shards on parallel workers while serializing server-side
    /// admission.
    pub fn parts(&mut self) -> (&mut [FleetShard], &mut [ServerModel]) {
        (&mut self.shards, &mut self.servers)
    }

    /// One server's service model, for post-run stats collection.
    pub fn server_model(&self, server: usize) -> Option<&ServerModel> {
        self.servers.get(server)
    }

    /// Number of client channels across all shards.
    pub fn client_count(&self) -> usize {
        self.shards.iter().map(FleetShard::client_count).sum()
    }

    /// Number of server models.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::HEALTH_RATE_BAN_SECS;

    fn secs(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    #[test]
    fn quiet_server_serves_everyone() {
        let mut m = ServerModel::new(ServerModelConfig::default());
        for i in 0..10u32 {
            let d = m.on_arrival(i, secs(i as f64));
            assert!(matches!(d, ServiceDecision::Served { kod: false, .. }));
        }
        assert_eq!(m.stats.served, 10);
        assert_eq!(m.stats.dropped, 0);
        assert_eq!(m.stats.kod_sent, 0);
    }

    #[test]
    fn departures_are_fifo_and_monotone() {
        let mut m = ServerModel::new(ServerModelConfig::default());
        let mut last = SimTime::ZERO;
        // A burst of simultaneous arrivals must depart in admission
        // order, spaced by the service time.
        for i in 0..20u32 {
            match m.on_arrival(i, secs(1.0)) {
                ServiceDecision::Served { depart, .. } => {
                    assert!(depart > last, "reply {i} departs out of order");
                    last = depart;
                }
                ServiceDecision::Dropped => panic!("capacity 64 cannot drop 20"),
            }
        }
    }

    #[test]
    fn backlog_overflow_drops() {
        let cfg = ServerModelConfig { queue_capacity: 4, ..ServerModelConfig::default() };
        let mut m = ServerModel::new(cfg);
        let mut dropped = 0;
        for i in 0..10u32 {
            if m.on_arrival(i, secs(1.0)) == ServiceDecision::Dropped {
                dropped += 1;
            }
        }
        assert_eq!(dropped, 6);
        assert_eq!(m.stats.dropped, 6);
        // The queue drains: later arrivals are served again.
        assert!(matches!(
            m.on_arrival(99, secs(100.0)),
            ServiceDecision::Served { kod: false, .. }
        ));
    }

    #[test]
    fn fast_poller_draws_rate_kiss() {
        let mut m = ServerModel::new(ServerModelConfig::default());
        assert!(matches!(
            m.on_arrival(7, secs(10.0)),
            ServiceDecision::Served { kod: false, .. }
        ));
        // 0.5 s later: below the 2 s hard floor.
        assert!(matches!(
            m.on_arrival(7, secs(10.5)),
            ServiceDecision::Served { kod: true, .. }
        ));
        // A different client at the same instant is fine.
        assert!(matches!(
            m.on_arrival(8, secs(10.5)),
            ServiceDecision::Served { kod: false, .. }
        ));
    }

    #[test]
    fn overload_floor_never_exceeds_health_ban() {
        let cfg = ServerModelConfig {
            overload_min_poll_secs: 500.0, // misconfigured: must clamp
            service_time: SimDuration::from_secs_f64(1000.0),
            overload_backlog: 1,
            ..ServerModelConfig::default()
        };
        let mut m = ServerModel::new(cfg);
        // The 1000 s service keeps every admitted request queued, so the
        // server is overloaded from the second arrival on.
        m.on_arrival(1, secs(0.0));
        m.on_arrival(0, secs(1.0));
        // One ban later client 0 is served: the floor was clamped to the
        // ban. Inside the ban it is still RATEd.
        assert!(matches!(
            m.on_arrival(0, secs(1.0 + HEALTH_RATE_BAN_SECS)),
            ServiceDecision::Served { kod: false, .. }
        ));
        assert!(matches!(
            m.on_arrival(0, secs(100.0)),
            ServiceDecision::Served { kod: true, .. }
        ));
    }

    #[test]
    fn out_of_order_arrivals_clamp_forward() {
        let mut m = ServerModel::new(ServerModelConfig::default());
        m.on_arrival(0, secs(5.0));
        // Client 1's arrival computed earlier in the tick loop but
        // delivered after client 0's: clamped to 5.0, still served.
        match m.on_arrival(1, secs(4.9)) {
            ServiceDecision::Served { depart, .. } => assert!(depart >= secs(5.0)),
            ServiceDecision::Dropped => panic!("clamped arrival must be admitted"),
        }
    }

    #[test]
    fn fleet_world_is_deterministic() {
        let cfg = FleetConfig { clients: 5, servers: 2, ..FleetConfig::default() };
        let mut a = FleetNet::new(&cfg, 42);
        let mut b = FleetNet::new(&cfg, 42);
        for step in 1..=20 {
            let t = secs(step as f64);
            for c in 0..5 {
                assert_eq!(a.hints(c, t), b.hints(c, t), "client {c} step {step}");
            }
        }
        // Extra `advance_to` calls are unobservable. Both worlds are
        // probed every 5 s; the second is first advanced to extra targets,
        // in s before the probe: exact cross-traffic decision instants
        // (every 2 s), instants between them, and instants before the
        // previous probe.
        let mut plain = FleetNet::new(&cfg, 42);
        let mut poked = FleetNet::new(&cfg, 42);
        let extra_s: [&[f64]; 3] = [&[4.0, 3.0, 0.0], &[9.0, 2.5, 0.5], &[5.0, 1.0, 0.25]];
        for (step, extra) in (1..=120).zip(extra_s.iter().cycle()) {
            let t_s = f64::from(step) * 5.0;
            for back in extra.iter() {
                poked.advance_to(secs(t_s - back));
            }
            let t = secs(t_s);
            for c in 0..5 {
                assert_eq!(plain.hints(c, t), poked.hints(c, t), "client {c} at {t_s} s");
            }
        }
    }

    #[test]
    fn channel_lanes_stable_under_population_growth() {
        // Client i's channel behaviour must not depend on N: lane i is
        // forked by index, not drawn sequentially.
        let small = FleetConfig { clients: 3, servers: 1, ..FleetConfig::default() };
        let big = FleetConfig { clients: 8, servers: 1, ..FleetConfig::default() };
        let mut a = FleetNet::new(&small, 7);
        let mut b = FleetNet::new(&big, 7);
        for step in 1..=10 {
            let t = secs(step as f64);
            for c in 0..3 {
                assert_eq!(a.hints(c, t), b.hints(c, t), "client {c} step {step}");
            }
        }
    }

    #[test]
    fn shard_count_is_not_observable() {
        // The whole sharding contract in one assertion: partitioning the
        // same seeded world across K shards must not change a single
        // hint or transmit delay for any client.
        let mk = |shards| FleetConfig { clients: 7, servers: 2, shards, ..FleetConfig::default() };
        let mut a = FleetNet::new(&mk(1), 99);
        let mut b = FleetNet::new(&mk(3), 99);
        assert_eq!(a.shard_count(), 1);
        assert_eq!(b.shard_count(), 3);
        assert_eq!(a.client_count(), b.client_count());
        for step in 1..=30usize {
            let t = secs(step as f64 * 0.7);
            for c in 0..7 {
                assert_eq!(a.hints(c, t), b.hints(c, t), "hints client {c} step {step}");
            }
            let c = step % 7;
            let (mut la, _) = a.lanes(c, 0).expect("lane");
            let da = la.transmit_up(t);
            let (mut lb, _) = b.lanes(c, 0).expect("lane");
            assert_eq!(da, lb.transmit_up(t), "uplink client {c} step {step}");
        }
    }

    #[test]
    fn shards_clamp_to_population() {
        let cfg = FleetConfig { clients: 3, servers: 1, shards: 16, ..FleetConfig::default() };
        let net = FleetNet::new(&cfg, 5);
        assert_eq!(net.shard_count(), 3);
        assert_eq!(net.client_count(), 3);
    }

    #[test]
    fn bursty_same_tick_load_triggers_overload_floor() {
        let cfg = ServerModelConfig {
            service_time: SimDuration::from_secs_f64(30.0),
            overload_backlog: 2,
            ..ServerModelConfig::default()
        };
        let mut m = ServerModel::new(cfg);
        // Fill the backlog (30 s service keeps it deep), then a repeat
        // visitor inside the overload floor (but outside the 2 s hard
        // floor) draws a RATE kiss.
        for c in 0..5u32 {
            m.on_arrival(c, secs(1.0));
        }
        assert!(matches!(
            m.on_arrival(0, secs(11.0)),
            ServiceDecision::Served { kod: true, .. }
        ));
        assert!(m.stats.kod_sent >= 1);
    }

    #[test]
    fn ladder_ramp_floor_rates_between_rungs() {
        let cfg = ServerModelConfig {
            service_time: SimDuration::from_secs_f64(30.0),
            overload_backlog: 8,
            ladder: Some(DegradationConfig {
                ramp_backlog: 2,
                ramp_min_poll_secs: 16.0,
                shed_strikes: 200,
            }),
            ..ServerModelConfig::default()
        };
        let mut m = ServerModel::new(cfg);
        // Backlog 3 after these (30 s service): ramp rung, not overload.
        for c in 1..4u32 {
            m.on_arrival(c, secs(1.0));
        }
        m.on_arrival(0, secs(2.0));
        // 8 s later: beyond the 2 s hard floor but inside the 16 s ramp
        // floor — RATEd only because the ramp rung is engaged.
        assert!(matches!(
            m.on_arrival(0, secs(10.0)),
            ServiceDecision::Served { kod: true, .. }
        ));
        // 20 s later: beyond the ramp floor — served.
        assert!(matches!(
            m.on_arrival(0, secs(30.0)),
            ServiceDecision::Served { kod: false, .. }
        ));
    }

    #[test]
    fn ladder_sheds_striking_pollers_under_overload_only() {
        let cfg = ServerModelConfig {
            service_time: SimDuration::from_secs_f64(30.0),
            overload_backlog: 4,
            ladder: Some(DegradationConfig {
                ramp_backlog: 2,
                ramp_min_poll_secs: 4.0,
                shed_strikes: 2,
            }),
            ..ServerModelConfig::default()
        };
        let mut m = ServerModel::new(cfg);
        // Deep backlog from background clients.
        for c in 10..16u32 {
            m.on_arrival(c, secs(1.0));
        }
        // Client 0 hammers at 0.5 s spacing: two RATE kisses earn the
        // strikes, then arrivals are shed while overload persists.
        m.on_arrival(0, secs(2.0));
        assert!(matches!(
            m.on_arrival(0, secs(2.5)),
            ServiceDecision::Served { kod: true, .. }
        ));
        assert!(matches!(
            m.on_arrival(0, secs(3.0)),
            ServiceDecision::Served { kod: true, .. }
        ));
        let before = m.stats.shed;
        assert_eq!(m.on_arrival(0, secs(3.5)), ServiceDecision::Dropped);
        assert_eq!(m.stats.shed, before + 1);
        // A compliant client at the same instant is still served.
        assert!(matches!(
            m.on_arrival(20, secs(3.5)),
            ServiceDecision::Served { .. }
        ));
        // Once the queue drains (no overload), the striker is answered
        // again — and a ban-length gap clears its strikes.
        assert!(matches!(
            m.on_arrival(0, secs(300.0)),
            ServiceDecision::Served { kod: false, .. }
        ));
    }

    #[test]
    fn restart_clears_backlog_and_rate_state() {
        let cfg = ServerModelConfig {
            service_time: SimDuration::from_secs_f64(30.0),
            ladder: Some(DegradationConfig::default()),
            ..ServerModelConfig::default()
        };
        let mut m = ServerModel::new(cfg);
        for c in 0..10u32 {
            m.on_arrival(c, secs(1.0));
        }
        // Client 0 just polled at t=1; without the restart a poll at
        // t=2 would draw a RATE kiss (hard floor 2 s).
        m.restart(secs(1.5));
        assert_eq!(m.backlog(), 0);
        assert_eq!(m.stats.restarts, 1);
        match m.on_arrival(0, secs(2.0)) {
            ServiceDecision::Served { depart, kod } => {
                assert!(!kod, "cold rate table must not RATE the first post-restart poll");
                // The process restarted idle: service begins at the
                // arrival, not behind the pre-restart backlog.
                assert!(depart <= secs(2.0) + SimDuration::from_secs_f64(30.0));
            }
            ServiceDecision::Dropped => panic!("restarted server must serve"),
        }
    }

    #[test]
    fn lanes_rejects_out_of_range() {
        let cfg = FleetConfig { clients: 2, servers: 1, ..FleetConfig::default() };
        let mut net = FleetNet::new(&cfg, 1);
        assert!(net.lanes(0, 0).is_some());
        assert!(net.lanes(2, 0).is_none());
        assert!(net.lanes(0, 1).is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::admission::HEALTH_RATE_BAN_SECS;
    use devtools::prop;
    use devtools::{prop_assert, props};

    fn secs(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    props! {
        /// The bounded service queue is globally FIFO, so one client's
        /// replies can never overtake each other — for any interleaving
        /// of clients, gaps, and backlog states.
        fn same_client_replies_never_reorder(
            clients in prop::vecs(prop::ints(0..6), 2..200),
            gaps_ms in prop::vecs(prop::ints(0..2000), 2..200),
        ) {
            let cfg = ServerModelConfig {
                queue_capacity: 8,
                service_time: SimDuration::from_secs_f64(0.05),
                ..ServerModelConfig::default()
            };
            let mut m = ServerModel::new(cfg);
            let mut t = 0.0f64;
            let mut last_per_client: std::collections::BTreeMap<u32, SimTime> =
                std::collections::BTreeMap::new();
            let mut last_any = SimTime::ZERO;
            for (c, g) in clients.iter().zip(gaps_ms.iter()) {
                t += *g as f64 / 1e3;
                let c = *c as u32;
                if let ServiceDecision::Served { depart, .. } = m.on_arrival(c, secs(t)) {
                    prop_assert!(depart >= last_any, "global FIFO violated at t={t}");
                    last_any = depart;
                    if let Some(prev) = last_per_client.insert(c, depart) {
                        prop_assert!(depart > prev, "client {c} reply reordered at t={t}");
                    }
                }
            }
        }

        /// RFC 5905 ban compliance: a client spaced at or beyond the 64 s
        /// RATE back-off of `sntp::pool::HealthConfig` is never RATEd, no
        /// matter what load the rest of the fleet applies — the overload
        /// poll floor is clamped to the ban by construction.
        fn ban_honoring_client_never_rated(
            load_clients in prop::vecs(prop::ints(1..40), 1..300),
            load_gaps_ms in prop::vecs(prop::ints(0..300), 1..300),
            honor_slack_s in prop::vecs(prop::ints(0..30), 5..20),
        ) {
            // Merge a hammering background population with client 0,
            // which honors the health ban (>= 64 s between polls), into
            // one time-sorted arrival sequence.
            let mut events: Vec<(f64, u32)> = Vec::new();
            let mut t = 0.0f64;
            for (c, g) in load_clients.iter().zip(load_gaps_ms.iter()) {
                t += *g as f64 / 1e3;
                events.push((t, *c as u32));
            }
            let mut th = 0.0f64;
            for slack in &honor_slack_s {
                th += HEALTH_RATE_BAN_SECS + *slack as f64;
                events.push((th, 0));
            }
            events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            // Slow service + low overload threshold: the queue is deep
            // for most of the run, so the overload floor is live.
            let cfg = ServerModelConfig {
                queue_capacity: 16,
                service_time: SimDuration::from_secs_f64(0.2),
                overload_backlog: 2,
                ..ServerModelConfig::default()
            };
            let mut m = ServerModel::new(cfg);
            for (at, c) in events {
                let d = m.on_arrival(c, secs(at));
                if c == 0 {
                    prop_assert!(
                        !matches!(d, ServiceDecision::Served { kod: true, .. }),
                        "ban-honoring client RATEd at t={at}"
                    );
                }
            }
        }

        /// The ladder extension of the invariant above: with every rung
        /// of the degradation ladder engaged (ramp floor, overload
        /// floor, strike shedding) *and* restarts injected mid-run, a
        /// client spaced at or beyond the 64 s ban is still never RATEd
        /// and never shed — every rung is clamped to the ban, strikes
        /// require a RATE first, and restarts cold-start the rate table
        /// instead of mass-RATE-ing the recovering herd.
        fn ban_honoring_client_survives_ladder_and_restart(
            load_clients in prop::vecs(prop::ints(1..40), 1..300),
            load_gaps_ms in prop::vecs(prop::ints(0..300), 1..300),
            honor_slack_s in prop::vecs(prop::ints(0..30), 5..20),
            restart_at_s in prop::vecs(prop::ints(1..2000), 0..4),
            ramp_backlog in prop::ints(0..8),
            ramp_floor_s in prop::ints(1..200),
            shed_strikes in prop::ints(1..6),
        ) {
            let mut events: Vec<(f64, u32)> = Vec::new();
            let mut t = 0.0f64;
            for (c, g) in load_clients.iter().zip(load_gaps_ms.iter()) {
                t += *g as f64 / 1e3;
                events.push((t, *c as u32));
            }
            let mut th = 0.0f64;
            for slack in &honor_slack_s {
                th += HEALTH_RATE_BAN_SECS + *slack as f64;
                events.push((th, 0));
            }
            events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            // Restarts as sentinel events (client u32::MAX), merged in.
            let mut restarts: Vec<(f64, u32)> =
                restart_at_s.iter().map(|s| (*s as f64, u32::MAX)).collect();
            restarts.sort_by(|a, b| a.0.total_cmp(&b.0));
            let cfg = ServerModelConfig {
                queue_capacity: 16,
                service_time: SimDuration::from_secs_f64(0.2),
                overload_backlog: 2,
                ladder: Some(DegradationConfig {
                    ramp_backlog: ramp_backlog as usize,
                    // Deliberately absurd floors: clamping must save us.
                    ramp_min_poll_secs: ramp_floor_s as f64,
                    shed_strikes: shed_strikes as u8,
                }),
                ..ServerModelConfig::default()
            };
            let mut m = ServerModel::new(cfg);
            let mut restarts = restarts.into_iter().peekable();
            for (at, c) in events {
                while restarts.peek().is_some_and(|(r, _)| *r <= at) {
                    if let Some((r, _)) = restarts.next() {
                        m.restart(secs(r));
                    }
                }
                let d = m.on_arrival(c, secs(at));
                if c == 0 {
                    prop_assert!(
                        !matches!(d, ServiceDecision::Served { kod: true, .. }),
                        "ban-honoring client RATEd at t={at} under the ladder"
                    );
                    prop_assert!(
                        !matches!(d, ServiceDecision::Dropped) || m.backlog() >= 16,
                        "ban-honoring client shed at t={at}"
                    );
                }
            }
        }
    }
}
