//! Episodic faults: one seed-deterministic fault model for a single
//! device and for fleets.
//!
//! The paper's clients live on hostile networks: delay spikes (Fig. 4),
//! loss bursts, servers that rate-limit or fall over. The channel
//! models in [`crate::wifi`]/[`crate::cellular`] reproduce the
//! *steady-state* hostility; this module adds the *episodic* kind. A
//! [`FleetFaultPlan`] places typed [`ChaosEvent`]s on the true-time axis
//! over fault **domains** — contiguous client-id ranges (regions, which
//! shard-aligned ranges are a special case of) and server subsets. The
//! fleet worlds of [`crate::fleet`] query one plan for 100k–1M clients;
//! a single device is client 0 of a one-client plan, carried through
//! its exchanges as a [`DeviceChaos`]. The event kinds:
//!
//! * **regional loss storms** — every packet to/from clients in a range
//!   faces an extra drop;
//! * **regional delay spikes** — extra one-way delay (asymmetric when
//!   the two directions differ) for a range;
//! * **server outages with scheduled restarts** — a server subset
//!   blackholes all traffic for the window, then *restarts* at window
//!   end (the fleet runner re-warms its rate table);
//! * **falseticker onset** — a pool member's reference clock steps at
//!   an instant (a good server going bad mid-run);
//! * **clock-step waves** — every client in a range steps its clock
//!   once at a per-client instant spread across the window (leap-smear
//!   gone wrong, a fleet-wide suspend/resume storm; an instant wave
//!   over one client is a device waking with its clock wrong);
//! * **kiss-o'-death windows** — servers answer `RATE` to clients
//!   polling faster than a floor;
//! * **duplicate / corrupt replies** — a reply is cloned, or has bytes
//!   flipped, in flight.
//!
//! The fleet runner applies the first five kinds; only the
//! single-device exchange applies the last three.
//!
//! # Determinism
//!
//! The fleet runner executes clients shard-parallel, so the plan cannot
//! own a sequential RNG stream — draw order would depend on the shard
//! and worker schedule. Instead every probabilistic answer is a *pure
//! function*: each window gets a private lane seed forked from the plan
//! seed at build time, and a per-packet decision hashes (lane, client,
//! instant, direction) through the SplitMix64 finalizer. Any (shards,
//! jobs) combination therefore replays byte-identically — the same
//! contract `tests/parallel_equivalence.rs` pins for the fault-free
//! fleet.
//!
//! The key holds no server: packets one client sends in one direction
//! at one instant share each window's draw. A fan-out round sends its
//! requests at one instant, so a storm drops the whole round or none of
//! it. A device meets the same: a request lost on the uplink leaves its
//! clock where it was, so the round's next request departs at the same
//! instant and shares the draw.
//!
//! One-shot events need latches, and those are split by ownership so no
//! cross-shard state exists: per-client wave latches live in a
//! [`ClientChaosLatch`] chunked per shard (like every other per-client
//! column), and per-server onset/restart latches live in a
//! [`ServerChaosLatch`] touched only from the runner's serial phase.

use clocksim::time::{SimDuration, SimTime};

/// Which servers a server-domain event applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerSet {
    /// Every server in the pool.
    All,
    /// A single server by pool index.
    One(usize),
}

impl ServerSet {
    /// True when `id` is in the set.
    pub fn contains(&self, id: usize) -> bool {
        match self {
            ServerSet::All => true,
            ServerSet::One(s) => *s == id,
        }
    }
}

/// A contiguous client-id range `[lo, hi)` — the client-side fault
/// domain. Shard-aligned regions are ranges that happen to match shard
/// boundaries; nothing in the plan depends on the shard layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClientRange {
    /// First client id in the domain (inclusive).
    pub lo: u32,
    /// One past the last client id (exclusive).
    pub hi: u32,
}

impl ClientRange {
    /// The range `[lo, hi)`; inverted input saturates to empty at `lo`.
    pub fn new(lo: u32, hi: u32) -> Self {
        debug_assert!(lo <= hi, "client range ends before it starts");
        ClientRange { lo, hi: hi.max(lo) }
    }

    /// Every client in a fleet of `n`.
    pub fn all(n: u32) -> Self {
        ClientRange { lo: 0, hi: n }
    }

    /// True when `client` is in the domain.
    pub fn contains(&self, client: u32) -> bool {
        self.lo <= client && client < self.hi
    }

    /// Number of clients covered.
    pub fn len(&self) -> u32 {
        self.hi - self.lo
    }

    /// True when the domain covers nobody.
    pub fn is_empty(&self) -> bool {
        self.hi == self.lo
    }
}

/// The fault taxonomy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChaosEvent {
    /// Extra loss, both directions, for clients in `region`: one draw
    /// per (client, direction, instant).
    RegionalLossStorm {
        /// Affected clients.
        region: ClientRange,
        /// Per-packet drop probability while the storm is active.
        loss_prob: f64,
    },
    /// Extra one-way delay for clients in `region` while active.
    RegionalDelaySpike {
        /// Affected clients.
        region: ClientRange,
        /// Extra client→server delay, ms.
        extra_up_ms: f64,
        /// Extra server→client delay, ms.
        extra_down_ms: f64,
    },
    /// Blackhole: the servers drop all traffic for the window, then
    /// restart at window end (the runner re-warms their rate state via
    /// [`FleetFaultPlan::take_restarts`]).
    ServerOutage {
        /// Affected servers.
        servers: ServerSet,
    },
    /// Instant (fires at window start): `server`'s reference clock
    /// steps by `error_ms` — a pool member becomes a falseticker.
    FalsetickerOnset {
        /// The server that goes bad.
        server: usize,
        /// Size of the step, milliseconds (signed).
        error_ms: f64,
    },
    /// Every client in `region` steps its clock by `offset_ms` exactly
    /// once, at a per-client instant uniformly spread across the
    /// window (an instant window steps everyone at `start`).
    ClockStepWave {
        /// Affected clients.
        region: ClientRange,
        /// Size of the step applied to each client clock, ms (signed).
        offset_ms: f64,
    },
    /// The servers enforce a minimum poll interval and answer
    /// kiss-o'-death (`RATE`) to clients polling faster. Only the
    /// single-device exchange applies it.
    KissODeath {
        /// Affected servers.
        servers: ServerSet,
        /// Minimum request spacing the servers will tolerate, seconds.
        min_poll_secs: f64,
    },
    /// Each reply is duplicated with probability `prob`; the copy lands
    /// right behind the original and must be rejected as stale. Only
    /// the single-device exchange applies it.
    DuplicateReply {
        /// Per-reply duplication probability.
        prob: f64,
    },
    /// Each reply has bytes flipped in flight with probability `prob`.
    /// Only the single-device exchange applies it.
    CorruptReply {
        /// Per-reply corruption probability.
        prob: f64,
    },
}

/// What the plan decided for one reply
/// ([`FleetFaultPlan::downlink_fate`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketFate {
    /// Untouched.
    Deliver,
    /// Silently dropped (storm or outage).
    Drop,
    /// Delivered, plus an identical copy right behind it.
    Duplicate,
    /// Delivered with flipped bytes.
    Corrupt,
}

/// One scheduled event over `[start_secs, end_secs)`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct ChaosWindow {
    start_secs: f64,
    end_secs: f64,
    event: ChaosEvent,
    /// Private lane seed for this window's probabilistic draws, forked
    /// from the plan seed at build time.
    lane: u64,
}

/// SplitMix64 finalizer — the same avalanche `clocksim::rng` builds
/// streams from, used here as a stateless hash so per-packet decisions
/// are pure functions of (lane, client, instant, direction).
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash (lane, a, b) to a uniform draw in `[0, 1)`.
fn draw(lane: u64, a: u64, b: u64) -> f64 {
    let h = mix(lane ^ mix(a.wrapping_mul(0xA24B_AED4_963E_E407)) ^ mix(b.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Direction salt for per-packet keys.
const UP: u64 = 1;
/// Direction salt for per-packet keys.
const DOWN: u64 = 2;

/// The per-packet draw key: (instant, direction). No server id — see
/// the module docs.
fn packet_key(t: SimTime, dir: u64) -> u64 {
    (t.as_nanos() as u64).wrapping_mul(4).wrapping_add(dir)
}

/// A seed-deterministic fault plan.
///
/// Build declaratively with [`FleetFaultPlan::window`] /
/// [`FleetFaultPlan::at`]; query statelessly from any shard. One-shot
/// events go through the latch types so they fire exactly once.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetFaultPlan {
    seed: u64,
    windows: Vec<ChaosWindow>,
}

impl FleetFaultPlan {
    /// An empty plan drawing its lanes from `seed`.
    pub fn new(seed: u64) -> Self {
        FleetFaultPlan { seed, windows: Vec::new() }
    }

    /// The empty, never-faulting plan.
    pub fn none() -> Self {
        FleetFaultPlan::new(0)
    }

    /// Add an event over `[start_secs, end_secs)` (builder).
    ///
    /// Inverted or negative ranges are a caller bug: they debug-assert,
    /// and in release builds saturate onto the time axis (start clamped
    /// to ≥ 0, end clamped to ≥ start) instead of silently producing a
    /// window no instant can ever satisfy.
    pub fn window(mut self, start_secs: f64, end_secs: f64, event: ChaosEvent) -> Self {
        debug_assert!(start_secs <= end_secs, "fault window ends before it starts");
        let start_secs = start_secs.max(0.0);
        let end_secs = end_secs.max(start_secs);
        // Lane i depends only on (seed, i): plans replay identically
        // however the builder calls interleave with anything else.
        let i = self.windows.len() as u64;
        let lane = mix(self.seed ^ mix((i + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9)));
        self.windows.push(ChaosWindow { start_secs, end_secs, event, lane });
        self
    }

    /// Add an instant event at `at_secs` (builder).
    pub fn at(self, at_secs: f64, event: ChaosEvent) -> Self {
        self.window(at_secs, at_secs, event)
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    fn active(w: &ChaosWindow, t: SimTime) -> bool {
        let s = t.as_secs_f64();
        w.start_secs <= s && s < w.end_secs
    }

    /// True when a client→server packet from `client` departing at `t`
    /// toward `server` is destroyed by an active storm or outage.
    /// Stateless: the answer depends only on the arguments and the
    /// plan, never on query order.
    pub fn drop_uplink(&self, client: u32, server: usize, t: SimTime) -> bool {
        self.drop_packet(client, server, t, UP)
    }

    /// True when a server→client reply toward `client` departing at
    /// `t` from `server` is destroyed.
    pub fn drop_downlink(&self, client: u32, server: usize, t: SimTime) -> bool {
        self.drop_packet(client, server, t, DOWN)
    }

    fn drop_packet(&self, client: u32, server: usize, t: SimTime, dir: u64) -> bool {
        for w in &self.windows {
            if !Self::active(w, t) {
                continue;
            }
            match w.event {
                ChaosEvent::ServerOutage { servers } if servers.contains(server) => {
                    return true;
                }
                ChaosEvent::RegionalLossStorm { region, loss_prob }
                    if region.contains(client) =>
                {
                    // One draw per (client, direction, instant): every
                    // server a client reaches at one instant shares it,
                    // so a storm drops a whole fan-out round or none.
                    let key = packet_key(t, dir);
                    if draw(w.lane, u64::from(client), key) < loss_prob {
                        return true;
                    }
                }
                _ => {}
            }
        }
        false
    }

    /// Fate of a server→client reply toward `client` departing at `t`
    /// from `server`: [`PacketFate::Drop`] exactly when
    /// [`FleetFaultPlan::drop_downlink`] says so; otherwise corruption
    /// outranks duplication. Each reply-mangling window draws on its own
    /// lane under the downlink key.
    pub fn downlink_fate(&self, client: u32, server: usize, t: SimTime) -> PacketFate {
        if self.drop_downlink(client, server, t) {
            return PacketFate::Drop;
        }
        let hit = |w: &ChaosWindow, prob: f64| {
            Self::active(w, t) && draw(w.lane, u64::from(client), packet_key(t, DOWN)) < prob
        };
        let mut fate = PacketFate::Deliver;
        for w in &self.windows {
            match w.event {
                ChaosEvent::CorruptReply { prob } if hit(w, prob) => return PacketFate::Corrupt,
                ChaosEvent::DuplicateReply { prob } if hit(w, prob) => fate = PacketFate::Duplicate,
                _ => {}
            }
        }
        fate
    }

    /// Extra client→server delay for `client` at `t` (sum of active
    /// regional spikes covering it).
    pub fn extra_delay_up(&self, client: u32, t: SimTime) -> SimDuration {
        self.sum_spikes(client, t, true)
    }

    /// Extra server→client delay for `client` at `t`.
    pub fn extra_delay_down(&self, client: u32, t: SimTime) -> SimDuration {
        self.sum_spikes(client, t, false)
    }

    fn sum_spikes(&self, client: u32, t: SimTime, up: bool) -> SimDuration {
        let mut ms = 0.0;
        for w in &self.windows {
            if let ChaosEvent::RegionalDelaySpike { region, extra_up_ms, extra_down_ms } = w.event
            {
                if Self::active(w, t) && region.contains(client) {
                    ms += if up { extra_up_ms } else { extra_down_ms };
                }
            }
        }
        SimDuration::from_millis_f64(ms)
    }

    /// True when `server` is blackholed at `t`.
    pub fn server_down(&self, server: usize, t: SimTime) -> bool {
        self.windows.iter().any(|w| {
            matches!(w.event, ChaosEvent::ServerOutage { servers } if servers.contains(server))
                && Self::active(w, t)
        })
    }

    /// Minimum poll interval `server` enforces at `t`, if a
    /// kiss-o'-death window covers it (the largest floor wins when
    /// windows overlap).
    pub fn kod_min_poll(&self, server: usize, t: SimTime) -> Option<SimDuration> {
        self.windows
            .iter()
            .filter_map(|w| match w.event {
                ChaosEvent::KissODeath { servers, min_poll_secs }
                    if servers.contains(server) && Self::active(w, t) =>
                {
                    Some(min_poll_secs)
                }
                _ => None,
            })
            .reduce(f64::max)
            .map(SimDuration::from_secs_f64)
    }

    /// True when any kiss-o'-death window (active or not) names
    /// `server`: the exchange then owns that server's rate-limit knob
    /// for the whole run.
    pub fn kod_manages(&self, server: usize) -> bool {
        self.windows.iter().any(|w| {
            matches!(w.event, ChaosEvent::KissODeath { servers, .. } if servers.contains(server))
        })
    }

    /// The instant at which window `w` steps `client`'s clock, if that
    /// window is a wave covering the client: `start` plus a per-client
    /// uniform fraction of the window. A pure function of (plan,
    /// client), so every shard layout computes the same wave.
    fn wave_instant(w: &ChaosWindow, client: u32) -> Option<f64> {
        match w.event {
            ChaosEvent::ClockStepWave { region, .. } if region.contains(client) => {
                let span = w.end_secs - w.start_secs;
                Some(w.start_secs + draw(w.lane, u64::from(client), 0) * span)
            }
            _ => None,
        }
    }

    /// Clock steps due for `client` by time `t`, each at most once per
    /// (window, client) — the latch rides in `latch` under the
    /// caller's local index (see [`ClientChaosLatch`]). Returns the
    /// summed step in milliseconds, `None` when nothing fired.
    pub fn take_client_steps(
        &self,
        latch: &mut ClientChaosLatch,
        local: usize,
        client: u32,
        t: SimTime,
    ) -> Option<f64> {
        if self.windows.is_empty() {
            return None;
        }
        let s = t.as_secs_f64();
        let mut total = 0.0;
        let mut any = false;
        for (i, w) in self.windows.iter().enumerate() {
            if let ChaosEvent::ClockStepWave { offset_ms, .. } = w.event {
                if Self::wave_instant(w, client).is_some_and(|at| at <= s)
                    && latch.test_and_set(local, i)
                {
                    total += offset_ms;
                    any = true;
                }
            }
        }
        any.then_some(total)
    }

    /// Falseticker onsets due for `server` by time `t`, each at most
    /// once. Returns the summed clock step in milliseconds. Serial
    /// phase only — the latch is per-server global state.
    pub fn take_falseticker_onsets(
        &self,
        latch: &mut ServerChaosLatch,
        server: usize,
        t: SimTime,
    ) -> Option<f64> {
        let s = t.as_secs_f64();
        let mut total = 0.0;
        let mut any = false;
        for (i, w) in self.windows.iter().enumerate() {
            if let ChaosEvent::FalsetickerOnset { server: sv, error_ms } = w.event {
                if sv == server && w.start_secs <= s && latch.test_and_set(i) {
                    total += error_ms;
                    any = true;
                }
            }
        }
        any.then_some(total)
    }

    /// True when an outage covering `server` has *ended* by `t` and its
    /// scheduled restart has not fired yet (each restart fires once).
    /// The runner reacts by restarting the server model — re-warming
    /// rate state so recovering clients are not mass-RATEd.
    pub fn take_restarts(&self, latch: &mut ServerChaosLatch, server: usize, t: SimTime) -> bool {
        let s = t.as_secs_f64();
        let mut restarted = false;
        for (i, w) in self.windows.iter().enumerate() {
            if let ChaosEvent::ServerOutage { servers } = w.event {
                if servers.contains(server) && w.end_secs <= s && latch.test_and_set(i) {
                    restarted = true;
                }
            }
        }
        restarted
    }
}

/// Per-client one-shot latches for wave events, one bit per (client,
/// window). Chunked per shard exactly like every other per-client
/// column: each shard owns the latch rows for its contiguous id range,
/// so no shared mutable state exists and the wave replays identically
/// at any (shards, jobs).
#[derive(Clone, Debug, Default)]
pub struct ClientChaosLatch {
    words_per_client: usize,
    bits: Vec<u64>,
}

impl ClientChaosLatch {
    /// Latch storage for `clients` local rows under `plan`.
    pub fn new(plan: &FleetFaultPlan, clients: usize) -> Self {
        let words_per_client = plan.windows.len().div_ceil(64);
        ClientChaosLatch { words_per_client, bits: vec![0; words_per_client * clients] }
    }

    /// Set bit `window` for local row `local`; true when newly set.
    fn test_and_set(&mut self, local: usize, window: usize) -> bool {
        let slot = local * self.words_per_client + window / 64;
        let mask = 1u64 << (window % 64);
        match self.bits.get_mut(slot) {
            Some(word) if *word & mask == 0 => {
                *word |= mask;
                true
            }
            _ => false,
        }
    }
}

/// One-shot latches for per-server events (falseticker onsets, outage
/// restarts), one bit per window. Owned by the runner and touched only
/// from its serial server phase.
#[derive(Clone, Debug, Default)]
pub struct ServerChaosLatch {
    fired: Vec<bool>,
}

impl ServerChaosLatch {
    /// Latch storage for `plan`'s windows.
    pub fn new(plan: &FleetFaultPlan) -> Self {
        ServerChaosLatch { fired: vec![false; plan.windows.len()] }
    }

    fn test_and_set(&mut self, window: usize) -> bool {
        match self.fired.get_mut(window) {
            Some(f) if !*f => {
                *f = true;
                true
            }
            _ => false,
        }
    }
}

/// A plan as one device meets it: the device is client
/// [`DeviceChaos::CLIENT`] of the plan, and the bundle carries one latch
/// row of each kind, so clock steps and falseticker onsets fire once
/// across every exchange of a run.
#[derive(Clone, Debug)]
pub struct DeviceChaos {
    /// The fault plan.
    pub plan: FleetFaultPlan,
    /// The device's clock-step latch (one row).
    pub client_latch: ClientChaosLatch,
    /// The pool's falseticker-onset latch.
    pub server_latch: ServerChaosLatch,
}

impl DeviceChaos {
    /// The device's client id in its plan.
    pub const CLIENT: u32 = 0;

    /// `plan` with fresh latches.
    pub fn new(plan: FleetFaultPlan) -> Self {
        let client_latch = ClientChaosLatch::new(&plan, 1);
        let server_latch = ServerChaosLatch::new(&plan);
        DeviceChaos { plan, client_latch, server_latch }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    #[test]
    fn empty_plan_is_identity() {
        let plan = FleetFaultPlan::none();
        let mut latch = ClientChaosLatch::new(&plan, 4);
        let mut slatch = ServerChaosLatch::new(&plan);
        for i in 0..50 {
            assert!(!plan.drop_uplink(i, 0, t(i as f64)));
            assert_eq!(plan.downlink_fate(i, 0, t(i as f64)), PacketFate::Deliver);
        }
        assert_eq!(plan.extra_delay_up(0, t(5.0)), SimDuration::ZERO);
        assert!(!plan.server_down(0, t(5.0)));
        assert_eq!(plan.kod_min_poll(0, t(5.0)), None);
        assert!(!plan.kod_manages(0));
        assert_eq!(plan.take_client_steps(&mut latch, 0, 0, t(1e6)), None);
        assert_eq!(plan.take_falseticker_onsets(&mut slatch, 0, t(1e6)), None);
        assert!(!plan.take_restarts(&mut slatch, 0, t(1e6)));
    }

    #[test]
    fn outage_blackholes_domain_servers_inside_window() {
        let plan = FleetFaultPlan::new(1).window(
            100.0,
            200.0,
            ChaosEvent::ServerOutage { servers: ServerSet::One(2) },
        );
        assert!(!plan.drop_uplink(0, 2, t(99.0)));
        assert!(plan.drop_uplink(0, 2, t(100.0)));
        assert!(plan.drop_downlink(7, 2, t(199.0)));
        assert!(!plan.drop_uplink(0, 2, t(200.0)));
        assert!(!plan.drop_uplink(0, 1, t(150.0)));
        assert!(plan.server_down(2, t(150.0)));
        assert!(!plan.server_down(1, t(150.0)));
    }

    #[test]
    fn regional_storm_spares_other_regions_and_matches_rate() {
        let region = ClientRange::new(100, 200);
        let plan = FleetFaultPlan::new(2).window(
            0.0,
            1e9,
            ChaosEvent::RegionalLossStorm { region, loss_prob: 0.35 },
        );
        // Outside the domain: untouched.
        for i in 0..100 {
            assert!(!plan.drop_uplink(99, 0, t(i as f64)));
            assert!(!plan.drop_uplink(200, 0, t(i as f64)));
        }
        // Inside: drops at roughly the configured rate.
        let n = 20_000;
        let dropped = (0..n)
            .filter(|i| plan.drop_uplink(150, 0, t(*i as f64)))
            .count();
        let frac = dropped as f64 / n as f64;
        assert!((frac - 0.35).abs() < 0.02, "drop fraction {frac}");
    }

    /// The storm's key holds no server: packets one client sends in one
    /// direction at one instant share the draw, so a fan-out round is
    /// dropped whole or not at all.
    #[test]
    fn storm_draw_is_shared_by_every_server_at_one_instant() {
        let plan = FleetFaultPlan::new(10).window(
            0.0,
            1e9,
            ChaosEvent::RegionalLossStorm { region: ClientRange::all(4), loss_prob: 0.5 },
        );
        let mut dropped = 0;
        for i in 0..400u32 {
            let (c, at) = (i % 4, t(f64::from(i) * 0.37));
            let up = plan.drop_uplink(c, 0, at);
            let down = plan.drop_downlink(c, 0, at);
            dropped += usize::from(up);
            for s in 1..4 {
                assert_eq!(plan.drop_uplink(c, s, at), up);
                assert_eq!(plan.drop_downlink(c, s, at), down);
            }
        }
        assert!((100..300).contains(&dropped), "both outcomes occur, dropped {dropped}");
    }

    #[test]
    fn queries_are_stateless_and_order_independent() {
        let mk = || {
            FleetFaultPlan::new(42)
                .window(
                    0.0,
                    500.0,
                    ChaosEvent::RegionalLossStorm {
                        region: ClientRange::all(1000),
                        loss_prob: 0.3,
                    },
                )
                .window(
                    100.0,
                    300.0,
                    ChaosEvent::RegionalDelaySpike {
                        region: ClientRange::new(0, 500),
                        extra_up_ms: 5.0,
                        extra_down_ms: 40.0,
                    },
                )
        };
        let a = mk();
        let b = mk();
        // Forward on one plan, backward on the clone: identical fates —
        // the whole point of stateless draws.
        let fwd: Vec<bool> =
            (0..2000).map(|i| a.drop_uplink(i % 1000, 0, t((i / 2) as f64))).collect();
        let mut bwd: Vec<bool> =
            (0..2000).rev().map(|i| b.drop_uplink(i % 1000, 0, t((i / 2) as f64))).collect();
        bwd.reverse();
        assert_eq!(fwd, bwd);
        // A different seed gives a different stream.
        let c = FleetFaultPlan::new(43).window(
            0.0,
            500.0,
            ChaosEvent::RegionalLossStorm { region: ClientRange::all(1000), loss_prob: 0.3 },
        );
        let other: Vec<bool> =
            (0..2000).map(|i| c.drop_uplink(i % 1000, 0, t((i / 2) as f64))).collect();
        assert_ne!(fwd, other);
    }

    #[test]
    fn regional_spike_sums_and_respects_direction() {
        let plan = FleetFaultPlan::new(3)
            .window(
                10.0,
                20.0,
                ChaosEvent::RegionalDelaySpike {
                    region: ClientRange::new(0, 10),
                    extra_up_ms: 5.0,
                    extra_down_ms: 80.0,
                },
            )
            .window(
                15.0,
                25.0,
                ChaosEvent::RegionalDelaySpike {
                    region: ClientRange::new(5, 15),
                    extra_up_ms: 1.0,
                    extra_down_ms: 2.0,
                },
            );
        assert_eq!(plan.extra_delay_up(3, t(12.0)), SimDuration::from_millis(5));
        assert_eq!(plan.extra_delay_down(3, t(12.0)), SimDuration::from_millis(80));
        // Client 7 is in both domains at t=16.
        assert_eq!(plan.extra_delay_up(7, t(16.0)), SimDuration::from_millis(6));
        // Client 12 only in the second.
        assert_eq!(plan.extra_delay_up(12, t(16.0)), SimDuration::from_millis(1));
        assert_eq!(plan.extra_delay_up(3, t(30.0)), SimDuration::ZERO);
    }

    #[test]
    fn duplicate_and_corrupt_apply_to_downlink_only() {
        let both = FleetFaultPlan::new(11)
            .window(0.0, 1e9, ChaosEvent::DuplicateReply { prob: 1.0 })
            .window(0.0, 1e9, ChaosEvent::CorruptReply { prob: 1.0 });
        assert!(!both.drop_uplink(0, 0, t(1.0)));
        assert!(!both.drop_downlink(0, 0, t(1.0)));
        // The corrupt window is listed second, but corruption outranks
        // duplication: with both at p=1 the reply is corrupted.
        assert_eq!(both.downlink_fate(0, 0, t(1.0)), PacketFate::Corrupt);
        let dup_only =
            FleetFaultPlan::new(12).window(0.0, 1e9, ChaosEvent::DuplicateReply { prob: 1.0 });
        assert_eq!(dup_only.downlink_fate(0, 0, t(1.0)), PacketFate::Duplicate);
        assert_eq!(dup_only.downlink_fate(0, 0, t(1e9)), PacketFate::Deliver);
    }

    #[test]
    fn kod_window_reports_min_poll_for_covered_servers() {
        let plan = FleetFaultPlan::new(13)
            .window(
                50.0,
                150.0,
                ChaosEvent::KissODeath { servers: ServerSet::One(1), min_poll_secs: 64.0 },
            )
            .window(
                100.0,
                200.0,
                ChaosEvent::KissODeath { servers: ServerSet::One(1), min_poll_secs: 256.0 },
            )
            .window(
                120.0,
                130.0,
                ChaosEvent::KissODeath { servers: ServerSet::One(1), min_poll_secs: 16.0 },
            );
        assert_eq!(plan.kod_min_poll(1, t(60.0)), Some(SimDuration::from_secs(64)));
        // Overlapping windows: the largest floor wins.
        assert_eq!(plan.kod_min_poll(1, t(125.0)), Some(SimDuration::from_secs(256)));
        assert_eq!(plan.kod_min_poll(1, t(10.0)), None);
        assert_eq!(plan.kod_min_poll(0, t(125.0)), None);
        // Only the named server is managed, inside its windows or not.
        assert!(plan.kod_manages(1));
        assert!(!plan.kod_manages(0));
    }

    #[test]
    fn falseticker_onset_fires_once_per_server() {
        let plan = FleetFaultPlan::new(4)
            .at(100.0, ChaosEvent::FalsetickerOnset { server: 2, error_ms: 120.0 })
            .at(150.0, ChaosEvent::FalsetickerOnset { server: 2, error_ms: -20.0 });
        let mut latch = ServerChaosLatch::new(&plan);
        assert_eq!(plan.take_falseticker_onsets(&mut latch, 2, t(99.0)), None);
        assert_eq!(plan.take_falseticker_onsets(&mut latch, 2, t(100.0)), Some(120.0));
        assert_eq!(plan.take_falseticker_onsets(&mut latch, 2, t(120.0)), None);
        // Both due when the query jumps past them; summed, once.
        assert_eq!(plan.take_falseticker_onsets(&mut latch, 2, t(200.0)), Some(-20.0));
        assert_eq!(plan.take_falseticker_onsets(&mut latch, 3, t(200.0)), None);
    }

    #[test]
    fn restart_fires_once_after_outage_ends() {
        let plan = FleetFaultPlan::new(5).window(
            100.0,
            200.0,
            ChaosEvent::ServerOutage { servers: ServerSet::One(1) },
        );
        let mut latch = ServerChaosLatch::new(&plan);
        assert!(!plan.take_restarts(&mut latch, 1, t(150.0)));
        assert!(!plan.take_restarts(&mut latch, 0, t(250.0)));
        assert!(plan.take_restarts(&mut latch, 1, t(200.0)));
        assert!(!plan.take_restarts(&mut latch, 1, t(300.0)));
    }

    #[test]
    fn wave_steps_each_client_once_inside_window() {
        let region = ClientRange::new(0, 64);
        let plan = FleetFaultPlan::new(6).window(
            100.0,
            160.0,
            ChaosEvent::ClockStepWave { region, offset_ms: -250.0 },
        );
        let mut latch = ClientChaosLatch::new(&plan, 64);
        // Nobody fires before the window.
        for c in 0..64 {
            assert_eq!(plan.take_client_steps(&mut latch, c as usize, c, t(99.9)), None);
        }
        // By window end everyone fired exactly once; instants spread.
        let mut fired_at = Vec::new();
        for step in 0..=600 {
            let now = t(100.0 + step as f64 * 0.1);
            for c in 0..64u32 {
                if plan.take_client_steps(&mut latch, c as usize, c, now) == Some(-250.0) {
                    fired_at.push((c, step));
                }
            }
        }
        assert_eq!(fired_at.len(), 64, "every domain client steps exactly once");
        let first = fired_at.iter().map(|(_, s)| *s).min().unwrap_or(0);
        let last = fired_at.iter().map(|(_, s)| *s).max().unwrap_or(0);
        assert!(last > first + 100, "wave is spread across the window, not a spike");
        // Nothing refires afterwards.
        for c in 0..64 {
            assert_eq!(plan.take_client_steps(&mut latch, c as usize, c, t(1e6)), None);
        }
        // Clients outside the domain never fire.
        let mut latch2 = ClientChaosLatch::new(&plan, 1);
        assert_eq!(plan.take_client_steps(&mut latch2, 0, 64, t(1e6)), None);
    }

    #[test]
    fn wave_instants_independent_of_latch_layout() {
        // The same wave, latched in two chunks vs one: the per-client
        // step instants are a pure function of (plan, client id), so a
        // sharded runner computes the identical wave.
        let region = ClientRange::new(0, 32);
        let plan = FleetFaultPlan::new(7).window(
            10.0,
            50.0,
            ChaosEvent::ClockStepWave { region, offset_ms: 100.0 },
        );
        let fire_step = |latch: &mut ClientChaosLatch, local: usize, client: u32| {
            (0..4000)
                .find(|s| {
                    plan.take_client_steps(latch, local, client, t(*s as f64 * 0.01)).is_some()
                })
                .unwrap_or(usize::MAX)
        };
        let mut whole = ClientChaosLatch::new(&plan, 32);
        let whole_steps: Vec<usize> =
            (0..32u32).map(|c| fire_step(&mut whole, c as usize, c)).collect();
        let mut lo = ClientChaosLatch::new(&plan, 16);
        let mut hi = ClientChaosLatch::new(&plan, 16);
        let split_steps: Vec<usize> = (0..32u32)
            .map(|c| {
                if c < 16 {
                    fire_step(&mut lo, c as usize, c)
                } else {
                    fire_step(&mut hi, (c - 16) as usize, c)
                }
            })
            .collect();
        assert_eq!(whole_steps, split_steps);
    }

    #[test]
    fn inverted_and_negative_windows_saturate() {
        let plan = FleetFaultPlan::new(8).window(
            -30.0,
            10.0,
            ChaosEvent::ServerOutage { servers: ServerSet::All },
        );
        assert!(plan.server_down(0, t(0.0)));
        assert!(plan.server_down(0, t(9.9)));
        assert!(!plan.server_down(0, t(10.0)));
    }

    /// An inverted window is a caller bug: it trips the debug assertion
    /// rather than silently never matching.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn inverted_window_panics_in_debug() {
        let _ = FleetFaultPlan::new(14).window(
            200.0,
            100.0,
            ChaosEvent::ServerOutage { servers: ServerSet::All },
        );
    }

    /// Release builds saturate an inverted window to the empty one at
    /// its start: the servers are never down, and the restart fires at
    /// 200 s, not at the 100 s the caller wrote as the end.
    #[cfg(not(debug_assertions))]
    #[test]
    fn inverted_window_saturates_in_release() {
        let plan = FleetFaultPlan::new(14).window(
            200.0,
            100.0,
            ChaosEvent::ServerOutage { servers: ServerSet::All },
        );
        assert!(!plan.server_down(0, t(150.0)));
        assert!(!plan.server_down(0, t(200.0)));
        let mut latch = ServerChaosLatch::new(&plan);
        assert!(!plan.take_restarts(&mut latch, 0, t(199.0)));
        assert!(plan.take_restarts(&mut latch, 0, t(200.0)));
    }

    #[test]
    fn instant_wave_steps_everyone_at_start() {
        let plan = FleetFaultPlan::new(9)
            .at(42.0, ChaosEvent::ClockStepWave { region: ClientRange::all(8), offset_ms: 7.0 });
        let mut latch = ClientChaosLatch::new(&plan, 8);
        for c in 0..8u32 {
            assert_eq!(plan.take_client_steps(&mut latch, c as usize, c, t(41.99)), None);
        }
        for c in 0..8u32 {
            assert_eq!(plan.take_client_steps(&mut latch, c as usize, c, t(42.0)), Some(7.0));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use devtools::prop;
    use devtools::{prop_assert, prop_assert_eq, props};

    /// A generated window: (kind 0..8, start, length, probability or
    /// scale, domain pick 0..3).
    type Row = (usize, f64, f64, f64, usize);

    /// The plan `rows` describe, with every row whose kind `muted`
    /// names moved past all query instants. Muting keeps each other
    /// window's draws: a lane depends only on the seed and the row index.
    fn build(seed: u64, rows: &[Row], muted: &[usize]) -> FleetFaultPlan {
        rows.iter().fold(FleetFaultPlan::new(seed), |plan, &(kind, start, len, p, pick)| {
            let region = ClientRange::new(pick as u32, 3);
            let servers = if pick == 0 { ServerSet::All } else { ServerSet::One(pick) };
            let event = match kind {
                0 => ChaosEvent::RegionalLossStorm { region, loss_prob: p },
                1 => ChaosEvent::RegionalDelaySpike {
                    region,
                    extra_up_ms: 100.0 * p,
                    extra_down_ms: 50.0,
                },
                2 => ChaosEvent::ServerOutage { servers },
                3 => ChaosEvent::FalsetickerOnset { server: pick, error_ms: 100.0 * p },
                4 => ChaosEvent::ClockStepWave { region, offset_ms: 100.0 * p },
                5 => ChaosEvent::KissODeath { servers, min_poll_secs: 100.0 * p },
                6 => ChaosEvent::DuplicateReply { prob: p },
                _ => ChaosEvent::CorruptReply { prob: p },
            };
            let start = if muted.contains(&kind) { 1e6 } else { start };
            plan.window(start, start + len, event)
        })
    }

    props! {
        /// `downlink_fate` over random plans drawing from all eight
        /// kinds: Drop exactly when `drop_downlink` says so, drop
        /// outranks corrupt outranks duplicate, no reply-mangling window
        /// means no Corrupt or Duplicate, and query order is irrelevant.
        fn downlink_fate_ranks_drop_then_corrupt_then_duplicate(
            seed in prop::any_u64(),
            rows in prop::vecs(
                (
                    prop::sizes(0..8),
                    prop::floats(0.0..60.0),
                    prop::floats(0.0..40.0),
                    prop::floats(0.0..1.0),
                    prop::sizes(0..3),
                ),
                0..8
            )
        ) {
            let full = build(seed, &rows, &[]);
            let no_drop = build(seed, &rows, &[0, 2]);
            let no_dup = build(seed, &rows, &[6]);
            let no_mangle = build(seed, &rows, &[6, 7]);
            let queries: Vec<(u32, usize, SimTime)> = (0..3u32)
                .flat_map(|c| (0..3usize).map(move |s| (c, s)))
                .flat_map(|(c, s)| {
                    (0..50).map(move |i| (c, s, SimTime::from_millis(i * 1700)))
                })
                .collect();
            let fates: Vec<PacketFate> =
                queries.iter().map(|&(c, s, at)| full.downlink_fate(c, s, at)).collect();
            for (&(c, s, at), &fate) in queries.iter().zip(&fates) {
                prop_assert_eq!(fate == PacketFate::Drop, full.drop_downlink(c, s, at));
                // Below a drop, the answer is the drop-free plan's.
                if fate != PacketFate::Drop {
                    prop_assert_eq!(fate, no_drop.downlink_fate(c, s, at));
                }
                // Duplicate windows only ever add Duplicate, and never
                // over a corruption.
                let without_dup =
                    if fate == PacketFate::Duplicate { PacketFate::Deliver } else { fate };
                prop_assert_eq!(no_dup.downlink_fate(c, s, at), without_dup);
                let plain = no_mangle.downlink_fate(c, s, at);
                prop_assert!(
                    matches!(plain, PacketFate::Deliver | PacketFate::Drop),
                    "no mangling window, yet {plain:?}"
                );
                prop_assert_eq!(plain == PacketFate::Drop, fate == PacketFate::Drop);
            }
            // The same queries backwards, on a clone: the same answers.
            let again = full.clone();
            let mut backwards: Vec<PacketFate> =
                queries.iter().rev().map(|&(c, s, at)| again.downlink_fate(c, s, at)).collect();
            backwards.reverse();
            prop_assert_eq!(backwards, fates);
        }
    }
}
