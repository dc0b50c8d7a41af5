//! The simulated `pool.ntp.org`.
//!
//! The paper's clients send every request to `0.pool.ntp.org`, and "every
//! SNTP request to the pool server is randomly assigned to a new NTP time
//! reference" (§3.2). The pool here is a population of [`SimServer`]s
//! with independently drawn clock errors and backbone delays; each
//! request picks a server uniformly at random.
//!
//! A configurable fraction of the population are **false tickers** —
//! servers whose clocks are off by tens to hundreds of ms. Public-pool
//! measurement studies (Vijayalayan & Veitch, "Rot at the Roots?", which
//! the paper cites) found exactly such servers in the wild; they are what
//! MNTP's warmup-phase mean+1σ rejection exists to filter out.

use clocksim::rng::SimRng;
use netsim::link::{DelayModel, Link, LossModel};

use crate::server::SimServer;

/// The module's single panic site: a server id that this pool or tracker
/// never issued. Ids are handles handed out by `pick`/`pick_distinct`,
/// so an out-of-range id is a caller bug reported loudly here instead of
/// via scattered indexing sites.
#[cold]
#[inline(never)]
fn foreign_id(who: &'static str, id: usize, len: usize) -> ! {
    // lint:allow(no-panic) — the pool's one audited panic: ids are handles issued by pick()/pick_distinct(), so an out-of-range id is a caller bug worth a loud, attributable failure
    panic!("{who}: foreign server id {id} (pool of {len})")
}

/// A server handle as the accessors see it: just the vector index, but
/// every conversion back to a slot goes through the bounds-checked
/// `resolve` pair below, keeping [`foreign_id`] the only panic path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ServerId(usize);

impl ServerId {
    fn resolve<'a, T>(self, slots: &'a [T], who: &'static str) -> &'a T {
        match slots.get(self.0) {
            Some(s) => s,
            None => foreign_id(who, self.0, slots.len()),
        }
    }

    fn resolve_mut<'a, T>(self, slots: &'a mut [T], who: &'static str) -> &'a mut T {
        let len = slots.len();
        match slots.get_mut(self.0) {
            Some(s) => s,
            None => foreign_id(who, self.0, len),
        }
    }
}

/// Pool population parameters.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Number of servers.
    pub size: usize,
    /// σ of well-behaved servers' clock errors, ms.
    pub good_error_sigma_ms: f64,
    /// Fraction of false tickers.
    pub false_ticker_fraction: f64,
    /// False-ticker error magnitude range, ms.
    pub false_ticker_error_ms: (f64, f64),
    /// Range of per-server backbone median OWDs, ms.
    pub backbone_median_ms: (f64, f64),
    /// Backbone packet loss probability per leg.
    pub backbone_loss: f64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            size: 24,
            good_error_sigma_ms: 1.0,
            false_ticker_fraction: 0.05,
            false_ticker_error_ms: (15.0, 60.0),
            backbone_median_ms: (12.0, 45.0),
            backbone_loss: 0.002,
        }
    }
}

/// A population of simulated pool servers.
pub struct ServerPool {
    servers: Vec<SimServer>,
    /// Uniform selection over `servers`, drawing from the pool seed's
    /// stream where server construction left it.
    select: PickLane,
}

impl ServerPool {
    /// Build a pool from config and a seed.
    pub fn new(cfg: PoolConfig, seed: u64) -> Self {
        let mut rng = SimRng::new(seed);
        let mut servers = Vec::with_capacity(cfg.size);
        for id in 0..cfg.size {
            let is_false_ticker = rng.chance(cfg.false_ticker_fraction);
            let error_ms = if is_false_ticker {
                let mag = rng.uniform_range(cfg.false_ticker_error_ms.0, cfg.false_ticker_error_ms.1);
                if rng.chance(0.5) {
                    mag
                } else {
                    -mag
                }
            } else {
                rng.normal(0.0, cfg.good_error_sigma_ms)
            };
            let median = rng.uniform_range(cfg.backbone_median_ms.0, cfg.backbone_median_ms.1);
            let mk_link = |rng: &mut SimRng| {
                let _ = rng; // per-link state is inside the models
                Link {
                    delay: DelayModel::backbone(median),
                    loss: LossModel::Bernoulli(cfg.backbone_loss),
                }
            };
            let up = mk_link(&mut rng);
            let down = mk_link(&mut rng);
            servers.push(SimServer::with_error_ms(id, error_ms, (up, down), &mut rng));
        }
        let select = PickLane { rng, servers: servers.len() };
        ServerPool { servers, select }
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Pick a uniformly random server (a fresh DNS resolution of
    /// `N.pool.ntp.org`), returning its index.
    pub fn pick(&mut self) -> usize {
        self.select.pick()
    }

    /// Pick `n` *distinct* random servers — what querying
    /// `0/1/3.pool.ntp.org` in parallel yields.
    pub fn pick_distinct(&mut self, n: usize) -> Vec<usize> {
        self.select.pick_distinct(n)
    }

    /// Access a server by index. Panics (via `foreign_id`) on an id
    /// this pool never issued.
    pub fn server_mut(&mut self, id: usize) -> &mut SimServer {
        ServerId(id).resolve_mut(&mut self.servers, "ServerPool::server_mut")
    }

    /// Immutable access (tests/diagnostics).
    pub fn server(&self, id: usize) -> &SimServer {
        ServerId(id).resolve(&self.servers, "ServerPool::server")
    }

    /// Ground truth: indices of servers whose clock error exceeds
    /// `threshold_ms` (for validating false-ticker rejection).
    pub fn false_tickers(&self, threshold_ms: f64) -> Vec<usize> {
        self.servers
            .iter()
            .filter(|s| s.true_error_ms.abs() > threshold_ms)
            .map(|s| s.id)
            .collect()
    }
}

/// Random server selection, abstracted away from the pool that owns the
/// server state.
///
/// Single-client drivers hand disciplines the [`ServerPool`] itself:
/// selection draws from the pool's own RNG. At fleet scale that shared
/// RNG would serialize every client through one mutable pool — and make
/// the draw order depend on scheduling — so each fleet client instead
/// owns a [`PickLane`]: a private selection RNG over the same server
/// index space. Disciplines only see `&mut dyn ServerSelect` and work
/// unchanged in both worlds.
pub trait ServerSelect {
    /// Number of selectable servers.
    fn len(&self) -> usize;

    /// True when no servers are selectable.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pick a uniformly random server index (a fresh DNS resolution of
    /// `N.pool.ntp.org`).
    fn pick(&mut self) -> usize;

    /// Pick `n` *distinct* random server indices — what querying
    /// `0/1/3.pool.ntp.org` in parallel yields.
    fn pick_distinct(&mut self, n: usize) -> Vec<usize>;
}

impl ServerSelect for ServerPool {
    fn len(&self) -> usize {
        ServerPool::len(self)
    }
    fn pick(&mut self) -> usize {
        ServerPool::pick(self)
    }
    fn pick_distinct(&mut self, n: usize) -> Vec<usize> {
        ServerPool::pick_distinct(self, n)
    }
}

/// A server-selection lane: uniform pick / distinct-shuffle draws from
/// a private RNG stream over a server index space owned elsewhere. Each
/// fleet client owns one; a [`ServerPool`] holds one over its servers.
#[derive(Clone, Debug)]
pub struct PickLane {
    rng: SimRng,
    servers: usize,
}

impl PickLane {
    /// A selection lane over `servers` indices, seeded independently of
    /// every other client's lane.
    pub fn new(servers: usize, seed: u64) -> Self {
        PickLane { rng: SimRng::new(seed), servers }
    }
}

impl ServerSelect for PickLane {
    fn len(&self) -> usize {
        self.servers
    }
    fn pick(&mut self) -> usize {
        self.rng.index(self.servers)
    }
    fn pick_distinct(&mut self, n: usize) -> Vec<usize> {
        let n = n.min(self.servers);
        let mut ids: Vec<usize> = (0..self.servers).collect();
        self.rng.shuffle(&mut ids);
        ids.truncate(n);
        ids
    }
}

/// Health-tracking policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// Consecutive failures before a server is demoted (temporarily
    /// blacklisted).
    pub demote_after: u32,
    /// Blacklist duration for the first demotion, seconds.
    pub demote_secs: f64,
    /// Each repeat demotion multiplies the ban by this factor…
    pub demote_growth: f64,
    /// …up to this cap, seconds.
    pub max_demote_secs: f64,
    /// Extra spacing honored after a `RATE` kiss code, seconds. The
    /// default equals `netsim::admission::HEALTH_RATE_BAN_SECS`, the cap
    /// on every server-side load floor.
    pub rate_backoff_secs: f64,
    /// Blacklist duration after `DENY`/`RSTR` (access refused — treat
    /// the server as gone for a long time), seconds.
    pub deny_secs: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            demote_after: 4,
            demote_secs: 60.0,
            demote_growth: 2.0,
            max_demote_secs: 900.0,
            rate_backoff_secs: 64.0,
            deny_secs: 3600.0,
        }
    }
}

/// Per-server failure and sanction state, ntpd-style. Selection reads
/// only the ban expiry.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerHealth {
    /// Failures since the last success.
    consecutive_failures: u32,
    /// Demotions served so far (drives the growing ban; decays on
    /// success).
    demotions: u32,
    /// Server is blacklisted until this time, seconds.
    banned_until_secs: f64,
}

impl ServerHealth {
    /// True when the server may be queried at time `t` (not blacklisted).
    pub fn eligible(&self, t_secs: f64) -> bool {
        t_secs >= self.banned_until_secs
    }

    /// When the current sanction lapses (0 when never sanctioned).
    pub fn banned_until_secs(&self) -> f64 {
        self.banned_until_secs
    }
}

/// Tracks [`ServerHealth`] for a whole pool and performs failover
/// selection: healthy servers are picked at random; demoted servers sit
/// out a growing-but-decaying ban; `DENY`/`RSTR` kiss codes remove a
/// server for a long time. Owns a private RNG stream so selection
/// replays deterministically and never perturbs the pool's own stream.
#[derive(Clone, Debug)]
pub struct HealthTracker {
    cfg: HealthConfig,
    servers: Vec<ServerHealth>,
    rng: SimRng,
}

impl HealthTracker {
    /// Track `n` servers under `cfg`; `seed` fixes the selection stream.
    pub fn new(n: usize, cfg: HealthConfig, seed: u64) -> Self {
        HealthTracker { cfg, servers: vec![ServerHealth::default(); n], rng: SimRng::new(seed) }
    }

    /// Health of server `id`.
    pub fn health(&self, id: usize) -> &ServerHealth {
        ServerId(id).resolve(&self.servers, "HealthTracker::health")
    }

    /// Record a successful exchange with `id` at time `t`.
    pub fn on_success(&mut self, id: usize, _t_secs: f64) {
        let h = ServerId(id).resolve_mut(&mut self.servers, "HealthTracker::on_success");
        h.consecutive_failures = 0;
        // Decay: good behaviour halves the demotion memory, so an old
        // incident stops inflating future bans.
        h.demotions /= 2;
    }

    /// Record a failed exchange (loss, timeout, corrupt reply) with `id`.
    pub fn on_failure(&mut self, id: usize, t_secs: f64) {
        let cfg = self.cfg;
        let h = ServerId(id).resolve_mut(&mut self.servers, "HealthTracker::on_failure");
        h.consecutive_failures += 1;
        if h.consecutive_failures >= cfg.demote_after {
            let ban = (cfg.demote_secs * cfg.demote_growth.powi(h.demotions.min(16) as i32))
                .min(cfg.max_demote_secs);
            h.banned_until_secs = h.banned_until_secs.max(t_secs + ban);
            h.demotions = h.demotions.saturating_add(1);
            h.consecutive_failures = 0;
        }
    }

    /// Record a kiss-o'-death from `id`; the code decides the sanction.
    pub fn on_kod(&mut self, id: usize, code: [u8; 4], t_secs: f64) {
        let cfg = self.cfg;
        let h = ServerId(id).resolve_mut(&mut self.servers, "HealthTracker::on_kod");
        let ban = match &code {
            b"DENY" | b"RSTR" => cfg.deny_secs,
            _ => cfg.rate_backoff_secs,
        };
        h.banned_until_secs = h.banned_until_secs.max(t_secs + ban);
    }

    /// Pick one server to query at time `t`: uniformly random among the
    /// eligible; when *every* server is blacklisted, the one whose ban
    /// lapses soonest (lowest id breaking ties) — a client must always
    /// have a next server to try.
    pub fn pick(&mut self, t_secs: f64) -> usize {
        let eligible: Vec<usize> = self
            .servers
            .iter()
            .enumerate()
            .filter(|(_, s)| s.eligible(t_secs))
            .map(|(i, _)| i)
            .collect();
        if eligible.is_empty() {
            // A tracker is always constructed over a non-empty pool; an
            // empty one degenerates to id 0 (which the accessors will
            // then report as foreign, attributably).
            return self
                .servers
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.banned_until_secs.total_cmp(&b.banned_until_secs))
                .map(|(i, _)| i)
                .unwrap_or_default();
        }
        let k = self.rng.index(eligible.len());
        eligible.get(k).copied().unwrap_or_default()
    }

    /// Pick up to `n` distinct servers, eligible ones first (shuffled),
    /// topped up with blacklisted ones (soonest-lapsing first) only when
    /// the eligible population is too small.
    pub fn pick_distinct(&mut self, n: usize, t_secs: f64) -> Vec<usize> {
        let mut eligible: Vec<usize> = self
            .servers
            .iter()
            .enumerate()
            .filter(|(_, s)| s.eligible(t_secs))
            .map(|(i, _)| i)
            .collect();
        self.rng.shuffle(&mut eligible);
        if eligible.len() < n {
            let mut banned: Vec<(f64, usize)> = self
                .servers
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.eligible(t_secs))
                .map(|(i, s)| (s.banned_until_secs, i))
                .collect();
            banned.sort_by(|(a, _), (b, _)| a.total_cmp(b));
            eligible.extend(banned.into_iter().map(|(_, i)| i));
        }
        eligible.truncate(n.min(self.servers.len()));
        eligible
    }

    /// How many servers are currently eligible.
    pub fn eligible_count(&self, t_secs: f64) -> usize {
        self.servers.iter().filter(|h| h.eligible(t_secs)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A client that waits out this back-off after a RATE kiss is never
    /// RATE'd again only because every server-side load floor is capped
    /// at the same ban (`netsim::admission::Ladder::clamped`).
    #[test]
    fn rate_backoff_matches_server_ban() {
        assert_eq!(
            HealthConfig::default().rate_backoff_secs,
            netsim::admission::HEALTH_RATE_BAN_SECS
        );
    }

    #[test]
    fn pool_has_mostly_good_servers() {
        let pool = ServerPool::new(PoolConfig::default(), 1);
        let bad = pool.false_tickers(20.0).len();
        assert!(bad <= pool.len() / 3, "too many false tickers: {bad}");
        let good = pool.len() - bad;
        assert!(good >= pool.len() / 2);
    }

    #[test]
    fn some_seed_produces_false_tickers() {
        // With 10% fraction and 24 servers, most seeds have ≥1.
        let mut any = false;
        for seed in 0..5 {
            if !ServerPool::new(PoolConfig::default(), seed).false_tickers(20.0).is_empty() {
                any = true;
            }
        }
        assert!(any, "no false tickers across 5 seeds — model broken");
    }

    #[test]
    fn pick_covers_population() {
        let mut pool = ServerPool::new(PoolConfig { size: 8, ..Default::default() }, 2);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[pool.pick()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn pick_distinct_is_distinct() {
        let mut pool = ServerPool::new(PoolConfig::default(), 3);
        for _ in 0..50 {
            let ids = pool.pick_distinct(3);
            assert_eq!(ids.len(), 3);
            assert_ne!(ids[0], ids[1]);
            assert_ne!(ids[1], ids[2]);
            assert_ne!(ids[0], ids[2]);
        }
    }

    #[test]
    fn pick_distinct_clamps_to_pool_size() {
        let mut pool = ServerPool::new(PoolConfig { size: 2, ..Default::default() }, 4);
        assert_eq!(pool.pick_distinct(5).len(), 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let errors = |seed| {
            let pool = ServerPool::new(PoolConfig::default(), seed);
            (0..pool.len()).map(|i| pool.server(i).true_error_ms).collect::<Vec<_>>()
        };
        assert_eq!(errors(5), errors(5));
        assert_ne!(errors(5), errors(6));
    }

    #[test]
    fn consecutive_failures_demote_and_bans_grow_then_decay() {
        let cfg = HealthConfig {
            demote_after: 3,
            demote_secs: 60.0,
            demote_growth: 2.0,
            max_demote_secs: 900.0,
            ..Default::default()
        };
        let mut tr = HealthTracker::new(1, cfg, 2);
        for _ in 0..3 {
            tr.on_failure(0, 100.0);
        }
        // First demotion: banned for 60 s.
        assert!(!tr.health(0).eligible(100.0));
        assert_eq!(tr.health(0).banned_until_secs(), 160.0);
        assert!(tr.health(0).eligible(160.0));
        // Second demotion doubles the ban.
        for _ in 0..3 {
            tr.on_failure(0, 200.0);
        }
        assert_eq!(tr.health(0).banned_until_secs(), 320.0);
        // Two successes decay the demotion memory back to zero…
        tr.on_success(0, 400.0);
        tr.on_success(0, 401.0);
        // …so the next demotion is a fresh 60 s again.
        for _ in 0..3 {
            tr.on_failure(0, 500.0);
        }
        assert_eq!(tr.health(0).banned_until_secs(), 560.0);
    }

    #[test]
    fn kiss_codes_sanction_by_severity() {
        let mut tr = HealthTracker::new(2, HealthConfig::default(), 3);
        tr.on_kod(0, *b"RATE", 100.0);
        assert!(!tr.health(0).eligible(100.0));
        assert!(tr.health(0).eligible(164.0));
        tr.on_kod(1, *b"DENY", 100.0);
        assert!(!tr.health(1).eligible(1000.0));
        assert!(tr.health(1).eligible(3700.0));
        assert_eq!(tr.health(0).banned_until_secs(), 164.0);
        assert_eq!(tr.health(1).banned_until_secs(), 3700.0);
    }

    #[test]
    fn pick_avoids_blacklisted_servers() {
        let mut tr = HealthTracker::new(4, HealthConfig::default(), 4);
        tr.on_kod(2, *b"DENY", 0.0);
        for _ in 0..200 {
            assert_ne!(tr.pick(10.0), 2);
        }
        assert_eq!(tr.eligible_count(10.0), 3);
    }

    #[test]
    fn pick_falls_back_to_soonest_lapsing_ban_when_all_down() {
        let mut tr = HealthTracker::new(3, HealthConfig::default(), 5);
        tr.on_kod(0, *b"DENY", 0.0);
        tr.on_kod(1, *b"RATE", 0.0);
        tr.on_kod(2, *b"DENY", 0.0);
        // Everyone banned; server 1's RATE lapses first.
        assert_eq!(tr.pick(1.0), 1);
    }

    #[test]
    fn pick_distinct_prefers_eligible_and_tops_up() {
        let mut tr = HealthTracker::new(4, HealthConfig::default(), 6);
        tr.on_kod(1, *b"DENY", 0.0);
        tr.on_kod(3, *b"RATE", 0.0);
        let picked = tr.pick_distinct(3, 10.0);
        assert_eq!(picked.len(), 3);
        // The two eligible servers must both be there; the top-up is the
        // soonest-lapsing ban (RATE before DENY).
        assert!(picked.contains(&0) && picked.contains(&2));
        assert!(picked.contains(&3));
        assert!(!picked.contains(&1));
    }

    #[test]
    fn tracker_selection_is_deterministic() {
        let run = |seed| {
            let mut tr = HealthTracker::new(8, HealthConfig::default(), seed);
            (0..100)
                .map(|i| {
                    let id = tr.pick(i as f64);
                    if i % 3 == 0 {
                        tr.on_failure(id, i as f64);
                    } else {
                        tr.on_success(id, i as f64);
                    }
                    id
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
