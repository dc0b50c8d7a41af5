//! The assembled NTP daemon and its client-stack adapter.
//!
//! [`Ntpd`] owns a set of peer associations (each a [`ClockFilter`] plus
//! reachability and poll state) and runs the full mitigation pipeline
//! (filter → select → cluster → combine → discipline) every time a peer
//! delivers a fresh working sample. [`NtpdDiscipline`] puts it behind
//! the workspace's `mntp::Discipline` trait, so `mntp::drive` runs it
//! against the simulated testbed for head-to-head comparisons with SNTP
//! and MNTP — the benchmarking the paper lists as future work — and
//! `mntp::run_fleet_on` runs it inside a fleet.

use clocksim::time::SimTime;
use clocksim::SimClock;
use sntp::select::{cluster, combine, select_survivors, PeerCandidate};

use crate::clock_filter::{ClockFilter, FilterSample};
use crate::discipline::{Discipline, DisciplineConfig, DisciplineVerdict};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct NtpdConfig {
    /// Peer (server) ids to associate with.
    pub peers: Vec<usize>,
    /// Discipline tuning.
    pub discipline: DisciplineConfig,
}

impl NtpdConfig {
    /// Standard four-peer configuration over the given server ids.
    pub fn with_peers(peers: Vec<usize>) -> Self {
        NtpdConfig { peers, discipline: DisciplineConfig::default() }
    }
}

/// Per-peer association state.
#[derive(Clone, Debug)]
struct Peer {
    server_id: usize,
    filter: ClockFilter,
    /// 8-bit reachability shift register (RFC 5905 §9.2).
    reach: u8,
    /// Next poll, local seconds.
    next_poll_secs: f64,
    /// The peer's standing candidate: its last working sample. A peer
    /// stays in the selection population even in rounds where it has no
    /// *fresh* sample — otherwise a lone falseticker that happens to be
    /// the only fresh peer would win a trivial "majority of one".
    candidate: Option<PeerCandidate>,
}

/// The daemon.
#[derive(Clone, Debug)]
pub struct Ntpd {
    peers: Vec<Peer>,
    discipline: Discipline,
}

impl Ntpd {
    /// New daemon; peers are polled immediately, staggered by 2 s.
    pub fn new(cfg: &NtpdConfig) -> Self {
        let peers = cfg
            .peers
            .iter()
            .enumerate()
            .map(|(i, &server_id)| Peer {
                server_id,
                filter: ClockFilter::new(),
                reach: 0,
                next_poll_secs: i as f64 * 2.0,
                candidate: None,
            })
            .collect();
        Ntpd {
            peers,
            discipline: Discipline::new(cfg.discipline.clone()),
        }
    }

    /// Server ids due for polling at local time `now_secs`.
    pub fn due_peers(&self, now_secs: f64) -> Vec<usize> {
        self.peers
            .iter()
            .filter(|p| now_secs >= p.next_poll_secs)
            .map(|p| p.server_id)
            .collect()
    }

    /// Record a completed exchange for `server_id`.
    pub fn on_sample(&mut self, now_secs: f64, server_id: usize, offset: f64, delay: f64) {
        let poll = self.discipline.poll_interval_secs();
        if let Some(p) = self.peers.iter_mut().find(|p| p.server_id == server_id) {
            p.reach = (p.reach << 1) | 1;
            p.filter.push(FilterSample {
                offset,
                delay,
                dispersion: 0.001,
                at_secs: now_secs,
            });
            p.next_poll_secs = now_secs + poll;
        }
    }

    /// Record a failed poll for `server_id`.
    pub fn on_poll_failed(&mut self, now_secs: f64, server_id: usize) {
        let poll = self.discipline.poll_interval_secs();
        if let Some(p) = self.peers.iter_mut().find(|p| p.server_id == server_id) {
            p.reach <<= 1;
            p.next_poll_secs = now_secs + poll;
        }
    }

    /// Run the mitigation pipeline; returns clock commands to apply.
    pub fn mitigate(&mut self, now_secs: f64) -> Vec<clocksim::ClockCommand> {
        let mut candidates = Vec::new();
        for p in &mut self.peers {
            if p.reach == 0 {
                continue;
            }
            let jitter = p.filter.jitter();
            let dispersion = p.filter.dispersion(now_secs);
            if let Some(s) = p.filter.working_sample(now_secs) {
                p.candidate = Some(PeerCandidate {
                    peer_id: p.server_id,
                    offset: s.offset,
                    root_distance: s.delay / 2.0 + s.dispersion + dispersion,
                    jitter,
                });
            }
            if let Some(c) = p.candidate {
                candidates.push(c);
            }
        }
        if candidates.is_empty() {
            return Vec::new();
        }
        let survivor_ids = select_survivors(&candidates);
        if survivor_ids.is_empty() {
            return Vec::new();
        }
        let survivors: Vec<PeerCandidate> = candidates
            .into_iter()
            .filter(|c| survivor_ids.contains(&c.peer_id))
            .collect();
        let survivors = cluster(survivors);
        let Some(offset) = combine(&survivors) else {
            return Vec::new();
        };
        let jitter = survivors.iter().map(|c| c.jitter).fold(0.0f64, f64::max);
        let verdict = self.discipline.update(now_secs, offset, jitter);
        if verdict == DisciplineVerdict::Stepped {
            // Every stored sample was measured against the pre-step clock
            // and would poison the next rounds: flush the filters.
            for p in &mut self.peers {
                p.filter = ClockFilter::new();
                p.candidate = None;
            }
        }
        self.discipline.take_commands()
    }

    /// Current poll interval (drives the simulation cadence).
    pub fn poll_interval_secs(&self) -> f64 {
        self.discipline.poll_interval_secs()
    }
}

/// [`Ntpd`] behind the workspace-wide [`mntp::Discipline`] trait: the
/// RFC 5905 client stack as the generic driver (and the fleet world)
/// sees it.
///
/// ntpd is hint-blind and self-paced: `poll` reads the *local* clock's
/// notion of elapsed seconds — as a real daemon would — and asks the
/// association table which peers are due. All samples of a round are
/// digested against that same pre-exchange local timestamp, and
/// mitigation runs once per round with at least one fresh sample.
pub struct NtpdDiscipline {
    daemon: Ntpd,
    now_local_secs: f64,
    pending: Vec<clocksim::ClockCommand>,
}

impl NtpdDiscipline {
    /// Wrap a fresh daemon.
    pub fn new(cfg: &NtpdConfig) -> Self {
        NtpdDiscipline { daemon: Ntpd::new(cfg), now_local_secs: 0.0, pending: Vec::new() }
    }
}

impl mntp::Discipline for NtpdDiscipline {
    fn wants_hints(&self) -> bool {
        // ntpd never reads link-layer hints; the driver must not sample
        // (and thereby advance) the testbed's hint process for it.
        false
    }

    fn poll(
        &mut self,
        t: SimTime,
        clock: &mut SimClock,
        _hints: Option<&netsim::WirelessHints>,
        _select: &mut dyn sntp::ServerSelect,
    ) -> mntp::Directive {
        self.now_local_secs = clock.now_local_nanos(t) as f64 / 1e9;
        let due = self.daemon.due_peers(self.now_local_secs);
        if due.is_empty() {
            mntp::Directive::Idle { record_deferred: false }
        } else {
            mntp::Directive::Query(due)
        }
    }

    fn complete(
        &mut self,
        _t: SimTime,
        _clock: &mut SimClock,
        round: &[mntp::ExchangeResult],
    ) -> Option<mntp::QueryOutcome> {
        let now = self.now_local_secs;
        let mut got_sample = false;
        for r in round {
            match r.outcome {
                Ok(done) => {
                    self.daemon.on_sample(
                        now,
                        r.server_id,
                        done.sample.offset.as_seconds_f64(),
                        done.sample.delay.as_seconds_f64(),
                    );
                    got_sample = true;
                }
                // KoD and loss alike: the peer just didn't deliver.
                Err(_) => self.daemon.on_poll_failed(now, r.server_id),
            }
        }
        if got_sample {
            self.pending = self.daemon.mitigate(now);
        }
        None
    }

    fn take_commands(&mut self) -> Vec<clocksim::ClockCommand> {
        std::mem::take(&mut self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksim::time::SimDuration;
    use clocksim::{OscillatorConfig, SimRng};
    use netsim::Testbed;
    use ntp_wire::NtpDuration;
    use sntp::{perform_exchange, PoolConfig, ServerPool};

    /// Drive a daemon over `peers` for `secs`, one tick per second;
    /// returns the run and the number of steps the clock took.
    fn run_daemon(
        peers: Vec<usize>,
        tb: &mut Testbed,
        pool: &mut ServerPool,
        clock: &mut SimClock,
        secs: u64,
    ) -> (mntp::MntpRun, u64) {
        let mut d = NtpdDiscipline::new(&NtpdConfig::with_peers(peers));
        let run = mntp::drive(&mut d, tb, pool, clock, None, &mntp::DriverConfig::span(secs, 1.0));
        (run, clock.steps_applied())
    }

    fn clock_with(skew_ppm: f64, initial_error_ms: i64, seed: u64) -> SimClock {
        let osc = OscillatorConfig::laptop().with_skew_ppm(skew_ppm).build(SimRng::new(seed));
        SimClock::with_initial_error(
            osc,
            SimTime::ZERO,
            NtpDuration::from_millis(initial_error_ms),
        )
    }

    #[test]
    fn converges_on_wired_network() {
        let mut tb = Testbed::wired(1);
        let mut pool = ServerPool::new(
            PoolConfig { false_ticker_fraction: 0.0, ..Default::default() },
            2,
        );
        let mut clock = clock_with(12.0, 400, 3);
        let (run, steps) = run_daemon(vec![0, 1, 2, 3], &mut tb, &mut pool, &mut clock, 3600);
        // Initial error 400 ms → stepped early, then disciplined.
        assert!(steps >= 1, "expected an initial step");
        let late: Vec<f64> = run
            .true_error_ms
            .iter()
            .filter(|(t, _)| *t > 1800.0)
            .map(|(_, e)| e.abs())
            .collect();
        let worst = late.iter().cloned().fold(0.0, f64::max);
        assert!(worst < 30.0, "ntpd should hold the clock tight, worst={worst}");
    }

    #[test]
    fn survives_false_tickers() {
        let mut tb = Testbed::wired(4);
        let mut pool = ServerPool::new(
            PoolConfig {
                false_ticker_fraction: 0.0,
                ..Default::default()
            },
            5,
        );
        // Manually poison one peer's clock by 300 ms.
        pool.server_mut(2).clock = clocksim::ReferenceClock::with_error(
            NtpDuration::from_millis(300),
        );
        let mut clock = clock_with(5.0, 0, 6);
        let (run, _) = run_daemon(vec![0, 1, 2, 3], &mut tb, &mut pool, &mut clock, 3600);
        let late: Vec<f64> = run
            .true_error_ms
            .iter()
            .filter(|(t, _)| *t > 1200.0)
            .map(|(_, e)| e.abs())
            .collect();
        let worst = late.iter().cloned().fold(0.0, f64::max);
        assert!(worst < 50.0, "falseticker must not capture the clock, worst={worst}");
    }

    #[test]
    fn poll_interval_backs_off_when_stable() {
        let mut tb = Testbed::wired(7);
        let mut pool = ServerPool::new(
            PoolConfig { false_ticker_fraction: 0.0, ..Default::default() },
            8,
        );
        let mut clock = clock_with(2.0, 0, 9);
        let mut daemon = Ntpd::new(&NtpdConfig::with_peers(vec![0, 1, 2]));
        // Run manually for two hours.
        for sec in 0..7200u64 {
            let t = SimTime::ZERO + SimDuration::from_secs(sec as i64);
            let now = sec as f64;
            let due = daemon.due_peers(now);
            let mut any = false;
            for id in due {
                if let Ok(d) = perform_exchange(&mut tb, pool.server_mut(id), &mut clock, t) {
                    daemon.on_sample(now, id, d.sample.offset.as_seconds_f64(), d.sample.delay.as_seconds_f64());
                    any = true;
                } else {
                    daemon.on_poll_failed(now, id);
                }
            }
            if any {
                for cmd in daemon.mitigate(now) {
                    cmd.apply(&mut clock, t);
                }
            }
        }
        assert!(
            daemon.poll_interval_secs() > 64.0,
            "poll should back off: {}",
            daemon.poll_interval_secs()
        );
    }

    #[test]
    fn unreachable_peers_excluded() {
        let mut daemon = Ntpd::new(&NtpdConfig::with_peers(vec![0, 1]));
        // Peer 0 answers, peer 1 never does.
        daemon.on_sample(10.0, 0, 0.005, 0.040);
        daemon.on_poll_failed(10.0, 1);
        let cmds = daemon.mitigate(11.0);
        // One peer is enough for mitigation to act (trivial majority),
        // and its 5 ms is the system offset the loop slews by.
        match cmds.as_slice() {
            [clocksim::ClockCommand::Slew(d)] => {
                assert!((d.as_seconds_f64() - 0.4 * 0.005).abs() < 1e-9, "slew {d}");
            }
            other => panic!("expected one slew, got {other:?}"),
        }
    }

    #[test]
    fn deterministic() {
        let go = || {
            let mut tb = Testbed::wired(10);
            let mut pool = ServerPool::new(PoolConfig::default(), 11);
            let mut clock = clock_with(8.0, 100, 12);
            let (run, _) = run_daemon(vec![0, 1, 2, 3], &mut tb, &mut pool, &mut clock, 900);
            run.true_error_ms.iter().map(|(_, e)| (*e * 1e6) as i64).collect::<Vec<_>>()
        };
        assert_eq!(go(), go());
    }
}
