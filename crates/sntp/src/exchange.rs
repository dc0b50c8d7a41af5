//! Exchange composition: one SNTP request/reply round trip across the
//! simulated network.
//!
//! [`perform_exchange_with`] is the one single-device round trip, where
//! protocol bytes, clocks and the testbed's network models meet (its
//! fault-free form is [`perform_exchange`]; the fleet's phased sibling is
//! [`crate::fleet`]):
//!
//! 1. read T1 from the client's clock, serialize a request;
//! 2. carry it across the last hop (WiFi/wired/cellular) and the backbone
//!    — either leg may drop it;
//! 3. let the server parse it and answer with T2/T3 from *its* clock;
//! 4. carry the reply back (again droppable) and read T4 from the
//!    client's clock;
//! 5. run the RFC 4330 sanity checks and derive (offset, delay).
//!
//! True time appears only where the physical world needs it (when packets
//! *actually* arrive); every timestamp in the packets comes from a
//! possibly-wrong clock, exactly as on real hardware.

use clocksim::time::{SimDuration, SimTime};
use clocksim::ClockControl;
use netsim::{DeviceChaos, PacketFate, Testbed};
use ntp_wire::NtpDuration;

use crate::client::{OffsetSample, ReplyOutcome, SntpClient};
use crate::server::SimServer;

/// The device's client id in its fault plan.
const DEVICE: u32 = DeviceChaos::CLIENT;

/// Why an exchange failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExchangeError {
    /// Request lost on the client's last hop.
    LostLastHopUp,
    /// Request lost on the backbone.
    LostBackboneUp,
    /// Reply lost on the backbone.
    LostBackboneDown,
    /// Reply lost on the client's last hop.
    LostLastHopDown,
    /// Reply arrived but failed parsing or sanity checks.
    RejectedReply,
    /// Packet swallowed by a scheduled server outage (fault plan).
    Blackholed,
    /// The reply arrived after the per-query timeout; the request was
    /// abandoned and the late reply rejected.
    Timeout,
    /// The server answered kiss-o'-death with this code; the caller
    /// must honor it (back off / stop using the server).
    KissODeath([u8; 4]),
}

/// A successful exchange with full diagnostics.
#[derive(Clone, Copy, Debug)]
pub struct CompletedExchange {
    /// The validated offset sample as the client computed it.
    pub sample: OffsetSample,
    /// True forward one-way delay (ground truth; evaluation only).
    pub true_fwd: SimDuration,
    /// True return one-way delay (ground truth; evaluation only).
    pub true_back: SimDuration,
    /// True time at which the reply arrived.
    pub completed_at: SimTime,
    /// Which server answered.
    pub server_id: usize,
}

impl CompletedExchange {
    /// The offset-measurement error contributed by path asymmetry alone:
    /// `(fwd − back) / 2` (ground truth; evaluation only).
    pub fn asymmetry_error(&self) -> NtpDuration {
        let diff_ns = self.true_fwd.as_nanos() - self.true_back.as_nanos();
        NtpDuration::from_nanos(diff_ns / 2)
    }
}

/// A packet observed during a captured exchange, for pcap dumping.
#[derive(Clone, Debug)]
pub struct TracedPacket {
    /// True time the packet was *captured* (client-side vantage: requests
    /// at departure, replies at arrival).
    pub at: SimTime,
    /// Direction: `true` = client → server.
    pub outbound: bool,
    /// The raw 48-byte NTP payload.
    pub bytes: Vec<u8>,
}

/// Perform one full exchange starting at true time `t`: the no-fault,
/// no-timeout, no-capture form of [`perform_exchange_with`].
pub fn perform_exchange(
    testbed: &mut Testbed,
    server: &mut SimServer,
    clock: &mut dyn ClockControl,
    t: SimTime,
) -> Result<CompletedExchange, ExchangeError> {
    perform_exchange_with(testbed, server, clock, t, None, None, None)
}

/// One request/reply round trip starting at true time `t`, optionally
/// through a fault plan, under a per-query timeout, and observed by a
/// client-side capture.
///
/// With `faults`, the device's fault plan (it is client
/// [`DeviceChaos::CLIENT`]) is consulted at every stage, *on top of* the
/// testbed's own channel models (a packet must survive both):
///
/// * due client clock steps (suspend/resume) are applied before T1 is
///   read, and a due falseticker onset steps the server's clock;
/// * while a kiss-o'-death window covers this server, its rate limiting
///   is forced on (and released when the window ends);
/// * the request faces storm/outage drops, then extra uplink delay;
/// * the reply faces drops, corruption, duplication, and extra downlink
///   delay; a duplicated reply's second copy is fed to the client right
///   behind the first and must be rejected.
///
/// If the reply lands after `timeout`, the request is abandoned
/// (`Err(Timeout)`) and the late reply is fed to the client anyway — it
/// must be rejected, exactly like a stale packet on real hardware.
///
/// `capture` records the request and reply bytes as a client-side
/// tcpdump would see them: the request at departure, and the reply when
/// it crosses the last hop back (late replies included). It is
/// observation only and never changes the result.
pub fn perform_exchange_with(
    testbed: &mut Testbed,
    server: &mut SimServer,
    clock: &mut dyn ClockControl,
    t: SimTime,
    faults: Option<&mut DeviceChaos>,
    timeout: Option<SimDuration>,
    mut capture: Option<&mut Vec<TracedPacket>>,
) -> Result<CompletedExchange, ExchangeError> {
    // A request cannot depart at a time the clock has already passed
    // (e.g. another client on the same host just finished an exchange
    // that advanced it). Without this clamp, T1 would be stamped with a
    // *later* clock state than the nominal departure time, biasing the
    // measured offset by half the discrepancy.
    let t = t.max(clock.position());
    let plan = match faults {
        Some(DeviceChaos { plan, client_latch, server_latch }) => {
            // Suspend/resume: the device wakes with its clock wrong.
            if let Some(step_ms) = plan.take_client_steps(client_latch, 0, DEVICE, t) {
                clock.step(t, NtpDuration::from_seconds_f64(step_ms / 1e3));
            }
            // A good server going bad: its reference clock steps once.
            if let Some(err_ms) = plan.take_falseticker_onsets(server_latch, server.id, t) {
                server.clock.step(t, NtpDuration::from_seconds_f64(err_ms / 1e3));
            }
            // The plan owns the rate-limit knob of servers it schedules
            // KoD windows for: limiting on inside the window, off
            // outside.
            if plan.kod_manages(server.id) {
                server.min_poll_interval = plan.kod_min_poll(server.id, t);
            }
            Some(&*plan)
        }
        None => None,
    };

    let mut client = SntpClient::new();
    let t1 = clock.now(t);
    let request = client.make_request(t1).serialize();
    if let Some(cap) = capture.as_deref_mut() {
        cap.push(TracedPacket { at: t, outbound: true, bytes: request.clone() });
    }

    if let Some(plan) = plan {
        if plan.drop_uplink(DEVICE, server.id, t) {
            return Err(if plan.server_down(server.id, t) {
                ExchangeError::Blackholed
            } else {
                ExchangeError::LostLastHopUp
            });
        }
    }
    // Client → WAP/Internet.
    let Some(hop_up) = testbed.last_hop_up(t) else {
        return Err(ExchangeError::LostLastHopUp);
    };
    // WAP → server across the backbone.
    let bb_up = {
        let SimServer { backbone_up, rng, .. } = server;
        backbone_up.transmit(rng)
    };
    let Some(bb_up) = bb_up else {
        return Err(ExchangeError::LostBackboneUp);
    };
    let spike_up = plan.map_or(SimDuration::ZERO, |p| p.extra_delay_up(DEVICE, t));
    let fwd = hop_up + bb_up + spike_up;
    let arrival = t + fwd;

    let (reply_bytes, departure) =
        server.handle(&request, arrival).map_err(|_| ExchangeError::RejectedReply)?;

    let fate = plan.map_or(PacketFate::Deliver, |p| p.downlink_fate(DEVICE, server.id, departure));
    if fate == PacketFate::Drop {
        return Err(if plan.is_some_and(|p| p.server_down(server.id, departure)) {
            ExchangeError::Blackholed
        } else {
            ExchangeError::LostLastHopDown
        });
    }
    // Server → WAP.
    let bb_down = {
        let SimServer { backbone_down, rng, .. } = server;
        backbone_down.transmit(rng)
    };
    let Some(bb_down) = bb_down else {
        return Err(ExchangeError::LostBackboneDown);
    };
    let spike_down = plan.map_or(SimDuration::ZERO, |p| p.extra_delay_down(DEVICE, departure));
    // WAP → client. The downlink is sampled at the reply's arrival at the
    // WAP, so it sees the channel state of that moment.
    let at_wap = departure + bb_down + spike_down;
    let Some(hop_down) = testbed.last_hop_down(at_wap) else {
        return Err(ExchangeError::LostLastHopDown);
    };
    let back = bb_down + spike_down + hop_down;
    let completed_at = departure + back;

    let mut delivered = reply_bytes;
    if fate == PacketFate::Corrupt {
        // Flip the origin-timestamp field: the packet still parses but
        // cannot pass the bogus-reply check.
        for b in delivered.get_mut(24..32).into_iter().flatten() {
            *b ^= 0xFF;
        }
    }
    if let Some(cap) = capture {
        cap.push(TracedPacket { at: completed_at, outbound: false, bytes: delivered.clone() });
    }
    let t4 = clock.now(completed_at);

    if timeout.is_some_and(|to| (completed_at - t).as_nanos() > to.as_nanos()) {
        // The caller gave up before the reply landed; the late packet
        // still reaches the socket and must be rejected, not applied.
        client.abandon();
        let late = client.on_reply(&delivered, t4);
        debug_assert!(late.is_err(), "stale reply must not be accepted");
        return Err(ExchangeError::Timeout);
    }

    let outcome =
        client.on_reply(&delivered, t4).map_err(|_| ExchangeError::RejectedReply)?;
    let sample = match outcome {
        ReplyOutcome::KissODeath(code) => return Err(ExchangeError::KissODeath(code)),
        ReplyOutcome::Sample(s) => s,
    };
    if fate == PacketFate::Duplicate {
        // The clone lands right behind the consumed original.
        let dup = client.on_reply(&delivered, t4);
        debug_assert!(dup.is_err(), "duplicate reply must not be double-applied");
    }
    Ok(CompletedExchange {
        sample,
        true_fwd: fwd,
        true_back: back,
        completed_at,
        server_id: server.id,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{PoolConfig, ServerPool};
    use clocksim::{OscillatorConfig, SimClock, SimRng};
    use netsim::testbed::TestbedConfig;
    use netsim::{ChaosEvent, ClientRange, FleetFaultPlan, ServerSet};

    fn perfect_clock() -> SimClock {
        SimClock::new(OscillatorConfig::perfect().build(SimRng::new(1)), SimTime::ZERO)
    }

    #[test]
    fn wired_exchange_offset_tracks_server_error() {
        let mut tb = Testbed::wired(1);
        let mut pool = ServerPool::new(
            PoolConfig { size: 1, false_ticker_fraction: 0.0, good_error_sigma_ms: 0.0, ..Default::default() },
            2,
        );
        let mut clock = perfect_clock();
        let mut offsets = Vec::new();
        for i in 0..200 {
            let t = SimTime::from_secs(i * 5);
            if let Ok(done) = perform_exchange(&mut tb, pool.server_mut(0), &mut clock, t) {
                offsets.push(done.sample.offset.as_millis_f64());
            }
        }
        assert!(offsets.len() > 190);
        let mean = offsets.iter().sum::<f64>() / offsets.len() as f64;
        // Server error ~0, symmetric wired path: offsets near zero.
        assert!(mean.abs() < 5.0, "mean={mean}");
    }

    #[test]
    fn offset_error_equals_asymmetry_plus_clock_errors() {
        let mut tb = Testbed::wired(3);
        let mut pool = ServerPool::new(
            PoolConfig { size: 1, false_ticker_fraction: 0.0, good_error_sigma_ms: 0.0, ..Default::default() },
            4,
        );
        let mut clock = perfect_clock();
        for i in 0..50 {
            let t = SimTime::from_secs(i * 5);
            if let Ok(done) = perform_exchange(&mut tb, pool.server_mut(0), &mut clock, t) {
                // With a perfect client clock and a ≈0-error server, the
                // reported offset must equal the path-asymmetry error
                // (fwd − back)/2 up to the server's tiny wobble.
                let predicted = done.asymmetry_error().as_millis_f64();
                let got = done.sample.offset.as_millis_f64();
                assert!(
                    (got - predicted).abs() < 2.0,
                    "offset {got} vs asym {predicted}"
                );
            }
        }
    }

    #[test]
    fn wireless_exchanges_are_noisier_than_wired() {
        let spread = |mut tb: Testbed, seed: u64| {
            let mut pool = ServerPool::new(
                PoolConfig { size: 4, false_ticker_fraction: 0.0, ..Default::default() },
                seed,
            );
            let mut clock = perfect_clock();
            let mut offsets = Vec::new();
            for i in 0..400 {
                let t = SimTime::from_secs(i * 5);
                let sid = pool.pick();
                if let Ok(done) = perform_exchange(&mut tb, pool.server_mut(sid), &mut clock, t) {
                    offsets.push(done.sample.offset.as_millis_f64());
                }
            }
            clocksim::stats::stddev(&offsets)
        };
        let wired = spread(Testbed::wired(5), 6);
        let wireless = spread(Testbed::wireless(TestbedConfig::default(), 7), 8);
        assert!(wireless > 3.0 * wired, "wireless σ {wireless} vs wired σ {wired}");
    }

    #[test]
    fn losses_reported_with_direction() {
        let mut tb = Testbed::lossy_wired(9, 0.5);
        let mut pool = ServerPool::new(PoolConfig { size: 1, ..Default::default() }, 10);
        let mut clock = perfect_clock();
        let mut errs = 0;
        for i in 0..100 {
            if perform_exchange(&mut tb, pool.server_mut(0), &mut clock, SimTime::from_secs(i * 5))
                .is_err()
            {
                errs += 1;
            }
        }
        assert!(errs > 30, "errs={errs}");
    }

    #[test]
    fn clock_error_appears_in_offset() {
        let mut tb = Testbed::wired(11);
        let mut pool = ServerPool::new(
            PoolConfig { size: 1, false_ticker_fraction: 0.0, good_error_sigma_ms: 0.0, ..Default::default() },
            12,
        );
        // Client clock 500 ms behind truth: server appears 500 ms ahead.
        let osc = OscillatorConfig::perfect().build(SimRng::new(13));
        let mut clock = SimClock::with_initial_error(
            osc,
            SimTime::ZERO,
            NtpDuration::from_millis(-500),
        );
        let done =
            perform_exchange(&mut tb, pool.server_mut(0), &mut clock, SimTime::from_secs(10))
                .unwrap();
        assert!((done.sample.offset.as_millis_f64() - 500.0).abs() < 5.0);
    }

    /// The round trip through a fault plan, uncaptured.
    fn faulted(
        tb: &mut Testbed,
        server: &mut SimServer,
        clock: &mut SimClock,
        t: SimTime,
        faults: &mut DeviceChaos,
        timeout: Option<SimDuration>,
    ) -> Result<CompletedExchange, ExchangeError> {
        perform_exchange_with(tb, server, clock, t, Some(faults), timeout, None)
    }

    /// A device plan with one event over `[start, end)`.
    fn one_event(start: f64, end: f64, event: ChaosEvent) -> DeviceChaos {
        DeviceChaos::new(FleetFaultPlan::new(1).window(start, end, event))
    }

    fn quiet_pool(seed: u64) -> ServerPool {
        ServerPool::new(
            PoolConfig {
                size: 2,
                false_ticker_fraction: 0.0,
                good_error_sigma_ms: 0.0,
                backbone_loss: 0.0,
                ..Default::default()
            },
            seed,
        )
    }

    #[test]
    fn faulted_exchange_with_empty_schedule_matches_normal_path() {
        let mut faults = DeviceChaos::new(FleetFaultPlan::none());
        let mut tb_a = Testbed::wired(20);
        let mut tb_b = Testbed::wired(20);
        let mut pool_a = quiet_pool(21);
        let mut pool_b = quiet_pool(21);
        let mut clock_a = perfect_clock();
        let mut clock_b = perfect_clock();
        for i in 0..50 {
            let t = SimTime::from_secs(i * 10);
            let plain = perform_exchange(&mut tb_a, pool_a.server_mut(0), &mut clock_a, t);
            let via_faults =
                faulted(&mut tb_b, pool_b.server_mut(0), &mut clock_b, t, &mut faults, None);
            match (plain, via_faults) {
                (Ok(a), Ok(b)) => assert_eq!(a.sample, b.sample),
                (a, b) => panic!("paths diverged: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn outage_blackholes_and_recovers() {
        let mut faults =
            one_event(100.0, 200.0, ChaosEvent::ServerOutage { servers: ServerSet::All });
        let mut tb = Testbed::wired(22);
        let mut pool = quiet_pool(23);
        let mut clock = perfect_clock();
        let go = |tb: &mut Testbed, pool: &mut ServerPool, clock: &mut SimClock, faults: &mut DeviceChaos, s: i64| {
            faulted(tb, pool.server_mut(0), clock, SimTime::from_secs(s), faults, None)
        };
        assert!(go(&mut tb, &mut pool, &mut clock, &mut faults, 50).is_ok());
        assert_eq!(
            go(&mut tb, &mut pool, &mut clock, &mut faults, 150).unwrap_err(),
            ExchangeError::Blackholed
        );
        assert!(go(&mut tb, &mut pool, &mut clock, &mut faults, 250).is_ok());
    }

    #[test]
    fn slow_reply_times_out_and_is_not_applied() {
        // 800 ms of extra downlink delay against a 500 ms budget.
        let mut faults = one_event(
            0.0,
            1e9,
            ChaosEvent::RegionalDelaySpike {
                region: ClientRange::all(1),
                extra_up_ms: 0.0,
                extra_down_ms: 800.0,
            },
        );
        let mut tb = Testbed::wired(24);
        let mut pool = quiet_pool(25);
        let mut clock = perfect_clock();
        let err = faulted(
            &mut tb,
            pool.server_mut(0),
            &mut clock,
            SimTime::from_secs(10),
            &mut faults,
            Some(SimDuration::from_millis(500)),
        )
        .unwrap_err();
        assert_eq!(err, ExchangeError::Timeout);
        // With a roomier budget the same spike is tolerated.
        let ok = faulted(
            &mut tb,
            pool.server_mut(0),
            &mut clock,
            SimTime::from_secs(20),
            &mut faults,
            Some(SimDuration::from_secs(5)),
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn corrupted_replies_are_rejected() {
        let mut faults = one_event(0.0, 1e9, ChaosEvent::CorruptReply { prob: 1.0 });
        let mut tb = Testbed::wired(26);
        let mut pool = quiet_pool(27);
        let mut clock = perfect_clock();
        let err = faulted(
            &mut tb,
            pool.server_mut(0),
            &mut clock,
            SimTime::from_secs(5),
            &mut faults,
            None,
        )
        .unwrap_err();
        assert_eq!(err, ExchangeError::RejectedReply);
    }

    #[test]
    fn duplicated_replies_apply_exactly_once() {
        let mut faults = one_event(0.0, 1e9, ChaosEvent::DuplicateReply { prob: 1.0 });
        let mut tb = Testbed::wired(28);
        let mut pool = quiet_pool(29);
        let mut clock = perfect_clock();
        // Succeeds despite every reply being cloned: the duplicate is
        // rejected internally (debug_assert'd in the exchange).
        let done = faulted(
            &mut tb,
            pool.server_mut(0),
            &mut clock,
            SimTime::from_secs(5),
            &mut faults,
            None,
        )
        .unwrap();
        assert!(done.sample.offset.as_millis_f64().abs() < 50.0);
    }

    #[test]
    fn kod_window_turns_rate_limiting_on_and_off() {
        let mut faults = one_event(
            100.0,
            200.0,
            ChaosEvent::KissODeath { servers: ServerSet::One(0), min_poll_secs: 64.0 },
        );
        let mut tb = Testbed::wired(30);
        let mut pool = quiet_pool(31);
        let mut clock = perfect_clock();
        let go = |tb: &mut Testbed, pool: &mut ServerPool, clock: &mut SimClock, faults: &mut DeviceChaos, s: i64| {
            faulted(tb, pool.server_mut(0), clock, SimTime::from_secs(s), faults, None)
        };
        // Inside the window, polls 10 s apart: first primes the limiter,
        // second draws RATE.
        assert!(go(&mut tb, &mut pool, &mut clock, &mut faults, 110).is_ok());
        assert_eq!(
            go(&mut tb, &mut pool, &mut clock, &mut faults, 120).unwrap_err(),
            ExchangeError::KissODeath(*b"RATE")
        );
        assert_eq!(pool.server(0).kod_sent, 1);
        // After the window the same cadence is served normally.
        assert!(go(&mut tb, &mut pool, &mut clock, &mut faults, 210).is_ok());
        assert!(go(&mut tb, &mut pool, &mut clock, &mut faults, 220).is_ok());
    }

    #[test]
    fn falseticker_onset_shifts_measured_offset() {
        let mut faults = DeviceChaos::new(
            FleetFaultPlan::new(7)
                .at(100.0, ChaosEvent::FalsetickerOnset { server: 0, error_ms: 300.0 }),
        );
        let mut tb = Testbed::wired(32);
        let mut pool = quiet_pool(33);
        let mut clock = perfect_clock();
        let before = faulted(
            &mut tb, pool.server_mut(0), &mut clock, SimTime::from_secs(50), &mut faults, None,
        )
        .unwrap();
        assert!(before.sample.offset.as_millis_f64().abs() < 50.0);
        let after = faulted(
            &mut tb, pool.server_mut(0), &mut clock, SimTime::from_secs(150), &mut faults, None,
        )
        .unwrap();
        let shift = after.sample.offset.as_millis_f64() - before.sample.offset.as_millis_f64();
        assert!((shift - 300.0).abs() < 50.0, "onset shift {shift}");
    }

    #[test]
    fn client_clock_step_appears_in_offset() {
        // The device sleeps and wakes 400 ms behind: the server then
        // appears 400 ms *ahead*.
        let mut faults = DeviceChaos::new(FleetFaultPlan::new(8).at(
            100.0,
            ChaosEvent::ClockStepWave { region: ClientRange::all(1), offset_ms: -400.0 },
        ));
        let mut tb = Testbed::wired(34);
        let mut pool = quiet_pool(35);
        let mut clock = perfect_clock();
        for s in [150, 250] {
            // The step fires once: the second exchange sees the same
            // 400 ms, not 800.
            let done = faulted(
                &mut tb, pool.server_mut(0), &mut clock, SimTime::from_secs(s), &mut faults, None,
            )
            .unwrap();
            assert!((done.sample.offset.as_millis_f64() - 400.0).abs() < 50.0);
        }
    }

    /// The whole faulted pipeline replays bit-identically for a fixed
    /// plan — the contract the fault-sweep artifacts and the
    /// parallel-equivalence suite build on.
    #[test]
    fn faulted_exchange_sequence_is_deterministic() {
        let run = || {
            let plan = FleetFaultPlan::new(99)
                .window(
                    0.0,
                    2000.0,
                    ChaosEvent::RegionalLossStorm { region: ClientRange::all(1), loss_prob: 0.3 },
                )
                .window(500.0, 1500.0, ChaosEvent::DuplicateReply { prob: 0.5 })
                .at(
                    800.0,
                    ChaosEvent::ClockStepWave { region: ClientRange::all(1), offset_ms: 120.0 },
                );
            let mut faults = DeviceChaos::new(plan);
            let mut tb = Testbed::wireless(TestbedConfig::default(), 36);
            let mut pool = quiet_pool(37);
            let mut clock = perfect_clock();
            (0..200)
                .map(|i| {
                    faulted(
                        &mut tb,
                        pool.server_mut((i % 2) as usize),
                        &mut clock,
                        SimTime::from_secs(i * 10),
                        &mut faults,
                        Some(SimDuration::from_secs(2)),
                    )
                    .map(|d| d.sample.offset.as_millis_f64().to_bits())
                    .map_err(|e| format!("{e:?}"))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// A capture only observes: two identically seeded lossy wireless
    /// worlds, one captured and one not, return the same results, and the
    /// capture holds each request plus each reply that crossed the last
    /// hop back.
    #[test]
    fn capture_is_observation_only() {
        let world = || {
            let cfg = TestbedConfig {
                wifi: netsim::WifiConfig { path_loss_db: 92.0, ..Default::default() },
                ..Default::default()
            };
            let pool = ServerPool::new(PoolConfig::default(), 41);
            (Testbed::wireless(cfg, 40), pool, perfect_clock())
        };
        let (mut tb_a, mut pool_a, mut clock_a) = world();
        let (mut tb_b, mut pool_b, mut clock_b) = world();
        let mut capture = Vec::new();
        let (mut lost, mut answered) = (0, 0);
        for i in 0..200 {
            let t = SimTime::from_secs(i * 5);
            let (ia, ib) = (pool_a.pick(), pool_b.pick());
            let plain = perform_exchange(&mut tb_a, pool_a.server_mut(ia), &mut clock_a, t);
            let before = capture.len();
            let captured = perform_exchange_with(
                &mut tb_b,
                pool_b.server_mut(ib),
                &mut clock_b,
                t,
                None,
                None,
                Some(&mut capture),
            );
            let fingerprint = |r: &Result<CompletedExchange, ExchangeError>| {
                r.map(|d| (d.sample, d.true_fwd, d.true_back, d.completed_at, d.server_id))
            };
            assert_eq!(fingerprint(&plain), fingerprint(&captured), "exchange {i}");
            // Every failure mode a valid request meets before the reply
            // reaches the client is a loss on one of the four legs.
            let crossed_back = !matches!(
                captured,
                Err(ExchangeError::LostLastHopUp
                    | ExchangeError::LostBackboneUp
                    | ExchangeError::LostBackboneDown
                    | ExchangeError::LostLastHopDown)
            );
            let new = capture.get(before..).unwrap_or_default();
            assert_eq!(new.len(), 1 + usize::from(crossed_back), "exchange {i}");
            assert!(new.first().is_some_and(|p| p.outbound && p.at >= t));
            if let Some(reply) = new.get(1) {
                assert!(!reply.outbound);
                if let Ok(done) = captured {
                    assert_eq!(reply.at, done.completed_at);
                }
            }
            if crossed_back {
                answered += 1;
            } else {
                lost += 1;
            }
        }
        assert!(lost > 0 && answered > 0, "lost {lost}, answered {answered}");
    }
}
