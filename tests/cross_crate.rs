//! Cross-crate plumbing checks: packet bytes really flow through the
//! whole stack, and independent subsystems compose without hidden
//! coupling.

use mntp_repro::clocksim::time::{SimDuration, SimTime};
use mntp_repro::clocksim::{ClockControl, OscillatorConfig, SimClock, SimRng};
use mntp_repro::netsim::Testbed;
use mntp_repro::ntp_wire::{NtpPacket, PACKET_LEN};
use mntp_repro::mntp::{drive, DriverConfig};
use mntp_repro::ntpd_sim::{NtpdConfig, NtpdDiscipline};
use mntp_repro::sntp::{perform_exchange, PoolConfig, ServerPool};
use mntp_repro::tuner::Trace;

/// Requests generated by the server handler path are genuine 48-byte
/// RFC 5905 packets that the wire crate round-trips.
#[test]
fn real_packets_cross_the_simulated_network() {
    let mut pool = ServerPool::new(PoolConfig { size: 2, ..Default::default() }, 1);
    let req = mntp_repro::ntp_wire::sntp_profile::client_request(
        SimTime::from_secs(1).to_ntp(),
    )
    .serialize();
    assert_eq!(req.len(), PACKET_LEN);
    let (reply, _) = pool.server_mut(0).handle(&req, SimTime::from_secs(1)).unwrap();
    let parsed = NtpPacket::parse(&reply).unwrap();
    assert_eq!(parsed.origin_ts, SimTime::from_secs(1).to_ntp());
    assert_eq!(parsed.stratum, 2);
}

/// An exchange over the wired testbed agrees with the clock algebra:
/// reported offset ≈ server error − client error ± asymmetry/2.
#[test]
fn exchange_algebra_closes() {
    let mut tb = Testbed::wired(2);
    let mut pool = ServerPool::new(
        PoolConfig { size: 1, false_ticker_fraction: 0.0, good_error_sigma_ms: 0.0, ..Default::default() },
        3,
    );
    let osc = OscillatorConfig::perfect().build(SimRng::new(4));
    let mut clock = SimClock::with_initial_error(
        osc,
        SimTime::ZERO,
        mntp_repro::ntp_wire::NtpDuration::from_millis(-120),
    );
    let done = perform_exchange(&mut tb, pool.server_mut(0), &mut clock, SimTime::from_secs(5))
        .expect("wired exchange");
    // Client 120 ms behind → server appears 120 ms ahead (± small noise).
    let got = done.sample.offset.as_millis_f64();
    let asym = done.asymmetry_error().as_millis_f64();
    assert!((got - 120.0 - asym).abs() < 3.0, "got {got}, asym {asym}");
}

/// The tuner's text format survives a real logger trace byte-for-byte in
/// structure (row counts, response patterns, hint presence).
#[test]
fn tuner_trace_text_roundtrip_via_real_logger() {
    use mntp_repro::netsim::testbed::TestbedConfig;
    let mut tb = Testbed::wireless(TestbedConfig::default(), 5);
    let mut pool = ServerPool::new(PoolConfig::default(), 6);
    let osc = OscillatorConfig::laptop().build(SimRng::new(7));
    let mut clock = SimClock::new(osc, SimTime::ZERO);
    let trace = mntp_repro::tuner::record_trace(&mut tb, &mut pool, &mut clock, 300, 5.0, 3);
    let text = trace.to_text();
    let back = Trace::from_text(&text).expect("parseable");
    assert_eq!(back.rows.len(), trace.rows.len());
    for (a, b) in back.rows.iter().zip(&trace.rows) {
        assert_eq!(a.hints.is_some(), b.hints.is_some());
        assert_eq!(
            a.offsets_ms.iter().map(|o| o.is_some()).collect::<Vec<_>>(),
            b.offsets_ms.iter().map(|o| o.is_some()).collect::<Vec<_>>()
        );
    }
}

/// ntpd-sim and the shared substrate: the daemon disciplines a clock
/// built from the same components the other protocols use.
#[test]
fn ntpd_on_shared_substrate() {
    let mut tb = Testbed::wired(8);
    let mut pool = ServerPool::new(
        PoolConfig { false_ticker_fraction: 0.0, ..Default::default() },
        9,
    );
    let osc = OscillatorConfig::laptop().with_skew_ppm(25.0).build(SimRng::new(10));
    let mut clock = SimClock::with_initial_error(
        osc,
        SimTime::ZERO,
        mntp_repro::ntp_wire::NtpDuration::from_millis(300),
    );
    let mut d = NtpdDiscipline::new(&NtpdConfig::with_peers(vec![0, 1, 2, 3]));
    let run = drive(&mut d, &mut tb, &mut pool, &mut clock, None, &DriverConfig::span(3600, 1.0));
    assert!(clock.steps_applied() >= 1, "initial 300 ms error must step");
    let final_err = run.true_error_ms.last().unwrap().1.abs();
    assert!(final_err < 30.0, "final error {final_err} ms");
}

/// Clock monotonicity under protocol control: no protocol action may
/// make the clock read backwards (steps excepted — they are explicit).
#[test]
fn slewed_clock_stays_monotone_under_load() {
    let osc = OscillatorConfig::laptop().build(SimRng::new(11));
    let mut clock = SimClock::new(osc, SimTime::ZERO);
    let mut prev = clock.now(SimTime::ZERO);
    let mut rng = SimRng::new(12);
    for i in 1..2000 {
        let t = SimTime::ZERO + SimDuration::from_millis(i * 50);
        if i % 37 == 0 {
            clock.slew(t, mntp_repro::ntp_wire::NtpDuration::from_millis(rng.int_range(-40, 40)));
        }
        if i % 101 == 0 {
            clock.trim_frequency_ppm(t, rng.uniform_range(-5.0, 5.0));
        }
        let now = clock.now(t);
        assert!(now.wrapping_sub(prev).to_bits() > 0, "clock regressed at step {i}");
        prev = now;
    }
}
