//! The three simulated servers are behaviorally pinned to each other.
//!
//! Two contracts, both property-tested over generated request streams:
//!
//! 1. **Per-packet equivalence** — `ServerCore::process_batch` produces
//!    byte-for-byte the reply stream a wobble-free `SimServer` produces
//!    when fed the same datagrams one at a time through `handle_from`,
//!    including kiss-o'-death fates and malformed rejections. The fleet's
//!    `ServerModel`, set up as a pure rate limiter (a queue that never
//!    fills or overloads), RATEs exactly the requests `ServerCore` does.
//! 2. **(shards, jobs) invariance** — the sharded engine's reply stream
//!    is identical to the serial reference at every shard count and pool
//!    size (the acceptance pin for deterministic scale-out).
//!
//! The sim server's clock must be wobble-free here: `with_wobble` draws
//! from an RNG on every read, so its replies depend on call order — the
//! one thing a batched engine legitimately changes. `ReferenceClock::
//! with_error` is pure (`now(t) = t + e`), which is exactly the clock
//! model `CoreConfig::clock_error` implements.

use devtools::par::Pool;
use devtools::prop::{self, Gen};
use devtools::{prop_assert, prop_assert_eq, props};
use mntp_repro::clocksim::time::{SimDuration, SimTime};
use mntp_repro::clocksim::{ReferenceClock, SimRng};
use mntp_repro::netsim::fleet::{ServerModel, ServerModelConfig, ServiceDecision};
use mntp_repro::ntp_wire::{
    refid::RefId, sntp_profile, NtpDuration, NtpPacket, NtpTimestamp, PACKET_LEN,
};
use mntp_repro::sntp::server_core::{CoreConfig, Fate, ReplyRing, RequestRing, ServerCore};
use mntp_repro::sntp::SimServer;

/// One generated datagram: who sent it, how long after the previous one,
/// and what shape it takes on the wire.
type Arrival = (i64, i64, i64);

fn arb_stream() -> impl Gen<Value = Vec<Arrival>> {
    prop::vecs(
        (
            prop::ints(0..6),      // client key
            prop::ints(0..9000),   // gap to previous arrival, ms
            prop::ints(0..10),     // wire shape selector
        ),
        1..80,
    )
}

/// Materialize one arrival's wire bytes. Shapes 0 and 1 are malformed
/// (truncated garbage / version 0); 2 is an ntpd-style poller; the rest
/// are RFC 4330 SNTP requests.
fn wire_bytes(shape: i64, at: SimTime) -> Vec<u8> {
    let tx = NtpTimestamp::from_parts((at.as_nanos() / 1_000_000_000) as u32, 77);
    match shape {
        0 => vec![0xA5; 17],
        1 => vec![0u8; PACKET_LEN],
        2 => NtpPacket { poll: 6, precision: -20, ..sntp_profile::client_request(tx) }.serialize(),
        _ => sntp_profile::client_request(tx).serialize(),
    }
}

fn build_batch(stream: &[Arrival]) -> RequestRing {
    let mut reqs = RequestRing::with_capacity(stream.len());
    let mut t = SimTime::from_millis(100);
    for &(client, gap_ms, shape) in stream {
        t = t + SimDuration::from_millis(gap_ms);
        assert!(reqs.push(client as u64, t, &wire_bytes(shape, t)));
    }
    reqs
}

const CLOCK_ERROR_MS: i64 = 3;
const MIN_POLL_SECS: i64 = 4;

fn engine_config(shards: usize) -> CoreConfig {
    CoreConfig {
        stratum: 2,
        refid: RefId::ipv4(203, 0, 113, 7),
        clock_error: NtpDuration::from_millis(CLOCK_ERROR_MS),
        min_poll_interval: Some(SimDuration::from_secs(MIN_POLL_SECS)),
        shards,
        ..CoreConfig::default()
    }
}

/// A `SimServer` matching `engine_config`, with the wobble swapped out
/// for the engine's pure constant-error clock.
fn reference_server() -> SimServer {
    use mntp_repro::netsim::link::{DelayModel, Link};
    let mut rng = SimRng::new(11);
    let up = Link::lossless(DelayModel::backbone(20.0));
    let down = Link::lossless(DelayModel::backbone(20.0));
    let mut s = SimServer::with_error_ms(0, 0.0, (up, down), &mut rng);
    s.clock = ReferenceClock::with_error(NtpDuration::from_millis(CLOCK_ERROR_MS));
    s.refid = RefId::ipv4(203, 0, 113, 7);
    s.min_poll_interval = Some(SimDuration::from_secs(MIN_POLL_SECS));
    s
}

/// A fleet `ServerModel` reduced to its rate limiter: the same floor as
/// `engine_config`, a queue deeper than any generated stream (nothing
/// drops) and an overload threshold no stream reaches (the base floor is
/// the only one in force), no ladder.
fn reference_model() -> ServerModel {
    ServerModel::new(ServerModelConfig {
        min_poll_secs: MIN_POLL_SECS as f64,
        queue_capacity: 1024,
        overload_backlog: 1024,
        ladder: None,
        ..ServerModelConfig::default()
    })
}

props! {
    /// Batched replies == per-packet `SimServer` replies, byte for byte,
    /// fate for fate — including which requests get RATE kisses.
    fn pipeline_matches_sim_server(stream in arb_stream()) {
        let reqs = build_batch(&stream);
        let mut core = ServerCore::new(engine_config(1));
        let mut out = ReplyRing::new();
        core.process_batch(&reqs, &mut out);

        let mut server = reference_server();
        for (idx, (meta, wire)) in reqs.iter().enumerate() {
            match server.handle_from(meta.client, wire, meta.arrival) {
                Ok((reply, _departure)) => {
                    prop_assert!(
                        out.slot(idx) == Some(&reply[..]),
                        "reply bytes diverged at request {} (client {})",
                        idx, meta.client
                    );
                    let want_fate = if NtpPacket::parse(&reply)
                        .is_ok_and(|p| p.is_kiss_of_death())
                    {
                        Fate::Kod
                    } else {
                        Fate::Time
                    };
                    prop_assert_eq!(out.fate(idx), Some(want_fate));
                }
                Err(_) => {
                    prop_assert_eq!(out.fate(idx), Some(Fate::Malformed));
                    prop_assert_eq!(out.slot(idx), Some(&[0u8; PACKET_LEN][..]));
                }
            }
        }
        prop_assert_eq!(core.stats().kod, server.kod_sent);
        prop_assert_eq!(core.stats().total(), reqs.len() as u64);

        // The fleet model sees only the valid requests (a malformed one
        // never reaches admission) and must RATE exactly where the
        // engine wrote a kiss.
        let mut model = reference_model();
        for (idx, meta) in reqs.meta().iter().enumerate() {
            let fate = out.fate(idx);
            if fate == Some(Fate::Malformed) {
                continue;
            }
            match model.on_arrival(meta.client as u32, meta.arrival) {
                ServiceDecision::Served { kod, .. } => prop_assert!(
                    kod == (fate == Some(Fate::Kod)),
                    "ServerModel RATE verdict diverged at request {} (client {})",
                    idx, meta.client
                ),
                ServiceDecision::Dropped => {
                    prop_assert!(false, "pure rate limiter dropped request {}", idx)
                }
            }
        }
        prop_assert_eq!(model.stats.kod_sent, core.stats().kod);
    }

    /// The reply stream is invariant across the whole (shards, jobs)
    /// grid — deterministic scale-out, not approximate scale-out.
    fn sharded_stream_invariant(stream in arb_stream()) {
        let reqs = build_batch(&stream);
        let mut reference = ReplyRing::new();
        ServerCore::new(engine_config(1)).process_batch(&reqs, &mut reference);
        for shards in [2usize, 4, 8] {
            for jobs in [1usize, 2, 8] {
                let mut core = ServerCore::new(engine_config(shards));
                let mut out = ReplyRing::new();
                core.process_batch_on(&reqs, &mut out, &Pool::with_jobs(jobs));
                prop_assert!(
                    out.as_bytes() == reference.as_bytes(),
                    "reply stream diverged at shards={} jobs={}", shards, jobs
                );
                prop_assert_eq!(out.fates(), reference.fates());
            }
        }
    }
}

/// Multi-batch: rate-limit state persists across batches identically in
/// both implementations (the table is not per-batch scratch).
#[test]
fn multi_batch_state_matches_sim_server() {
    let streams: [&[Arrival]; 3] = [
        &[(0, 0, 5), (1, 500, 5), (0, 2000, 5)],
        &[(0, 1000, 5), (2, 100, 5), (1, 200, 2)],
        &[(0, 6000, 5), (1, 0, 5), (2, 0, 5)],
    ];
    let mut core = ServerCore::new(engine_config(4));
    let mut server = reference_server();
    let mut out = ReplyRing::new();
    let mut t0 = SimTime::from_millis(100);
    for stream in streams {
        let mut reqs = RequestRing::with_capacity(stream.len());
        let mut t = t0;
        for &(client, gap_ms, shape) in stream {
            t = t + SimDuration::from_millis(gap_ms);
            reqs.push(client as u64, t, &wire_bytes(shape, t));
        }
        t0 = t;
        core.process_batch_on(&reqs, &mut out, &Pool::with_jobs(4));
        for (idx, (meta, wire)) in reqs.iter().enumerate() {
            let (reply, _) = server.handle_from(meta.client, wire, meta.arrival).unwrap();
            assert_eq!(out.slot(idx), Some(&reply[..]), "batch diverged at {idx}");
        }
    }
    assert_eq!(core.stats().kod, server.kod_sent);
}
