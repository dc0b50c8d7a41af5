//! Fleet-scale exchange: one client among many, one server with a
//! capacity model.
//!
//! This is the multi-client sibling of [`crate::perform_exchange`]: the
//! last hop is one [`Lane`] of a shared [`netsim::fleet::FleetNet`]'s
//! struct-of-arrays channel bank, and the server is fronted by a
//! [`netsim::fleet::ServerModel`] that can drop the request on backlog
//! overflow or answer a RATE kiss under load.
//! Alongside the client-side outcome it emits the *server-side*
//! observation — the raw request bytes and true arrival time — so a
//! simulated fleet produces exactly the kind of log the paper's §3.1
//! measurement pipeline consumes.
//!
//! # Phases
//!
//! The round trip is factored into three phase functions so the sharded
//! fleet runner can pipeline them across an epoch barrier:
//!
//! 1. [`begin_fleet_exchange`] — client side: stamp `t1`, shape the
//!    request, pay the wireless uplink. Touches only the client's own
//!    clock and channel lane → safe to run shard-parallel.
//! 2. [`serve_fleet_exchange`] — server side: backbone up, capacity
//!    decision, serve, backbone down. Touches the shared server state →
//!    the runner executes these serially in global client-id order.
//! 3. [`complete_fleet_exchange`] — client side again: wireless
//!    downlink, stamp `t4`, classify the reply → shard-parallel.

use clocksim::time::{SimDuration, SimTime};
use clocksim::ClockControl;
use netsim::fleet::{ServerModel, ServiceDecision};
use netsim::lanes::Lane;
use ntp_wire::{refid::RefId, NtpDuration, NtpPacket, NtpShort};

use crate::client::{ReplyOutcome, SntpClient};
use crate::exchange::{CompletedExchange, ExchangeError};
use crate::server::SimServer;

/// On-the-wire shape of the request a fleet client emits.
///
/// "SNTP sets all fields in an NTP packet to zero except the first
/// octet" (§2); a full NTP implementation populates stratum, poll,
/// precision and the root/reference fields. Shaping requests lets the
/// synthetic server log exercise the same packet-shape classifier the
/// paper ran over tcpdump output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestShape {
    /// RFC 4330 minimal client request.
    Sntp,
    /// Full-NTP-shaped client request (populated header fields).
    Ntpd,
}

/// Server-side record of one arrival, as a capture at the server would
/// see it — plus the service decision for rate accounting.
#[derive(Clone, Debug)]
pub struct FleetArrival {
    /// Fleet client id.
    pub client_id: u32,
    /// Which server the request reached.
    pub server_id: usize,
    /// True arrival time at the server.
    pub at: SimTime,
    /// Raw request bytes as captured.
    pub request: Vec<u8>,
    /// The request was dropped for backlog overflow (no reply).
    pub dropped: bool,
    /// The reply was a RATE kiss-o'-death.
    pub kod: bool,
}

/// Give an SNTP-shaped request the header of a full NTP client
/// (stratum/poll/precision/root/reference fields populated), keeping
/// the transmit timestamp so the origin-echo check still passes.
fn ntpd_shape(request: &mut NtpPacket, client_id: u32) {
    request.stratum = 3;
    request.poll = 6;
    request.precision = -20;
    request.root_delay = NtpShort::from_millis(30);
    request.root_dispersion = NtpShort::from_millis(15);
    request.reference_id = RefId::ipv4(198, 51, 100, (client_id % 250) as u8 + 1);
    request.reference_ts = request
        .transmit_ts
        .wrapping_add_duration(NtpDuration::from_seconds_f64(-64.0));
}

/// A request that has left the station but not yet crossed the backbone:
/// everything phase 2 (the server side) and phase 3 (reply completion)
/// need from phase 1.
#[derive(Clone, Debug)]
pub struct FleetRequestInFlight {
    /// The client protocol state (holds the origin timestamp for the
    /// echo check on the reply).
    pub client: SntpClient,
    /// Serialized (and possibly ntpd-shaped) request bytes, as a capture
    /// would record them.
    pub request_bytes: Vec<u8>,
    /// Wireless uplink delay already paid.
    pub hop_up: SimDuration,
    /// Effective transmit instant (`t` clamped forward to the client
    /// clock's position).
    pub t_eff: SimTime,
}

/// A reply that has left the server but not yet crossed the last hop:
/// everything phase 3 needs from phase 2.
#[derive(Clone, Debug)]
pub struct FleetReplyInFlight {
    /// Serialized reply bytes.
    pub reply_bytes: Vec<u8>,
    /// True departure time of the reply at the server.
    pub departure: SimTime,
    /// Backbone downlink delay already paid.
    pub bb_down: SimDuration,
    /// Arrival time at the WAP (`departure + bb_down`).
    pub at_wap: SimTime,
    /// True forward path delay (`hop_up + bb_up`), for ground truth.
    pub fwd: SimDuration,
}

/// Phase 1 (client side): stamp `t1`, shape and serialize the request,
/// pay the wireless uplink.
// Phases 1 and 3 inline into the fleet runner's per-client loop: out of
// line they cost 5–10 % of a 100k-client fleet's median tick.
#[inline]
pub fn begin_fleet_exchange(
    chan: &mut Lane<'_>,
    clock: &mut dyn ClockControl,
    client_id: u32,
    t: SimTime,
    shape: RequestShape,
) -> Result<FleetRequestInFlight, ExchangeError> {
    let t = t.max(clock.position());
    let mut client = SntpClient::new();
    let t1 = clock.now(t);
    let mut request = client.make_request(t1);
    if shape == RequestShape::Ntpd {
        ntpd_shape(&mut request, client_id);
    }
    let request_bytes = request.serialize();

    // Client → WAP over this client's channel lane.
    let Some(hop_up) = chan.transmit_up(t) else {
        return Err(ExchangeError::LostLastHopUp);
    };
    Ok(FleetRequestInFlight { client, request_bytes, hop_up, t_eff: t })
}

/// Phase 2 (server side): backbone uplink, capacity decision, service,
/// backbone downlink. Touches shared server state — the fleet runner
/// calls this serially in global client-id order.
///
/// Returns the server-side arrival observation (when the request reached
/// the server at all) alongside the in-flight reply. Request bytes that
/// do not parse are rejected before the backbone draw, as
/// [`SimServer::handle_from`] rejects them. A
/// [`ServiceDecision::Dropped`] request surfaces to the client as
/// [`ExchangeError::Blackholed`] — from the phone's point of view a
/// queue-overflow drop and a blackholed packet are indistinguishable.
pub fn serve_fleet_exchange(
    inflight: &FleetRequestInFlight,
    server: &mut SimServer,
    model: &mut ServerModel,
    client_id: u32,
) -> (Option<FleetArrival>, Result<FleetReplyInFlight, ExchangeError>) {
    let Ok(request) = NtpPacket::parse_ref(&inflight.request_bytes) else {
        return (None, Err(ExchangeError::RejectedReply));
    };
    // WAP → server across the backbone.
    let bb_up = {
        let SimServer { backbone_up, rng, .. } = server;
        backbone_up.transmit(rng)
    };
    let Some(bb_up) = bb_up else {
        return (None, Err(ExchangeError::LostBackboneUp));
    };
    let fwd = inflight.hop_up + bb_up;
    let arrival_at = inflight.t_eff + fwd;

    // The capacity model decides the request's fate.
    let decision = model.on_arrival(client_id, arrival_at);
    let mut arrival = FleetArrival {
        client_id,
        server_id: server.id,
        at: arrival_at,
        request: inflight.request_bytes.clone(),
        dropped: false,
        kod: false,
    };
    let (depart, kod) = match decision {
        ServiceDecision::Dropped => {
            arrival.dropped = true;
            return (Some(arrival), Err(ExchangeError::Blackholed));
        }
        ServiceDecision::Served { depart, kod } => (depart, kod),
    };
    arrival.kod = kod;
    let (reply_bytes, departure) = server.serve(&request, arrival_at, depart, kod);

    // Server → WAP.
    let bb_down = {
        let SimServer { backbone_down, rng, .. } = server;
        backbone_down.transmit(rng)
    };
    let Some(bb_down) = bb_down else {
        return (Some(arrival), Err(ExchangeError::LostBackboneDown));
    };
    let at_wap = departure + bb_down;
    (Some(arrival), Ok(FleetReplyInFlight { reply_bytes, departure, bb_down, at_wap, fwd }))
}

/// Phase 3 (client side): wireless downlink, stamp `t4`, classify the
/// reply.
#[inline]
pub fn complete_fleet_exchange(
    chan: &mut Lane<'_>,
    clock: &mut dyn ClockControl,
    client: &mut SntpClient,
    reply: &FleetReplyInFlight,
    server_id: usize,
) -> Result<CompletedExchange, ExchangeError> {
    let Some(hop_down) = chan.transmit_down(reply.at_wap) else {
        return Err(ExchangeError::LostLastHopDown);
    };
    let back = reply.bb_down + hop_down;
    let completed_at = reply.departure + back;

    let t4 = clock.now(completed_at);
    match client.on_reply_classified(&reply.reply_bytes, t4) {
        Ok(ReplyOutcome::Sample(sample)) => Ok(CompletedExchange {
            sample,
            true_fwd: reply.fwd,
            true_back: back,
            completed_at,
            server_id,
        }),
        Ok(ReplyOutcome::KissODeath(code)) => Err(ExchangeError::KissODeath(code)),
        Err(_) => Err(ExchangeError::RejectedReply),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{PoolConfig, ServerPool};
    use clocksim::rng::SimRng;
    use clocksim::time::SimDuration;
    use clocksim::{OscillatorConfig, SimClock};
    use netsim::fleet::{FleetConfig, FleetNet};

    fn test_clock(seed: u64) -> SimClock {
        let osc = OscillatorConfig::laptop().with_skew_ppm(30.0).build(SimRng::new(seed));
        SimClock::new(osc, SimTime::ZERO)
    }

    /// The three phases back to back for fleet client `client_id`, with
    /// its lane and server 0's model reached as the fleet runners reach
    /// them: through `parts()`, every shard advanced to `t`.
    fn round_trip(
        net: &mut FleetNet,
        server: &mut SimServer,
        clock: &mut SimClock,
        client_id: u32,
        t: SimTime,
        shape: RequestShape,
    ) -> (Option<FleetArrival>, Result<CompletedExchange, ExchangeError>) {
        let (shards, models) = net.parts();
        for shard in shards.iter_mut() {
            shard.advance_to(t);
        }
        let mut lane =
            shards.iter_mut().find_map(|s| s.lane(client_id as usize)).expect("lane");
        let model = models.first_mut().expect("server model 0");
        let mut inflight = match begin_fleet_exchange(&mut lane, clock, client_id, t, shape) {
            Ok(f) => f,
            Err(e) => return (None, Err(e)),
        };
        let (arrival, reply) = serve_fleet_exchange(&inflight, server, model, client_id);
        let outcome = reply.and_then(|r| {
            complete_fleet_exchange(&mut lane, clock, &mut inflight.client, &r, server.id)
        });
        (arrival, outcome)
    }

    fn setup() -> (FleetNet, ServerPool, SimClock) {
        let cfg = FleetConfig { clients: 3, servers: 2, ..FleetConfig::default() };
        let net = FleetNet::new(&cfg, 11);
        let pool = ServerPool::new(
            PoolConfig { size: 2, false_ticker_fraction: 0.0, ..PoolConfig::default() },
            12,
        );
        (net, pool, test_clock(13))
    }

    #[test]
    fn fleet_exchange_yields_sample_and_arrival() {
        let (mut net, mut pool, mut clock) = setup();
        let t = SimTime::from_secs(5);
        let (arrival, outcome) =
            round_trip(&mut net, pool.server_mut(0), &mut clock, 0, t, RequestShape::Sntp);
        let arrival = arrival.expect("request should reach the server");
        assert!(!arrival.dropped && !arrival.kod);
        assert!(arrival.at > t);
        let parsed = NtpPacket::parse(&arrival.request).unwrap();
        assert!(parsed.is_sntp_client_shape());
        let done = outcome.expect("exchange should succeed on a quiet lane");
        // Client starts at truth; the measured offset is bounded by the
        // server's own clock error (σ tens of ms) plus path asymmetry.
        assert!(done.sample.offset.as_millis_f64().abs() < 500.0);
        assert!(done.sample.delay.as_millis_f64() > 0.0);
    }

    #[test]
    fn ntpd_shape_classifies_as_full_ntp_and_still_validates() {
        let (mut net, mut pool, mut clock) = setup();
        let t = SimTime::from_secs(5);
        let (arrival, outcome) =
            round_trip(&mut net, pool.server_mut(0), &mut clock, 1, t, RequestShape::Ntpd);
        let parsed = NtpPacket::parse(&arrival.expect("arrival").request).unwrap();
        assert!(!parsed.is_sntp_client_shape(), "ntpd shape must not look like SNTP");
        outcome.expect("shaped request must still pass the origin check");
    }

    #[test]
    fn overloaded_model_surfaces_drops_and_kisses() {
        use netsim::fleet::ServerModelConfig;
        let cfg = FleetConfig {
            clients: 8,
            servers: 1,
            server: ServerModelConfig {
                queue_capacity: 2,
                service_time: SimDuration::from_secs_f64(0.5),
                ..ServerModelConfig::default()
            },
            ..FleetConfig::default()
        };
        let mut net = FleetNet::new(&cfg, 21);
        let mut pool = ServerPool::new(PoolConfig { size: 1, ..PoolConfig::default() }, 22);
        let t = SimTime::from_secs(3);
        let mut dropped = 0;
        let mut ok = 0;
        for c in 0..8u32 {
            // Each fleet client owns its clock; a shared one would
            // serialize the burst via the departure clamp.
            let mut clock = test_clock(100 + c as u64);
            let (_, outcome) =
                round_trip(&mut net, pool.server_mut(0), &mut clock, c, t, RequestShape::Sntp);
            match outcome {
                Err(ExchangeError::Blackholed) => dropped += 1,
                Ok(_) => ok += 1,
                Err(_) => {}
            }
        }
        assert!(dropped > 0, "capacity 2 with 0.5 s service must drop a burst of 8");
        assert!(ok > 0, "head of the burst should still be served");
        let stats = net.server_model(0).expect("model").stats;
        assert_eq!(stats.dropped, dropped);
    }
}
