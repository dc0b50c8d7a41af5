//! A simulated stratum server.
//!
//! Each [`SimServer`] owns a [`ReferenceClock`] with its own (usually
//! small, occasionally terrible) error, a processing delay, and the wired
//! backbone path between itself and the testbed's uplink. Servers speak
//! real packet bytes: requests are parsed and replies serialized through
//! `ntp-wire`, so the whole codec is exercised on every exchange.

use clocksim::rng::SimRng;
use clocksim::time::{SimDuration, SimTime};
use clocksim::ClockControl;
use clocksim::ReferenceClock;
use netsim::admission::{Admission, Ladder};
use netsim::link::Link;
use ntp_wire::{refid::RefId, sntp_profile, NtpPacket, PacketView, WireError, PACKET_LEN};

/// A simulated NTP server.
pub struct SimServer {
    /// Server index within its pool.
    pub id: usize,
    /// Advertised stratum.
    pub stratum: u8,
    /// Advertised reference id.
    pub refid: RefId,
    /// The server's own clock.
    pub clock: ReferenceClock,
    /// Processing time between receive and transmit.
    pub proc_delay: SimDuration,
    /// Backbone path, client → server direction.
    pub backbone_up: Link,
    /// Backbone path, server → client direction.
    pub backbone_down: Link,
    /// True clock error magnitude this server was built with, ms — ground
    /// truth for validating false-ticker rejection (not visible to
    /// protocol code).
    pub true_error_ms: f64,
    /// RNG stream for this server's backbone links.
    pub rng: SimRng,
    /// Kiss-o'-death rate limiting: minimum spacing between requests
    /// from one client before the server answers `RATE` (public pool
    /// servers enforce exactly this against abusive SNTP clients). Read
    /// on every request, so a fault plan may rewrite it between
    /// exchanges.
    pub min_poll_interval: Option<SimDuration>,
    /// Per-client rate-limit state, keyed the way a real pool server
    /// keys it: by source.
    admission: Admission,
    /// KoD replies sent (diagnostics).
    pub kod_sent: u64,
}

impl SimServer {
    /// Answer a request that arrived (fully parsed) at true time
    /// `arrival`. Returns serialized reply bytes and the departure time.
    ///
    /// This is the classic single-client pool path: the whole
    /// `pool`/`exchange` stack drives one simulated device against its
    /// server pool, so every request through here is that one device and
    /// rate-limit state is keyed under a single implicit client. For
    /// multi-client use, call [`SimServer::handle_from`] with a distinct
    /// key per source, or requests from different clients would be
    /// conflated into one spacing stream and KoD each other.
    pub fn handle(
        &mut self,
        request_bytes: &[u8],
        arrival: SimTime,
    ) -> Result<(Vec<u8>, SimTime), WireError> {
        self.handle_from(0, request_bytes, arrival)
    }

    /// Answer a request from a specific client key (source surrogate).
    /// Rate limiting compares this client's arrival spacing only against
    /// its own previous request: the same admission verdict one shard of
    /// the batched [`crate::server_core::ServerCore`] pipeline reaches.
    pub fn handle_from(
        &mut self,
        client: u64,
        request_bytes: &[u8],
        arrival: SimTime,
    ) -> Result<(Vec<u8>, SimTime), WireError> {
        let request = NtpPacket::parse_ref(request_bytes)?;
        // Rate limiting: answer a kiss-o'-death instead of time.
        let too_fast = self.admission.rate(client, arrival.as_nanos(), self.min_poll_interval, 0);
        let departure = arrival + self.proc_delay;
        Ok(self.serve(&request, arrival, departure, too_fast))
    }

    /// Answer an already-parsed request with an externally decided fate:
    /// the caller (either [`handle`](Self::handle) or a fleet-scale
    /// service model) picks the departure time and whether to send a
    /// RATE kiss; this method only stamps the packet from the server's
    /// clock, through the same reply writers as
    /// [`crate::server_core::ServerCore`]. Timestamp reads preserve the
    /// historical order — KoD reads the clock once at `departure`; a
    /// time reply reads at `arrival` then `departure`.
    pub fn serve(
        &mut self,
        request: &PacketView<'_>,
        arrival: SimTime,
        departure: SimTime,
        kod: bool,
    ) -> (Vec<u8>, SimTime) {
        let mut reply = [0u8; PACKET_LEN];
        if kod {
            self.kod_sent += 1;
            let t3 = self.clock.now(departure);
            sntp_profile::write_kod_into(request, RefId::KISS_RATE, t3, &mut reply);
        } else {
            let t2 = self.clock.now(arrival);
            let t3 = self.clock.now(departure);
            sntp_profile::write_server_reply_into(
                request,
                t2,
                t3,
                self.stratum,
                self.refid,
                t2,
                &mut reply,
            );
        }
        (reply.to_vec(), departure)
    }

    /// Build a well-behaved stratum-2 server with a given clock error.
    pub fn with_error_ms(id: usize, error_ms: f64, backbone: (Link, Link), rng: &mut SimRng) -> Self {
        let err = ntp_wire::NtpDuration::from_seconds_f64(error_ms / 1e3);
        SimServer {
            id,
            stratum: 2,
            refid: RefId::ipv4(192, 0, 2, (id % 250) as u8 + 1),
            clock: ReferenceClock::with_wobble(err, 0.3, 300.0, rng.fork(id as u64)),
            proc_delay: SimDuration::from_micros(150),
            backbone_up: backbone.0,
            backbone_down: backbone.1,
            true_error_ms: error_ms,
            rng: rng.fork(1000 + id as u64),
            min_poll_interval: None,
            admission: Admission::new(16, Ladder::default()),
            kod_sent: 0,
        }
    }

    /// Enable kiss-o'-death rate limiting (builder-style).
    pub fn with_rate_limit(mut self, min_interval: SimDuration) -> Self {
        self.min_poll_interval = Some(min_interval);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::link::DelayModel;
    use ntp_wire::{Exchange, NtpTimestamp};

    fn server(error_ms: f64) -> SimServer {
        let mut rng = SimRng::new(1);
        let up = Link::lossless(DelayModel::backbone(20.0));
        let down = Link::lossless(DelayModel::backbone(20.0));
        SimServer::with_error_ms(0, error_ms, (up, down), &mut rng)
    }

    #[test]
    fn reply_carries_server_time() {
        let mut s = server(100.0);
        let req = sntp_profile::client_request(NtpTimestamp::from_parts(50, 0)).serialize();
        let arrival = SimTime::from_secs(1000);
        let (reply_bytes, departure) = s.handle(&req, arrival).unwrap();
        assert_eq!(departure, arrival + SimDuration::from_micros(150));
        let reply = NtpPacket::parse(&reply_bytes).unwrap();
        assert_eq!(reply.stratum, 2);
        assert_eq!(reply.origin_ts, NtpTimestamp::from_parts(50, 0));
        // Server clock error ≈ 100 ms: t2 should be ≈ true arrival + 100 ms.
        let diff = reply.receive_ts.wrapping_sub(arrival.to_ntp());
        assert!((diff.as_millis_f64() - 100.0).abs() < 3.0, "diff={diff:?}");
    }

    #[test]
    fn t3_after_t2_by_processing_delay() {
        let mut s = server(0.0);
        let req = sntp_profile::client_request(NtpTimestamp::from_parts(1, 0)).serialize();
        let (reply_bytes, _) = s.handle(&req, SimTime::from_secs(10)).unwrap();
        let reply = NtpPacket::parse(&reply_bytes).unwrap();
        let proc = reply.transmit_ts.wrapping_sub(reply.receive_ts);
        assert!((proc.as_seconds_f64() - 150e-6).abs() < 20e-6, "proc={proc:?}");
    }

    #[test]
    fn garbage_request_rejected() {
        let mut s = server(0.0);
        assert!(s.handle(&[1, 2, 3], SimTime::ZERO).is_err());
    }

    #[test]
    fn rate_limited_server_sends_kod() {
        let mut s = server(0.0).with_rate_limit(SimDuration::from_secs(8));
        let req = sntp_profile::client_request(NtpTimestamp::from_parts(1, 0)).serialize();
        // First request: normal reply.
        let (r1, _) = s.handle(&req, SimTime::from_secs(10)).unwrap();
        assert!(!NtpPacket::parse(&r1).unwrap().is_kiss_of_death());
        // Second request 2 s later: RATE.
        let (r2, _) = s.handle(&req, SimTime::from_secs(12)).unwrap();
        let kod = NtpPacket::parse(&r2).unwrap();
        assert!(kod.is_kiss_of_death());
        assert_eq!(kod.reference_id.as_kiss_code(), Some(*b"RATE"));
        assert_eq!(s.kod_sent, 1);
        // After backing off, service resumes.
        let (r3, _) = s.handle(&req, SimTime::from_secs(30)).unwrap();
        assert!(!NtpPacket::parse(&r3).unwrap().is_kiss_of_death());
    }

    /// Two clients interleaving requests must not trip each other's rate
    /// limit: each polls at a compliant 10 s cadence, but their combined
    /// arrival stream at the server is one request every 5 s — under the
    /// 8 s minimum. With the old single-slot `last_request` this KoD'd
    /// every request after the first; per-client keying serves them all.
    #[test]
    fn interleaved_clients_do_not_kod_each_other() {
        let mut s = server(0.0).with_rate_limit(SimDuration::from_secs(8));
        let req = sntp_profile::client_request(NtpTimestamp::from_parts(1, 0)).serialize();
        for i in 0..8i64 {
            let client = (i % 2) as u64 + 1;
            let arrival = SimTime::from_secs(i * 5);
            let (reply, _) = s.handle_from(client, &req, arrival).unwrap();
            assert!(
                !NtpPacket::parse(&reply).unwrap().is_kiss_of_death(),
                "client {client} KoD'd at t={}s by its peer's traffic",
                i * 5
            );
        }
        assert_eq!(s.kod_sent, 0);
        // The limit still bites a genuinely abusive client.
        let (reply, _) = s.handle_from(1, &req, SimTime::from_secs(37)).unwrap();
        assert!(NtpPacket::parse(&reply).unwrap().is_kiss_of_death());
        assert_eq!(s.kod_sent, 1);
    }

    #[test]
    fn client_rejects_kod_replies() {
        use crate::client::{ReplyOutcome, SntpClient};
        let mut s = server(0.0).with_rate_limit(SimDuration::from_secs(60));
        let mut c = SntpClient::new();
        let t1 = NtpTimestamp::from_parts(5, 0);
        let req = c.make_request(t1).serialize();
        s.handle(&req, SimTime::from_secs(1)).unwrap();
        // Immediately again: KoD, which yields a kiss code, never time.
        let req = c.make_request(t1).serialize();
        let (kod_bytes, _) = s.handle(&req, SimTime::from_secs(2)).unwrap();
        let out = c.on_reply(&kod_bytes, NtpTimestamp::from_parts(6, 0));
        assert_eq!(out, Ok(ReplyOutcome::KissODeath(*b"RATE")));
        assert!(!c.has_outstanding());
    }

    #[test]
    fn end_to_end_offset_equals_server_error_on_symmetric_path() {
        // Client clock = truth; symmetric 10 ms legs; server ahead 75 ms.
        let mut s = server(75.0);
        let t_send = SimTime::from_secs(500);
        let t1 = t_send.to_ntp();
        let req = sntp_profile::client_request(t1).serialize();
        let arrival = t_send + SimDuration::from_millis(10);
        let (reply_bytes, departure) = s.handle(&req, arrival).unwrap();
        let t4_true = departure + SimDuration::from_millis(10);
        let reply = NtpPacket::parse(&reply_bytes).unwrap();
        let ex = Exchange::from_reply(&reply, t4_true.to_ntp());
        assert!((ex.offset().as_millis_f64() - 75.0).abs() < 3.0, "offset={:?}", ex.offset());
        assert!((ex.delay().as_millis_f64() - 20.0).abs() < 1.0);
    }
}
