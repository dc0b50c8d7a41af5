//! The sans-io SNTP client.
//!
//! [`SntpClient`] owns no socket and no clock: callers hand it local
//! timestamps, it hands back request bytes and validated offset samples.
//! This mirrors how SNTP actually behaves on the platforms the paper
//! studied — each reply's offset is taken at face value ("SNTP uses clock
//! offset to update the local clock directly and none of the time-tested
//! filtering algorithms", §3.4). Whatever filtering happens on top of
//! this client (vendor thresholds, MNTP's gate + trend filter) is
//! deliberately *not* here.

use ntp_wire::{
    sntp_profile::{self, ReplyClass},
    Exchange, NtpDuration, NtpPacket, NtpTimestamp, WireError,
};

/// One validated offset measurement, as reported by an SNTP reply.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OffsetSample {
    /// Clock offset θ: how far the server's clock is ahead of ours.
    pub offset: NtpDuration,
    /// Round-trip delay δ.
    pub delay: NtpDuration,
    /// Local (client-clock) time of the request's departure (T1).
    pub t1: NtpTimestamp,
    /// Local (client-clock) time of the reply's arrival (T4).
    pub t4: NtpTimestamp,
    /// Server stratum from the reply.
    pub stratum: u8,
}

/// A reply the hardened client accepted as *meaningful* — either usable
/// time or a kiss-o'-death the caller must honor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ReplyOutcome {
    /// A validated offset measurement.
    Sample(OffsetSample),
    /// The server refused service; the four bytes are the kiss code
    /// (`RATE` → back off, `DENY`/`RSTR` → stop using this server).
    KissODeath([u8; 4]),
}

/// Sans-io SNTP client: one outstanding request at a time.
#[derive(Clone, Debug, Default)]
pub struct SntpClient {
    /// The transmit timestamp of the in-flight request, if any.
    outstanding: Option<NtpTimestamp>,
}

impl SntpClient {
    /// New idle client.
    pub fn new() -> Self {
        SntpClient::default()
    }

    /// Build a request for departure at local time `t1`. Overwrites any
    /// previous outstanding request (SNTP clients don't pipeline).
    pub fn make_request(&mut self, t1: NtpTimestamp) -> NtpPacket {
        self.outstanding = Some(t1);
        sntp_profile::client_request(t1)
    }

    /// True if a request is awaiting a reply.
    pub fn has_outstanding(&self) -> bool {
        self.outstanding.is_some()
    }

    /// Give up on the outstanding request (caller-side timeout).
    pub fn abandon(&mut self) {
        self.outstanding = None;
    }

    /// Process reply bytes received at local time `t4`, distinguishing
    /// time replies from kiss-o'-death refusals.
    ///
    /// An `Ok` — a time sample or a kiss code — consumes the outstanding
    /// request (the server answered us). An `Err` leaves it untouched:
    /// stale replies arriving after [`SntpClient::abandon`], duplicates of
    /// an already-consumed reply, origin mismatches, parse failures and
    /// failed sanity checks are all rejected without resurrecting or
    /// clearing a request.
    pub fn on_reply(&mut self, data: &[u8], t4: NtpTimestamp) -> Result<ReplyOutcome, WireError> {
        let Some(origin) = self.outstanding else {
            // Late reply after abandon(), or a duplicate of a reply we
            // already consumed.
            return Err(WireError::SanityCheck("no outstanding request"));
        };
        let packet = NtpPacket::parse(data)?;
        match sntp_profile::classify_reply(&packet, origin)? {
            ReplyClass::KissODeath(code) => {
                self.outstanding = None;
                Ok(ReplyOutcome::KissODeath(code))
            }
            ReplyClass::Time => {
                self.outstanding = None;
                let ex = Exchange::from_reply(&packet, t4);
                Ok(ReplyOutcome::Sample(OffsetSample {
                    offset: ex.offset(),
                    delay: ex.delay(),
                    t1: ex.t1,
                    t4,
                    stratum: packet.stratum,
                }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntp_wire::refid::RefId;

    fn ts(s: u32, ms: u32) -> NtpTimestamp {
        NtpTimestamp::from_parts(s, ((ms as u64 * (1 << 32)) / 1000) as u32)
    }

    /// Simulate a server reply with the given one-way delays and server
    /// clock ahead by `server_ahead_ms`.
    fn reply_for(
        request: &NtpPacket,
        fwd_ms: u32,
        back_ms: u32,
        server_ahead_ms: u32,
    ) -> (Vec<u8>, NtpTimestamp) {
        // Client t1 = request.transmit_ts (client clock). True send time:
        // pretend client clock == true time for simplicity here.
        let t1 = request.transmit_ts;
        let t2 = t1 + NtpDuration::from_millis((fwd_ms + server_ahead_ms) as i64);
        let t3 = t2 + NtpDuration::from_millis(1);
        let reply = sntp_profile::server_reply(request, t2, t3, 2, RefId::ipv4(1, 2, 3, 4), t2);
        // t4 on the client clock: true elapsed = fwd + 1 + back.
        let t4 = t1 + NtpDuration::from_millis((fwd_ms + 1 + back_ms) as i64);
        (reply.serialize(), t4)
    }

    fn sample(out: Result<ReplyOutcome, WireError>) -> OffsetSample {
        match out {
            Ok(ReplyOutcome::Sample(s)) => s,
            other => panic!("expected a time sample, got {other:?}"),
        }
    }

    #[test]
    fn symmetric_exchange_recovers_server_offset() {
        let mut c = SntpClient::new();
        let req = c.make_request(ts(100, 0));
        let (reply, t4) = reply_for(&req, 40, 40, 250);
        let s = sample(c.on_reply(&reply, t4));
        assert!((s.offset.as_millis_f64() - 250.0).abs() < 0.01, "offset={}", s.offset);
        assert!((s.delay.as_millis_f64() - 80.0).abs() < 0.01);
        assert_eq!(s.stratum, 2);
        assert!(!c.has_outstanding());
    }

    #[test]
    fn asymmetric_exchange_is_biased() {
        let mut c = SntpClient::new();
        let req = c.make_request(ts(100, 0));
        let (reply, t4) = reply_for(&req, 400, 20, 0);
        let s = sample(c.on_reply(&reply, t4));
        // Bias = (fwd − back)/2 = 190 ms: this is the whole SNTP problem.
        assert!((s.offset.as_millis_f64() - 190.0).abs() < 0.01);
    }

    #[test]
    fn reply_without_request_rejected() {
        let mut c = SntpClient::new();
        let mut other = SntpClient::new();
        let req = other.make_request(ts(5, 0));
        let (reply, t4) = reply_for(&req, 10, 10, 0);
        assert!(c.on_reply(&reply, t4).is_err());
        assert!(!c.has_outstanding());
    }

    /// A reply that limps in after the caller timed out and abandoned
    /// the request is stale: rejected, and the client stays idle (no
    /// request is resurrected).
    #[test]
    fn late_reply_after_abandon_rejected() {
        let mut c = SntpClient::new();
        let req = c.make_request(ts(100, 0));
        let (reply, t4) = reply_for(&req, 10, 10, 0);
        c.abandon();
        assert!(c.on_reply(&reply, t4).is_err());
        assert!(!c.has_outstanding());
    }

    /// A fault-layer duplicate: the first copy is consumed normally, the
    /// identical second copy finds no outstanding request and must be
    /// rejected — never double-accepted.
    #[test]
    fn duplicate_reply_rejected() {
        let mut c = SntpClient::new();
        let req = c.make_request(ts(100, 0));
        let (reply, t4) = reply_for(&req, 10, 10, 0);
        sample(c.on_reply(&reply, t4));
        let t4_later = t4 + NtpDuration::from_millis(3);
        assert!(
            c.on_reply(&reply, t4_later).is_err(),
            "duplicate must not be accepted twice"
        );
    }

    /// The reply path surfaces kiss-o'-death codes and consumes the
    /// outstanding request (the server answered — with a refusal).
    #[test]
    fn classified_path_exposes_kiss_code() {
        use ntp_wire::packet::Mode;
        let mut c = SntpClient::new();
        let request = c.make_request(ts(50, 0));
        let kod = NtpPacket {
            mode: Mode::Server,
            stratum: 0,
            reference_id: RefId::KISS_RATE,
            origin_ts: request.transmit_ts,
            transmit_ts: ts(51, 0),
            ..Default::default()
        };
        let out = c.on_reply(&kod.serialize(), ts(51, 0));
        assert_eq!(out, Ok(ReplyOutcome::KissODeath(*b"RATE")));
        assert!(!c.has_outstanding());
    }

    #[test]
    fn mismatched_origin_rejected() {
        let mut c = SntpClient::new();
        let _req = c.make_request(ts(100, 0));
        let mut other = SntpClient::new();
        let stale = other.make_request(ts(99, 0));
        let (reply, t4) = reply_for(&stale, 10, 10, 0);
        assert!(c.on_reply(&reply, t4).is_err());
        // Request still outstanding — a forged reply must not clear it.
        assert!(c.has_outstanding());
    }

    #[test]
    fn garbage_bytes_rejected() {
        let mut c = SntpClient::new();
        let _ = c.make_request(ts(1, 0));
        assert!(c.on_reply(&[0u8; 10], ts(2, 0)).is_err());
        // Bytes that do not parse leave the request waiting.
        assert!(c.has_outstanding());
    }

    #[test]
    fn abandon_clears_outstanding() {
        let mut c = SntpClient::new();
        let _ = c.make_request(ts(1, 0));
        c.abandon();
        assert!(!c.has_outstanding());
    }

    #[test]
    fn new_request_replaces_old() {
        let mut c = SntpClient::new();
        let _old = c.make_request(ts(1, 0));
        let new = c.make_request(ts(2, 0));
        // Reply to the *new* request is accepted…
        let (reply, t4) = reply_for(&new, 10, 10, 0);
        assert!(c.on_reply(&reply, t4).is_ok());
    }

    #[test]
    fn request_bytes_are_sntp_shaped() {
        let mut c = SntpClient::new();
        let req = c.make_request(ts(7, 0)).serialize();
        let p = NtpPacket::parse(&req).unwrap();
        assert!(p.is_sntp_client_shape());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use devtools::prop;
    use devtools::{prop_assert, prop_assert_eq, props};
    use ntp_wire::packet::Mode;
    use ntp_wire::refid::RefId;

    props! {
        /// One reply path, one request: over time and RATE-kiss replies
        /// with up to two mangled bytes, delivered to a waiting or an
        /// abandoned client, an `Err` leaves the request as it was, an
        /// `Ok` consumes it, and the same bytes never succeed twice.
        /// This is the stale, duplicate and forged-origin behaviour over
        /// generated replies.
        fn reply_consumes_request_at_most_once(
            t1_bits in prop::any_u64(),
            kiss in prop::ints(0..2),
            abandon in prop::ints(0..2),
            flips in prop::vecs((prop::sizes(0..48), prop::ints_incl(1, 255)), 0..3),
        ) {
            let mut c = SntpClient::new();
            let t1 = NtpTimestamp::from_bits(t1_bits);
            let request = c.make_request(t1);
            let t2 = t1 + NtpDuration::from_millis(20);
            let reply = if kiss == 1 {
                NtpPacket {
                    mode: Mode::Server,
                    stratum: 0,
                    reference_id: RefId::KISS_RATE,
                    origin_ts: request.transmit_ts,
                    transmit_ts: t2,
                    ..Default::default()
                }
            } else {
                sntp_profile::server_reply(&request, t2, t2, 2, RefId::ipv4(1, 2, 3, 4), t2)
            };
            let mut bytes = reply.serialize();
            for &(at, mask) in &flips {
                bytes[at] ^= mask as u8;
            }
            if abandon == 1 {
                c.abandon();
            }
            let waiting = c.has_outstanding();
            let t4 = t1 + NtpDuration::from_millis(41);
            match c.on_reply(&bytes, t4) {
                Err(_) => prop_assert_eq!(c.has_outstanding(), waiting),
                Ok(_) => {
                    prop_assert!(waiting, "a reply succeeded with no request out");
                    prop_assert!(!c.has_outstanding());
                    prop_assert!(c.on_reply(&bytes, t4).is_err(), "a reply succeeded twice");
                }
            }
        }
    }
}
