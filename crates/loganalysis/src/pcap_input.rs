//! Feed real capture files into the analysis pipeline.
//!
//! The paper's §3.1 pipeline was "a light-weight tool based on
//! netdissect.h and print-ntp.c" — i.e. it consumed tcpdump captures.
//! This module is that front end: parse a classic libpcap file
//! (Ethernet/IPv4/UDP), pick out the NTP datagrams, and hand back
//! `(timestamp, source, packet)` tuples the protocol classifier and OWD
//! extractor understand. Together with `netsim::pcap::PcapWriter` the
//! loop closes: simulate → capture → re-analyze with the same tools.
//!
//! The core reader is the streaming [`NtpPacketIter`]: one datagram per
//! `next()`, no whole-capture materialization, so arbitrarily large
//! captures analyze in constant memory. [`read_ntp_packets`] is the
//! collecting adapter for callers that want the old `Vec` API.

use ntp_wire::NtpPacket;

/// One NTP datagram recovered from a capture.
#[derive(Clone, Debug)]
pub struct CapturedNtp {
    /// Capture timestamp, seconds (+ fractional) since the capture epoch.
    pub at_secs: f64,
    /// Source IPv4 address.
    pub src_ip: [u8; 4],
    /// Destination IPv4 address.
    pub dst_ip: [u8; 4],
    /// Source UDP port.
    pub src_port: u16,
    /// The parsed NTP packet.
    pub packet: NtpPacket,
}

/// Errors while reading a capture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PcapError {
    /// File shorter than the global header, or bad magic.
    BadHeader,
    /// Only Ethernet (linktype 1) captures are supported.
    UnsupportedLinkType(u32),
    /// A record header ran past the end of the file.
    Truncated,
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::BadHeader => write!(f, "not a little-endian libpcap file"),
            PcapError::UnsupportedLinkType(lt) => write!(f, "unsupported linktype {lt}"),
            PcapError::Truncated => write!(f, "truncated capture"),
        }
    }
}

impl std::error::Error for PcapError {}

fn u32le(b: &[u8], off: usize) -> Option<u32> {
    Some(u32::from_le_bytes(b.get(off..off + 4)?.try_into().ok()?))
}

/// Streaming reader over the NTP datagrams of a libpcap byte stream:
/// yields one [`CapturedNtp`] per `next()` without materializing the
/// capture. Non-NTP and malformed frames are skipped silently (as
/// tcpdump-based tooling would); a truncated record yields one
/// `Err(Truncated)` and then the iterator fuses.
pub struct NtpPacketIter<'a> {
    data: &'a [u8],
    pos: usize,
    failed: bool,
}

impl Iterator for NtpPacketIter<'_> {
    type Item = Result<CapturedNtp, PcapError>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.failed && self.pos < self.data.len() {
            let (Some(ts_sec), Some(ts_usec), Some(incl)) = (
                u32le(self.data, self.pos),
                u32le(self.data, self.pos + 4),
                u32le(self.data, self.pos + 8),
            ) else {
                self.failed = true;
                return Some(Err(PcapError::Truncated));
            };
            let Some(frame) = self
                .pos
                .checked_add(16)
                .and_then(|start| self.data.get(start..start + incl as usize))
            else {
                self.failed = true;
                return Some(Err(PcapError::Truncated));
            };
            self.pos += 16 + incl as usize;
            if let Some(captured) = decode_frame(ts_sec as f64 + ts_usec as f64 / 1e6, frame) {
                return Some(Ok(captured));
            }
        }
        None
    }
}

/// Validate a libpcap header and return the streaming [`NtpPacketIter`]
/// over its records.
pub fn iter_ntp_packets(data: &[u8]) -> Result<NtpPacketIter<'_>, PcapError> {
    if data.len() < 24 || u32le(data, 0) != Some(0xa1b2_c3d4) {
        return Err(PcapError::BadHeader);
    }
    match u32le(data, 20) {
        Some(1) => Ok(NtpPacketIter { data, pos: 24, failed: false }),
        Some(lt) => Err(PcapError::UnsupportedLinkType(lt)),
        None => Err(PcapError::BadHeader),
    }
}

/// Parse a libpcap byte stream, returning every UDP datagram on port 123
/// (either direction) that carries a parseable NTP packet. (Collecting
/// adapter over [`iter_ntp_packets`].)
pub fn read_ntp_packets(data: &[u8]) -> Result<Vec<CapturedNtp>, PcapError> {
    iter_ntp_packets(data)?.collect()
}

fn decode_frame(at_secs: f64, frame: &[u8]) -> Option<CapturedNtp> {
    // Ethernet II, IPv4 only.
    const ETHERTYPE_IPV4: [u8; 2] = [0x08, 0x00];
    if frame.get(12..14) != Some(ETHERTYPE_IPV4.as_slice()) {
        return None;
    }
    let ip = frame.get(14..)?;
    let v_ihl = *ip.first()?;
    if v_ihl >> 4 != 4 {
        return None;
    }
    let ihl = ((v_ihl & 0x0F) as usize) * 4;
    if *ip.get(9)? != 17 {
        return None; // not UDP
    }
    let src_ip: [u8; 4] = ip.get(12..16)?.try_into().ok()?;
    let dst_ip: [u8; 4] = ip.get(16..20)?.try_into().ok()?;
    let udp = ip.get(ihl..)?;
    let src_port = u16::from_be_bytes(udp.get(0..2)?.try_into().ok()?);
    let dst_port = u16::from_be_bytes(udp.get(2..4)?.try_into().ok()?);
    if src_port != 123 && dst_port != 123 {
        return None;
    }
    let payload = udp.get(8..)?;
    let packet = NtpPacket::parse(payload).ok()?;
    Some(CapturedNtp { at_secs, src_ip, dst_ip, src_port, packet })
}

/// Share of captured *client requests* that are SNTP-shaped — the
/// §3.1 protocol statistic, straight from a capture.
pub fn sntp_request_share(packets: &[CapturedNtp]) -> f64 {
    streamed_sntp_request_share(packets.iter().cloned().map(Ok)).unwrap_or(0.0)
}

/// The same statistic computed in one constant-memory pass over a
/// streaming packet source (e.g. [`NtpPacketIter`]): only two counters
/// are held, never the packets.
pub fn streamed_sntp_request_share<I>(packets: I) -> Result<f64, PcapError>
where
    I: IntoIterator<Item = Result<CapturedNtp, PcapError>>,
{
    let mut requests = 0u64;
    let mut sntp = 0u64;
    for p in packets {
        let p = p?;
        if p.packet.mode == ntp_wire::packet::Mode::Client {
            requests += 1;
            if p.packet.is_sntp_client_shape() {
                sntp += 1;
            }
        }
    }
    Ok(if requests == 0 { 0.0 } else { sntp as f64 / requests as f64 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksim::time::SimTime;
    use netsim::pcap::{Endpoint, PcapWriter};
    use ntp_wire::{sntp_profile, NtpTimestamp};

    fn capture_with(n_sntp: usize, n_ntp: usize) -> Vec<u8> {
        let client = Endpoint::of([10, 0, 0, 2], 40_000);
        let server = Endpoint::of([203, 0, 113, 1], 123);
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for i in 0..n_sntp {
            let req = sntp_profile::client_request(NtpTimestamp::from_parts(100 + i as u32, 0));
            w.record_udp(SimTime::from_secs(i as i64), client, server, &req.serialize()).unwrap();
        }
        for i in 0..n_ntp {
            let mut req = sntp_profile::client_request(NtpTimestamp::from_parts(200 + i as u32, 0));
            req.poll = 6;
            req.precision = -20;
            req.stratum = 3;
            w.record_udp(SimTime::from_secs(100 + i as i64), client, server, &req.serialize())
                .unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn roundtrip_through_writer_and_reader() {
        let bytes = capture_with(3, 2);
        let packets = read_ntp_packets(&bytes).unwrap();
        assert_eq!(packets.len(), 5);
        assert_eq!(packets[0].dst_ip, [203, 0, 113, 1]);
        assert_eq!(packets[0].src_port, 40_000);
        assert!((packets[3].at_secs - 100.0).abs() < 1e-6);
    }

    #[test]
    fn protocol_share_from_capture() {
        // Routed through the streaming iterator: the capture is consumed
        // one datagram at a time, never collected.
        let bytes = capture_with(8, 2);
        let share = streamed_sntp_request_share(iter_ntp_packets(&bytes).unwrap()).unwrap();
        assert!((share - 0.8).abs() < 1e-9, "share {share}");
        // The batch adapter agrees.
        let packets = read_ntp_packets(&bytes).unwrap();
        assert!((sntp_request_share(&packets) - share).abs() < 1e-12);
    }

    #[test]
    fn streaming_iterator_matches_batch_reader() {
        let bytes = capture_with(5, 3);
        let batch = read_ntp_packets(&bytes).unwrap();
        let streamed: Vec<CapturedNtp> =
            iter_ntp_packets(&bytes).unwrap().collect::<Result<_, _>>().unwrap();
        assert_eq!(batch.len(), streamed.len());
        for (a, b) in batch.iter().zip(&streamed) {
            assert_eq!(a.at_secs, b.at_secs);
            assert_eq!(a.src_ip, b.src_ip);
            assert_eq!(a.packet.serialize(), b.packet.serialize());
        }
    }

    #[test]
    fn garbage_rejected() {
        assert_eq!(read_ntp_packets(&[]).unwrap_err(), PcapError::BadHeader);
        assert_eq!(read_ntp_packets(&[0u8; 30]).unwrap_err(), PcapError::BadHeader);
    }

    #[test]
    fn truncated_record_detected() {
        let mut bytes = capture_with(1, 0);
        bytes.truncate(bytes.len() - 10);
        assert_eq!(read_ntp_packets(&bytes).unwrap_err(), PcapError::Truncated);
        // The streaming iterator reports the truncation once, then fuses.
        let mut it = iter_ntp_packets(&bytes).unwrap();
        assert!(matches!(it.next(), Some(Err(PcapError::Truncated))));
        assert!(it.next().is_none());
    }

    #[test]
    fn non_ntp_traffic_skipped() {
        let a = Endpoint::of([10, 0, 0, 2], 40_000);
        let b = Endpoint { port: 53, ..Endpoint::of([10, 0, 0, 3], 53) };
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.record_udp(SimTime::from_secs(1), a, b, &[1, 2, 3]).unwrap(); // DNS-ish
        let req = sntp_profile::client_request(NtpTimestamp::from_parts(1, 0));
        w.record_udp(SimTime::from_secs(2), a, Endpoint::of([203, 0, 113, 1], 123), &req.serialize())
            .unwrap();
        let packets = read_ntp_packets(&w.finish().unwrap()).unwrap();
        assert_eq!(packets.len(), 1);
    }

    #[test]
    fn end_to_end_simulated_exchange_reanalyzed() {
        // Simulate real exchanges, capture them, and recover the protocol
        // mix from the capture alone.
        use clocksim::{OscillatorConfig, SimClock, SimRng};
        use netsim::Testbed;
        use sntp::{perform_exchange_with, PoolConfig, ServerPool};

        let mut tb = Testbed::wired(9);
        let mut pool = ServerPool::new(PoolConfig::default(), 10);
        let osc = OscillatorConfig::laptop().build(SimRng::new(11));
        let mut clock = SimClock::new(osc, SimTime::ZERO);
        let client = Endpoint::of([192, 168, 0, 5], 51_000);
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for i in 0..20 {
            let t = SimTime::from_secs(i * 5);
            let id = pool.pick();
            let server = Endpoint::of([203, 0, 113, id as u8 + 1], 123);
            let mut cap = Vec::new();
            let sim = pool.server_mut(id);
            let _ = perform_exchange_with(&mut tb, sim, &mut clock, t, None, None, Some(&mut cap));
            for pkt in cap {
                let (s, d) = if pkt.outbound { (client, server) } else { (server, client) };
                w.record_udp(pkt.at, s, d, &pkt.bytes).unwrap();
            }
        }
        let packets = read_ntp_packets(&w.finish().unwrap()).unwrap();
        assert!(packets.len() >= 38, "captured {}", packets.len());
        // All requests in this run are SNTP-shaped.
        assert!((sntp_request_share(&packets) - 1.0).abs() < 1e-9);
        // Replies carry server stratum.
        assert!(packets
            .iter()
            .filter(|p| p.packet.mode == ntp_wire::packet::Mode::Server)
            .all(|p| p.packet.stratum >= 1));
    }
}
