//! The 48-byte NTP packet header (RFC 5905 §7.3) and its codec.
//!
//! ```text
//!  0                   1                   2                   3
//!  0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |LI | VN  |Mode |    Stratum     |     Poll      |  Precision   |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |                         Root Delay                            |
//! |                       Root Dispersion                         |
//! |                          Reference ID                         |
//! |                     Reference Timestamp (64)                  |
//! |                      Origin Timestamp (64)                    |
//! |                      Receive Timestamp (64)                   |
//! |                      Transmit Timestamp (64)                  |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! ```

use crate::error::WireError;
use crate::refid::RefId;
use crate::timestamp::{NtpShort, NtpTimestamp};

/// Length in bytes of the fixed NTP header (no extension fields / MAC).
pub const PACKET_LEN: usize = 48;

/// Leap-indicator field (warns of an impending leap second).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
#[repr(u8)]
pub enum LeapIndicator {
    /// No warning.
    #[default]
    NoWarning = 0,
    /// Last minute of the day has 61 seconds.
    Leap61 = 1,
    /// Last minute of the day has 59 seconds.
    Leap59 = 2,
    /// Clock unsynchronized.
    Unknown = 3,
}

impl LeapIndicator {
    /// Decode from the two-bit field value.
    pub const fn from_bits(v: u8) -> Self {
        match v & 0b11 {
            0 => LeapIndicator::NoWarning,
            1 => LeapIndicator::Leap61,
            2 => LeapIndicator::Leap59,
            _ => LeapIndicator::Unknown,
        }
    }
}

/// Protocol version. SNTP clients in the wild use 3 (RFC 1769) or 4
/// (RFC 4330); NTPv4 is 4.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Version(pub u8);

impl Version {
    /// NTP version 3.
    pub const V3: Version = Version(3);
    /// NTP version 4 (the default everywhere in this workspace).
    pub const V4: Version = Version(4);
}

impl Default for Version {
    fn default() -> Self {
        Version::V4
    }
}

/// Association mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
#[repr(u8)]
pub enum Mode {
    /// Symmetric active (peer).
    SymmetricActive = 1,
    /// Symmetric passive (peer).
    SymmetricPassive = 2,
    /// Client request.
    Client = 3,
    /// Server reply.
    Server = 4,
    /// Broadcast server.
    Broadcast = 5,
    /// NTP control message.
    Control = 6,
    /// Reserved / private use.
    Private = 7,
}

impl Mode {
    /// Decode from the three-bit field value. `0` is reserved and rejected.
    pub const fn from_bits(v: u8) -> Result<Self, WireError> {
        match v & 0b111 {
            1 => Ok(Mode::SymmetricActive),
            2 => Ok(Mode::SymmetricPassive),
            3 => Ok(Mode::Client),
            4 => Ok(Mode::Server),
            5 => Ok(Mode::Broadcast),
            6 => Ok(Mode::Control),
            7 => Ok(Mode::Private),
            other => Err(WireError::BadMode(other)),
        }
    }
}

/// A decoded NTP packet header.
///
/// The struct stores every header field losslessly, so
/// `NtpPacket::parse(p.serialize()) == p` for all valid packets — the
/// property tests in this module check exactly that.
///
/// ```
/// use ntp_wire::{NtpPacket, NtpTimestamp, packet::Mode};
///
/// let request = ntp_wire::sntp_profile::client_request(NtpTimestamp::from_parts(1000, 0));
/// let bytes = request.serialize();
/// assert_eq!(bytes.len(), ntp_wire::PACKET_LEN);
/// let parsed = NtpPacket::parse(&bytes).unwrap();
/// assert_eq!(parsed.mode, Mode::Client);
/// assert!(parsed.is_sntp_client_shape());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NtpPacket {
    /// Leap indicator.
    pub leap: LeapIndicator,
    /// Protocol version (1..=4 accepted).
    pub version: Version,
    /// Association mode.
    pub mode: Mode,
    /// Stratum (0 = kiss-o'-death / unspecified, 1 = primary, 2.. = secondary).
    pub stratum: u8,
    /// Log₂ of the poll interval in seconds, as advertised by the sender.
    pub poll: i8,
    /// Log₂ of the clock precision in seconds (e.g. −20 ≈ 1 µs).
    pub precision: i8,
    /// Total round-trip delay to the reference clock.
    pub root_delay: NtpShort,
    /// Total dispersion to the reference clock.
    pub root_dispersion: NtpShort,
    /// Reference identifier.
    pub reference_id: RefId,
    /// Time the system clock was last set or corrected.
    pub reference_ts: NtpTimestamp,
    /// T1: client transmit time, echoed by the server.
    pub origin_ts: NtpTimestamp,
    /// T2: time the request arrived at the server.
    pub receive_ts: NtpTimestamp,
    /// T3: time the reply left the server.
    pub transmit_ts: NtpTimestamp,
}

impl Default for NtpPacket {
    fn default() -> Self {
        NtpPacket {
            leap: LeapIndicator::NoWarning,
            version: Version::V4,
            mode: Mode::Client,
            stratum: 0,
            poll: 0,
            precision: 0,
            root_delay: NtpShort::ZERO,
            root_dispersion: NtpShort::ZERO,
            reference_id: RefId::NONE,
            reference_ts: NtpTimestamp::ZERO,
            origin_ts: NtpTimestamp::ZERO,
            receive_ts: NtpTimestamp::ZERO,
            transmit_ts: NtpTimestamp::ZERO,
        }
    }
}

/// Write a big-endian `u32` at a fixed offset. Every call site passes a
/// compile-time offset into a ≥48-byte buffer; an out-of-range write is
/// a no-op rather than a panic (panic-free hot-path policy).
#[inline]
pub(crate) fn put_u32_be(buf: &mut [u8], at: usize, v: u32) {
    if let Some(dst) = buf.get_mut(at..at + 4) {
        dst.copy_from_slice(&v.to_be_bytes());
    }
}

/// Write a big-endian `u64` at a fixed offset (see [`put_u32_be`]).
#[inline]
pub(crate) fn put_u64_be(buf: &mut [u8], at: usize, v: u64) {
    if let Some(dst) = buf.get_mut(at..at + 8) {
        dst.copy_from_slice(&v.to_be_bytes());
    }
}

/// Read a big-endian `u32` from a fixed offset. Call sites pass
/// compile-time offsets into length-checked buffers; an out-of-range
/// read yields zero rather than a panic (panic-free hot-path policy).
#[inline]
pub(crate) fn get_u32_be(buf: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    if let Some(src) = buf.get(at..at + 4) {
        b.copy_from_slice(src);
    }
    u32::from_be_bytes(b)
}

/// Read a big-endian `u64` from a fixed offset (see [`get_u32_be`]).
#[inline]
pub(crate) fn get_u64_be(buf: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    if let Some(src) = buf.get(at..at + 8) {
        b.copy_from_slice(src);
    }
    u64::from_be_bytes(b)
}

impl NtpPacket {
    /// Serialize into a fresh 48-byte vector — a thin wrapper over
    /// [`NtpPacket::to_bytes`] for callers that want an owned buffer.
    /// Allocation-free callers use [`NtpPacket::to_bytes`] (stack array)
    /// or [`NtpPacket::write_bytes`] (caller's buffer) instead.
    pub fn serialize(&self) -> Vec<u8> {
        self.to_bytes().to_vec()
    }

    /// Encode into a fixed 48-byte array on the stack (no heap).
    #[inline]
    pub fn to_bytes(&self) -> [u8; PACKET_LEN] {
        let mut buf = [0u8; PACKET_LEN];
        self.write_bytes(&mut buf);
        buf
    }

    /// Encode into a caller-provided 48-byte buffer (no allocation).
    pub fn write_bytes(&self, buf: &mut [u8; PACKET_LEN]) {
        let [b0, b1, b2, b3, ..] = buf;
        *b0 = ((self.leap as u8) << 6) | ((self.version.0 & 0b111) << 3) | self.mode as u8;
        *b1 = self.stratum;
        *b2 = self.poll as u8;
        *b3 = self.precision as u8;
        put_u32_be(buf, 4, self.root_delay.to_bits());
        put_u32_be(buf, 8, self.root_dispersion.to_bits());
        put_u32_be(buf, 12, self.reference_id.0);
        put_u64_be(buf, 16, self.reference_ts.to_bits());
        put_u64_be(buf, 24, self.origin_ts.to_bits());
        put_u64_be(buf, 32, self.receive_ts.to_bits());
        put_u64_be(buf, 40, self.transmit_ts.to_bits());
    }

    /// Parse from a byte slice. Trailing bytes (extension fields, MAC) are
    /// ignored, mirroring how a minimal SNTP client treats them.
    pub fn parse(data: &[u8]) -> Result<Self, WireError> {
        let &[first, stratum, poll, precision, ..] = data else {
            return Err(WireError::Truncated { have: data.len(), need: PACKET_LEN });
        };
        if data.len() < PACKET_LEN {
            return Err(WireError::Truncated { have: data.len(), need: PACKET_LEN });
        }
        let leap = LeapIndicator::from_bits(first >> 6);
        let version = (first >> 3) & 0b111;
        if !(1..=4).contains(&version) {
            return Err(WireError::BadVersion(version));
        }
        let mode = Mode::from_bits(first & 0b111)?;
        Ok(NtpPacket {
            leap,
            version: Version(version),
            mode,
            stratum,
            poll: poll as i8,
            precision: precision as i8,
            root_delay: NtpShort::from_bits(get_u32_be(data, 4)),
            root_dispersion: NtpShort::from_bits(get_u32_be(data, 8)),
            reference_id: RefId(get_u32_be(data, 12)),
            reference_ts: NtpTimestamp::from_bits(get_u64_be(data, 16)),
            origin_ts: NtpTimestamp::from_bits(get_u64_be(data, 24)),
            receive_ts: NtpTimestamp::from_bits(get_u64_be(data, 32)),
            transmit_ts: NtpTimestamp::from_bits(get_u64_be(data, 40)),
        })
    }

    /// True when every field other than the first octet is zero — the wire
    /// signature of an RFC 4330 SNTP client request, and the heuristic the
    /// paper (§3.1) uses to tell SNTP clients from NTP clients in logs.
    pub fn is_sntp_client_shape(&self) -> bool {
        self.mode == Mode::Client
            && self.stratum == 0
            && self.poll == 0
            && self.precision == 0
            && self.root_delay == NtpShort::ZERO
            && self.root_dispersion == NtpShort::ZERO
            && self.reference_id == RefId::NONE
            && self.reference_ts.is_zero()
            && self.origin_ts.is_zero()
            && self.receive_ts.is_zero()
    }

    /// True when the packet is a kiss-o'-death (stratum 0 server reply).
    pub fn is_kiss_of_death(&self) -> bool {
        self.mode == Mode::Server && self.stratum == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NtpPacket {
        NtpPacket {
            leap: LeapIndicator::NoWarning,
            version: Version::V4,
            mode: Mode::Server,
            stratum: 2,
            poll: 6,
            precision: -20,
            root_delay: NtpShort::from_millis(12),
            root_dispersion: NtpShort::from_millis(3),
            reference_id: RefId::ipv4(192, 0, 2, 1),
            reference_ts: NtpTimestamp::from_parts(1000, 0),
            origin_ts: NtpTimestamp::from_parts(1001, 42),
            receive_ts: NtpTimestamp::from_parts(1001, 99),
            transmit_ts: NtpTimestamp::from_parts(1001, 123),
        }
    }

    #[test]
    fn roundtrip_sample() {
        let p = sample();
        let bytes = p.serialize();
        assert_eq!(bytes.len(), PACKET_LEN);
        let q = NtpPacket::parse(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn first_octet_layout() {
        let p = NtpPacket { leap: LeapIndicator::Unknown, version: Version::V3, mode: Mode::Client, ..Default::default() };
        let bytes = p.serialize();
        // LI=3 (11), VN=3 (011), Mode=3 (011) -> 0b11_011_011 = 0xDB
        assert_eq!(bytes[0], 0xDB);
    }

    #[test]
    fn truncated_rejected() {
        let p = sample();
        let bytes = p.serialize();
        let err = NtpPacket::parse(&bytes[..47]).unwrap_err();
        assert_eq!(err, WireError::Truncated { have: 47, need: 48 });
    }

    #[test]
    fn trailing_bytes_ignored() {
        let p = sample();
        let mut bytes = p.serialize();
        bytes.extend_from_slice(&[0u8; 20]); // fake extension field
        assert_eq!(NtpPacket::parse(&bytes).unwrap(), p);
    }

    #[test]
    fn version_zero_rejected() {
        let mut bytes = sample().serialize();
        bytes[0] &= !(0b111 << 3); // version = 0
        assert!(matches!(NtpPacket::parse(&bytes), Err(WireError::BadVersion(0))));
    }

    #[test]
    fn mode_zero_rejected() {
        let mut bytes = sample().serialize();
        bytes[0] &= !0b111; // mode = 0
        assert!(matches!(NtpPacket::parse(&bytes), Err(WireError::BadMode(0))));
    }

    #[test]
    fn sntp_client_shape_detection() {
        let req = NtpPacket { transmit_ts: NtpTimestamp::from_parts(7, 7), ..Default::default() };
        assert!(req.is_sntp_client_shape());
        let ntp_req = NtpPacket { poll: 6, precision: -20, ..req };
        assert!(!ntp_req.is_sntp_client_shape());
    }

    #[test]
    fn kiss_of_death_detection() {
        let kod = NtpPacket {
            mode: Mode::Server,
            stratum: 0,
            reference_id: RefId::KISS_RATE,
            ..Default::default()
        };
        assert!(kod.is_kiss_of_death());
        assert_eq!(kod.reference_id.as_kiss_code(), Some(*b"RATE"));
    }

    #[test]
    fn all_leap_indicator_bits_decode() {
        assert_eq!(LeapIndicator::from_bits(0), LeapIndicator::NoWarning);
        assert_eq!(LeapIndicator::from_bits(1), LeapIndicator::Leap61);
        assert_eq!(LeapIndicator::from_bits(2), LeapIndicator::Leap59);
        assert_eq!(LeapIndicator::from_bits(3), LeapIndicator::Unknown);
        assert_eq!(LeapIndicator::from_bits(7), LeapIndicator::Unknown); // masked
    }

    /// Fixed-vector guard for the slice-based codec: every field placed
    /// with a recognizable bit pattern, expected bytes written out by
    /// hand from the RFC 5905 layout. Any change to field order, widths,
    /// or endianness trips this.
    #[test]
    fn fixed_vector_byte_layout() {
        let p = NtpPacket {
            leap: LeapIndicator::Leap59, // LI = 2
            version: Version::V4,        // VN = 4
            mode: Mode::Server,          // Mode = 4
            stratum: 0x02,
            poll: 0x06,
            precision: -20, // 0xEC
            root_delay: NtpShort::from_bits(0x0001_0203),
            root_dispersion: NtpShort::from_bits(0x0405_0607),
            reference_id: RefId(0x4750_5300), // "GPS\0"
            reference_ts: NtpTimestamp::from_bits(0x1112_1314_1516_1718),
            origin_ts: NtpTimestamp::from_bits(0x2122_2324_2526_2728),
            receive_ts: NtpTimestamp::from_bits(0x3132_3334_3536_3738),
            transmit_ts: NtpTimestamp::from_bits(0x4142_4344_4546_4748),
        };
        #[rustfmt::skip]
        let expected: [u8; PACKET_LEN] = [
            0xA4, 0x02, 0x06, 0xEC,                         // LI|VN|Mode, stratum, poll, precision
            0x00, 0x01, 0x02, 0x03,                         // root delay
            0x04, 0x05, 0x06, 0x07,                         // root dispersion
            0x47, 0x50, 0x53, 0x00,                         // reference id
            0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, // reference ts
            0x21, 0x22, 0x23, 0x24, 0x25, 0x26, 0x27, 0x28, // origin ts
            0x31, 0x32, 0x33, 0x34, 0x35, 0x36, 0x37, 0x38, // receive ts
            0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, // transmit ts
        ];
        assert_eq!(p.serialize(), expected);
        assert_eq!(NtpPacket::parse(&expected).unwrap(), p);
    }

    #[test]
    fn write_bytes_matches_serialize() {
        let mut buf = [0u8; PACKET_LEN];
        sample().write_bytes(&mut buf);
        assert_eq!(buf.to_vec(), sample().serialize());
    }

    #[test]
    fn to_bytes_matches_serialize() {
        let p = sample();
        assert_eq!(p.to_bytes().to_vec(), p.serialize());
    }

    #[test]
    fn all_modes_roundtrip() {
        for m in [
            Mode::SymmetricActive,
            Mode::SymmetricPassive,
            Mode::Client,
            Mode::Server,
            Mode::Broadcast,
            Mode::Control,
            Mode::Private,
        ] {
            assert_eq!(Mode::from_bits(m as u8).unwrap(), m);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use devtools::prop::{self, Gen};
    use devtools::{prop_assert, prop_assert_eq, props};

    type PacketParts = (i64, i64, i64, u8, i8, i8, u32, u32, u32, (u64, u64, u64, u64));

    /// Every valid header field, as primitives the shrinker understands.
    fn arb_packet_parts() -> impl Gen<Value = PacketParts> {
        (
            prop::ints(0..4),      // leap indicator bits
            prop::ints_incl(1, 4), // version
            prop::ints_incl(1, 7), // mode bits
            prop::any_u8(),
            prop::any_i8(),
            prop::any_i8(),
            prop::any_u32(),
            prop::any_u32(),
            prop::any_u32(),
            (prop::any_u64(), prop::any_u64(), prop::any_u64(), prop::any_u64()),
        )
    }

    fn packet_from(parts: PacketParts) -> NtpPacket {
        let (li, vn, mode, stratum, poll, prec, rd, rdisp, refid, ts) = parts;
        NtpPacket {
            leap: LeapIndicator::from_bits(li as u8),
            version: Version(vn as u8),
            mode: Mode::from_bits(mode as u8).unwrap(),
            stratum,
            poll,
            precision: prec,
            root_delay: NtpShort::from_bits(rd),
            root_dispersion: NtpShort::from_bits(rdisp),
            reference_id: RefId(refid),
            reference_ts: NtpTimestamp::from_bits(ts.0),
            origin_ts: NtpTimestamp::from_bits(ts.1),
            receive_ts: NtpTimestamp::from_bits(ts.2),
            transmit_ts: NtpTimestamp::from_bits(ts.3),
        }
    }

    props! {
        fn parse_serialize_roundtrip(parts in arb_packet_parts()) {
            let p = packet_from(parts);
            let bytes = p.serialize();
            prop_assert_eq!(bytes.len(), PACKET_LEN);
            let q = NtpPacket::parse(&bytes).unwrap();
            prop_assert_eq!(p, q);
        }

        fn parse_never_panics(data in prop::vecs(prop::any_u8(), 0..128)) {
            let _ = NtpPacket::parse(&data);
        }

        fn valid_len_parse_fails_only_on_version_or_mode(data in prop::vecs_exact(prop::any_u8(), PACKET_LEN)) {
            match NtpPacket::parse(&data) {
                Ok(_) => {}
                Err(WireError::BadVersion(_)) | Err(WireError::BadMode(_)) => {}
                Err(e) => prop_assert!(false, "unexpected error {e:?}"),
            }
        }
    }
}
