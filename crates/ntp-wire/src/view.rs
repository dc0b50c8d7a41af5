//! Zero-copy borrowed view over a 48-byte NTP packet header.
//!
//! [`PacketView`] validates the same three structural invariants as
//! [`NtpPacket::parse`] (length ≥ 48, version 1..=4, non-zero mode) but
//! borrows the bytes instead of decoding them into an owned struct: field
//! accessors read straight out of the datagram, and raw timestamp bytes can
//! be copied into a reply without a decode/encode round trip. This is the
//! parse half of the server-core fast path — a batch of arena-resident
//! request bytes is classified and answered without materializing a single
//! [`NtpPacket`].
//!
//! The equivalence contract (pinned by property tests here and in
//! `devtools::prop` suites downstream):
//!
//! * `PacketView::new(data)` errs exactly when `NtpPacket::parse(data)`
//!   errs, with the same [`WireError`] variant;
//! * when both succeed, [`PacketView::to_packet`] equals the parsed packet
//!   field for field.

use crate::error::WireError;
use crate::packet::{get_u32_be, get_u64_be, LeapIndicator, Mode, NtpPacket, Version, PACKET_LEN};
use crate::refid::RefId;
use crate::timestamp::{NtpShort, NtpTimestamp};

/// A validated, borrowed 48-byte NTP header.
///
/// Construction performs the structural checks once; every accessor after
/// that is a branch-free fixed-offset load. Trailing bytes (extension
/// fields, MAC) are outside the view, mirroring how [`NtpPacket::parse`]
/// ignores them.
///
/// ```
/// use ntp_wire::{NtpPacket, NtpTimestamp, PacketView};
///
/// let req = ntp_wire::sntp_profile::client_request(NtpTimestamp::from_parts(1000, 7));
/// let bytes = req.serialize();
/// let view = PacketView::new(&bytes).unwrap();
/// assert!(view.is_sntp_client_shape());
/// assert_eq!(view.to_packet(), req);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct PacketView<'a> {
    bytes: &'a [u8; PACKET_LEN],
}

impl<'a> PacketView<'a> {
    /// Validate `data` as an NTP header and borrow its first 48 bytes.
    ///
    /// Error semantics are identical to [`NtpPacket::parse`]: `Truncated`
    /// below 48 bytes, `BadVersion` outside 1..=4, `BadMode` for the
    /// reserved mode 0. Trailing bytes are ignored.
    #[inline]
    pub fn new(data: &'a [u8]) -> Result<Self, WireError> {
        let Some(head) = data.get(..PACKET_LEN) else {
            return Err(WireError::Truncated { have: data.len(), need: PACKET_LEN });
        };
        let Ok(bytes) = <&[u8; PACKET_LEN]>::try_from(head) else {
            // Unreachable: `head` is exactly PACKET_LEN long. Kept as an
            // error return (not a panic) so the fast path stays total.
            return Err(WireError::Truncated { have: data.len(), need: PACKET_LEN });
        };
        let &[first, ..] = bytes;
        let version = (first >> 3) & 0b111;
        if !(1..=4).contains(&version) {
            return Err(WireError::BadVersion(version));
        }
        if first & 0b111 == 0 {
            return Err(WireError::BadMode(0));
        }
        Ok(PacketView { bytes })
    }

    /// The validated 48 header bytes.
    #[inline]
    pub fn as_bytes(&self) -> &'a [u8; PACKET_LEN] {
        self.bytes
    }

    /// The LI/VN/Mode octet (a fixed-array destructure, not an index —
    /// the accessors below stay structurally panic-free).
    #[inline]
    fn first_octet(&self) -> u8 {
        let &[first, ..] = self.bytes;
        first
    }

    /// Leap indicator (top two bits of the first octet).
    #[inline]
    pub fn leap(&self) -> LeapIndicator {
        LeapIndicator::from_bits(self.first_octet() >> 6)
    }

    /// Protocol version (validated to 1..=4 at construction).
    #[inline]
    pub fn version(&self) -> Version {
        Version((self.first_octet() >> 3) & 0b111)
    }

    /// Association mode (validated non-zero at construction).
    #[inline]
    pub fn mode(&self) -> Mode {
        match Mode::from_bits(self.first_octet() & 0b111) {
            Ok(m) => m,
            // Unreachable: mode 0 was rejected in `new`. `Client` keeps
            // the accessor total without a panic path.
            Err(_) => Mode::Client,
        }
    }

    /// Raw mode bits (1..=7) without the enum round trip — the cheapest
    /// classify key for the batched pipeline.
    #[inline]
    pub fn mode_bits(&self) -> u8 {
        self.first_octet() & 0b111
    }

    /// Stratum octet.
    #[inline]
    pub fn stratum(&self) -> u8 {
        let &[_, stratum, ..] = self.bytes;
        stratum
    }

    /// Advertised log₂ poll interval.
    #[inline]
    pub fn poll(&self) -> i8 {
        let &[_, _, poll, ..] = self.bytes;
        poll as i8
    }

    /// Advertised log₂ clock precision.
    #[inline]
    pub fn precision(&self) -> i8 {
        let &[_, _, _, precision, ..] = self.bytes;
        precision as i8
    }

    /// Root delay field.
    #[inline]
    pub fn root_delay(&self) -> NtpShort {
        NtpShort::from_bits(get_u32_be(self.bytes, 4))
    }

    /// Root dispersion field.
    #[inline]
    pub fn root_dispersion(&self) -> NtpShort {
        NtpShort::from_bits(get_u32_be(self.bytes, 8))
    }

    /// Reference identifier.
    #[inline]
    pub fn reference_id(&self) -> RefId {
        RefId(get_u32_be(self.bytes, 12))
    }

    /// Reference timestamp.
    #[inline]
    pub fn reference_ts(&self) -> NtpTimestamp {
        NtpTimestamp::from_bits(get_u64_be(self.bytes, 16))
    }

    /// Origin timestamp (T1 echo).
    #[inline]
    pub fn origin_ts(&self) -> NtpTimestamp {
        NtpTimestamp::from_bits(get_u64_be(self.bytes, 24))
    }

    /// Receive timestamp (T2).
    #[inline]
    pub fn receive_ts(&self) -> NtpTimestamp {
        NtpTimestamp::from_bits(get_u64_be(self.bytes, 32))
    }

    /// Transmit timestamp (T3 — in a client request, the client send time
    /// the server must echo back as the reply's origin).
    #[inline]
    pub fn transmit_ts(&self) -> NtpTimestamp {
        NtpTimestamp::from_bits(get_u64_be(self.bytes, 40))
    }

    /// The eight transmit-timestamp bytes, still big-endian — copy these
    /// straight into a reply's origin field (offset 24) for a zero-decode
    /// origin echo.
    #[inline]
    pub fn transmit_ts_raw(&self) -> &'a [u8; 8] {
        match self.bytes.last_chunk::<8>() {
            Some(arr) => arr,
            // Unreachable: a [u8; 48] always has a last 8-byte chunk.
            None => &[0u8; 8],
        }
    }

    /// Byte-level version of [`NtpPacket::is_sntp_client_shape`]: mode 3
    /// and bytes 1..40 all zero (everything between the first octet and
    /// the transmit timestamp). One slice comparison, no field decoding.
    #[inline]
    pub fn is_sntp_client_shape(&self) -> bool {
        self.mode_bits() == Mode::Client as u8
            && self.bytes.get(1..40).is_some_and(|mid| mid == [0u8; 39])
    }

    /// Decode into an owned [`NtpPacket`]. Field-for-field identical to
    /// `NtpPacket::parse(self.as_bytes())`, which by construction cannot
    /// fail here.
    pub fn to_packet(&self) -> NtpPacket {
        NtpPacket {
            leap: self.leap(),
            version: self.version(),
            mode: self.mode(),
            stratum: self.stratum(),
            poll: self.poll(),
            precision: self.precision(),
            root_delay: self.root_delay(),
            root_dispersion: self.root_dispersion(),
            reference_id: self.reference_id(),
            reference_ts: self.reference_ts(),
            origin_ts: self.origin_ts(),
            receive_ts: self.receive_ts(),
            transmit_ts: self.transmit_ts(),
        }
    }
}

impl NtpPacket {
    /// Borrow-parse: validate `data` and return a zero-copy [`PacketView`]
    /// instead of decoding into an owned packet. Same error semantics as
    /// [`NtpPacket::parse`]; the hot-path entry point for the server core.
    #[inline]
    pub fn parse_ref(data: &[u8]) -> Result<PacketView<'_>, WireError> {
        PacketView::new(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sntp_profile;

    fn sample() -> NtpPacket {
        NtpPacket {
            leap: LeapIndicator::Leap61,
            version: Version::V3,
            mode: Mode::Server,
            stratum: 3,
            poll: 10,
            precision: -18,
            root_delay: NtpShort::from_millis(7),
            root_dispersion: NtpShort::from_millis(2),
            reference_id: RefId::ipv4(10, 0, 0, 1),
            reference_ts: NtpTimestamp::from_parts(900, 1),
            origin_ts: NtpTimestamp::from_parts(901, 2),
            receive_ts: NtpTimestamp::from_parts(901, 3),
            transmit_ts: NtpTimestamp::from_parts(901, 4),
        }
    }

    #[test]
    fn view_fields_match_parse() {
        let bytes = sample().serialize();
        let view = PacketView::new(&bytes).unwrap();
        let parsed = NtpPacket::parse(&bytes).unwrap();
        assert_eq!(view.to_packet(), parsed);
        assert_eq!(view.leap(), parsed.leap);
        assert_eq!(view.version(), parsed.version);
        assert_eq!(view.mode(), parsed.mode);
        assert_eq!(view.stratum(), parsed.stratum);
        assert_eq!(view.poll(), parsed.poll);
        assert_eq!(view.precision(), parsed.precision);
        assert_eq!(view.transmit_ts(), parsed.transmit_ts);
    }

    #[test]
    fn parse_ref_is_the_view_constructor() {
        let bytes = sample().serialize();
        let view = NtpPacket::parse_ref(&bytes).unwrap();
        assert_eq!(view.to_packet(), sample());
    }

    #[test]
    fn truncated_rejected_like_parse() {
        let bytes = sample().serialize();
        let err = PacketView::new(&bytes[..47]).unwrap_err();
        assert_eq!(err, WireError::Truncated { have: 47, need: 48 });
        assert_eq!(err, NtpPacket::parse(&bytes[..47]).unwrap_err());
    }

    #[test]
    fn bad_version_and_mode_rejected_like_parse() {
        let mut bytes = sample().serialize();
        bytes[0] &= !(0b111 << 3); // version 0
        assert!(matches!(PacketView::new(&bytes), Err(WireError::BadVersion(0))));
        let mut bytes = sample().serialize();
        bytes[0] &= !0b111; // mode 0
        assert!(matches!(PacketView::new(&bytes), Err(WireError::BadMode(0))));
    }

    #[test]
    fn trailing_bytes_ignored() {
        let mut bytes = sample().serialize();
        bytes.extend_from_slice(&[0xFF; 16]);
        let view = PacketView::new(&bytes).unwrap();
        assert_eq!(view.to_packet(), sample());
    }

    #[test]
    fn sntp_shape_matches_decoded_check() {
        let req = sntp_profile::client_request(NtpTimestamp::from_parts(55, 66));
        let bytes = req.serialize();
        let view = PacketView::new(&bytes).unwrap();
        assert!(view.is_sntp_client_shape());
        // An ntpd-style request (non-zero poll/precision) is not SNTP-shaped.
        let ntpd = NtpPacket { poll: 6, precision: -20, ..req };
        let bytes = ntpd.serialize();
        assert!(!PacketView::new(&bytes).unwrap().is_sntp_client_shape());
    }

    #[test]
    fn transmit_ts_raw_is_the_wire_bytes() {
        let p = sample();
        let bytes = p.serialize();
        let view = PacketView::new(&bytes).unwrap();
        assert_eq!(view.transmit_ts_raw(), &bytes[40..48]);
        assert_eq!(
            NtpTimestamp::from_bits(u64::from_be_bytes(*view.transmit_ts_raw())),
            p.transmit_ts
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use devtools::prop;
    use devtools::{prop_assert, prop_assert_eq, props};

    props! {
        /// The zero-copy parser agrees with `NtpPacket::parse` on
        /// arbitrary 0–128-byte inputs — same accept/reject decision,
        /// same error variant, same decoded fields — and never panics.
        fn view_agrees_with_parse(data in prop::vecs(prop::any_u8(), 0..128)) {
            match (PacketView::new(&data), NtpPacket::parse(&data)) {
                (Ok(view), Ok(packet)) => prop_assert_eq!(view.to_packet(), packet),
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(
                    false,
                    "accept/reject disagreement: view={:?} parse={:?}",
                    a.map(|v| v.to_packet()),
                    b
                ),
            }
        }

        /// Byte-level SNTP shape detection matches the decoded-field check.
        fn sntp_shape_agrees(data in prop::vecs_exact(prop::any_u8(), PACKET_LEN)) {
            if let (Ok(view), Ok(packet)) = (PacketView::new(&data), NtpPacket::parse(&data)) {
                prop_assert_eq!(view.is_sntp_client_shape(), packet.is_sntp_client_shape());
            }
        }
    }
}
