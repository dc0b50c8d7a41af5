//! SNTP vs NTP detection from packet shape.
//!
//! "SNTP sets all fields in an NTP packet to zero except the first
//! octet" (§2) — so a capture-side classifier can label each request by
//! inspecting the header: zeroed stratum/poll/precision/root fields mean
//! an SNTP client, populated ones mean a full NTP implementation. A
//! client is labelled by majority vote over its requests (a client never
//! legitimately flips implementations mid-capture, but captures can hold
//! corrupt packets).
//!
//! The heuristic feeds two different statistics:
//!
//! - [`classify_clients`] — exact per-client majority vote over a whole
//!   [`ServerLog`]; memory grows with the client population. Figure 2
//!   and the fleet experiment read it.
//! - [`ShapeTally`] — request-level counts only: constant memory, used
//!   by the full-scale pipeline where per-client state for 15M clients
//!   is exactly what streaming is meant to avoid. Carries the
//!   prediction-vs-ground-truth confusion counts the validation report
//!   needs.

use std::collections::BTreeMap;

use ntp_wire::NtpPacket;

use crate::synth::ServerLog;

/// Protocol verdict for a client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// RFC 4330-shaped requests.
    Sntp,
    /// Full NTP implementation.
    Ntp,
}

/// Classify one request.
pub fn classify_packet(packet: &NtpPacket) -> Protocol {
    if packet.is_sntp_client_shape() {
        Protocol::Sntp
    } else {
        Protocol::Ntp
    }
}

/// Constant-memory request-level protocol tally with ground-truth
/// confusion counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShapeTally {
    /// Requests classified SNTP.
    pub sntp: u64,
    /// Requests classified full NTP.
    pub ntp: u64,
    /// Requests that did not parse.
    pub malformed: u64,
    /// Classified SNTP and truly SNTP.
    pub true_sntp: u64,
    /// Classified NTP and truly NTP.
    pub true_ntp: u64,
}

impl ShapeTally {
    /// Empty tally.
    pub fn new() -> ShapeTally {
        ShapeTally::default()
    }

    /// Tally one request's shape against its ground truth. `view` is
    /// the request's zero-copy parse (`None` = it did not parse), so a
    /// composite sink parses each request once and feeds several
    /// analyzers from it. Returns the verdict (`None` for malformed
    /// requests) so callers can key further sinks off it.
    pub fn push(
        &mut self,
        view: Option<&ntp_wire::PacketView<'_>>,
        true_sntp: bool,
    ) -> Option<Protocol> {
        let Some(view) = view else {
            self.malformed += 1;
            return None;
        };
        if view.is_sntp_client_shape() {
            self.sntp += 1;
            if true_sntp {
                self.true_sntp += 1;
            }
            Some(Protocol::Sntp)
        } else {
            self.ntp += 1;
            if !true_sntp {
                self.true_ntp += 1;
            }
            Some(Protocol::Ntp)
        }
    }

    /// Fold another tally in (commutative counter addition).
    pub fn merge(&mut self, other: &ShapeTally) {
        self.sntp += other.sntp;
        self.ntp += other.ntp;
        self.malformed += other.malformed;
        self.true_sntp += other.true_sntp;
        self.true_ntp += other.true_ntp;
    }

    /// Requests that produced a verdict.
    pub fn classified(&self) -> u64 {
        self.sntp + self.ntp
    }

    /// SNTP share of classified requests (request-weighted, unlike the
    /// per-client [`sntp_share`]).
    pub fn sntp_request_share(&self) -> f64 {
        if self.classified() == 0 {
            0.0
        } else {
            self.sntp as f64 / self.classified() as f64
        }
    }

    /// Fraction of classified requests whose verdict matches ground
    /// truth.
    pub fn accuracy(&self) -> f64 {
        if self.classified() == 0 {
            0.0
        } else {
            (self.true_sntp + self.true_ntp) as f64 / self.classified() as f64
        }
    }
}

/// Classify every client in a log by majority vote over its requests
/// (ties go to SNTP). Unparseable requests are ignored.
pub fn classify_clients(log: &ServerLog) -> BTreeMap<u32, Protocol> {
    let mut votes: BTreeMap<u32, (u32, u32)> = BTreeMap::new();
    for r in &log.records {
        if let Ok(p) = NtpPacket::parse(&r.request) {
            let e = votes.entry(r.client_id).or_insert((0, 0));
            match classify_packet(&p) {
                Protocol::Sntp => e.0 += 1,
                Protocol::Ntp => e.1 += 1,
            }
        }
    }
    votes
        .into_iter()
        .map(|(id, (s, n))| (id, if s >= n { Protocol::Sntp } else { Protocol::Ntp }))
        .collect()
}

/// Fraction of a log's clients classified as SNTP.
pub fn sntp_share(log: &ServerLog) -> f64 {
    let classes = classify_clients(log);
    if classes.is_empty() {
        return 0.0;
    }
    classes.values().filter(|p| **p == Protocol::Sntp).count() as f64 / classes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SERVERS;
    use crate::synth::{generate_server_log, SynthConfig};

    fn cfg() -> SynthConfig {
        SynthConfig { scale: 10_000, duration_secs: 86_400 }
    }

    #[test]
    fn classification_matches_ground_truth() {
        let ag1 = SERVERS.iter().find(|s| s.id == "AG1").unwrap();
        let log = generate_server_log(ag1, &cfg(), 1);
        let classes = classify_clients(&log);
        for r in &log.records {
            let got = classes[&r.client_id];
            let want = if r.true_sntp { Protocol::Sntp } else { Protocol::Ntp };
            assert_eq!(got, want, "client {}", r.client_id);
        }
    }

    #[test]
    fn shape_tally_is_accurate_and_merge_invariant() {
        let ag1 = SERVERS.iter().find(|s| s.id == "AG1").unwrap();
        let log = generate_server_log(ag1, &cfg(), 10);
        let mut whole = ShapeTally::new();
        let mut a = ShapeTally::new();
        let mut b = ShapeTally::new();
        for (i, r) in log.records.iter().enumerate() {
            let view = NtpPacket::parse_ref(&r.request).ok();
            whole.push(view.as_ref(), r.true_sntp);
            let half = if i % 2 == 0 { &mut a } else { &mut b };
            half.push(view.as_ref(), r.true_sntp);
        }
        a.merge(&b);
        assert_eq!(whole.sntp, a.sntp);
        assert_eq!(whole.ntp, a.ntp);
        assert_eq!(whole.classified(), log.records.len() as u64);
        // The synth generator emits exactly ground-truth shapes, so the
        // request-level classifier is perfect on it.
        assert!((whole.accuracy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn public_server_is_sntp_majority() {
        let mw2 = SERVERS.iter().find(|s| s.id == "MW2").unwrap();
        let log = generate_server_log(mw2, &SynthConfig::default(), 2);
        assert!(sntp_share(&log) > 0.5);
    }

    #[test]
    fn isp_internal_server_is_ntp_majority() {
        let en1 = SERVERS.iter().find(|s| s.id == "EN1").unwrap();
        let log = generate_server_log(en1, &SynthConfig { scale: 10, duration_secs: 86_400 }, 3);
        assert!(sntp_share(&log) < 0.5);
    }

    #[test]
    fn empty_log_yields_zero_share() {
        let ag1 = SERVERS.iter().find(|s| s.id == "AG1").unwrap();
        let mut log = generate_server_log(ag1, &cfg(), 4);
        log.records.clear();
        assert_eq!(sntp_share(&log), 0.0);
    }
}
