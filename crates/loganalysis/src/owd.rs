//! One-way-delay extraction with synchronization-state filtering.
//!
//! A server can estimate the client→server OWD of every request as
//! `T2 − T1` (its receive time minus the client's transmit timestamp) —
//! but that estimate is poisoned by the client's clock error, which for
//! unsynchronized SNTP clients reaches seconds. The paper applies "the
//! filtering heuristic described in Durairajan et al." to "eliminate
//! invalid latency measurements"; this module implements that idea in
//! two stages:
//!
//! 1. **Synchronization evidence** — full-NTP requests advertise the
//!    client's stratum and reference timestamp; a client whose reference
//!    timestamp is recent (it synchronized within the last poll cycle)
//!    is trusted. SNTP requests carry no such evidence and fall through
//!    to stage 2.
//! 2. **Plausibility bounds** — raw OWDs outside `(0, max_plausible]`
//!    are discarded; a client whose surviving samples still straddle an
//!    implausible range is dropped entirely.
//!
//! The per-record decision lives in [`surviving_owd_ms`], which takes an
//! already-parsed request so each record is parsed once. Both consumers
//! ride on it: the exact per-client [`extract_owds`] behind Figure 1, and
//! the full-scale pipeline's constant-memory quantile sketches.
//!
//! Ground-truth validation (the generator knows every client's true
//! clock error) lives in the tests: the filter must keep most
//! well-synchronized clients and reject most badly-offset ones.

use std::collections::BTreeMap;

use ntp_wire::{NtpPacket, NtpTimestamp};

use crate::synth::{ts_at, LogRecord, ServerLog};

/// Filter parameters.
#[derive(Clone, Debug)]
pub struct OwdFilter {
    /// Maximum credible one-way delay, ms.
    pub max_plausible_ms: f64,
    /// Maximum age of the advertised reference timestamp for a full-NTP
    /// client to count as synchronized, seconds.
    pub max_ref_age_secs: f64,
}

impl Default for OwdFilter {
    fn default() -> Self {
        OwdFilter { max_plausible_ms: 1_500.0, max_ref_age_secs: 4_096.0 }
    }
}

/// Raw OWD of one record: server receive time minus client transmit
/// timestamp, ms. `None` when the packet doesn't parse.
pub fn raw_owd_ms(record: &LogRecord) -> Option<f64> {
    let p = NtpPacket::parse_ref(&record.request).ok()?;
    let t2: NtpTimestamp = ts_at(record.received_at_secs);
    Some(t2.wrapping_sub(p.transmit_ts()).as_millis_f64())
}

/// Evidence that the sending client's clock is synchronized, from the
/// request alone.
fn has_sync_evidence(p: &ntp_wire::PacketView<'_>, filter: &OwdFilter) -> bool {
    if p.is_sntp_client_shape() {
        return false;
    }
    let stratum = p.stratum();
    if stratum == 0 || stratum > 15 {
        return false;
    }
    if p.reference_ts().is_zero() {
        return false;
    }
    let age = p.transmit_ts().wrapping_sub(p.reference_ts()).as_seconds_f64();
    age >= 0.0 && age <= filter.max_ref_age_secs
}

/// The per-record filter: compute the raw OWD of an already-parsed
/// request received at `received_at_secs` and apply the Durairajan
/// filter. Returns the surviving OWD in ms, or `None` when the record is
/// discarded.
pub fn surviving_owd_ms(
    p: &ntp_wire::PacketView<'_>,
    received_at_secs: f64,
    filter: &OwdFilter,
) -> Option<f64> {
    let t2: NtpTimestamp = ts_at(received_at_secs);
    let owd = t2.wrapping_sub(p.transmit_ts()).as_millis_f64();
    let plausible = owd > 0.0 && owd <= filter.max_plausible_ms;
    // Trusted NTP clients only need plausibility; untrusted (SNTP)
    // clients need it too, but with a tighter skepticism: an OWD
    // under a millisecond from a WAN client is a clock artifact.
    let keep = if has_sync_evidence(p, filter) {
        plausible
    } else {
        plausible && owd >= 1.0
    };
    keep.then_some(owd)
}

/// Per-client OWD samples that survive the filter.
#[derive(Clone, Debug, Default)]
pub struct ClientOwds {
    /// Surviving samples, ms.
    pub samples_ms: Vec<f64>,
    /// Total records seen for the client.
    pub seen: u32,
    /// Records discarded.
    pub discarded: u32,
}

impl ClientOwds {
    /// Minimum surviving OWD (the per-client statistic of Figure 1).
    pub fn min_owd_ms(&self) -> Option<f64> {
        self.samples_ms.iter().copied().reduce(f64::min)
    }
}

/// Extract filtered per-client OWDs from a log, each client's samples
/// in log order.
pub fn extract_owds(log: &ServerLog, filter: &OwdFilter) -> BTreeMap<u32, ClientOwds> {
    let mut clients: BTreeMap<u32, ClientOwds> = BTreeMap::new();
    for r in &log.records {
        let entry = clients.entry(r.client_id).or_default();
        entry.seen += 1;
        let owd = NtpPacket::parse_ref(&r.request)
            .ok()
            .and_then(|p| surviving_owd_ms(&p, r.received_at_secs, filter));
        match owd {
            Some(owd) => entry.samples_ms.push(owd),
            None => entry.discarded += 1,
        }
    }
    clients
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SERVERS;
    use crate::synth::{generate_server_log, SynthConfig};

    fn log() -> ServerLog {
        let ag1 = SERVERS.iter().find(|s| s.id == "AG1").unwrap();
        generate_server_log(ag1, &SynthConfig { scale: 10_000, duration_secs: 86_400 }, 42)
    }

    #[test]
    fn raw_owd_includes_clock_error() {
        let log = log();
        for r in log.records.iter().take(200) {
            let raw = raw_owd_ms(r).unwrap();
            let expected = r.true_owd_ms - r.true_clock_err_ms;
            assert!((raw - expected).abs() < 1.0, "raw={raw} expected={expected}");
        }
    }

    #[test]
    fn filter_keeps_synchronized_clients_samples() {
        let log = log();
        let owds = extract_owds(&log, &OwdFilter::default());
        // For well-synchronized clients, surviving min OWD should be
        // within ~20 ms of the true min OWD.
        let mut checked = 0;
        for (id, c) in &owds {
            let recs: Vec<&crate::synth::LogRecord> =
                log.records.iter().filter(|r| r.client_id == *id).collect();
            let well_synced = recs.iter().all(|r| r.true_clock_err_ms.abs() < 20.0);
            if !well_synced || c.samples_ms.len() < 3 {
                continue;
            }
            let true_min = recs.iter().map(|r| r.true_owd_ms).fold(f64::INFINITY, f64::min);
            if true_min > 1_400.0 {
                continue; // clipped by the plausibility cap
            }
            if let Some(min) = c.min_owd_ms() {
                assert!((min - true_min).abs() < 25.0, "min={min} true={true_min}");
                checked += 1;
            }
        }
        assert!(checked > 5, "checked={checked}");
    }

    #[test]
    fn badly_offset_clients_lose_most_samples() {
        let log = log();
        let owds = extract_owds(&log, &OwdFilter::default());
        let mut bad_kept = 0u32;
        let mut bad_total = 0u32;
        for r in &log.records {
            if r.true_clock_err_ms.abs() > 2_000.0 {
                bad_total += 1;
            }
        }
        for (id, c) in &owds {
            let err = log
                .records
                .iter()
                .find(|r| r.client_id == *id)
                .map(|r| r.true_clock_err_ms)
                .unwrap_or(0.0);
            if err.abs() > 2_000.0 {
                bad_kept += c.samples_ms.len() as u32;
            }
        }
        assert!(bad_total > 0);
        let kept_frac = bad_kept as f64 / bad_total as f64;
        assert!(kept_frac < 0.4, "badly-offset clients kept {kept_frac}");
    }

    #[test]
    fn negative_owds_always_discarded() {
        let log = log();
        let owds = extract_owds(&log, &OwdFilter::default());
        for c in owds.values() {
            assert!(c.samples_ms.iter().all(|&o| o > 0.0));
        }
    }

    #[test]
    fn accounting_adds_up() {
        let log = log();
        let owds = extract_owds(&log, &OwdFilter::default());
        let seen: u32 = owds.values().map(|c| c.seen).sum();
        let kept: usize = owds.values().map(|c| c.samples_ms.len()).sum();
        let discarded: u32 = owds.values().map(|c| c.discarded).sum();
        assert_eq!(seen as usize, log.records.len());
        assert_eq!(kept + discarded as usize, seen as usize);
    }
}
