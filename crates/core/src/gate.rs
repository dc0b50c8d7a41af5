//! The wireless-hint gate (paper §4.1–4.2).
//!
//! MNTP emits a synchronization request only when **all three** baseline
//! thresholds hold:
//!
//! * RSSI strictly greater than −75 dBm,
//! * noise strictly less than −70 dBm,
//! * SNR margin (RSSI − noise) at least 20 dB.
//!
//! "These values are not arbitrary, rather they emerged through an
//! iterative process of refining our experiments" — they are plain
//! config here ([`crate::MntpConfig`]) so the `ablation_thresholds` bench
//! can sweep them.

use netsim::WirelessHints;

use crate::config::MntpConfig;

/// The request gate: the three thresholds.
#[derive(Clone, Debug)]
pub struct HintGate {
    rssi_min_dbm: f64,
    noise_max_dbm: f64,
    snr_margin_min_db: f64,
}

impl HintGate {
    /// Build from a config's thresholds.
    pub fn new(cfg: &MntpConfig) -> Self {
        HintGate {
            rssi_min_dbm: cfg.rssi_min_dbm,
            noise_max_dbm: cfg.noise_max_dbm,
            snr_margin_min_db: cfg.snr_margin_min_db,
        }
    }

    /// `favorableSNRCondition()` of Algorithm 1. `None` hints (no wireless
    /// adaptor to query, e.g. wired or cellular) pass the gate: MNTP
    /// degrades to plain filtered SNTP when hints are unavailable.
    pub fn favorable(&self, hints: Option<&WirelessHints>) -> bool {
        match hints {
            None => true,
            Some(h) => {
                h.rssi_dbm > self.rssi_min_dbm
                    && h.noise_dbm < self.noise_max_dbm
                    && h.snr_margin_db() >= self.snr_margin_min_db
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate() -> HintGate {
        HintGate::new(&MntpConfig::default())
    }

    fn hints(rssi: f64, noise: f64) -> WirelessHints {
        WirelessHints { rssi_dbm: rssi, noise_dbm: noise }
    }

    #[test]
    fn good_channel_passes() {
        assert!(gate().favorable(Some(&hints(-65.0, -90.0))));
    }

    #[test]
    fn weak_rssi_defers() {
        assert!(!gate().favorable(Some(&hints(-76.0, -99.0))));
    }

    #[test]
    fn high_noise_defers() {
        let g = gate();
        // SNR margin is 31 dB but noise itself breaches −70.
        assert!(!g.favorable(Some(&hints(-38.0, -69.0))));
    }

    #[test]
    fn thin_snr_margin_defers() {
        let g = gate();
        // Both absolute thresholds fine, margin only 15 dB.
        assert!(!g.favorable(Some(&hints(-74.0, -89.0))));
    }

    #[test]
    fn exact_boundaries() {
        let g = gate();
        // RSSI must be strictly greater than −75.
        assert!(!g.favorable(Some(&hints(-75.0, -99.0))));
        // Noise must be strictly less than −70.
        assert!(!g.favorable(Some(&hints(-40.0, -70.0))));
        // Margin of exactly 20 dB passes (≥).
        assert!(g.favorable(Some(&hints(-70.0, -90.0))));
    }

    #[test]
    fn missing_hints_pass() {
        assert!(gate().favorable(None));
    }
}
