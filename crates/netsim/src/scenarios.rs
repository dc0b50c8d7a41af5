//! Named deployment scenarios — the "wider variety of cellular and WiFi
//! settings" the paper's §7 wants MNTP evaluated in.
//!
//! Each scenario is a complete [`TestbedConfig`] preset; the
//! `experiments::extended` scenario sweep runs SNTP and MNTP across all
//! of them and reports how the improvement factor holds up.

use crate::crosstraffic::CrossTrafficConfig;
use crate::testbed::{MonitorConfig, TestbedConfig};
use crate::wifi::{MobilityProfile, WifiConfig};

/// A named scenario.
#[derive(Debug)]
pub struct Scenario {
    /// Human-readable name.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// The testbed configuration.
    pub config: TestbedConfig,
}

/// The paper's laboratory setting (the default everywhere else).
pub fn lab() -> Scenario {
    Scenario {
        name: "lab",
        description: "paper §3.2 testbed: nearby WAP, monitor node stirring the channel",
        config: TestbedConfig::default(),
    }
}

/// A busy café: close AP, but heavy unrelated traffic most of the time.
pub fn cafe() -> Scenario {
    Scenario {
        name: "cafe",
        description: "close AP, persistently busy medium, no monitor games",
        config: TestbedConfig {
            wifi: WifiConfig {
                path_loss_db: 74.0,
                noise_jitter_sigma_db: 3.0,
                ..Default::default()
            },
            cross: CrossTrafficConfig {
                duration_range_secs: (20.0, 120.0),
                active_util_range: (0.45, 0.85),
                idle_util_range: (0.10, 0.25),
                ..Default::default()
            },
            initial_frequency: 0.7,
            monitor_enabled: false,
            monitor: MonitorConfig::default(),
        },
    }
}

/// An apartment at the far end of the flat: weak signal, light traffic.
pub fn apartment_far_room() -> Scenario {
    Scenario {
        name: "apartment",
        description: "distant AP through walls, light background traffic",
        config: TestbedConfig {
            wifi: WifiConfig {
                path_loss_db: 89.0,
                shadow_sigma_db: 4.0,
                ..Default::default()
            },
            cross: CrossTrafficConfig {
                active_util_range: (0.30, 0.60),
                ..Default::default()
            },
            initial_frequency: 0.2,
            monitor_enabled: false,
            monitor: MonitorConfig::default(),
        },
    }
}

/// Pacing around an office with the device in hand.
pub fn pacing_user() -> Scenario {
    Scenario {
        name: "pacing",
        description: "lab channel plus a user pacing (±8 dB path-loss swing, 2 min period)",
        config: TestbedConfig {
            wifi: WifiConfig {
                mobility: MobilityProfile::Pace { amplitude_db: 8.0, period_secs: 120.0 },
                ..Default::default()
            },
            ..Default::default()
        },
    }
}

/// Walking away from the AP (garden, corridor): signal decays steadily.
pub fn walk_away() -> Scenario {
    Scenario {
        name: "walk-away",
        description: "signal decays 1 dB/min up to +14 dB path loss",
        config: TestbedConfig {
            wifi: WifiConfig {
                mobility: MobilityProfile::WalkAway { db_per_minute: 1.0, max_extra_db: 14.0 },
                ..Default::default()
            },
            ..Default::default()
        },
    }
}

/// All scenarios, in presentation order.
pub fn all() -> Vec<Scenario> {
    vec![lab(), cafe(), apartment_far_room(), pacing_user(), walk_away()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Testbed;
    use clocksim::time::SimTime;

    #[test]
    fn all_scenarios_produce_traffic_and_hints() {
        for sc in all() {
            let name = sc.name;
            let mut tb = Testbed::wireless(sc.config, 1);
            let mut delivered = 0;
            for i in 0..200 {
                let t = SimTime::from_secs(i * 5);
                assert!(tb.hints(t).is_some(), "{name}: hints missing");
                if tb.last_hop_up(t).is_some() {
                    delivered += 1;
                }
            }
            assert!(delivered > 50, "{name}: only {delivered}/200 delivered");
        }
    }

    #[test]
    fn pacing_moves_rssi_periodically() {
        let mut tb = Testbed::wireless(pacing_user().config, 2);
        let rssi: Vec<f64> =
            (0..48).map(|i| tb.hints(SimTime::from_secs(i * 5)).unwrap().rssi_dbm).collect();
        let min = rssi.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = rssi.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 10.0, "pacing swing {}", max - min);
    }

    #[test]
    fn walk_away_degrades_monotonically_on_average() {
        let mut tb = Testbed::wireless(walk_away().config, 3);
        let early: Vec<f64> =
            (0..60).map(|i| tb.hints(SimTime::from_secs(i * 5)).unwrap().rssi_dbm).collect();
        let late: Vec<f64> = (240..300)
            .map(|i| tb.hints(SimTime::from_secs(i * 5)).unwrap().rssi_dbm)
            .collect();
        let em = clocksim::stats::mean(&early);
        let lm = clocksim::stats::mean(&late);
        assert!(lm < em - 5.0, "early {em} late {lm}");
    }

    #[test]
    fn cafe_medium_is_busier_than_lab() {
        // The café AP is *closer* (fewer frame losses) but its medium is
        // persistently occupied: mean utilization must be clearly higher.
        let mean_util = |cfg: TestbedConfig, seed| {
            let mut tb = Testbed::wireless(cfg, seed);
            let mut total = 0.0;
            for i in 0..400 {
                let t = SimTime::from_secs(i * 5);
                // hints() advances the channel (state is pull-model lazy).
                tb.hints(t);
                if let crate::testbed::LastHop::Wireless(w) = &mut tb.state.last_hop {
                    total += w.lane(0).map_or(0.0, |lane| lane.utilization());
                }
            }
            total / 400.0
        };
        let lab_u = mean_util(lab().config, 4);
        let cafe_u = mean_util(cafe().config, 4);
        assert!(cafe_u > lab_u + 0.05, "lab {lab_u:.2} cafe {cafe_u:.2}");
    }
}
