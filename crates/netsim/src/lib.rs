//! # netsim
//!
//! A deterministic network simulator purpose-built for the MNTP
//! reproduction. It supplies every network the paper's experiments ran
//! on. Each packet's delay and loss are computed when it crosses a
//! channel, and the few background processes (the testbed monitor
//! node's, a fleet shard's cross traffic) run as due-time timers, so no
//! event queue is needed:
//!
//! * [`link`] — composable per-packet delay and loss models (normal
//!   delay for Ethernet, lognormal with a Pareto spike tail for
//!   backbones; Bernoulli loss) used for wired segments and Internet
//!   backbones.
//! * [`wifi`] — the 802.11 last-hop model: transmit power, log-distance
//!   path loss with Ornstein–Uhlenbeck shadowing, a noise floor lifted by
//!   interference bursts, SNR-dependent frame loss with DCF-style retry
//!   delay, and medium-utilization queueing (AP-side bufferbloat on the
//!   downlink). Exposes the (RSSI, noise) *wireless hints* MNTP reads.
//!   Its live state sits in a [`lanes::ChannelBank`], one lane per
//!   station.
//! * [`cellular`] — the 4G model behind the paper's Figure 5: RRC
//!   promotion delay, high-variance OWDs, downlink bufferbloat.
//! * [`crosstraffic`] — the monitor node's interfering file downloads.
//! * [`chaos`] — the one fault model: seed-deterministic fault plans
//!   over client-range and server domains (loss storms, delay spikes,
//!   server outages with scheduled restarts, falseticker onset, clock-step
//!   waves, kiss-o'-death windows, duplicate/corrupt replies) layered on
//!   top of the channel models, queryable statelessly from any shard. A
//!   single device is client 0 of a plan ([`DeviceChaos`]).
//! * [`admission`] — the one copy of the server-side RATE kiss-o'-death
//!   rule: per-client last-seen and strike tables, load-selected floors
//!   and strike shedding, shared by every simulated server (`sntp`'s
//!   `SimServer` and `ServerCore`, and [`fleet::ServerModel`]).
//! * [`pcap`] — a libpcap writer: simulated exchanges dump to `.pcap`
//!   files openable in Wireshark (the paper's pipeline was built on
//!   tcpdump captures of exactly this traffic).
//! * [`scenarios`] — named deployment presets (lab / café / apartment /
//!   pacing / walk-away) for the §7 "wider variety of settings" sweeps.
//! * [`testbed`] — the assembled laboratory testbed of Figure 3: WAP +
//!   target node + monitor node, including the monitor's feedback
//!   controller that tunes download frequency and transmit power from
//!   observed ping loss, exactly as described in §3.2.
//!
//! Protocol implementations (`sntp`, `ntpd-sim`, `mntp`) are *sans-io*
//! state machines; this crate is where their messages acquire delay, loss
//! and asymmetry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cellular;
pub mod chaos;
pub mod crosstraffic;
pub mod fleet;
pub mod lanes;
pub mod link;
pub mod pcap;
pub mod scenarios;
pub mod testbed;
pub mod wifi;

pub use chaos::{
    ChaosEvent, ClientChaosLatch, ClientRange, DeviceChaos, FleetFaultPlan, PacketFate,
    ServerChaosLatch, ServerSet,
};
pub use fleet::{FleetConfig, FleetNet, ServerModel, ServerModelConfig, ServiceDecision};
pub use lanes::{ChannelBank, Lane};
pub use link::{DelayModel, Link, LossModel};
pub use testbed::{LastHop, Testbed, TestbedConfig};
pub use wifi::{WifiConfig, WirelessHints};

/// The single-device fault model: a [`DeviceChaos`] is client
/// [`DeviceChaos::CLIENT`] of a one-client plan, and these tests query it
/// the way `sntp`'s exchange does, latches included.
#[cfg(test)]
mod faults {
    mod tests {
        use crate::{ChaosEvent, ClientRange, DeviceChaos, FleetFaultPlan, PacketFate, ServerSet};
        use clocksim::time::{SimDuration, SimTime};

        const DEV: u32 = DeviceChaos::CLIENT;

        fn t(s: i64) -> SimTime {
            SimTime::from_secs(s)
        }

        #[test]
        fn empty_schedule_is_identity() {
            let mut dev = DeviceChaos::new(FleetFaultPlan::none());
            let DeviceChaos { plan, client_latch, server_latch } = &mut dev;
            for i in 0..100 {
                assert!(!plan.drop_uplink(DEV, 0, t(i)));
                assert_eq!(plan.downlink_fate(DEV, 0, t(i)), PacketFate::Deliver);
            }
            assert_eq!(plan.extra_delay_up(DEV, t(5)), SimDuration::ZERO);
            assert_eq!(plan.extra_delay_down(DEV, t(5)), SimDuration::ZERO);
            assert_eq!(plan.kod_min_poll(0, t(5)), None);
            assert!(!plan.kod_manages(0));
            assert_eq!(plan.take_client_steps(client_latch, 0, DEV, t(1_000_000)), None);
            assert_eq!(plan.take_falseticker_onsets(server_latch, 0, t(1_000_000)), None);
        }

        #[test]
        fn outage_blackholes_only_inside_window() {
            let dev = DeviceChaos::new(FleetFaultPlan::new(2).window(
                100.0,
                200.0,
                ChaosEvent::ServerOutage { servers: ServerSet::All },
            ));
            assert!(!dev.plan.drop_uplink(DEV, 3, t(99)));
            assert!(dev.plan.drop_uplink(DEV, 3, t(100)));
            assert_eq!(dev.plan.downlink_fate(DEV, 3, t(199)), PacketFate::Drop);
            // End is exclusive.
            assert!(!dev.plan.drop_uplink(DEV, 3, t(200)));
            assert_eq!(dev.plan.downlink_fate(DEV, 3, t(200)), PacketFate::Deliver);
        }

        #[test]
        fn single_server_outage_spares_the_rest() {
            let dev = DeviceChaos::new(FleetFaultPlan::new(3).window(
                0.0,
                100.0,
                ChaosEvent::ServerOutage { servers: ServerSet::One(2) },
            ));
            assert!(dev.plan.drop_uplink(DEV, 2, t(5)));
            assert!(!dev.plan.drop_uplink(DEV, 1, t(5)));
            assert_eq!(dev.plan.downlink_fate(DEV, 1, t(5)), PacketFate::Deliver);
            assert!(dev.plan.server_down(2, t(5)));
            assert!(!dev.plan.server_down(1, t(5)));
        }

        #[test]
        fn loss_storm_drops_about_the_configured_fraction() {
            let dev = DeviceChaos::new(FleetFaultPlan::new(4).window(
                0.0,
                1e9,
                ChaosEvent::RegionalLossStorm { region: ClientRange::all(1), loss_prob: 0.4 },
            ));
            let n = 20_000;
            let dropped = (0..n).filter(|i| dev.plan.drop_uplink(DEV, 0, t(*i))).count();
            let frac = dropped as f64 / n as f64;
            assert!((frac - 0.4).abs() < 0.02, "drop fraction {frac}");
        }

        #[test]
        fn delay_spikes_sum_and_respect_direction() {
            let spike = |extra_up_ms, extra_down_ms| ChaosEvent::RegionalDelaySpike {
                region: ClientRange::all(1),
                extra_up_ms,
                extra_down_ms,
            };
            let dev = DeviceChaos::new(
                FleetFaultPlan::new(7)
                    .window(10.0, 20.0, spike(5.0, 80.0))
                    .window(15.0, 25.0, spike(1.0, 2.0)),
            );
            assert_eq!(dev.plan.extra_delay_up(DEV, t(12)), SimDuration::from_millis(5));
            assert_eq!(dev.plan.extra_delay_down(DEV, t(12)), SimDuration::from_millis(80));
            assert_eq!(dev.plan.extra_delay_up(DEV, t(16)), SimDuration::from_millis(6));
            assert_eq!(dev.plan.extra_delay_down(DEV, t(22)), SimDuration::from_millis(2));
            assert_eq!(dev.plan.extra_delay_up(DEV, t(30)), SimDuration::ZERO);
        }

        /// One-shot events fire once across a run's exchanges: the
        /// device's latches remember them, and due clock steps arrive
        /// summed.
        #[test]
        fn instant_events_fire_exactly_once() {
            let step =
                |offset_ms| ChaosEvent::ClockStepWave { region: ClientRange::all(1), offset_ms };
            let mut dev = DeviceChaos::new(
                FleetFaultPlan::new(9)
                    .at(100.0, ChaosEvent::FalsetickerOnset { server: 4, error_ms: 120.0 })
                    .at(200.0, step(-500.0))
                    .at(300.0, step(250.0)),
            );
            let DeviceChaos { plan, client_latch, server_latch } = &mut dev;
            assert_eq!(plan.take_falseticker_onsets(server_latch, 4, t(99)), None);
            assert_eq!(plan.take_falseticker_onsets(server_latch, 4, t(100)), Some(120.0));
            assert_eq!(plan.take_falseticker_onsets(server_latch, 4, t(101)), None);
            assert_eq!(plan.take_falseticker_onsets(server_latch, 5, t(101)), None);
            assert_eq!(plan.take_client_steps(client_latch, 0, DEV, t(150)), None);
            // Both steps due when the query jumps past them; each once.
            assert_eq!(plan.take_client_steps(client_latch, 0, DEV, t(350)), Some(-250.0));
            assert_eq!(plan.take_client_steps(client_latch, 0, DEV, t(400)), None);
        }

        /// A window reaching before t=0 is clamped onto the time axis
        /// instead of being accepted verbatim.
        #[test]
        fn negative_window_start_is_clamped_to_time_axis() {
            let mut dev = DeviceChaos::new(FleetFaultPlan::new(11).window(
                -50.0,
                10.0,
                ChaosEvent::ServerOutage { servers: ServerSet::All },
            ));
            assert!(dev.plan.drop_uplink(DEV, 0, t(0)));
            assert!(dev.plan.server_down(0, t(9)));
            assert!(!dev.plan.drop_uplink(DEV, 0, t(10)));
            // The restart is due at the window end, not before.
            assert!(!dev.plan.take_restarts(&mut dev.server_latch, 0, t(9)));
            assert!(dev.plan.take_restarts(&mut dev.server_latch, 0, t(10)));
        }

        /// The determinism contract: identical (plan, seed) give
        /// identical fates whatever the query order, and another seed
        /// gives another stream.
        #[test]
        fn fate_stream_is_deterministic() {
            let region = ClientRange::all(1);
            let storm = ChaosEvent::RegionalLossStorm { region, loss_prob: 0.3 };
            let plan = |seed| {
                FleetFaultPlan::new(seed)
                    .window(0.0, 500.0, storm)
                    .window(100.0, 300.0, ChaosEvent::DuplicateReply { prob: 0.2 })
                    .window(200.0, 400.0, ChaosEvent::CorruptReply { prob: 0.1 })
            };
            let fates = |dev: &DeviceChaos, i: i64| {
                let up = if dev.plan.drop_uplink(DEV, 0, t(i)) {
                    PacketFate::Drop
                } else {
                    PacketFate::Deliver
                };
                [up, dev.plan.downlink_fate(DEV, 0, t(i))]
            };
            let a = DeviceChaos::new(plan(42));
            let b = DeviceChaos::new(plan(42));
            let fwd: Vec<[PacketFate; 2]> = (0..1000).map(|i| fates(&a, i)).collect();
            let mut bwd: Vec<[PacketFate; 2]> = (0..1000).rev().map(|i| fates(&b, i)).collect();
            bwd.reverse();
            assert_eq!(fwd, bwd);
            for fate in [PacketFate::Drop, PacketFate::Duplicate, PacketFate::Corrupt] {
                assert!(fwd.concat().contains(&fate), "no {fate:?} in the stream");
            }
            let other = DeviceChaos::new(plan(43));
            let other_fates: Vec<[PacketFate; 2]> = (0..1000).map(|i| fates(&other, i)).collect();
            assert_ne!(fwd, other_fates);
        }
    }
}
