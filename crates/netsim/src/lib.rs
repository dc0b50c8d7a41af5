//! # netsim
//!
//! A deterministic network simulator purpose-built for the MNTP
//! reproduction. It supplies every network the paper's experiments ran
//! on. Each packet's delay and loss are computed when it crosses a
//! channel, and the few background processes (the testbed monitor
//! node's, a fleet shard's cross traffic) run as due-time timers, so no
//! event queue is needed:
//!
//! * [`link`] — composable per-packet delay and loss models (fixed /
//!   normal / lognormal / heavy-tail delay; Bernoulli / Gilbert–Elliott
//!   loss) used for wired segments and Internet backbones.
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
//! * [`faults`] — deterministic, seed-driven episodic fault injection
//!   (loss storms, server outages, kiss-o'-death windows, falseticker
//!   onset, delay-asymmetry spikes, duplicate/corrupt replies, client
//!   clock steps) layered on top of the channel models.
//! * [`chaos`] — the population-scale generalization of [`faults`]:
//!   seed-deterministic fleet fault plans over client-range and server
//!   domains (regional loss storms and delay spikes, server outages
//!   with scheduled restarts, falseticker onset, clock-step waves),
//!   queryable statelessly from any shard.
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
pub mod faults;
pub mod fleet;
pub mod lanes;
pub mod link;
pub mod pcap;
pub mod scenarios;
pub mod testbed;
pub mod wifi;

pub use chaos::{ChaosEvent, ClientChaosLatch, ClientRange, FleetFaultPlan, ServerChaosLatch};
pub use faults::{FaultInjector, FaultKind, FaultSchedule, FaultWindow, PacketFate, ServerSet};
pub use fleet::{FleetConfig, FleetNet, ServerModel, ServerModelConfig, ServiceDecision};
pub use lanes::{ChannelBank, Lane};
pub use link::{DelayModel, Link, LossModel};
pub use testbed::{LastHop, Testbed, TestbedConfig};
pub use wifi::{WifiConfig, WirelessHints};
