//! The assembled laboratory testbed of the paper's Figure 3.
//!
//! Three nodes: a **wireless access point** (WAP) whose transmit power is
//! remotely adjustable, a **target node** (TN) that runs the
//! synchronization clients, and a **monitor node** (MN) that (a) injects
//! cross-traffic downloads through the WAP and (b) runs the feedback
//! controller of §3.2:
//!
//! > "if the latencies of ping probes reported by TN increase, as observed
//! > from the number of packet losses in ping probes, the file download
//! > frequency is decreased and the transmission power value is increased
//! > […] Once the channel stabilizes, as denoted by no packet losses in
//! > ping traffic, our tool automatically responds by a decrease in
//! > transmission power and increase in download frequency, making the
//! > channel conditions variable and lossy at random intervals."
//!
//! The controller's closed loop is what gives every experiment its
//! characteristic alternation of calm and hostile channel episodes.
//!
//! The testbed is also configurable with a **wired** or **cellular** last
//! hop so the same harness runs the paper's control experiments (wired
//! SNTP, §3.2) and the 4G experiment (§3.3).

use std::collections::VecDeque;

use clocksim::rng::SimRng;
use clocksim::time::{SimDuration, SimTime};

use crate::cellular::{CellularChannel, CellularConfig};
use crate::crosstraffic::{CrossTraffic, CrossTrafficConfig};
use crate::kernel::Sim;
use crate::lanes::ChannelBank;
use crate::link::{DelayModel, Link, LossModel};
use crate::wifi::{WifiConfig, WirelessHints};

/// Which medium connects the target node to the WAP / Internet.
pub enum LastHop {
    /// Ethernet: symmetric, sub-ms, lossless.
    Wired {
        /// Client → Internet direction.
        up: Link,
        /// Internet → client direction.
        down: Link,
    },
    /// The 802.11 channel model: a one-lane bank, lane 0 being the
    /// target node.
    Wireless(Box<ChannelBank>),
    /// The 4G model (paper §3.3; no monitor node, no hints).
    Cellular(Box<CellularChannel>),
}

/// Monitor-node controller parameters.
#[derive(Clone, Debug)]
pub struct MonitorConfig {
    /// Ping probe cadence, s.
    pub ping_interval_secs: f64,
    /// Control-loop cadence, s.
    pub control_interval_secs: f64,
    /// RTT above which the channel counts as degraded, ms.
    pub latency_threshold_ms: f64,
    /// Transmit-power step per control action, dB.
    pub power_step_db: f64,
    /// Download-frequency step per control action.
    pub freq_step: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            ping_interval_secs: 1.0,
            control_interval_secs: 5.0,
            latency_threshold_ms: 90.0,
            power_step_db: 1.5,
            freq_step: 0.10,
        }
    }
}

/// Full testbed configuration.
#[derive(Clone, Debug)]
pub struct TestbedConfig {
    /// WiFi channel parameters (used when the last hop is wireless).
    pub wifi: WifiConfig,
    /// Cross-traffic parameters.
    pub cross: CrossTrafficConfig,
    /// Monitor-node controller parameters.
    pub monitor: MonitorConfig,
    /// Initial download frequency.
    pub initial_frequency: f64,
    /// Enable the monitor node (the 4G experiment runs without it).
    pub monitor_enabled: bool,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            wifi: WifiConfig::default(),
            cross: CrossTrafficConfig::default(),
            monitor: MonitorConfig::default(),
            initial_frequency: 0.4,
            monitor_enabled: true,
        }
    }
}

/// One recorded ping outcome.
#[derive(Clone, Copy, Debug)]
struct PingResult {
    at: SimTime,
    rtt_ms: Option<f64>,
}

/// Mutable world state driven by the kernel.
pub struct TestbedState {
    /// The last hop between TN and the WAP/Internet.
    pub last_hop: LastHop,
    cross: Option<CrossTraffic>,
    monitor_cfg: MonitorConfig,
    pings: VecDeque<PingResult>,
    rng: SimRng,
    /// Telemetry counters for tests and diagnostics.
    pub control_actions: u64,
    /// Count of degraded-channel verdicts by the controller.
    pub degraded_verdicts: u64,
}

impl TestbedState {
    fn apply_utilization(&mut self, t: SimTime) {
        if let (Some(cross), LastHop::Wireless(wifi)) = (&mut self.cross, &mut self.last_hop) {
            let u = cross.decide(t);
            wifi.set_utilization(u);
        }
    }

    fn ping_once(&mut self, t: SimTime) {
        let rtt_ms = match &mut self.last_hop {
            LastHop::Wireless(wifi) => {
                let up = wifi.lane(0).and_then(|mut lane| lane.transmit_up(t));
                let down = wifi.lane(0).and_then(|mut lane| lane.transmit_down(t));
                match (up, down) {
                    (Some(u), Some(d)) => Some(u.as_millis_f64() + d.as_millis_f64() + 1.0),
                    _ => None,
                }
            }
            LastHop::Wired { up, down } => {
                let u = up.transmit(&mut self.rng);
                let d = down.transmit(&mut self.rng);
                match (u, d) {
                    (Some(u), Some(d)) => Some(u.as_millis_f64() + d.as_millis_f64() + 1.0),
                    _ => None,
                }
            }
            LastHop::Cellular(cell) => {
                let up = cell.transmit_up(t);
                let down = cell.transmit_down(t);
                match (up, down) {
                    (Some(u), Some(d)) => Some(u.as_millis_f64() + d.as_millis_f64() + 1.0),
                    _ => None,
                }
            }
        };
        self.pings.push_back(PingResult { at: t, rtt_ms });
        while self.pings.len() > 64 {
            self.pings.pop_front();
        }
    }

    /// The §3.2 control law, run once per control interval.
    fn control_step(&mut self, t: SimTime) {
        let window_start = t + SimDuration::from_secs_f64(-self.monitor_cfg.control_interval_secs);
        let window: Vec<&PingResult> = self.pings.iter().filter(|p| p.at >= window_start).collect();
        if window.is_empty() {
            return;
        }
        let losses = window.iter().filter(|p| p.rtt_ms.is_none()).count();
        let rtts: Vec<f64> = window.iter().filter_map(|p| p.rtt_ms).collect();
        let mean_rtt = if rtts.is_empty() {
            f64::INFINITY
        } else {
            rtts.iter().sum::<f64>() / rtts.len() as f64
        };
        let degraded = losses > 0 || mean_rtt > self.monitor_cfg.latency_threshold_ms;
        self.control_actions += 1;
        if degraded {
            self.degraded_verdicts += 1;
        }
        if let (Some(cross), LastHop::Wireless(wifi)) = (&mut self.cross, &mut self.last_hop) {
            if degraded {
                // Back off: calmer channel.
                cross.adjust_frequency(-self.monitor_cfg.freq_step);
                wifi.adjust_tx_power_db(self.monitor_cfg.power_step_db);
            } else {
                // Stir things up again.
                cross.adjust_frequency(self.monitor_cfg.freq_step);
                wifi.adjust_tx_power_db(-self.monitor_cfg.power_step_db);
            }
        }
    }
}

/// The testbed: a kernel plus its world, with the §3.2 processes
/// (cross-traffic decisions, pinger, controller) pre-scheduled.
///
/// ```
/// use netsim::{Testbed, TestbedConfig};
/// use clocksim::time::SimTime;
///
/// let mut tb = Testbed::wireless(TestbedConfig::default(), 42);
/// // The wireless adaptor reports hints MNTP can gate on…
/// let hints = tb.hints(SimTime::from_secs(10)).unwrap();
/// assert!(hints.rssi_dbm < 0.0 && hints.noise_dbm < 0.0);
/// // …and the last hop carries (or drops) packets with channel-state
/// // dependent delay.
/// let _delay = tb.last_hop_up(SimTime::from_secs(10));
/// ```
pub struct Testbed {
    sim: Sim<TestbedState>,
    /// The world. Public so experiments can reach the channel directly
    /// (e.g. to read telemetry); protocol code should stick to the
    /// high-level methods.
    pub state: TestbedState,
}

impl Testbed {
    /// A wireless testbed with the monitor node active.
    pub fn wireless(cfg: TestbedConfig, seed: u64) -> Self {
        let mut root = SimRng::new(seed);
        let wifi = ChannelBank::new(cfg.wifi, vec![root.fork(1)]);
        let cross = CrossTraffic::new(cfg.cross, cfg.initial_frequency, root.fork(2));
        let state = TestbedState {
            last_hop: LastHop::Wireless(Box::new(wifi)),
            cross: Some(cross),
            monitor_cfg: cfg.monitor.clone(),
            pings: VecDeque::new(),
            rng: root.fork(3),
            control_actions: 0,
            degraded_verdicts: 0,
        };
        let mut tb = Testbed { sim: Sim::new(), state };
        tb.schedule_processes(cfg.monitor_enabled);
        tb
    }

    /// A wired-Ethernet testbed (the paper's control experiments). No
    /// monitor node, no cross traffic.
    pub fn wired(seed: u64) -> Self {
        let state = TestbedState {
            last_hop: LastHop::Wired {
                up: Link::lossless(DelayModel::ethernet()),
                down: Link::lossless(DelayModel::ethernet()),
            },
            cross: None,
            monitor_cfg: MonitorConfig::default(),
            pings: VecDeque::new(),
            rng: SimRng::new(seed),
            control_actions: 0,
            degraded_verdicts: 0,
        };
        Testbed { sim: Sim::new(), state }
    }

    /// A cellular testbed (paper §3.3: phone on 4G, no monitor node).
    pub fn cellular(cfg: CellularConfig, seed: u64) -> Self {
        let mut root = SimRng::new(seed);
        let cell = CellularChannel::new(cfg, root.fork(1));
        let state = TestbedState {
            last_hop: LastHop::Cellular(Box::new(cell)),
            cross: None,
            monitor_cfg: MonitorConfig::default(),
            pings: VecDeque::new(),
            rng: root.fork(2),
            control_actions: 0,
            degraded_verdicts: 0,
        };
        Testbed { sim: Sim::new(), state }
    }

    fn schedule_processes(&mut self, monitor_enabled: bool) {
        // Cross-traffic decision loop.
        fn cross_tick(w: &mut TestbedState, sim: &mut Sim<TestbedState>) {
            w.apply_utilization(sim.now());
            let interval = w
                .cross
                .as_ref()
                .map(|c| c.decision_interval())
                .unwrap_or(SimDuration::from_secs(2));
            sim.schedule_fn_in(interval, cross_tick);
        }
        self.sim.schedule_fn_at(SimTime::ZERO, cross_tick);

        if monitor_enabled {
            fn ping_tick(w: &mut TestbedState, sim: &mut Sim<TestbedState>) {
                w.ping_once(sim.now());
                let d = SimDuration::from_secs_f64(w.monitor_cfg.ping_interval_secs);
                sim.schedule_fn_in(d, ping_tick);
            }
            fn control_tick(w: &mut TestbedState, sim: &mut Sim<TestbedState>) {
                w.control_step(sim.now());
                let d = SimDuration::from_secs_f64(w.monitor_cfg.control_interval_secs);
                sim.schedule_fn_in(d, control_tick);
            }
            self.sim.schedule_fn_at(SimTime::ZERO, ping_tick);
            self.sim
                .schedule_fn_at(SimTime::from_secs(5), control_tick);
        }
    }

    /// Advance the testbed's background processes to `t`.
    pub fn advance_to(&mut self, t: SimTime) {
        self.sim.run_until(&mut self.state, t);
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Wireless hints at `t` (advances background processes first).
    /// `None` when the last hop has no wireless adaptor to query.
    pub fn hints(&mut self, t: SimTime) -> Option<WirelessHints> {
        self.advance_to(t);
        match &mut self.state.last_hop {
            LastHop::Wireless(wifi) => wifi.lane(0).map(|mut lane| lane.hints(t)),
            _ => None,
        }
    }

    /// Send one client→Internet packet across the last hop at `t`.
    pub fn last_hop_up(&mut self, t: SimTime) -> Option<SimDuration> {
        self.advance_to(t);
        match &mut self.state.last_hop {
            LastHop::Wireless(wifi) => wifi.lane(0).and_then(|mut lane| lane.transmit_up(t)),
            LastHop::Wired { up, .. } => up.transmit(&mut self.state.rng),
            LastHop::Cellular(cell) => cell.transmit_up(t),
        }
    }

    /// Deliver one Internet→client packet across the last hop at `t`.
    pub fn last_hop_down(&mut self, t: SimTime) -> Option<SimDuration> {
        self.advance_to(t);
        match &mut self.state.last_hop {
            LastHop::Wireless(wifi) => wifi.lane(0).and_then(|mut lane| lane.transmit_down(t)),
            LastHop::Wired { down, .. } => down.transmit(&mut self.state.rng),
            LastHop::Cellular(cell) => cell.transmit_down(t),
        }
    }

    /// Construct a wired link with occasional loss, for fault-injection
    /// tests.
    pub fn lossy_wired(seed: u64, loss_prob: f64) -> Self {
        let mut tb = Testbed::wired(seed);
        tb.state.last_hop = LastHop::Wired {
            up: Link { delay: DelayModel::ethernet(), loss: LossModel::Bernoulli(loss_prob) },
            down: Link { delay: DelayModel::ethernet(), loss: LossModel::Bernoulli(loss_prob) },
        };
        tb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wired_testbed_is_fast_and_lossless() {
        let mut tb = Testbed::wired(1);
        let mut delays = Vec::new();
        for i in 0..1000 {
            let t = SimTime::from_secs(i);
            let up = tb.last_hop_up(t).expect("wired never loses");
            let down = tb.last_hop_down(t).expect("wired never loses");
            delays.push(up.as_millis_f64() + down.as_millis_f64());
        }
        let mean = delays.iter().sum::<f64>() / delays.len() as f64;
        assert!(mean < 2.0, "mean wired rtt {mean}");
        assert!(tb.hints(SimTime::from_secs(1000)).is_none());
    }

    #[test]
    fn controller_oscillates_channel_conditions() {
        let mut tb = Testbed::wireless(TestbedConfig::default(), 2);
        // Run an hour of background processes.
        tb.advance_to(SimTime::from_secs(3600));
        assert!(tb.state.control_actions > 600, "controller ran: {}", tb.state.control_actions);
        // The §3.2 loop must visit BOTH regimes: degraded and stable.
        let degraded = tb.state.degraded_verdicts;
        let total = tb.state.control_actions;
        assert!(degraded > total / 20, "too few degraded episodes: {degraded}/{total}");
        assert!(degraded < total * 19 / 20, "channel never stabilized: {degraded}/{total}");
    }

    #[test]
    fn wireless_hints_vary_over_time() {
        let mut tb = Testbed::wireless(TestbedConfig::default(), 3);
        let mut margins = Vec::new();
        for i in 0..720 {
            let t = SimTime::from_secs(i * 5);
            margins.push(tb.hints(t).unwrap().snr_margin_db());
        }
        let min = margins.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = margins.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Paper gate is at 20 dB; the testbed must cross it in both
        // directions or the MNTP gate would be trivial.
        assert!(min < 20.0, "min margin {min}");
        assert!(max > 20.0, "max margin {max}");
    }

    #[test]
    fn wireless_delays_include_spikes() {
        let mut tb = Testbed::wireless(TestbedConfig::default(), 4);
        let mut down = Vec::new();
        let mut losses = 0;
        for i in 0..720 {
            let t = SimTime::from_secs(i * 5);
            match tb.last_hop_down(t) {
                Some(d) => down.push(d.as_millis_f64()),
                None => losses += 1,
            }
        }
        let max = down.iter().cloned().fold(0.0, f64::max);
        assert!(max > 200.0, "max downlink {max} ms");
        assert!(losses > 0, "some loss expected");
        assert!(losses < 200, "not a black hole: {losses}");
    }

    #[test]
    fn cellular_testbed_has_no_hints() {
        let mut tb = Testbed::cellular(CellularConfig::default(), 5);
        assert!(tb.hints(SimTime::from_secs(1)).is_none());
        // But it passes traffic.
        let mut delivered = 0;
        for i in 0..100 {
            if tb.last_hop_up(SimTime::from_secs(i * 5)).is_some() {
                delivered += 1;
            }
        }
        assert!(delivered > 90);
    }

    #[test]
    fn lossy_wired_loses() {
        let mut tb = Testbed::lossy_wired(6, 0.3);
        let losses = (0..1000).filter(|i| tb.last_hop_up(SimTime::from_secs(*i)).is_none()).count();
        assert!((200..400).contains(&losses), "losses={losses}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut tb = Testbed::wireless(TestbedConfig::default(), seed);
            (0..200)
                .map(|i| tb.last_hop_down(SimTime::from_secs(i * 5)).map(|d| d.as_nanos()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn advance_is_monotone() {
        let mut tb = Testbed::wireless(TestbedConfig::default(), 9);
        tb.advance_to(SimTime::from_secs(100));
        assert_eq!(tb.now(), SimTime::from_secs(100));
        // Advancing to the past is a no-op, not a panic.
        tb.advance_to(SimTime::from_secs(50));
        assert_eq!(tb.now(), SimTime::from_secs(100));
    }
}
