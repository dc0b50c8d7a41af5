//! The 802.11 last-hop channel model.
//!
//! This is the component that turns "wireless effects such as channel
//! fading, interference due to adjacent channels, signal attenuation"
//! (paper §3.2) into concrete per-packet delay, loss, and the
//! (RSSI, noise) *wireless hints* MNTP's gate reads.
//!
//! ## Signal model
//!
//! * `RSSI = tx_power − path_loss`, where path loss is a static
//!   log-distance term plus Ornstein–Uhlenbeck shadow fading. The WAP's
//!   transmit power is adjustable at runtime — the monitor node's control
//!   knob (§3.2).
//! * `noise = floor + interference(utilization) + OU jitter`. Cross-traffic
//!   (the monitor node's file downloads) raises medium utilization, which
//!   lifts the measured noise level — reproducing what `airport`-style
//!   utilities report on a congested channel.
//! * `SNR margin = RSSI − noise` — the quantity MNTP thresholds at 20 dB.
//!
//! ## Delay/loss model
//!
//! Each frame pays a DCF access delay that grows with utilization
//! (M/M/1-style queue factor plus a heavy Pareto tail under saturation);
//! per-attempt frame error probability is a logistic function of SNR and
//! collision probability grows with utilization; failed attempts retry
//! with binary-exponential backoff up to `max_retries`, after which the
//! packet is lost. Downlink frames additionally sit in the AP's queue
//! behind the cross-traffic download (bufferbloat), which is what makes
//! the path *asymmetric* — the mechanism that corrupts SNTP's offset
//! samples by half the asymmetry (see `ntp_wire::math`).
//!
//! ## Where the state lives
//!
//! This module holds the configuration, the hints type and the per-packet
//! math. The live channel state (fading, jitter, ramped utilization, one
//! RNG stream per station) lives in [`crate::lanes::ChannelBank`]: the
//! testbed's wireless hop is a one-lane bank, and a fleet's access point
//! is a bank with one lane per client.

use clocksim::rng::SimRng;
use clocksim::time::SimDuration;

/// How the station moves relative to the WAP, expressed as a
/// deterministic path-loss modulation (paper §7 asks for evaluation "in
/// a wider variety of cellular and WiFi settings"; movement is the main
/// WiFi variable the lab testbed could not exercise).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MobilityProfile {
    /// Stationary device (the paper's lab setting).
    Static,
    /// Pacing back and forth: path loss swings sinusoidally by
    /// `amplitude_db` with the given period.
    Pace {
        /// Peak path-loss deviation, dB.
        amplitude_db: f64,
        /// Full cycle period, s.
        period_secs: f64,
    },
    /// Walking away at a constant rate: path loss grows by
    /// `db_per_minute` until `max_extra_db` above baseline.
    WalkAway {
        /// Path-loss growth rate, dB per minute.
        db_per_minute: f64,
        /// Cap on the extra loss, dB.
        max_extra_db: f64,
    },
}

/// Instantaneous link-layer measurements, as a wireless adaptor would
/// report them (`airport` on macOS, `iwconfig` on Linux — paper §4.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WirelessHints {
    /// Received signal strength indication, dBm.
    pub rssi_dbm: f64,
    /// Noise level, dBm.
    pub noise_dbm: f64,
}

impl WirelessHints {
    /// The SNR margin (paper: `RSSI − noise`), dB.
    pub fn snr_margin_db(&self) -> f64 {
        self.rssi_dbm - self.noise_dbm
    }
}

/// Static configuration of the channel model. Defaults reproduce the
/// indoor lab regime of the paper's testbed.
#[derive(Clone, Debug)]
pub struct WifiConfig {
    /// Initial WAP transmit power, dBm.
    pub tx_power_dbm: f64,
    /// Transmit-power control range, dBm (legal limits, §3.2).
    pub tx_power_range_dbm: (f64, f64),
    /// Static path loss between WAP and target node, dB.
    pub path_loss_db: f64,
    /// Stationary σ of the shadow-fading OU process, dB.
    pub shadow_sigma_db: f64,
    /// Time constant of shadow fading, s.
    pub shadow_tau_secs: f64,
    /// Thermal/ambient noise floor, dBm.
    pub noise_floor_dbm: f64,
    /// Interference lift at full utilization, dB.
    pub interference_gain_db: f64,
    /// Exponent shaping how utilization maps to interference.
    pub interference_exp: f64,
    /// Stationary σ of the noise jitter OU process, dB.
    pub noise_jitter_sigma_db: f64,
    /// Time constant of noise jitter, s.
    pub noise_jitter_tau_secs: f64,
    /// SNR at which a single frame attempt fails 50% of the time, dB.
    pub snr50_db: f64,
    /// Logistic slope of frame error vs SNR, dB.
    pub snr_slope_db: f64,
    /// Collision probability at full utilization.
    pub collision_at_full: f64,
    /// Maximum link-layer transmission attempts per frame.
    pub max_attempts: u32,
    /// Base medium-access delay, ms.
    pub base_access_ms: f64,
    /// Queue gain: access delay multiplier per unit of `u/(1−u)`.
    pub queue_gain_ms: f64,
    /// Probability gain of a heavy-tail queueing spike per unit of
    /// utilization *above* `tail_util_threshold`.
    pub tail_prob_gain: f64,
    /// Utilization below which heavy contention spikes cannot occur (a
    /// near-idle medium has nobody to contend with).
    pub tail_util_threshold: f64,
    /// Pareto scale of queueing spikes, ms.
    pub tail_scale_ms: f64,
    /// Pareto shape of queueing spikes.
    pub tail_alpha: f64,
    /// Mean extra downlink (AP-queue) delay at full utilization, ms.
    pub downlink_bloat_ms: f64,
    /// Utilization above which the AP queue starts building. Below the
    /// knee the AP drains faster than cross-traffic arrives and the
    /// queue stays empty.
    pub bloat_util_knee: f64,
    /// Time constant of utilization ramps, s. Cross-traffic is TCP: it
    /// ramps up through slow start and the AP queue drains gradually, so
    /// utilization approaches its target exponentially instead of
    /// jumping. (This is also what keeps the hint gate honest: the
    /// channel cannot turn hostile faster than the hints can show it.)
    pub util_ramp_tau_secs: f64,
    /// Hard cap on any single sampled delay, ms (TCP cross-traffic cannot
    /// hold a UDP probe forever).
    pub delay_cap_ms: f64,
    /// Station mobility.
    pub mobility: MobilityProfile,
}

impl Default for WifiConfig {
    fn default() -> Self {
        WifiConfig {
            tx_power_dbm: 15.0,
            tx_power_range_dbm: (4.0, 20.0),
            path_loss_db: 82.0,
            shadow_sigma_db: 3.0,
            shadow_tau_secs: 25.0,
            noise_floor_dbm: -92.0,
            interference_gain_db: 45.0,
            interference_exp: 1.2,
            noise_jitter_sigma_db: 2.0,
            noise_jitter_tau_secs: 8.0,
            snr50_db: 0.0,
            snr_slope_db: 3.0,
            collision_at_full: 0.30,
            max_attempts: 7,
            base_access_ms: 1.2,
            queue_gain_ms: 6.0,
            tail_prob_gain: 0.35,
            tail_util_threshold: 0.30,
            tail_scale_ms: 40.0,
            tail_alpha: 1.5,
            downlink_bloat_ms: 330.0,
            bloat_util_knee: 0.45,
            util_ramp_tau_secs: 4.0,
            delay_cap_ms: 2500.0,
            mobility: MobilityProfile::Static,
        }
    }
}

/// Cached per-step OU/ramp coefficients. `advance_to` is called once per
/// transmitted frame and per hint read; the overwhelmingly common case is
/// a fixed sampling cadence (5 s polls, 100 ms ticks), where `dt` repeats
/// and the three `exp` plus two `sqrt` evaluations per step can be reused
/// verbatim. Keyed on `dt`: any change recomputes, so results are
/// bit-identical to the uncached math for *every* call pattern.
#[derive(Clone, Debug)]
pub(crate) struct StepCoeffs {
    /// The `dt` these coefficients were computed for (`NaN` = never).
    pub(crate) dt: f64,
    /// `exp(-dt/shadow_tau)`.
    pub(crate) shadow_a: f64,
    /// `shadow_sigma * sqrt(1 - shadow_a²)`.
    pub(crate) shadow_c: f64,
    /// `exp(-dt/noise_jitter_tau)`.
    pub(crate) noise_a: f64,
    /// `noise_jitter_sigma * sqrt(1 - noise_a²)`.
    pub(crate) noise_c: f64,
    /// `exp(-dt/util_ramp_tau)`.
    pub(crate) util_a: f64,
}

impl StepCoeffs {
    pub(crate) fn empty() -> Self {
        StepCoeffs {
            dt: f64::NAN,
            shadow_a: 0.0,
            shadow_c: 0.0,
            noise_a: 0.0,
            noise_c: 0.0,
            util_a: 0.0,
        }
    }

    #[inline]
    pub(crate) fn for_dt(cfg: &WifiConfig, dt: f64) -> Self {
        let shadow_a = (-dt / cfg.shadow_tau_secs).exp();
        let noise_a = (-dt / cfg.noise_jitter_tau_secs).exp();
        StepCoeffs {
            dt,
            shadow_a,
            shadow_c: cfg.shadow_sigma_db * (1.0 - shadow_a * shadow_a).sqrt(),
            noise_a,
            noise_c: cfg.noise_jitter_sigma_db * (1.0 - noise_a * noise_a).sqrt(),
            util_a: (-dt / cfg.util_ramp_tau_secs).exp(),
        }
    }
}

// ---------------------------------------------------------------------------
// Channel math, factored as free functions over scalar state.
//
// `lanes::ChannelBank` stores the state one Vec per field and its `Lane`
// view calls these per packet, in the RNG order documented on each.
// ---------------------------------------------------------------------------

/// One OU/ramp step. RNG order: shadow gauss, then noise gauss.
#[inline]
pub(crate) fn ou_step(
    c: &StepCoeffs,
    shadow_db: &mut f64,
    noise_jitter_db: &mut f64,
    utilization: &mut f64,
    target_utilization: f64,
    rng: &mut SimRng,
) {
    *shadow_db = *shadow_db * c.shadow_a + c.shadow_c * rng.gauss();
    *noise_jitter_db = *noise_jitter_db * c.noise_a + c.noise_c * rng.gauss();
    // Utilization ramps toward its target.
    *utilization = target_utilization + (*utilization - target_utilization) * c.util_a;
}

/// Deterministic mobility path-loss modulation at absolute time `t_secs`.
#[inline]
pub(crate) fn mobility_extra_db(cfg: &WifiConfig, t_secs: f64) -> f64 {
    match cfg.mobility {
        MobilityProfile::Static => 0.0,
        MobilityProfile::Pace { amplitude_db, period_secs } => {
            amplitude_db * (2.0 * std::f64::consts::PI * t_secs / period_secs).sin()
        }
        MobilityProfile::WalkAway { db_per_minute, max_extra_db } => {
            (db_per_minute * t_secs / 60.0).min(max_extra_db)
        }
    }
}

#[inline]
pub(crate) fn rssi_dbm(cfg: &WifiConfig, tx_power_dbm: f64, shadow_db: f64, t_secs: f64) -> f64 {
    tx_power_dbm - cfg.path_loss_db - shadow_db - mobility_extra_db(cfg, t_secs)
}

#[inline]
pub(crate) fn noise_dbm(cfg: &WifiConfig, utilization: f64, noise_jitter_db: f64) -> f64 {
    cfg.noise_floor_dbm
        + cfg.interference_gain_db * utilization.powf(cfg.interference_exp)
        + noise_jitter_db
}

/// Per-attempt frame error probability at the given SNR plus
/// utilization-driven collision probability.
#[inline]
pub(crate) fn attempt_failure_prob(cfg: &WifiConfig, rssi: f64, noise: f64, utilization: f64) -> f64 {
    let snr = rssi - noise;
    let p_err = 1.0 / (1.0 + ((snr - cfg.snr50_db) / cfg.snr_slope_db).exp());
    let p_coll = cfg.collision_at_full * utilization;
    (p_err + (1.0 - p_err) * p_coll).clamp(0.0, 1.0)
}

/// The DCF attempt loop: returns `Some(link delay)` on success within
/// `max_attempts`, `None` when the frame is dropped. RNG order: exponential
/// access delay; [tail chance, then pareto if it hits]; per-retry chance plus
/// uniform backoff.
pub(crate) fn transmit_frame_delay(
    cfg: &WifiConfig,
    p_fail: f64,
    utilization: f64,
    rng: &mut SimRng,
) -> Option<SimDuration> {
    let u = utilization;
    // Medium-access (queueing + contention) delay.
    let queue_factor = (u / (1.0 - u.min(0.95))).min(12.0);
    let mean_access = cfg.base_access_ms + cfg.queue_gain_ms * queue_factor;
    let mut delay_ms = rng.exponential(mean_access);
    let excess = (u - cfg.tail_util_threshold).max(0.0);
    if excess > 0.0 && rng.chance(cfg.tail_prob_gain * excess) {
        delay_ms += rng.pareto(cfg.tail_scale_ms, cfg.tail_alpha);
    }
    // Retry loop with binary exponential backoff.
    let mut attempt = 0;
    loop {
        if !rng.chance(p_fail) {
            break; // delivered
        }
        attempt += 1;
        if attempt >= cfg.max_attempts {
            return None;
        }
        // Backoff window doubles per attempt; slot ≈ 0.3 ms equivalent
        // (includes retransmission airtime at low rate).
        let window_ms = 0.3 * (1 << attempt.min(6)) as f64;
        delay_ms += rng.uniform_range(0.0, window_ms) + 1.0;
    }
    Some(SimDuration::from_millis_f64(delay_ms.min(cfg.delay_cap_ms)))
}

/// AP-queue bufferbloat behind cross-traffic, ms. Consumes one exponential
/// draw only above the knee.
#[inline]
pub(crate) fn downlink_bloat_ms(cfg: &WifiConfig, utilization: f64, rng: &mut SimRng) -> f64 {
    if utilization > cfg.bloat_util_knee {
        // Mean queue depth grows superlinearly with utilization; the
        // exponential tail is capped — the AP queue is finite.
        cfg.downlink_bloat_ms * utilization.powf(1.7) * rng.exponential(1.0).min(2.5)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksim::time::SimTime;
    use crate::lanes::{ChannelBank, Lane};

    fn quiet_channel(seed: u64) -> ChannelBank {
        let mut ch = ChannelBank::new(WifiConfig::default(), vec![SimRng::new(seed)]);
        ch.set_utilization_now(0.05);
        ch
    }

    fn congested_channel(seed: u64) -> ChannelBank {
        let cfg = WifiConfig { tx_power_dbm: 7.0, ..Default::default() };
        let mut ch = ChannelBank::new(cfg, vec![SimRng::new(seed)]);
        ch.set_utilization_now(0.82);
        ch
    }

    /// The station's lane of a one-lane bank.
    fn lane(ch: &mut ChannelBank) -> Lane<'_> {
        ch.lane(0).expect("one-lane bank")
    }

    #[test]
    fn hints_reflect_power_and_utilization() {
        let mut ch = quiet_channel(1);
        let good = lane(&mut ch).hints(SimTime::from_secs(1));
        assert!(good.rssi_dbm > -75.0, "rssi={}", good.rssi_dbm);
        assert!(good.noise_dbm < -80.0, "noise={}", good.noise_dbm);
        assert!(good.snr_margin_db() > 20.0);

        let mut ch = congested_channel(2);
        let bad = lane(&mut ch).hints(SimTime::from_secs(1));
        assert!(bad.rssi_dbm < -70.0, "rssi={}", bad.rssi_dbm);
        assert!(bad.noise_dbm > -70.0, "noise={}", bad.noise_dbm);
        assert!(bad.snr_margin_db() < 20.0);
    }

    #[test]
    fn quiet_channel_delivers_fast() {
        let mut ch = quiet_channel(3);
        let mut delivered = 0;
        let mut total_ms = 0.0;
        for i in 0..2000 {
            let t = SimTime::from_millis(i * 100);
            if let Some(d) = lane(&mut ch).transmit_up(t) {
                delivered += 1;
                total_ms += d.as_millis_f64();
            }
        }
        assert!(delivered > 1950, "delivered={delivered}");
        let mean = total_ms / delivered as f64;
        assert!(mean < 10.0, "mean uplink delay {mean} ms");
    }

    #[test]
    fn congested_channel_loses_and_delays() {
        let mut ch = congested_channel(4);
        let mut delivered = 0;
        let mut delays = Vec::new();
        for i in 0..2000 {
            let t = SimTime::from_millis(i * 100);
            if let Some(d) = lane(&mut ch).transmit_down(t) {
                delivered += 1;
                delays.push(d.as_millis_f64());
            }
        }
        let loss = 1.0 - delivered as f64 / 2000.0;
        assert!(loss > 0.02, "loss={loss}");
        let mean = delays.iter().sum::<f64>() / delays.len() as f64;
        assert!(mean > 100.0, "mean downlink delay {mean} ms under congestion");
        let max = delays.iter().cloned().fold(0.0, f64::max);
        assert!(max > 400.0, "max={max}");
        assert!(max <= WifiConfig::default().delay_cap_ms, "capped");
    }

    #[test]
    fn downlink_slower_than_uplink_under_load() {
        let mut ch = congested_channel(5);
        let mut up = Vec::new();
        let mut down = Vec::new();
        for i in 0..4000 {
            let t = SimTime::from_millis(i * 50);
            if let Some(d) = lane(&mut ch).transmit_up(t) {
                up.push(d.as_millis_f64());
            }
            if let Some(d) = lane(&mut ch).transmit_down(t) {
                down.push(d.as_millis_f64());
            }
        }
        let mu = up.iter().sum::<f64>() / up.len() as f64;
        let md = down.iter().sum::<f64>() / down.len() as f64;
        assert!(md > 2.0 * mu, "down {md} should dwarf up {mu}");
    }

    #[test]
    fn tx_power_clamped_to_range() {
        // RSSI moves dB for dB with transmit power; reading it twice at
        // one instant holds every other term fixed.
        let mut ch = quiet_channel(6);
        let t = SimTime::from_secs(1);
        let at_15_dbm = lane(&mut ch).hints(t).rssi_dbm;
        ch.adjust_tx_power_db(100.0);
        let high = lane(&mut ch).hints(t).rssi_dbm - at_15_dbm;
        assert!((high - 5.0).abs() < 1e-9, "clamped to 20 dBm: {high}");
        ch.adjust_tx_power_db(-100.0);
        let low = lane(&mut ch).hints(t).rssi_dbm - at_15_dbm;
        assert!((low + 11.0).abs() < 1e-9, "clamped to 4 dBm: {low}");
    }

    #[test]
    fn utilization_clamped() {
        let mut ch = quiet_channel(7);
        ch.set_utilization_now(2.0);
        assert_eq!(lane(&mut ch).utilization(), 1.0);
        ch.set_utilization_now(-1.0);
        assert_eq!(lane(&mut ch).utilization(), 0.0);
    }

    #[test]
    fn utilization_ramps_not_jumps() {
        let mut ch = quiet_channel(12);
        lane(&mut ch).advance_to(SimTime::from_secs(1));
        ch.set_utilization(0.9);
        // Immediately after the command the medium is still quiet…
        assert!(lane(&mut ch).utilization() < 0.2);
        // …one ramp-tau later it is partway…
        lane(&mut ch).advance_to(SimTime::from_secs(5));
        let u = lane(&mut ch).utilization();
        assert!((0.3..0.8).contains(&u), "u={u}");
        // …and after several taus it has arrived.
        lane(&mut ch).advance_to(SimTime::from_secs(30));
        assert!(lane(&mut ch).utilization() > 0.85);
    }

    #[test]
    fn shadow_fading_moves_rssi() {
        let mut ch = quiet_channel(8);
        let mut values = Vec::new();
        for i in 0..200 {
            values.push(lane(&mut ch).hints(SimTime::from_secs(i * 10)).rssi_dbm);
        }
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 4.0, "shadowing should move RSSI, range={}", max - min);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut ch = congested_channel(seed);
            (0..100)
                .map(|i| {
                    lane(&mut ch).transmit_down(SimTime::from_millis(i * 100)).map(|d| d.as_nanos())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn coeff_cache_invalidates_on_dt_change() {
        // Small steps prime the cache with dt=1 coefficients; the
        // following dt=100 step must recompute (a stale exp(-1/4) would
        // leave utilization visibly short of its target).
        let mut ch = quiet_channel(13);
        ch.set_utilization(0.9);
        for i in 1..=5 {
            lane(&mut ch).advance_to(SimTime::from_secs(i));
        }
        lane(&mut ch).advance_to(SimTime::from_secs(105));
        let u = lane(&mut ch).utilization();
        assert!(u > 0.899, "u={u}");
        // And back to a small step: shadow fading must keep moving on
        // freshly small coefficients, not the dt=100 ones (a≈0 would make
        // successive samples nearly independent at full σ; with dt=1 the
        // step-to-step change is bounded by c ≈ σ·sqrt(1-a²) ≈ 0.84 dB·g).
        let r1 = lane(&mut ch).hints(SimTime::from_secs(106)).rssi_dbm;
        let r2 = lane(&mut ch).hints(SimTime::from_secs(107)).rssi_dbm;
        assert!((r1 - r2).abs() < 3.0 * 0.84 * 3.0, "dt=1 steps should be correlated");
    }

    #[test]
    fn advance_is_idempotent_at_same_time() {
        let mut ch = quiet_channel(11);
        let t = SimTime::from_secs(5);
        let a = lane(&mut ch).hints(t);
        let b = lane(&mut ch).hints(t);
        assert_eq!(a, b);
    }
}
