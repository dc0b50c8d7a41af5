//! Struct-of-arrays storage for populations of 802.11 lanes.
//!
//! [`ChannelBank`] holds the live state of the [`crate::wifi`] channel
//! model for every station on one access point: the testbed's wireless
//! hop is a one-lane bank, a fleet's access point a bank with one lane
//! per client. The hot fleet tick touches one or two scalars per lane, so
//! the bank stores the population column-wise — one `Vec` per piece of
//! per-lane state, one *shared* config/coefficient block — and a sweep
//! over lanes walks dense, homogeneous arrays.
//!
//! [`Lane`] is a borrowed view of one column slot. It carries packets and
//! reads hints through the free functions in [`crate::wifi`], drawing
//! from its own RNG stream in the order documented there, so a lane's
//! sequence never depends on how many other lanes share its bank (pinned
//! by a test below).
//!
//! Shared-state caveat: the utilization *target* and the transmit power
//! are bank-wide scalars. The cross-traffic generator drives every lane's
//! target identically, and only the testbed's monitor node — whose bank
//! has one lane — adjusts power. The per-lane OU state — shadow fading,
//! noise jitter, ramped utilization — stays per-lane.

use clocksim::rng::SimRng;
use clocksim::time::{SimDuration, SimTime};

use crate::wifi::{self, StepCoeffs, WifiConfig, WirelessHints};

/// A population of last-hop channels in struct-of-arrays layout.
#[derive(Clone, Debug)]
pub struct ChannelBank {
    cfg: WifiConfig,
    /// Step coefficients keyed on exact `dt` — shared across lanes: the
    /// fleet advances lanes on a common cadence, so the cache hits almost
    /// always; any other `dt` recomputes, keeping results bit-identical to
    /// the uncached math.
    coeffs: StepCoeffs,
    target_utilization: f64,
    tx_power_dbm: f64,
    shadow_db: Vec<f64>,
    noise_jitter_db: Vec<f64>,
    utilization: Vec<f64>,
    last_update: Vec<SimTime>,
    rng: Vec<SimRng>,
}

impl ChannelBank {
    /// Create a bank of `rngs.len()` lanes at `t = 0`, one RNG stream per
    /// lane, transmitting at the configured power over a 5 %-utilized
    /// medium.
    pub fn new(cfg: WifiConfig, rngs: Vec<SimRng>) -> Self {
        let n = rngs.len();
        let tx = cfg.tx_power_dbm;
        ChannelBank {
            cfg,
            coeffs: StepCoeffs::empty(),
            target_utilization: 0.05,
            tx_power_dbm: tx,
            shadow_db: vec![0.0; n],
            noise_jitter_db: vec![0.0; n],
            utilization: vec![0.05; n],
            last_update: vec![SimTime::ZERO; n],
            rng: rngs,
        }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.rng.len()
    }

    /// Whether the bank holds no lanes.
    pub fn is_empty(&self) -> bool {
        self.rng.is_empty()
    }

    /// Set every lane's medium-utilization *target* in `[0, 1]`; each
    /// lane's current utilization ramps toward it independently.
    pub fn set_utilization(&mut self, u: f64) {
        self.target_utilization = u.clamp(0.0, 1.0);
    }

    /// Set every lane's utilization immediately, bypassing the ramp
    /// (tests, scenario setup).
    pub fn set_utilization_now(&mut self, u: f64) {
        self.set_utilization(u);
        self.utilization.fill(self.target_utilization);
    }

    /// Adjust the WAP transmit power by `delta` dB, clamped to the legal
    /// range — the monitor node's control knob.
    pub fn adjust_tx_power_db(&mut self, delta: f64) {
        let (lo, hi) = self.cfg.tx_power_range_dbm;
        self.tx_power_dbm = (self.tx_power_dbm + delta).clamp(lo, hi);
    }

    /// A mutable view of lane `i`, or `None` when out of range. Column
    /// lookups happen once here; the view itself never indexes.
    pub fn lane(&mut self, i: usize) -> Option<Lane<'_>> {
        Some(Lane {
            cfg: &self.cfg,
            coeffs: &mut self.coeffs,
            target_utilization: self.target_utilization,
            tx_power_dbm: self.tx_power_dbm,
            shadow_db: self.shadow_db.get_mut(i)?,
            noise_jitter_db: self.noise_jitter_db.get_mut(i)?,
            utilization: self.utilization.get_mut(i)?,
            last_update: self.last_update.get_mut(i)?,
            rng: self.rng.get_mut(i)?,
        })
    }
}

/// A borrowed view of one lane in a [`ChannelBank`]: one element of each
/// state column plus the bank-wide shared scalars.
#[derive(Debug)]
pub struct Lane<'a> {
    cfg: &'a WifiConfig,
    coeffs: &'a mut StepCoeffs,
    target_utilization: f64,
    tx_power_dbm: f64,
    shadow_db: &'a mut f64,
    noise_jitter_db: &'a mut f64,
    utilization: &'a mut f64,
    last_update: &'a mut SimTime,
    rng: &'a mut SimRng,
}

impl Lane<'_> {
    /// Evolve this lane's OU processes up to `t`.
    pub fn advance_to(&mut self, t: SimTime) {
        let dt = (t - *self.last_update).as_secs_f64();
        if dt <= 0.0 {
            return;
        }
        // `NaN != NaN`, so the first step always computes.
        if self.coeffs.dt != dt {
            *self.coeffs = StepCoeffs::for_dt(self.cfg, dt);
        }
        wifi::ou_step(
            self.coeffs,
            self.shadow_db,
            self.noise_jitter_db,
            self.utilization,
            self.target_utilization,
            self.rng,
        );
        *self.last_update = t;
    }

    fn rssi_dbm(&self) -> f64 {
        wifi::rssi_dbm(self.cfg, self.tx_power_dbm, *self.shadow_db, self.last_update.as_secs_f64())
    }

    fn noise_dbm(&self) -> f64 {
        wifi::noise_dbm(self.cfg, *self.utilization, *self.noise_jitter_db)
    }

    /// Current wireless hints (advances the lane to `t` first).
    pub fn hints(&mut self, t: SimTime) -> WirelessHints {
        self.advance_to(t);
        WirelessHints { rssi_dbm: self.rssi_dbm(), noise_dbm: self.noise_dbm() }
    }

    /// Current medium utilization of this lane.
    pub fn utilization(&self) -> f64 {
        *self.utilization
    }

    fn transmit_frame(&mut self) -> Option<SimDuration> {
        let u = *self.utilization;
        let p_fail = wifi::attempt_failure_prob(self.cfg, self.rssi_dbm(), self.noise_dbm(), u);
        wifi::transmit_frame_delay(self.cfg, p_fail, u, self.rng)
    }

    /// Transmit an uplink (station → WAP) packet at time `t`.
    pub fn transmit_up(&mut self, t: SimTime) -> Option<SimDuration> {
        self.advance_to(t);
        self.transmit_frame()
    }

    /// Transmit a downlink (WAP → station) packet at time `t`. Pays the
    /// additional AP-queue bufferbloat behind cross-traffic.
    pub fn transmit_down(&mut self, t: SimTime) -> Option<SimDuration> {
        self.advance_to(t);
        let frame = self.transmit_frame()?;
        let bloat_ms = wifi::downlink_bloat_ms(self.cfg, *self.utilization, self.rng);
        let total = frame.as_millis_f64() + bloat_ms;
        Some(SimDuration::from_millis_f64(total.min(self.cfg.delay_cap_ms)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shared `dt` coefficient cache must not let one lane's step size
    /// contaminate another's: interleave two lanes of one bank on
    /// different cadences against two one-lane banks seeded alike.
    #[test]
    fn interleaved_cadences_do_not_cross_contaminate() {
        let cfg = WifiConfig::default();
        let mut bank = ChannelBank::new(cfg.clone(), vec![SimRng::new(21), SimRng::new(22)]);
        let mut a = ChannelBank::new(cfg.clone(), vec![SimRng::new(21)]);
        let mut b = ChannelBank::new(cfg, vec![SimRng::new(22)]);
        for step in 1..200i64 {
            // Lane 0 ticks every second, lane 1 every 700 ms — the shared
            // cache misses on every call, recomputing keyed-exact values.
            let ta = SimTime::from_millis(step * 1000);
            let tb = SimTime::from_millis(step * 700);
            assert_eq!(bank.lane(0).unwrap().hints(ta), a.lane(0).unwrap().hints(ta));
            assert_eq!(bank.lane(1).unwrap().hints(tb), b.lane(0).unwrap().hints(tb));
        }
    }

    #[test]
    fn lane_out_of_range_is_none() {
        let mut bank = ChannelBank::new(WifiConfig::default(), vec![SimRng::new(1)]);
        assert!(bank.lane(0).is_some());
        assert!(bank.lane(1).is_none());
        assert_eq!(bank.len(), 1);
        assert!(!bank.is_empty());
    }
}
