//! Per-packet delay and loss models for wired segments.
//!
//! These models cover every non-WiFi path in the reproduction: the
//! Ethernet last hop of the paper's wired control experiments, and the
//! Internet backbone between the testbed's uplink and each NTP pool
//! server. The WiFi last hop has its own stateful model in [`crate::wifi`]
//! because its delay and loss are driven by channel state rather than
//! being i.i.d.

use clocksim::rng::SimRng;
use clocksim::time::SimDuration;

/// A per-packet one-way-delay distribution.
#[derive(Clone, Debug)]
pub enum DelayModel {
    /// Gaussian jitter around a mean, truncated below at `floor_ms`.
    Normal {
        /// Mean delay, ms.
        mean_ms: f64,
        /// Standard deviation, ms.
        sigma_ms: f64,
        /// Hard lower bound, ms (propagation delay can't be beaten).
        floor_ms: f64,
    },
    /// Lognormal body (the classic shape of Internet OWDs) plus a Pareto
    /// spike tail occurring with probability `spike_prob` — models
    /// transient cross-traffic queueing on a path.
    SpikyLogNormal {
        /// Median of the body, ms (the lognormal's scale `e^mu`).
        median_ms: f64,
        /// Shape of the body.
        sigma: f64,
        /// Hard lower bound, ms.
        floor_ms: f64,
        /// Per-packet probability of hitting the spike tail.
        spike_prob: f64,
        /// Pareto scale of the tail, ms (minimum spike size).
        spike_scale_ms: f64,
        /// Pareto shape of the tail (smaller = heavier).
        spike_alpha: f64,
    },
}

impl DelayModel {
    /// Ethernet LAN hop: ~0.3 ms, almost no jitter.
    pub fn ethernet() -> Self {
        DelayModel::Normal { mean_ms: 0.3, sigma_ms: 0.05, floor_ms: 0.1 }
    }

    /// A typical wired Internet path to a nearby pool server.
    pub fn backbone(median_ms: f64) -> Self {
        DelayModel::SpikyLogNormal {
            median_ms,
            sigma: 0.08,
            floor_ms: median_ms * 0.8,
            spike_prob: 0.01,
            spike_scale_ms: 4.0,
            spike_alpha: 1.8,
        }
    }

    /// Sample one delay.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        let ms = match self {
            DelayModel::Normal { mean_ms, sigma_ms, floor_ms } => {
                rng.normal(*mean_ms, *sigma_ms).max(*floor_ms)
            }
            DelayModel::SpikyLogNormal {
                median_ms,
                sigma,
                floor_ms,
                spike_prob,
                spike_scale_ms,
                spike_alpha,
            } => {
                let mut d = rng.lognormal(median_ms.ln(), *sigma).max(*floor_ms);
                if rng.chance(*spike_prob) {
                    d += rng.pareto(*spike_scale_ms, *spike_alpha);
                }
                d
            }
        };
        SimDuration::from_millis_f64(ms)
    }
}

/// A per-packet loss process.
#[derive(Clone, Debug)]
pub enum LossModel {
    /// Never loses.
    None,
    /// Independent loss with fixed probability.
    Bernoulli(f64),
}

impl LossModel {
    /// Evaluate the next packet: returns `true` if it is lost.
    pub fn is_lost(&self, rng: &mut SimRng) -> bool {
        match self {
            LossModel::None => false,
            LossModel::Bernoulli(p) => rng.chance(*p),
        }
    }
}

/// A unidirectional link: delay plus loss.
#[derive(Clone, Debug)]
pub struct Link {
    /// Delay distribution.
    pub delay: DelayModel,
    /// Loss process.
    pub loss: LossModel,
}

impl Link {
    /// A lossless link with the given delay model.
    pub fn lossless(delay: DelayModel) -> Self {
        Link { delay, loss: LossModel::None }
    }

    /// Transmit one packet: `Some(delay)` if delivered, `None` if lost.
    pub fn transmit(&self, rng: &mut SimRng) -> Option<SimDuration> {
        if self.loss.is_lost(rng) {
            None
        } else {
            Some(self.delay.sample(rng))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_ms(model: &DelayModel, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SimRng::new(seed);
        (0..n).map(|_| model.sample(&mut rng).as_millis_f64()).collect()
    }

    #[test]
    fn normal_respects_floor_and_mean() {
        let m = DelayModel::Normal { mean_ms: 10.0, sigma_ms: 2.0, floor_ms: 5.0 };
        let xs = collect_ms(&m, 20_000, 2);
        assert!(xs.iter().all(|&d| d >= 5.0));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn spiky_tail_appears_at_roughly_configured_rate() {
        let m = DelayModel::SpikyLogNormal {
            median_ms: 10.0,
            sigma: 0.05,
            floor_ms: 8.0,
            spike_prob: 0.05,
            spike_scale_ms: 50.0,
            spike_alpha: 2.0,
        };
        let xs = collect_ms(&m, 50_000, 4);
        let spikes = xs.iter().filter(|&&d| d > 40.0).count() as f64 / xs.len() as f64;
        assert!((spikes - 0.05).abs() < 0.01, "spike rate {spikes}");
    }

    #[test]
    fn bernoulli_loss_rate() {
        let loss = LossModel::Bernoulli(0.2);
        let mut rng = SimRng::new(5);
        let lost = (0..50_000).filter(|_| loss.is_lost(&mut rng)).count() as f64 / 50_000.0;
        assert!((lost - 0.2).abs() < 0.01, "loss={lost}");
    }

    #[test]
    fn link_transmit_composes() {
        // A pool server's path: backbone delay behind Bernoulli loss.
        let link = Link { delay: DelayModel::backbone(20.0), loss: LossModel::Bernoulli(0.5) };
        let mut rng = SimRng::new(7);
        let results: Vec<Option<SimDuration>> = (0..1000).map(|_| link.transmit(&mut rng)).collect();
        let delivered = results.iter().flatten().count();
        assert!((300..700).contains(&delivered));
        assert!(results.iter().flatten().all(|d| *d >= SimDuration::from_millis(16)));
    }

    #[test]
    fn deterministic_given_seed() {
        let m = DelayModel::backbone(25.0);
        assert_eq!(collect_ms(&m, 100, 42), collect_ms(&m, 100, 42));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use devtools::prop;
    use devtools::{prop_assert, props};

    props! {
        /// Every delay model yields non-negative delays at least as large
        /// as its floor, for any parameters in sane ranges.
        fn delays_respect_floors(
            mean in prop::floats(0.5..200.0),
            sigma in prop::floats(0.0..50.0),
            floor in prop::floats(0.0..10.0),
            seed in prop::any_u64(),
        ) {
            let mut rng = SimRng::new(seed);
            let m = DelayModel::Normal { mean_ms: mean, sigma_ms: sigma, floor_ms: floor };
            for _ in 0..100 {
                let d = m.sample(&mut rng).as_millis_f64();
                prop_assert!(d >= floor - 1e-5, "d={d} floor={floor}"); // ns quantization
            }
            let m = DelayModel::SpikyLogNormal {
                median_ms: mean,
                sigma: 0.5,
                floor_ms: floor,
                spike_prob: 0.1,
                spike_scale_ms: 4.0,
                spike_alpha: 1.8,
            };
            for _ in 0..100 {
                prop_assert!(m.sample(&mut rng).as_millis_f64() >= floor - 1e-5);
            }
        }

        /// Bernoulli loss rate converges to p for any p.
        fn bernoulli_rate_converges(p in prop::floats(0.0..1.0), seed in prop::any_u64()) {
            let loss = LossModel::Bernoulli(p);
            let mut rng = SimRng::new(seed);
            let n = 20_000;
            let lost = (0..n).filter(|_| loss.is_lost(&mut rng)).count() as f64 / n as f64;
            prop_assert!((lost - p).abs() < 0.02, "lost={lost} p={p}");
        }
    }
}
