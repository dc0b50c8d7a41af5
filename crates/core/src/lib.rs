//! # mntp
//!
//! **Mobile NTP** — the contribution of *MNTP: Enhancing Time
//! Synchronization for Mobile Devices* (Mani, Durairajan, Barford,
//! Sommers; IMC 2016), reimplemented as a Rust library over the
//! workspace's simulation substrate.
//!
//! MNTP is a lightweight modification of SNTP with two ideas (paper §4):
//!
//! 1. **Channel-aware pacing** — emit synchronization requests *only*
//!    when link-layer *wireless hints* (RSSI, noise, SNR margin) say the
//!    channel is stable ([`gate::HintGate`]); defer otherwise.
//! 2. **Lightweight filtering** — fit a least-squares trend line through
//!    recorded offsets (the clock's drift), predict where the next sample
//!    should land, and reject outliers by a one-standard-deviation test
//!    on squared errors ([`filter::TrendFilter`]). During the multi-source
//!    warmup, reject *false tickers* whose offsets deviate from the round
//!    mean by more than one standard deviation.
//!
//! [`engine::Mntp`] assembles both into the full two-phase Algorithm 1
//! (warmup with three pool sources → drift estimate → regular phase with
//! one source, reset after `resetPeriod`). [`driver`] runs either the
//! full engine or the unphased gate+filter baseline (the configuration of
//! the paper's §5.1 head-to-head experiments) against a
//! [`netsim::Testbed`].
//!
//! Everything is sans-io: the engine consumes local-clock timestamps,
//! hints, and offset samples, and emits query decisions plus
//! [`clocksim::ClockCommand`]s. That is exactly what lets the paper's
//! *MNTP tuner* (the `tuner` crate) replay the algorithm over recorded
//! traces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autotune;
pub mod config;
pub mod discipline;
pub mod driver;
pub mod engine;
pub mod fleet;
pub mod filter;
pub mod gate;
pub mod selection;

pub use autotune::{AutoTuneConfig, AutoTuner};
pub use config::{ApplyMode, MntpConfig};
pub use discipline::{Directive, Discipline, ExchangeResult, MntpDiscipline, SntpDiscipline};
pub use driver::{drive, DriverConfig, MntpRun, MntpRunRecord, QueryOutcome, RobustConfig};
pub use engine::{Mntp, MntpAction, Phase, SampleVerdict, WarmupVerdict};
pub use fleet::{
    run_fleet_chaos_on, run_fleet_on, ChaosSession, FleetClient, FleetRun, FleetRunConfig,
    GroupSample,
};
pub use filter::{FalseTickerVerdict, TrendFilter};
pub use gate::HintGate;
pub use selection::{select_round, RoundSelection};
