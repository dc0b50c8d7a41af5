//! # sntp
//!
//! The SNTP side of the reproduction: a sans-io RFC 4330 client state
//! machine, a simulated population of NTP pool servers, the vendor client
//! policies the paper calls out (§2), and the *exchange composition* that
//! carries real packet bytes across the simulated testbed.
//!
//! * [`client`] — [`client::SntpClient`]: builds requests, validates
//!   replies, yields [`client::OffsetSample`]s. This is the unmodified
//!   baseline MNTP is compared against.
//! * [`server`] — [`server::SimServer`]: a stratum server with its own
//!   (slightly wrong) clock, processing delay, and backbone path.
//! * [`pool`] — [`pool::ServerPool`]: `0.pool.ntp.org`-style random server
//!   assignment per request, including a configurable fraction of
//!   *false tickers* (servers whose clock is badly off), which is what
//!   MNTP's warmup-phase rejection heuristic exists to defeat.
//! * [`exchange`] — [`exchange::perform_exchange_with`]: serializes a
//!   request, walks it across the last hop and backbone (each leg can drop
//!   or delay it), has the server answer, and walks the reply back. All
//!   four timestamps come from the respective clocks; nothing reads true
//!   time. [`exchange::perform_exchange`] is its fault-free form.
//! * [`vendor`] — Android KitKat / Windows Mobile SNTP policies and NITZ,
//!   reproducing the OS behaviours in §2 of the paper.
//! * [`energy`] — the Balasubramanian-style radio energy model behind
//!   the paper's §3.4 battery argument: joules per transfer including
//!   ramp and tail costs.
//! * [`retry`] — capped exponential backoff with deterministic jitter,
//!   the pacing policy hardened clients use after failures.
//! * [`select`] — Marzullo-style intersection plus the RFC 5905 §11.2
//!   cluster/combine refinement: the falseticker-resilient selection
//!   every multi-server client stack (ntpd-sim, the fleet's hardened
//!   MNTP discipline) runs over its per-server candidates.
//! * [`server_core`] — the batched byte-level server engine: arena-backed
//!   zero-copy parse → classify → sharded rate-limit → in-place reply
//!   emission, behaviorally pinned to [`server::SimServer`].
//!
//! The hardened-client surface ([`exchange::perform_exchange_with`],
//! [`pool::HealthTracker`], kiss-o'-death handling via
//! [`client::ReplyOutcome`]) composes with `netsim::faults` to survive
//! the episodic failures the fault layer injects.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod energy;
pub mod exchange;
pub mod fleet;
pub mod pool;
pub mod retry;
pub mod select;
pub mod server;
pub mod server_core;
pub mod vendor;

pub use client::{OffsetSample, ReplyOutcome, SntpClient};
pub use energy::{EnergyMeter, EnergyModel};
pub use fleet::{
    begin_fleet_exchange, complete_fleet_exchange, serve_fleet_exchange, FleetArrival,
    FleetReplyInFlight, FleetRequestInFlight, RequestShape,
};
pub use exchange::{
    perform_exchange, perform_exchange_with, CompletedExchange, ExchangeError, TracedPacket,
};
pub use pool::{
    HealthConfig, HealthTracker, PickLane, PoolConfig, ServerHealth, ServerPool, ServerSelect,
};
pub use retry::{Backoff, BackoffConfig};
pub use select::{cluster, combine, select_survivors, PeerCandidate, MIN_SURVIVORS};
pub use server::SimServer;
pub use server_core::{CoreConfig, CoreStats, ReplyRing, RequestRing, ServerCore};
