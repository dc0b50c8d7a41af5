//! In-tree development harnesses for the MNTP workspace.
//!
//! Four subsystems, all dependency-free beyond `clocksim` (for the
//! deterministic RNG):
//!
//! - [`prop`] — a shrinking property-test harness (the workspace's
//!   replacement for `proptest`): generators over [`clocksim::SimRng`],
//!   greedy counterexample shrinking, and the [`props!`],
//!   [`prop_assert!`], [`prop_assert_eq!`] macros.
//! - [`bench`](mod@bench) — a benchmark runner (the workspace's replacement for
//!   `criterion`): warmup, iteration calibration, mean/p50/p99 stats,
//!   and machine-readable JSON reports under `results/bench/`.
//! - [`par`] — a thread pool (the workspace's replacement for `rayon`):
//!   scoped `std::thread`s draining one shared queue, exposing an
//!   order-preserving [`par::Pool::map`] whose output is bit-identical
//!   to the serial loop.
//! - [`sketch`] — deterministic mergeable one-pass summaries (the
//!   workspace's replacement for a streaming-quantiles crate): a
//!   Munro–Paterson-style quantile sketch with bounded rank error plus
//!   exact streaming moments, and the shared nearest-rank percentile
//!   convention used by every exact report path.
//! - [`lint`] — the determinism & panic-policy linter (the workspace's
//!   replacement for clippy plugins): a Rust tokenizer plus path-pattern
//!   matcher enforcing the invariants of DESIGN.md §8, exposed as the
//!   `lint` bin and wired into `scripts/ci.sh` as a blocking gate.
//!
//! Keeping these in-tree is what makes the workspace hermetic: a cold
//! cache plus `cargo build --release --offline` is enough to build,
//! test, and benchmark everything.

pub mod bench;
pub mod lint;
pub mod par;
pub mod prop;
pub mod sketch;

pub use par::Pool;
pub use prop::{Config, Counterexample, Gen, PropFail, PropResult};
pub use sketch::{percentile_nearest_rank, Moments, QuantileSketch};
