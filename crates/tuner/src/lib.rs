//! # tuner
//!
//! The **MNTP tuner** of the paper's §5.3 — "a stand-alone tool [whose
//! core is] the ability to perform trace-driven analysis on the recorded
//! clock offset values" — with its three components:
//!
//! * [`logger`] — runs on the (simulated) target node: emits SNTP
//!   requests to multiple reference clocks every 5 seconds, recording
//!   each round's per-source offsets *and* the wireless hints at that
//!   moment into a [`trace::Trace`].
//! * [`emulator`] — replays Algorithm 1 (the real [`mntp::Mntp`] engine,
//!   not a reimplementation) over a recorded trace and reports the
//!   offsets MNTP would have produced, plus the number of requests it
//!   would have emitted.
//! * [`search`] — sweeps the four MNTP parameters over caller-provided
//!   grids, runs the emulator for every combination (fanned out over the
//!   in-tree `devtools::par` pool, honoring `MNTP_JOBS`),
//!   and ranks configurations by the RMSE
//!   of their corrected offsets against a perfectly synchronized clock —
//!   regenerating the paper's Table 2.
//!
//! The tuner is also the tool that uncovered the drift-underestimation
//! failure ("the MNTP filter was too conservative in accepting the
//! offsets resulting in all the offsets being rejected") that led to
//! per-sample drift re-estimation; the regression test for that story
//! lives in [`emulator`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod emulator;
pub mod logger;
pub mod search;
pub mod trace;

pub use emulator::{emulate, EmulationResult};
pub use logger::record_trace;
pub use search::{grid_search, grid_search_on, ParamGrid, SearchResult};
pub use trace::{Trace, TraceRow};
