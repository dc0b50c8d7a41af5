//! The batched server-side throughput engine.
//!
//! The fleet experiments model the server as [`crate::SimServer`] — parse
//! one packet, build one reply struct, heap-allocate its bytes. That is
//! the right fidelity for simulation, and three orders of magnitude off a
//! production ingest path. This module is the production shape: requests
//! arrive as raw bytes in a preallocated arena ([`RequestRing`]), flow
//! through a staged pipeline (zero-copy classify → sharded rate-limit →
//! in-place reply emission, see [`pipeline`]), and leave as a contiguous
//! reply stream ([`ReplyRing`]) without a single per-packet allocation.
//!
//! Semantics are pinned to the sim: a `ServerCore` with clock error *e*
//! produces byte-for-byte the replies a wobble-free `SimServer` would,
//! including kiss-o'-death fates — property-tested in
//! `tests/server_core_equivalence.rs` at the repository root, which also
//! pins the RATE verdicts to `netsim::fleet::ServerModel`'s. All three
//! servers decide RATE through the same `netsim::admission::Admission`;
//! `SimServer` is the one-request-batch case of a shard. Scale-out is
//! deterministic: per-client shard routing plus a serial positional merge
//! keeps the reply stream identical at any (shards, jobs); throughput is
//! tracked by the `server_core_*` benches against
//! `results/bench/baseline.json`.
//!
//! * [`arena`] — [`RequestRing`] / [`ReplyRing`] slot arenas and [`Fate`].
//! * [`pipeline`] — [`ServerCore`]: the staged engine itself.

pub mod arena;
pub mod pipeline;

pub use arena::{Fate, ReplyRing, RequestMeta, RequestRing, SLOT};
pub use pipeline::{CoreConfig, CoreStats, ServerCore};
