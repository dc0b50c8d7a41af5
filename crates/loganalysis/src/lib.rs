//! # loganalysis
//!
//! The NTP-server-log measurement pipeline of the paper's §3.1, plus the
//! synthetic log generator that stands in for the 19 production servers'
//! tcpdump traces (see DESIGN.md for the substitution argument).
//!
//! * [`model`] — the study population: the paper's Table 1 server
//!   profiles (stratum, IP version, client and measurement counts) and
//!   25 service-provider profiles in the four latency categories of
//!   Figure 1 (cloud/hosting, ISP, broadband, mobile).
//! * [`synth`] — generate a server's worth of request/response records
//!   as real 48-byte NTP packets with per-client clocks, protocols
//!   (SNTP vs NTP shapes) and path latencies. Counts are scaled down
//!   from Table 1 (default 1/1000) with proportions preserved.
//! * [`protocol`] — classify each client as SNTP or NTP from packet
//!   shape, the same heuristic the paper applies to tcpdump output.
//! * [`classify`] — keyword-based service-provider classification from
//!   reverse-DNS hostnames ("fairly rudimentary \[but\] sufficient",
//!   §3.1) — validated against the generator's ground truth in tests.
//! * [`owd`] — one-way-delay extraction with the synchronization-state
//!   filtering heuristic of Durairajan et al. (HotNets'15), which the
//!   paper uses to discard invalid latency samples.
//! * [`pcap_input`] — parse libpcap captures (e.g. written by
//!   `netsim::pcap`) into analyzable NTP datagrams: the tcpdump front
//!   end the paper's tooling was built on.
//! * [`interarrival`] — request inter-arrival statistics over a server
//!   log, globally (the herding view: synchronized clients pile up in
//!   the same instants) and per client (the poll-schedule view) — the
//!   server-side lens the fleet experiment feeds with simulated
//!   arrivals.
//! * [`report`] — assemble Table 1, Figure 1 (min-OWD distributions per
//!   provider) and Figure 2 (SNTP vs NTP shares).
//! * [`recovery`] — sustained-threshold time-to-reconvergence and
//!   peak-error measurement over fleet error series: the ruler the chaos
//!   experiments apply to each fault phase.
//! * [`stream`] — the streaming seam: a one-pass, constant-memory
//!   [`stream::ChunkSummary`] bundling the constant-memory tallies and
//!   sketches, with the deterministic (server, chunk)-ordered merge the
//!   full-scale 209M-record pipeline folds over (DESIGN.md §13).
//!
//! Each analyzer has one form. The exact ones
//! ([`protocol::classify_clients`], [`owd::extract_owds`],
//! [`global_interarrival`]) are single loops over a whole [`ServerLog`]
//! and feed Figure 1, Figure 2 and the fleet experiment. The streaming
//! form is [`ChunkSummary`] alone: its parts ([`protocol::ShapeTally`],
//! [`classify::ProviderTally`], [`GapSketch`] and the OWD quantile
//! sketches) hold counters and fixed-size sketches, never per-client or
//! per-gap state, and share the per-record decisions
//! ([`owd::surviving_owd_ms`], [`classify::classify_hostname`]) with the
//! exact analyzers. The generator side mirrors this:
//! [`synth::stream_chunk`] produces the same population chunk-by-chunk
//! with no whole-day materialization.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod interarrival;
pub mod model;
pub mod owd;
pub mod pcap_input;
pub mod protocol;
pub mod recovery;
pub mod report;
pub mod stream;
pub mod synth;

pub use interarrival::{
    global_interarrival, per_client_interarrival, GapSketch, InterarrivalSummary,
};
pub use model::{ProviderCategory, ProviderProfile, ServerProfile, PROVIDERS, SERVERS};
pub use recovery::{peak_error, time_to_reconvergence, RecoveryConfig};
pub use report::{figure1, figure2, generate_all_logs, table1, Figure1Row, Figure2Row, Table1Row};
pub use stream::ChunkSummary;
pub use synth::{chunk_len, chunk_plan, generate_server_log, stream_chunk, ChunkPlan, LogRecord, ServerLog, StreamSynthConfig, SynthConfig};
