//! `fullscale-stream`: `experiments::fullscale::run_on`, the chunked
//! one-pass analysis of every Table 1 server's day, at scale 1/60 with
//! 16 Ki-record chunks (about 3.5 M records in ~220 chunks — about the
//! chunk count and chunks-per-server spread of the full 209 M-record,
//! 1 Mi-chunk regime). It is the only workload on `loganalysis` generation and
//! sinks and on `devtools::sketch`, and it has no simulation kernel.
//!
//! A step is one whole report: the pipeline exposes no per-chunk hook,
//! so its latency is the latency of `run_on`.

use std::time::Instant;

use devtools::par::Pool;
use experiments::fullscale::{self, FullScaleConfig, FullScaleResult, ServerRow};
use loganalysis::owd::OwdFilter;
use loganalysis::stream::ChunkSummary;
use loganalysis::synth::{chunk_plan, stream_chunk, StreamSynthConfig};
use loganalysis::SERVERS;

use crate::trace::Tracer;
use crate::{Fnv, Note, Rep, Replay, Workload, WORKERS};

/// The `fullscale-stream` workload.
#[derive(Clone, Debug)]
pub struct FullscaleSpec {
    /// Regime parameters handed to `run_on`.
    pub cfg: FullScaleConfig,
}

impl FullscaleSpec {
    /// Scale 1/60, 16 Ki-record chunks.
    pub fn stream() -> FullscaleSpec {
        FullscaleSpec {
            cfg: FullScaleConfig {
                scale: 60,
                chunk_records: 1 << 14,
                k: devtools::sketch::DEFAULT_K,
            },
        }
    }
}

/// One repetition's inputs: the regime, the seed, and the record count
/// its chunk plans promise.
pub struct Regime {
    cfg: FullScaleConfig,
    seed: u64,
    planned_records: u64,
}

fn synth_config(cfg: &FullScaleConfig) -> StreamSynthConfig {
    StreamSynthConfig { scale: cfg.scale, duration_secs: 86_400, chunk_records: cfg.chunk_records }
}

fn render_digest(r: &FullScaleResult) -> u64 {
    let mut h = Fnv::default();
    h.bytes(fullscale::render(r).as_bytes());
    h.finish()
}

/// Records the analysis could not attribute: malformed requests plus
/// hostnames no classifier rule recognises.
fn unattributed(r: &FullScaleResult) -> u64 {
    r.global.shapes.malformed + r.global.providers.unknown
}

fn checks(r: &FullScaleResult, planned: u64, failures: &mut Vec<String>) {
    if r.total_records != planned {
        failures
            .push(format!("streamed {} records, chunk plans promise {planned}", r.total_records));
    }
    let accuracy = r.global.shapes.accuracy();
    if accuracy != 1.0 {
        failures.push(format!("shape-vs-truth accuracy {accuracy} != 1.0"));
    }
}

fn notes(r: &FullScaleResult) -> Vec<Note> {
    vec![
        Note { name: "records", value: r.total_records as f64 },
        Note { name: "chunks", value: r.servers.iter().map(|s| s.chunks).sum::<u64>() as f64 },
        Note { name: "peak_chunk_bytes", value: r.peak_chunk_bytes as f64 },
        Note { name: "accumulator_bytes", value: r.accumulator_bytes as f64 },
        Note { name: "sntp_share", value: r.global.shapes.sntp_request_share() },
        Note { name: "unattributed", value: unattributed(r) as f64 },
    ]
}

/// Span table of the full-scale replay.
pub const SPANS: &[&str] = &[
    "loganalysis.synth.generate",
    "loganalysis.stream.push",
    "loganalysis.stream.merge",
    "experiments.fullscale.self",
];
const GENERATE: usize = 0;
const PUSH: usize = 1;
const MERGE: usize = 2;
const SELF: usize = 3;

/// Serial traced replay of `run_on`: the same chunk plans, generator,
/// sinks and (server, chunk)-ordered fold, one record at a time.
fn replay_stream(cfg: &FullScaleConfig, seed: u64, tr: &mut Tracer) -> FullScaleResult {
    let scfg = synth_config(cfg);
    let filter = OwdFilter::default();
    let mut global = ChunkSummary::new(cfg.k);
    let mut rows = Vec::with_capacity(SERVERS.len());
    let mut peak_chunk_bytes = 0usize;
    let mut server_acc_bytes = 0usize;
    tr.lap(SELF);
    for (si, server) in SERVERS.iter().enumerate() {
        let plan = chunk_plan(server, &scfg);
        let mut server_sum = ChunkSummary::new(cfg.k);
        tr.lap(SELF);
        for chunk in 0..plan.chunks {
            let mut s = ChunkSummary::new(cfg.k);
            tr.lap(PUSH);
            stream_chunk(server, si, &scfg, seed, chunk, &mut |r| {
                tr.lap(GENERATE);
                s.push(r, &filter);
                tr.lap(PUSH);
            });
            tr.lap(GENERATE);
            peak_chunk_bytes = peak_chunk_bytes.max(s.state_bytes());
            server_sum.merge_adjacent(&s);
            tr.lap(MERGE);
        }
        rows.push(ServerRow {
            id: server.id,
            clients: u64::from(plan.n_clients),
            records: server_sum.records,
            chunks: plan.chunks,
            sntp_share: server_sum.shapes.sntp_request_share(),
            owd_kept: server_sum.owd_kept,
        });
        server_acc_bytes = server_acc_bytes.max(server_sum.state_bytes());
        tr.lap(SELF);
        global.merge_union(&server_sum);
        tr.lap(MERGE);
    }
    let total_records = rows.iter().map(|r| r.records).sum();
    let total_clients = rows.iter().map(|r| r.clients).sum();
    let r = FullScaleResult {
        cfg: cfg.clone(),
        servers: rows,
        total_records,
        total_clients,
        peak_chunk_bytes,
        accumulator_bytes: server_acc_bytes + global.state_bytes(),
        global,
    };
    tr.lap(SELF);
    r
}

impl Workload for FullscaleSpec {
    type World = Regime;
    const SPANS: &'static [&'static str] = SPANS;

    fn setup(&self, seed: u64) -> Regime {
        let scfg = synth_config(&self.cfg);
        let planned_records = SERVERS.iter().map(|s| chunk_plan(s, &scfg).total_records).sum();
        Regime { cfg: self.cfg.clone(), seed, planned_records }
    }

    fn run(&self, w: Regime) -> Rep {
        let par = Pool::with_jobs(WORKERS);
        let t0 = Instant::now();
        let r = fullscale::run_on(&par, w.seed, &w.cfg);
        let run_s = t0.elapsed().as_secs_f64();
        let mut failures = Vec::new();
        checks(&r, w.planned_records, &mut failures);
        Rep {
            run_s,
            units: r.total_records,
            steps_ms: vec![run_s * 1e3],
            digest: render_digest(&r),
            failures,
            failed_share: unattributed(&r) as f64 / r.total_records.max(1) as f64,
            notes: notes(&r),
        }
    }

    fn replay(&self, w: Regime, tr: &mut Tracer) -> Replay {
        let r = replay_stream(&w.cfg, w.seed, tr);
        let mut failures = Vec::new();
        checks(&r, w.planned_records, &mut failures);
        let replay = Replay {
            digest: render_digest(&r),
            derived: Vec::new(),
            notes: notes(&r),
            failures,
            units: r.total_records,
        };
        tr.lap(SELF);
        replay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_renders_byte_identically_at_scale_20000() {
        let cfg = FullScaleConfig { scale: 20_000, chunk_records: 1 << 12, k: 64 };
        let expect = fullscale::render(&fullscale::run_on(&Pool::with_jobs(2), 2016, &cfg));
        let got = fullscale::render(&replay_stream(&cfg, 2016, &mut Tracer::new(SPANS)));
        assert_eq!(got, expect);
    }

    #[test]
    fn timed_run_passes_its_checks() {
        let spec =
            FullscaleSpec { cfg: FullScaleConfig { scale: 20_000, chunk_records: 1 << 12, k: 64 } };
        let rep = spec.run(spec.setup(7));
        assert!(rep.failures.is_empty(), "{:?}", rep.failures);
        assert!(rep.units > 0);
    }
}
