//! `servercore-ingest`: open-loop server traffic replayed through the
//! batched `sntp::server_core::ServerCore` as fast as it drains.
//!
//! The traffic has the `experiments::servercore` shape — a Poisson
//! compliant load, an abusive subpopulation polling every 2 s, a herd
//! re-polling every 32 s, malformed datagrams and ntpd-shaped requests —
//! at 400k clients, so the engine's rate table holds a working set that
//! does not fit in cache. The benchmark owns the generator (the
//! experiment's is private) and fills each 4096-slot batch outside the
//! timed region; only `process_batch` calls are timed. This is a
//! saturation test: it measures service time, not queueing delay. A step
//! is one simulated second of traffic.
//!
//! Every batch also goes through an 8-shard engine, outside the timed
//! region, whose replies and fates must equal the serial engine's. The
//! traced run times that engine on two workers against the serial one.

use std::time::Instant;

use clocksim::rng::SimRng;
use clocksim::time::{SimDuration, SimTime};
use devtools::par::Pool;
use experiments::servercore::TrafficConfig;
use ntp_wire::{refid::RefId, sntp_profile, NtpDuration, NtpPacket, PACKET_LEN};
use sntp::server_core::{CoreConfig, CoreStats, ReplyRing, RequestRing, ServerCore};

use crate::trace::Tracer;
use crate::{Fnv, Note, Rep, Replay, Workload, WORKERS};

/// Shards of the scaled engine (the experiment's value).
const SHARDS: usize = 8;

/// Workers of the sharded engine in the traced run, where its time is
/// compared with the serial engine's: both vCPUs of the calibration box.
/// The timed runs keep it on one worker, because its threads running
/// between timed batches make the serial engine's times noisier.
const SHARDED_TRACE_WORKERS: usize = 2;

/// The `servercore-ingest` workload.
#[derive(Clone, Copy, Debug)]
pub struct ServercoreSpec {
    /// Traffic shape.
    pub traffic: TrafficConfig,
}

impl ServercoreSpec {
    /// 400k clients for 600 s: about 5.6 M datagrams in 1,376 batches.
    pub const INGEST: ServercoreSpec = ServercoreSpec {
        traffic: TrafficConfig {
            clients: 400_000,
            abusive_per_mille: 10,
            duration_secs: 600,
            mean_poll_secs: 64.0,
            abusive_poll_secs: 2.0,
            herd_period_secs: 32,
            herd_fraction: 0.10,
            malformed_per_mille: 5,
            ntpd_per_mille: 200,
            batch: 4096,
        },
    };
}

/// Poisson sample: Knuth's product method below a mean of 30, a rounded
/// normal approximation above.
fn poisson(rng: &mut SimRng, mean: f64) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    if mean < 30.0 {
        let limit = (-mean).exp();
        let mut product = rng.uniform();
        let mut count = 0u64;
        while product > limit {
            product *= rng.uniform();
            count += 1;
        }
        count
    } else {
        (mean + mean.sqrt() * rng.gauss()).round().max(0.0) as u64
    }
}

/// One datagram before serialization.
struct Draft {
    offset_ns: i64,
    seq: u32,
    client: u64,
    shape: u32,
}

/// Write a datagram of `shape` stamped at `at` into `buf`; returns its
/// length. Shapes: 0 truncated garbage, 1 all-zero (version 0), 2 an
/// ntpd-style poller, otherwise an RFC 4330 SNTP request.
fn wire(shape: u32, at: SimTime, buf: &mut [u8; PACKET_LEN]) -> usize {
    let tx = at.to_ntp();
    match shape {
        0 => {
            buf[..17].fill(0xA5);
            17
        }
        1 => {
            buf.fill(0);
            PACKET_LEN
        }
        2 => {
            NtpPacket { poll: 6, precision: -20, ..sntp_profile::client_request(tx) }
                .write_bytes(buf);
            PACKET_LEN
        }
        _ => {
            sntp_profile::client_request(tx).write_bytes(buf);
            PACKET_LEN
        }
    }
}

fn draw_shape(rng: &mut SimRng, cfg: &TrafficConfig) -> u32 {
    if rng.below(1000) < u64::from(cfg.malformed_per_mille) {
        if rng.chance(0.5) {
            0
        } else {
            1
        }
    } else if rng.below(1000) < u64::from(cfg.ntpd_per_mille) {
        2
    } else {
        3
    }
}

/// Seed-deterministic arrival schedule, produced one second at a time
/// and handed out batch by batch.
struct Traffic {
    cfg: TrafficConfig,
    rng: SimRng,
    second: u64,
    drafts: Vec<Draft>,
    next: usize,
    /// Datagrams handed out so far.
    datagrams: u64,
}

impl Traffic {
    /// The schedule for `cfg` under `seed`.
    fn new(cfg: TrafficConfig, seed: u64) -> Traffic {
        Traffic {
            cfg,
            rng: SimRng::new(seed ^ 0x5EC0_4E00),
            second: 0,
            drafts: Vec::new(),
            next: 0,
            datagrams: 0,
        }
    }

    fn generate_second(&mut self) {
        let cfg = self.cfg;
        let rng = &mut self.rng;
        let abusive = cfg.clients * cfg.abusive_per_mille as usize / 1000;
        let compliant = cfg.clients - abusive;
        self.drafts.clear();
        self.next = 0;
        let mut seq = 0u32;
        let mut push = |drafts: &mut Vec<Draft>, rng: &mut SimRng, offset_ns: i64, client: u64| {
            drafts.push(Draft { offset_ns, seq, client, shape: draw_shape(rng, &cfg) });
            seq += 1;
        };
        for _ in 0..poisson(rng, compliant as f64 / cfg.mean_poll_secs) {
            let client = rng.below(compliant.max(1) as u64);
            let offset = rng.below(1_000_000_000) as i64;
            push(&mut self.drafts, rng, offset, client);
        }
        for _ in 0..poisson(rng, abusive as f64 / cfg.abusive_poll_secs) {
            let client = compliant as u64 + rng.below(abusive.max(1) as u64);
            let offset = rng.below(1_000_000_000) as i64;
            push(&mut self.drafts, rng, offset, client);
        }
        if self.second > 0 && self.second.is_multiple_of(cfg.herd_period_secs) {
            for _ in 0..(cfg.clients as f64 * cfg.herd_fraction) as u64 {
                let client = rng.below(cfg.clients.max(1) as u64);
                let offset = (rng.exponential(30e6) as i64).clamp(0, 999_999_999);
                push(&mut self.drafts, rng, offset, client);
            }
        }
        self.drafts.sort_by_key(|d| (d.offset_ns, d.seq));
    }

    /// Refill `ring` with the next batch. Returns false, with the ring
    /// empty, once the schedule is exhausted.
    fn fill(&mut self, ring: &mut RequestRing) -> bool {
        ring.clear();
        let mut buf = [0u8; PACKET_LEN];
        loop {
            while let Some(d) = self.drafts.get(self.next) {
                let at = SimTime::from_secs(self.second as i64 - 1) + SimDuration(d.offset_ns);
                let len = wire(d.shape, at, &mut buf);
                if !ring.push(d.client, at, &buf[..len]) {
                    return true;
                }
                self.next += 1;
                self.datagrams += 1;
            }
            if self.second >= self.cfg.duration_secs {
                return !ring.is_empty();
            }
            self.generate_second();
            self.second += 1;
        }
    }
}

fn core_config(traffic: &TrafficConfig, shards: usize) -> CoreConfig {
    CoreConfig {
        stratum: 2,
        refid: RefId::ipv4(192, 0, 2, 1),
        clock_error: NtpDuration::from_millis(3),
        min_poll_interval: Some(SimDuration::from_secs(4)),
        table_capacity: traffic.clients.max(16),
        shards,
        ..CoreConfig::default()
    }
}

/// Everything one repetition needs: both engines, the rings and the
/// schedule.
pub struct Ingest {
    serial: ServerCore,
    sharded: ServerCore,
    reqs: RequestRing,
    out_serial: ReplyRing,
    out_sharded: ReplyRing,
    traffic: Traffic,
}

fn build(spec: &ServercoreSpec, seed: u64) -> Ingest {
    let t = &spec.traffic;
    Ingest {
        serial: ServerCore::new(core_config(t, 1)),
        sharded: ServerCore::new(core_config(t, SHARDS)),
        reqs: RequestRing::with_capacity(t.batch),
        out_serial: ReplyRing::new(),
        out_sharded: ReplyRing::new(),
        traffic: Traffic::new(*t, seed),
    }
}

/// Running digest of a reply stream and its fates.
fn fold_replies(h: &mut Fnv, out: &ReplyRing) {
    h.bytes(out.as_bytes());
    for f in out.fates() {
        h.word(*f as u64);
    }
}

fn stats_word(h: &mut Fnv, s: &CoreStats, tracked: usize) {
    for w in [s.served, s.kod, s.malformed, s.sntp_shaped, s.other_shaped, s.shed, s.restarts] {
        h.word(w);
    }
    h.word(tracked as u64);
}

fn notes(s: &CoreStats, tracked: usize, datagrams: u64, batches: u64) -> Vec<Note> {
    vec![
        Note { name: "datagrams", value: datagrams as f64 },
        Note { name: "batches", value: batches as f64 },
        Note { name: "served", value: s.served as f64 },
        Note { name: "kod", value: s.kod as f64 },
        Note { name: "malformed", value: s.malformed as f64 },
        Note { name: "shed", value: s.shed as f64 },
        Note { name: "sntp_shaped", value: s.sntp_shaped as f64 },
        Note { name: "other_shaped", value: s.other_shaped as f64 },
        Note { name: "clients_tracked", value: tracked as f64 },
    ]
}

/// End-of-run checks shared by the timed and traced runs.
fn final_checks(w: &Ingest, mismatched: u64, failures: &mut Vec<String>) {
    if mismatched > 0 {
        failures.push(format!("{mismatched} batches: sharded replies or fates != serial"));
    }
    if w.serial.stats() != w.sharded.stats() {
        failures.push("sharded engine stats != serial engine stats".into());
    }
    if w.serial.stats().total() != w.traffic.datagrams {
        failures.push(format!(
            "CoreStats::total() {} != {} datagrams",
            w.serial.stats().total(),
            w.traffic.datagrams
        ));
    }
}

/// The replies' digest plus the end-of-run stats.
fn finish_digest(mut h: Fnv, w: &Ingest) -> u64 {
    stats_word(&mut h, w.serial.stats(), w.serial.clients_tracked());
    h.finish()
}

/// Span table of the server-core replay.
pub const SPANS: &[&str] = &[
    "sntp.server_core.process",
    "sntp.server_core.process_on",
    "sntp.server_core.classify",
    "experiments.servercore.self",
];
const PROCESS: usize = 0;
const PROCESS_ON: usize = 1;
const CLASSIFY: usize = 2;
const SELF: usize = 3;

/// Ratios to the serial engine's time: stage 1 (parse and classify)
/// alone, whose complement is the rate-limit and emit stages; and the
/// 8-shard engine on two workers, which is below 1 only when the fan-out
/// pays for routing, thread hand-off and the merge.
pub const DERIVED: &[&str] = &["sntp.server_core.classify_ratio", "sntp.server_core.sharded_ratio"];

impl Workload for ServercoreSpec {
    type World = Ingest;
    const SPANS: &'static [&'static str] = SPANS;

    fn setup(&self, seed: u64) -> Ingest {
        build(self, seed)
    }

    /// A step is one simulated second of traffic: the serial engine's
    /// time for the batches that open in that second. A single 0.3 ms
    /// batch is too short to time through host interrupts; a second
    /// averages over two to a dozen of them, and the herd seconds make
    /// the tail.
    fn run(&self, mut w: Ingest) -> Rep {
        let par = Pool::with_jobs(WORKERS);
        let mut h = Fnv::default();
        let mut per_second = vec![0.0f64; w.traffic.cfg.duration_secs as usize];
        let mut run_s = 0.0;
        let mut batches = 0u64;
        let mut mismatched = 0u64;
        while w.traffic.fill(&mut w.reqs) {
            let opens = w.reqs.meta().first().map_or(0, |m| m.arrival.as_secs_f64() as usize);
            let t0 = Instant::now();
            w.serial.process_batch(&w.reqs, &mut w.out_serial);
            let dt = t0.elapsed().as_secs_f64();
            run_s += dt;
            batches += 1;
            if let Some(slot) = per_second.get_mut(opens) {
                *slot += dt;
            }
            w.sharded.process_batch_on(&w.reqs, &mut w.out_sharded, &par);
            if w.out_serial.as_bytes() != w.out_sharded.as_bytes()
                || w.out_serial.fates() != w.out_sharded.fates()
            {
                mismatched += 1;
            }
            fold_replies(&mut h, &w.out_serial);
        }
        let mut failures = Vec::new();
        final_checks(&w, mismatched, &mut failures);
        let s = *w.serial.stats();
        Rep {
            run_s,
            units: w.traffic.datagrams,
            steps_ms: per_second.iter().filter(|&&t| t > 0.0).map(|t| t * 1e3).collect(),
            digest: finish_digest(h, &w),
            failures,
            failed_share: s.shed as f64 / (s.served + s.kod + s.shed).max(1) as f64,
            notes: notes(&s, w.serial.clients_tracked(), w.traffic.datagrams, batches),
        }
    }

    /// The same engine calls as the replay, without its extra stage-1
    /// pass and its laps.
    fn untraced(&self, mut w: Ingest) -> (u64, f64) {
        let par = Pool::with_jobs(SHARDED_TRACE_WORKERS);
        let mut h = Fnv::default();
        let mut secs = 0.0;
        while w.traffic.fill(&mut w.reqs) {
            let t0 = Instant::now();
            w.serial.process_batch(&w.reqs, &mut w.out_serial);
            w.sharded.process_batch_on(&w.reqs, &mut w.out_sharded, &par);
            secs += t0.elapsed().as_secs_f64();
            fold_replies(&mut h, &w.out_serial);
        }
        (finish_digest(h, &w), secs)
    }

    /// Stage 1 alone runs after the end-to-end calls on each batch, so it
    /// does not warm their caches.
    fn replay(&self, mut w: Ingest, tr: &mut Tracer) -> Replay {
        let par = Pool::with_jobs(SHARDED_TRACE_WORKERS);
        let mut h = Fnv::default();
        let mut mismatched = 0u64;
        let mut batches = 0u64;
        loop {
            tr.lap(SELF);
            let more = w.traffic.fill(&mut w.reqs);
            tr.skip();
            if !more {
                break;
            }
            w.serial.process_batch(&w.reqs, &mut w.out_serial);
            tr.lap(PROCESS);
            w.sharded.process_batch_on(&w.reqs, &mut w.out_sharded, &par);
            tr.lap(PROCESS_ON);
            w.serial.classify_batch(&w.reqs);
            tr.lap(CLASSIFY);
            if w.out_serial.as_bytes() != w.out_sharded.as_bytes()
                || w.out_serial.fates() != w.out_sharded.fates()
            {
                mismatched += 1;
            }
            fold_replies(&mut h, &w.out_serial);
            batches += 1;
        }
        let mut failures = Vec::new();
        final_checks(&w, mismatched, &mut failures);
        let process = tr.span_s(PROCESS);
        let ratio = |x: f64| if process > 0.0 { x / process } else { 0.0 };
        let replay = Replay {
            digest: finish_digest(h, &w),
            derived: vec![
                Note { name: DERIVED[0], value: ratio(tr.span_s(CLASSIFY)) },
                Note { name: DERIVED[1], value: ratio(tr.span_s(PROCESS_ON)) },
            ],
            notes: notes(
                w.serial.stats(),
                w.serial.clients_tracked(),
                w.traffic.datagrams,
                batches,
            ),
            failures,
            units: w.traffic.datagrams,
        };
        tr.lap(SELF);
        replay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServercoreSpec {
        ServercoreSpec {
            traffic: TrafficConfig {
                clients: 400,
                abusive_per_mille: 50,
                duration_secs: 12,
                mean_poll_secs: 8.0,
                abusive_poll_secs: 0.5,
                herd_period_secs: 4,
                herd_fraction: 0.25,
                malformed_per_mille: 30,
                ntpd_per_mille: 200,
                batch: 64,
            },
        }
    }

    #[test]
    fn serial_and_sharded_replies_are_byte_equal() {
        let spec = tiny();
        let rep = spec.run(spec.setup(3));
        assert!(rep.failures.is_empty(), "{:?}", rep.failures);
        assert!(rep.units > 64 && rep.steps_ms.len() > 1);
        let s = |name| rep.notes.iter().find(|n| n.name == name).map_or(0.0, |n| n.value);
        assert!(s("served") > 0.0 && s("kod") > 0.0 && s("malformed") > 0.0);
    }

    #[test]
    fn schedule_matches_the_experiment_generator() {
        // Same shape, seed and batch size as experiments::servercore:
        // the datagram count and fate totals must agree.
        let spec = tiny();
        let r = experiments::servercore::run_traffic_on(&Pool::with_jobs(1), 7, spec.traffic);
        let rep = spec.run(spec.setup(7));
        assert_eq!(rep.units, r.arrivals);
        let s = |name| rep.notes.iter().find(|n| n.name == name).map_or(-1.0, |n| n.value);
        assert_eq!(s("batches"), r.batches as f64);
        assert_eq!(s("served"), r.stats.served as f64);
        assert_eq!(s("kod"), r.stats.kod as f64);
        assert_eq!(s("clients_tracked"), r.clients_tracked as f64);
    }

    #[test]
    fn traced_replay_matches_untraced() {
        let t = crate::profile(&tiny(), 5);
        assert!(t.digest_match && t.replay.failures.is_empty(), "{:?}", t.replay.failures);
    }
}
