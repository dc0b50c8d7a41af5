//! End-to-end benchmark of the four heavy pipelines of the MNTP
//! reproduction: the mixed-stack fleet, the chaos fleet, the batched
//! server core, and the full-scale log stream.
//!
//! Every workload is timed through public calls into the workspace
//! crates only. A workload is measured in repetitions; each repetition
//! builds its inputs from the seed (the *set-up*, timed on its own) and
//! then runs the pipeline once (the *timed region*). A separate traced
//! replay, rebuilt from the same public calls with a span recorder
//! around each layer call, attributes the time to layers (see
//! [`trace`]).

pub mod fleet;
pub mod fullscale;
pub mod servercore;
pub mod stats;
pub mod trace;

use std::time::Instant;

use trace::Tracer;

/// Set-up samples per measurement.
const SETUP_SAMPLES: usize = 5;

/// A set-up sample repeats the set-up until this much time has passed
/// and reports the mean: a microsecond set-up is not timed at the
/// clock's resolution, and a millisecond one averages out page faults.
const SETUP_SAMPLE_MIN_S: f64 = 0.05;

/// Worker threads for the timed regions. The calibration box has two
/// vCPUs on a shared host, where the second vCPU's availability swings
/// two-worker times by 10–25 % from run to run; one worker repeats
/// within about 5 %, which is what a gate needs.
pub const WORKERS: usize = 1;

/// One pipeline the benchmark can drive.
pub trait Workload {
    /// Everything one repetition needs, built before the timed region.
    type World;

    /// Span table of the traced replay.
    const SPANS: &'static [&'static str];

    /// Build one repetition's inputs from `seed`.
    fn setup(&self, seed: u64) -> Self::World;

    /// Run the pipeline once on `world` with [`WORKERS`] workers.
    fn run(&self, world: Self::World) -> Rep;

    /// Run the pipeline once on `world` with the worker counts the
    /// replay uses, without spans or replay-only work. Returns the output
    /// digest and the seconds spent in pipeline calls. The default is one
    /// timed repetition.
    fn untraced(&self, world: Self::World) -> (u64, f64) {
        let rep = self.run(world);
        (rep.digest, rep.run_s)
    }

    /// Replay the pipeline on `world` from the same public calls, one
    /// layer call at a time, lapping `tr` after every call.
    fn replay(&self, world: Self::World, tr: &mut Tracer) -> Replay;
}

/// What a traced replay computed.
#[derive(Clone, Debug)]
pub struct Replay {
    /// Output digest; must equal the untraced run's.
    pub digest: u64,
    /// Ratios derived from the spans (such as the share of the serial
    /// engine's time that stage 1 takes), by per-layer metric name.
    pub derived: Vec<Note>,
    /// Counters of the replayed run.
    pub notes: Vec<Note>,
    /// Failed checks.
    pub failures: Vec<String>,
    /// Work units the replay processed.
    pub units: u64,
}

/// A named count or ratio a workload reports alongside its timings.
#[derive(Clone, Debug)]
pub struct Note {
    /// Name, `snake_case`.
    pub name: &'static str,
    /// Value.
    pub value: f64,
}

/// What one timed repetition produced.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Seconds spent in the pipeline calls (the timed region).
    pub run_s: f64,
    /// Work units the pipeline processed (client-ticks, datagrams,
    /// records).
    pub units: u64,
    /// Per-step latencies, milliseconds (epoch ticks, server batches,
    /// whole reports).
    pub steps_ms: Vec<f64>,
    /// Digest of the pipeline's output; equal seeds must give equal
    /// digests.
    pub digest: u64,
    /// Correctness checks that failed, by description.
    pub failures: Vec<String>,
    /// Share of the simulated operations the simulated system failed or
    /// refused (a property of the workload, not of the benchmark).
    pub failed_share: f64,
    /// Counters worth printing.
    pub notes: Vec<Note>,
}

/// A measurement: set-up samples plus every repetition.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Set-up time samples, seconds per set-up.
    pub setup_s: Vec<f64>,
    /// The repetitions, in order.
    pub reps: Vec<Rep>,
    /// Failed checks across the whole measurement (including the
    /// cross-repetition digest check).
    pub failures: Vec<String>,
}

/// One set-up sample: seconds per set-up of `w` at `seed`.
fn setup_sample<W: Workload>(w: &W, seed: u64) -> f64 {
    let mut k = 1u32;
    loop {
        let t0 = Instant::now();
        for _ in 0..k {
            std::hint::black_box(w.setup(seed));
        }
        let dt = t0.elapsed().as_secs_f64();
        if dt >= SETUP_SAMPLE_MIN_S || k >= 1 << 20 {
            return dt / f64::from(k);
        }
        k *= 2;
    }
}

/// Time set-up `SETUP_SAMPLES` times, then run `reps` timed
/// repetitions of `w` at `seed`, each on a freshly built world.
pub fn measure<W: Workload>(w: &W, seed: u64, reps: usize) -> Measurement {
    let setup_s: Vec<f64> = (0..SETUP_SAMPLES).map(|_| setup_sample(w, seed)).collect();
    let out: Vec<Rep> = (0..reps.max(1)).map(|_| w.run(w.setup(seed))).collect();
    let mut failures: Vec<String> = out.iter().flat_map(|r| r.failures.clone()).collect();
    if out.windows(2).any(|p| p[0].digest != p[1].digest) {
        failures.push("output digest differs between repetitions of one seed".into());
    }
    Measurement { setup_s, reps: out, failures }
}

/// A traced replay and the untraced runs it is checked against.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Self time and calls per span, in the workload's table order.
    pub spans: Vec<trace::SpanRow>,
    /// Wall time of the traced replay, seconds (benchmark-owned work
    /// such as traffic generation excluded).
    pub traced_s: f64,
    /// Mean time of the two untraced runs, seconds.
    pub untraced_s: f64,
    /// Whether the replay's output digest equals both untraced runs'.
    pub digest_match: bool,
    /// What the replay computed; its failures include digest mismatches.
    pub replay: Replay,
}

/// Trace `w` at `seed`: the replay, between two untraced runs whose
/// mean is the overhead reference (one before and one after, so a
/// warming cache or a drifting host does not bias the ratio) and whose
/// digests the replay must match.
pub fn profile<W: Workload>(w: &W, seed: u64) -> Trace {
    let (before, before_s) = w.untraced(w.setup(seed));
    let world = w.setup(seed);
    let mut tr = Tracer::new(W::SPANS);
    let mut replay = w.replay(world, &mut tr);
    let traced_s = tr.total_s();
    let (after, after_s) = w.untraced(w.setup(seed));
    let digest_match = replay.digest == before && replay.digest == after;
    if !digest_match {
        replay.failures.push(format!(
            "traced replay digest {:#x} != untraced {before:#x} / {after:#x}",
            replay.digest
        ));
    }
    Trace {
        spans: tr.rows(),
        traced_s,
        untraced_s: (before_s + after_s) / 2.0,
        digest_match,
        replay,
    }
}

impl Trace {
    /// Share of the replay's wall time charged to named spans.
    pub fn coverage(&self) -> f64 {
        let charged: f64 = self.spans.iter().map(|s| s.self_s).sum();
        if self.traced_s > 0.0 {
            charged / self.traced_s
        } else {
            0.0
        }
    }
}

/// FNV-1a folded over 64-bit words: cheap enough to digest every reply
/// slot of a multi-million-datagram run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold one word.
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Fold a byte string, eight bytes at a time, then its length.
    pub fn bytes(&mut self, b: &[u8]) {
        let mut chunks = b.chunks_exact(8);
        for c in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            self.word(u64::from_le_bytes(w));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.word(u64::from_le_bytes(tail));
        self.word(b.len() as u64);
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process so far, MB (`VmHWM`), or 0
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
