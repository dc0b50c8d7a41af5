//! Request inter-arrival analysis (the paper's Figures 11/12 angle).
//!
//! The paper's server-log study looks at the arrival process from two
//! sides: how often *one* client comes back (its effective poll
//! interval, which SNTP stacks pin to rigid periods) and how the
//! *aggregate* arrival stream at the server behaves (herding: rigid
//! periods synchronize across clients and produce bursts at second
//! boundaries, visible as a heavy sub-millisecond mode in the global
//! inter-arrival distribution). Both views run off the same
//! [`ServerLog`], whether it came from the synthetic Table 1 generator
//! or from a simulated fleet.
//!
//! [`global_interarrival`] and [`per_client_interarrival`] are exact:
//! they sort a whole log's arrival times and summarize every gap. The
//! streaming form is [`GapSketch`]: arrivals push in time order,
//! time-adjacent shards stitch their boundary gap on merge, and gaps
//! feed a [`QuantileSketch`] plus exact mean and sub-ms counters, for
//! the full-scale regime where holding 209M gaps is the thing streaming
//! exists to avoid.

use std::collections::BTreeMap;

use devtools::sketch::{percentile_nearest_rank, QuantileSketch};

use crate::synth::ServerLog;

/// Distribution summary of one inter-arrival data set, milliseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InterarrivalSummary {
    /// Number of gaps measured.
    pub gaps: u64,
    /// Mean gap, ms.
    pub mean_ms: f64,
    /// Median gap, ms.
    pub p50_ms: f64,
    /// 90th percentile, ms.
    pub p90_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
    /// Fraction of gaps under 1 ms — the herding signature in the
    /// global view (back-to-back requests inside one burst).
    pub sub_ms_share: f64,
}

fn summarize(mut gaps_ms: Vec<f64>) -> Option<InterarrivalSummary> {
    if gaps_ms.is_empty() {
        return None;
    }
    gaps_ms.sort_by(f64::total_cmp);
    let n = gaps_ms.len();
    let sum: f64 = gaps_ms.iter().sum();
    let sub_ms = gaps_ms.iter().filter(|g| **g < 1.0).count();
    Some(InterarrivalSummary {
        gaps: n as u64,
        mean_ms: sum / n as f64,
        p50_ms: percentile_nearest_rank(&gaps_ms, 0.50),
        p90_ms: percentile_nearest_rank(&gaps_ms, 0.90),
        p99_ms: percentile_nearest_rank(&gaps_ms, 0.99),
        sub_ms_share: sub_ms as f64 / n as f64,
    })
}

/// Consecutive gaps of an ascending time series, seconds in, ms out.
fn consecutive_gaps_ms(sorted_secs: &[f64]) -> impl Iterator<Item = f64> + '_ {
    sorted_secs.iter().zip(sorted_secs.iter().skip(1)).map(|(a, b)| (b - a) * 1e3)
}

/// Constant-memory gap summary over a time-ordered arrival stream: gaps
/// feed a [`QuantileSketch`] instead of a vector. Mean, count, and the
/// sub-ms share stay exact; percentiles carry the sketch's rank-error
/// bound. Shards covering adjacent time ranges stitch the gap spanning
/// their boundary on [`merge_adjacent`](GapSketch::merge_adjacent), so
/// any chunking of one server's stream sees the same gap count.
#[derive(Clone, Debug)]
pub struct GapSketch {
    sketch: QuantileSketch,
    sub_ms: u64,
    first_at: Option<f64>,
    last_at: Option<f64>,
}

impl Default for GapSketch {
    fn default() -> Self {
        GapSketch::new(devtools::sketch::DEFAULT_K)
    }
}

impl GapSketch {
    /// Empty sketch with accuracy parameter `k` (see [`QuantileSketch`]).
    pub fn new(k: usize) -> GapSketch {
        GapSketch { sketch: QuantileSketch::new(k), sub_ms: 0, first_at: None, last_at: None }
    }

    fn push_gap(&mut self, gap_ms: f64) {
        if gap_ms < 1.0 {
            self.sub_ms += 1;
        }
        self.sketch.push(gap_ms);
    }

    /// Record one arrival (non-decreasing time order).
    pub fn push_arrival(&mut self, at_secs: f64) {
        if let Some(prev) = self.last_at {
            self.push_gap((at_secs - prev) * 1e3);
        } else {
            self.first_at = Some(at_secs);
        }
        self.last_at = Some(at_secs);
    }

    /// Fold in the shard covering the time range immediately after this
    /// one, stitching the boundary gap (same-server chunk merge).
    pub fn merge_adjacent(&mut self, other: &GapSketch) {
        if let (Some(prev), Some(next)) = (self.last_at, other.first_at) {
            self.push_gap((next - prev) * 1e3);
        }
        self.sketch.merge(&other.sketch);
        self.sub_ms += other.sub_ms;
        if self.first_at.is_none() {
            self.first_at = other.first_at;
        }
        if other.last_at.is_some() {
            self.last_at = other.last_at;
        }
    }

    /// Fold in a shard from an unrelated stream (another server): gap
    /// populations pool, no boundary gap is synthesized.
    pub fn merge_union(&mut self, other: &GapSketch) {
        self.sketch.merge(&other.sketch);
        self.sub_ms += other.sub_ms;
    }

    /// Number of gaps absorbed.
    pub fn gaps(&self) -> u64 {
        self.sketch.count()
    }

    /// Bytes of state held (the constant-memory claim, measurable).
    pub fn state_bytes(&self) -> usize {
        self.sketch.state_bytes()
    }

    /// Distribution summary with sketched percentiles; `None` when no
    /// gap was observed.
    pub fn finish(&self) -> Option<InterarrivalSummary> {
        let n = self.sketch.count();
        if n == 0 {
            return None;
        }
        Some(InterarrivalSummary {
            gaps: n,
            mean_ms: self.sketch.mean(),
            p50_ms: self.sketch.query(0.50),
            p90_ms: self.sketch.query(0.90),
            p99_ms: self.sketch.query(0.99),
            sub_ms_share: self.sub_ms as f64 / n as f64,
        })
    }
}

/// Gaps between consecutive requests at the server, across all clients.
/// `None` for logs with fewer than two records.
pub fn global_interarrival(log: &ServerLog) -> Option<InterarrivalSummary> {
    let mut times: Vec<f64> = log.records.iter().map(|r| r.received_at_secs).collect();
    times.sort_by(f64::total_cmp);
    summarize(consecutive_gaps_ms(&times).collect())
}

/// Gaps between consecutive requests of the *same* client — the
/// client's effective poll interval as the server observes it. `None`
/// when no client appears twice.
pub fn per_client_interarrival(log: &ServerLog) -> Option<InterarrivalSummary> {
    let mut per_client: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for r in &log.records {
        per_client.entry(r.client_id).or_default().push(r.received_at_secs);
    }
    let mut gaps = Vec::new();
    for times in per_client.values_mut() {
        times.sort_by(f64::total_cmp);
        gaps.extend(consecutive_gaps_ms(times));
    }
    summarize(gaps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate_server_log, SynthConfig};

    fn sample_log() -> ServerLog {
        generate_server_log(&crate::model::SERVERS[0], &SynthConfig::default(), 99)
    }

    #[test]
    fn global_gaps_are_denser_than_per_client_gaps() {
        let log = sample_log();
        let global = global_interarrival(&log).expect("log has records");
        let per_client = per_client_interarrival(&log).expect("clients repeat");
        // Many clients interleave at the server: the aggregate stream is
        // strictly busier than any single client's poll cadence.
        assert!(global.mean_ms < per_client.mean_ms);
        assert!(global.p50_ms <= per_client.p50_ms);
    }

    #[test]
    fn empty_log_yields_none() {
        let mut log = sample_log();
        log.records.clear();
        assert!(global_interarrival(&log).is_none());
        assert!(per_client_interarrival(&log).is_none());
    }

    #[test]
    fn percentiles_are_ordered() {
        let log = sample_log();
        let s = global_interarrival(&log).expect("records");
        assert!(s.p50_ms <= s.p90_ms && s.p90_ms <= s.p99_ms);
        assert!(s.sub_ms_share >= 0.0 && s.sub_ms_share <= 1.0);
    }

    #[test]
    fn gap_sketch_tracks_the_exact_summary() {
        let log = sample_log();
        let mut times: Vec<f64> = log.records.iter().map(|r| r.received_at_secs).collect();
        times.sort_by(f64::total_cmp);
        let exact = global_interarrival(&log).expect("records");
        let mut sk = GapSketch::default();
        for &t in &times {
            sk.push_arrival(t);
        }
        let approx = sk.finish().expect("gaps");
        // Count, mean, and sub-ms share are exact; percentiles carry
        // the rank-error bound, checked by rank (values can differ
        // within the epsilon band of the sorted gap array).
        assert_eq!(approx.gaps, exact.gaps);
        assert!((approx.mean_ms - exact.mean_ms).abs() < 1e-9);
        assert!((approx.sub_ms_share - exact.sub_ms_share).abs() < 1e-12);
        let mut gaps: Vec<f64> = consecutive_gaps_ms(&times).collect();
        gaps.sort_by(f64::total_cmp);
        let eps = sk.sketch.rank_error_bound() + 1.0 / gaps.len() as f64;
        for (q, got) in [(0.5, approx.p50_ms), (0.9, approx.p90_ms), (0.99, approx.p99_ms)] {
            let lo = gaps.partition_point(|&g| g < got) as f64 / gaps.len() as f64;
            let hi = gaps.partition_point(|&g| g <= got) as f64 / gaps.len() as f64;
            let dist = if q < lo { lo - q } else if q > hi { q - hi } else { 0.0 };
            assert!(dist <= eps, "q={q} got={got} rank band [{lo},{hi}] eps={eps}");
        }
    }

    #[test]
    fn gap_sketch_chunk_merge_is_deterministic() {
        let log = sample_log();
        let mut times: Vec<f64> = log.records.iter().map(|r| r.received_at_secs).collect();
        times.sort_by(f64::total_cmp);
        // One pass vs 8 stitched chunks: the merged sketch must emit the
        // exact same digits as any other chunking folded in order.
        let fold = |n_chunks: usize| {
            let mut merged = GapSketch::default();
            for chunk in times.chunks(times.len().div_ceil(n_chunks)) {
                let mut shard = GapSketch::default();
                for &t in chunk {
                    shard.push_arrival(t);
                }
                merged.merge_adjacent(&shard);
            }
            let s = merged.finish().expect("gaps");
            format!("{:?}", s)
        };
        // Different chunkings change which gaps are sketched at which
        // level, so only identical chunkings are bit-identical; the
        // fullscale pipeline fixes chunk boundaries in config for
        // exactly this reason. Same chunking must be reproducible:
        assert_eq!(fold(8), fold(8));
        assert_eq!(fold(1), fold(1));
    }
}
