//! The streaming seam: one-pass, constant-memory analysis of a record
//! stream.
//!
//! [`ChunkSummary`] bundles every incremental sink the full-scale
//! pipeline needs — protocol shape tally, provider classification
//! tally, filtered per-provider/per-category OWD quantile sketches, and
//! the global inter-arrival gap sketch — behind one
//! `push(&LogRecord)`. A chunk's summary is a pure function of the
//! chunk's records; the whole-regime summary is a *flat fold* of chunk
//! summaries in (server, chunk) order:
//!
//! - chunks of the same server fold with
//!   [`merge_adjacent`](ChunkSummary::merge_adjacent) (time-contiguous:
//!   the boundary inter-arrival gap is stitched), and
//! - servers fold with [`merge_union`](ChunkSummary::merge_union)
//!   (independent arrival streams pool, no cross-server gap).
//!
//! Determinism contract: chunk boundaries are fixed by configuration
//! (`StreamSynthConfig::chunk_records`), never by worker count, and the
//! fold is always the same flat left-to-right order — so any `(shards,
//! jobs)` decomposition that parallelizes chunk *production* yields
//! byte-identical folded results (see `devtools::sketch` for why the
//! sketch merge must not be re-associated).
//!
//! Memory contract: a `ChunkSummary` holds counters and fixed-`k`
//! sketches only — [`state_bytes`](ChunkSummary::state_bytes) grows
//! with `k·log(records/k)`, not with the record count — which is what
//! lets the 209M-record regime run in a few megabytes.

use devtools::sketch::QuantileSketch;

use crate::classify::{HostClass, ProviderTally, CATEGORY_ORDER};
use crate::interarrival::GapSketch;
use crate::model::PROVIDERS;
use crate::owd::{surviving_owd_ms, OwdFilter};
use crate::protocol::ShapeTally;
use crate::synth::LogRecord;

/// Everything the full-scale report needs from a stream of records, in
/// constant memory.
#[derive(Clone, Debug)]
pub struct ChunkSummary {
    /// Records pushed.
    pub records: u64,
    /// Request-level SNTP/NTP shape tally with ground-truth confusion.
    pub shapes: ShapeTally,
    /// Record-level provider/category classification tally.
    pub providers: ProviderTally,
    /// Surviving (post-filter) OWD samples.
    pub owd_kept: u64,
    /// Records whose OWD the filter discarded.
    pub owd_discarded: u64,
    /// Filtered-OWD sketch over all records.
    pub owd_all: QuantileSketch,
    /// Filtered-OWD sketch per provider ([`PROVIDERS`] order).
    pub owd_per_provider: Vec<QuantileSketch>,
    /// Filtered-OWD sketch per keyword-only category
    /// ([`CATEGORY_ORDER`] order).
    pub owd_per_category: Vec<QuantileSketch>,
    /// Global inter-arrival gap sketch.
    pub gaps: GapSketch,
}

impl Default for ChunkSummary {
    fn default() -> Self {
        ChunkSummary::new(devtools::sketch::DEFAULT_K)
    }
}

impl ChunkSummary {
    /// Empty summary with sketch accuracy parameter `k`.
    pub fn new(k: usize) -> ChunkSummary {
        ChunkSummary {
            records: 0,
            shapes: ShapeTally::new(),
            providers: ProviderTally::new(),
            owd_kept: 0,
            owd_discarded: 0,
            owd_all: QuantileSketch::new(k),
            owd_per_provider: (0..PROVIDERS.len()).map(|_| QuantileSketch::new(k)).collect(),
            owd_per_category: (0..CATEGORY_ORDER.len()).map(|_| QuantileSketch::new(k)).collect(),
            gaps: GapSketch::new(k),
        }
    }

    /// Absorb one record. Records must arrive in non-decreasing
    /// `received_at_secs` order (log order) for the gap stream to mean
    /// anything; every other sink is order-insensitive.
    pub fn push(&mut self, record: &LogRecord, filter: &OwdFilter) {
        self.records += 1;
        // One zero-copy parse feeds both the shape tally and the OWD
        // filter — at 209M records the second parse is measurable.
        let view = ntp_wire::NtpPacket::parse_ref(&record.request).ok();
        self.shapes.push(view.as_ref(), record.true_sntp);
        let class = self.providers.push(record);
        self.gaps.push_arrival(record.received_at_secs);
        let owd = view.as_ref().and_then(|p| surviving_owd_ms(p, record.received_at_secs, filter));
        match owd {
            Some(owd) => {
                self.owd_kept += 1;
                self.owd_all.push(owd);
                match class {
                    HostClass::Provider(i) => {
                        if let Some(sk) = self.owd_per_provider.get_mut(i) {
                            sk.push(owd);
                        }
                    }
                    HostClass::CategoryOnly(cat) => {
                        let pos = CATEGORY_ORDER.iter().position(|c| *c == cat);
                        if let Some(sk) = pos.and_then(|p| self.owd_per_category.get_mut(p)) {
                            sk.push(owd);
                        }
                    }
                    HostClass::Unknown => {}
                }
            }
            None => self.owd_discarded += 1,
        }
    }

    fn merge_counters(&mut self, other: &ChunkSummary) {
        self.records += other.records;
        self.shapes.merge(&other.shapes);
        self.providers.merge(&other.providers);
        self.owd_kept += other.owd_kept;
        self.owd_discarded += other.owd_discarded;
        self.owd_all.merge(&other.owd_all);
        for (a, b) in self.owd_per_provider.iter_mut().zip(&other.owd_per_provider) {
            a.merge(b);
        }
        for (a, b) in self.owd_per_category.iter_mut().zip(&other.owd_per_category) {
            a.merge(b);
        }
    }

    /// Fold in the summary of the *next time-contiguous chunk of the
    /// same server*: the inter-arrival gap spanning the chunk boundary
    /// is stitched in.
    pub fn merge_adjacent(&mut self, other: &ChunkSummary) {
        self.merge_counters(other);
        self.gaps.merge_adjacent(&other.gaps);
    }

    /// Fold in the summary of an *independent stream* (another server):
    /// gap populations pool without a synthetic boundary gap.
    pub fn merge_union(&mut self, other: &ChunkSummary) {
        self.merge_counters(other);
        self.gaps.merge_union(&other.gaps);
    }

    /// Bytes of state held — the measurable form of the constant-memory
    /// claim (grows with sketch depth, not record count).
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<ChunkSummary>()
            + self.owd_all.state_bytes()
            + self.owd_per_provider.iter().map(|s| s.state_bytes()).sum::<usize>()
            + self.owd_per_category.iter().map(|s| s.state_bytes()).sum::<usize>()
            + self.gaps.state_bytes()
    }

    /// Filtered-OWD quantile for one provider (index into
    /// [`PROVIDERS`]), `None` when that provider has no surviving
    /// samples.
    pub fn provider_owd_quantile(&self, provider: usize, q: f64) -> Option<f64> {
        let sk = self.owd_per_provider.get(provider)?;
        if sk.is_empty() {
            None
        } else {
            Some(sk.query(q))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interarrival::global_interarrival;
    use crate::model::SERVERS;
    use crate::owd::extract_owds;
    use crate::protocol::classify_clients;
    use crate::synth::{generate_server_log, ServerLog, SynthConfig};

    fn log() -> ServerLog {
        let ag1 = SERVERS.iter().find(|s| s.id == "AG1").unwrap();
        generate_server_log(ag1, &SynthConfig { scale: 10_000, duration_secs: 86_400 }, 7)
    }

    fn summarize_whole(log: &ServerLog) -> ChunkSummary {
        let filter = OwdFilter::default();
        let mut s = ChunkSummary::default();
        for r in &log.records {
            s.push(r, &filter);
        }
        s
    }

    #[test]
    fn composite_counters_agree_with_batch_analyzers() {
        // AG1 over a day, and a dense 10-minute AG1 window: the day-long
        // logs have no sub-ms gaps, this one does. The first four
        // Table 1 servers are held to the same exact statistics in
        // `tests/streaming_equivalence.rs`.
        let dense_cfg = SynthConfig { scale: 1_000, duration_secs: 600 };
        let dense = generate_server_log(&SERVERS[0], &dense_cfg, 7);
        for log in [log(), dense] {
            let id = log.server.id;
            let s = summarize_whole(&log);
            assert_eq!(s.records, log.records.len() as u64);
            assert_eq!(s.shapes.classified(), log.records.len() as u64);
            // Same request stream ⇒ every client voted at least once in
            // the exact per-client classifier.
            let mut ids: Vec<u32> = log.records.iter().map(|r| r.client_id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(classify_clients(&log).len(), ids.len(), "server {id}");
            // OWD accounting adds up, and the filter keeps the same
            // samples as the exact per-client extractor.
            assert_eq!(s.owd_kept + s.owd_discarded, s.records);
            let owds = extract_owds(&log, &OwdFilter::default());
            let kept: usize = owds.values().map(|c| c.samples_ms.len()).sum();
            assert_eq!(s.owd_kept as usize, kept, "server {id}");
            assert_eq!(s.owd_all.count() as usize, kept);
            // n records in time order ⇒ n-1 gaps; count, mean and sub-ms
            // share match the exact inter-arrival summary.
            assert_eq!(s.gaps.gaps(), log.records.len() as u64 - 1);
            let exact = global_interarrival(&log).expect("two or more records");
            let sketched = s.gaps.finish().expect("gaps");
            assert_eq!(exact.gaps, sketched.gaps, "server {id}");
            assert!((exact.mean_ms - sketched.mean_ms).abs() < 1e-6, "server {id}");
            assert!((exact.sub_ms_share - sketched.sub_ms_share).abs() < 1e-12, "server {id}");
        }
    }

    #[test]
    fn chunked_fold_is_byte_identical_to_one_pass() {
        let log = log();
        let filter = OwdFilter::default();
        let fold = |n_chunks: usize| {
            let mut acc: Option<ChunkSummary> = None;
            for chunk in log.records.chunks(log.records.len().div_ceil(n_chunks)) {
                let mut s = ChunkSummary::default();
                for r in chunk {
                    s.push(r, &filter);
                }
                match &mut acc {
                    None => acc = Some(s),
                    Some(a) => a.merge_adjacent(&s),
                }
            }
            acc.expect("records")
        };
        // The *same chunking* must reproduce exactly regardless of when
        // or where each chunk summary was produced (that's what the
        // parallel pipeline relies on: chunk boundaries are config, the
        // fold order is fixed).
        let a = fold(8);
        let b = fold(8);
        assert_eq!(a.records, b.records);
        assert_eq!(a.owd_kept, b.owd_kept);
        assert_eq!(format!("{:?}", a.owd_all), format!("{:?}", b.owd_all));
        assert_eq!(format!("{:?}", a.gaps.finish()), format!("{:?}", b.gaps.finish()));
        // And the exact (non-sketched) parts are chunking-invariant
        // altogether:
        let whole = summarize_whole(&log);
        assert_eq!(whole.records, a.records);
        assert_eq!(whole.shapes.sntp, a.shapes.sntp);
        assert_eq!(whole.providers.per_provider, a.providers.per_provider);
        assert_eq!(whole.owd_kept, a.owd_kept);
        assert_eq!(whole.gaps.gaps(), a.gaps.gaps());
    }

    #[test]
    fn union_merge_pools_without_boundary_gap() {
        let log = log();
        let s = summarize_whole(&log);
        let mut u = ChunkSummary::default();
        u.merge_union(&s);
        u.merge_union(&s);
        assert_eq!(u.records, 2 * s.records);
        // Two independent streams of g gaps each pool to 2g, not 2g+1.
        assert_eq!(u.gaps.gaps(), 2 * s.gaps.gaps());
    }

    #[test]
    fn state_is_constant_memory() {
        let log = log();
        let s = summarize_whole(&log);
        // 31 sketches at k=256 on ~50k records: well under 2 MB, and —
        // the actual claim — bounded by sketch depth, not record count.
        assert!(s.state_bytes() < 2 << 20, "state {}", s.state_bytes());
        let per_sketch = 64 << 10; // loose per-sketch ceiling at this k
        assert!(s.owd_all.state_bytes() < per_sketch);
        assert!(s.gaps.state_bytes() < per_sketch);
    }

    #[test]
    fn provider_owd_quantiles_follow_the_latency_ordering() {
        let log = log();
        let s = summarize_whole(&log);
        // Median OWD of mobile providers exceeds cloud providers (the
        // Figure 1 ordering), measured from the sketches alone.
        let med = |cat: crate::model::ProviderCategory| {
            let meds: Vec<f64> = (0..PROVIDERS.len())
                .filter(|i| {
                    PROVIDERS.get(*i).map(|p| p.category) == Some(cat)
                        && s.owd_per_provider.get(*i).map(|sk| sk.count() >= 50).unwrap_or(false)
                })
                .filter_map(|i| s.provider_owd_quantile(i, 0.5))
                .collect();
            assert!(!meds.is_empty(), "no populated provider in {cat:?}");
            meds.iter().sum::<f64>() / meds.len() as f64
        };
        let cloud = med(crate::model::ProviderCategory::CloudHosting);
        let mobile = med(crate::model::ProviderCategory::Mobile);
        assert!(cloud < mobile, "cloud={cloud} mobile={mobile}");
    }
}
