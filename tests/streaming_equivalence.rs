//! Streaming-vs-exact agreement, end to end: the constant-memory
//! `ChunkSummary` that the full-scale pipeline folds must agree with
//! the exact whole-log analyzers behind Figures 1–2 on every exact
//! (non-sketched) statistic, fed the same records.
//!
//! The day-long Table 1 logs used here have no sub-millisecond gaps;
//! `stream::tests::composite_counters_agree_with_batch_analyzers`
//! covers a window dense enough to have them.

use loganalysis::global_interarrival;
use loganalysis::model::SERVERS;
use loganalysis::owd::{extract_owds, OwdFilter};
use loganalysis::stream::ChunkSummary;
use loganalysis::synth::{generate_server_log, SynthConfig};

/// The composite full-scale summary, fed the *same* records as the
/// batch path, agrees on every exact (non-sketched) statistic, on the
/// first four Table 1 servers seeded as `generate_all_logs(_, 2016)`
/// seeds them.
#[test]
fn composite_summary_matches_batch_on_exact_stats() {
    let cfg = SynthConfig { scale: 20_000, duration_secs: 86_400 };
    let filter = OwdFilter::default();
    for (i, server) in SERVERS.iter().take(4).enumerate() {
        let log = generate_server_log(server, &cfg, 2016_u64.wrapping_add(i as u64 * 7919));
        let mut s = ChunkSummary::default();
        for r in &log.records {
            s.push(r, &filter);
        }
        assert_eq!(s.records, log.records.len() as u64);
        let owds = extract_owds(&log, &filter);
        let kept: usize = owds.values().map(|c| c.samples_ms.len()).sum();
        assert_eq!(s.owd_kept as usize, kept, "server {}", log.server.id);
        let inter = global_interarrival(&log);
        let sketched = s.gaps.finish();
        match (inter, sketched) {
            (Some(e), Some(a)) => {
                assert_eq!(e.gaps, a.gaps);
                assert!((e.sub_ms_share - a.sub_ms_share).abs() < 1e-12);
                assert!((e.mean_ms - a.mean_ms).abs() < 1e-6);
            }
            (e, a) => panic!("summary presence diverged: {e:?} vs {a:?}"),
        }
    }
}
